"""Dirac matrices in n+1 dimensions: construction and verification.

A representation is a set of Hermitian matrices {alpha_1..alpha_n, beta}
obeying

    alpha_i^2 = beta^2 = I,   {alpha_i, alpha_j} = 2 delta_ij I,
    {alpha_i, beta} = 0,

which forces zero traces, eigenvalues +-1 and even matrix dimension.
The minimal dimension is 2^ceil(n/2): two-component spinors suffice for
n = 1 and n = 2, four components are needed from n = 3 on.

verify_clifford checks each relation once: Hermiticity, M^2 = I, the
anticommutator of every pair of matrices, and the trace.  The +-1
spectrum needs no check of its own, since a Hermitian M with M^2 = I
has no other eigenvalues.

Everything here is exact: the recursive tensor-product construction only
ever produces entries in {0, +-1, +-i}, so the verification residuals of
a built representation are exactly zero in floating point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

for _m in (PAULI_X, PAULI_Y, PAULI_Z):
    _m.setflags(write=False)


@dataclass(frozen=True)
class DiracRepresentation:
    """Matrix set {alpha_1..alpha_n, beta} for n spatial dimensions."""

    n: int
    dim: int
    alphas: tuple[np.ndarray, ...]
    beta: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("spatial dimension n must be >= 1")
        if self.dim < 1:
            raise ValueError("matrix dimension must be >= 1")
        if len(self.alphas) != self.n:
            raise ValueError(
                f"expected {self.n} alpha matrices, got {len(self.alphas)}"
            )
        shape = (self.dim, self.dim)
        for name, m in self.matrices():
            if m.shape != shape:
                raise ValueError(f"{name} has shape {m.shape}, expected {shape}")

    def matrices(self) -> list[tuple[str, np.ndarray]]:
        """All matrices with their conventional names, alphas first."""
        named = [(f"alpha_{i + 1}", a) for i, a in enumerate(self.alphas)]
        named.append(("beta", self.beta))
        return named


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one representation against the algebra.

    ``max_deviation`` is the largest absolute entry residual over every
    checked identity, NaN if any residual is NaN; ``failures`` lists the
    identities whose residual exceeds ``tolerance`` or is NaN.  ``passed``
    iff max_deviation <= tolerance.
    """

    passed: bool
    max_deviation: float
    tolerance: float
    failures: list[tuple[str, float]] = field(default_factory=list)


def minimal_spinor_dimension(n: int) -> int:
    """Smallest matrix dimension carrying n+1 mutually anticommuting
    Hermitian involutions: 2^ceil(n/2)."""
    if n < 1:
        raise ValueError("spatial dimension n must be >= 1")
    return 2 ** ((n + 1) // 2)


def build_representation(n: int) -> DiracRepresentation:
    """Construct an exact minimal-dimension representation for n >= 1.

    Base cases use the Pauli matrices: {sigma_x; sigma_z} for n = 1 and
    {sigma_x, sigma_y; sigma_z} for n = 2.  The step n -> n+2 doubles the
    dimension:

        alpha_i'    = sigma_x (x) alpha_i      (i = 1..n)
        alpha_n+1'  = sigma_x (x) beta
        alpha_n+2'  = sigma_y (x) I
        beta'       = sigma_z (x) I

    All entries stay in {0, +-1, +-i}, so the algebra holds exactly.
    """
    if n < 1:
        raise ValueError("spatial dimension n must be >= 1")
    if n == 1:
        alphas = (PAULI_X.copy(),)
        beta = PAULI_Z.copy()
    elif n == 2:
        alphas = (PAULI_X.copy(), PAULI_Y.copy())
        beta = PAULI_Z.copy()
    else:
        inner = build_representation(n - 2)
        eye = np.eye(inner.dim, dtype=complex)
        alphas = tuple(np.kron(PAULI_X, a) for a in inner.alphas) + (
            np.kron(PAULI_X, inner.beta),
            np.kron(PAULI_Y, eye),
        )
        beta = np.kron(PAULI_Z, eye)
    for m in alphas:
        m.setflags(write=False)
    beta.setflags(write=False)
    return DiracRepresentation(n=n, dim=beta.shape[0], alphas=alphas, beta=beta)


def _max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m)))


def verify_clifford(
    rep: DiracRepresentation, tolerance: float = 1e-12
) -> VerificationReport:
    """Check every defining identity of the representation.

    Checks, in order: Hermiticity, squares equal to I, the anticommutator
    of every pair of rep.matrices() in pair order ({alpha_1, alpha_2},
    ..., {alpha_1, beta}, {alpha_2, alpha_3}, ...), and zero traces; that
    is (n+1)^2 matrix products.  Failures are listed in that order.  A
    violated identity is reported, not raised.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance}")
    named = rep.matrices()
    eye = np.eye(rep.dim, dtype=complex)

    deviations: list[tuple[str, float]] = []
    # an inf or huge entry gives inf/NaN residuals, which the report carries
    with np.errstate(invalid="ignore", over="ignore"):
        for name, m in named:
            deviations.append((f"hermitian({name})", _max_abs(m - m.conj().T)))
        for name, m in named:
            deviations.append((f"{name}^2 = I", _max_abs(m @ m - eye)))
        for (name_a, a), (name_b, b) in itertools.combinations(named, 2):
            deviations.append((f"{{{name_a}, {name_b}}} = 0", _max_abs(a @ b + b @ a)))
        for name, m in named:
            deviations.append((f"trace({name}) = 0", abs(complex(np.trace(m)))))

    # written so that a NaN residual (from a NaN or inf entry) fails
    max_deviation = float(np.max([dev for _, dev in deviations]))
    failures = [(name, dev) for name, dev in deviations if not dev <= tolerance]
    return VerificationReport(
        passed=max_deviation <= tolerance,
        max_deviation=max_deviation,
        tolerance=tolerance,
        failures=failures,
    )


def _matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    # dtype=complex also encodes int or float matrices a caller built
    return np.ascontiguousarray(m, dtype=complex).view(np.float64).reshape(*m.shape, 2).tolist()


def _matrix_from_json(name: str, rows: list) -> np.ndarray:
    try:
        m = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must be rows of [re, im] number pairs") from exc
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def representation_to_json(rep: DiracRepresentation) -> dict:
    """JSON-serializable form: entries as [re, im] pairs, row-major."""
    return {
        "n": rep.n,
        "dim": rep.dim,
        "alphas": [_matrix_to_json(a) for a in rep.alphas],
        "beta": _matrix_to_json(rep.beta),
    }


def representation_from_json(data: dict) -> DiracRepresentation:
    """Inverse of :func:`representation_to_json`; validates structure only.

    Anything but an object with integer ``n`` and ``dim``, a list of
    ``alphas`` and matrices of finite [re, im] number pairs raises
    ValueError.  Use :func:`verify_clifford` to check the algebra of an
    imported set.
    """
    if not isinstance(data, dict):
        raise ValueError(f"a representation must be a JSON object, got {type(data).__name__}")
    missing = [key for key in ("n", "dim", "alphas", "beta") if key not in data]
    if missing:
        raise ValueError("a representation needs keys n, dim, alphas and beta; "
                         f"missing: {', '.join(missing)}")
    for key in ("n", "dim"):
        if type(data[key]) is not int:
            raise ValueError(f"{key} must be an integer, got {data[key]!r}")
    if not isinstance(data["alphas"], list):
        raise ValueError("alphas must be a list of matrices")
    alphas = tuple(_matrix_from_json(f"alpha_{i + 1}", a) for i, a in enumerate(data["alphas"]))
    beta = _matrix_from_json("beta", data["beta"])
    for m in alphas:
        m.setflags(write=False)
    beta.setflags(write=False)
    return DiracRepresentation(n=data["n"], dim=data["dim"], alphas=alphas, beta=beta)
