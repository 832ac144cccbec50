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

Everything here is exact: the tensor-product construction only
ever produces entries in {0, +-1, +-i}, so the verification residuals of
a built representation are exactly zero in floating point.  Such a
matrix is monomial (one nonzero per row and per column), a permutation
with a phase per row, so verify_clifford holds it as (column, phase)
arrays and gets every residual by index arithmetic in O(dim) per
identity.  The phases are Gaussian integers, so every value computed
from them is an exact Gaussian integer (of modulus <= 2, traces aside)
and every residual is bitwise the one the dense products give.  Any
other matrix (rotated, scaled, an entry like 0.6+0.8i, NaN or inf) sends
the whole set through the dense products instead; the report is the
same either way.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_PAULI_YZ = np.array([PAULI_Y, PAULI_Z])

for _m in (PAULI_X, PAULI_Y, PAULI_Z, _PAULI_YZ):
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

    The levels are built upward from the base, each as one (m+1, d, d)
    array, by two broadcast products written through its (m+1, 2, d, 2, d)
    view: sigma_x times the whole previous level, and (sigma_y, sigma_z)
    times I.  Each entry is the product P[p, q] * A[k, l] that np.kron
    forms, signed zeros included.  The last level is the (n+1, dim, dim)
    block allocated before any level is built, so a size past memory
    raises MemoryError at once; the block is made read-only and the
    alphas and beta are its C-contiguous views.  An n whose block has more
    bytes than a numpy array can index (n >= 53 on a 64-bit platform) is
    refused with ValueError.
    """
    if n < 1:
        raise ValueError("spatial dimension n must be >= 1")
    dim = minimal_spinor_dimension(n)
    if (n + 1) * dim * dim * np.dtype(complex).itemsize > np.iinfo(np.intp).max:
        raise ValueError(f"spatial dimension n = {n} needs {n + 1} matrices of dimension "
                         f"2^{(n + 1) // 2}, more bytes than one array can hold")
    block = np.empty((n + 1, dim, dim), dtype=complex)
    m = 2 - n % 2
    level = block if m == n else np.empty((m + 1, 2, 2), dtype=complex)
    level[...] = (PAULI_X, PAULI_Y)[:m] + (PAULI_Z,)
    while m < n:
        m, d, inner = m + 2, level.shape[-1], level
        level = block if m == n else np.empty((m + 1, 2 * d, 2 * d), dtype=complex)
        # grid[i, p, k, q, l] is entry (k, l) of block (p, q) of matrix i
        grid = level.reshape(m + 1, 2, d, 2, d)
        np.multiply(PAULI_X[:, None, :, None], inner[:, None, :, None, :], out=grid[:-2])
        np.multiply(_PAULI_YZ[:, :, None, :, None], np.eye(d, dtype=complex)[:, None, :],
                    out=grid[-2:])
    block.setflags(write=False)
    return DiracRepresentation(n=n, dim=dim, alphas=tuple(block[:n]), beta=block[n])


def _max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m)))


def _monomial(m: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(cols, vals) with m[i, cols[i]] = vals[i] the only nonzero of row i,
    if every row and every column of m holds exactly one nonzero and each
    nonzero is exactly 1, i, -1 or -i; None otherwise.

    Only complex128 qualifies: the scan reads its entries as float64 pairs,
    and the dense products of any other dtype round differently.
    """
    if m.dtype != np.complex128:
        return None
    dim = m.shape[0]
    # a flag byte per real and imaginary part (NaN and inf are nonzero); the
    # two flags of an entry read as one 2-byte word, nonzero iff the entry is
    flags = np.ascontiguousarray(m).view(np.float64) != 0
    rows, cols = np.divmod(np.flatnonzero(flags.view(np.uint16) != 0), dim)
    if (len(rows) != dim or np.any(rows != np.arange(dim))
            or np.any(np.bincount(cols, minlength=dim) != 1)):
        return None
    vals = m[rows, cols]
    re, im = np.abs(vals.real), np.abs(vals.imag)
    if not np.all(((re == 1) & (im == 0)) | ((re == 0) & (im == 1))):
        return None
    return cols, vals


def _sum_residual(col_x: np.ndarray, x: np.ndarray,
                  col_y: np.ndarray, y: np.ndarray) -> float:
    """max |X + Y| over the entries of two monomial matrices whose row i
    holds x[i] at column col_x[i] and y[i] at column col_y[i]."""
    return float(np.max(np.where(col_x == col_y, np.abs(x + y),
                                 np.maximum(np.abs(x), np.abs(y)))))


def _monomial_hermitian(m: tuple[np.ndarray, np.ndarray]) -> float:
    cols, vals = m
    inv = np.empty_like(cols)
    inv[cols] = np.arange(len(cols))  # row i of M^dagger: column inv[i]
    return _sum_residual(cols, vals, inv, -vals[inv].conj())


def _monomial_square_minus_eye(m: tuple[np.ndarray, np.ndarray]) -> float:
    cols, vals = m
    return _sum_residual(cols[cols], vals * vals[cols],
                         np.arange(len(cols)), -np.ones(len(cols)))


def _monomial_anticommutator(a: tuple[np.ndarray, np.ndarray],
                             b: tuple[np.ndarray, np.ndarray]) -> float:
    (col_a, val_a), (col_b, val_b) = a, b
    return _sum_residual(col_b[col_a], val_a * val_b[col_a],
                         col_a[col_b], val_b * val_a[col_b])


def _monomial_trace(m: tuple[np.ndarray, np.ndarray]) -> float:
    cols, vals = m
    return abs(complex(np.sum(vals[cols == np.arange(len(cols))])))


def _residuals(named, hermitian, square_minus_eye, anticommutator, trace):
    """The identities verify_clifford checks, in its order, each with the
    residual the given functions compute for it."""
    return (
        [(f"hermitian({name})", hermitian(m)) for name, m in named]
        + [(f"{name}^2 = I", square_minus_eye(m)) for name, m in named]
        + [(f"{{{name_a}, {name_b}}} = 0", anticommutator(a, b))
           for (name_a, a), (name_b, b) in itertools.combinations(named, 2)]
        + [(f"trace({name}) = 0", trace(m)) for name, m in named]
    )


def _monomial_residuals(named) -> list[tuple[str, float]] | None:
    """The residuals from (column, phase) arrays, or None if any matrix is
    not monomial."""
    arrays = [(name, _monomial(m)) for name, m in named]
    if any(a is None for _, a in arrays):
        return None
    return _residuals(arrays, _monomial_hermitian, _monomial_square_minus_eye,
                      _monomial_anticommutator, _monomial_trace)


def _dense_residuals(named) -> list[tuple[str, float]]:
    """The residuals from dense matrix products, for any matrices."""
    eye = np.eye(named[0][1].shape[0], dtype=complex)
    # an inf or huge entry gives inf/NaN residuals, which the report carries
    with np.errstate(invalid="ignore", over="ignore"):
        return _residuals(
            named,
            lambda m: _max_abs(m - m.conj().T),
            lambda m: _max_abs(m @ m - eye),
            lambda a, b: _max_abs(a @ b + b @ a),
            lambda m: abs(complex(np.trace(m))),
        )


def _report(deviations: list[tuple[str, float]], tolerance: float) -> VerificationReport:
    # written so that a NaN residual (from a NaN or inf entry) fails
    max_deviation = float(np.max([dev for _, dev in deviations]))
    failures = [(name, dev) for name, dev in deviations if not dev <= tolerance]
    return VerificationReport(
        passed=max_deviation <= tolerance,
        max_deviation=max_deviation,
        tolerance=tolerance,
        failures=failures,
    )


def verify_clifford(
    rep: DiracRepresentation, tolerance: float = 1e-12
) -> VerificationReport:
    """Check every defining identity of the representation.

    Checks, in order: Hermiticity, squares equal to I, the anticommutator
    of every pair of rep.matrices() in pair order ({alpha_1, alpha_2},
    ..., {alpha_1, beta}, {alpha_2, alpha_3}, ...), and zero traces.
    Failures are listed in that order.  A violated identity is reported,
    not raised.

    When every matrix is monomial with phases in {+-1, +-i}, as built ones
    are, each residual costs O(dim) index arithmetic; otherwise the
    residuals come from (n+1)^2 dense matrix products.  Both give the same
    report.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance}")
    named = rep.matrices()
    deviations = _monomial_residuals(named)
    if deviations is None:
        deviations = _dense_residuals(named)
    return _report(deviations, tolerance)


def _matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    # dtype=complex also encodes int or float matrices a caller built
    return np.ascontiguousarray(m, dtype=complex).view(np.float64).reshape(*m.shape, 2).tolist()


def _matrix_json_text(m: np.ndarray) -> str:
    """json.dumps(_matrix_to_json(m)), formatting each distinct entry once."""
    pairs = np.ascontiguousarray(m, dtype=complex).view(np.int64).reshape(-1, 2)
    # one code per bit pattern of an (re, im) pair, so -0.0 stays apart from 0.0
    _, re_code = np.unique(pairs[:, 0], return_inverse=True)
    im_bits, im_code = np.unique(pairs[:, 1], return_inverse=True)
    _, first, entry = np.unique(re_code * len(im_bits) + im_code,
                                return_index=True, return_inverse=True)
    # one json.dumps of the distinct pairs, so NaN, +-Infinity and -0.0 read
    # as in the whole-matrix dump: "[[a, b], [c, d]]" -> "[a, b", "[c, d"
    texts = np.array(json.dumps(pairs[first].view(np.float64).tolist())[1:-2].split("], "),
                     dtype=object)
    # each entry followed by the next entry or, in the last column, the next row
    entry = entry.reshape(m.shape)
    pieces = (texts + "], ")[entry]
    pieces[:, -1] = texts[entry[:, -1]] + "]], ["
    return "[[" + "".join(pieces.ravel().tolist())[:-3] + "]"


def _matrix_from_json(name: str, rows: list) -> np.ndarray:
    # One flat list of the entries serves one type scan and one conversion;
    # a check per entry would cost as much as the conversion at dim 128.
    message = f"{name} must be rows of [re, im] number pairs"
    try:
        pairs = list(itertools.chain.from_iterable(rows))
        entries = list(itertools.chain.from_iterable(pairs))
    except TypeError as exc:  # a row or a pair that is not a list
        raise ValueError(message) from exc
    widths = set(map(len, rows))
    # a JSON true or false loads as a bool, which would convert to 1 or 0
    if (not set(map(type, entries)) <= {int, float}
            or len(widths) > 1 or set(map(len, pairs)) - {2}):
        raise ValueError(message)
    try:
        flat = np.array(entries, dtype=float)
    except OverflowError as exc:  # an integer past the float range
        raise ValueError(message) from exc
    # read-only at the buffer that owns the entries, so no view can write them
    flat.setflags(write=False)
    m = flat.view(complex).reshape(len(rows), *widths)
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


def write_representation_json(rep: DiracRepresentation, stream: TextIO) -> None:
    """Write ``json.dumps(representation_to_json(rep), sort_keys=True)`` and
    a newline to the text stream, byte for byte, one matrix at a time.

    Each matrix is formatted in one array pass: one json.dumps call writes
    every distinct [re, im] bit pattern once and the entries pick their
    text by index, so a built matrix (at most four distinct patterns) costs
    little more than a join. A matrix of all-distinct entries formats every
    float as json.dumps does, plus the three sorts that find the patterns:
    a rotated n = 14 or 16 set takes about 1.1 times as long as json.dumps.
    """
    stream.write('{"alphas": [')
    for i, a in enumerate(rep.alphas):
        stream.write((", " if i else "") + _matrix_json_text(a))
    stream.write(f'], "beta": {_matrix_json_text(rep.beta)}, '
                 f'"dim": {json.dumps(rep.dim)}, "n": {json.dumps(rep.n)}}}\n')


def representation_from_json(data: dict) -> DiracRepresentation:
    """Inverse of :func:`representation_to_json`; validates structure only.

    Anything but an object with integer ``n`` and ``dim``, a list of
    ``alphas`` and matrices of finite [re, im] number pairs raises
    ValueError.  Use :func:`verify_clifford` to check the algebra of an
    imported set.  The matrices are read-only down to the buffer that
    holds their entries, as built ones are.
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
    return DiracRepresentation(n=data["n"], dim=data["dim"], alphas=alphas, beta=beta)


def read_representation_json(stream: TextIO) -> DiracRepresentation:
    """Inverse of :func:`write_representation_json`: parse the JSON text
    stream and convert it with :func:`representation_from_json`.

    Any JSON layout of the object reads the same. A stream that is not
    JSON, or nests too deeply to parse, raises ValueError, as does any
    object representation_from_json refuses.

    The cyclic garbage collector is paused while the stream is parsed and
    converted, and left as it was found: the parse builds a list per
    [re, im] pair (about 250 000 at n = 14), none of them in a cycle, and
    each collector pass would walk them all, about a third of the read.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            data = json.load(stream)
        except RecursionError as exc:
            raise ValueError("representation JSON nests too deeply to parse") from exc
        return representation_from_json(data)
    finally:
        if enabled:
            gc.enable()
