"""Plane-wave scattering off a potential step in 1+1 dimensions.

A particle of energy E and mass m0 (natural units, hbar = c = 1) hits a
step of height V0 from the left.  The coupling decides how the step
enters the Dirac equation:

  vector        V added to the energy        (coupling matrix I)
  scalar        V added to the mass          (coupling matrix sigma_z)
  pseudoscalar  off-diagonal sigma_y channel (no closed form here; the
                dynamics module treats it numerically)

The closed-form solution is expressed through two kinematic factors,
the lower/upper spinor-component ratios on each side of the step:

    a = sqrt(E^2 - m0^2) / (E + m0)
    b = sqrt((E-V0)^2 - m0^2) / (E - V0 + m0)        (vector)
    b = sqrt(E^2 - (m0+V0)^2) / (E + m0 + V0)        (scalar)

with the principal square root throughout: a negative radicand gives
+i*sqrt(|.|) (the decaying evanescent branch).  Matching the spinor at
the step yields the amplitudes

    R = (a - b) / (a + b),   T = 2a / (a + b),   1 + R = T,

and the measurable flux ratios (coefficients)

    r = |R|^2,   t = Re(b)/a * |T|^2,

which satisfy r + t = 1 whenever the transmitted wave carries flux.

Sign conventions are deliberate.  For V0 > E + m0 (vector coupling) the
radicand is positive but the denominator is negative, so b < 0: the
transmitted wave propagates with inverted kinematics, its group velocity
pointing away from the step.  This is the Klein zone, where r > 1 and
t < 0.  Flipping the root sign would erase the effect.  Under scalar
coupling the substitution m0 -> m0 + V0 can never make b negative, so
the Klein zone does not exist there.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import IO

import numpy as np

from .algebra import PAULI_Y, PAULI_Z


class Coupling(str, Enum):
    """Lorentz channel of the step potential."""

    VECTOR = "vector"
    SCALAR = "scalar"
    PSEUDOSCALAR = "pseudoscalar"

    @property
    def matrix(self) -> np.ndarray:
        """2x2 coupling matrix multiplying V(x) in the Hamiltonian."""
        return _COUPLING_MATRICES[self]


_IDENTITY2 = np.eye(2, dtype=complex)
_IDENTITY2.setflags(write=False)
_COUPLING_MATRICES = {
    Coupling.VECTOR: _IDENTITY2,
    Coupling.SCALAR: PAULI_Z,
    Coupling.PSEUDOSCALAR: PAULI_Y,
}


class Regime(str, Enum):
    TRANSMISSION = "transmission"
    EVANESCENT = "evanescent"
    KLEIN_ZONE = "klein_zone"


_NO_CLOSED_FORM = (
    "pseudoscalar coupling has no closed-form step solution; use the dynamics module"
)


class SingularConfigurationError(ValueError):
    """Raised at isolated degenerate parameter points (0/0 kinematics)."""


@dataclass(frozen=True)
class ScatteringQuery:
    """One plane-wave scattering problem.

    The incident wave must propagate, so E > m0 > 0 is required.  V0 may
    have either sign.  All three must be finite.
    """

    E: float
    V0: float
    m0: float = 1.0
    coupling: Coupling = Coupling.VECTOR

    def __post_init__(self):
        object.__setattr__(self, "coupling", Coupling(self.coupling))
        if not (math.isfinite(self.E) and math.isfinite(self.V0) and math.isfinite(self.m0)):
            raise ValueError(
                f"E, V0 and m0 must be finite, got E={self.E}, V0={self.V0}, m0={self.m0}"
            )
        if not self.m0 > 0:
            raise ValueError(f"m0 must be positive, got {self.m0}")
        if not self.E > self.m0:
            raise ValueError(
                f"incident wave below threshold: need E > m0, got E={self.E}, m0={self.m0}"
            )


@dataclass(frozen=True)
class ScatteringResult:
    """Kinematic factors, amplitudes, coefficients and regime for one query."""

    a: float
    b: complex
    R: complex
    T: complex
    r: float
    t: float
    regime: Regime


def incident_factor(E: float, m0: float) -> float:
    """Incident-side kinematic factor a = sqrt(E^2 - m0^2)/(E + m0).

    Equals sqrt((E - m0)/(E + m0)); lies in [0, 1).  Requires E >= m0 > 0
    (E = m0 is the threshold, a = 0).
    """
    if not m0 > 0:
        raise ValueError(f"m0 must be positive, got {m0}")
    if E < m0:
        raise ValueError(f"incident wave below threshold: E={E} < m0={m0}")
    return math.sqrt(E * E - m0 * m0) / (E + m0)


def _step_factor(omega: float, mass: float) -> complex:
    """Principal-root kinematic factor sqrt(omega^2 - mass^2)/(omega + mass).

    Both branches (vector and scalar) reduce to this with the appropriate
    (omega, mass) pair, which makes the scalar substitution m0 -> m0 + V0
    literally the same code path.
    """
    radicand = omega * omega - mass * mass
    denominator = omega + mass
    if denominator == 0.0:
        # omega == -mass exactly, so the radicand is exactly zero too:
        # a 0/0 point where the closed form is undefined.
        raise SingularConfigurationError(
            f"degenerate kinematics: omega + mass = 0 at omega={omega}, mass={mass} "
            "(transmitted factor is a 0/0 limit here)"
        )
    if radicand >= 0.0:
        return complex(math.sqrt(radicand) / denominator, 0.0)
    return complex(0.0, math.sqrt(-radicand) / denominator)


def transmitted_factor(E: float, V0: float, m0: float, coupling: Coupling) -> complex:
    """Transmitted-side kinematic factor b.

    Vector:  b = sqrt((E-V0)^2 - m0^2) / (E - V0 + m0)
    Scalar:  b = sqrt(E^2 - (m0+V0)^2) / (E + m0 + V0)

    Principal square root: negative radicand -> +i*sqrt(|.|), the decaying
    evanescent branch.  In the vector Klein zone (V0 > E + m0) the radicand
    is positive and the denominator negative, so b < 0.
    """
    if not m0 > 0:
        raise ValueError(f"m0 must be positive, got {m0}")
    if not E > m0:
        raise ValueError(f"incident wave below threshold: E={E}, m0={m0}")
    coupling = Coupling(coupling)
    if coupling is Coupling.VECTOR:
        return _step_factor(E - V0, m0)
    if coupling is Coupling.SCALAR:
        return _step_factor(E, m0 + V0)
    raise ValueError(_NO_CLOSED_FORM)


def coefficients(a: float, b: complex, R: complex, T: complex) -> tuple[float, float]:
    """Flux-ratio coefficients (r, t) from amplitudes.

    r = |R|^2 and t = Re(b)/a * |T|^2, the reflected and transmitted
    probability currents normalized to the incident one (the spinor
    convention behind a and b is (1, a)-type, giving current 2k/(E+m0)
    per unit density: the density factors cancel in the ratios and only
    Re(b)/a survives in t).  For real b the identity
    (a-b)^2 + 4ab = (a+b)^2 makes r + t = 1 exact; for purely imaginary b
    (evanescent) t = 0 and r = 1.
    """
    if not a > 0:
        raise ValueError(f"incident factor must be positive, got a={a}")
    r = R.real * R.real + R.imag * R.imag
    t = (b.real / a) * (T.real * T.real + T.imag * T.imag)
    return r, t


def classify_regime(q: ScatteringQuery) -> Regime:
    """Transmission / evanescent / Klein-zone classification.

    Vector: Transmission iff E - V0 > m0; KleinZone iff V0 > E + m0;
    Evanescent otherwise (boundaries included).  Scalar: Transmission iff
    E > |m0 + V0|, Evanescent otherwise; no Klein zone exists.  The test
    uses the same radicand/denominator arithmetic as transmitted_factor,
    so the label always agrees with the branch b actually took.
    """
    if q.coupling is Coupling.VECTOR:
        omega, mass = q.E - q.V0, q.m0
    elif q.coupling is Coupling.SCALAR:
        omega, mass = q.E, q.m0 + q.V0
    else:
        raise ValueError("pseudoscalar coupling has no closed-form regime")
    radicand = omega * omega - mass * mass
    if radicand > 0.0:
        return Regime.TRANSMISSION if omega + mass > 0.0 else Regime.KLEIN_ZONE
    return Regime.EVANESCENT


def amplitudes(q: ScatteringQuery) -> ScatteringResult:
    """Solve one query: factors, amplitudes R and T, coefficients, regime.

    R = (a - b)/(a + b), T = 2a/(a + b); the continuity identity 1 + R = T
    holds by construction.  Raises SingularConfigurationError at the
    isolated degenerate points where a + b = 0 or b is a 0/0 limit.
    """
    if q.coupling is Coupling.PSEUDOSCALAR:
        raise ValueError(_NO_CLOSED_FORM)
    a = incident_factor(q.E, q.m0)
    b = transmitted_factor(q.E, q.V0, q.m0, q.coupling)
    if a + b == 0:
        raise SingularConfigurationError(
            f"a + b = 0 at E={q.E}, V0={q.V0}, m0={q.m0}: amplitudes diverge"
        )
    R = (a - b) / (a + b)
    T = 2 * a / (a + b)
    r, t = coefficients(a, b, R, T)
    return ScatteringResult(a=a, b=b, R=R, T=T, r=r, t=t, regime=classify_regime(q))


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a parameter sweep.

    Exactly one of result/error is set: invalid or degenerate points are
    carried as error rows instead of being dropped, so row order always
    matches grid order.
    """

    E: float
    V0: float
    m0: float
    coupling: Coupling
    result: ScatteringResult | None = None
    error: str | None = None


_REGIMES = (Regime.TRANSMISSION, Regime.EVANESCENT, Regime.KLEIN_ZONE)
VALUE_COLUMNS = ("a", "re_b", "im_b", "re_R", "im_R", "re_T", "im_T", "r", "t")
# Rows a SweepTable iterator converts to Python objects at once, which
# bounds the memory of one pass over a long sweep.
_ROW_CHUNK = 4096


def _quotient(ar, ai, br, bi):
    """Elementwise (ar + i ai) / (br + i bi) in CPython's complex arithmetic.

    numpy's complex division rounds differently from Python's in the last
    bit, so this repeats CPython's Smith division (_Py_c_quot) branch for
    branch in real arithmetic; every quotient is then bitwise the one the
    scalar path computes.
    """
    by_real = np.abs(br) >= np.abs(bi)
    ratio = np.where(by_real, bi / br, br / bi)
    denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
    re = np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom
    im = np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom
    return re, im


class SweepTable(Sequence[SweepRow]):
    """Closed-form results over a set of points, one numpy array per column.

    The constructor evaluates the whole closed form at once: E, V0 and m0
    are broadcast to one 1-D grid, and ``values`` maps each of
    VALUE_COLUMNS to a float64 array that is bitwise what amplitudes()
    returns at that point.  ``regime`` indexes (transmission, evanescent,
    klein_zone); ``error`` marks the points amplitudes() refuses (non-finite
    input, E <= m0, the 0/0 point omega + mass = 0, a + b = 0), whose value
    columns are meaningless.

    The table is also a sequence of SweepRow, in grid order.  Rows are
    built on each access and never kept, and an error row's message is
    built only then.
    """

    def __init__(self, E, V0, m0, coupling: Coupling):
        self.coupling = Coupling(coupling)
        if self.coupling is Coupling.PSEUDOSCALAR:
            raise ValueError(_NO_CLOSED_FORM)
        E, V0, m0 = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, dtype=float))
                                          for x in (E, V0, m0)))
        self.E, self.V0, self.m0 = E, V0, m0
        with np.errstate(all="ignore"):
            if self.coupling is Coupling.VECTOR:
                omega, mass = E - V0, m0
            else:
                omega, mass = E, m0 + V0
            radicand = omega * omega - mass * mass
            denominator = omega + mass
            propagating = radicand >= 0.0
            a = np.sqrt(E * E - m0 * m0) / (E + m0)
            re_b = np.where(propagating, np.sqrt(radicand) / denominator, 0.0)
            im_b = np.where(propagating, 0.0, np.sqrt(-radicand) / denominator)
            # Python's float-complex arithmetic: a - b = (a - re_b, 0.0 - im_b)
            # and a + b = (a + re_b, 0.0 + im_b); "0.0 -" keeps the signed zeros.
            re_sum, im_sum = a + re_b, 0.0 + im_b
            re_R, im_R = _quotient(a - re_b, 0.0 - im_b, re_sum, im_sum)
            re_T, im_T = _quotient(2 * a, 0.0, re_sum, im_sum)
            r = re_R * re_R + im_R * im_R
            t = (re_b / a) * (re_T * re_T + im_T * im_T)
            valid = (np.isfinite(E) & np.isfinite(V0) & np.isfinite(m0)
                     & (m0 > 0.0) & (E > m0) & (denominator != 0.0) & (a > 0.0)
                     & ((re_sum != 0.0) | (im_sum != 0.0)))
        self.values = dict(zip(VALUE_COLUMNS, (a, re_b, im_b, re_R, im_R, re_T, im_T, r, t)))
        self.regime = np.where(radicand > 0.0, np.where(denominator > 0.0, 0, 2), 1)
        self.error = ~valid

    def __len__(self) -> int:
        return len(self.E)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._row(i) for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        if not -len(self) <= i < len(self):
            raise IndexError(f"row {index} out of range for {len(self)} rows")
        return self._row(i % len(self))

    def __iter__(self) -> Iterator[SweepRow]:
        columns = self._columns()
        for start in range(0, len(self), _ROW_CHUNK):
            chunk = [column[start:start + _ROW_CHUNK].tolist() for column in columns]
            yield from map(self._make_row, *chunk)

    def _columns(self) -> list[np.ndarray]:
        return [self.E, self.V0, self.m0, self.error, self.regime, *self.values.values()]

    def _row(self, i: int) -> SweepRow:
        return self._make_row(*(column.item(i) for column in self._columns()))

    def _make_row(self, E, V0, m0, error, regime, a, re_b, im_b, re_R, im_R, re_T, im_T,
                  r, t) -> SweepRow:
        if error:
            return SweepRow(E, V0, m0, self.coupling, error=self._error_message(E, V0, m0))
        result = ScatteringResult(
            a=a, b=complex(re_b, im_b), R=complex(re_R, im_R), T=complex(re_T, im_T),
            r=r, t=t, regime=_REGIMES[regime],
        )
        return SweepRow(E, V0, m0, self.coupling, result=result)

    def _error_message(self, E: float, V0: float, m0: float) -> str:
        # The scalar path's own refusal, so the message is exactly its text.
        try:
            amplitudes(ScatteringQuery(E=E, V0=V0, m0=m0, coupling=self.coupling))
        except ValueError as exc:
            return str(exc)
        raise RuntimeError(
            f"array kernel refused E={E}, V0={V0}, m0={m0} but amplitudes() solves it"
        )


SWEEP_AXES = ("E", "V0", "m0")


def sweep(
    base: ScatteringQuery, axis: str, start: float, stop: float, steps: int
) -> SweepTable:
    """Evaluate the closed form along a uniform inclusive grid of one axis.

    Invalid or degenerate grid points stay in the table as error rows.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"sweep bounds must be finite, got {start} .. {stop}")
    if not start < stop:
        raise ValueError(f"need start < stop, got {start} .. {stop}")
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    if base.coupling is Coupling.PSEUDOSCALAR:
        raise ValueError("pseudoscalar coupling cannot be swept in closed form")
    grid = {"E": base.E, "V0": base.V0, "m0": base.m0}
    with np.errstate(over="ignore", invalid="ignore"):
        # a span past the float range gives NaN/inf grid values: error rows
        grid[axis] = np.linspace(start, stop, steps)
    return SweepTable(coupling=base.coupling, **grid)


CSV_HEADER = "E,V0,m0,coupling,a,re_b,im_b,re_R,im_R,re_T,im_T,r,t,regime"
_REGIME_NAMES = np.array([regime.value for regime in _REGIMES], dtype=object)


def sweep_to_csv(table: SweepTable, stream: IO[str]) -> None:
    """Write a table in the documented CSV schema.

    Floats carry 17 significant digits, an exact round trip for IEEE
    doubles.  Error rows keep their grid coordinates, leave the numeric
    fields empty, and carry "error" in the regime column.
    """
    head = f"%.17g,%.17g,%.17g,{table.coupling.value},"
    line = head + "%.17g," * len(VALUE_COLUMNS) + "%s\n"
    error_line = head + "," * len(VALUE_COLUMNS) + "error\n"
    columns = [column.tolist() for column in
               (table.E, table.V0, table.m0, *table.values.values())]
    lines = list(map(line.__mod__, zip(*columns, _REGIME_NAMES[table.regime].tolist())))
    for i in np.flatnonzero(table.error).tolist():
        lines[i] = error_line % (columns[0][i], columns[1][i], columns[2][i])
    stream.write(CSV_HEADER + "\n" + "".join(lines))


def _json_object(fields: dict[str, str], pad: str) -> str:
    """An object laid out as json.dumps(..., indent=2, sort_keys=True) lays
    it out at indentation `pad`; `fields` maps each key to its JSON text."""
    inner = pad + "  "
    body = ",\n".join(f"{inner}{json.dumps(key)}: {fields[key]}" for key in sorted(fields))
    return f"{pad}{{\n{body}\n{pad}}}"


def _json_numbers(column: np.ndarray, written=slice(None)) -> list:
    # str(float) is the json module's text for finite floats; NaN and the
    # infinities need its own spelling.  Only the `written` cells matter.
    if np.isfinite(column[written]).all():
        return column.tolist()
    return [json.dumps(value) for value in column.tolist()]


def sweep_to_json(table: SweepTable, stream: IO[str], *, single: bool = False) -> None:
    """Write a table as json.dumps(rows, indent=2, sort_keys=True) writes it.

    Each row is an object keyed by the CSV column names; an error row holds
    E, V0, m0, coupling and its error message instead of values.  With
    single=True the table's one row is written as a bare object.
    """
    pad = "" if single else "  "
    coupling = json.dumps(table.coupling.value)
    coordinates = {"E": table.E, "V0": table.V0, "m0": table.m0}
    texts = {name: _json_numbers(column) for name, column in coordinates.items()}
    texts.update((name, _json_numbers(column, ~table.error))
                 for name, column in table.values.items())
    texts["regime"] = _REGIME_NAMES[table.regime].tolist()
    slots = sorted(texts)
    # regime names need no JSON escaping, so their quotes sit in the template
    template = _json_object(
        {**dict.fromkeys(slots, "%s"), "regime": '"%s"', "coupling": coupling}, pad)
    objects = list(map(template.__mod__, zip(*(texts[name] for name in slots))))
    for i in np.flatnonzero(table.error).tolist():
        fields = {name: str(texts[name][i]) for name in ("E", "V0", "m0")}
        objects[i] = _json_object(
            {**fields, "coupling": coupling, "error": json.dumps(table[i].error)}, pad)
    if single:
        (text,) = objects
    else:
        text = "[\n" + ",\n".join(objects) + "\n]"
    stream.write(text + "\n")
