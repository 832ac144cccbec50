"""Plane-wave scattering off a potential step in 1+1 dimensions.

A particle of energy E and mass m0 (natural units, hbar = c = 1) hits a
step of height V0 from the left.  The coupling decides how the step
enters the Dirac equation:

  vector        V added to the energy        (coupling matrix I)
  scalar        V added to the mass          (coupling matrix sigma_z)
  pseudoscalar  off-diagonal sigma_y channel (no closed form here; the
                dynamics module treats it numerically)

The closed-form solution is expressed through two kinematic factors,
the lower/upper spinor-component ratios on each side of the step.  The
step enters only through one substitution, written once (_channel): on
the transmitted side the pair (omega, mass) is (E - V0, m0) for a vector
step and (E, m0 + V0) for a scalar one, and

    a = sqrt(E^2 - m0^2) / (E + m0)
    b = sqrt(omega^2 - mass^2) / (omega + mass)

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

A point has an answer iff E, V0 and m0 are finite, E > m0 > 0, and r and
t come out finite; amplitudes() refuses any other point with ValueError,
and a SweepTable marks it as an error row.

sweep_to_csv and sweep_to_json share one row path: each renders rows
[lo, hi) of a table, and _write_rows joins consecutive ranges.  When the
process may keep two or more CPUs busy (its os.sched_getaffinity set and
its cgroup's CPU quota), runs no other Python thread and the table holds
at least 2 * _FORK_ROWS rows, one forked child renders the second half of
the rows while the process renders the first.  The bytes are those of one
pass in this process; `taskset -c 0` keeps a run in one process.
"""

from __future__ import annotations

import json
import math
import os
import threading
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import IO, NoReturn

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
    """Vector: transmission iff E - V0 > m0, Klein zone iff V0 > E + m0,
    evanescent otherwise.  Scalar: transmission iff E > |m0 + V0|,
    evanescent otherwise; there is no scalar Klein zone."""

    TRANSMISSION = "transmission"
    EVANESCENT = "evanescent"
    KLEIN_ZONE = "klein_zone"


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


def _channel(coupling: Coupling, E, V0, m0):
    """The (omega, mass) pair on the transmitted side of the step.

    A vector step shifts the energy, (E - V0, m0); a scalar step shifts the
    mass, (E, m0 + V0).  Works on floats and numpy arrays alike, and is the
    one place that refuses pseudoscalar coupling.
    """
    if coupling is Coupling.VECTOR:
        return E - V0, m0
    if coupling is Coupling.SCALAR:
        return E, m0 + V0
    raise ValueError(
        "pseudoscalar coupling has no closed-form step solution; use the dynamics module")


def _step_factor(omega: float, mass: float) -> complex:
    """Principal-root kinematic factor sqrt(omega^2 - mass^2)/(omega + mass).

    Both couplings reduce to this with their (omega, mass) pair from
    _channel, which makes the scalar substitution m0 -> m0 + V0 literally
    the same code path.
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
    is positive and the denominator negative, so b < 0.  Refuses exactly
    the points amplitudes() refuses, with its messages.
    """
    return amplitudes(ScatteringQuery(E, V0, m0, coupling)).b


def _regime(omega: float, mass: float) -> Regime:
    # the radicand and denominator of _step_factor, so the label always
    # agrees with the branch b took
    if omega * omega - mass * mass > 0.0:
        return Regime.TRANSMISSION if omega + mass > 0.0 else Regime.KLEIN_ZONE
    return Regime.EVANESCENT


def amplitudes(q: ScatteringQuery) -> ScatteringResult:
    """Solve one query: factors, amplitudes R and T, coefficients, regime.

    R = (a - b)/(a + b), T = 2a/(a + b); the continuity identity 1 + R = T
    holds by construction.  Raises SingularConfigurationError at the
    isolated degenerate points where a + b = 0 or b is a 0/0 limit, and
    ValueError where a is not positive (E and m0 so small that it underflows
    to 0, or so large that E^2 and m0^2 overflow) or the closed form
    overflows (E^2, omega^2 or mass^2 past the float range), which leaves r
    or t non-finite.
    """
    # Python floats: numpy scalars would warn on the overflows refused below
    E, V0, m0 = float(q.E), float(q.V0), float(q.m0)
    omega, mass = _channel(q.coupling, E, V0, m0)
    # the query holds finite E > m0 > 0, so the radicand is not negative
    a = math.sqrt(E * E - m0 * m0) / (E + m0)
    b = _step_factor(omega, mass)
    if a + b == 0:
        raise SingularConfigurationError(
            f"a + b = 0 at E={E}, V0={V0}, m0={m0}: amplitudes diverge"
        )
    if not a > 0:
        raise ValueError(f"incident factor must be positive, got a={a}")
    R = (a - b) / (a + b)
    T = 2 * a / (a + b)
    # flux ratios: the spinor densities cancel and only Re(b)/a survives in t
    r = R.real * R.real + R.imag * R.imag
    t = (b.real / a) * (T.real * T.real + T.imag * T.imag)
    if not (math.isfinite(r) and math.isfinite(t)):
        raise ValueError(
            f"closed form overflows at E={E}, V0={V0}, m0={m0}: "
            f"r={r} and t={t} are not finite"
        )
    return ScatteringResult(a=a, b=b, R=R, T=T, r=r, t=t, regime=_regime(omega, mass))


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
# The fewest rows a sweep writer hands to a forked child.  On a 2-vCPU VM
# the fork and the pipe broke even at about 1024 rows a half, and halves
# of 4096 rows or more saved a quarter to a half of a writer call.
_FORK_ROWS = 4096
# Where a container's own cgroup is mounted (v2, or v1's cpu controller).
_CGROUP = "/sys/fs/cgroup"


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
    klein_zone); ``error`` marks the points amplitudes() refuses: a point is
    valid iff m0 > 0, E > m0 and r and t come out finite.  An error row's
    value columns are meaningless; a valid row's are all finite.

    The table is also a sequence of SweepRow, in grid order.  Rows are
    built on each access and never kept, and an error row's message is
    built only then.
    """

    def __init__(self, E, V0, m0, coupling: Coupling):
        self.coupling = Coupling(coupling)
        E, V0, m0 = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, dtype=float))
                                          for x in (E, V0, m0)))
        self.E, self.V0, self.m0 = E, V0, m0
        with np.errstate(all="ignore"):
            omega, mass = _channel(self.coupling, E, V0, m0)
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
            # NaN/inf input, the 0/0 point, a = 0 and a + b = 0 all leave r or t NaN
            valid = (m0 > 0.0) & (E > m0) & np.isfinite(r) & np.isfinite(t)
        self.values = dict(zip(VALUE_COLUMNS, (a, re_b, im_b, re_R, im_R, re_T, im_T, r, t)))
        self.regime = np.where(radicand > 0.0, np.where(denominator > 0.0, 0, 2), 1)
        self.error = ~valid

    def __len__(self) -> int:
        return len(self.E)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._rows(index)
        i = range(len(self))[index]
        return self._rows(slice(i, i + 1))[0]

    def __iter__(self) -> Iterator[SweepRow]:
        for start in range(0, len(self), _ROW_CHUNK):
            yield from self._rows(slice(start, start + _ROW_CHUNK))

    def _rows(self, index: slice) -> list[SweepRow]:
        columns = (self.E, self.V0, self.m0, self.error, self.regime, *self.values.values())
        return list(map(self._make_row, *(column[index].tolist() for column in columns)))

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

    Only base.E, base.V0, base.m0 and base.coupling are read, so any object
    with those four attributes will do; the grid replaces the value on
    `axis`, which is never used.  Invalid or degenerate grid points stay in
    the table as error rows.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    if not math.isfinite(stop - start):
        raise ValueError(f"sweep bounds and their span must be finite, got {start} .. {stop}")
    if not start < stop:
        raise ValueError(f"need start < stop, got {start} .. {stop}")
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    grid = {"E": base.E, "V0": base.V0, "m0": base.m0}
    with np.errstate(over="ignore"):
        # near the float range only the last product overflows; linspace sets it to stop
        grid[axis] = np.linspace(start, stop, steps)
    return SweepTable(coupling=base.coupling, **grid)


CSV_HEADER = ",".join((*SWEEP_AXES, "coupling", *VALUE_COLUMNS, "regime"))
_REGIME_NAMES = np.array([regime.value for regime in _REGIMES], dtype=object)


def _write_rows(stream: IO[str], n: int, render: Callable[[int, int], str],
                before: str, between: str, after: str) -> None:
    """Write `before`, render(lo, hi) for consecutive ranges [lo, hi) that
    cover rows [0, n) with `between` joining them, then `after`.

    When os.fork exists, the process may keep two or more CPUs busy, no
    other Python thread runs and each half of the rows holds _FORK_ROWS,
    a forked child renders the second half while this process renders the
    first.  Otherwise [0, n) is one range, rendered here.  A child that does
    not hand back its rows (its render raised, or it was killed) leaves its
    half to be rendered here, so the bytes, and any exception, are those of
    one pass in this process.
    """
    half = n // 2
    if half >= _FORK_ROWS and hasattr(os, "fork") and hasattr(os, "sched_getaffinity") \
            and threading.active_count() == 1 and _usable_cpus() >= 2:
        texts = _render_halves(render, half, n)
    else:
        texts = [render(0, n)]
    # in pieces: joining them would copy the whole document once more
    stream.write(before)
    for i, text in enumerate(texts):
        if i:
            stream.write(between)
        stream.write(text)
    stream.write(after)


def _usable_cpus() -> float:
    """The CPUs this process may keep busy: its affinity set, capped by the
    CFS quota of its cgroup when one is readable.  Two processes sharing
    one CPU's quota write a table more slowly than one."""
    cpus = len(os.sched_getaffinity(0))
    try:
        try:
            with open(os.path.join(_CGROUP, "cpu.max")) as fh:
                quota, period = fh.read().split()
        except FileNotFoundError:
            with open(os.path.join(_CGROUP, "cpu", "cpu.cfs_quota_us")) as fh:
                quota = fh.read()
            with open(os.path.join(_CGROUP, "cpu", "cpu.cfs_period_us")) as fh:
                period = fh.read()
        if quota.strip() not in ("max", "-1"):
            return min(cpus, int(quota) / int(period))
    except (OSError, ValueError):
        pass
    return cpus


def _render_halves(render: Callable[[int, int], str], half: int, n: int) -> list[str]:
    """[render(0, half), render(half, n)], the second rendered by a forked
    child when it succeeds.  The child is reaped before this returns or
    raises."""
    reader, writer = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(reader)
        os.close(writer)
        return [render(0, n)]
    if pid == 0:
        _render_child(render, half, n, reader, writer)
    os.close(writer)
    try:
        # closing the read end first frees a child blocked on a full pipe
        with open(reader, "rb") as pipe:
            first = render(0, half)
            data = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    return [first, data.decode() if status == 0 else render(half, n)]


def _render_child(render: Callable[[int, int], str], lo: int, hi: int,
                  reader: int, writer: int) -> NoReturn:
    """A forked child's whole life: render rows lo..hi, write them to
    `writer` as UTF-8 and leave through os._exit, which runs no atexit
    handler and flushes none of the parent's buffers.  The whole range is
    rendered before the first byte is written, so a full pipe cannot stall
    the child while the parent renders.  Exit code 0 means every row was
    written; any failure leaves silently with exit code 1."""
    status = 1
    try:
        os.close(reader)
        data = render(lo, hi).encode()
        with open(writer, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _fixed_fields(columns: dict[str, np.ndarray], lo: int, hi: int,
                  text: Callable[[np.float64], str]) -> dict[str, str]:
    """text(value) of each column whose rows lo..hi all hold the same bits,
    so that a writer formats the value once instead of once a row."""
    fixed = {}
    for name, column in columns.items():
        bits = column[lo:hi].view(np.uint64)
        if len(bits) and (bits == bits[0]).all():
            fixed[name] = text(column[lo])
    return fixed


def sweep_to_csv(table: SweepTable, stream: IO[str]) -> None:
    """Write a table in the documented CSV schema.

    Floats carry 17 significant digits, an exact round trip for IEEE
    doubles.  Error rows keep their grid coordinates, leave the numeric
    fields empty, and carry "error" in the regime column.
    """
    error_line = f"%.17g,%.17g,%.17g,{table.coupling.value}," + "," * len(VALUE_COLUMNS) + "error\n"
    columns = {"E": table.E, "V0": table.V0, "m0": table.m0, **table.values}

    def render(lo: int, hi: int) -> str:
        fixed = _fixed_fields(columns, lo, hi, "%.17g".__mod__)
        fields = [fixed.get(name, "%.17g") for name in columns]
        line = ",".join([*fields[:3], table.coupling.value, *fields[3:], "%s\n"])
        varying = [column[lo:hi].tolist() for name, column in columns.items()
                   if name not in fixed]
        lines = list(map(line.__mod__,
                         zip(*varying, _REGIME_NAMES[table.regime[lo:hi]].tolist())))
        for i in np.flatnonzero(table.error[lo:hi]).tolist():
            lines[i] = error_line % (table.E[lo + i], table.V0[lo + i], table.m0[lo + i])
        return "".join(lines)

    _write_rows(stream, len(table), render, CSV_HEADER + "\n", "", "")


def _json_object(fields: dict[str, str]) -> str:
    """An object laid out as json.dumps(rows, indent=2, sort_keys=True) lays
    out an element of the list rows; `fields` maps each key to its JSON text."""
    body = ",\n".join(f"    {json.dumps(key)}: {fields[key]}" for key in sorted(fields))
    return f"  {{\n{body}\n  }}"


def _json_numbers(column: np.ndarray) -> list:
    # str(float) is the json module's text for finite floats, but not for NaN or inf
    if np.isfinite(column).all():
        return column.tolist()
    return [json.dumps(value) for value in column.tolist()]


def sweep_to_json(table: SweepTable, stream: IO[str]) -> None:
    """Write a table as json.dumps(rows, indent=2, sort_keys=True) writes it.

    Each row is an object keyed by the CSV column names; an error row holds
    E, V0, m0, coupling and its error message instead of values.
    """
    coupling = json.dumps(table.coupling.value)
    columns = {**{name: getattr(table, name) for name in SWEEP_AXES}, **table.values}

    def render(lo: int, hi: int) -> str:
        fixed = _fixed_fields(columns, lo, hi, lambda value: json.dumps(float(value)))
        # regime names need no JSON escaping, so their quotes sit in the template
        template = _json_object({**dict.fromkeys(columns, "%s"), **fixed,
                                 "regime": '"%s"', "coupling": coupling})
        texts = {name: _json_numbers(column[lo:hi]) if name in SWEEP_AXES
                 else column[lo:hi].tolist()
                 for name, column in columns.items() if name not in fixed}
        texts["regime"] = _REGIME_NAMES[table.regime[lo:hi]].tolist()
        # _json_object lays the fields out in key order, so the slots come in that order
        objects = list(map(template.__mod__, zip(*(texts[name] for name in sorted(texts)))))
        for i in np.flatnonzero(table.error[lo:hi]).tolist():
            fields = {name: json.dumps(float(getattr(table, name)[lo + i]))
                      for name in SWEEP_AXES}
            objects[i] = _json_object(
                {**fields, "coupling": coupling, "error": json.dumps(table[lo + i].error)})
        return ",\n".join(objects)

    _write_rows(stream, len(table), render, "[\n", ",\n", "\n]\n")
