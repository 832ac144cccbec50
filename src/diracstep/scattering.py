"""Plane-wave scattering off a potential step in 1+1 dimensions.

A particle of energy E and mass m0 (natural units, hbar = c = 1) hits a
step of height V0 from the left.  The coupling decides how the step
enters the Dirac equation:

  vector        V added to the energy        (coupling matrix I)
  scalar        V added to the mass          (coupling matrix sigma_z)
  pseudoscalar  V as a sigma_y term          (coupling matrix sigma_y)

The closed-form solution is expressed through two kinematic factors,
the lower/upper spinor-component ratios on each side of the step.  The
step enters only through one substitution, written once (_channel): on
the transmitted side the triple (omega, mass, nu) is (E - V0, m0, 0) for
a vector step, (E, m0 + V0, 0) for a scalar one and (E, m0, V0) for a
pseudoscalar one, and

    a = sqrt(E^2 - m0^2) / (E + m0)
    b = (sqrt(omega^2 - mass^2 - nu^2) + i nu) / (omega + mass)

with the principal square root throughout: a negative radicand gives
+i*sqrt(|.|) (the decaying evanescent branch).  The incident side has no
sigma_y term, so a is real, and matching the spinor at the step yields
the amplitudes

    R = (a - b) / (a + b),   T = 2a / (a + b),   1 + R = T,

and the measurable flux ratios (coefficients)

    r = |R|^2,   t = Re(b)/a * |T|^2 = 4a Re(b)/|a + b|^2,

which satisfy r + t = 1 whenever the transmitted wave carries flux.  As
a > 0, t has the sign of Re b, which names the regime: transmission iff
Re b > 0, evanescent iff Re b = 0 (r = 1, t = 0), Klein zone iff Re b < 0.

Sign conventions are deliberate.  For V0 > E + m0 (vector coupling) the
radicand is positive but the denominator is negative, so b < 0: the
transmitted wave propagates with inverted kinematics, its group velocity
pointing away from the step.  This is the Klein zone, where r > 1 and
t < 0.  Flipping the root sign would erase the effect.  Under scalar
coupling the substitution m0 -> m0 + V0 can never make b negative, so
the Klein zone does not exist there.  Nor under pseudoscalar coupling,
whose denominator is E + m0 > 0: that step is evanescent iff
E^2 <= m0^2 + V0^2, with r = 1 and t = 0, and transmits otherwise.

A point has an answer iff E, V0 and m0 are finite, E > m0 > 0, a > 0,
and r and t come out finite; amplitudes() refuses any other point with
ValueError, and a SweepTable marks it as an error row.

sweep_to_csv and sweep_to_json share one row path, _render_rows, and give
it only their format: number text, row layout, error-row text and
separator.  _write_rows joins consecutive row ranges [lo, hi).  When the
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


# keyed by member and value string, so neither depends on how Enum hashes a member
_COUPLING_OF = {key: member for member in Coupling for key in (member, member.value)}
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
    evanescent otherwise.  Pseudoscalar: transmission iff
    E^2 > m0^2 + V0^2, evanescent otherwise.  Only a vector step has a
    Klein zone."""

    TRANSMISSION = "transmission"
    EVANESCENT = "evanescent"
    KLEIN_ZONE = "klein_zone"


# indexed by (Re b <= 0) + (Re b < 0) in amplitudes(), and by SweepTable.regime
_REGIMES = (Regime.TRANSMISSION, Regime.EVANESCENT, Regime.KLEIN_ZONE)


class SingularConfigurationError(ValueError):
    """Raised at isolated degenerate parameter points (0/0 kinematics)."""


def _as_coupling(value) -> Coupling:
    """The member named by a member or its value string, with one dict lookup;
    anything else goes to Coupling(value), which refuses it with Enum's text."""
    try:
        return _COUPLING_OF[value]
    except (KeyError, TypeError):
        return Coupling(value)


@dataclass(frozen=True, slots=True)
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
        object.__setattr__(self, "coupling", _as_coupling(self.coupling))
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


@dataclass(frozen=True, slots=True)
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
    """The (omega, mass, nu) triple on the transmitted side of the step.

    A vector step shifts the energy, (E - V0, m0, 0); a scalar step shifts
    the mass, (E, m0 + V0, 0); a pseudoscalar step adds a sigma_y term,
    (E, m0, V0).  Works on floats and numpy arrays alike.
    """
    if coupling is Coupling.VECTOR:
        return E - V0, m0, 0.0
    if coupling is Coupling.SCALAR:
        return E, m0 + V0, 0.0
    return E, m0, V0


def _step_factor(omega: float, mass: float, nu: float = 0.0) -> complex:
    """Principal-root kinematic factor
    (sqrt(omega^2 - mass^2 - nu^2) + i nu)/(omega + mass).

    Every coupling reduces to this with its (omega, mass, nu) triple from
    _channel, which makes the scalar substitution m0 -> m0 + V0 literally
    the same code path.  The sigma_y term is added as 0.0 + nu/(omega + mass)
    so that nu = 0 leaves the bits of the nu-free factor, +0.0 included.
    """
    radicand = omega * omega - mass * mass - nu * nu
    denominator = omega + mass
    if denominator == 0.0:
        # omega == -mass exactly, and nu = 0 (a pseudoscalar step keeps
        # omega + mass = E + m0 > 0), so the radicand is exactly zero too:
        # a 0/0 point where the closed form is undefined.
        raise SingularConfigurationError(
            f"degenerate kinematics: omega + mass = 0 at omega={omega}, mass={mass} "
            "(transmitted factor is a 0/0 limit here)"
        )
    shift = nu / denominator
    if radicand >= 0.0:
        return complex(math.sqrt(radicand) / denominator, 0.0 + shift)
    return complex(0.0, math.sqrt(-radicand) / denominator + shift)


def transmitted_factor(E: float, V0: float, m0: float, coupling: Coupling) -> complex:
    """Transmitted-side kinematic factor b.

    Vector:        b = sqrt((E-V0)^2 - m0^2) / (E - V0 + m0)
    Scalar:        b = sqrt(E^2 - (m0+V0)^2) / (E + m0 + V0)
    Pseudoscalar:  b = (sqrt(E^2 - m0^2 - V0^2) + i V0) / (E + m0)

    Principal square root: negative radicand -> +i*sqrt(|.|), the decaying
    evanescent branch.  In the vector Klein zone (V0 > E + m0) the radicand
    is positive and the denominator negative, so b < 0.  Refuses exactly
    the points amplitudes() refuses, with its messages.
    """
    return amplitudes(ScatteringQuery(E, V0, m0, coupling)).b


def _flux(a, re_b, im_b):
    """re R, im R, re T, im T, r and t for a > 0 and b = re_b + i im_b, the
    one formula of amplitudes() and the SweepTable kernel.  Every quantity
    is scaled by sigma = |a + Re b| + |Im b| so that no square overflows.
    Only + - * / and abs occur, so floats and float64 arrays give the same
    bits; "0.0 -" keeps a zero imaginary part +0.0, and Re b = 0 gives
    r = 1 and t = 0 exactly."""
    x = a + re_b
    sigma = abs(x) + abs(im_b)
    s = x / sigma
    d = (a - re_b) / sigma
    y = im_b / sigma
    u = a / sigma
    q = s * s + y * y
    im = 0.0 - 2 * u * y / q
    return ((d * s - y * y) / q, im, 2 * u * s / q, im, (d * d + y * y) / q,
            4 * u * (re_b / sigma) / q)


def amplitudes(q: ScatteringQuery) -> ScatteringResult:
    """Solve one query: factors, amplitudes R and T, coefficients, regime.

    R = (a - b)/(a + b), T = 2a/(a + b), r and t come from _flux, and the
    regime is the sign of Re b.  Raises SingularConfigurationError at the
    isolated degenerate points where a + b = 0 or b is a 0/0 limit, and
    ValueError where a is not positive (E and m0 so small that it underflows
    to 0, or so large that E^2 and m0^2 overflow) or the closed form
    overflows (E^2, omega^2, mass^2 or nu^2 past the float range), which
    leaves r or t non-finite.
    """
    # Python floats: numpy scalars would warn on the overflows refused below
    E, V0, m0 = float(q.E), float(q.V0), float(q.m0)
    omega, mass, nu = _channel(q.coupling, E, V0, m0)
    # the query holds finite E > m0 > 0, so the radicand is not negative
    a = math.sqrt(E * E - m0 * m0) / (E + m0)
    b = _step_factor(omega, mass, nu)
    re_b, im_b = b.real, b.imag
    if a + re_b == 0 and im_b == 0:
        raise SingularConfigurationError(
            f"a + b = 0 at E={E}, V0={V0}, m0={m0}: amplitudes diverge"
        )
    if not a > 0:
        raise ValueError(f"incident factor must be positive, got a={a}")
    re_R, im_R, re_T, im_T, r, t = _flux(a, re_b, im_b)
    if not (math.isfinite(r) and math.isfinite(t)):
        raise ValueError(
            f"closed form overflows at E={E}, V0={V0}, m0={m0}: "
            f"r={r} and t={t} are not finite"
        )
    return ScatteringResult(a, b, complex(re_R, im_R), complex(re_T, im_T), r, t,
                            _REGIMES[(re_b <= 0.0) + (re_b < 0.0)])


@dataclass(frozen=True, slots=True)
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


class SweepTable(Sequence[SweepRow]):
    """Closed-form results over a set of points, one numpy array per column.

    The constructor evaluates the whole closed form at once: E, V0 and m0
    must broadcast to one 1-D grid, and ``values`` maps each of
    VALUE_COLUMNS to a float64 array that is bitwise what amplitudes()
    returns at that point: R, T, r and t come from _flux, and only b's branch
    (np.where for if) and masking for raising differ.  ``regime`` indexes
    (transmission, evanescent, klein_zone) by the sign of re_b; ``error``
    marks the points amplitudes() refuses: a point is valid iff m0 > 0,
    E > m0, a > 0 and r and t come out finite.  An error row's values and
    regime mean nothing; a valid row's values are all finite.

    The table is also a sequence of SweepRow, in grid order.  Rows are
    built on each access and never kept, and an error row's message is
    built only then.
    """

    def __init__(self, E, V0, m0, coupling: Coupling):
        self.coupling = Coupling(coupling)
        E, V0, m0 = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, dtype=float))
                                          for x in (E, V0, m0)))
        if E.ndim != 1:
            raise ValueError(f"E, V0 and m0 must broadcast to one 1-D grid, got shape {E.shape}")
        self.E, self.V0, self.m0 = E, V0, m0
        with np.errstate(all="ignore"):
            omega, mass, nu = _channel(self.coupling, E, V0, m0)
            radicand = omega * omega - mass * mass - nu * nu
            denominator = omega + mass
            propagating = radicand >= 0.0
            a = np.sqrt(E * E - m0 * m0) / (E + m0)
            re_b = np.where(propagating, np.sqrt(radicand) / denominator, 0.0)
            im_b = np.where(propagating, 0.0, np.sqrt(-radicand) / denominator) + nu / denominator
            re_R, im_R, re_T, im_T, r, t = _flux(a, re_b, im_b)
            # NaN/inf input, the 0/0 point and a + b = 0 all leave r or t NaN
            valid = (m0 > 0.0) & (E > m0) & (a > 0.0) & np.isfinite(r) & np.isfinite(t)
        self.values = dict(zip(VALUE_COLUMNS, (a, re_b, im_b, re_R, im_R, re_T, im_T, r, t)))
        self.regime = np.where(re_b > 0.0, 0, np.where(re_b < 0.0, 2, 1))
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
        result = ScatteringResult(a, complex(re_b, im_b), complex(re_R, im_R),
                                  complex(re_T, im_T), r, t, _REGIMES[regime])
        return SweepRow(E, V0, m0, self.coupling, result)

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


def _render_rows(table: SweepTable, lo: int, hi: int, fields: Sequence[str], slot: str,
                 layout: Callable[[dict[str, str]], str], error_row: Callable[[int], str],
                 sep: str) -> str:
    """Rows lo..hi of `table`, `sep` between them.  layout(texts) is a row's
    template: it lays out the text of each number column and of the regime
    in the order `fields` names them.  A number column that holds the same
    bits on rows lo..hi has the text `slot % value`; every other has `slot`
    and the regime "%s", filled from each row.  Error row i is error_row(i).
    """
    columns = {"E": table.E, "V0": table.V0, "m0": table.m0, **table.values}
    texts = {"regime": "%s"}
    varying = {"regime": _REGIME_NAMES[table.regime[lo:hi]].tolist()}
    for name, column in columns.items():
        bits = column[lo:hi].view(np.uint64)
        if len(bits) and (bits == bits[0]).all():
            texts[name] = slot % float(column[lo])
        else:
            texts[name], varying[name] = slot, column[lo:hi].tolist()
    template = layout(texts)
    rows = list(map(template.__mod__,
                    zip(*(varying[name] for name in fields if name in varying))))
    for i in np.flatnonzero(table.error[lo:hi]).tolist():
        rows[i] = error_row(lo + i)
    return sep.join(rows)


def _write_rows(stream: IO[str], n: int, render: Callable[[int, int], str],
                before: str, between: str, after: str) -> None:
    """Write `before`, render(lo, hi) for consecutive ranges [lo, hi) that
    cover rows [0, n) with `between` joining them, then `after`.

    When os.fork exists, the process may keep two or more CPUs busy, no
    other Python thread runs and each half of the rows holds _FORK_ROWS,
    a forked child renders the second half while this process renders the
    first.  Otherwise [0, n) is one range, rendered here.  A child that does
    not hand back its rows (its render raised, or it was killed), or a fork
    that fails, leaves the half to be rendered here, so the bytes, and any
    exception, are those of one pass in this process.
    """
    half = n // 2
    if half >= _FORK_ROWS and hasattr(os, "fork") and hasattr(os, "sched_getaffinity") \
            and threading.active_count() == 1 and _usable_cpus() >= 2:
        first, second = _render_halves(render, half, n)
        pieces = [before, first, between, second, after]
    else:
        pieces = [before, render(0, n), after]
    # in pieces: joining them would copy the whole document once more
    stream.writelines(pieces)


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


def _render_halves(render: Callable[[int, int], str], half: int, n: int) -> tuple[str, str]:
    """render(0, half) and render(half, n), the second by a forked child
    when one can be made and hands its rows back.  The child is reaped
    before this returns or raises."""
    reader, writer = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(reader)
        os.close(writer)
        return render(0, half), render(half, n)
    if pid == 0:
        # The whole range is rendered before a byte is written, so a full pipe
        # cannot stall the child while this process renders.  os._exit runs no
        # atexit handler and flushes none of this process's buffers.
        status = 1
        try:
            os.close(reader)
            with open(writer, "wb") as pipe:
                pipe.write(render(half, n).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(writer)
    try:
        # closing the read end first frees a child blocked on a full pipe
        with open(reader, "rb") as pipe:
            first = render(0, half)
            data = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    return first, data.decode() if status == 0 else render(half, n)


def sweep_to_csv(table: SweepTable, stream: IO[str]) -> None:
    """Write a table in the documented CSV schema.

    Floats carry 17 significant digits, an exact round trip for IEEE
    doubles.  Error rows keep their grid coordinates, leave the numeric
    fields empty, and carry "error" in the regime column.
    """
    coupling = table.coupling.value
    fields = CSV_HEADER.split(",")
    error_line = f"%.17g,%.17g,%.17g,{coupling}," + "," * len(VALUE_COLUMNS) + "error\n"

    def layout(texts: dict[str, str]) -> str:
        return ",".join(map({**texts, "coupling": coupling}.get, fields)) + "\n"

    def error_row(i: int) -> str:
        return error_line % (table.E[i], table.V0[i], table.m0[i])

    _write_rows(stream, len(table),
                lambda lo, hi: _render_rows(table, lo, hi, fields, "%.17g", layout, error_row, ""),
                CSV_HEADER + "\n", "", "")


def _json_object(fields: dict[str, str]) -> str:
    """An object laid out as json.dumps(rows, indent=2, sort_keys=True) lays
    out an element of the list rows; `fields` maps each key to its JSON text."""
    body = ",\n".join(f"    {json.dumps(key)}: {fields[key]}" for key in sorted(fields))
    return f"  {{\n{body}\n  }}"


def sweep_to_json(table: SweepTable, stream: IO[str]) -> None:
    """Write a table as json.dumps(rows, indent=2, sort_keys=True) writes it.

    Each row is an object keyed by the CSV column names; an error row holds
    E, V0, m0, coupling and its error message instead of values.
    """
    if not len(table):
        stream.write("[]\n")
        return
    coupling = json.dumps(table.coupling.value)
    fields = sorted(CSV_HEADER.split(","))

    def layout(texts: dict[str, str]) -> str:
        # a number's str() is its JSON text, as a valid row's numbers are finite;
        # regime names need no JSON escaping, so their quotes sit in the template
        return _json_object({**texts, "coupling": coupling, "regime": '"%s"'})

    def error_row(i: int) -> str:
        point = {name: float(getattr(table, name)[i]) for name in SWEEP_AXES}
        return _json_object({**{name: json.dumps(value) for name, value in point.items()},
                             "coupling": coupling,
                             "error": json.dumps(table._error_message(**point))})

    _write_rows(stream, len(table),
                lambda lo, hi: _render_rows(table, lo, hi, fields, "%s", layout, error_row,
                                            ",\n"),
                "[\n", ",\n", "\n]\n")
