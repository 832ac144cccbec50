"""Reference computations and output checks, written apart from diracstep.

Nothing in this module imports the package under test.  The closed forms
are evaluated with numpy from the principal-root formulas of PAPER.md,
regimes come from the threshold inequalities, packets are built and
propagated exactly in momentum space, and the Clifford identities are
checked through matrix-vector products on random vectors.

Every ``check_*`` function returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

import numpy as np

VALUE_COLUMNS = ("a", "re_b", "im_b", "re_R", "im_R", "re_T", "im_T", "r", "t")
CSV_HEADER = ",".join(("E", "V0", "m0", "coupling") + VALUE_COLUMNS + ("regime",))
OBSERVABLE_COLUMNS = ("step", "time", "norm", "mean_x", "p_left", "p_right", "current")

# Closed-form values: the program and this module do the same IEEE operations
# except complex division, which may differ in the last bits.
VALUE_RTOL = 1e-12
# The Klein point of PAPER.md: (E, V0, m0) = (1.5, 3, 1) gives r = 9/4, t = -5/4.
KLEIN_POINT = (1.5, 3.0, 1.0)
KLEIN_POINT_RT = (2.25, -1.25)

MAX_PROBLEMS = 8


def _note(problems: list[str], message: str) -> None:
    if len(problems) < MAX_PROBLEMS:
        problems.append(message)


# --------------------------------------------------------------------------
# closed-form step scattering


def closed_form(E, V0, m0, coupling) -> dict:
    """a, b, R, T, r, t, regime label and error mask on arrays.

    b = sqrt(omega^2 - mass^2) / (omega + mass) with the principal root
    (+i sqrt|.| for a negative radicand), where (omega, mass) is (E - V0, m0)
    for vector and (E, m0 + V0) for scalar coupling.  Error points are those
    with E <= m0 (no incident wave) or omega + mass = 0 (the 0/0 point).
    """
    E, V0, m0, coupling = np.broadcast_arrays(
        np.asarray(E, dtype=float), np.asarray(V0, dtype=float),
        np.asarray(m0, dtype=float), np.asarray(coupling))
    vector = coupling == "vector"
    omega = np.where(vector, E - V0, E)
    mass = np.where(vector, m0, m0 + V0)
    with np.errstate(all="ignore"):
        a = np.sqrt(E * E - m0 * m0) / (E + m0)
        radicand = omega * omega - mass * mass
        magnitude = np.sqrt(np.abs(radicand))
        root = np.where(radicand >= 0, magnitude + 0j, 1j * magnitude)
        b = root / (omega + mass)
        R = (a - b) / (a + b)
        T = 2 * a / (a + b)
        r = R.real ** 2 + R.imag ** 2
        t = b.real / a * (T.real ** 2 + T.imag ** 2)
    regime = np.where(
        vector,
        np.where(E - V0 > m0, "transmission",
                 np.where(V0 > E + m0, "klein_zone", "evanescent")),
        np.where(E > np.abs(m0 + V0), "transmission", "evanescent"),
    )
    error = ~(E > m0) | ~(m0 > 0) | (omega + mass == 0)
    return {
        "a": a, "re_b": b.real, "im_b": b.imag, "re_R": R.real, "im_R": R.imag,
        "re_T": T.real, "im_T": T.imag, "r": r, "t": t,
        "regime": regime, "error": error,
    }


def parse_sweep_csv(text: str) -> dict:
    """Columns of a sweep CSV: float arrays (NaN where a field is empty), and
    lists of strings for coupling and regime."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {lines[:1]!r}")
    names = CSV_HEADER.split(",")
    rows = [line.split(",") for line in lines[1:]]
    for i, fields in enumerate(rows):
        if len(fields) != len(names):
            raise ValueError(f"row {i} has {len(fields)} fields, expected {len(names)}")
    columns: dict = {}
    for j, name in enumerate(names):
        if name in ("coupling", "regime"):
            columns[name] = [fields[j] for fields in rows]
        else:
            columns[name] = np.array(
                [float(fields[j]) if fields[j] else math.nan for fields in rows])
    return columns


def parse_sweep_json(text: str) -> dict:
    """Columns of a sweep JSON array in the same form as parse_sweep_csv."""
    rows = json.loads(text)
    columns: dict = {"coupling": [row["coupling"] for row in rows]}
    for name in ("E", "V0", "m0") + VALUE_COLUMNS:
        columns[name] = np.array([float(row.get(name, math.nan)) for row in rows])
    columns["regime"] = ["error" if "error" in row else row["regime"] for row in rows]
    return columns


def check_sweep(columns: dict, coupling: str, axis: str, start: float, stop: float,
                steps: int, base: dict) -> list[str]:
    """Grid order, error rows, values, regimes and r + t = 1 of one sweep."""
    problems: list[str] = []
    n = len(columns["E"])
    if n != steps:
        return [f"{n} rows, expected {steps}"]
    grid = np.linspace(start, stop, steps)
    for name in ("E", "V0", "m0"):
        expected = grid if name == axis else np.full(steps, float(base[name]))
        if not np.array_equal(columns[name], expected):
            bad = int(np.flatnonzero(columns[name] != expected)[0])
            _note(problems, f"{name} column leaves the grid at row {bad}")
    if any(c != coupling for c in columns["coupling"]):
        _note(problems, f"coupling column is not {coupling!r} throughout")
    ref = closed_form(grid if axis == "E" else base["E"],
                      grid if axis == "V0" else base["V0"],
                      grid if axis == "m0" else base["m0"], coupling)
    regimes = np.asarray(columns["regime"])
    is_error = regimes == "error"
    if not np.array_equal(is_error, ref["error"]):
        bad = np.flatnonzero(is_error != ref["error"])
        _note(problems, f"error rows differ from E <= m0 or the 0/0 point at rows "
                        f"{bad[:5].tolist()}")
    values = np.column_stack([columns[c] for c in VALUE_COLUMNS])
    if np.any(~np.isnan(values[is_error])):
        _note(problems, "an error row carries values")
    ok = ~is_error & ~ref["error"]
    for name in VALUE_COLUMNS:
        got, want = columns[name][ok], ref[name][ok]
        bad = np.abs(got - want) > VALUE_RTOL * np.maximum(1.0, np.abs(want))
        if np.any(bad) or np.any(np.isnan(got)):
            i = int(np.flatnonzero(bad | np.isnan(got))[0])
            _note(problems, f"{name} = {got[i]!r}, closed form gives {want[i]!r}")
    if not np.array_equal(regimes[ok], ref["regime"][ok]):
        i = int(np.flatnonzero(regimes[ok] != ref["regime"][ok])[0])
        _note(problems, f"regime {regimes[ok][i]!r} where the thresholds give "
                        f"{ref['regime'][ok][i]!r}")
    problems += check_flux(columns["r"][ok], columns["t"][ok], regimes[ok], coupling)
    if coupling == "vector":
        at_klein_point = ((columns["E"] == KLEIN_POINT[0]) & (columns["V0"] == KLEIN_POINT[1])
                          & (columns["m0"] == KLEIN_POINT[2]))
        for r, t in zip(columns["r"][at_klein_point], columns["t"][at_klein_point]):
            if not np.allclose((r, t), KLEIN_POINT_RT, rtol=0, atol=1e-14):
                _note(problems, f"Klein point gives (r, t) = {(r, t)}, "
                                f"expected {KLEIN_POINT_RT}")
    return problems


def check_flux(r, t, regimes, coupling) -> list[str]:
    """r + t = 1 wherever a transmitted wave exists; no scalar Klein zone."""
    problems: list[str] = []
    regimes = np.asarray(regimes)
    propagating = (regimes == "transmission") | (regimes == "klein_zone")
    residual = np.abs(np.asarray(r) + np.asarray(t) - 1.0)[propagating]
    scale = np.maximum(1.0, np.abs(np.asarray(r)[propagating]))
    if np.any(residual > VALUE_RTOL * scale):
        _note(problems, f"r + t - 1 reaches {residual.max():.3g}")
    scalar = np.asarray(coupling) == "scalar"
    if np.any(scalar & (regimes == "klein_zone")):
        _note(problems, "a scalar point is labelled klein_zone")
    return problems


def check_queries(points, results) -> list[str]:
    """Single-query results, as (a, b, R, T, r, t, regime) tuples, against
    the closed form at the query points (E, V0, m0, coupling)."""
    problems: list[str] = []
    E, V0, m0, coupling = (np.array(col) for col in zip(*points))
    ref = closed_form(E, V0, m0, coupling)
    if np.any(ref["error"]):
        _note(problems, "a query point is degenerate")
    a, b, R, T, r, t, regime = zip(*results)
    got = {
        "a": np.array(a), "re_b": np.real(b), "im_b": np.imag(b),
        "re_R": np.real(R), "im_R": np.imag(R), "re_T": np.real(T),
        "im_T": np.imag(T), "r": np.array(r), "t": np.array(t),
    }
    for name, values in got.items():
        want = ref[name]
        bad = ~(np.abs(values - want) <= VALUE_RTOL * np.maximum(1.0, np.abs(want)))
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            _note(problems, f"query {points[i]}: {name} = {values[i]!r}, "
                            f"closed form gives {want[i]!r}")
    regime = np.array(regime)
    if not np.array_equal(regime, ref["regime"]):
        i = int(np.flatnonzero(regime != ref["regime"])[0])
        _note(problems, f"query {points[i]}: regime {regime[i]!r}, thresholds give "
                        f"{ref['regime'][i]!r}")
    problems += check_flux(got["r"], got["t"], regime, coupling)
    for point, result in zip(points, results):
        if point[:3] == KLEIN_POINT and point[3] == "vector":
            if not np.allclose(result[4:6], KLEIN_POINT_RT, rtol=0, atol=1e-14):
                _note(problems, f"Klein point gives (r, t) = {result[4:6]}, "
                                f"expected {KLEIN_POINT_RT}")
    return problems


def bitwise_equal(x, y) -> bool:
    """Same IEEE bit patterns (so -0.0 differs from 0.0 and NaN equals NaN)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def check_svg(text: str, n_points: int) -> list[str]:
    """Two polylines (r and t) with one vertex per valid grid point, left to right."""
    problems: list[str] = []
    root = ET.fromstring(text)
    lines = [el for el in root.iter() if el.tag.endswith("polyline")]
    if len(lines) != 2:
        return [f"{len(lines)} polylines, expected 2 (r and t)"]
    for line in lines:
        xy = np.array([p.split(",") for p in line.get("points").split()], dtype=float)
        if len(xy) != n_points:
            _note(problems, f"polyline has {len(xy)} vertices, expected {n_points}")
        elif np.any(np.diff(xy[:, 0]) < 0):
            _note(problems, "polyline x coordinates are not in grid order")
    return problems


# --------------------------------------------------------------------------
# packet evolution


class FreePacket:
    """The positive-energy Gaussian packet of the evolve command, propagated
    exactly: every momentum mode is a free positive-energy eigenstate, so
    exp(-i H0 t) multiplies it by exp(-i E_k t)."""

    def __init__(self, n: int, length: float, x_c: float, k_c: float,
                 sigma: float, m0: float):
        self.dx = length / n
        self.x = -0.5 * length + self.dx * np.arange(n)
        envelope = np.exp(-((self.x - x_c) ** 2) / (4.0 * sigma * sigma)
                          + 1j * k_c * self.x)
        self.phi = np.fft.fft(envelope)
        self.k = 2.0 * np.pi * np.fft.fftfreq(n, d=self.dx)
        self.energy = np.sqrt(self.k ** 2 + m0 ** 2)
        self.spinor = np.array([np.sqrt((self.energy + m0) / (2 * self.energy)),
                                self.k / np.sqrt(2 * self.energy * (self.energy + m0))])
        self.m0 = m0
        self.scale = 1.0
        self.scale = 1.0 / math.sqrt(self.norm(self.field(0.0)))

    def field(self, time: float, phase_rate: float = 0.0) -> np.ndarray:
        """psi(x, t) times exp(-i phase_rate t), a (2, n) array."""
        modes = self.phi * np.exp(-1j * (self.energy + phase_rate) * time) * self.scale
        return np.fft.ifft(self.spinor * modes, axis=1)

    def norm(self, psi: np.ndarray) -> float:
        return float(np.sum(np.abs(psi) ** 2) * self.dx)

    def observables(self, psi: np.ndarray, x_split: float) -> dict:
        dens = np.sum(np.abs(psi) ** 2, axis=0) * self.dx
        left = self.x < x_split
        idx = int(np.argmin(np.abs(self.x - x_split)))
        return {
            "norm": float(dens.sum()),
            "mean_x": float(np.sum(self.x * dens) / dens.sum()),
            "p_left": float(dens[left].sum()),
            "p_right": float(dens[~left].sum()),
            "current": float(2.0 * (np.conj(psi[0, idx]) * psi[1, idx]).real),
        }

    def packet_transmission(self, V0: float, coupling: str) -> float:
        """Transmitted probability of the whole packet for a sharp step.

        Each mode k > 0 transmits with the plane-wave flux coefficient at its
        own energy: t(E_k) above the step, 0 in the evanescent band, and in
        the Klein zone 1 - 1/r(E_k), because the group-velocity-correct root
        gives the reciprocal reflection amplitude 1/R.
        """
        weight = np.abs(self.phi) ** 2
        moving = self.k > 0
        ref = closed_form(self.energy[moving], V0, self.m0, coupling)
        with np.errstate(all="ignore"):
            per_mode = np.where(ref["regime"] == "klein_zone", 1.0 - 1.0 / ref["r"],
                                np.where(ref["regime"] == "transmission", ref["t"], 0.0))
        per_mode = np.where(ref["error"], 0.0, per_mode)
        return float(np.sum(weight[moving] * per_mode) / np.sum(weight))


def parse_observables(text: str) -> dict:
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(OBSERVABLE_COLUMNS):
        raise ValueError(f"unexpected observables header {lines[:1]!r}")
    table = np.array([line.split(",") for line in lines[1:]], dtype=float)
    return {name: table[:, j] for j, name in enumerate(OBSERVABLE_COLUMNS)}


def parse_snapshot(text: str) -> tuple[np.ndarray, np.ndarray]:
    lines = text.splitlines()
    table = np.array([line.split(",") for line in lines[1:]], dtype=float)
    psi = np.array([table[:, 1] + 1j * table[:, 2], table[:, 3] + 1j * table[:, 4]])
    return table[:, 0], psi


# Strang steps with exact unitary factors keep the norm to roundoff: measured
# drifts stay below 5e-13 after 2500 steps.
NORM_TOL = 1e-11
# A free run (or a constant potential) is a product of exact mode rotations,
# so it matches the one-shot propagation to roundoff: measured deviations stay
# below 3e-13 in every observable and 2e-14 in the field.
EXACT_TOL = 1e-11
# Packet transmission after a sharp step, against the mode-averaged plane-wave
# coefficient.  What remains is the grid's sampling of the discontinuity: at
# dx = 200/2048 the gap is 2e-4 for a vector step of 0.5, 6e-4 for a scalar
# one and 4.8e-3 for a Klein step of 4; it shrinks fourfold when dx halves and
# does not move when dt halves.
PACKET_TOL = {"transmission": 2e-3, "klein_zone": 1e-2}


def check_records(rec: dict, steps: int, record_every: int, dt: float) -> list[str]:
    """Record schedule, norm conservation and p_left + p_right = norm."""
    problems: list[str] = []
    expected = sorted(set(range(0, steps + 1, record_every)) | {steps})
    if rec["step"].tolist() != expected:
        return [f"records at steps {rec['step'][:4].tolist()}..., expected "
                f"every {record_every} and the last"]
    if np.any(np.abs(rec["time"] - rec["step"] * dt) > 1e-9 * max(1.0, steps * dt)):
        _note(problems, "record times are not step * dt")
    drift = float(np.max(np.abs(rec["norm"] - 1.0)))
    if not drift <= NORM_TOL:
        _note(problems, f"norm leaves 1 by {drift:.3g} (tolerance {NORM_TOL})")
    split = np.abs(rec["p_left"] + rec["p_right"] - rec["norm"])
    if not np.max(split) <= 1e-14:
        _note(problems, f"p_left + p_right differs from norm by {np.max(split):.3g}")
    return problems


def check_against_exact(rec: dict, packet: FreePacket, x_split: float,
                        dt: float) -> list[str]:
    """Every record of a free or constant-potential run against the exact
    propagation (a constant vector potential only adds a global phase, which
    no observable sees)."""
    problems: list[str] = []
    worst = 0.0
    for j, step in enumerate(rec["step"]):
        want = packet.observables(packet.field(step * dt), x_split)
        for name, value in want.items():
            worst = max(worst, abs(rec[name][j] - value))
    if not worst <= EXACT_TOL:
        _note(problems, f"observables leave the exact propagation by {worst:.3g}")
    return problems


def check_field(psi: np.ndarray, packet: FreePacket, time: float,
                phase_rate: float) -> list[str]:
    want = packet.field(time, phase_rate)
    worst = float(np.max(np.abs(psi - want)))
    if not worst <= EXACT_TOL:
        return [f"field at t={time} leaves exp(-i(H0 + {phase_rate})t) psi0 "
                f"by {worst:.3g}"]
    return []


# --------------------------------------------------------------------------
# Dirac matrices


def spinor_dimension(n: int) -> int:
    return 2 ** -(-n // 2)


def identity_count(n: int) -> int:
    """Identities the verifier checks for n alphas and beta: hermiticity,
    square, trace and spectrum of each matrix, and every anticommutator."""
    return 4 * (n + 1) + (n + 1) * n // 2


def check_clifford(matrices: list[np.ndarray], n: int, rng: np.random.Generator,
                   tol: float = 1e-12) -> list[str]:
    """{A, B} = 2 delta I, and A Hermitian, through products with random vectors."""
    problems: list[str] = []
    dim = spinor_dimension(n)
    if len(matrices) != n + 1:
        return [f"{len(matrices)} matrices, expected {n + 1}"]
    if any(m.shape != (dim, dim) for m in matrices):
        return [f"matrix shapes {[m.shape for m in matrices]}, expected dim {dim}"]
    u, v = (np.array([1.0, 1j]) @ rng.standard_normal((2, dim)) for _ in range(2))
    images = [m @ v for m in matrices]
    for i, (a, av) in enumerate(zip(matrices, images)):
        if abs(np.vdot(u, av) - np.vdot(a @ u, v)) > tol * dim:
            _note(problems, f"matrix {i} is not Hermitian")
        for j in range(i, n + 1):
            resid = a @ images[j] + matrices[j] @ av - (2.0 * v if i == j else 0.0)
            if np.max(np.abs(resid)) > tol:
                _note(problems, f"{{M{i}, M{j}}} != {2 if i == j else 0} I")
    return problems


def matrices_from_json(text: str) -> tuple[int, int, list[np.ndarray]]:
    data = json.loads(text)
    mats = [np.array(m, dtype=float) for m in data["alphas"] + [data["beta"]]]
    return data["n"], data["dim"], [m.view(complex)[..., 0] for m in mats]


def parse_algebra_line(text: str) -> dict:
    """The summary line ``n=3 dim=4 passed=true max_deviation=0``."""
    fields = dict(item.split("=", 1) for item in text.split("\n", 1)[0].split())
    return {"n": int(fields["n"]), "dim": int(fields["dim"]),
            "passed": fields["passed"] == "true",
            "max_deviation": float(fields["max_deviation"])}
