"""Acceptance gate: eight go/no-go checks tying the package together.

Each test prints one PASS/FAIL line with the measured margin (run pytest
with -s to see the lines for passing tests).  Tolerances are pinned here
and are not derived from the code under test.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from diracstep.algebra import build_representation, verify_clifford
from diracstep.dynamics import (
    Grid,
    PotentialProfile,
    evolve,
    gaussian_packet,
    measure,
)
from diracstep.scattering import (
    Coupling,
    Regime,
    ScatteringQuery,
    _step_factor,
    amplitudes,
    transmitted_factor,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, detail


# --- shared benchmark: transmission-regime packet run at three dt levels ---

BENCH = dict(m0=1.0, v0=0.5, k_c=math.sqrt(3.0), sigma=10.0, x_c=-100.0,
             t_total=220.0)
DT_LEVELS = (0.2, 0.1, 0.05)


@pytest.fixture(scope="module")
def benchmark_ladder():
    grid = Grid(n=4096, length=400.0)
    profile = PotentialProfile(
        coupling="vector", v0=BENCH["v0"], x_step=0.0, smoothing=2 * grid.dx
    )
    out = {}
    for dt in DT_LEVELS:
        state = gaussian_packet(
            grid, x_c=BENCH["x_c"], k_c=BENCH["k_c"],
            sigma=BENCH["sigma"], m0=BENCH["m0"],
        )
        n_steps = round(BENCH["t_total"] / dt)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # dt deliberately above the heuristic
            final, records = evolve(state, profile, dt, n_steps, record_every=n_steps)
        out[dt] = records
    return out


def test_criterion_1_klein_closed_form():
    res = amplitudes(ScatteringQuery(E=1.5, V0=3.0, m0=1.0, coupling="vector"))
    sqrt5 = math.sqrt(5.0)
    dev = max(
        abs(res.a - sqrt5 / 5),
        abs(res.b - complex(-sqrt5, 0.0)),
        abs(res.R - (-1.5)),
        abs(res.T - (-0.5)),
        abs(res.r - 2.25),
        abs(res.t - (-1.25)),
    )
    ok = dev <= 1e-12 and res.regime is Regime.KLEIN_ZONE
    _report(1, ok, f"Klein-zone closed form, max deviation {dev:.3g} (tol 1e-12), "
                   f"regime {res.regime.value}")


def test_criterion_2_unitarity():
    rng = np.random.default_rng(20)
    n_per_cell = 10_000
    cells = [
        (Coupling.VECTOR, Regime.TRANSMISSION),
        (Coupling.VECTOR, Regime.EVANESCENT),
        (Coupling.VECTOR, Regime.KLEIN_ZONE),
        (Coupling.SCALAR, Regime.TRANSMISSION),
        (Coupling.SCALAR, Regime.EVANESCENT),
    ]

    def draw(coupling: Coupling, regime: Regime) -> ScatteringQuery:
        m0 = rng.uniform(0.2, 2.0)
        e = m0 + rng.uniform(0.01, 5.0)
        if coupling is Coupling.VECTOR:
            if regime is Regime.TRANSMISSION:
                v0 = e - m0 - rng.uniform(0.01, 5.0)
            elif regime is Regime.EVANESCENT:
                v0 = e - m0 + rng.uniform(0.01, 0.99) * 2.0 * m0
            else:
                v0 = e + m0 + rng.uniform(0.01, 8.0)
        else:
            if regime is Regime.TRANSMISSION:
                m_eff = rng.uniform(-0.99, 0.99) * e
            else:
                m_eff = (1.0 if rng.random() < 0.5 else -1.0) * e * rng.uniform(1.01, 5.0)
            v0 = m_eff - m0
        return ScatteringQuery(E=e, V0=v0, m0=m0, coupling=coupling)

    worst_sum = 0.0
    worst_mod = 0.0
    for coupling, regime in cells:
        for _ in range(n_per_cell):
            q = draw(coupling, regime)
            res = amplitudes(q)
            assert res.regime is regime  # the sampler hit the intended cell
            if res.b.real != 0.0:
                worst_sum = max(worst_sum, abs(res.r + res.t - 1.0))
            else:
                worst_mod = max(worst_mod, abs(abs(res.R) - 1.0))
                assert res.t == 0.0
    ok = worst_sum <= 1e-12 and worst_mod <= 1e-12
    _report(2, ok, f"unitarity over {n_per_cell} queries x {len(cells)} regime cells: "
                   f"max|r+t-1| = {worst_sum:.3g}, max||R|-1| = {worst_mod:.3g} "
                   f"(tol 1e-12)")


def test_criterion_3_scalar_never_klein_vector_exactly_in_zone():
    m0 = 1.0
    energies = [1.0 + 0.04 * (i + 1) for i in range(100)]   # (m0, 5 m0]
    heights = [10.0 * j / 99 for j in range(100)]           # [0, 10 m0]
    max_scalar_r = 0.0
    vector_mismatches = 0
    for e in energies:
        for v0 in heights:
            r_s = amplitudes(ScatteringQuery(E=e, V0=v0, m0=m0, coupling="scalar")).r
            max_scalar_r = max(max_scalar_r, r_s)
            r_v = amplitudes(ScatteringQuery(E=e, V0=v0, m0=m0, coupling="vector")).r
            if (r_v > 1.0 + 1e-12) != (v0 > e + m0):
                vector_mismatches += 1
    ok = max_scalar_r <= 1.0 + 1e-12 and vector_mismatches == 0
    _report(3, ok, f"10^4-point scan: max scalar r = {max_scalar_r:.15g} "
                   f"(bound 1+1e-12), vector Klein-zone predicate mismatches = "
                   f"{vector_mismatches}")


def test_criterion_4_substitution_identity():
    rng = np.random.default_rng(21)
    checked = 0
    exact = True
    while checked < 1000:
        m0 = rng.uniform(0.3, 3.0)
        e = m0 * (1.0 + rng.uniform(0.05, 5.0))
        v0 = rng.uniform(-0.9 * m0, e - m0)
        if not 0.0 < m0 + v0 < e:
            continue  # keep both branches above their thresholds
        checked += 1
        lhs = transmitted_factor(e, v0, m0, Coupling.SCALAR)
        rhs = transmitted_factor(e, 0.0, m0 + v0, Coupling.VECTOR)
        exact = exact and lhs == rhs
        # and on the full domain (evanescent included) against the kernel
        exact = exact and transmitted_factor(e, v0, m0, Coupling.SCALAR) == \
            _step_factor(e, m0 + v0)
    _report(4, exact, f"scalar factor == vector factor at (E, 0, m0+V0) bitwise "
                      f"over {checked} parameter sets")


def test_criterion_5_algebra_exact_for_n_1_to_8():
    expected_dims = (2, 2, 4, 4, 8, 8, 16, 16)
    dims = []
    worst = 0.0
    all_passed = True
    for n in range(1, 9):
        rep = build_representation(n)
        report = verify_clifford(rep, tolerance=1e-12)
        dims.append(rep.dim)
        worst = max(worst, report.max_deviation)
        all_passed = all_passed and report.passed
    ok = all_passed and tuple(dims) == expected_dims and worst == 0.0
    _report(5, ok, f"n=1..8 dims {tuple(dims)}, max deviation {worst} (must be 0)")


def test_criterion_6_packet_matches_plane_wave(benchmark_ladder):
    records = benchmark_ladder[0.05]
    res = amplitudes(ScatteringQuery(
        E=2.0, V0=BENCH["v0"], m0=BENCH["m0"], coupling="vector"))
    gap = abs(records[-1].p_right - res.t)
    drift = abs(records[-1].norm - records[0].norm)
    ok = gap <= 0.02 and drift <= 1e-10
    _report(6, ok, f"transmission benchmark: |p_right - t_analytic| = {gap:.5f} "
                   f"(tol 0.02), norm drift {drift:.3g} (tol 1e-10)")


def test_criterion_7_coupling_discrimination():
    grid = Grid(n=512, length=100.0)
    m0, v0 = 1.0, 0.2
    k_c = math.sqrt(3.0)
    dt, n_steps = 0.05, 400

    def constant(coupling: str) -> PotentialProfile:
        # a step just left of every grid point: V = v0 on the whole grid
        return PotentialProfile(coupling=coupling, v0=v0,
                                x_step=grid.x0 - 0.5 * grid.dx)

    def run(profile: PotentialProfile):
        state = gaussian_packet(grid, x_c=-20.0, k_c=k_c, sigma=4.0, m0=m0)
        recs = []
        evolve(state, profile, dt, n_steps, record_every=1,
               on_record=lambda s, step: recs.append(measure(s, 0.0, step=step)))
        return recs

    free_recs = run(PotentialProfile(coupling="vector", kind="zero"))
    vec_recs = run(constant("vector"))
    dev = max(
        max(abs(a.norm - b.norm) for a, b in zip(free_recs, vec_recs)),
        max(abs(a.mean_x - b.mean_x) for a, b in zip(free_recs, vec_recs)),
        max(abs(a.p_left - b.p_left) for a, b in zip(free_recs, vec_recs)),
        max(abs(a.p_right - b.p_right) for a, b in zip(free_recs, vec_recs)),
        max(abs(a.current_at_step - b.current_at_step)
            for a, b in zip(free_recs, vec_recs)),
    )

    sca_recs = run(constant("scalar"))
    v_measured = (sca_recs[-1].mean_x - sca_recs[0].mean_x) / (n_steps * dt)
    v_shifted = k_c / math.hypot(k_c, m0 + v0)
    vel_err = abs(v_measured - v_shifted) / v_shifted

    ok = dev <= 1e-12 and vel_err <= 0.01
    _report(7, ok, f"constant vector potential: observable deviation {dev:.3g} "
                   f"(tol 1e-12); constant scalar: velocity off shifted-mass "
                   f"value by {100 * vel_err:.3f}% (tol 1%)")


def test_criterion_8_strang_convergence(benchmark_ladder):
    p = {dt: benchmark_ladder[dt][-1].p_right for dt in DT_LEVELS}
    d1 = abs(p[0.2] - p[0.1])
    d2 = abs(p[0.1] - p[0.05])
    order = math.log2(d1 / d2)
    ok = order >= 1.7
    _report(8, ok, f"p_right deltas under dt halving: {d1:.3g} -> {d2:.3g}, "
                   f"observed order {order:.2f} (need >= 1.7)")
