"""The benchmark's output checks pass on the program's output and fail on
deliberately corrupted output.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import oracle  # noqa: E402
from diracstep import algebra, cli, dynamics, scattering  # noqa: E402


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0
    return out.getvalue()


# The README sweep at 65 points: grid step 1/16, so V0 = E - m0 = 0.5,
# the 0/0 point V0 = E + m0 = 2.5 and the Klein point V0 = 3 are all on it.
SWEEP = dict(coupling="vector", axis="V0", start=0.0, stop=4.0, steps=65,
             base={"E": 1.5, "V0": 0.0, "m0": 1.0})
ENERGY = dict(coupling="vector", axis="E", start=0.0, stop=8.0, steps=65,
              base={"E": 2.0, "V0": 3.0, "m0": 1.0})
SCALAR = dict(coupling="scalar", axis="V0", start=-0.5, stop=3.5, steps=65,
              base={"E": 2.0, "V0": 0.0, "m0": 1.0})


def sweep_text(tmp_path, sweep, fmt="csv"):
    path = tmp_path / f"sweep.{fmt}"
    base = sweep["base"]
    run_cli(["scatter", "--E", str(base["E"]), "--V0", str(base["V0"]),
             "--m0", str(base["m0"]), "--coupling", sweep["coupling"],
             "--sweep", f"{sweep['axis']}:{sweep['start']}:{sweep['stop']}:{sweep['steps']}",
             "--format", fmt, "--output", str(path)])
    return path.read_text()


def check_csv(text, sweep):
    columns = oracle.parse_sweep_csv(text)
    return oracle.check_sweep(columns, sweep["coupling"], sweep["axis"], sweep["start"],
                              sweep["stop"], sweep["steps"], sweep["base"])


def edit_row(text, predicate, edit):
    lines = text.splitlines()
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if predicate(fields):
            lines[i] = edit(fields)
            break
    else:
        raise AssertionError("no row to corrupt")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("sweep", [SWEEP, ENERGY, SCALAR])
def test_program_sweeps_pass(tmp_path, sweep):
    assert check_csv(sweep_text(tmp_path, sweep), sweep) == []
    columns = oracle.parse_sweep_json(sweep_text(tmp_path, sweep, "json"))
    assert oracle.check_sweep(columns, sweep["coupling"], sweep["axis"], sweep["start"],
                              sweep["stop"], sweep["steps"], sweep["base"]) == []


def test_sweep_error_rows_sit_where_expected(tmp_path):
    regimes = oracle.parse_sweep_csv(sweep_text(tmp_path, ENERGY))["regime"]
    grid = np.linspace(0.0, 8.0, 65)
    errors = grid[np.array(regimes) == "error"]
    assert errors.tolist() == [e for e in grid if e <= 1.0] + [2.0]


def test_flipped_b_fails(tmp_path):
    text = sweep_text(tmp_path, SWEEP)
    bad = edit_row(text, lambda f: f[-1] == "klein_zone",
                   lambda f: ",".join(f[:5] + [repr(-float(f[5]))] + f[6:]))
    assert any("re_b" in p for p in check_csv(bad, SWEEP))


def test_dropped_error_row_fails(tmp_path):
    text = sweep_text(tmp_path, SWEEP)
    lines = text.splitlines()
    dropped = [line for line in lines if not line.endswith(",error")]
    assert len(dropped) == len(lines) - 1
    assert check_csv("\n".join(dropped) + "\n", SWEEP)


def test_error_row_moved_to_a_valid_point_fails(tmp_path):
    text = sweep_text(tmp_path, SWEEP)
    bad = edit_row(text, lambda f: f[-1] == "transmission",
                   lambda f: ",".join(f[:4] + [""] * 9 + ["error"]))
    assert any("error rows" in p for p in check_csv(bad, SWEEP))


def test_wrong_klein_point_in_a_sweep_fails(tmp_path):
    text = sweep_text(tmp_path, SWEEP)
    bad = edit_row(text, lambda f: f[1] == "3",
                   lambda f: ",".join(f[:11] + ["2.2500000000001", "-1.2500000000001"]
                                      + f[13:]))
    assert any("Klein point" in p for p in check_csv(bad, SWEEP))


def test_wrong_regime_label_fails(tmp_path):
    text = sweep_text(tmp_path, SWEEP)
    bad = edit_row(text, lambda f: f[-1] == "klein_zone",
                   lambda f: ",".join(f[:-1] + ["evanescent"]))
    assert any("regime" in p for p in check_csv(bad, SWEEP))


def test_scalar_klein_label_fails():
    problems = oracle.check_flux([4.0], [-3.0], ["klein_zone"], "scalar")
    assert any("scalar" in p for p in problems)


def test_broken_unitarity_fails():
    assert oracle.check_flux([0.5], [0.49], ["transmission"], "vector")


def test_svg_vertex_count(tmp_path):
    text = sweep_text(tmp_path, SWEEP, "svg")
    regimes = oracle.parse_sweep_csv(sweep_text(tmp_path, SWEEP))["regime"]
    valid = sum(r != "error" for r in regimes)
    assert oracle.check_svg(text, valid) == []
    assert oracle.check_svg(text, valid + 1)


def query_rows(points):
    rows = []
    for point in points:
        res = scattering.amplitudes(scattering.ScatteringQuery(*point))
        rows.append((res.a, res.b, res.R, res.T, res.r, res.t, res.regime.value))
    return rows


POINTS = [(1.5, 3.0, 1.0, "vector"), (2.0, 0.5, 1.0, "vector"), (2.0, 1.5, 1.0, "vector"),
          (2.0, 0.5, 1.0, "scalar"), (2.0, 1.5, 1.0, "scalar")]


def test_program_queries_pass():
    assert oracle.check_queries(POINTS, query_rows(POINTS)) == []


def test_query_with_flipped_b_fails():
    rows = query_rows(POINTS)
    a, b, R, T, r, t, regime = rows[0]
    rows[0] = (a, -b, R, T, r, t, regime)
    assert oracle.check_queries(POINTS, rows)


def test_wrong_klein_point_fails():
    rows = query_rows(POINTS)
    a, b, R, T, r, t, regime = rows[0]
    rows[0] = (a, b, R, T, r * (1 + 1e-11), t, regime)
    problems = oracle.check_queries(POINTS, rows)
    assert any("Klein point" in p for p in problems)


def test_bitwise_equal_tells_signed_zeros_apart():
    assert oracle.bitwise_equal([0.0, 1.5], [0.0, 1.5])
    assert not oracle.bitwise_equal([0.0], [-0.0])


# A small free run: N = 256, 200 steps of 0.05, recorded every 20.
RUN = dict(n=256, length=64.0, x_c=-10.0, k_c=math.sqrt(3.0), sigma=3.0, m0=1.0,
           dt=0.05, steps=200, every=20)


def free_records(profile=None):
    grid = dynamics.Grid(RUN["n"], RUN["length"])
    state = dynamics.gaussian_packet(grid, RUN["x_c"], RUN["k_c"], RUN["sigma"], RUN["m0"])
    profile = profile or dynamics.PotentialProfile(coupling="vector", kind="zero")
    final, records = dynamics.evolve(state, profile, RUN["dt"], RUN["steps"], RUN["every"])
    buf = io.StringIO()
    dynamics.observables_to_csv(records, buf)
    return oracle.parse_observables(buf.getvalue()), final


def packet():
    return oracle.FreePacket(RUN["n"], RUN["length"], RUN["x_c"], RUN["k_c"],
                             RUN["sigma"], RUN["m0"])


def test_free_run_passes():
    rec, final = free_records()
    assert oracle.check_records(rec, RUN["steps"], RUN["every"], RUN["dt"]) == []
    assert oracle.check_against_exact(rec, packet(), 0.0, RUN["dt"]) == []
    assert oracle.check_field(final.psi, packet(), final.time, 0.0) == []


def test_damped_packet_fails():
    rec, _ = free_records()
    damping = np.exp(-1e-4 * rec["time"])
    for name in ("norm", "p_left", "p_right"):
        rec[name] = rec[name] * damping
    assert oracle.check_records(rec, RUN["steps"], RUN["every"], RUN["dt"])
    assert oracle.check_against_exact(rec, packet(), 0.0, RUN["dt"])


def test_split_that_loses_probability_fails():
    rec, _ = free_records()
    rec["p_right"] = rec["p_right"] * (1 - 1e-9)
    assert oracle.check_records(rec, RUN["steps"], RUN["every"], RUN["dt"])


def test_missing_record_fails():
    rec, _ = free_records()
    rec = {name: values[1:] for name, values in rec.items()}
    assert oracle.check_records(rec, RUN["steps"], RUN["every"], RUN["dt"])


def test_constant_potential_needs_its_phase():
    grid = dynamics.Grid(RUN["n"], RUN["length"])
    v0 = 0.4
    constant = dynamics.PotentialProfile(coupling="vector", v0=v0, x_step=grid.x0 - 1.0)
    _, final = free_records(constant)
    assert oracle.check_field(final.psi, packet(), final.time, v0) == []
    assert oracle.check_field(final.psi, packet(), final.time, 0.0)


def test_packet_transmission_of_a_free_packet_is_total():
    assert oracle.FreePacket(2048, 200.0, -50.0, math.sqrt(3.0), 5.0, 1.0) \
        .packet_transmission(0.0, "vector") == pytest.approx(1.0, abs=1e-12)


def matrices(n):
    return [np.array(m) for _, m in algebra.build_representation(n).matrices()]


@pytest.mark.parametrize("n", [1, 2, 3, 6, 9])
def test_built_representations_pass(n):
    assert oracle.check_clifford(matrices(n), n, np.random.default_rng(n)) == []
    assert oracle.spinor_dimension(n) == matrices(n)[0].shape[0]


def test_non_anticommuting_matrix_fails():
    mats = matrices(4)
    mats[1] = mats[0].copy()  # Hermitian, squares to I, but commutes with alpha_1
    problems = oracle.check_clifford(mats, 4, np.random.default_rng(0))
    assert any("{M0, M1}" in p for p in problems)


def test_non_hermitian_matrix_fails():
    mats = matrices(3)
    mats[0] = mats[0] * 1j  # anti-Hermitian; squares to -I as well
    problems = oracle.check_clifford(mats, 3, np.random.default_rng(0))
    assert any("Hermitian" in p for p in problems)


def test_wrong_dimension_fails():
    assert oracle.check_clifford(matrices(3)[:3] + [np.eye(8)], 3,
                                 np.random.default_rng(0))


def test_json_round_trip_is_bitwise(tmp_path):
    path = tmp_path / "rep.json"
    line = oracle.parse_algebra_line(run_cli(["algebra", "--n", "5",
                                              "--emit-json", str(path)]))
    assert line == {"n": 5, "dim": 8, "passed": True, "max_deviation": 0.0}
    n, dim, stored = oracle.matrices_from_json(path.read_text())
    assert (n, dim) == (5, 8)
    assert all(oracle.bitwise_equal(a.view(float), b.view(float))
               for a, b in zip(stored, matrices(5)))
    corrupted = path.read_text().replace("1.0", "1.0000000000000002", 1)
    _, _, bad = oracle.matrices_from_json(corrupted)
    assert not all(oracle.bitwise_equal(a.view(float), b.view(float))
                   for a, b in zip(bad, matrices(5)))
