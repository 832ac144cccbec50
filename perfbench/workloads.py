"""The four workloads: seeded inputs, one round of operations, and checks.

A workload makes all of its inputs from the seed when it is built.  Every
round runs the same operations on the same inputs, so rounds can be
repeated until the measuring time is used up.  ``run_round`` appends the
wall time of each operation (ns) and returns the round's outputs; every
round must reproduce the first one exactly, and the last round is checked
in full against ``oracle``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time

import numpy as np

import oracle
from diracstep import algebra, cli, dynamics, scattering


class CliWorkload:
    """Operations that are ``diracstep`` command lines, run through cli.main."""

    name = ""
    unit = ""

    def __init__(self, seed: int, outdir: str):
        self.rng = np.random.default_rng(seed)
        self.outdir = outdir
        self.ops: list[tuple[str, list[str]]] = []

    def prepare_first(self) -> None:
        """The first operation is a command line, built with the inputs."""

    def run_round(self, op_ns: list[int]) -> list[tuple[int, str]]:
        outputs = []
        for _, argv in self.ops:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                start = time.perf_counter_ns()
                code = cli.main(argv)
                op_ns.append(time.perf_counter_ns() - start)
            outputs.append((code, stdout.getvalue()))
        return outputs

    def failures(self, outputs) -> int:
        return sum(code != 0 for code, _ in outputs)

    def fingerprint(self, outputs) -> str:
        """Digest of everything the round produced: exit codes, stdout, files."""
        digest = hashlib.sha256(repr(outputs).encode())
        for folder, _, files in sorted(os.walk(self.outdir)):
            for name in sorted(files):
                with open(os.path.join(folder, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
        return digest.hexdigest()

    def path(self, name: str) -> str:
        return os.path.join(self.outdir, name)

    def read(self, name: str) -> str:
        with open(self.path(name)) as fh:
            return fh.read()


def substitution_mismatches(points) -> int:
    """Scalar points (E, V0, m0, b) whose b is not bitwise the vector factor at
    (E, 0, m0 + V0); only points where that vector query is valid count."""
    mismatched = 0
    for E, V0, m0, b in points:
        if E > m0 + V0:
            vector_b = scattering.transmitted_factor(E, 0.0, m0 + V0, "vector")
            mismatched += not oracle.bitwise_equal([b.real, b.imag],
                                                   [vector_b.real, vector_b.imag])
    return mismatched


class Sweep(CliWorkload):
    """Closed-form sweeps through ``scatter --sweep`` in CSV, JSON and SVG.

    The thresholds and the 0/0 point lie exactly on the grids: every grid
    value is a multiple of a power of two, and so are E, V0 and m0.
    """

    name = "sweep"
    unit = "grid point"
    points = 2 ** 15 + 1

    def __init__(self, seed: int, outdir: str):
        super().__init__(seed, outdir)
        n = self.points
        # The README sweep (Klein zone, evanescent band, 0/0 point at V0 = 2.5).
        self.vector = dict(coupling="vector", axis="V0", start=0.0, stop=4.0,
                           base={"E": 1.5, "V0": 0.0, "m0": 1.0})
        m0 = float(self.rng.choice([0.75, 1.0, 1.25]))
        self.scalar = dict(coupling="scalar", axis="V0", start=-0.5, stop=3.5,
                           base={"E": m0 + float(self.rng.choice([0.25, 0.5, 0.75, 1.0])),
                                 "V0": 0.0, "m0": m0})
        m0 = float(self.rng.choice([0.75, 1.0, 1.25]))
        # E runs from 0, so rows up to E = m0 are below threshold; E = V0 - m0 is 0/0.
        self.energy = dict(coupling="vector", axis="E", start=0.0, stop=8.0,
                           base={"E": 2.0, "V0": float(self.rng.choice([2.5, 3.0, 3.5])),
                                 "m0": m0})
        self.ops = [
            ("vector.csv", self._argv(self.vector, "csv", self.path("vector.csv"))),
            ("scalar.json", self._argv(self.scalar, "json", self.path("scalar.json"))),
            ("energy.csv", self._argv(self.energy, "csv", self.path("energy.csv"))),
            ("vector.svg", self._argv(self.vector, "svg", self.path("vector.svg"))),
        ]
        self.units_per_round = n * len(self.ops)

    def _argv(self, sweep: dict, fmt: str, output: str) -> list[str]:
        base = sweep["base"]
        return ["scatter", "--E", repr(base["E"]), "--V0", repr(base["V0"]),
                "--m0", repr(base["m0"]), "--coupling", sweep["coupling"],
                "--sweep", f"{sweep['axis']}:{sweep['start']!r}:{sweep['stop']!r}:"
                           f"{self.points}",
                "--format", fmt, "--output", output]

    def check(self, outputs) -> list[str]:
        problems = []
        checks = (("vector.csv", self.vector, oracle.parse_sweep_csv),
                  ("scalar.json", self.scalar, oracle.parse_sweep_json),
                  ("energy.csv", self.energy, oracle.parse_sweep_csv))
        parsed = {}
        for label, sweep, parse in checks:
            columns = parsed[label] = parse(self.read(label))
            found = oracle.check_sweep(columns, sweep["coupling"], sweep["axis"],
                                       sweep["start"], sweep["stop"], self.points,
                                       sweep["base"])
            found += self._check_round_trip(columns, sweep)
            problems += [f"{label}: {p}" for p in found]
        valid = sum(regime != "error" for regime in parsed["vector.csv"]["regime"])
        problems += [f"vector.svg: {p}"
                     for p in oracle.check_svg(self.read("vector.svg"), valid)]
        return problems

    def _check_round_trip(self, columns: dict, sweep: dict) -> list[str]:
        """The written floats are bitwise the program's own, and the scalar
        factor is bitwise the vector factor at (E, 0, m0 + V0)."""
        base = scattering.ScatteringQuery(coupling=sweep["coupling"], **sweep["base"])
        rows = scattering.sweep(base, sweep["axis"], sweep["start"], sweep["stop"],
                                self.points)
        results = [row.result for row in rows if row.result is not None]
        ok = np.asarray(columns["regime"]) != "error"
        program = {
            "a": [res.a for res in results],
            "re_b": [res.b.real for res in results], "im_b": [res.b.imag for res in results],
            "re_R": [res.R.real for res in results], "im_R": [res.R.imag for res in results],
            "re_T": [res.T.real for res in results], "im_T": [res.T.imag for res in results],
            "r": [res.r for res in results], "t": [res.t for res in results],
        }
        problems = [f"{name} does not parse back to the program's floats"
                    for name, values in program.items()
                    if not oracle.bitwise_equal(columns[name][ok], values)]
        if sweep["coupling"] == "scalar":
            mismatched = substitution_mismatches(
                (row.E, row.V0, row.m0, row.result.b) for row in rows if row.result)
            if mismatched:
                problems.append(f"{mismatched} scalar factors differ from the vector "
                                "factor at (E, 0, m0 + V0)")
        return problems


class Query:
    """Single ``amplitudes(ScatteringQuery(...))`` calls, one at a time."""

    name = "query"
    unit = "query"
    queries = 4096

    def __init__(self, seed: int, outdir: str):
        rng = np.random.default_rng(seed)
        per_regime = self.queries // 5
        points = []
        # Equal shares of five regime families, plus the Klein point; the 1e-3
        # margin keeps every point off the thresholds, where the labels change.
        for kind in range(5):
            m0 = rng.uniform(0.3, 3.0, per_regime)
            E = m0 * (1.0 + rng.uniform(0.05, 4.0, per_regime))
            u = rng.uniform(1e-3, 1.0 - 1e-3, per_regime)
            if kind == 0:    # vector, transmission: V0 < E - m0
                V0, coupling = -2.0 * m0 + u * (E - m0 + 2.0 * m0), "vector"
            elif kind == 1:  # vector, evanescent band: E - m0 < V0 < E + m0
                V0, coupling = E - m0 + u * 2.0 * m0, "vector"
            elif kind == 2:  # vector, Klein zone: V0 > E + m0
                V0, coupling = E + m0 + u * 4.0 * m0, "vector"
            elif kind == 3:  # scalar, transmission: 0 < m0 + V0 < E
                V0, coupling = -m0 + u * E, "scalar"
            else:            # scalar, evanescent: m0 + V0 > E
                V0, coupling = E - m0 + u * 3.0 * m0, "scalar"
            points += [(float(e), float(v), float(m), coupling)
                       for e, v, m in zip(E, V0, m0)]
        points += [oracle.KLEIN_POINT + ("vector",)] * (self.queries - len(points))
        order = rng.permutation(len(points))
        self.points = [points[i] for i in order]
        self.ops = self.points
        self.units_per_round = len(self.points)

    def prepare_first(self) -> None:
        scattering.ScatteringQuery(*self.points[0])

    def run_round(self, op_ns: list[int]) -> list:
        clock = time.perf_counter_ns
        query = scattering.ScatteringQuery
        results = []
        for point in self.points:
            start = clock()
            result = scattering.amplitudes(query(*point))
            op_ns.append(clock() - start)
            results.append(result)
        return results

    def failures(self, outputs) -> int:
        return 0

    def fingerprint(self, outputs) -> list:
        return outputs

    def check(self, outputs) -> list[str]:
        rows = [(res.a, res.b, res.R, res.T, res.r, res.t, res.regime.value)
                for res in outputs]
        problems = oracle.check_queries(self.points, rows)
        mismatched = substitution_mismatches(
            (E, V0, m0, res.b)
            for (E, V0, m0, coupling), res in zip(self.points, outputs)
            if coupling == "scalar")
        if mismatched:
            problems.append(f"{mismatched} scalar factors differ from the vector "
                            "factor at (E, 0, m0 + V0)")
        return problems


class Evolve(CliWorkload):
    """Packet runs through ``evolve`` with CSV observables.

    No run reaches the periodic edge: the Dirac equation moves nothing faster
    than 1, so everything stays within x_c - 5 sigma - T and x_c + 5 sigma + T,
    and a reflected wave, which starts at the step no earlier than
    x_step - x_c - 5 sigma, stays right of 2 x_step - x_c - 5 sigma - T.
    """

    name = "evolve"
    unit = "grid-mode step"

    def __init__(self, seed: int, outdir: str):
        super().__init__(seed, outdir)
        u = self.rng.uniform
        small = dict(grid_n=2048, domain_l=200.0, dt=0.04, steps=2500, record_every=10,
                     sigma=5.0, x_c=-50.0, x_step=0.0, Ec=2.0, V0=0.0, coupling="vector")
        large = dict(small, grid_n=16384, domain_l=400.0, dt=0.012, steps=300,
                     record_every=100, x_c=-100.0)
        ec = lambda: round(float(u(1.9, 2.1)), 6)  # noqa: E731
        self.runs = {
            "readme": dict(small),
            "vector": dict(small, Ec=ec(), V0=round(float(u(0.3, 0.6)), 6)),
            "klein": dict(small, Ec=ec(), V0=round(float(u(3.8, 4.2)), 6)),
            "scalar": dict(small, Ec=ec(), V0=round(float(u(0.2, 0.5)), 6),
                           coupling="scalar"),
            "pseudoscalar": dict(small, Ec=ec(), V0=round(float(u(0.3, 0.6)), 6),
                                 coupling="pseudoscalar"),
            # x_step left of the domain: V0 on every grid point.
            "constant": dict(small, V0=round(float(u(0.3, 0.6)), 6), x_step=-150.0,
                             record_every=2500, snapshots=True),
            "large_free": dict(large),
            "large_constant": dict(large, V0=round(float(u(0.3, 0.6)), 6),
                                   x_step=-250.0),
        }
        for label, run in self.runs.items():
            self._check_inside(run)
            self.ops.append((label, self._argv(run, self.path(f"{label}.csv"))))
        self.units_per_round = sum(r["grid_n"] * r["steps"] for r in self.runs.values())

    @staticmethod
    def _check_inside(run: dict) -> None:
        half = 0.5 * run["domain_l"]
        reach = 5.0 * run["sigma"] + run["steps"] * run["dt"]
        if -half < run["x_step"]:
            left = 2.0 * run["x_step"] - run["x_c"] - reach
        else:
            left = run["x_c"] - 5.0 * run["sigma"]
        if run["x_c"] + reach >= half or left <= -half:
            raise ValueError(f"run {run} can reach the periodic edge")

    @staticmethod
    def _argv(run: dict, output: str) -> list[str]:
        argv = ["evolve", "--coupling", run["coupling"], "--V0", repr(run["V0"]),
                "--Ec", repr(run["Ec"]), "--grid-n", str(run["grid_n"]),
                "--domain-l", repr(run["domain_l"]), "--dt", repr(run["dt"]),
                "--steps", str(run["steps"]), "--sigma", repr(run["sigma"]),
                "--x-c", repr(run["x_c"]), "--x-step", repr(run["x_step"]),
                "--record-every", str(run["record_every"]), "--output", output]
        return argv + (["--snapshots"] if run.get("snapshots") else [])

    def prepare_first(self) -> None:
        run = self.runs["readme"]
        grid = dynamics.Grid(n=run["grid_n"], length=run["domain_l"])
        dynamics.gaussian_packet(grid, x_c=run["x_c"], k_c=math.sqrt(run["Ec"] ** 2 - 1.0),
                                 sigma=run["sigma"], m0=1.0)

    def check(self, outputs) -> list[str]:
        problems = []
        for (label, _), (_, stdout) in zip(self.ops, outputs):
            run = self.runs[label]
            problems += [f"{label}: {p}" for p in self._check_run(label, run, stdout)]
        return problems

    def _check_run(self, label: str, run: dict, stdout: str) -> list[str]:
        rec = oracle.parse_observables(self.read(f"{label}.csv"))
        summary = json.loads(stdout)
        problems = oracle.check_records(rec, run["steps"], run["record_every"], run["dt"])
        if summary["p_right_final"] != rec["p_right"][-1]:
            problems.append("summary p_right_final differs from the last record")
        packet = oracle.FreePacket(run["grid_n"], run["domain_l"], run["x_c"],
                                   math.sqrt(run["Ec"] ** 2 - 1.0), run["sigma"], 1.0)
        inside = run["x_step"] > -0.5 * run["domain_l"]
        if run["V0"] == 0.0 or not inside:
            split = 0.0 if run["V0"] == 0.0 else -0.5 * run["domain_l"]
            problems += oracle.check_against_exact(rec, packet, split, run["dt"])
        if run.get("snapshots"):
            for step in (0, run["steps"]):
                _, psi = oracle.parse_snapshot(self.read(f"snapshot_{step:07d}.csv"))
                problems += oracle.check_field(psi, packet, step * run["dt"], run["V0"])
        if inside and run["V0"] != 0.0 and run["coupling"] != "pseudoscalar":
            problems += self._check_transmission(run, packet, rec, summary)
        return problems

    @staticmethod
    def _check_transmission(run, packet, rec, summary) -> list[str]:
        """p_right against the plane-wave t.

        The reference is t averaged over the packet's momentum modes, so
        |p_right - t(Ec)| is bounded by the momentum-spread gap
        |<t> - t(Ec)| plus the grid tolerance.  In the Klein zone the packet
        follows the group-velocity-correct root, which transmits 1 - 1/r.
        """
        problems = []
        plane = oracle.closed_form(run["Ec"], run["V0"], 1.0, run["coupling"])
        if abs(summary["analytic_t"] - float(plane["t"])) > oracle.VALUE_RTOL * 4:
            problems.append(f"summary analytic_t {summary['analytic_t']} differs from "
                            f"the closed form {float(plane['t'])}")
        regime = str(plane["regime"])
        t_packet = packet.packet_transmission(run["V0"], run["coupling"])
        p_right = float(rec["p_right"][-1])
        tol = oracle.PACKET_TOL[regime]
        if abs(p_right - t_packet) > tol:
            problems.append(f"p_right {p_right:.6f} vs packet-averaged t "
                            f"{t_packet:.6f} (tolerance {tol})")
        return problems


class Algebra(CliWorkload):
    """``algebra`` build-and-verify up to dimension 256, plus a JSON round trip.

    Most of the builds are at the two ends, tiny or at dimension 256, so that
    the median operation is one of the JSON round trip's, not a short build.
    """

    name = "algebra"
    unit = "identity checked"
    build_n = (4, 8, 11, 15, 16)
    json_n = 14

    def __init__(self, seed: int, outdir: str):
        super().__init__(seed, outdir)
        order = [int(n) for n in self.rng.permutation(self.build_n)]
        self.ops = [(f"n{n}", ["algebra", "--n", str(n)]) for n in order]
        self.json_path = self.path("rep.json")
        self.ops += [
            ("emit", ["algebra", "--n", str(self.json_n), "--emit-json", self.json_path]),
            ("verify", ["algebra", "--verify-json", self.json_path]),
        ]
        self.op_n = order + [self.json_n, self.json_n]
        self.units_per_round = sum(oracle.identity_count(n) for n in self.op_n)
        self.check_seed = int(self.rng.integers(2 ** 32))

    def check(self, outputs) -> list[str]:
        problems = []
        rng = np.random.default_rng(self.check_seed)
        reps = {}
        for (label, _), n, (_, stdout) in zip(self.ops, self.op_n, outputs):
            line = oracle.parse_algebra_line(stdout)
            if (line["n"], line["dim"]) != (n, oracle.spinor_dimension(n)):
                problems.append(f"{label}: n={line['n']} dim={line['dim']}, expected "
                                f"dim 2^ceil(n/2) = {oracle.spinor_dimension(n)}")
            if n not in reps:
                rep = algebra.build_representation(n)
                reps[n] = [np.asarray(m) for _, m in rep.matrices()]
                problems += [f"n={n}: {p}" for p in oracle.check_clifford(reps[n], n, rng)]
            if not line["passed"] or line["max_deviation"] != 0.0:
                problems.append(f"{label}: verification reports {line}")
        n, dim, stored = oracle.matrices_from_json(self.read("rep.json"))
        if (n, dim) != (self.json_n, oracle.spinor_dimension(self.json_n)):
            problems.append(f"rep.json holds n={n} dim={dim}")
        elif not all(oracle.bitwise_equal(a.view(float), b.view(float))
                     for a, b in zip(stored, reps[self.json_n])):
            problems.append("rep.json is not bitwise the built representation")
        with open(self.json_path) as fh:
            loaded = algebra.representation_from_json(json.load(fh))
        if not all(oracle.bitwise_equal(np.asarray(a).view(float), b.view(float))
                   for (_, a), b in zip(loaded.matrices(), reps[self.json_n])):
            problems.append("representation_from_json does not give back the matrices")
        return problems


WORKLOADS = {w.name: w for w in (Sweep, Query, Evolve, Algebra)}
