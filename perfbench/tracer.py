"""Spans around diracstep's public functions, recorded from outside.

``instrument`` replaces module attributes with timing wrappers; the package
calls its layers through those attributes (``scattering.sweep``,
``dynamics.measure`` inside ``evolve``, ...), so calls from one layer into
another are caught too.  Spans are kept in memory as flat integer columns
and written out once, at the end.  A span that starts with no open parent
starts a new operation; all spans of that operation share its number.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from array import array
from collections import defaultdict

import numpy as np

from diracstep import algebra, cli, dynamics, scattering, svgplot


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.op = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._ops = -1
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, label, count=None) -> None:
        """Record a span around every call of module.attr.

        label is the span name, or a function of the call's arguments giving
        it; count(counts, result, *args, **kwargs) adds the call's counters.
        """
        original = getattr(module, attr)
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            name = label(*args, **kwargs) if callable(label) else label
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(self.names)
                self.names.append(name)
            index = len(self.start)
            if self._stack:
                self.parent.append(self._stack[-1])
            else:
                self.parent.append(-1)
                self._ops += 1
            self.op.append(self._ops)
            self.name.append(name_id)
            self.end.append(0)
            self._stack.append(index)
            self.start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                self.end[index] = clock()
                self._stack.pop()
            if count is not None:
                count(self.counts, result, *args, **kwargs)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def columns(self) -> dict[str, np.ndarray]:
        cols = {key: np.frombuffer(getattr(self, key), dtype=np.int64)
                for key in ("parent", "op", "name", "start", "end")}
        duration = cols["end"] - cols["start"]
        covered = np.zeros_like(duration)
        nested = cols["parent"] >= 0
        np.add.at(covered, cols["parent"][nested], duration[nested])
        cols["duration"] = duration
        cols["self"] = duration - covered
        return cols

    def save(self, path: str) -> None:
        """Write the spans as an .npz: names, then one row per span."""
        cols = self.columns()
        np.savez(path, names=np.array(self.names), **cols)


def _cli_label(argv, *_, **__) -> str:
    command = argv[0]
    if command != "scatter":
        return f"cli.{command}"
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
    return f"cli.scatter.{fmt}"


def _count_sweep(counts, rows, *_, **__) -> None:
    counts["scattering.points"] += len(rows)
    counts["scattering.error_rows"] += sum(row.error is not None for row in rows)


def _count_evolve(counts, result, state, *args, n_steps=None, **kwargs) -> None:
    steps = n_steps if n_steps is not None else args[2]
    counts[f"steps.n{state.grid.n}"] += steps
    counts["dynamics.records"] += len(result[1])


def _count_verify(counts, report, rep, *_, **__) -> None:
    # Products in verify_clifford: square and spectrum of each matrix, both
    # orders of every anticommutator.
    matmuls = 2 * (rep.n + 1) + (rep.n + 1) * rep.n
    counts["algebra.matmuls"] += matmuls
    counts["algebra.verify_flops"] += matmuls * 8 * rep.dim ** 3


def instrument(tracer: Tracer) -> None:
    by_grid = lambda prefix: lambda state, *a, **k: f"{prefix}.n{state.grid.n}"  # noqa: E731
    tracer.wrap(cli, "main", _cli_label)
    tracer.wrap(scattering, "amplitudes", "scattering.amplitudes")
    tracer.wrap(scattering, "sweep", "scattering.sweep", _count_sweep)
    tracer.wrap(scattering, "sweep_to_csv", "scattering.sweep_to_csv")
    tracer.wrap(svgplot, "render_svg", "svgplot.render_svg")
    tracer.wrap(dynamics, "gaussian_packet", "dynamics.gaussian_packet")
    tracer.wrap(dynamics, "evolve", by_grid("dynamics.evolve"), _count_evolve)
    tracer.wrap(dynamics, "measure", by_grid("dynamics.measure"))
    tracer.wrap(dynamics, "observables_to_csv", "dynamics.observables_to_csv")
    tracer.wrap(dynamics, "snapshot_to_csv", "dynamics.snapshot_to_csv")
    tracer.wrap(algebra, "build_representation", "algebra.build_representation")
    tracer.wrap(algebra, "verify_clifford", "algebra.verify_clifford", _count_verify)
    tracer.wrap(algebra, "representation_to_json", "algebra.representation_to_json")
    tracer.wrap(algebra, "representation_from_json", "algebra.representation_from_json")


def start() -> Tracer:
    """A new tracer, already wrapped around every public function."""
    tracer = Tracer()
    instrument(tracer)
    return tracer


GRID_SIZES = (2048, 16384)


def fft_pair_us(n: int, repeats: int = 200) -> float:
    """Median time of numpy's FFT pair on a (2, n) field: the floor that the
    Strang step's two transforms set, measured beside the run."""
    rng = np.random.default_rng(n)
    psi = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        np.fft.ifft(np.fft.fft(psi, axis=1), axis=1)
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times) / 1e3


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, as name -> (value, unit).

    Totals are per round.  A layer the workload does not use reads 0.
    """
    cols = tracer.columns()
    names = np.array(tracer.names, dtype=object)[cols["name"]]
    parent_names = np.where(cols["parent"] >= 0, names[np.maximum(cols["parent"], 0)], "")

    def select(name):
        return names == name

    def outer_total_s(name):
        # recursive calls (build_representation) count once, at the outermost
        mask = select(name) & (parent_names != name)
        return float(cols["duration"][mask].sum()) / 1e9 / rounds

    def median_us(name):
        values = cols["duration"][select(name)]
        return float(np.median(values)) / 1e3 if len(values) else 0.0

    metrics: dict[str, tuple[float, str]] = {
        "scattering.amplitudes_us": (median_us("scattering.amplitudes"), "us"),
        "scattering.sweep_s": (outer_total_s("scattering.sweep"), "s"),
        "scattering.sweep_csv_s": (outer_total_s("scattering.sweep_to_csv"), "s"),
        "scattering.points": (tracer.counts["scattering.points"] / rounds, "count"),
        "scattering.error_rows": (tracer.counts["scattering.error_rows"] / rounds, "count"),
        "cli.scatter_csv_s": (outer_total_s("cli.scatter.csv"), "s"),
        "cli.scatter_json_s": (outer_total_s("cli.scatter.json"), "s"),
        "cli.scatter_svg_s": (outer_total_s("cli.scatter.svg"), "s"),
        "svgplot.render_ms": (outer_total_s("svgplot.render_svg") * 1e3, "ms"),
        "dynamics.packet_ms": (outer_total_s("dynamics.gaussian_packet") * 1e3, "ms"),
        "dynamics.observables_csv_ms":
            (outer_total_s("dynamics.observables_to_csv") * 1e3, "ms"),
        "dynamics.steps": (sum(tracer.counts[f"steps.n{n}"] for n in GRID_SIZES) / rounds,
                           "count"),
        "dynamics.records": (tracer.counts["dynamics.records"] / rounds, "count"),
    }
    for n in GRID_SIZES:
        steps = tracer.counts[f"steps.n{n}"]
        evolve_self = float(cols["self"][select(f"dynamics.evolve.n{n}")].sum())
        used = steps > 0
        metrics[f"dynamics.step_us.n{n}"] = (evolve_self / 1e3 / steps if used else 0.0, "us")
        metrics[f"dynamics.measure_us.n{n}"] = (median_us(f"dynamics.measure.n{n}"), "us")
        metrics[f"dynamics.fft_pair_us.n{n}"] = (fft_pair_us(n) if used else 0.0, "us")
        # Computed from array sizes: 5 N log2 N flops per complex transform,
        # two transforms of two components per step.
        metrics[f"dynamics.fft_flops_per_step.n{n}"] = (
            20.0 * n * math.log2(n) if used else 0.0, "flop")
        # Computed from array sizes: kick, FFT, free kernel, inverse FFT and
        # kick each read and write the 32 N-byte field, the finiteness check
        # reads it, and the kicks and kernel read 5 coefficient arrays of 16 N.
        metrics[f"dynamics.bytes_per_step.n{n}"] = (
            (5 * 2 * 32 + 32 + 5 * 16) * n if used else 0.0, "B")
    metrics.update({
        "algebra.build_ms": (outer_total_s("algebra.build_representation") * 1e3, "ms"),
        "algebra.verify_ms": (outer_total_s("algebra.verify_clifford") * 1e3, "ms"),
        "algebra.to_json_ms": (outer_total_s("algebra.representation_to_json") * 1e3, "ms"),
        "algebra.from_json_ms":
            (outer_total_s("algebra.representation_from_json") * 1e3, "ms"),
        "algebra.matmuls": (tracer.counts["algebra.matmuls"] / rounds, "count"),
        "algebra.verify_flops": (tracer.counts["algebra.verify_flops"] / rounds, "flop"),
        "cli.evolve_s": (outer_total_s("cli.evolve"), "s"),
        "cli.algebra_s": (outer_total_s("cli.algebra"), "s"),
    })
    return metrics
