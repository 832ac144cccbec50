"""Command-line front end: scatter / evolve / algebra subcommands.

All physics flags are in natural units (hbar = c = 1) with m0 defaulting
to 1.  A JSON config file can stand in for flags (--config); explicitly
given flags win over config values.  Output files are written atomically
(temp file + rename), so no partial artifacts are left behind.

Exit codes: 0 success, 1 runtime abort (non-finite field values, failed
verification), 2 invalid parameters.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Any, Sequence

from . import algebra, dynamics, scattering, svgplot
from .scattering import Coupling, ScatteringQuery, SingularConfigurationError


@dataclass(frozen=True)
class RunConfig:
    """A fully merged, defaulted invocation of one subcommand."""

    subcommand: str
    parameters: dict[str, Any]
    output_path: str | None
    format: str


_SCATTER_DEFAULTS = {
    "E": None,  # required
    "V0": 0.0,
    "m0": 1.0,
    "coupling": "vector",
    "sweep": None,
}

_EVOLVE_DEFAULTS = {
    "coupling": "vector",
    "V0": 0.0,
    "m0": 1.0,
    "Ec": None,
    "kc": None,
    "grid_n": 2048,
    "domain_l": 200.0,
    "dt": 0.04,
    "steps": 2500,
    "sigma": 5.0,
    "x_c": None,  # defaults to -domain_l/4 once the domain is known
    "x_step": 0.0,
    "smoothing": 0.0,
    "record_every": 10,
    "snapshots": False,
}

_ALGEBRA_DEFAULTS = {
    "n": None,  # required unless --verify-json
    "tolerance": 1e-12,
    "emit_json": None,
    "verify_json": None,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracstep",
        description="1+1D Dirac step-potential scattering, wave-packet "
        "evolution, and Dirac-matrix construction (natural units).",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", metavar="PATH", help="output file (default: stdout)")
    common.add_argument("--format", choices=("csv", "svg", "json"),
                        help="output format (default: csv)")
    common.add_argument("--config", metavar="PATH",
                        help="JSON file providing parameter values; flags win on conflict")

    p = sub.add_parser("scatter", parents=[common],
                       help="closed-form step scattering (single query or sweep)")
    p.add_argument("--E", type=float, help="incident energy (> m0)")
    p.add_argument("--V0", type=float, help="step height (default 0)")
    p.add_argument("--m0", type=float, help="rest mass (default 1)")
    p.add_argument("--coupling", choices=[c.value for c in Coupling],
                   help="Lorentz channel (default vector)")
    p.add_argument("--sweep", metavar="AXIS:FROM:TO:STEPS",
                   help="sweep one of E, V0, m0 over an inclusive grid")

    p = sub.add_parser("evolve", parents=[common],
                       help="split-step wave-packet evolution across the step")
    p.add_argument("--coupling", choices=[c.value for c in Coupling])
    p.add_argument("--V0", type=float, help="step height (default 0)")
    p.add_argument("--m0", type=float, help="rest mass (default 1)")
    energy = p.add_mutually_exclusive_group()
    energy.add_argument("--Ec", type=float, help="packet central energy (> m0; default 2)")
    energy.add_argument("--kc", type=float, help="packet central wavenumber (> 0)")
    p.add_argument("--grid-n", dest="grid_n", type=int,
                   help="grid points, power of two (default 2048)")
    p.add_argument("--domain-l", dest="domain_l", type=float,
                   help="domain length (default 200)")
    p.add_argument("--dt", type=float, help="time step (default 0.04)")
    p.add_argument("--steps", type=int, help="number of steps (default 2500)")
    p.add_argument("--sigma", type=float, help="packet width (default 5)")
    p.add_argument("--x-c", dest="x_c", type=float,
                   help="packet center (default -domain_l/4)")
    p.add_argument("--x-step", dest="x_step", type=float,
                   help="step position (default 0)")
    p.add_argument("--smoothing", type=float,
                   help="tanh smoothing width of the step (default 0 = sharp)")
    p.add_argument("--record-every", dest="record_every", type=int,
                   help="record observables every N steps (default 10)")
    p.add_argument("--snapshots", action="store_const", const=True,
                   help="write a full-field CSV snapshot at every record point")

    p = sub.add_parser("algebra", parents=[common],
                       help="build/verify Dirac matrices in n+1 dimensions")
    p.add_argument("--n", type=int, help="number of spatial dimensions (>= 1)")
    p.add_argument("--tolerance", type=float,
                   help="verification tolerance (default 1e-12)")
    p.add_argument("--emit-json", dest="emit_json", metavar="PATH",
                   help="write the representation as JSON")
    p.add_argument("--verify-json", dest="verify_json", metavar="PATH",
                   help="verify a representation from JSON instead of building one")

    return parser


def _merge_config(args: argparse.Namespace, defaults: dict[str, Any]) -> dict[str, Any]:
    """Layer flag values over config-file values over defaults."""
    merged = dict(defaults)
    if args.config is not None:
        with open(args.config) as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        unknown = sorted(set(file_values) - set(defaults) - {"output", "format"})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        merged.update({k: v for k, v in file_values.items() if k in defaults})
    for key in defaults:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    return merged


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    defaults = {
        "scatter": _SCATTER_DEFAULTS,
        "evolve": _EVOLVE_DEFAULTS,
        "algebra": _ALGEBRA_DEFAULTS,
    }[args.subcommand]
    params = _merge_config(args, defaults)
    output = args.output
    fmt = args.format
    if output is None and args.config is not None:
        with open(args.config) as fh:
            file_values = json.load(fh)
        output = file_values.get("output")
        if fmt is None:
            fmt = file_values.get("format")
    return RunConfig(
        subcommand=args.subcommand,
        parameters=params,
        output_path=output,
        format=fmt or "csv",
    )


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-diracstep-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        os.unlink(tmp_path)
        raise


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _atomic_write(path, text)


def _g(x: float) -> str:
    return format(x, ".12g")


def _parse_sweep(spec: str) -> tuple[str, float, float, int]:
    parts = spec.split(":")
    if len(parts) != 4:
        raise ValueError(f"sweep must look like AXIS:FROM:TO:STEPS, got {spec!r}")
    axis, start, stop, steps = parts
    if axis not in scattering.SWEEP_AXES:
        raise ValueError(f"sweep axis must be one of {scattering.SWEEP_AXES}, got {axis!r}")
    return axis, float(start), float(stop), int(steps)


def run_scatter(config: RunConfig) -> int:
    p = config.parameters
    if p["E"] is None:
        raise ValueError("scatter requires --E")
    coupling = Coupling(p["coupling"])
    E, V0, m0 = float(p["E"]), float(p["V0"]), float(p["m0"])

    if p["sweep"] is None:
        q = ScatteringQuery(E=E, V0=V0, m0=m0, coupling=coupling)
        res = scattering.amplitudes(q)
        print(
            f"E={_g(E)} V0={_g(V0)} m0={_g(m0)} coupling={coupling.value} "
            f"a={_g(res.a)} re_b={_g(res.b.real)} im_b={_g(res.b.imag)} "
            f"re_R={_g(res.R.real)} im_R={_g(res.R.imag)} "
            f"re_T={_g(res.T.real)} im_T={_g(res.T.imag)} "
            f"r={_g(res.r)} t={_g(res.t)} regime={res.regime.value}"
        )
        if config.output_path is not None:
            if config.format not in ("csv", "json"):
                raise ValueError("svg output needs a sweep (a single point is not a curve)")
            _emit_table(scattering.SweepTable(E, V0, m0, coupling), config.format,
                        config.output_path, single=True)
        return 0

    axis, start, stop, steps = _parse_sweep(p["sweep"])
    base = _sweep_base(E, V0, m0, coupling, axis)
    table = scattering.sweep(base, axis, start, stop, steps)

    if config.format in ("csv", "json"):
        _emit_table(table, config.format, config.output_path)
    else:
        ok = ~table.error
        plot_rows = [
            {axis: x, "r": r, "t": t}
            for x, r, t in zip(getattr(table, axis)[ok].tolist(),
                               table.values["r"][ok].tolist(), table.values["t"][ok].tolist())
        ]
        vlines: tuple[tuple[float, str], ...] = ()
        if coupling is Coupling.VECTOR:
            if axis == "V0":
                vlines = ((E + m0, "V0 = E + m0"),)
            elif axis == "E":
                vlines = ((V0 - m0, "E = V0 - m0"),)
        spec = svgplot.PlotSpec(
            x_column=axis, y_columns=("r", "t"),
            title=f"step scattering, {coupling.value} coupling",
            x_label=axis, y_label="coefficient", vlines=vlines,
        )
        _emit(svgplot.render_svg(plot_rows, spec), config.output_path)
    return 0


def _emit_table(table: scattering.SweepTable, fmt: str, path: str | None,
                single: bool = False) -> None:
    buf = io.StringIO()
    if fmt == "csv":
        scattering.sweep_to_csv(table, buf)
    else:
        scattering.sweep_to_json(table, buf, single=single)
    _emit(buf.getvalue(), path)


def _sweep_base(E: float, V0: float, m0: float, coupling: Coupling, axis: str) -> ScatteringQuery:
    """Base query for a sweep; the swept axis is overwritten per row, so a
    below-threshold base value on that axis must not block construction."""
    values = {"E": E, "V0": V0, "m0": m0}
    if axis in ("E", "m0") and not E > m0:
        # placeholder satisfying E > m0; every row replaces the swept value
        values[axis] = 2.0 * m0 if axis == "E" else 0.5 * E
    return ScatteringQuery(coupling=coupling, **values)


def run_evolve(config: RunConfig) -> int:
    p = config.parameters
    coupling = Coupling(p["coupling"])
    m0, V0 = float(p["m0"]), float(p["V0"])
    if p["kc"] is not None:
        k_c = float(p["kc"])
    else:
        e_c = 2.0 if p["Ec"] is None else float(p["Ec"])
        if not e_c > m0:
            raise ValueError(f"need Ec > m0, got Ec={e_c}, m0={m0}")
        k_c = math.sqrt(e_c * e_c - m0 * m0)
    e_c = math.sqrt(k_c * k_c + m0 * m0)

    grid = dynamics.Grid(n=int(p["grid_n"]), length=float(p["domain_l"]))
    x_c = -0.25 * grid.length if p["x_c"] is None else float(p["x_c"])
    kind = "zero" if V0 == 0.0 else "step"
    profile = dynamics.PotentialProfile(
        coupling=coupling, kind=kind, v0=V0,
        x_step=float(p["x_step"]), smoothing=float(p["smoothing"]),
    )
    state = dynamics.gaussian_packet(grid, x_c=x_c, k_c=k_c, sigma=float(p["sigma"]), m0=m0)

    snapshot_dir = None
    if p["snapshots"]:
        snapshot_dir = (os.path.dirname(os.path.abspath(config.output_path))
                        if config.output_path else os.getcwd())

    def on_record(snapshot_state: dynamics.WavePacketState, step: int) -> None:
        if snapshot_dir is None:
            return
        buf = io.StringIO()
        dynamics.snapshot_to_csv(snapshot_state, buf)
        _atomic_write(os.path.join(snapshot_dir, f"snapshot_{step:07d}.csv"),
                      buf.getvalue())

    final, records = dynamics.evolve(
        state, profile, dt=float(p["dt"]), n_steps=int(p["steps"]),
        record_every=int(p["record_every"]),
        on_record=on_record if snapshot_dir is not None else None,
    )

    summary: dict[str, Any] = {
        "p_left_final": records[-1].p_left,
        "p_right_final": records[-1].p_right,
        "norm_drift": abs(records[-1].norm - records[0].norm),
    }
    if coupling is not Coupling.PSEUDOSCALAR:
        try:
            res = scattering.amplitudes(
                ScatteringQuery(E=e_c, V0=V0, m0=m0, coupling=coupling))
            summary["analytic_r"] = res.r
            summary["analytic_t"] = res.t
        except SingularConfigurationError:
            pass  # degenerate point: no analytic reference to report

    # records go to a file; bare stdout stays pure summary JSON
    if config.output_path is not None:
        if config.format == "svg":
            plot_rows = [
                {"time": rec.time, "norm": rec.norm,
                 "p_left": rec.p_left, "p_right": rec.p_right}
                for rec in records
            ]
            spec = svgplot.PlotSpec(
                x_column="time", y_columns=("p_left", "p_right", "norm"),
                title=f"wave-packet evolution, {coupling.value} coupling",
                x_label="time", y_label="probability",
            )
            _emit(svgplot.render_svg(plot_rows, spec), config.output_path)
        elif config.format == "json":
            payload = {"records": [rec.__dict__ for rec in records], "summary": summary}
            _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", config.output_path)
        else:
            buf = io.StringIO()
            dynamics.observables_to_csv(records, buf)
            _emit(buf.getvalue(), config.output_path)

    summary_text = json.dumps(summary, indent=2, sort_keys=True)
    print(summary_text)
    if config.output_path is not None:
        _atomic_write(config.output_path + ".summary.json", summary_text + "\n")
    return 0


def run_algebra(config: RunConfig) -> int:
    p = config.parameters
    tolerance = float(p["tolerance"])

    if p["verify_json"] is not None:
        with open(p["verify_json"]) as fh:
            rep = algebra.representation_from_json(json.load(fh))
    else:
        if p["n"] is None:
            raise ValueError("algebra requires --n (or --verify-json)")
        rep = algebra.build_representation(int(p["n"]))

    report = algebra.verify_clifford(rep, tolerance)
    print(
        f"n={rep.n} dim={rep.dim} passed={'true' if report.passed else 'false'} "
        f"max_deviation={format(report.max_deviation, '.17g')}"
    )
    for name, deviation in report.failures:
        print(f"  failed: {name} (deviation {format(deviation, '.6g')})")

    emit_path = p["emit_json"]
    if emit_path is None and config.output_path is not None and config.format == "json":
        emit_path = config.output_path
    if emit_path is not None:
        text = json.dumps(algebra.representation_to_json(rep), sort_keys=True)
        _atomic_write(emit_path, text + "\n")
    return 0 if report.passed else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        runner = {"scatter": run_scatter, "evolve": run_evolve, "algebra": run_algebra}
        return runner[config.subcommand](config)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
