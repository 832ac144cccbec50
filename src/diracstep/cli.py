"""Command-line front end: scatter / evolve / algebra subcommands.

All physics flags are in natural units (hbar = c = 1) with m0 defaulting
to 1.  Every parameter and its default is declared once, on its flag.  A
JSON config file (--config) can stand in for flags: its values become the
subcommand's defaults, so explicitly given flags win over them.  Output
files are written atomically (temp file + rename), so no partial artifacts
are left behind.

Exit codes: 0 success, 1 runtime abort (non-finite field values, failed
verification), 2 invalid parameters (non-finite values included).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import tempfile
from typing import Any, Sequence

from . import algebra, dynamics, scattering, svgplot
from .scattering import Coupling, ScatteringQuery, SingularConfigurationError


_FORMATS = ("csv", "svg", "json")
_EC_DEFAULT = 2.0  # central energy when neither --Ec nor --kc is given
_ENERGY_KEYS = ("Ec", "kc")


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The diracstep parser and its subcommand parsers, which hold every
    parameter with its default."""
    parser = argparse.ArgumentParser(
        prog="diracstep",
        description="1+1D Dirac step-potential scattering, wave-packet "
        "evolution, and Dirac-matrix construction (natural units).",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", metavar="PATH", help="output file (default: stdout)")
    common.add_argument("--format", choices=_FORMATS, default="csv",
                        help="output format (default: %(default)s)")
    common.add_argument("--config", metavar="PATH",
                        help="JSON file providing parameter values; flags win on conflict")

    p = sub.add_parser("scatter", parents=[common],
                       help="closed-form step scattering (single query or sweep)")
    p.add_argument("--E", type=float, help="incident energy (> m0)")
    _add_step_arguments(p)
    p.add_argument("--sweep", metavar="AXIS:FROM:TO:STEPS",
                   help="sweep one of E, V0, m0 over an inclusive grid")

    p = sub.add_parser("evolve", parents=[common],
                       help="split-step wave-packet evolution across the step")
    _add_step_arguments(p)
    energy = p.add_mutually_exclusive_group()
    energy.add_argument("--Ec", type=float,
                        help=f"packet central energy (> m0; default: {_EC_DEFAULT:g})")
    energy.add_argument("--kc", type=float, help="packet central wavenumber (> 0)")
    p.add_argument("--grid-n", dest="grid_n", type=int, default=2048,
                   help="grid points, power of two (default: %(default)s)")
    p.add_argument("--domain-l", dest="domain_l", type=float, default=200.0,
                   help="domain length (default: %(default)s)")
    p.add_argument("--dt", type=float, default=0.04, help="time step (default: %(default)s)")
    p.add_argument("--steps", type=int, default=2500,
                   help="number of steps (default: %(default)s)")
    p.add_argument("--sigma", type=float, default=5.0, help="packet width (default: %(default)s)")
    p.add_argument("--x-c", dest="x_c", type=float,
                   help="packet center (default: -domain_l/4)")
    p.add_argument("--x-step", dest="x_step", type=float, default=0.0,
                   help="step position (default: %(default)s)")
    p.add_argument("--smoothing", type=float, default=0.0,
                   help="tanh smoothing width of the step (default: %(default)s = sharp)")
    p.add_argument("--record-every", dest="record_every", type=int, default=10,
                   help="record observables every N steps (default: %(default)s)")
    p.add_argument("--snapshots", action="store_true",
                   help="write a full-field CSV snapshot at every record point")

    p = sub.add_parser("algebra", parents=[common],
                       help="build/verify Dirac matrices in n+1 dimensions")
    p.add_argument("--n", type=int, help="number of spatial dimensions (>= 1)")
    p.add_argument("--tolerance", type=float, default=1e-12,
                   help="verification tolerance (default: %(default)s)")
    p.add_argument("--emit-json", dest="emit_json", metavar="PATH",
                   help="write the representation as JSON")
    p.add_argument("--verify-json", dest="verify_json", metavar="PATH",
                   help="verify a representation from JSON instead of building one")

    return parser, sub.choices


def _add_step_arguments(p: argparse.ArgumentParser) -> None:
    """The step flags that scatter and evolve share."""
    p.add_argument("--V0", type=float, default=0.0, help="step height (default: %(default)s)")
    p.add_argument("--m0", type=float, default=1.0, help="rest mass (default: %(default)s)")
    p.add_argument("--coupling", choices=[c.value for c in Coupling],
                   default=Coupling.VECTOR.value, help="Lorentz channel (default: %(default)s)")


def _read_config(path: str, command: argparse.ArgumentParser,
                 flags: argparse.Namespace) -> dict[str, Any]:
    """The JSON object of a --config file, checked against the destinations
    and defaults of the subcommand's parser, less the energy key an
    explicit --Ec or --kc flag overrides."""
    with open(path) as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    defaults = vars(command.parse_args([]))
    del defaults["config"]
    unknown = sorted(set(values) - set(defaults))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    nulls = sorted(k for k, v in values.items() if v is None and defaults[k] is not None)
    if nulls:
        raise ValueError(f"config keys cannot be null: {', '.join(nulls)}")
    if "format" in values and values["format"] not in _FORMATS:
        raise ValueError(f"config format must be one of {', '.join(_FORMATS)}, "
                         f"got {values['format']!r}")
    # --Ec and --kc exclude each other, in the file as on the command line
    if all(values.get(key) is not None for key in _ENERGY_KEYS):
        raise ValueError("config keys Ec and kc are mutually exclusive")
    if any(getattr(flags, key, None) is not None for key in _ENERGY_KEYS):
        for key in _ENERGY_KEYS:
            values.pop(key, None)
    return values


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


def run_scatter(args: argparse.Namespace) -> int:
    if args.E is None:
        raise ValueError("scatter requires --E")
    coupling = Coupling(args.coupling)
    E, V0, m0 = float(args.E), float(args.V0), float(args.m0)

    if args.sweep is None:
        q = ScatteringQuery(E=E, V0=V0, m0=m0, coupling=coupling)
        res = scattering.amplitudes(q)
        print(
            f"E={_g(E)} V0={_g(V0)} m0={_g(m0)} coupling={coupling.value} "
            f"a={_g(res.a)} re_b={_g(res.b.real)} im_b={_g(res.b.imag)} "
            f"re_R={_g(res.R.real)} im_R={_g(res.R.imag)} "
            f"re_T={_g(res.T.real)} im_T={_g(res.T.imag)} "
            f"r={_g(res.r)} t={_g(res.t)} regime={res.regime.value}"
        )
        if args.output is not None:
            if args.format not in ("csv", "json"):
                raise ValueError("svg output needs a sweep (a single point is not a curve)")
            _emit_table(scattering.SweepTable(E, V0, m0, coupling), args.format,
                        args.output, single=True)
        return 0

    axis, start, stop, steps = _parse_sweep(args.sweep)
    base = _sweep_base(E, V0, m0, coupling, axis)
    table = scattering.sweep(base, axis, start, stop, steps)

    if args.format in ("csv", "json"):
        _emit_table(table, args.format, args.output)
    else:
        ok = ~table.error  # error rows may hold finite garbage (e.g. m0 <= 0)
        vlines: tuple[tuple[float, str], ...] = ()
        if coupling is Coupling.VECTOR:
            if axis == "V0":
                vlines = ((E + m0, "V0 = E + m0"),)
            elif axis == "E":
                vlines = ((V0 - m0, "E = V0 - m0"),)
        spec = svgplot.PlotSpec(
            title=f"step scattering, {coupling.value} coupling",
            x_label=axis, y_label="coefficient", vlines=vlines,
        )
        series = {"r": table.values["r"][ok], "t": table.values["t"][ok]}
        _emit(svgplot.render_svg(getattr(table, axis)[ok], series, spec), args.output)
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


def run_evolve(args: argparse.Namespace) -> int:
    coupling = Coupling(args.coupling)
    m0, V0 = float(args.m0), float(args.V0)
    if args.kc is not None:
        k_c = float(args.kc)
    else:
        e_c = _EC_DEFAULT if args.Ec is None else float(args.Ec)
        if not e_c > m0:
            raise ValueError(f"need Ec > m0, got Ec={e_c}, m0={m0}")
        k_c = math.sqrt(e_c * e_c - m0 * m0)
    e_c = math.sqrt(k_c * k_c + m0 * m0)

    grid = dynamics.Grid(n=int(args.grid_n), length=float(args.domain_l))
    x_c = -0.25 * grid.length if args.x_c is None else float(args.x_c)
    profile = dynamics.PotentialProfile(
        coupling=coupling, v0=V0,
        x_step=float(args.x_step), smoothing=float(args.smoothing),
    )
    state = dynamics.gaussian_packet(grid, x_c=x_c, k_c=k_c, sigma=float(args.sigma), m0=m0)

    snapshot_dir = None
    if args.snapshots:
        snapshot_dir = (os.path.dirname(os.path.abspath(args.output))
                        if args.output else os.getcwd())

    def on_record(snapshot_state: dynamics.WavePacketState, step: int) -> None:
        if snapshot_dir is None:
            return
        buf = io.StringIO()
        dynamics.snapshot_to_csv(snapshot_state, buf)
        _atomic_write(os.path.join(snapshot_dir, f"snapshot_{step:07d}.csv"),
                      buf.getvalue())

    final, records = dynamics.evolve(
        state, profile, dt=float(args.dt), n_steps=int(args.steps),
        record_every=int(args.record_every),
        on_record=on_record if snapshot_dir is not None else None,
    )

    summary: dict[str, Any] = {
        "p_left_final": records[-1].p_left,
        "p_right_final": records[-1].p_right,
        "norm_drift": abs(records[-1].norm - records[0].norm),
    }
    # the closed form needs a massive incident wave and a vector or scalar step
    if coupling is not Coupling.PSEUDOSCALAR and m0 > 0:
        try:
            res = scattering.amplitudes(
                ScatteringQuery(E=e_c, V0=V0, m0=m0, coupling=coupling))
            summary["analytic_r"] = res.r
            summary["analytic_t"] = res.t
        except SingularConfigurationError:
            pass  # degenerate point: no analytic reference to report

    # records go to a file; bare stdout stays pure summary JSON
    if args.output is not None:
        if args.format == "svg":
            series = {name: [getattr(rec, name) for rec in records]
                      for name in ("p_left", "p_right", "norm")}
            spec = svgplot.PlotSpec(
                title=f"wave-packet evolution, {coupling.value} coupling",
                x_label="time", y_label="probability",
            )
            times = [rec.time for rec in records]
            _emit(svgplot.render_svg(times, series, spec), args.output)
        elif args.format == "json":
            payload = {"records": [rec.__dict__ for rec in records], "summary": summary}
            _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.output)
        else:
            buf = io.StringIO()
            dynamics.observables_to_csv(records, buf)
            _emit(buf.getvalue(), args.output)

    summary_text = json.dumps(summary, indent=2, sort_keys=True)
    print(summary_text)
    if args.output is not None:
        _atomic_write(args.output + ".summary.json", summary_text + "\n")
    return 0


def run_algebra(args: argparse.Namespace) -> int:
    if args.output is not None and args.format != "json":
        raise ValueError("algebra writes its representation only as JSON: "
                         "add --format json to --output, or use --emit-json PATH")
    tolerance = float(args.tolerance)

    if args.verify_json is not None:
        with open(args.verify_json) as fh:
            rep = algebra.representation_from_json(json.load(fh))
    else:
        if args.n is None:
            raise ValueError("algebra requires --n (or --verify-json)")
        rep = algebra.build_representation(int(args.n))

    report = algebra.verify_clifford(rep, tolerance)
    print(
        f"n={rep.n} dim={rep.dim} passed={'true' if report.passed else 'false'} "
        f"max_deviation={format(report.max_deviation, '.17g')}"
    )
    for name, deviation in report.failures:
        print(f"  failed: {name} (deviation {format(deviation, '.6g')})")

    emit_path = args.emit_json if args.emit_json is not None else args.output
    if emit_path is not None:
        text = json.dumps(algebra.representation_to_json(rep), sort_keys=True)
        _atomic_write(emit_path, text + "\n")
    return 0 if report.passed else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # config values become the subcommand's defaults, so flags still win
            command = commands[args.subcommand]
            command.set_defaults(**_read_config(args.config, command, args))
            args = parser.parse_args(argv)
        runner = {"scatter": run_scatter, "evolve": run_evolve, "algebra": run_algebra}
        return runner[args.subcommand](args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
