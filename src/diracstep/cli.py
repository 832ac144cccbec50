"""Command-line front end: scatter / evolve / algebra subcommands.

All physics flags are in natural units (hbar = c = 1) with m0 defaulting
to 1.  Every parameter and its default is declared once, on its flag.  A
JSON config file (--config) can stand in for flags: its values become the
subcommand's defaults as the text of their flags, so explicit flags win
over them and each value is converted or refused by its flag's own type
(a JSON boolean only for the snapshots switch).  Each result has one
form: evolve prints its summary on stdout only, and scatter writes every
table, a single point included, as a list of rows.  A --format the command
would not write is refused before anything is printed: svg for a single
point, and json (or, for evolve, svg) without --output, where stdout holds
the point's text line or the summary.  Every artifact streams into a temp
file that replaces the file its path resolves to only when the writer
finishes; a path to a FIFO or a device is written straight through.

Exit codes: 0 success, 1 runtime abort (non-finite field values, failed
verification), 2 invalid parameters (non-finite values included, and
sizes past the memory the process may allocate).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import warnings
from typing import IO, Any, Iterator, Sequence

from . import algebra, dynamics, scattering, svgplot
from .scattering import Coupling, ScatteringQuery


_FORMATS = ("csv", "svg", "json")
# the summary key each of evolve's trust warnings sets
_FLAGS = {dynamics.WrappedWarning: "wrapped", dynamics.UnresolvedWarning: "unresolved"}


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The diracstep parser and its subcommand parsers, which hold every
    parameter with its default."""
    parser = argparse.ArgumentParser(
        prog="diracstep",
        description="1+1D Dirac step-potential scattering, wave-packet "
        "evolution, and Dirac-matrix construction (natural units).",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", metavar="PATH", help="output file (default: stdout)")
    output.add_argument("--format", choices=_FORMATS, default="csv",
                        help="output format (default: %(default)s)")
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", metavar="PATH",
                        help="JSON file providing parameter values; flags win on conflict")

    p = sub.add_parser("scatter", parents=[output, config],
                       help="closed-form step scattering (single query or sweep)")
    p.add_argument("--E", type=float, help="incident energy (> m0)")
    _add_step_arguments(p)
    p.add_argument("--sweep", metavar="AXIS:FROM:TO:STEPS",
                   help="sweep one of E, V0, m0 over an inclusive grid")

    p = sub.add_parser("evolve", parents=[output, config],
                       help="split-step wave-packet evolution across the step")
    _add_step_arguments(p)
    p.add_argument("--Ec", type=float, default=2.0,
                   help="packet central energy, > m0 (default: %(default)s)")
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

    p = sub.add_parser("algebra", parents=[config],
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


def _read_config(path: str, command: argparse.ArgumentParser) -> dict[str, Any]:
    """The JSON object of a --config file as defaults for the subcommand's
    parser.

    Each non-null value is handed over as the text of its flag, so argparse
    converts it with the flag's own type, or stops with its usage line, as
    it would the flag; a switch takes a JSON boolean as it is.
    """
    with open(path) as fh:
        try:
            values = json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"config file {path} nests JSON too deeply to parse") from exc
    if not isinstance(values, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    defaults = vars(command.parse_args([]))
    del defaults["config"]
    unknown = sorted(set(values) - set(defaults))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in values.items():
        switch = isinstance(defaults[key], bool)
        kinds = (bool,) if switch else (str, int, float)
        # null stands for "no value" only where the flag's default is none
        if type(value) not in kinds and not (value is None and defaults[key] is None):
            kind = "true or false" if switch else "a number or a string"
            raise ValueError(f"config key {key} must be {kind}, got {json.dumps(value)}")
    if "format" in values and values["format"] not in _FORMATS:
        raise ValueError(f"config format must be one of {', '.join(_FORMATS)}, "
                         f"got {values['format']!r}")
    return {k: v if v is None or isinstance(v, bool) else str(v) for k, v in values.items()}


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[IO[str]]:
    """The stream an artifact is written to: stdout when path is None; path
    itself, written straight through, when it names something other than a
    regular file (a FIFO, a device); else a temp file beside the file path
    resolves to, which replaces that file once the writer finishes and is
    removed if the writer raises, so a symlink stays a link.  A new file
    gets the mode a plain open gives, 0o666 less the umask."""
    if path is None:
        yield sys.stdout  # looked up now: callers may have redirected it
        return
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:  # a directory fails here, with its own path
            yield fh
        return
    target = os.path.realpath(path)
    tmp_path = os.path.join(os.path.dirname(target), f".tmp-diracstep-{os.urandom(6).hex()}")
    try:
        fh = open(tmp_path, "x")
    except OSError as exc:  # the temp file's name means nothing to the user
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp_path, target)
        except OSError as exc:  # name the user's path, not the temp file
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        os.unlink(tmp_path)
        raise


def _g(x: float) -> str:
    return format(x, ".12g")


def _parse_sweep(spec: str) -> tuple[str, float, float, int]:
    parts = spec.split(":")
    if len(parts) != 4:
        raise ValueError(f"sweep must look like AXIS:FROM:TO:STEPS, got {spec!r}")
    axis, start, stop, steps = parts
    return axis, float(start), float(stop), int(steps)


def run_scatter(args: argparse.Namespace) -> int:
    if args.E is None:
        raise ValueError("scatter requires --E")
    coupling = Coupling(args.coupling)
    single = args.sweep is None
    if single:
        if args.format == "svg":
            raise ValueError("svg output needs a sweep (a single point is not a curve)")
        if args.format == "json" and args.output is None:
            raise ValueError("json output of a single point needs --output "
                             "(stdout holds its text line)")
        table = scattering.SweepTable(args.E, args.V0, args.m0, coupling)
    else:
        axis, start, stop, steps = _parse_sweep(args.sweep)
        table = scattering.sweep(args, axis, start, stop, steps)  # reads E, V0, m0, coupling
    if table.error.all():
        # no point has an answer: refuse with the first point's own reason
        raise ValueError(table[0].error)

    if single:
        row = table[0]
        values = " ".join(f"{name}={_g(column[0])}" for name, column in table.values.items())
        print(f"E={_g(row.E)} V0={_g(row.V0)} m0={_g(row.m0)} coupling={coupling.value} "
              f"{values} regime={row.result.regime.value}")
        if args.output is None:
            return 0

    with _output(args.output) as out:
        if args.format == "csv":
            scattering.sweep_to_csv(table, out)
        elif args.format == "json":
            scattering.sweep_to_json(table, out)
        else:
            ok = ~table.error  # error rows may hold finite garbage (e.g. m0 <= 0)
            vlines: tuple[tuple[float, str], ...] = ()
            if coupling is Coupling.VECTOR:
                if axis == "V0":
                    vlines = ((args.E + args.m0, "V0 = E + m0"),)
                elif axis == "E":
                    vlines = ((args.V0 - args.m0, "E = V0 - m0"),)
            spec = svgplot.PlotSpec(
                title=f"step scattering, {coupling.value} coupling",
                x_label=axis, y_label="coefficient", vlines=vlines,
            )
            series = {"r": table.values["r"][ok], "t": table.values["t"][ok]}
            out.write(svgplot.render_svg(getattr(table, axis)[ok], series, spec))
    return 0


def run_evolve(args: argparse.Namespace) -> int:
    if args.format != "csv" and args.output is None:
        raise ValueError(f"{args.format} output needs --output (stdout holds only the summary)")
    coupling = Coupling(args.coupling)
    m0 = args.m0
    if not args.Ec > m0:
        raise ValueError(f"need Ec > m0, got Ec={args.Ec}, m0={m0}")
    k_c = math.sqrt(args.Ec * args.Ec - m0 * m0)
    e_c = math.sqrt(k_c * k_c + m0 * m0)  # Ec as the packet's k_c holds it, for the reference

    grid = dynamics.Grid(n=args.grid_n, length=args.domain_l)
    x_c = -0.25 * grid.length if args.x_c is None else args.x_c
    profile = dynamics.PotentialProfile(
        coupling=coupling, v0=args.V0, x_step=args.x_step, smoothing=args.smoothing,
    )
    state = dynamics.gaussian_packet(grid, x_c=x_c, k_c=k_c, sigma=args.sigma, m0=m0)

    def on_record(snapshot_state: dynamics.WavePacketState, step: int) -> None:
        # snapshots go beside the output file, or into the working directory
        name = f"snapshot_{step:07d}.csv"
        with _output(os.path.join(os.path.dirname(args.output or ""), name)) as out:
            dynamics.snapshot_to_csv(snapshot_state, out)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        final, records = dynamics.evolve(
            state, profile, dt=args.dt, n_steps=args.steps, record_every=args.record_every,
            on_record=on_record if args.snapshots else None,
        )

    summary: dict[str, Any] = {
        "p_left_final": records[-1].p_left,
        "p_right_final": records[-1].p_right,
        "norm_drift": abs(records[-1].norm - records[0].norm),
    }
    try:
        res = scattering.amplitudes(
            ScatteringQuery(E=e_c, V0=args.V0, m0=m0, coupling=coupling))
        summary["analytic_r"] = res.r
        summary["analytic_t"] = res.t
    except ValueError:
        # no closed-form reference: a massless packet, a 0/0 point, or an
        # overflow
        pass
    for caught_warning in caught:
        print(f"warning: {caught_warning.message}", file=sys.stderr)
        if caught_warning.category in _FLAGS:
            summary[_FLAGS[caught_warning.category]] = True

    # records go to a file; bare stdout stays pure summary JSON
    if args.output is not None:
        with _output(args.output) as out:
            if args.format == "svg":
                series = {name: [getattr(rec, name) for rec in records]
                          for name in ("p_left", "p_right", "norm")}
                spec = svgplot.PlotSpec(
                    title=f"wave-packet evolution, {coupling.value} coupling",
                    x_label="time", y_label="probability",
                )
                out.write(svgplot.render_svg([rec.time for rec in records], series, spec))
            elif args.format == "json":
                payload = {"records": [rec.__dict__ for rec in records], "summary": summary}
                out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            else:
                dynamics.observables_to_csv(records, out)

    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def run_algebra(args: argparse.Namespace) -> int:
    # checked here, not by argparse, so that --config values are refused too
    if args.n is not None and args.verify_json is not None:
        raise ValueError("--n builds a representation and --verify-json reads one: "
                         "give one of them")

    if args.verify_json is not None:
        with open(args.verify_json) as fh:
            rep = algebra.read_representation_json(fh)
    else:
        if args.n is None:
            raise ValueError("algebra requires --n (or --verify-json)")
        rep = algebra.build_representation(args.n)

    report = algebra.verify_clifford(rep, args.tolerance)
    print(
        f"n={rep.n} dim={rep.dim} passed={'true' if report.passed else 'false'} "
        f"max_deviation={format(report.max_deviation, '.17g')}"
    )
    for name, deviation in report.failures:
        print(f"  failed: {name} (deviation {format(deviation, '.6g')})")

    if args.emit_json is not None:
        with _output(args.emit_json) as out:
            algebra.write_representation_json(rep, out)
    return 0 if report.passed else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # config values become the subcommand's defaults, so flags still win
            command = commands[args.subcommand]
            command.set_defaults(**_read_config(args.config, command))
            args = parser.parse_args(argv)
        runner = {"scatter": run_scatter, "evolve": run_evolve, "algebra": run_algebra}
        return runner[args.subcommand](args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an input too large to hold, such as algebra --n 40
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
