"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import errno
import json
import os
import re
import resource
import signal
import stat
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from diracstep import algebra, dynamics, scattering
from diracstep.cli import _build_parser, main
from diracstep.dynamics import OBSERVABLES_CSV_HEADER, SNAPSHOT_CSV_HEADER
from diracstep.scattering import CSV_HEADER, ScatteringQuery, amplitudes

# nested far past the JSON parser's recursion limit
DEEP_JSON = "[" * 100000 + "]" * 100000

# the address space of a CLI run whose input is too large to hold: far above
# what any test needs, and low enough that a regression cannot fill the host
MEMORY_LIMIT = 4 * 2 ** 30


def _regime_counts(csv_text: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for line in csv_text.splitlines()[1:]:
        tag = line.rsplit(",", 1)[1]
        counts[tag] = counts.get(tag, 0) + 1
    return counts


class TestScatterSingle:
    def test_klein_point_stdout(self, capsys):
        assert main(["scatter", "--E", "1.5", "--V0", "3"]) == 0
        out = capsys.readouterr().out
        assert "r=2.25 t=-1.25 regime=klein_zone" in out
        assert "coupling=vector" in out
        assert out.count("\n") == 1

    def test_below_threshold_exits_2(self, capsys):
        assert main(["scatter", "--E", "0.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "E > m0" in err

    def test_missing_energy_exits_2(self, capsys):
        assert main(["scatter"]) == 2
        assert "--E" in capsys.readouterr().err

    def test_singular_point_exits_2(self, capsys):
        assert main(["scatter", "--E", "1.5", "--V0", "2.5"]) == 2
        assert "degenerate" in capsys.readouterr().err

    def test_csv_output_file(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        assert main(["scatter", "--E", "2", "--V0", "0.5", "--output", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert lines[1].endswith(",transmission")

    def test_json_output_file(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        assert main(["scatter", "--E", "1.5", "--V0", "3",
                     "--output", str(path), "--format", "json"]) == 0
        data = json.loads(path.read_text())
        assert len(data) == 1  # a single point is a table of one row
        assert data[0]["regime"] == "klein_zone"
        assert abs(data[0]["r"] - 2.25) <= 1e-14
        assert abs(data[0]["t"] + 1.25) <= 1e-14

    @pytest.mark.parametrize("argv", [
        ["--E", "1.5", "--V0", "nan"],
        ["--E", "1.5", "--V0", "inf"],
        ["--E", "inf"],
        ["--E", "1.5", "--sweep", "V0:0:inf:5"],
        ["--E", "2", "--sweep", "V0:-1e308:1e308:5"],  # the span overflows
    ])
    def test_non_finite_input_exits_2(self, argv, capsys):
        assert main(["scatter"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "finite" in captured.err

    def test_file_writers_hold_the_printed_point(self, tmp_path, capsys):
        """Both file formats of a single query carry amplitudes() exactly."""
        res = amplitudes(ScatteringQuery(E=1.5, V0=3.0, m0=1.0))
        csv_path, json_path = tmp_path / "one.csv", tmp_path / "one.json"
        assert main(["scatter", "--E", "1.5", "--V0", "3", "--output", str(csv_path)]) == 0
        assert main(["scatter", "--E", "1.5", "--V0", "3", "--output", str(json_path),
                     "--format", "json"]) == 0
        capsys.readouterr()
        values = (res.a, res.b.real, res.b.imag, res.R.real, res.R.imag,
                  res.T.real, res.T.imag, res.r, res.t)
        row = ",".join(["1.5", "3", "1", "vector"] + [format(v, ".17g") for v in values]
                       + ["klein_zone"])
        assert csv_path.read_text() == CSV_HEADER + "\n" + row + "\n"
        expected = {"E": 1.5, "V0": 3.0, "m0": 1.0, "coupling": "vector",
                    "a": res.a, "re_b": res.b.real, "im_b": res.b.imag,
                    "re_R": res.R.real, "im_R": res.R.imag,
                    "re_T": res.T.real, "im_T": res.T.imag,
                    "r": res.r, "t": res.t, "regime": "klein_zone"}
        assert json_path.read_text() == json.dumps([expected], indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("argv", [[], ["--sweep", "V0:0:4:5"]])
    def test_pseudoscalar_answers(self, argv, tmp_path, capsys):
        """A point and a sweep both hold amplitudes() at their points; a sigma_y
        step has no Klein zone."""
        path = tmp_path / "out.csv"
        assert main(["scatter", "--E", "2", "--coupling", "pseudoscalar",
                     "--output", str(path)] + argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == (6 if argv else 2)
        for line in lines[1:]:
            row = dict(zip(CSV_HEADER.split(","), line.split(",")))
            res = amplitudes(ScatteringQuery(E=2.0, V0=float(row["V0"]), m0=1.0,
                                             coupling="pseudoscalar"))
            assert (float(row["r"]), float(row["t"])) == (res.r, res.t)
            assert row["regime"] == res.regime.value != "klein_zone"
        if not argv:  # the point's text line
            assert captured.out.endswith(f"r={res.r:.12g} t={res.t:.12g} regime=transmission\n")

    def test_closed_form_overflow_exits_2(self, capsys):
        """E^2 overflows past about 1.34e154, leaving r and t NaN: refused,
        not printed with a regime."""
        assert main(["scatter", "--E", "1e200", "--V0", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "overflows" in captured.err

    @pytest.mark.parametrize("fmt,output,reason", [
        ("svg", True, "sweep"),
        ("svg", False, "sweep"),
        ("json", False, "--output"),
    ])
    def test_format_a_point_does_not_write_exits_2(self, fmt, output, reason, tmp_path,
                                                    capsys):
        """One error line and nothing on stdout or on disk: svg needs a
        sweep, and a point's json needs a file (stdout holds its text line)."""
        argv = ["scatter", "--E", "1.5", "--V0", "3", "--format", fmt]
        assert main(argv + (["--output", str(tmp_path / "one")] if output else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert reason in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_explicit_csv_format_is_the_default(self, capsys):
        assert main(["scatter", "--E", "1.5", "--V0", "3"]) == 0
        default = capsys.readouterr()
        assert main(["scatter", "--E", "1.5", "--V0", "3", "--format", "csv"]) == 0
        assert capsys.readouterr() == default


    def test_readme_example_matches_stdout(self, tmp_path, capsys):
        """The README's scatter block is what main prints, from flags and
        from the same values in a config file."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        match = re.search(r"^\$ diracstep (scatter --E 1\.5 --V0 3)\n(.*\n)", readme, re.M)
        assert match is not None
        assert main(match.group(1).split()) == 0
        assert capsys.readouterr().out == match.group(2)
        cfg = tmp_path / "klein.json"
        cfg.write_text(json.dumps({"E": 1.5, "V0": 3}))
        assert main(["scatter", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == match.group(2)

class TestScatterSweep:
    def test_potential_sweep_partition(self, tmp_path, capsys):
        """401 V0 points from 0 to 4 at E=1.5, m0=1: the grid lands exactly
        on the degenerate point V0 = 2.5, which becomes an error row."""
        path = tmp_path / "sweep.csv"
        assert main(["scatter", "--E", "1.5", "--sweep", "V0:0:4:401",
                     "--output", str(path)]) == 0
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 402
        counts = _regime_counts(text)
        assert counts == {
            "transmission": 50,
            "evanescent": 200,
            "klein_zone": 150,
            "error": 1,
        }
        error_line = [ln for ln in lines if ln.endswith(",error")][0]
        assert error_line.split(",")[1] == "2.5"

    def test_energy_sweep_ignores_invalid_base_energy(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        assert main(["scatter", "--E", "0.5", "--sweep", "E:1.5:2.5:3",
                     "--output", str(path)]) == 0
        counts = _regime_counts(path.read_text())
        assert counts == {"transmission": 3}

    def test_mass_sweep_flags_subthreshold_rows(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        assert main(["scatter", "--E", "2", "--V0", "0.5",
                     "--sweep", "m0:0.5:3:6", "--output", str(path)]) == 0
        counts = _regime_counts(path.read_text())
        assert counts["error"] == 3  # m0 = 2, 2.5, 3 violate E > m0
        assert sum(counts.values()) == 6

    def test_json_sweep(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        assert main(["scatter", "--E", "1.5", "--sweep", "V0:0:4:5",
                     "--output", str(path), "--format", "json"]) == 0
        data = json.loads(path.read_text())
        assert [row["regime"] for row in data] == [
            "transmission", "evanescent", "evanescent", "klein_zone", "klein_zone",
        ]

    def test_svg_sweep_is_deterministic_and_marks_klein_threshold(self, tmp_path, capsys):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        argv = ["scatter", "--E", "1.5", "--sweep", "V0:0:4:81", "--format", "svg"]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        svg = a.read_text()
        assert svg.count("<polyline") == 2
        assert 'stroke-dasharray="4,3"' in svg
        assert "V0 = E + m0" in svg

    def test_failed_writer_leaves_the_target_unchanged(self, tmp_path, monkeypatch, capsys):
        """The writer streams into a temp file beside the target; when it
        raises part way, the temp file goes and the target keeps its bytes."""
        path = tmp_path / "sweep.csv"
        path.write_text("previous run\n")
        partial = CSV_HEADER + "\n1.5,0,1,vector,"
        temps = []

        def failing_writer(table, stream):
            stream.write(partial)
            stream.flush()
            temps.extend(p for p in tmp_path.iterdir() if p.read_text() == partial)
            raise OSError("disk full")

        monkeypatch.setattr(scattering, "sweep_to_csv", failing_writer)
        assert main(["scatter", "--E", "1.5", "--sweep", "V0:0:4:5",
                     "--output", str(path)]) == 2
        assert "disk full" in capsys.readouterr().err
        (temp,) = temps
        assert temp.name.startswith(".tmp-diracstep-")
        assert not temp.exists()
        assert path.read_text() == "previous run\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]

    def test_malformed_sweep_exits_2(self, capsys):
        assert main(["scatter", "--E", "2", "--sweep", "V0:0:4"]) == 2
        assert main(["scatter", "--E", "2", "--sweep", "Q:0:4:5"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flag,value,spec", [
        ("--m0", "0", "m0:0.5:1.5:3"),
        ("--m0", "-1", "m0:0.5:1.5:3"),
        ("--m0", "nan", "m0:0.5:1.5:3"),
        ("--E", "inf", "E:1.5:2.5:3"),
        ("--E", "nan", "E:1.5:2.5:3"),
        ("--V0", "nan", "V0:0:4:3"),
    ])
    def test_swept_flag_is_not_read(self, flag, value, spec, capsys):
        """The flag on the swept axis does not count, whatever its value:
        the run prints what it prints with a valid value there."""
        valid = {"--E": "2", "--V0": "0.5", "--m0": "1"}
        outputs = []
        for flags in (valid, {**valid, flag: value}):
            argv = ["scatter", "--sweep", spec] + [x for item in flags.items() for x in item]
            assert main(argv) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert "error" not in outputs[0].out

    def test_sweep_without_an_answer_exits_2(self, tmp_path, capsys):
        """A sweep none of whose points has an answer is refused with its
        first point's message, as a single point is, and writes nothing."""
        path = tmp_path / "f.csv"
        assert main(["scatter", "--E", "2", "--sweep", "m0:2:3:5",
                     "--output", str(path)]) == 2
        message = scattering.SweepTable(2.0, 0.0, 2.0, "vector")[0].error
        assert "below threshold" in message
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_failing_forked_render_leaves_no_output(self, tmp_path, monkeypatch, capsys,
                                                    watchdog):
        """A render that raises on the forked child's rows raises as one
        process would, with no output file, no temp file and no child left."""
        def message(self, E, V0, m0):
            raise RuntimeError("render failed")

        monkeypatch.setattr(scattering.SweepTable, "_error_message", message)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(scattering, "_CGROUP", "/nonexistent")
        path = tmp_path / "sweep.json"
        rows = 2 * scattering._FORK_ROWS + 1
        # the 0/0 row at V0 = 2.5 is in the child's half
        with pytest.raises(RuntimeError, match="^render failed$"):
            main(["scatter", "--E", "1.5", "--sweep", f"V0:0:4:{rows}", "--format", "json",
                  "--output", str(path)])
        assert len(watchdog) == 1
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failed_forked_child_gives_the_one_process_output(self, tmp_path, monkeypatch,
                                                              capsys, watchdog):
        """A child killed before it hands back its rows leaves them to the
        command, whose file is the one a single process writes."""
        rows = 2 * scattering._FORK_ROWS + 1
        # JSON asks the 0/0 row, in the child's half, for its message
        argv = ["scatter", "--E", "1.5", "--sweep", f"V0:0:4:{rows}", "--format", "json",
                "--output"]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main(argv + [str(tmp_path / "one.json")]) == 0
        parent = os.getpid()
        real_message = scattering.SweepTable._error_message

        def message(self, E, V0, m0):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_message(self, E, V0, m0)

        monkeypatch.setattr(scattering.SweepTable, "_error_message", message)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(scattering, "_CGROUP", "/nonexistent")
        assert main(argv + [str(tmp_path / "forked.json")]) == 0
        assert len(watchdog) == 1
        assert capsys.readouterr() == ("", "")
        assert (tmp_path / "forked.json").read_bytes() == (tmp_path / "one.json").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["forked.json", "one.json"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_holds_the_bytes_of_the_output_file(self, fmt, tmp_path, capsys):
        """Without --output a sweep streams to stdout exactly what the file
        would hold; the grid includes the 0/0 error row at V0 = 2.5."""
        argv = ["scatter", "--E", "1.5", "--sweep", "V0:0:4:41", "--format", fmt]
        path = tmp_path / f"sweep.{fmt}"
        assert main(argv + ["--output", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.encode() == path.read_bytes()
        assert "error" in out


class TestEvolve:
    def test_free_packet_fully_crosses(self, capsys):
        """With no step, a right-moving packet ends up entirely on the right."""
        assert main(["evolve", "--V0", "0", "--steps", "2000"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["p_right_final"] >= 0.999
        assert summary["norm_drift"] <= 1e-10
        assert abs(summary["analytic_t"] - 1.0) <= 1e-14

    def test_csv_output_and_summary_on_stdout_only(self, tmp_path, capsys):
        path = tmp_path / "obs.csv"
        assert main(["evolve", "--V0", "1", "--grid-n", "512",
                     "--domain-l", "100", "--sigma", "4", "--steps", "50",
                     "--record-every", "10", "--output", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == OBSERVABLES_CSV_HEADER
        assert len(lines) == 7  # header + records at 0,10,20,30,40,50
        assert [p.name for p in tmp_path.iterdir()] == ["obs.csv"]  # no summary file
        summary = json.loads(capsys.readouterr().out)
        assert {"p_left_final", "p_right_final", "norm_drift",
                "analytic_r", "analytic_t"} <= set(summary)

    def test_snapshots_written_at_record_points(self, tmp_path, capsys):
        path = tmp_path / "obs.csv"
        assert main(["evolve", "--V0", "0", "--grid-n", "512",
                     "--domain-l", "100", "--sigma", "4", "--steps", "100",
                     "--record-every", "50", "--snapshots",
                     "--output", str(path)]) == 0
        capsys.readouterr()
        names = sorted(p.name for p in tmp_path.glob("snapshot_*.csv"))
        assert names == [
            "snapshot_0000000.csv", "snapshot_0000050.csv", "snapshot_0000100.csv",
        ]
        first = (tmp_path / names[0]).read_text().splitlines()
        assert first[0] == SNAPSHOT_CSV_HEADER
        assert len(first) == 513

    def test_svg_output(self, tmp_path, capsys):
        path = tmp_path / "obs.svg"
        assert main(["evolve", "--V0", "0", "--grid-n", "512",
                     "--domain-l", "100", "--sigma", "4", "--steps", "50",
                     "--format", "svg", "--output", str(path)]) == 0
        capsys.readouterr()
        svg = path.read_text()
        assert svg.count("<polyline") == 3  # p_left, p_right, norm

    def test_zero_step_splits_at_x_step(self, tmp_path, capsys):
        """With V0 = 0 the split still sits at --x-step: a step put at the
        packet's centre halves the probability at the first record."""
        path = tmp_path / "obs.csv"
        assert main(["evolve", "--V0", "0", "--x-step", "-50", "--grid-n", "256",
                     "--steps", "10", "--output", str(path)]) == 0
        capsys.readouterr()
        first = dict(zip(OBSERVABLES_CSV_HEADER.split(","),
                         map(float, path.read_text().splitlines()[1].split(","))))
        assert abs(first["p_left"] - 0.5) <= 0.05
        assert first["current"] > 0.01

    @pytest.mark.parametrize("argv", [
        ["--m0", "0"], ["--m0", "0", "--coupling", "scalar"],
    ])
    def test_summary_without_closed_form_omits_the_reference(self, argv, tmp_path, capsys):
        """A massless run has no closed-form reference: it still runs and
        writes its records, and the summary has no analytic_*."""
        path = tmp_path / "obs.csv"
        assert main(["evolve", "--grid-n", "256", "--steps", "10", "--output", str(path)]
                    + argv) == 0
        summary = json.loads(capsys.readouterr().out)
        assert set(summary) == {"p_left_final", "p_right_final", "norm_drift"}
        assert summary["norm_drift"] <= 1e-12
        assert len(path.read_text().splitlines()) == 3  # header + records at 0, 10

    @pytest.mark.parametrize("V0", ["0.5", "3"], ids=["transmission", "evanescent"])
    def test_pseudoscalar_packet_follows_the_closed_form(self, V0, capsys):
        """The CLI-default sigma_y run carries the closed-form reference, and
        its packet transmits what the closed form says: within 1e-3 of t at
        V0 = 0.5 (1.5e-4 measured), nothing at V0 = 3, where E^2 < m0^2 + V0^2
        (5e-14 measured)."""
        assert main(["evolve", "--coupling", "pseudoscalar", "--V0", V0]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        summary = json.loads(captured.out)
        if V0 == "3":
            assert summary["analytic_t"] == 0.0
            assert summary["p_right_final"] <= 1e-10
        else:
            assert abs(summary["p_right_final"] - summary["analytic_t"]) <= 1e-3

    @pytest.mark.parametrize("argv", [
        ["--V0", "0.5", "--Ec", "2", "--steps", "6000"],  # forward front at 215 > 100
        ["--V0", "4", "--Ec", "2", "--x-step", "-30"],     # reflected front at -135 < -100
    ], ids=["forward", "reflected"])
    def test_run_that_can_cross_the_periodic_edge_warns(self, argv, capsys):
        assert main(["evolve"] + argv) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("warning:") and "periodic edge" in captured.err
        summary = json.loads(captured.out)
        assert summary["wrapped"] is True
        if argv[-1] == "6000":
            # what the flag is for: the wrapped packet reads as reflected
            assert summary["p_right_final"] < 0.1 < 0.9 < summary["analytic_t"]

    @pytest.mark.parametrize("argv", [
        ["--coupling", "vector", "--V0", "4", "--Ec", "2"],  # README: forward front at 75
        ["--V0", "0.5", "--x-step", "-150", "--grid-n", "256", "--steps", "10"],  # no step inside
    ], ids=["readme", "step-left-of-domain"])
    def test_run_inside_the_domain_does_not_warn(self, argv, capsys):
        assert main(["evolve"] + argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "wrapped" not in json.loads(captured.out)

    def test_step_behind_the_packet_does_not_warn(self, capsys):
        """A step left of the packet reflects nothing: the packet never
        meets it, and p_left stays below 1e-15."""
        assert main(["evolve", "--x-step", "-90", "--V0", "0.5", "--steps", "100",
                     "--grid-n", "256"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        summary = json.loads(captured.out)
        assert "wrapped" not in summary and summary["p_left_final"] < 1e-15

    def test_packet_on_a_scalar_plateau_warns(self, tmp_path, capsys):
        """A free positive-energy packet on a scalar plateau has negative-energy
        parts, which move left: by t = 100 about 3% of the probability leaves
        through x = -100 and comes back in at x >= 60.  On a vector plateau
        nothing does, and that run does not warn."""
        base = ["evolve", "--V0", "2", "--x-step", "-150", "--grid-n", "512",
                "--record-every", "2500", "--snapshots"]
        wrapped_in = {}
        for coupling in ("scalar", "vector"):
            path = tmp_path / coupling / "obs.csv"
            path.parent.mkdir()
            assert main(base + ["--coupling", coupling, "--output", str(path)]) == 0
            captured = capsys.readouterr()
            warned = captured.err.startswith("warning:") and "periodic edge" in captured.err
            assert warned == (coupling == "scalar")
            assert json.loads(captured.out).get("wrapped", False) == warned
            data = np.loadtxt(path.parent / "snapshot_0002500.csv", delimiter=",", skiprows=1)
            density = (data[:, 1:] ** 2).sum(axis=1)
            dx = data[1, 0] - data[0, 0]
            wrapped_in[coupling] = density[data[:, 0] >= 60].sum() * dx
        assert wrapped_in["scalar"] > 0.02
        assert wrapped_in["vector"] < 1e-4

    def test_run_whose_waves_pass_the_grid_limit_warns(self, capsys):
        """Past a vector step of 100 the wavenumber reaches |Ec - V0| = 98,
        and the default grid carries k up to pi/dx ~ 32: the packet leaves
        next to nothing on the right, where the flux-signed Klein value is
        about 0.93.  At V0 = 20 (k up to 18) the run is resolved, and so is
        a run whose packet never meets the step."""
        assert main(["evolve", "--V0", "100", "--Ec", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("warning:") and "pi/dx" in captured.err
        summary = json.loads(captured.out)
        assert summary["unresolved"] is True and summary["p_right_final"] < 1e-6
        for argv in (["--V0", "20"],
                     ["--V0", "100", "--steps", "100"],  # front at x = -21 by t = 4
                     ["--V0", "100", "--x-step", "-90", "--steps", "100"]):  # step behind
            assert main(["evolve", "--Ec", "2"] + argv) == 0
            captured = capsys.readouterr()
            assert captured.err == "" and "unresolved" not in json.loads(captured.out)

    @pytest.mark.parametrize("argv,categories,flags", [
        (["--V0", "0.5", "--Ec", "2", "--steps", "6000"], [dynamics.WrappedWarning],
         {"wrapped"}),
        # the grid cannot carry the transmitted wave, and what it makes of it
        # reaches the edge bands
        (["--V0", "100", "--Ec", "2"], [dynamics.WrappedWarning, dynamics.UnresolvedWarning],
         {"wrapped", "unresolved"}),
        (["--V0", "0.5", "--dt", "0.5", "--grid-n", "256", "--steps", "10"], [UserWarning],
         set()),
    ], ids=["forward", "V0-100", "large-dt"])
    def test_flags_are_the_warnings_evolve_raises(self, argv, categories, flags,
                                                  monkeypatch, capsys):
        """The library run raises the warnings the CLI prints, one warning:
        line each; the two trust warnings set the summary keys."""
        runs = []

        def spy(*args, **kwargs):
            runs.append((args, kwargs))
            return evolve(*args, **kwargs)

        evolve = dynamics.evolve
        monkeypatch.setattr(dynamics, "evolve", spy)
        assert main(["evolve"] + argv) == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert {key for key in ("wrapped", "unresolved") if key in summary} == flags
        assert all(summary[key] is True for key in flags)
        ((args, kwargs),) = runs
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evolve(*args, **kwargs)
        assert [w.category for w in caught] == categories
        assert captured.err.splitlines() == [f"warning: {w.message}" for w in caught]

    def test_overflowing_reference_is_omitted(self, capsys):
        """At V0 = 1e200 the closed form overflows: the summary has no
        analytic_* rather than a NaN, and stays strict JSON."""
        assert main(["evolve", "--V0", "1e200", "--grid-n", "256", "--steps", "10"]) == 0

        def refuse(constant):
            raise ValueError(f"not JSON: {constant}")

        summary = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert set(summary) == {"p_left_final", "p_right_final", "norm_drift"}

    def test_config_file_with_flag_precedence(self, tmp_path, capsys):
        """Config supplies a Klein-zone setup; an explicit --steps flag must
        beat the config value."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "V0": 4.0, "Ec": 2.0, "coupling": "vector",
            "grid_n": 512, "domain_l": 100.0, "sigma": 4.0,
            "steps": 200, "record_every": 50,
            "output": str(tmp_path / "klein.csv"),
        }))
        assert main(["evolve", "--config", str(cfg), "--steps", "100"]) == 0
        summary = json.loads(capsys.readouterr().out)
        # plane-wave reference at E=2, V0=4, m0=1: r=4, t=-3
        assert abs(summary["analytic_r"] - 4.0) <= 1e-12
        assert abs(summary["analytic_t"] + 3.0) <= 1e-12
        lines = (tmp_path / "klein.csv").read_text().splitlines()
        assert len(lines) == 4  # records at 0,50,100 — flag won over config

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"V0": 1.0, "bogus": 3}))
        assert main(["evolve", "--config", str(cfg)]) == 2
        assert "unknown config keys: bogus" in capsys.readouterr().err

    def test_energy_has_one_flag(self, capsys):
        """The packet is set by its energy alone: a wavenumber flag is unknown."""
        with pytest.raises(SystemExit) as exc:
            main(["evolve", "--kc", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --kc 1" in capsys.readouterr().err

    def test_subthreshold_central_energy_exits_2(self, capsys):
        assert main(["evolve", "--Ec", "0.5"]) == 2
        assert "Ec > m0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--V0", "nan"], ["--V0", "inf"], ["--sigma", "nan"], ["--x-c", "nan"],
        ["--smoothing", "nan"], ["--dt", "inf"], ["--domain-l", "inf"],
    ])
    def test_non_finite_input_exits_2(self, argv, capsys):
        assert main(["evolve", "--grid-n", "256", "--steps", "10"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "finite" in captured.err

    @pytest.mark.parametrize("fmt", ["json", "svg"])
    @pytest.mark.parametrize("from_config", [False, True])
    def test_format_without_output_exits_2(self, fmt, from_config, tmp_path, capsys):
        """json and svg go only to a file, so without --output they are
        refused before the run starts; stdout stays empty."""
        argv = ["evolve", "--grid-n", "256", "--steps", "10"]
        if from_config:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"format": fmt}))
            argv += ["--config", str(cfg)]
        else:
            argv += ["--format", fmt]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "--output" in captured.err

    def test_explicit_csv_format_prints_the_summary(self, capsys):
        argv = ["evolve", "--grid-n", "256", "--steps", "10"]
        assert main(argv) == 0
        default = capsys.readouterr()
        assert main(argv + ["--format", "csv"]) == 0
        assert capsys.readouterr() == default

    def test_floating_point_abort_exits_1(self, monkeypatch, capsys):
        def evolve(*args, **kwargs):
            raise FloatingPointError("field went non-finite at step 3")

        monkeypatch.setattr(dynamics, "evolve", evolve)
        assert main(["evolve", "--grid-n", "256", "--steps", "10"]) == 1
        assert capsys.readouterr() == ("", "aborted: field went non-finite at step 3\n")

    def test_output_format_from_config_file(self, tmp_path, capsys):
        """format and output are read from the config file when no flag
        gives them; an --output flag leaves the config's format in force."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "grid_n": 512, "domain_l": 100.0, "sigma": 4.0, "steps": 20,
            "record_every": 10, "format": "json",
            "output": str(tmp_path / "from_config.json"),
        }))
        assert main(["evolve", "--config", str(cfg)]) == 0
        data = json.loads((tmp_path / "from_config.json").read_text())
        assert [rec["step"] for rec in data["records"]] == [0, 10, 20]
        flag_path = tmp_path / "from_flag.json"
        assert main(["evolve", "--config", str(cfg), "--output", str(flag_path)]) == 0
        assert json.loads(flag_path.read_text())["records"] == data["records"]
        capsys.readouterr()


def test_artifacts_get_the_mode_a_plain_open_gives(tmp_path, capsys):
    """Under umask 022 every file the CLI writes is 0644: an --output file,
    a snapshot and an --emit-json file."""
    previous = os.umask(0o022)
    try:
        assert main(["scatter", "--E", "1.5", "--sweep", "V0:0:4:5",
                     "--output", str(tmp_path / "sweep.csv")]) == 0
        assert main(["evolve", "--grid-n", "256", "--steps", "10", "--snapshots",
                     "--output", str(tmp_path / "obs.csv")]) == 0
        assert main(["algebra", "--n", "3", "--emit-json", str(tmp_path / "rep.json")]) == 0
    finally:
        os.umask(previous)
    capsys.readouterr()
    names = ["sweep.csv", "obs.csv", "snapshot_0000000.csv",
             "snapshot_0000010.csv", "rep.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()} == \
        dict.fromkeys(names, 0o644)


_ARTIFACT_ARGVS = {
    "sweep": ["scatter", "--E", "2", "--sweep", "V0:0:4:3", "--output"],
    "point": ["scatter", "--E", "1.5", "--V0", "3", "--format", "json", "--output"],
    "evolve": ["evolve", "--grid-n", "256", "--steps", "10", "--output"],
    "algebra": ["algebra", "--n", "3", "--emit-json"],
}


@pytest.mark.parametrize("command,into", [
    *((command, "missing") for command in _ARTIFACT_ARGVS),
    *((command, "directory") for command in _ARTIFACT_ARGVS),
], ids=[*_ARTIFACT_ARGVS, *(f"{command}-directory" for command in _ARTIFACT_ARGVS)])
def test_an_artifact_that_cannot_be_opened_names_the_users_path(command, into, tmp_path,
                                                                capsys):
    """The error names the path given on the command line, not the temp
    file written beside it: whether the temp file cannot be opened (its
    directory is missing) or cannot replace the path (an existing
    directory).  Nothing is left beside the path."""
    missing = into == "missing"
    path = tmp_path / "missing" / "out.file" if missing else tmp_path / "out.file"
    if not missing:
        path.mkdir()
    assert main(_ARTIFACT_ARGVS[command] + [str(path)]) == 2
    err = capsys.readouterr().err
    code = errno.ENOENT if missing else errno.EISDIR
    assert err.startswith(f"error: [Errno {code}] ") and f"'{path}'" in err
    assert ".tmp-diracstep" not in err
    assert list(tmp_path.rglob("*")) == ([] if missing else [path])


_SWEEP_ARGV = ["scatter", "--E", "1.5", "--sweep", "V0:0:4:5"]


def _sweep_text(capsys) -> str:
    assert main(_SWEEP_ARGV) == 0
    return capsys.readouterr().out


class TestOutputThroughLinksAndFifos:
    """--output writes the file a symlink resolves to and keeps the link,
    and writes straight through to what is not a regular file."""

    @pytest.mark.parametrize("existing", [True, False], ids=["existing", "dangling"])
    def test_a_symlink_stays_a_link_and_its_target_is_replaced(self, existing, tmp_path,
                                                               capsys, watchdog):
        expected = _sweep_text(capsys)
        folder, link = tmp_path / "sub", tmp_path / "link.csv"
        target = folder / "target.csv"
        folder.mkdir()
        if existing:
            target.write_text("stale\n")
            old_inode = target.stat().st_ino
        link.symlink_to(target)
        assert main(_SWEEP_ARGV + ["--output", str(link)]) == 0
        assert link.is_symlink() and target.read_text() == expected
        if existing:
            assert target.stat().st_ino != old_inode  # replaced, not rewritten in place
        assert [p.name for p in folder.iterdir()] == ["target.csv"]
        assert [p.name for p in tmp_path.iterdir() if p != folder] == ["link.csv"]

    def test_a_fifo_gets_the_bytes_and_stays_a_fifo(self, tmp_path, capsys, watchdog):
        expected = _sweep_text(capsys)
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        held = os.open(fifo, os.O_RDWR)  # a writer, so the read end opens at once
        received = []
        with open(fifo) as read_end:
            reader = threading.Thread(target=lambda: received.append(read_end.read()))
            reader.start()
            try:
                assert main(_SWEEP_ARGV + ["--output", str(fifo)]) == 0
            finally:
                os.close(held)  # the reader meets EOF once the CLI has closed too
                reader.join(timeout=30)
        assert not reader.is_alive() and received == [expected]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe.csv"]


class TestAlgebra:
    def test_build_and_verify_line(self, capsys):
        assert main(["algebra", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert out == "n=3 dim=4 passed=true max_deviation=0\n"

    def test_emit_and_reverify_round_trip(self, tmp_path, capsys):
        path = tmp_path / "rep.json"
        assert main(["algebra", "--n", "4", "--emit-json", str(path)]) == 0
        capsys.readouterr()
        assert main(["algebra", "--verify-json", str(path)]) == 0
        assert "n=4 dim=4 passed=true" in capsys.readouterr().out

    def test_corrupted_representation_fails_verification(self, tmp_path, capsys):
        path = tmp_path / "rep.json"
        assert main(["algebra", "--n", "2", "--emit-json", str(path)]) == 0
        capsys.readouterr()
        data = json.loads(path.read_text())
        data["alphas"][0][0][0][0] += 0.5  # real part of alpha_1[0, 0]
        path.write_text(json.dumps(data))
        assert main(["algebra", "--verify-json", str(path)]) == 1
        out = capsys.readouterr().out
        assert "passed=false" in out
        assert "failed:" in out

    def test_nonpositive_n_exits_2(self, capsys):
        assert main(["algebra", "--n", "0"]) == 2
        capsys.readouterr()

    def test_missing_n_exits_2(self, capsys):
        assert main(["algebra"]) == 2
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--output", "rep.json"), ("--format", "json")])
    def test_output_flags_exit_2(self, flag, value, tmp_path, monkeypatch, capsys):
        """--emit-json names algebra's one file: argparse knows no --output
        and no --format there."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["algebra", "--n", "3", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key", ["output", "format"])
    def test_output_config_keys_exit_2(self, key, tmp_path, capsys):
        path, cfg = tmp_path / "rep.json", tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: str(path) if key == "output" else "json"}))
        assert main(["algebra", "--n", "3", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"unknown config keys: {key}" in captured.err
        assert not path.exists()

    @pytest.mark.parametrize("text", [
        '[1, 2]',
        '{"n": 1, "dim": 2, "alphas": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]],'
        ' "beta": [[[1, 0], "10"], [[0, 0], [-1, 0]]]}',
        '{"n": 1, "dim": 2, "alphas": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]],'
        ' "beta": [[[1, 0], null], [[0, 0], [-1, 0]]]}',
        '{"n": 1, "dim": 2, "alphas": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]],'
        ' "beta": [[[1, 0], [0, 0]], [[0, 0], [NaN, 0]]]}',
        '{"n": 1, "dim": 2, "alphas": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]],'
        ' "beta": [[[true, false], [0, 0]], [[0, 0], [-1, 0]]]}',
    ])
    def test_malformed_verify_json_exits_2(self, text, tmp_path, capsys):
        path = tmp_path / "rep.json"
        path.write_text(text)
        assert main(["algebra", "--verify-json", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    def test_deeply_nested_verify_json_exits_2(self, tmp_path, capsys):
        """Nesting past the parser's recursion limit is a malformed file,
        not a traceback."""
        path = tmp_path / "rep.json"
        path.write_text(DEEP_JSON)
        assert main(["algebra", "--verify-json", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert "too deeply" in captured.err

    @pytest.mark.parametrize("tolerance", ["nan", "inf"])
    def test_non_finite_tolerance_exits_2(self, tolerance, capsys):
        assert main(["algebra", "--n", "2", "--tolerance", tolerance]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err

    @pytest.mark.parametrize("n", [1, 5, 9])
    def test_emit_json_is_the_json_dumps_text(self, n, tmp_path, capsys):
        """The --emit-json file, and its re-emit through --verify-json, is
        json.dumps(representation_to_json(rep), sort_keys=True) and a newline."""
        rep = algebra.build_representation(n)
        expected = json.dumps(algebra.representation_to_json(rep), sort_keys=True) + "\n"
        path, again = tmp_path / "rep.json", tmp_path / "again.json"
        assert main(["algebra", "--n", str(n), "--emit-json", str(path)]) == 0
        assert path.read_text() == expected
        assert main(["algebra", "--verify-json", str(path), "--emit-json", str(again)]) == 0
        assert again.read_text() == expected
        capsys.readouterr()

    @pytest.mark.parametrize("from_config", [False, True])
    def test_n_with_verify_json_exits_2(self, from_config, tmp_path, capsys):
        """--n would be ignored by a --verify-json run, so the pair is refused,
        from flags or from a config file."""
        path, cfg = tmp_path / "rep.json", tmp_path / "cfg.json"
        assert main(["algebra", "--n", "3", "--emit-json", str(path)]) == 0
        capsys.readouterr()
        cfg.write_text(json.dumps({"n": 5} if from_config else {}))
        argv = ["algebra", "--config", str(cfg), "--verify-json", str(path)]
        assert main(argv + ([] if from_config else ["--n", "5"])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--n" in captured.err and "--verify-json" in captured.err


def _run_limited(argv: list[str]) -> subprocess.CompletedProcess:
    """python -m diracstep.cli argv in a child limited to MEMORY_LIMIT bytes,
    with one BLAS thread, whose buffers would otherwise take address space
    in proportion to the machine's cores."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))

    src = str(Path(algebra.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "diracstep.cli", *argv], env=env,
                          preexec_fn=limit, capture_output=True, text=True, timeout=120)


class TestInputPastMemory:
    """A size the process cannot allocate is an invalid parameter: one
    error line and exit 2, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["algebra", "--n", "40"],
        ["algebra", "--n", "26"],
        ["algebra", "--n", "2001"],
        ["evolve", "--grid-n", str(2 ** 40)],
        ["scatter", "--E", "1.5", "--sweep", "V0:0:4:100000000000"],
    ], ids=["algebra40", "algebra26", "algebra2001", "evolve", "scatter"])
    def test_exits_2_with_one_error_line(self, argv):
        run = _run_limited(argv)
        assert run.returncode == 2, run.stderr
        assert run.stdout == ""
        assert run.stderr.startswith("error:") and run.stderr.count("\n") == 1

    @pytest.mark.parametrize("n", [53, 54, 126, 2001])
    def test_algebra_past_array_size_names_n(self, n):
        """Past the bytes one numpy array can index the refusal is the
        builder's own, naming n and the dimension 2^ceil(n/2), not numpy's."""
        run = _run_limited(["algebra", "--n", str(n)])
        assert run.returncode == 2, run.stderr
        assert run.stdout == ""
        assert run.stderr == (f"error: spatial dimension n = {n} needs {n + 1} matrices of "
                              f"dimension 2^{(n + 1) // 2}, more bytes than one array can hold\n")

    @pytest.mark.parametrize("n", [50, 52])
    def test_algebra_below_array_size_runs_out_of_memory(self, n):
        """Below that bound a set too large to hold keeps the MemoryError path."""
        run = _run_limited(["algebra", "--n", str(n)])
        assert run.returncode == 2, run.stderr
        assert run.stderr.startswith("error: Unable to allocate")

    def test_memory_error_without_a_message(self, monkeypatch, capsys):
        def build(n):
            raise MemoryError

        monkeypatch.setattr(algebra, "build_representation", build)
        assert main(["algebra", "--n", "3"]) == 2
        assert capsys.readouterr() == ("", "error: out of memory\n")


class TestConfigFile:
    """Config values are the subcommand's defaults, checked as flags are."""

    @pytest.mark.parametrize("command, values", [
        ("scatter", {"E": 1.5, "sweep": "V0:0:4:5"}),
        ("evolve", {"grid_n": 256, "steps": 10}),
    ])
    def test_config_format_outside_choices_exits_2(self, command, values, tmp_path, capsys):
        out = tmp_path / "out.xml"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(dict(values, format="xml", output=str(out))))
        assert main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "'xml'" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[1]", "1.5", '"E"', "null"])
    def test_config_that_is_not_an_object_exits_2(self, text, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["scatter", "--config", str(cfg)]) == 2
        assert capsys.readouterr() == (
            "", f"error: config file {cfg} must hold a JSON object\n")

    def test_deeply_nested_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(DEEP_JSON)
        assert main(["scatter", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert "too deeply" in captured.err

    def test_config_null_for_defaulted_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"E": 1.5, "V0": None}))
        assert main(["scatter", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "V0" in captured.err

    def test_config_value_that_does_not_convert_exits_2(self, tmp_path, capsys):
        """Config values are parser defaults, so argparse converts them with
        the flag's type and stops with its usage line when it cannot."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"steps": "ten"}))
        with pytest.raises(SystemExit) as exc:
            main(["evolve", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, values, first_line, message", [
        ("evolve", {"steps": 2.9}, "usage:", "invalid int value: '2.9'"),
        ("algebra", {"n": 3.7}, "usage:", "invalid int value: '3.7'"),
        ("evolve", {"steps": True}, "error:", "steps must be a number or a string"),
        ("evolve", {"snapshots": "no"}, "error:", "snapshots must be true or false"),
        ("scatter", {"E": 1.5, "V0": [1]}, "error:", "V0 must be a number or a string"),
        ("scatter", {"E": 1.5, "sweep": 5}, "error:", "sweep must look like"),
    ])
    def test_config_value_its_flag_would_refuse_exits_2(self, command, values, first_line,
                                                        message, tmp_path, monkeypatch,
                                                        capsys):
        """A config value is converted by its flag's own type, so a value the
        flag would refuse is refused, never truncated, taken as truthy or let
        through to a traceback."""
        monkeypatch.chdir(tmp_path)  # where a snapshot run would write
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        argv = [command, "--config", str(cfg)]
        argv += ["--grid-n", "256"] if command == "evolve" else []
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(first_line) and message in captured.err
        assert not list(tmp_path.glob("snapshot_*.csv"))

    def test_config_switch_takes_a_boolean(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"snapshots": True, "grid_n": 256, "steps": 10,
                                   "output": str(tmp_path / "obs.csv")}))
        assert main(["evolve", "--config", str(cfg)]) == 0
        capsys.readouterr()
        names = sorted(p.name for p in tmp_path.glob("snapshot_*.csv"))
        assert names == ["snapshot_0000000.csv", "snapshot_0000010.csv"]

    def test_config_integer_for_a_float_flag(self, tmp_path, capsys):
        argv = ["evolve", "--grid-n", "256", "--steps", "10"]
        assert main(argv + ["--V0", "3"]) == 0
        expected = capsys.readouterr().out
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"V0": 3}))
        assert main(argv + ["--config", str(cfg)]) == 0
        assert capsys.readouterr().out == expected

    def test_config_null_stands_only_for_a_default_of_none(self, tmp_path, capsys):
        """null stands for the packet center's computed default; the central
        energy has a default of its own, so a null for it is refused."""
        argv = ["evolve", "--grid-n", "256", "--steps", "10"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"x_c": None}))
        assert main(argv + ["--config", str(cfg)]) == 0
        assert capsys.readouterr().out == default
        cfg.write_text(json.dumps({"Ec": None}))
        assert main(argv + ["--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: config key Ec must be a number or a string, got null\n"


@pytest.mark.parametrize("command", ["scatter", "evolve", "algebra"])
def test_help_shows_defaults(command, capsys):
    """Every default a flag declares appears in its help line."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    defaults = vars(_build_parser()[1][command].parse_args([]))
    shown = {key: value for key, value in defaults.items()
             if value is not None and value is not False}
    assert shown
    for key, value in shown.items():
        assert f"(default: {value}" in text, key
