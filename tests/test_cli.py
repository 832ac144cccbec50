"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from diracstep.cli import main
from diracstep.dynamics import OBSERVABLES_CSV_HEADER, SNAPSHOT_CSV_HEADER
from diracstep.scattering import CSV_HEADER, ScatteringQuery, amplitudes


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
        assert data["regime"] == "klein_zone"
        assert abs(data["r"] - 2.25) <= 1e-14
        assert abs(data["t"] + 1.25) <= 1e-14

    @pytest.mark.parametrize("argv", [
        ["--E", "1.5", "--V0", "nan"],
        ["--E", "1.5", "--V0", "inf"],
        ["--E", "inf"],
        ["--E", "1.5", "--sweep", "V0:0:inf:5"],
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
        assert json_path.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_svg_without_sweep_exits_2(self, tmp_path, capsys):
        path = tmp_path / "one.svg"
        assert main(["scatter", "--E", "2", "--output", str(path),
                     "--format", "svg"]) == 2
        assert "sweep" in capsys.readouterr().err


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

    def test_malformed_sweep_exits_2(self, capsys):
        assert main(["scatter", "--E", "2", "--sweep", "V0:0:4"]) == 2
        assert main(["scatter", "--E", "2", "--sweep", "Q:0:4:5"]) == 2
        capsys.readouterr()


class TestEvolve:
    def test_free_packet_fully_crosses(self, capsys):
        """With no step, a right-moving packet ends up entirely on the right."""
        assert main(["evolve", "--V0", "0", "--steps", "2000"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["p_right_final"] >= 0.999
        assert summary["norm_drift"] <= 1e-10
        assert abs(summary["analytic_t"] - 1.0) <= 1e-14

    def test_csv_output_and_summary_sidecar(self, tmp_path, capsys):
        path = tmp_path / "obs.csv"
        assert main(["evolve", "--V0", "1", "--grid-n", "512",
                     "--domain-l", "100", "--sigma", "4", "--steps", "50",
                     "--record-every", "10", "--output", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == OBSERVABLES_CSV_HEADER
        assert len(lines) == 7  # header + records at 0,10,20,30,40,50
        sidecar = json.loads((tmp_path / "obs.csv.summary.json").read_text())
        stdout_summary = json.loads(capsys.readouterr().out)
        assert sidecar == stdout_summary
        assert {"p_left_final", "p_right_final", "norm_drift",
                "analytic_r", "analytic_t"} <= set(sidecar)

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

    def test_energy_flags_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evolve", "--Ec", "2", "--kc", "1.7"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_subthreshold_central_energy_exits_2(self, capsys):
        assert main(["evolve", "--Ec", "0.5"]) == 2
        assert "Ec > m0" in capsys.readouterr().err


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

    def test_json_output_path(self, tmp_path, capsys):
        path = tmp_path / "rep.json"
        assert main(["algebra", "--n", "1", "--output", str(path),
                     "--format", "json"]) == 0
        capsys.readouterr()
        data = json.loads(path.read_text())
        assert data["n"] == 1 and data["dim"] == 2
