"""Tests for the deterministic SVG renderer."""

import hashlib
import math
import re

import pytest

from diracstep.cli import main
from diracstep import svgplot
from diracstep.svgplot import PlotSpec, render_svg


def _data(n=20):
    x = [i * 0.5 for i in range(n)]
    return x, {"f": [math.sin(v) for v in x], "g": [math.cos(v) for v in x]}


def test_output_is_deterministic():
    spec = PlotSpec(title="waves")
    assert render_svg(*_data(), spec) == render_svg(*_data(), spec)


def test_basic_structure():
    spec = PlotSpec(title="waves", x_label="x", y_label="amplitude")
    svg = render_svg(*_data(), spec)
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert svg.endswith("</svg>\n")
    assert svg.count("<polyline") == 2
    assert 'stroke="#1f77b4"' in svg
    assert 'stroke="#d62728"' in svg
    assert ">waves</text>" in svg
    assert ">amplitude</text>" in svg


def test_two_point_series():
    svg = render_svg([0.0, 1.0], {"y": [1.0, 2.0]}, PlotSpec())
    assert svg.count("<polyline") == 1


def test_vline_drawn_when_in_range():
    x, series = _data()
    spec = PlotSpec(vlines=((3.0, "marker"),))
    svg = render_svg(x, {"f": series["f"]}, spec)
    assert 'stroke-dasharray="4,3"' in svg
    assert ">marker</text>" in svg


def test_vline_skipped_when_out_of_range():
    x, series = _data()
    spec = PlotSpec(vlines=((99.0, "marker"),))
    svg = render_svg(x, {"f": series["f"]}, spec)
    assert "stroke-dasharray" not in svg
    assert "marker" not in svg


def test_nonfinite_points_are_dropped():
    x, series = _data()
    f = series["f"]
    f[5] = float("nan")
    f[7] = float("inf")
    svg = render_svg(x, {"f": f}, PlotSpec())
    polyline = [ln for ln in svg.splitlines() if ln.startswith("<polyline")][0]
    assert polyline.count(",") == len(x) - 2
    assert "nan" not in svg and "inf" not in svg


@pytest.mark.parametrize("bad_x", [float("inf"), float("-inf"), float("nan")])
def test_nonfinite_x_rows_are_dropped(bad_x):
    """Rows with a non-finite x in the first, a middle and the last place
    render exactly as the plot without them."""
    x, series = _data()
    spec = PlotSpec(vlines=((3.0, "marker"),))

    def without(values):
        return values[1:10] + values[11:19]

    expected = render_svg(without(x), {k: without(v) for k, v in series.items()}, spec)
    for i in (0, 10, 19):
        x[i] = bad_x
    assert render_svg(x, series, spec) == expected


def test_length_mismatch_raises():
    x, series = _data()
    with pytest.raises(ValueError, match="'g' has 19 values for 20 x values"):
        render_svg(x, {"f": series["f"], "g": series["g"][:-1]}, PlotSpec())


def test_too_few_rows_raises():
    x, series = _data(1)
    with pytest.raises(ValueError, match="at least 2 rows"):
        render_svg(x, series, PlotSpec())


def test_all_nan_column_raises():
    with pytest.raises(ValueError, match="finite"):
        render_svg([0.0, 1.0], {"y": [float("nan"), float("nan")]}, PlotSpec())


def test_spec_validation():
    x, _ = _data()
    with pytest.raises(ValueError, match="at least one series"):
        render_svg(x, {}, PlotSpec())


def test_title_is_escaped():
    x, series = _data()
    svg = render_svg(x, {"f": series["f"]}, PlotSpec(title="a < b & c"))
    assert "a &lt; b &amp; c" in svg
    assert "a < b" not in svg


def test_tick_labels_for_unit_range():
    x = [float(i) for i in range(11)]
    svg = render_svg(x, {"y": x}, PlotSpec())
    for label in ("0", "2", "4", "6", "8", "10"):
        assert f">{label}</text>" in svg


def test_constant_series_gets_padded_range():
    svg = render_svg([float(i) for i in range(5)], {"y": [1.0] * 5}, PlotSpec())
    assert svg.count("<polyline") == 1


def test_constant_x_gets_padded_range():
    """With every x equal the axis spans x +- 0.5 and the curve stands at its
    middle."""
    svg = render_svg([1.0] * 3, {"y": [0.0, 1.0, 2.0]}, PlotSpec())
    (points,) = re.findall(r'points="([^"]*)"', svg)
    plot_w = svgplot._WIDTH - svgplot._MARGIN_LEFT - svgplot._MARGIN_RIGHT
    middle = "%.2f" % (svgplot._MARGIN_LEFT + plot_w / 2)
    assert [point.split(",")[0] for point in points.split()] == [middle] * 3
    assert ">0.6</text>" in svg and ">1.4</text>" in svg


@pytest.mark.parametrize("argv, digest", [
    (["scatter", "--E", "1.5", "--sweep", "V0:0:4:401"],
     "b29d22901f0d1e5c5477bf533a97975dbaf5f95e785fb621a8785de27cd9489d"),
    # 21 rows below threshold (E <= m0) and the 0/0 point E = V0 - m0
    (["scatter", "--E", "2", "--V0", "2.5", "--sweep", "E:0:3:61"],
     "74b96e6fd36713bda9f9c98a0d62a95c2e3fdf725a0b9c5d419047ecca8463b1"),
    (["evolve", "--V0", "0.5", "--grid-n", "512", "--domain-l", "100", "--sigma", "4",
      "--steps", "1000", "--record-every", "20"],
     "7de4b7ffbfaa49fa7ee5e6b94c84beb5b222d01a7be8c3bcf1cfd4b0b9db8a7d"),
])
def test_cli_plots_are_byte_stable(argv, digest, tmp_path, capsys):
    """The plots the CLI draws keep their exact bytes."""
    path = tmp_path / "plot.svg"
    assert main(argv + ["--format", "svg", "--output", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
