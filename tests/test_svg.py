"""Tests for the deterministic SVG renderer."""

import math

import pytest

from diracstep.svgplot import PlotSpec, render_svg


def _rows(n=20):
    return [
        {"x": i * 0.5, "f": math.sin(i * 0.5), "g": math.cos(i * 0.5)}
        for i in range(n)
    ]


def test_output_is_deterministic():
    spec = PlotSpec(x_column="x", y_columns=("f", "g"), title="waves")
    assert render_svg(_rows(), spec) == render_svg(_rows(), spec)


def test_basic_structure():
    spec = PlotSpec(x_column="x", y_columns=("f", "g"), title="waves",
                    x_label="x", y_label="amplitude")
    svg = render_svg(_rows(), spec)
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert svg.endswith("</svg>\n")
    assert svg.count("<polyline") == 2
    assert 'stroke="#1f77b4"' in svg
    assert 'stroke="#d62728"' in svg
    assert ">waves</text>" in svg
    assert ">amplitude</text>" in svg


def test_two_point_series():
    rows = [{"x": 0.0, "y": 1.0}, {"x": 1.0, "y": 2.0}]
    svg = render_svg(rows, PlotSpec(x_column="x", y_columns=("y",)))
    assert svg.count("<polyline") == 1


def test_vline_drawn_when_in_range():
    spec = PlotSpec(x_column="x", y_columns=("f",), vlines=((3.0, "marker"),))
    svg = render_svg(_rows(), spec)
    assert 'stroke-dasharray="4,3"' in svg
    assert ">marker</text>" in svg


def test_vline_skipped_when_out_of_range():
    spec = PlotSpec(x_column="x", y_columns=("f",), vlines=((99.0, "marker"),))
    svg = render_svg(_rows(), spec)
    assert "stroke-dasharray" not in svg
    assert "marker" not in svg


def test_nonfinite_points_are_dropped():
    rows = _rows()
    rows[5]["f"] = float("nan")
    rows[7]["f"] = float("inf")
    spec = PlotSpec(x_column="x", y_columns=("f",))
    svg = render_svg(rows, spec)
    polyline = [ln for ln in svg.splitlines() if ln.startswith("<polyline")][0]
    assert polyline.count(",") == len(rows) - 2
    assert "nan" not in svg and "inf" not in svg


@pytest.mark.parametrize("bad_x", [float("inf"), float("-inf"), float("nan")])
def test_nonfinite_x_rows_are_dropped(bad_x):
    """Rows with a non-finite x in the first, a middle and the last place
    render exactly as the plot without them."""
    rows = _rows()
    spec = PlotSpec(x_column="x", y_columns=("f", "g"), vlines=((3.0, "marker"),))
    expected = render_svg(rows[1:10] + rows[11:19], spec)
    for i in (0, 10, 19):
        rows[i]["x"] = bad_x
    assert render_svg(rows, spec) == expected


def test_missing_column_raises():
    spec = PlotSpec(x_column="x", y_columns=("missing",))
    with pytest.raises(ValueError, match="missing column"):
        render_svg(_rows(), spec)


def test_too_few_rows_raises():
    spec = PlotSpec(x_column="x", y_columns=("f",))
    with pytest.raises(ValueError, match="at least 2 rows"):
        render_svg(_rows(1), spec)


def test_all_nan_column_raises():
    rows = [{"x": 0.0, "y": float("nan")}, {"x": 1.0, "y": float("nan")}]
    with pytest.raises(ValueError, match="finite"):
        render_svg(rows, PlotSpec(x_column="x", y_columns=("y",)))


def test_spec_validation():
    with pytest.raises(ValueError):
        PlotSpec(x_column="x", y_columns=())
    with pytest.raises(ValueError):
        PlotSpec(x_column="x", y_columns=("y",), width=50)


def test_title_is_escaped():
    spec = PlotSpec(x_column="x", y_columns=("f",), title="a < b & c")
    svg = render_svg(_rows(), spec)
    assert "a &lt; b &amp; c" in svg
    assert "a < b" not in svg


def test_tick_labels_for_unit_range():
    rows = [{"x": float(i), "y": float(i)} for i in range(11)]
    svg = render_svg(rows, PlotSpec(x_column="x", y_columns=("y",)))
    for label in ("0", "2", "4", "6", "8", "10"):
        assert f">{label}</text>" in svg


def test_constant_series_gets_padded_range():
    rows = [{"x": float(i), "y": 1.0} for i in range(5)]
    svg = render_svg(rows, PlotSpec(x_column="x", y_columns=("y",)))
    assert svg.count("<polyline") == 1
