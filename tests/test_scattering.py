"""Tests for closed-form step scattering."""

from __future__ import annotations

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diracstep.scattering import (
    CSV_HEADER,
    Coupling,
    Regime,
    ScatteringQuery,
    SingularConfigurationError,
    SweepTable,
    _step_factor,
    amplitudes,
    classify_regime,
    coefficients,
    incident_factor,
    sweep,
    sweep_to_csv,
    sweep_to_json,
    transmitted_factor,
)

SQRT3 = math.sqrt(3.0)
SQRT5 = math.sqrt(5.0)


def test_coupling_matrices():
    assert np.array_equal(Coupling.VECTOR.matrix, np.eye(2))
    assert np.array_equal(Coupling.SCALAR.matrix, np.diag([1.0, -1.0]))
    sy = np.array([[0, -1j], [1j, 0]])
    assert np.array_equal(Coupling.PSEUDOSCALAR.matrix, sy)


class TestIncidentFactor:
    def test_hand_values(self):
        assert np.isclose(incident_factor(2.0, 1.0), SQRT3 / 3, rtol=0, atol=1e-15)
        assert np.isclose(incident_factor(1.5, 1.0), SQRT5 / 5, rtol=0, atol=1e-15)

    def test_threshold_is_zero(self):
        assert incident_factor(1.0, 1.0) == 0.0

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            m0 = rng.uniform(0.1, 3.0)
            e = m0 * (1.0 + rng.uniform(0.0, 50.0))
            a = incident_factor(e, m0)
            assert 0.0 <= a < 1.0
            # equivalent closed form sqrt((E-m0)/(E+m0))
            assert np.isclose(a, math.sqrt((e - m0) / (e + m0)), rtol=1e-13, atol=0)

    def test_rejects_below_threshold_and_bad_mass(self):
        with pytest.raises(ValueError):
            incident_factor(0.5, 1.0)
        with pytest.raises(ValueError):
            incident_factor(1.0, 0.0)
        with pytest.raises(ValueError):
            incident_factor(1.0, -1.0)


class TestTransmittedFactor:
    def test_zero_step_reduces_to_incident_bitwise(self):
        for coupling in (Coupling.VECTOR, Coupling.SCALAR):
            b = transmitted_factor(1.7, 0.0, 0.9, coupling)
            assert b == complex(incident_factor(1.7, 0.9), 0.0)

    def test_klein_zone_value(self):
        b = transmitted_factor(1.5, 3.0, 1.0, Coupling.VECTOR)
        assert b.imag == 0.0
        assert np.isclose(b.real, -SQRT5, rtol=1e-15, atol=0)

    def test_evanescent_value(self):
        b = transmitted_factor(1.5, 1.0, 1.0, Coupling.VECTOR)
        assert b.real == 0.0
        assert np.isclose(b.imag, SQRT3 / 3, rtol=1e-15, atol=0)

    def test_scalar_evanescent_value(self):
        b = transmitted_factor(1.5, 3.0, 1.0, Coupling.SCALAR)
        assert b.real == 0.0
        assert np.isclose(b.imag, math.sqrt(13.75) / 5.5, rtol=1e-15, atol=0)

    def test_rejects_pseudoscalar(self):
        with pytest.raises(ValueError, match="pseudoscalar"):
            transmitted_factor(2.0, 1.0, 1.0, Coupling.PSEUDOSCALAR)

    def test_rejects_below_threshold(self):
        with pytest.raises(ValueError):
            transmitted_factor(0.9, 1.0, 1.0, Coupling.VECTOR)

    def test_degenerate_point_is_singular(self):
        with pytest.raises(SingularConfigurationError):
            transmitted_factor(1.5, 2.5, 1.0, Coupling.VECTOR)
        with pytest.raises(SingularConfigurationError):
            transmitted_factor(1.5, -2.5, 1.0, Coupling.SCALAR)

    def test_substitution_identity_bitwise(self):
        """Scalar branch == vector branch at (E, 0, m0+V0), same floats."""
        rng = np.random.default_rng(4)
        count = 0
        while count < 1000:
            m0 = rng.uniform(0.3, 3.0)
            e = m0 * (1.0 + rng.uniform(0.05, 5.0))
            v0 = rng.uniform(-0.9 * m0, e - m0)
            if not 0.0 < m0 + v0 < e:
                continue
            count += 1
            assert transmitted_factor(e, v0, m0, Coupling.SCALAR) == \
                transmitted_factor(e, 0.0, m0 + v0, Coupling.VECTOR)

    def test_scalar_branch_is_literal_substitution_code_path(self):
        """Beyond the valid-domain identity: the scalar branch calls the
        shared kernel with (E, m0 + V0) on the whole domain, evanescent
        cases included."""
        rng = np.random.default_rng(5)
        for _ in range(1000):
            m0 = rng.uniform(0.3, 3.0)
            e = m0 * (1.0 + rng.uniform(0.05, 5.0))
            v0 = rng.uniform(-0.99 * m0, 10.0 * m0)
            assert transmitted_factor(e, v0, m0, Coupling.SCALAR) == \
                _step_factor(e, m0 + v0)


class TestQueryValidation:
    def test_coupling_string_coercion(self):
        q = ScatteringQuery(E=2.0, V0=1.0, coupling="scalar")
        assert q.coupling is Coupling.SCALAR

    def test_rejects_below_threshold(self):
        with pytest.raises(ValueError, match="E > m0"):
            ScatteringQuery(E=0.5, V0=1.0, m0=1.0)
        with pytest.raises(ValueError, match="E > m0"):
            ScatteringQuery(E=1.0, V0=1.0, m0=1.0)

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError, match="m0"):
            ScatteringQuery(E=1.0, V0=0.0, m0=-1.0)

    @pytest.mark.parametrize("field", ["E", "V0", "m0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        params = {"E": 1.5, "V0": 0.5, "m0": 1.0, field: value}
        with pytest.raises(ValueError, match="must be finite"):
            ScatteringQuery(**params)


class TestAmplitudes:
    def test_klein_zone_closed_form(self):
        res = amplitudes(ScatteringQuery(E=1.5, V0=3.0, m0=1.0))
        assert np.isclose(res.a, SQRT5 / 5, rtol=0, atol=1e-15)
        assert np.isclose(res.b.real, -SQRT5, rtol=0, atol=1e-14)
        assert abs(res.R - (-1.5)) <= 1e-14
        assert abs(res.T - (-0.5)) <= 1e-14
        assert abs(res.r - 2.25) <= 1e-14
        assert abs(res.t - (-1.25)) <= 1e-14
        assert res.regime is Regime.KLEIN_ZONE

    def test_zero_step_identity_is_exact(self):
        for coupling in (Coupling.VECTOR, Coupling.SCALAR):
            res = amplitudes(ScatteringQuery(E=1.9, V0=0.0, m0=0.7, coupling=coupling))
            assert res.R == 0.0
            assert res.T == 1.0
            assert res.r == 0.0
            assert res.t == 1.0
            assert res.regime is Regime.TRANSMISSION

    def test_evanescent_unimodular_reflection(self):
        res = amplitudes(ScatteringQuery(E=1.5, V0=1.0, m0=1.0))
        assert abs(abs(res.R) - 1.0) <= 1e-14
        assert res.t == 0.0
        assert abs(res.r - 1.0) <= 1e-14

    def test_continuity_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(2000):
            m0 = rng.uniform(0.2, 2.0)
            e = m0 * (1.0 + rng.uniform(0.01, 8.0))
            v0 = rng.uniform(-5.0 * m0, 10.0 * m0)
            coupling = Coupling.VECTOR if rng.random() < 0.5 else Coupling.SCALAR
            try:
                res = amplitudes(ScatteringQuery(E=e, V0=v0, m0=m0, coupling=coupling))
            except SingularConfigurationError:
                continue
            assert abs(1.0 + res.R - res.T) <= 1e-14 * max(1.0, abs(res.T))

    def test_unitarity_whenever_flux_flows(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            m0 = rng.uniform(0.2, 2.0)
            e = m0 * (1.0 + rng.uniform(0.01, 8.0))
            v0 = rng.uniform(-5.0 * m0, 10.0 * m0)
            coupling = Coupling.VECTOR if rng.random() < 0.5 else Coupling.SCALAR
            try:
                res = amplitudes(ScatteringQuery(E=e, V0=v0, m0=m0, coupling=coupling))
            except SingularConfigurationError:
                continue
            if res.b.real != 0.0:
                assert abs(res.r + res.t - 1.0) <= 1e-12
            else:
                assert res.t == 0.0
                assert abs(res.r - 1.0) <= 1e-12

    def test_rejects_pseudoscalar(self):
        with pytest.raises(ValueError, match="pseudoscalar"):
            amplitudes(ScatteringQuery(E=2.0, V0=1.0, coupling="pseudoscalar"))

    def test_singular_configuration_raises(self):
        with pytest.raises(SingularConfigurationError):
            amplitudes(ScatteringQuery(E=1.5, V0=2.5, m0=1.0))


class TestCoefficients:
    def test_klein_example(self):
        a, b = SQRT5 / 5, complex(-SQRT5, 0.0)
        r, t = coefficients(a, b, (a - b) / (a + b), 2 * a / (a + b))
        assert abs(r - 2.25) <= 1e-14
        assert abs(t + 1.25) <= 1e-14

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ValueError):
            coefficients(0.0, 1.0 + 0j, 0j, 1.0 + 0j)


class TestClassifyRegime:
    @pytest.mark.parametrize(
        "e,v0,m0,coupling,expected",
        [
            (1.5, 3.0, 1.0, "vector", Regime.KLEIN_ZONE),
            (1.5, 0.0, 1.0, "vector", Regime.TRANSMISSION),
            (1.5, 1.0, 1.0, "vector", Regime.EVANESCENT),
            (1.5, 0.5, 1.0, "vector", Regime.EVANESCENT),  # boundary E-V0 = m0
            (1.5, 2.5, 1.0, "vector", Regime.EVANESCENT),  # boundary V0 = E+m0
            (1.5, 3.0, 1.0, "scalar", Regime.EVANESCENT),
            (1.5, 0.2, 1.0, "scalar", Regime.TRANSMISSION),
            (1.5, 0.5, 1.0, "scalar", Regime.EVANESCENT),  # boundary E = m0+V0
            (1.5, -3.0, 1.0, "scalar", Regime.EVANESCENT),  # negative branch
            (3.0, -5.0, 1.0, "vector", Regime.TRANSMISSION),  # downhill step
        ],
    )
    def test_table(self, e, v0, m0, coupling, expected):
        q = ScatteringQuery(E=e, V0=v0, m0=m0, coupling=coupling)
        assert classify_regime(q) is expected

    def test_scalar_never_klein(self):
        rng = np.random.default_rng(8)
        for _ in range(3000):
            m0 = rng.uniform(0.2, 2.0)
            e = m0 * (1.0 + rng.uniform(0.01, 6.0))
            v0 = rng.uniform(-8.0 * m0, 12.0 * m0)
            q = ScatteringQuery(E=e, V0=v0, m0=m0, coupling="scalar")
            assert classify_regime(q) is not Regime.KLEIN_ZONE

    def test_klein_iff_r_above_one_on_grid(self):
        for e in np.linspace(1.05, 4.95, 40):
            for v0 in np.linspace(0.0, 9.7, 40):
                q = ScatteringQuery(E=float(e), V0=float(v0), m0=1.0)
                res = amplitudes(q)
                assert (res.r > 1.0 + 1e-12) == (v0 > e + 1.0)
                assert (res.r > 1.0 + 1e-12) == (res.regime is Regime.KLEIN_ZONE)


class TestSweep:
    def test_regime_partition_example(self):
        base = ScatteringQuery(E=1.5, V0=0.0, m0=1.0)
        rows = sweep(base, "V0", 0.0, 4.0, 5)
        regimes = [row.result.regime for row in rows]
        assert regimes == [
            Regime.TRANSMISSION,
            Regime.EVANESCENT,
            Regime.EVANESCENT,
            Regime.KLEIN_ZONE,
            Regime.KLEIN_ZONE,
        ]
        assert [row.V0 for row in rows] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_zero_step_sweep_over_energy(self):
        base = ScatteringQuery(E=2.0, V0=0.0, m0=1.0)
        rows = sweep(base, "E", 1.1, 3.1, 3)
        assert all(row.result is not None and row.result.r == 0.0 for row in rows)

    def test_error_rows_for_subthreshold_energies(self):
        base = ScatteringQuery(E=2.0, V0=1.0, m0=1.0)
        rows = sweep(base, "E", 0.5, 2.5, 5)
        flags = [row.error is not None for row in rows]
        # E = 0.5, 1.0 invalid (need E > m0 = 1); 1.5, 2.0, 2.5 fine
        assert flags == [True, True, False, False, False]
        assert "E > m0" in rows[0].error

    def test_rejects_degenerate_range_and_bad_axis(self):
        base = ScatteringQuery(E=1.5, V0=0.0, m0=1.0)
        with pytest.raises(ValueError):
            sweep(base, "V0", 0.0, 0.0, 5)
        with pytest.raises(ValueError):
            sweep(base, "V0", 1.0, 0.0, 5)
        with pytest.raises(ValueError):
            sweep(base, "V0", 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            sweep(base, "T", 0.0, 1.0, 5)

    @pytest.mark.parametrize("start,stop", [(0.0, math.inf), (-math.inf, 1.0),
                                            (math.nan, 1.0), (0.0, math.nan)])
    def test_rejects_non_finite_bounds(self, start, stop):
        base = ScatteringQuery(E=1.5, V0=0.0, m0=1.0)
        with pytest.raises(ValueError, match="finite"):
            sweep(base, "V0", start, stop, 5)

    def test_non_finite_grid_points_become_error_rows(self):
        """Finite bounds whose span overflows give NaN/inf grid values."""
        base = ScatteringQuery(E=1.5, V0=0.0, m0=1.0)
        rows = sweep(base, "V0", -1e308, 1e308, 5)
        assert [math.isfinite(row.V0) for row in rows] == [False] * 4 + [True]
        assert all("must be finite" in row.error for row in rows[:4])

    def test_csv_round_trips_at_17_digits(self):
        base = ScatteringQuery(E=1.5, V0=0.0, m0=1.0)
        rows = sweep(base, "V0", 0.0, 4.0, 9)
        buf = io.StringIO()
        sweep_to_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 10
        for line, row in zip(lines[1:], rows):
            fields = line.split(",")
            assert len(fields) == 14
            assert float(fields[1]) == row.V0
            if row.result is not None:
                assert float(fields[4]) == row.result.a
                assert float(fields[5]) == row.result.b.real
                assert float(fields[11]) == row.result.r
                assert float(fields[12]) == row.result.t
                assert fields[13] == row.result.regime.value

    def test_singular_grid_point_becomes_error_row(self):
        base = ScatteringQuery(E=1.5, V0=0.0, m0=1.0)
        rows = sweep(base, "V0", 2.0, 3.0, 3)  # hits V0 = 2.5 = E + m0
        assert rows[1].error is not None
        assert rows[0].result is not None and rows[2].result is not None
        buf = io.StringIO()
        sweep_to_csv(rows, buf)
        error_line = buf.getvalue().splitlines()[2]
        assert error_line.endswith(",error")


def _hex_fields(res):
    """Every float of a result by float.hex, so the sign of zero counts."""
    floats = (res.a, res.b.real, res.b.imag, res.R.real, res.R.imag,
              res.T.real, res.T.imag, res.r, res.t)
    return tuple(float.hex(x) for x in floats) + (res.regime,)


def _assert_row_is_scalar_path(row):
    """A table row equals amplitudes() at its point, bit for bit, or carries
    exactly the message amplitudes() refuses the point with."""
    try:
        expected = amplitudes(ScatteringQuery(E=row.E, V0=row.V0, m0=row.m0,
                                              coupling=row.coupling))
    except ValueError as exc:
        assert row.result is None and row.error == str(exc), (row, exc)
        return
    assert row.error is None, row
    assert _hex_fields(row.result) == _hex_fields(expected), row


# Grids on multiples of 1/8, so the thresholds, the 0/0 point and the Klein
# point (E, V0, m0) = (1.5, 3, 1) fall exactly on grid points.
CROSS_CHECK_SWEEPS = [
    # vector V0: transmission threshold 0.5, 0/0 at 2.5, Klein point at 3
    ("vector", dict(E=1.5, V0=0.0, m0=1.0), "V0", -4.0, 8.0, 97),
    # vector E: E <= m0 below threshold, 0/0 at E = 2, Klein point at 1.5,
    # transmission threshold at E = 4
    ("vector", dict(E=2.0, V0=3.0, m0=1.0), "E", 0.0, 8.0, 65),
    # vector m0: m0 <= 0 and m0 >= E refused, Klein point at 1, 0/0 at 1.5
    ("vector", dict(E=1.5, V0=3.0, m0=1.0), "m0", -1.0, 2.0, 25),
    ("vector", dict(E=2.0, V0=3.5, m0=1.0), "m0", 0.0, 2.5, 21),
    # scalar V0: thresholds at V0 = 0.5 and -2.5, 0/0 at -2.5
    ("scalar", dict(E=1.5, V0=0.0, m0=1.0), "V0", -4.0, 4.0, 65),
    # scalar E: below threshold up to 1, transmission threshold at 1.5
    ("scalar", dict(E=2.0, V0=0.5, m0=1.0), "E", 0.0, 4.0, 33),
    # scalar m0: m0 <= 0 and m0 >= E refused; the threshold E = |m0 + V0|
    # and the 0/0 point coincide at m0 = 0.5
    ("scalar", dict(E=1.5, V0=-2.0, m0=1.0), "m0", 0.0, 2.0, 17),
]


class TestSweepMatchesScalarPath:
    @pytest.mark.parametrize("coupling,base,axis,start,stop,steps", CROSS_CHECK_SWEEPS)
    def test_every_row_is_bitwise_amplitudes(self, coupling, base, axis, start, stop, steps):
        rows = sweep(ScatteringQuery(coupling=coupling, **base), axis, start, stop, steps)
        grid = np.linspace(start, stop, steps)
        assert len(rows) == steps
        for i, row in enumerate(rows):
            expected = dict(base, **{axis: float(grid[i])})
            assert (row.E, row.V0, row.m0) == (expected["E"], expected["V0"], expected["m0"])
            assert row == rows[i]
            _assert_row_is_scalar_path(row)

    @pytest.mark.parametrize("sweep_index,point,expected", [
        (0, 0.375, Regime.TRANSMISSION), (0, 0.5, Regime.EVANESCENT),
        (0, 2.5, "degenerate"), (0, 3.0, Regime.KLEIN_ZONE),
        (1, 1.0, "E > m0"), (1, 1.5, Regime.KLEIN_ZONE), (1, 2.0, "degenerate"),
        (1, 4.0, Regime.EVANESCENT), (1, 4.125, Regime.TRANSMISSION),
        (2, 0.0, "m0 must be positive"), (2, 1.0, Regime.KLEIN_ZONE), (2, 1.5, "E > m0"),
        (3, 1.0, Regime.KLEIN_ZONE), (3, 1.5, "degenerate"), (3, 1.625, Regime.EVANESCENT),
        (4, -2.5, "degenerate"), (4, 0.0, Regime.TRANSMISSION), (4, 0.5, Regime.EVANESCENT),
        (5, 1.0, "E > m0"), (5, 1.5, Regime.EVANESCENT), (5, 1.625, Regime.TRANSMISSION),
        (6, 0.0, "m0 must be positive"), (6, 0.5, "degenerate"), (6, 1.5, "E > m0"),
    ])
    def test_sweeps_cross_the_feature_points(self, sweep_index, point, expected):
        coupling, base, axis, start, stop, steps = CROSS_CHECK_SWEEPS[sweep_index]
        rows = sweep(ScatteringQuery(coupling=coupling, **base), axis, start, stop, steps)
        (row,) = [row for row in rows if getattr(row, axis) == point]
        if isinstance(expected, Regime):
            assert row.result.regime is expected
        else:
            assert expected in row.error

    @given(
        E=st.floats(allow_nan=False, allow_infinity=False),
        V0=st.floats(allow_nan=False, allow_infinity=False),
        m0=st.floats(allow_nan=False, allow_infinity=False),
        coupling=st.sampled_from(["vector", "scalar"]),
    )
    def test_random_finite_point_is_bitwise_amplitudes(self, E, V0, m0, coupling):
        (row,) = SweepTable(E, V0, m0, coupling)
        _assert_row_is_scalar_path(row)

    @given(
        E=st.floats(0.0, 10.0), V0=st.floats(-10.0, 10.0), m0=st.floats(0.0, 3.0),
        coupling=st.sampled_from(["vector", "scalar"]),
    )
    def test_random_physical_point_is_bitwise_amplitudes(self, E, V0, m0, coupling):
        (row,) = SweepTable(E, V0, m0, coupling)
        _assert_row_is_scalar_path(row)


def _row_dict(row):
    """The JSON object of one materialised row, built independently of the writer."""
    out = {"E": row.E, "V0": row.V0, "m0": row.m0, "coupling": row.coupling.value}
    if row.result is None:
        out["error"] = row.error
        return out
    res = row.result
    out.update(a=res.a, re_b=res.b.real, im_b=res.b.imag, re_R=res.R.real,
               im_R=res.R.imag, re_T=res.T.real, im_T=res.T.imag, r=res.r, t=res.t,
               regime=res.regime.value)
    return out


class TestWriters:
    @pytest.mark.parametrize("coupling,axis,start,stop,steps", [
        ("vector", "V0", 2.0, 3.0, 5),       # 0/0 error row at V0 = 2.5
        ("vector", "E", 0.5, 4.0, 8),        # rows below threshold
        ("scalar", "V0", -3.0, 1.0, 9),      # 0/0 at V0 = -2.5
        ("vector", "V0", -1e308, 1e308, 5),  # NaN and inf grid coordinates
    ])
    def test_json_is_json_dumps_of_the_rows(self, coupling, axis, start, stop, steps):
        base = ScatteringQuery(E=1.5, V0=0.0, m0=1.0, coupling=coupling)
        rows = sweep(base, axis, start, stop, steps)
        assert any(row.error is not None for row in rows)
        buf = io.StringIO()
        sweep_to_json(rows, buf)
        expected = json.dumps([_row_dict(row) for row in rows], indent=2, sort_keys=True)
        assert buf.getvalue() == expected + "\n"

    def test_csv_fields_are_17_digit_formats_of_the_rows(self):
        base = ScatteringQuery(E=1.5, V0=0.0, m0=1.0)
        rows = sweep(base, "V0", -1.0, 4.0, 41)  # 0/0 error row at V0 = 2.5
        buf = io.StringIO()
        sweep_to_csv(rows, buf)
        lines = buf.getvalue().split("\n")
        assert lines[0] == CSV_HEADER and lines[-1] == ""
        assert len(lines) == len(rows) + 2
        for line, row in zip(lines[1:], rows):
            head = [format(v, ".17g") for v in (row.E, row.V0, row.m0)] + [row.coupling.value]
            if row.result is None:
                assert line.split(",") == head + [""] * 9 + ["error"]
                continue
            res = row.result
            values = (res.a, res.b.real, res.b.imag, res.R.real, res.R.imag,
                      res.T.real, res.T.imag, res.r, res.t)
            assert line.split(",") == (head + [format(v, ".17g") for v in values]
                                       + [res.regime.value])
