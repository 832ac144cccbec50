"""Tests for closed-form step scattering."""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import pickle
import signal
import threading
import warnings
from dataclasses import FrozenInstanceError, fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diracstep import scattering
from diracstep.scattering import (
    CSV_HEADER,
    Coupling,
    Regime,
    ScatteringQuery,
    ScatteringResult,
    SingularConfigurationError,
    SweepRow,
    SweepTable,
    _FORK_ROWS,
    _step_factor,
    _write_rows,
    amplitudes,
    sweep,
    sweep_to_csv,
    sweep_to_json,
    transmitted_factor,
)

SQRT3 = math.sqrt(3.0)
SQRT5 = math.sqrt(5.0)
# Signed zeros, 1 and its neighbours, the feature points of (1.5, 3, 1),
# underflow, overflow and non-finite values; at (E, V0, m0) = (1e20, 2e20, 1)
# a vector step gives a + b = 0.
SPECIAL_VALUES = [0.0, -0.0, 1.0, -1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0),
                  0.5, 2.0, 2.5, 3.0, 1e-300, 5e-324, 1e154, 1e200, 1e308, -1e308,
                  math.inf, -math.inf, math.nan, 1e20, 2e20]


def test_coupling_matrices():
    assert np.array_equal(Coupling.VECTOR.matrix, np.eye(2))
    assert np.array_equal(Coupling.SCALAR.matrix, np.diag([1.0, -1.0]))
    sy = np.array([[0, -1j], [1j, 0]])
    assert np.array_equal(Coupling.PSEUDOSCALAR.matrix, sy)


class TestIncidentFactor:
    """The incident factor a is the amplitudes() field `a`."""

    def test_hand_values(self):
        a = amplitudes(ScatteringQuery(E=2.0, V0=0.0, m0=1.0)).a
        assert np.isclose(a, SQRT3 / 3, rtol=0, atol=1e-15)
        a = amplitudes(ScatteringQuery(E=1.5, V0=0.0, m0=1.0)).a
        assert np.isclose(a, SQRT5 / 5, rtol=0, atol=1e-15)

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            m0 = rng.uniform(0.1, 3.0)
            e = m0 * (1.0 + rng.uniform(0.0, 50.0))
            a = amplitudes(ScatteringQuery(E=e, V0=0.0, m0=m0)).a
            assert 0.0 <= a < 1.0
            # equivalent closed form sqrt((E-m0)/(E+m0))
            assert np.isclose(a, math.sqrt((e - m0) / (e + m0)), rtol=1e-13, atol=0)

    def test_positive_just_above_threshold(self):
        """The query refuses E = m0; the next E above it gives a > 0."""
        a = amplitudes(ScatteringQuery(E=math.nextafter(1.0, 2.0), V0=0.0, m0=1.0)).a
        assert 0.0 < a and np.isclose(a, math.sqrt(np.finfo(float).eps / 2), rtol=1e-6, atol=0)

    def test_underflow_to_zero_is_refused(self):
        """E and m0 pass the query's checks, but a underflows to 0."""
        with pytest.raises(ValueError, match="incident factor must be positive, got a=0.0"):
            amplitudes(ScatteringQuery(E=1e-200, V0=1.0, m0=5e-201))


class TestTransmittedFactor:
    def test_zero_step_reduces_to_incident_bitwise(self):
        for coupling in (Coupling.VECTOR, Coupling.SCALAR):
            b = transmitted_factor(1.7, 0.0, 0.9, coupling)
            a = amplitudes(ScatteringQuery(E=1.7, V0=0.0, m0=0.9, coupling=coupling)).a
            assert b == complex(a, 0.0)

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

    def test_rejects_below_threshold(self):
        with pytest.raises(ValueError):
            transmitted_factor(0.9, 1.0, 1.0, Coupling.VECTOR)

    def test_rejects_non_finite_energy_or_step(self):
        """The inputs pass ScatteringQuery's checks, as amplitudes() asks."""
        for coupling in (Coupling.VECTOR, Coupling.SCALAR):
            for E, V0 in [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
                          (1.5, math.nan), (1.5, math.inf), (1.5, -math.inf)]:
                with pytest.raises(ValueError, match="finite"):
                    transmitted_factor(E, V0, 1.0, coupling)

    def test_overflow_is_refused(self):
        with pytest.raises(ValueError, match="overflows"):
            transmitted_factor(1e200, 0.5, 1.0, "vector")

    @pytest.mark.parametrize("coupling", ["vector", "scalar", "pseudoscalar"])
    def test_refuses_where_amplitudes_refuses(self, coupling):
        """On every triple of SPECIAL_VALUES: the same exception and message
        where amplitudes() refuses, and its b bit for bit where it answers."""
        for E, V0, m0 in itertools.product(SPECIAL_VALUES, repeat=3):
            try:
                expected = amplitudes(ScatteringQuery(E=E, V0=V0, m0=m0, coupling=coupling)).b
            except ValueError as exc:
                with pytest.raises(type(exc)) as refused:
                    transmitted_factor(E, V0, m0, coupling)
                assert str(refused.value) == str(exc)
                continue
            b = transmitted_factor(E, V0, m0, coupling)
            assert (float.hex(b.real), float.hex(b.imag)) == \
                (float.hex(expected.real), float.hex(expected.imag))

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

    @pytest.mark.parametrize("m0", [0.0, -1.0])
    def test_rejects_bad_mass(self, m0):
        with pytest.raises(ValueError, match="m0"):
            ScatteringQuery(E=1.0, V0=0.0, m0=m0)

    @pytest.mark.parametrize("field", ["E", "V0", "m0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        params = {"E": 1.5, "V0": 0.5, "m0": 1.0, field: value}
        with pytest.raises(ValueError, match="must be finite"):
            ScatteringQuery(**params)


KLEIN_RESULT_REPR = (
    "ScatteringResult(a=0.447213595499958, b=(-2.23606797749979+0j), "
    "R=(-1.4999999999999998+0j), T=(-0.5+0j), r=2.2499999999999996, t=-1.25, "
    "regime=<Regime.KLEIN_ZONE: 'klein_zone'>)"
)


def _records():
    """One of each record: a query, its result, a valid and an error sweep row."""
    query = ScatteringQuery(1.5, 3.0)
    rows = sweep(query, "E", 0.5, 1.5, 3)
    return [query, amplitudes(query), rows[2], rows[0]]


class TestRecords:
    """ScatteringQuery, ScatteringResult and SweepRow are frozen, slotted
    dataclasses that compare, hash, pickle and print as frozen dataclasses."""

    @pytest.mark.parametrize("index", range(4))
    def test_every_field_is_frozen(self, index):
        record = _records()[index]
        for field in fields(record):
            with pytest.raises(FrozenInstanceError):
                setattr(record, field.name, 1.0)
            with pytest.raises(FrozenInstanceError):
                delattr(record, field.name)
        # a name that is no field is refused too; CPython 3.11's frozen
        # __setattr__ of a slotted dataclass raises TypeError for it
        with pytest.raises((AttributeError, TypeError)):
            record.extra = 1.0
        assert not hasattr(record, "extra")

    @pytest.mark.parametrize("index", range(4))
    def test_slotted_without_instance_dict(self, index):
        record = _records()[index]
        assert not hasattr(record, "__dict__")
        assert type(record).__slots__ == tuple(field.name for field in fields(record))

    @pytest.mark.parametrize("index", range(4))
    def test_equality_and_hash_are_those_of_the_fields(self, index):
        record, again = _records()[index], _records()[index]
        assert record is not again and record == again
        assert hash(record) == hash(again) == hash(_field_tuple(record))
        assert record != _field_tuple(record)
        assert amplitudes(ScatteringQuery(2.0, 0.5)) != amplitudes(ScatteringQuery(2.0, 0.6))

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        for record in _records():
            back = pickle.loads(pickle.dumps(record, protocol))
            assert type(back) is type(record) and back == record
            assert repr(back) == repr(record)
        result = _records()[1]
        assert _hex_fields(pickle.loads(pickle.dumps(result, protocol))) == _hex_fields(result)

    def test_repr(self):
        query, result, row, error_row = _records()
        assert repr(result) == KLEIN_RESULT_REPR
        assert repr(query) == (
            "ScatteringQuery(E=1.5, V0=3.0, m0=1.0, coupling=<Coupling.VECTOR: 'vector'>)")
        assert repr(row) == ("SweepRow(E=1.5, V0=3.0, m0=1.0, coupling=<Coupling.VECTOR: "
                             f"'vector'>, result={KLEIN_RESULT_REPR}, error=None)")
        assert repr(error_row) == (
            "SweepRow(E=0.5, V0=3.0, m0=1.0, coupling=<Coupling.VECTOR: 'vector'>, "
            "result=None, error='incident wave below threshold: need E > m0, "
            "got E=0.5, m0=1.0')")

    @pytest.mark.parametrize("coupling", list(Coupling))
    def test_member_and_value_string_give_the_member(self, coupling):
        assert ScatteringQuery(2.0, 0.5, coupling=coupling).coupling is coupling
        assert ScatteringQuery(2.0, 0.5, coupling=coupling.value).coupling is coupling

    @pytest.mark.parametrize("value", ["xml", "VECTOR", None, 3, [1]])
    def test_other_couplings_refused_with_enum_text(self, value):
        with pytest.raises(ValueError) as refused:
            ScatteringQuery(2.0, 0.5, coupling=value)
        assert str(refused.value) == f"{value!r} is not a valid Coupling"
        with pytest.raises(ValueError) as enum_refused:
            Coupling(value)
        assert str(enum_refused.value) == str(refused.value)


def _field_tuple(record) -> tuple:
    return tuple(getattr(record, field.name) for field in fields(record))


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
        """r is exactly 1 below threshold, in every coupling."""
        for E, V0, coupling in [(1.5, 1.0, "vector"), (1.25, 1.0, "vector"),
                                (1.25, 4.0, "scalar"), (1.1, 1.5, "pseudoscalar")]:
            res = amplitudes(ScatteringQuery(E=E, V0=V0, m0=1.0, coupling=coupling))
            assert res.regime is Regime.EVANESCENT
            assert abs(abs(res.R) - 1.0) <= 1e-14
            assert res.t == 0.0
            assert res.r == 1.0

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
            coupling = list(Coupling)[rng.integers(3)]
            try:
                res = amplitudes(ScatteringQuery(E=e, V0=v0, m0=m0, coupling=coupling))
            except SingularConfigurationError:
                continue
            if res.b.real != 0.0:
                assert abs(res.r + res.t - 1.0) <= 1e-12
            else:
                assert res.t == 0.0
                assert res.r == 1.0

    def test_singular_configuration_raises(self):
        with pytest.raises(SingularConfigurationError):
            amplitudes(ScatteringQuery(E=1.5, V0=2.5, m0=1.0))

    OVERFLOWING = [
        (1e200, 0.0, 1.0, "vector"),   # E^2 overflows: a = inf
        (2.0, -1e200, 1.0, "vector"),  # omega^2 overflows: b = inf
        (2.0, 1e200, 1.0, "vector"),   # Klein side: b = -inf
        (2.0, 1e200, 1.0, "scalar"),   # mass^2 overflows: b = i inf
    ]

    @pytest.mark.parametrize("E, V0, m0, coupling", OVERFLOWING)
    def test_overflow_is_refused_not_labelled(self, E, V0, m0, coupling):
        """Past about 1.34e154 a square overflows and r, t come out NaN; the
        point is refused rather than returned with a regime."""
        with pytest.raises(ValueError, match="overflows"):
            amplitudes(ScatteringQuery(E=E, V0=V0, m0=m0, coupling=coupling))
        (row,) = SweepTable(E, V0, m0, coupling)
        _assert_row_is_scalar_path(row)
        assert row.result is None and "overflows" in row.error

    @pytest.mark.parametrize("E, V0, m0, coupling",
                             OVERFLOWING + [(1.5, 2.5, 1.0, "vector")])  # and a 0/0 point
    def test_numpy_scalars_are_refused_silently(self, E, V0, m0, coupling):
        """A query of numpy scalars is refused with the Python-float message
        and raises none of numpy's overflow RuntimeWarnings on the way."""
        with pytest.raises(ValueError) as expected:
            amplitudes(ScatteringQuery(E, V0, m0, coupling))
        query = ScatteringQuery(np.float64(E), np.float64(V0), np.float64(m0), coupling)
        with warnings.catch_warnings(), pytest.raises(ValueError) as refused:
            warnings.simplefilter("error")
            amplitudes(query)
        assert type(refused.value) is type(expected.value)
        assert str(refused.value) == str(expected.value)

    @pytest.mark.parametrize("E, V0, m0, coupling", [
        (2.0, 0.5, 1.0, "vector"), (1.5, 1.0, 1.0, "vector"), (1.5, 3.0, 1.0, "vector"),
        (1.9, 0.3, 0.7, "scalar"), (1.9, 3.0, 0.7, "scalar"),
    ], ids=["transmission", "evanescent", "klein", "scalar", "scalar-evanescent"])
    def test_numpy_scalars_give_the_python_float_result(self, E, V0, m0, coupling):
        """Every field, signed zeros included, is bitwise the Python-float
        result and of the same Python type."""
        expected = amplitudes(ScatteringQuery(E, V0, m0, coupling))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = amplitudes(ScatteringQuery(np.float64(E), np.float64(V0), np.float64(m0),
                                             coupling))
        assert repr(got) == repr(expected)


class TestRegime:
    @pytest.mark.parametrize(
        "e,v0,m0,coupling,expected",
        [
            (1.5, 3.0, 1.0, "vector", Regime.KLEIN_ZONE),
            (1.5, 0.0, 1.0, "vector", Regime.TRANSMISSION),
            (1.5, 1.0, 1.0, "vector", Regime.EVANESCENT),
            (1.5, 0.5, 1.0, "vector", Regime.EVANESCENT),  # boundary E-V0 = m0
            (1.5, 3.0, 1.0, "scalar", Regime.EVANESCENT),
            (1.5, 0.2, 1.0, "scalar", Regime.TRANSMISSION),
            (1.5, 0.5, 1.0, "scalar", Regime.EVANESCENT),  # boundary E = m0+V0
            (1.5, -3.0, 1.0, "scalar", Regime.EVANESCENT),  # negative branch
            (3.0, -5.0, 1.0, "vector", Regime.TRANSMISSION),  # downhill step
        ],
    )
    def test_table(self, e, v0, m0, coupling, expected):
        q = ScatteringQuery(E=e, V0=v0, m0=m0, coupling=coupling)
        assert amplitudes(q).regime is expected

    def test_scalar_never_klein(self):
        rng = np.random.default_rng(8)
        for _ in range(3000):
            m0 = rng.uniform(0.2, 2.0)
            e = m0 * (1.0 + rng.uniform(0.01, 6.0))
            v0 = rng.uniform(-8.0 * m0, 12.0 * m0)
            q = ScatteringQuery(E=e, V0=v0, m0=m0, coupling="scalar")
            assert amplitudes(q).regime is not Regime.KLEIN_ZONE

    def test_klein_iff_r_above_one_on_grid(self):
        for e in np.linspace(1.05, 4.95, 40):
            for v0 in np.linspace(0.0, 9.7, 40):
                q = ScatteringQuery(E=float(e), V0=float(v0), m0=1.0)
                res = amplitudes(q)
                assert (res.r > 1.0 + 1e-12) == (v0 > e + 1.0)
                assert (res.r > 1.0 + 1e-12) == (res.regime is Regime.KLEIN_ZONE)


_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]])
_SZ = np.diag([1.0 + 0j, -1.0])


def _matched_coefficients(E, V0, m0, gamma):
    """r and t of a step with coupling matrix gamma, from numpy eigenvectors
    matched at x = 0, without the closed form.

    At energy E the Dirac equation -i sx psi' + (m0 sz + V gamma) psi = E psi
    reads psi' = M psi.  A mode exp(lam x) u of M carries the flux u^H sx u:
    on the left the incident mode carries positive flux and the reflected one
    negative; on the right the transmitted mode is the one with positive flux
    when lam is imaginary, else the one that decays (Re lam < 0).
    """
    def modes(V):
        lam, u = np.linalg.eig(1j * _SX @ (E * np.eye(2) - m0 * _SZ - V * gamma))
        return lam, u, np.einsum("ij,ik,kj->j", u.conj(), _SX, u).real

    _, u, flux = modes(0.0)
    incident, reflected = (0, 1) if flux[0] > 0 else (1, 0)
    lam, v, flux_right = modes(V0)
    propagating = abs(lam[0].real) < abs(lam[0].imag)
    out = int(np.argmax(flux_right) if propagating else np.argmin(lam.real))
    R, T = np.linalg.solve(np.column_stack([u[:, reflected], -v[:, out]]), -u[:, incident])
    r = abs(R) ** 2 * -flux[reflected] / flux[incident]
    t = abs(T) ** 2 * flux_right[out] / flux[incident] if propagating else 0.0
    return r, t


class TestPseudoscalar:
    """The sigma_y step: b = (sqrt(E^2 - m0^2 - V0^2) + i V0) / (E + m0)."""

    def test_hand_value(self):
        """At (E, V0, m0) = (2, 0.5, 1), a = 1/sqrt(3) and
        b = (sqrt(11)/2 + i/2)/3, so r = (6 - sqrt(33))/(6 + sqrt(33))."""
        res = amplitudes(ScatteringQuery(E=2.0, V0=0.5, m0=1.0, coupling="pseudoscalar"))
        r = (6 - math.sqrt(33)) / (6 + math.sqrt(33))
        assert res.r == 0.02174941384788537
        assert abs(res.r - r) <= 1e-16 and abs(res.t - (1 - r)) <= 1e-15
        assert res.regime is Regime.TRANSMISSION

    def test_eigenvector_matcher_agrees(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 1000:
            m0 = rng.uniform(0.2, 2.0)
            E = m0 * (1.0 + rng.uniform(0.01, 6.0))
            V0 = rng.uniform(-8.0, 8.0)
            if abs(E * E - m0 * m0 - V0 * V0) < 1e-3:
                continue  # the matcher's eigenvectors degenerate at threshold
            checked += 1
            res = amplitudes(ScatteringQuery(E=E, V0=V0, m0=m0, coupling="pseudoscalar"))
            r, t = _matched_coefficients(E, V0, m0, _SY)
            assert abs(res.r - r) <= 1e-13 and abs(res.t - t) <= 1e-13, (E, V0, m0)

    def test_evanescent_iff_below_the_sigma_y_threshold(self):
        """Evanescent iff E^2 <= m0^2 + V0^2, with r = 1 and t = 0; never the
        Klein zone.  (5, +-4, 3) sits exactly on the threshold."""
        rng = np.random.default_rng(24)
        points = [(5.0, 4.0, 3.0), (5.0, -4.0, 3.0)]
        while len(points) < 3000:
            m0 = rng.uniform(0.2, 2.0)
            point = (m0 * (1.0 + rng.uniform(0.01, 6.0)), rng.uniform(-12.0, 12.0), m0)
            if abs(point[0] ** 2 - m0 ** 2 - point[1] ** 2) > 1e-9:
                points.append(point)
        for E, V0, m0 in points:
            res = amplitudes(ScatteringQuery(E=E, V0=V0, m0=m0, coupling="pseudoscalar"))
            assert res.regime is not Regime.KLEIN_ZONE
            if E * E <= m0 * m0 + V0 * V0:
                assert res.regime is Regime.EVANESCENT
                assert res.t == 0.0 and res.r == 1.0
            else:
                assert res.regime is Regime.TRANSMISSION


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
                                            (math.nan, 1.0), (0.0, math.nan),
                                            (-1e308, 1e308)])  # the span overflows
    def test_rejects_non_finite_bounds(self, start, stop):
        base = ScatteringQuery(E=1.5, V0=0.0, m0=1.0)
        with pytest.raises(ValueError, match="finite"):
            sweep(base, "V0", start, stop, 5)

    def test_non_finite_grid_points_become_error_rows(self):
        rows = SweepTable(1.5, [math.nan, math.inf, -math.inf, 0.0], 1.0, "vector")
        assert [math.isfinite(row.V0) for row in rows] == [False] * 3 + [True]
        assert all("must be finite" in row.error for row in rows[:3])
        assert rows[3].error is None

    @pytest.mark.parametrize("E,V0", [
        ([[1.5, 2.0], [3.0, 4.0]], 0.5),
        ([1.5, 2.0], [[0.5], [1.0]]),
    ])
    def test_rejects_coordinates_that_are_not_one_1d_grid(self, E, V0):
        with pytest.raises(ValueError, match="one 1-D grid, got shape \\(2, 2\\)"):
            SweepTable(E, V0, 1.0, "vector")

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

    def test_index_slice_and_iteration_build_the_same_rows(self):
        """table[i], table[a:b:s] and iteration agree row for row, on the
        error row at V0 = 2.5, negative indices and the iterator's chunk
        boundary at 4096 rows."""
        table = sweep(ScatteringQuery(E=1.5, V0=0.0, m0=1.0), "V0", 2.0, 3.0, 9)
        rows = list(table)
        assert rows[4].error is not None and rows[3].result is not None
        assert [table[i] for i in range(-9, 9)] == rows + rows
        for index in (slice(None), slice(2, 7), slice(-3, None), slice(None, None, -2),
                      slice(7, 1, -3), slice(1, 100, 4), slice(5, 5)):
            assert table[index] == rows[index]
        for i in (9, -10):
            with pytest.raises(IndexError):
                table[i]
        long = sweep(ScatteringQuery(E=1.5, V0=0.0, m0=1.0), "V0", 0.0, 4.0, 4101)
        rows = list(long)
        assert long[:] == rows and long[4090:4101:3] == rows[4090:4101:3]
        assert [long[i] for i in (4095, 4096, -1)] == [rows[4095], rows[4096], rows[-1]]


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
    def test_overflowing_finite_row_is_an_error_row(self):
        """The last grid point, V0 = 1e308, is finite but overflows the
        closed form: an error row, not a NaN row labelled klein_zone."""
        table = sweep(ScatteringQuery(E=2.0, V0=0.0), "V0", 0.0, 1e308, 5)
        assert table.V0[-1] == 1e308
        assert table.error.tolist() == [False] + [True] * 4
        assert "overflows" in table[-1].error
        for row in table:
            _assert_row_is_scalar_path(row)

    @pytest.mark.parametrize("swept_value", [math.nan, math.inf, -1.0, 0.0])
    @pytest.mark.parametrize("coupling,base,axis,start,stop,steps", CROSS_CHECK_SWEEPS)
    def test_swept_value_of_the_base_is_never_used(self, coupling, base, axis, start, stop,
                                                   steps, swept_value):
        """sweep() reads E, V0, m0 and coupling off its base, but never the
        value on the swept axis: a base that no ScatteringQuery accepts
        there gives the columns of a valid base, bit for bit."""
        expected = sweep(ScatteringQuery(coupling=coupling, **base), axis, start, stop, steps)
        invalid = SimpleNamespace(coupling=coupling, **dict(base, **{axis: swept_value}))
        table = sweep(invalid, axis, start, stop, steps)

        def columns(t):
            return [t.E, t.V0, t.m0, t.regime, t.error, *t.values.values()]

        for column, reference in zip(columns(table), columns(expected)):
            assert column.tobytes() == reference.tobytes()

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
            if row.result is not None:
                # a zero imaginary part is +0.0, as im_b's is
                assert float.hex(row.result.R.imag) != "-0x0.0p+0", row
                assert float.hex(row.result.T.imag) != "-0x0.0p+0", row

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

    @pytest.mark.parametrize("coupling", ["vector", "scalar", "pseudoscalar"])
    def test_error_rows_are_where_amplitudes_refuses(self, coupling):
        """The kernel's four-term validity rule, checked on every triple of
        SPECIAL_VALUES."""
        grid = np.meshgrid(SPECIAL_VALUES, SPECIAL_VALUES, SPECIAL_VALUES, indexing="ij")
        E, V0, m0 = (axis.ravel() for axis in grid)
        table = SweepTable(E, V0, m0, coupling)
        assert len(table) == len(SPECIAL_VALUES) ** 3 and table.error.any() and not table.error.all()
        for column in table.values.values():
            assert np.isfinite(column[~table.error]).all()
        for row in table:
            _assert_row_is_scalar_path(row)
        if coupling == "vector":
            with pytest.raises(SingularConfigurationError, match="a \\+ b = 0"):
                amplitudes(ScatteringQuery(E=1e20, V0=2e20, m0=1.0))

    @given(
        E=st.floats(allow_nan=False, allow_infinity=False),
        V0=st.floats(allow_nan=False, allow_infinity=False),
        m0=st.floats(allow_nan=False, allow_infinity=False),
        coupling=st.sampled_from(["vector", "scalar", "pseudoscalar"]),
    )
    def test_random_finite_point_is_bitwise_amplitudes(self, E, V0, m0, coupling):
        (row,) = SweepTable(E, V0, m0, coupling)
        _assert_row_is_scalar_path(row)

    @given(
        E=st.floats(0.0, 10.0), V0=st.floats(-10.0, 10.0), m0=st.floats(0.0, 3.0),
        coupling=st.sampled_from(["vector", "scalar", "pseudoscalar"]),
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
    ])
    def test_json_is_json_dumps_of_the_rows(self, coupling, axis, start, stop, steps):
        base = ScatteringQuery(E=1.5, V0=0.0, m0=1.0, coupling=coupling)
        rows = sweep(base, axis, start, stop, steps)
        assert any(row.error is not None for row in rows)
        buf = io.StringIO()
        sweep_to_json(rows, buf)
        expected = json.dumps([_row_dict(row) for row in rows], indent=2, sort_keys=True)
        assert buf.getvalue() == expected + "\n"

    def test_json_of_non_finite_grid_coordinates(self):
        """NaN and inf coordinates are written as json.dumps writes them."""
        rows = SweepTable(1.5, [math.nan, math.inf, -math.inf, 1e308, 0.0], 1.0, "vector")
        buf = io.StringIO()
        sweep_to_json(rows, buf)
        expected = json.dumps([_row_dict(row) for row in rows], indent=2, sort_keys=True)
        assert buf.getvalue() == expected + "\n"
        assert "NaN" in expected and "-Infinity" in expected

    @pytest.mark.parametrize("V0", [
        [0.0, -0.0, 0.0],         # equal, but not the same bits
        [-0.0, -0.0, -0.0],
        [math.nan, math.nan, 0.5],
        [2.5, 2.5, 2.5],          # the 0/0 point on every row
        [0.25],
        [],                       # an empty table: json.dumps writes "[]"
    ])
    def test_a_column_is_formatted_once_only_when_its_bits_agree(self, V0):
        """E and m0 hold one value and V0 may; the bytes are the rows' own."""
        table = SweepTable(1.5, V0, 1.0, "vector")
        rows = list(table)
        buf = io.StringIO()
        sweep_to_json(table, buf)
        assert buf.getvalue() == json.dumps([_row_dict(row) for row in rows],
                                            indent=2, sort_keys=True) + "\n"
        buf = io.StringIO()
        sweep_to_csv(table, buf)
        lines = buf.getvalue().split("\n")[1:-1]
        assert [line.split(",")[:3] for line in lines] == [
            [format(v, ".17g") for v in (row.E, row.V0, row.m0)] for row in rows]
        assert [line.split(",")[-1] for line in lines] == [
            row.result.regime.value if row.result else "error" for row in rows]

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


def _grant_cpus(monkeypatch, cpus, cgroup="/nonexistent"):
    """Make the writers see `cpus` CPUs and the cgroup files under `cgroup`
    (none by default), whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(scattering, "_CGROUP", str(cgroup))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _boundary_table():
    """2 * _FORK_ROWS + 1 vector rows at E = 1.5 with the 0/0 row (V0 = 2.5,
    exact on a grid of step 1/1024) first in the second half, rows below
    threshold in both halves, a NaN coordinate in the last row and +-inf in
    each of E, V0 and m0 in both halves."""
    n = 2 * _FORK_ROWS + 1
    V0 = 2.5 + (np.arange(n) - n // 2) / 1024
    V0[-1] = math.nan
    E = np.full(n, 1.5)
    E[::1000] = 0.5
    m0 = np.ones(n)
    for column, i in ((E, 1), (V0, 2), (m0, 3), (E, n - 4), (V0, n - 3), (m0, n - 2)):
        column[i] = math.inf if i < n // 2 else -math.inf
    table = SweepTable(E, V0, m0, "vector")
    assert "degenerate" in table[n // 2].error
    return table


def _render_in_process(writer, table, monkeypatch) -> str:
    _grant_cpus(monkeypatch, 1)
    buf = io.StringIO()
    writer(table, buf)
    return buf.getvalue()


@pytest.mark.usefixtures("watchdog")
class TestForkedWriters:
    F = _FORK_ROWS

    @pytest.mark.parametrize("rows,cpus,ranges", [
        (1, 64, ["0:1"]),
        (401, 64, ["0:401"]),
        (2 * F - 1, 2, [f"0:{2 * F - 1}"]),  # a half would be short
        (2 * F, 2, [f"0:{F}", f"{F}:{2 * F}"]),
        (2 * F, 1, [f"0:{2 * F}"]),
        (8 * F + 1, 64, [f"0:{4 * F}", f"{4 * F}:{8 * F + 1}"]),  # never more than one child
    ])
    def test_halves_keep_the_fork_minimum_and_join_in_order(self, rows, cpus, ranges,
                                                             monkeypatch, watchdog):
        _grant_cpus(monkeypatch, cpus)
        buf = io.StringIO()
        _write_rows(buf, rows, lambda lo, hi: f"{lo}:{hi}", "[", "|", "]")
        assert buf.getvalue() == "[" + "|".join(ranges) + "]"
        assert len(watchdog) == len(ranges) - 1
        _assert_no_child_left()

    @pytest.mark.parametrize("writer", [sweep_to_csv, sweep_to_json])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_forked_halves_write_the_in_process_bytes(self, writer, cpus, monkeypatch,
                                                      watchdog):
        """Error rows, a NaN coordinate and the 0/0 row on the halves'
        boundary come out as one in-process pass writes them."""
        table = _boundary_table()
        expected = _render_in_process(writer, table, monkeypatch)
        _grant_cpus(monkeypatch, cpus)
        buf = io.StringIO()
        writer(table, buf)
        assert len(watchdog) == 1
        assert buf.getvalue() == expected
        _assert_no_child_left()
        if writer is sweep_to_json:
            rows = [_row_dict(row) for row in table]
            assert buf.getvalue() == json.dumps(rows, indent=2, sort_keys=True) + "\n"

    def test_a_render_that_raises_raises_here_as_in_process(self, monkeypatch, watchdog):
        """A render that fails on the child's rows fails again when this
        process renders them: the caller gets the in-process exception, nothing
        is written and no child is left."""
        table = _boundary_table()

        def message(self, E, V0, m0):
            raise RuntimeError("no message")

        monkeypatch.setattr(SweepTable, "_error_message", message)
        for cpus in (1, 2):
            _grant_cpus(monkeypatch, cpus)
            buf = io.StringIO()
            with pytest.raises(RuntimeError, match="^no message$"):
                sweep_to_json(table, buf)
            assert buf.getvalue() == ""
            _assert_no_child_left()
        assert len(watchdog) == 1

    @pytest.mark.parametrize("fail", [
        lambda: 1 / 0,
        lambda: os._exit(3),
        lambda: os.kill(os.getpid(), signal.SIGKILL),
    ], ids=["raises", "exit-code-3", "killed"])
    def test_rows_a_child_does_not_hand_back_are_rendered_here(self, fail, monkeypatch,
                                                                watchdog):
        parent = os.getpid()
        table = _boundary_table()
        expected = _render_in_process(sweep_to_json, table, monkeypatch)
        real_message = SweepTable._error_message

        def message(self, E, V0, m0):
            if os.getpid() != parent:
                fail()
            return real_message(self, E, V0, m0)

        monkeypatch.setattr(SweepTable, "_error_message", message)
        _grant_cpus(monkeypatch, 2)
        buf = io.StringIO()
        sweep_to_json(table, buf)  # the JSON writer asks the child's error rows for messages
        assert len(watchdog) == 1
        assert buf.getvalue() == expected
        _assert_no_child_left()

    def test_a_failed_fork_renders_in_process(self, monkeypatch):
        table = _boundary_table()
        expected = _render_in_process(sweep_to_json, table, monkeypatch)

        def fork():
            raise BlockingIOError("no process left")

        monkeypatch.setattr(os, "fork", fork)
        _grant_cpus(monkeypatch, 2)
        buf = io.StringIO()
        sweep_to_json(table, buf)
        assert buf.getvalue() == expected

    def test_a_failing_first_half_reaps_the_child(self, monkeypatch):
        def render(lo, hi):
            if lo == 0:
                raise MemoryError("first half")
            return "x" * (1 << 20)  # more than a pipe holds: the child blocks writing

        _grant_cpus(monkeypatch, 2)
        buf = io.StringIO()
        with pytest.raises(MemoryError, match="first half"):
            _write_rows(buf, 2 * _FORK_ROWS, render, "", "", "")
        assert buf.getvalue() == ""
        _assert_no_child_left()

    @pytest.mark.parametrize("files,forks", [
        ({"cpu.max": "max 100000\n"}, 1),
        ({"cpu.max": "200000 100000\n"}, 1),
        ({"cpu.max": "150000 100000\n"}, 0),
        ({"cpu.max": "100000 100000\n"}, 0),
        ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, 1),
        ({"cpu/cpu.cfs_quota_us": "50000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 0),
        ({"cpu/cpu.cfs_quota_us": "400000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 1),
        ({"cpu.max": "garbled\n"}, 1),
        ({}, 1),
    ], ids=["v2-none", "v2-2", "v2-1.5", "v2-1", "v1-none", "v1-0.5", "v1-4", "garbled",
            "no-files"])
    def test_a_cgroup_quota_under_two_cpus_keeps_the_writer_in_process(
            self, files, forks, tmp_path, monkeypatch, watchdog):
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text)
        _grant_cpus(monkeypatch, 8, cgroup=tmp_path)
        buf = io.StringIO()
        _write_rows(buf, 2 * _FORK_ROWS, lambda lo, hi: f"{lo}:{hi}", "", "|", "")
        assert len(watchdog) == forks
        assert buf.getvalue() == (f"0:{_FORK_ROWS}|{_FORK_ROWS}:{2 * _FORK_ROWS}" if forks
                                  else f"0:{2 * _FORK_ROWS}")
        _assert_no_child_left()

    def test_a_second_thread_keeps_the_writer_in_process(self, monkeypatch, watchdog):
        table = _boundary_table()
        expected = _render_in_process(sweep_to_csv, table, monkeypatch)
        _grant_cpus(monkeypatch, 2)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, args=(10,))
        thread.start()
        try:
            buf = io.StringIO()
            sweep_to_csv(table, buf)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert watchdog == []
        assert buf.getvalue() == expected
