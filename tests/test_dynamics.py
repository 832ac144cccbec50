"""Tests for the split-step spectral evolver."""

from __future__ import annotations

import io
import math
import warnings

import numpy as np
import pytest

from diracstep.dynamics import (
    OBSERVABLES_CSV_HEADER,
    SNAPSHOT_CSV_HEADER,
    Grid,
    PotentialProfile,
    WavePacketState,
    WrappedWarning,
    _apply,
    _free_factor,
    _kick_factor,
    evolve,
    gaussian_packet,
    measure,
    observables_to_csv,
    snapshot_to_csv,
)
from diracstep.scattering import Coupling


def free_step(state: WavePacketState, dt: float) -> WavePacketState:
    """The free factor for a time dt, applied per momentum mode."""
    psi_k = np.fft.fft(state.psi, axis=1)
    _apply(_free_factor(state.grid, state.m0, dt), psi_k)
    return WavePacketState(state.grid, np.fft.ifft(psi_k, axis=1), state.time, state.m0)


def kick(state: WavePacketState, profile: PotentialProfile, dt: float) -> WavePacketState:
    """The potential factor for a time dt, applied per grid point."""
    psi = np.array(state.psi)
    _apply(_kick_factor(profile, state.grid, dt), psi)
    return WavePacketState(state.grid, psi, state.time, state.m0)


class TestGrid:
    def test_defaults_and_derived_quantities(self):
        g = Grid(n=512, length=100.0)
        assert g.x0 == -50.0
        assert g.dx == 100.0 / 512
        assert g.x[0] == -50.0
        assert np.isclose(g.x[-1], 50.0 - g.dx, rtol=0, atol=1e-12)
        assert g.k[0] == 0.0
        assert np.isclose(g.k[1], 2 * np.pi / 100.0, rtol=1e-15, atol=0)
        assert np.isclose(g.k[g.n // 2], -np.pi / g.dx, rtol=1e-15, atol=0)

    def test_domain_is_centred(self):
        g = Grid(n=256, length=32.0)
        assert g.x0 == -16.0 and g.x[0] == -16.0 and g.x[g.n // 2] == 0.0
        with pytest.raises(AttributeError):
            g.x0 = 0.0

    @pytest.mark.parametrize("x0", [0.0, math.nan, -math.inf])
    def test_origin_is_not_a_parameter(self, x0):
        with pytest.raises(TypeError, match="x0"):
            Grid(n=256, length=10.0, x0=x0)

    @pytest.mark.parametrize("n", [128, 255, 300, 257])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            Grid(n=n, length=10.0)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Grid(n=256, length=0.0)
        with pytest.raises(ValueError):
            Grid(n=256, length=-5.0)

    @pytest.mark.parametrize("length", [math.inf, math.nan])
    def test_rejects_non_finite_domain(self, length):
        with pytest.raises(ValueError, match="finite"):
            Grid(n=256, length=length)

    def test_coordinates_computed_once_and_read_only(self):
        g = Grid(n=256, length=32.0)
        assert g.x is g.x and g.k is g.k
        with pytest.raises(ValueError):
            g.x[0] = 1.0
        with pytest.raises(ValueError):
            g.k[0] = 1.0


class TestPotentialProfile:
    def test_sharp_step_values(self):
        g = Grid(n=256, length=32.0)
        prof = PotentialProfile(coupling="vector", v0=2.0, x_step=g.x[128])
        v = prof.values(g.x)
        assert np.all(v[:128] == 0.0)
        assert v[128] == 1.0  # half height exactly at the step point
        assert np.all(v[129:] == 2.0)

    def test_smoothed_step_values(self):
        g = Grid(n=256, length=32.0)
        prof = PotentialProfile(coupling="vector", v0=2.0, x_step=0.0, smoothing=0.5)
        v = prof.values(g.x)
        assert np.isclose(v[128], 1.0, rtol=0, atol=1e-14)  # x = 0 on this grid
        assert v[0] < 1e-14
        assert abs(v[-1] - 2.0) < 1e-14
        assert np.all(np.diff(v) >= 0)

    def test_zero_profile(self):
        g = Grid(n=256, length=32.0)
        prof = PotentialProfile(coupling="vector", kind="zero", v0=3.0)
        assert np.all(prof.values(g.x) == 0.0)
        assert prof.split_position(g) == 0.0

    def test_split_position_clamps_to_domain(self):
        g = Grid(n=256, length=32.0)
        step = PotentialProfile(coupling="vector", v0=1.0, x_step=4.0)
        assert step.split_position(g) == 4.0
        far_left = PotentialProfile(coupling="vector", v0=1.0, x_step=-1000.0)
        assert far_left.split_position(g) == g.x0
        far_right = PotentialProfile(coupling="vector", v0=1.0, x_step=1000.0)
        assert far_right.split_position(g) == g.x0 + g.length

    def test_validation(self):
        with pytest.raises(ValueError):
            PotentialProfile(coupling="vector", kind="ramp")
        with pytest.raises(ValueError):
            PotentialProfile(coupling="vector", smoothing=-1.0)
        with pytest.raises(ValueError):
            PotentialProfile(coupling="chiral")

    @pytest.mark.parametrize("field", ["v0", "x_step", "smoothing"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_parameters(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            PotentialProfile(coupling="vector", **{field: value})


class TestWavePacketState:
    def test_shape_check_and_immutability(self):
        g = Grid(n=256, length=32.0)
        psi = np.zeros((2, 256), dtype=complex)
        psi[0, 100] = 1.0
        state = WavePacketState(g, psi, 0.0, 1.0)
        with pytest.raises(ValueError):
            state.psi[0, 0] = 1.0
        psi[0, 100] = 5.0  # the state holds its own copy
        assert state.psi[0, 100] == 1.0
        with pytest.raises(ValueError):
            WavePacketState(g, np.zeros((2, 128), dtype=complex), 0.0, 1.0)
        with pytest.raises(ValueError):
            WavePacketState(g, psi, 0.0, -1.0)

    def test_norm(self):
        g = Grid(n=256, length=32.0)
        psi = np.zeros((2, 256), dtype=complex)
        psi[0, 10] = 1.0 / math.sqrt(g.dx)
        state = WavePacketState(g, psi, 0.0, 1.0)
        assert np.isclose(state.norm(), 1.0, rtol=0, atol=1e-14)


class TestGaussianPacket:
    def test_normalized(self):
        g = Grid(n=512, length=100.0)
        state = gaussian_packet(g, x_c=-20.0, k_c=1.0, sigma=4.0, m0=1.0)
        assert abs(state.norm() - 1.0) <= 1e-12

    def test_starts_on_the_left(self):
        g = Grid(n=512, length=100.0)
        state = gaussian_packet(g, x_c=-20.0, k_c=1.0, sigma=3.0, m0=1.0)
        rec = measure(state, 0.0)
        assert rec.p_left >= 1.0 - 1e-6
        assert abs(rec.mean_x - (-20.0)) <= 0.05

    def test_central_mode_carries_positive_energy_spinor(self):
        g = Grid(n=512, length=100.0)
        m0 = 1.0
        k_c = math.sqrt(3.0)  # E_c = 2
        state = gaussian_packet(g, x_c=-20.0, k_c=k_c, sigma=4.0, m0=m0)
        psi_k = np.fft.fft(state.psi, axis=1)
        idx = int(np.argmin(np.abs(g.k - k_c)))
        k_mode = g.k[idx]
        expected = k_mode / (math.hypot(k_mode, m0) + m0)
        ratio = psi_k[1, idx] / psi_k[0, idx]
        assert abs(ratio - expected) <= 1e-12
        # and the closed-form kinematic factor at the nominal center
        assert abs(ratio - math.sqrt((2.0 - m0) / (2.0 + m0))) <= 0.02

    def test_preconditions(self):
        g = Grid(n=512, length=100.0)
        with pytest.raises(ValueError, match="under-resolved"):
            gaussian_packet(g, x_c=-20.0, k_c=1.0, sigma=0.5, m0=1.0)
        with pytest.raises(ValueError, match="domain edge"):
            gaussian_packet(g, x_c=-45.0, k_c=1.0, sigma=4.0, m0=1.0)
        with pytest.raises(ValueError, match="wavenumber"):
            gaussian_packet(g, x_c=-20.0, k_c=0.0, sigma=4.0, m0=1.0)
        with pytest.raises(ValueError, match="mass"):
            gaussian_packet(g, x_c=-20.0, k_c=1.0, sigma=4.0, m0=-1.0)

    @pytest.mark.parametrize("field", ["x_c", "k_c", "sigma", "m0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_parameters(self, field, value):
        g = Grid(n=512, length=100.0)
        params = dict(x_c=-20.0, k_c=1.0, sigma=4.0, m0=1.0)
        params[field] = value
        with pytest.raises(ValueError, match="finite"):
            gaussian_packet(g, **params)


class TestFreePropagator:
    def test_norm_preserved(self):
        g = Grid(n=512, length=100.0)
        state = gaussian_packet(g, x_c=-20.0, k_c=1.2, sigma=4.0, m0=1.0)
        out = free_step(state, 0.37)
        assert abs(out.norm() - 1.0) <= 1e-13

    def test_composition_matches_single_application(self):
        g = Grid(n=512, length=100.0)
        state = gaussian_packet(g, x_c=-20.0, k_c=1.2, sigma=4.0, m0=1.0)
        twice = free_step(free_step(state, 0.2), 0.2)
        once = free_step(state, 0.4)
        assert np.max(np.abs(twice.psi - once.psi)) <= 1e-13

    def test_massless_plane_waves_advect_with_pure_phase(self):
        g = Grid(n=256, length=32.0)
        j = 3
        k = 2.0 * np.pi * j / g.length
        wave = np.exp(1j * k * g.x) / math.sqrt(2.0 * g.length)
        dt = 0.7
        # sigma_x eigenspinor (1, 1): energy +k
        plus = WavePacketState(g, np.stack([wave, wave]), 0.0, 0.0)
        out = free_step(plus, dt)
        assert np.max(np.abs(out.psi - plus.psi * np.exp(-1j * k * dt))) <= 1e-13
        # sigma_x eigenspinor (1, -1): energy -k
        minus = WavePacketState(g, np.stack([wave, -wave]), 0.0, 0.0)
        out = free_step(minus, dt)
        assert np.max(np.abs(out.psi - minus.psi * np.exp(1j * k * dt))) <= 1e-13

    def test_rejects_nonpositive_dt(self):
        g = Grid(n=256, length=32.0)
        state = WavePacketState(g, np.zeros((2, 256), dtype=complex), 0.0, 1.0)
        prof = PotentialProfile(coupling="vector", kind="zero")
        for dt in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                evolve(state, prof, dt, 1)


class TestPotentialPropagator:
    def _random_state(self, grid: Grid, seed: int) -> WavePacketState:
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=(2, grid.n)) + 1j * rng.normal(size=(2, grid.n))
        return WavePacketState(grid, psi, 0.0, 1.0)

    def test_zero_potential_is_bitwise_identity(self):
        g = Grid(n=256, length=32.0)
        state = self._random_state(g, 0)
        prof = PotentialProfile(coupling="vector", kind="zero")
        out = kick(state, prof, 0.3)
        assert np.array_equal(out.psi, state.psi)

    def test_constant_vector_potential_is_global_phase(self):
        g = Grid(n=256, length=32.0)
        state = self._random_state(g, 1)
        v0, dt = 0.8, 0.3
        prof = PotentialProfile(coupling="vector", v0=v0, x_step=g.x0 - 0.5 * g.dx)
        out = kick(state, prof, dt)
        assert np.array_equal(out.psi, state.psi * np.exp(-1j * v0 * dt))

    @pytest.mark.parametrize("coupling", ["vector", "scalar", "pseudoscalar"])
    def test_matches_matrix_exponential_oracle(self, coupling):
        g = Grid(n=256, length=32.0)
        state = self._random_state(g, 2)
        prof = PotentialProfile(coupling=coupling, v0=1.3, x_step=-2.0, smoothing=1.0)
        dt = 0.4
        out = kick(state, prof, dt)
        # independent route: diagonalize theta * Gamma at every grid point
        theta = prof.values(g.x) * dt
        gamma = Coupling(coupling).matrix
        h = theta[:, None, None] * gamma[None, :, :]
        w, v = np.linalg.eigh(h)
        u = np.einsum("nij,nj,nkj->nik", v, np.exp(-1j * w), v.conj())
        expected = np.einsum("nik,kn->in", u, state.psi)
        assert np.max(np.abs(out.psi - expected)) <= 1e-12

    def test_pseudoscalar_rotates_components(self):
        g = Grid(n=256, length=32.0)
        psi = np.zeros((2, g.n), dtype=complex)
        psi[0, :] = 1.0
        state = WavePacketState(g, psi, 0.0, 1.0)
        # constant pseudoscalar potential with theta = pi/2: (1,0) -> (0,1)
        v0, dt = 1.0, math.pi / 2
        prof = PotentialProfile(coupling="pseudoscalar", v0=v0, x_step=g.x0 - 0.5 * g.dx)
        out = kick(state, prof, dt)
        assert np.max(np.abs(out.psi[0])) <= 1e-15
        assert np.max(np.abs(out.psi[1] - 1.0)) <= 1e-15

    def test_pseudoscalar_kick_is_the_complex_product(self):
        """The pseudoscalar kick's cos(theta) and -+sin(theta) rows: applying
        them is bitwise the complex product, with equal rows merged.  Vector
        and scalar kicks are diagonal."""
        g = Grid(n=256, length=32.0)
        prof = PotentialProfile(coupling="pseudoscalar", v0=1.3, x_step=-2.0, smoothing=1.0)
        diag, off = _kick_factor(prof, g, 0.4)
        assert diag.shape == (g.n,) and off.shape == (2, g.n)
        state = self._random_state(g, 3)
        expected = diag * state.psi + off * state.psi[::-1]
        assert np.array_equal(kick(state, prof, 0.4).psi, expected)
        for coupling in ("vector", "scalar"):
            _, off = _kick_factor(PotentialProfile(coupling=coupling, v0=1.3), g, 0.4)
            assert off is None

    @pytest.mark.parametrize("coupling", ["vector", "scalar", "pseudoscalar"])
    def test_coefficient_fields_are_complex128(self, coupling):
        """Every kick and free field is complex128, like psi, so applying
        one never casts."""
        g = Grid(n=256, length=32.0)
        profile = PotentialProfile(coupling=coupling, v0=1.3, x_step=-2.0, smoothing=1.0)
        for m0 in (0.0, 1.0):
            factors = (_kick_factor(profile, g, 0.4), _free_factor(g, m0, 0.4))
            fields = [field for factor in factors for field in factor if field is not None]
            assert fields and all(field.dtype == np.complex128 for field in fields)


class TestMeasure:
    def test_partition_is_exact(self):
        g = Grid(n=512, length=100.0)
        state = gaussian_packet(g, x_c=-10.0, k_c=1.0, sigma=4.0, m0=1.0)
        rec = measure(state, 3.7)
        assert rec.norm == rec.p_left + rec.p_right
        assert abs(rec.norm - state.norm()) <= 1e-14

    def test_split_and_nearest_point_match_mask_and_argmin(self):
        """The sorted-grid split gives bitwise the sums over the mask
        x < x_split and the argmin nearest point, at grid points, midpoints,
        both domain edges and splits past the last grid point."""
        for n in (256, 16384):
            g = Grid(n=n, length=100.0)
            state = gaussian_packet(g, x_c=-10.0, k_c=1.0, sigma=4.0, m0=1.0)
            x, (up, dn) = g.x, state.psi
            dens = (np.abs(up) ** 2 + np.abs(dn) ** 2) * g.dx
            inner = [1, 2, n // 3, n // 2, n - 2]
            splits = ([g.x0, g.x0 + g.length, x[-1] + 0.25 * g.dx, x[-1] + 0.5 * g.dx,
                       x[0] + 0.5 * g.dx, x[-1]]
                      + [x[i] for i in inner]
                      + [0.5 * (x[i - 1] + x[i]) for i in inner]
                      + [np.nextafter(x[i], -np.inf) for i in inner]
                      + [np.nextafter(x[i], np.inf) for i in inner])
            for x_split in map(float, splits):
                rec = measure(state, x_split)
                left = x < x_split
                idx = int(np.argmin(np.abs(x - x_split)))
                assert rec.p_left == float(np.sum(dens[left])), x_split
                assert rec.p_right == float(np.sum(dens[~left])), x_split
                assert rec.current_at_step == float(2.0 * (np.conj(up[idx]) * dn[idx]).real)

    def test_split_outside_domain_raises(self):
        g = Grid(n=512, length=100.0)
        state = gaussian_packet(g, x_c=-10.0, k_c=1.0, sigma=4.0, m0=1.0)
        with pytest.raises(ValueError, match="outside"):
            measure(state, -51.0)

    def test_current_integral_matches_probability_transfer(self):
        """Continuity: integrating the flux through x = 0 over the crossing
        reproduces the change in right-side probability."""
        g = Grid(n=512, length=100.0)
        m0 = 1.0
        k_c = math.sqrt(1.25)  # E_c = 1.5, v = 0.7454
        state = gaussian_packet(g, x_c=-15.0, k_c=k_c, sigma=4.0, m0=m0)
        prof = PotentialProfile(coupling="vector", kind="zero")
        dt, n_steps = 0.08, 500
        final, records = evolve(state, prof, dt, n_steps, record_every=1)
        currents = np.array([r.current_at_step for r in records])
        flux_integral = float(np.sum(currents[1:] + currents[:-1]) * 0.5 * dt)
        transferred = records[-1].p_right - records[0].p_right
        assert transferred > 0.9
        assert abs(flux_integral - transferred) <= 2e-3


class TestEvolve:
    def test_long_free_run_conserves_norm(self):
        g = Grid(n=512, length=100.0)
        state = gaussian_packet(g, x_c=-20.0, k_c=1.5, sigma=4.0, m0=1.0)
        prof = PotentialProfile(coupling="vector", kind="zero")
        with pytest.warns(WrappedWarning):  # t = 500 crosses the domain of 100 often
            final, records = evolve(state, prof, 0.05, 10_000, record_every=2000)
        assert abs(final.norm() - 1.0) <= 1e-10
        assert all(abs(r.norm - 1.0) <= 1e-10 for r in records)

    def test_free_packet_moves_at_group_velocity(self):
        g = Grid(n=512, length=100.0)
        m0 = 1.0
        k_c = math.sqrt(1.25)  # E_c = 1.5
        v_expected = k_c / 1.5  # 0.745356
        state = gaussian_packet(g, x_c=-20.0, k_c=k_c, sigma=4.0, m0=m0)
        prof = PotentialProfile(coupling="vector", kind="zero")
        t_total = 32.0
        final, records = evolve(state, prof, 0.08, 400, record_every=400)
        v_measured = (records[-1].mean_x - records[0].mean_x) / t_total
        assert abs(v_measured - v_expected) / v_expected <= 0.01

    def test_record_schedule_and_callback(self):
        g = Grid(n=512, length=100.0)
        state = gaussian_packet(g, x_c=-20.0, k_c=1.0, sigma=4.0, m0=1.0)
        prof = PotentialProfile(coupling="vector", kind="zero")
        seen = []
        final, records = evolve(
            state, prof, 0.05, 25, record_every=10,
            on_record=lambda s, step: seen.append((step, s.time)),
        )
        assert [r.step for r in records] == [0, 10, 20, 25]
        assert seen == [(s, s * 0.05) for s in (0, 10, 20, 25)]
        assert np.isclose(records[-1].time, 1.25, rtol=0, atol=1e-12)
        assert np.isclose(final.time, 1.25, rtol=0, atol=1e-12)

    def test_nonfinite_field_aborts(self):
        g = Grid(n=256, length=32.0)
        psi = np.full((2, 256), np.nan, dtype=complex)
        state = WavePacketState(g, psi, 0.0, 1.0)
        prof = PotentialProfile(coupling="vector", kind="zero")
        with pytest.raises(FloatingPointError, match="step 1"):
            evolve(state, prof, 0.05, 10)

    def test_nonfinite_field_detected_at_the_first_record_point(self):
        g = Grid(n=256, length=32.0)
        psi = np.zeros((2, 256), dtype=complex)
        psi[0, 7] = np.inf
        state = WavePacketState(g, psi, 0.0, 1.0)
        prof = PotentialProfile(coupling="vector", kind="zero")
        with np.errstate(all="ignore"), \
                pytest.raises(FloatingPointError, match="detected by step 3$"):
            evolve(state, prof, 0.05, 10, record_every=3)

    @pytest.mark.parametrize("prof", [
        PotentialProfile(coupling="vector", v0=1.3, x_step=-15.0, smoothing=1.0),
        PotentialProfile(coupling="scalar", v0=1.3, x_step=-15.0, smoothing=1.0),
        PotentialProfile(coupling="pseudoscalar", v0=1.3, x_step=-15.0, smoothing=1.0),
        PotentialProfile(coupling="vector", kind="zero"),
        PotentialProfile(coupling="vector", v0=1.3, x_step=-1000.0),
        PotentialProfile(coupling="scalar", v0=1.3, x_step=-1000.0),
        PotentialProfile(coupling="pseudoscalar", v0=1.3, x_step=-1000.0),
    ], ids=["vector", "scalar", "pseudoscalar", "zero", "uniform-vector", "uniform-scalar",
            "uniform-pseudoscalar"])
    def test_fused_kicks_match_unfused_strang_steps(self, prof):
        """Every recorded state equals kick(dt/2) . free(dt) . kick(dt/2)
        applied step by step, for records on and off the record_every grid.
        This grid's band check falls every 78 steps, so the 100-step run
        also records after a band reading that is not a record point (78,
        between 77 and 84).  A uniform scalar or pseudoscalar potential does
        not commute with H0, so its Strang states leave the exact ones and
        an exact jump fails."""
        g = Grid(n=512, length=100.0)
        state = gaussian_packet(g, x_c=-20.0, k_c=1.5, sigma=4.0, m0=1.0)
        dt, refs = 0.08, [state]
        for _ in range(100):
            refs.append(kick(free_step(kick(refs[-1], prof, 0.5 * dt), dt), prof, 0.5 * dt))
        for n_steps in (30, 100):
            seen = {}
            final, records = evolve(state, prof, dt, n_steps, record_every=7,
                                    on_record=lambda s, step: seen.__setitem__(step, s.psi))
            assert sorted(seen) == [*range(0, n_steps, 7), n_steps]
            for step, psi in seen.items():
                assert np.max(np.abs(psi - refs[step].psi)) <= 1e-13
            assert np.array_equal(final.psi, seen[n_steps])

    @pytest.mark.parametrize("profile", [
        PotentialProfile(coupling="vector", kind="zero"),
        PotentialProfile(coupling="scalar", v0=0.0, x_step=3.0),
    ], ids=["zero", "step-of-height-0"])
    def test_zero_potential_run_is_the_free_factor_alone(self, profile):
        """A zero potential is not kicked: the run is bitwise one free factor
        for the whole time, applied once in momentum space, and within
        roundoff of the loop of n free Strang steps."""
        g = Grid(n=512, length=100.0)
        state = gaussian_packet(g, x_c=-20.0, k_c=1.5, sigma=4.0, m0=1.0)
        dt, n_steps = 0.05, 37
        final, _ = evolve(state, profile, dt, n_steps, record_every=10)
        psi_k = np.fft.fft(state.psi, axis=1)
        _apply(_free_factor(g, state.m0, n_steps * dt), psi_k)
        assert np.array_equal(final.psi, np.fft.ifft(psi_k, axis=1))
        free = _free_factor(g, state.m0, dt)
        psi = np.array(state.psi)
        for _ in range(n_steps):
            psi = np.fft.fft(psi, axis=1)
            _apply(free, psi)
            psi = np.fft.ifft(psi, axis=1)
        assert np.max(np.abs(final.psi - psi)) <= 1e-12

    @pytest.mark.parametrize("prof", [
        PotentialProfile(coupling="vector", kind="zero"),
        PotentialProfile(coupling="vector", v0=0.5, x_step=-1000.0),
    ], ids=["zero", "uniform-vector"])
    def test_uniform_run_keeps_the_norm_at_roundoff(self, prof):
        """A zero or uniform vector potential is one unitary per momentum
        mode for the whole run, so its norm does not drift with the steps."""
        g = Grid(n=512, length=100.0)
        state = gaussian_packet(g, x_c=-20.0, k_c=1.5, sigma=4.0, m0=1.0)
        with pytest.warns(WrappedWarning):  # t = 250 crosses the domain of 100
            _, records = evolve(state, prof, 0.05, 5000, record_every=500)
        assert len(records) == 11
        assert max(abs(r.norm - 1.0) for r in records) <= 1e-14

    @pytest.mark.parametrize("prof", [
        PotentialProfile(coupling="vector", v0=0.5),
        PotentialProfile(coupling="vector", kind="zero"),
        PotentialProfile(coupling="vector", v0=0.5, x_step=-1000.0),
    ], ids=["step", "zero", "uniform-vector"])
    @pytest.mark.parametrize("x_c,wraps", [(-30.0, False), (30.0, True)],
                             ids=["moving-away", "moving-towards"])
    def test_packet_at_the_minimum_edge_gap(self, x_c, wraps, prof):
        """A packet 5 sigma from an edge, as close as gaussian_packet allows,
        starts with its tail in the edge band: only a gain over that start
        counts, so moving away from the edge does not wrap."""
        g = Grid(n=512, length=100.0)
        state = gaussian_packet(g, x_c=x_c, k_c=math.sqrt(3.0), sigma=4.0, m0=1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evolve(state, prof, 0.08, 300, record_every=100)
        assert [w.category for w in caught] == ([WrappedWarning] if wraps else [])

    def test_oversized_dt_warns_but_runs(self):
        g = Grid(n=256, length=32.0)  # dx = 0.125
        state = gaussian_packet(g, x_c=-8.0, k_c=1.0, sigma=1.0, m0=1.0)
        prof = PotentialProfile(coupling="vector", v0=0.5)
        with pytest.warns(UserWarning, match="splitting"):
            final, records = evolve(state, prof, 0.5, 2, record_every=1)
        assert abs(final.norm() - 1.0) <= 1e-12

    @pytest.mark.parametrize("prof", [
        PotentialProfile(coupling="vector", kind="zero"),
        PotentialProfile(coupling="vector", v0=0.5, x_step=-1000.0),
    ], ids=["zero", "uniform-vector"])
    def test_oversized_dt_without_steps_does_not_warn(self, prof):
        """A zero or uniform vector potential jumps exactly, with no
        splitting error for dt to grow: the same run as above is silent."""
        g = Grid(n=256, length=32.0)
        state = gaussian_packet(g, x_c=-8.0, k_c=1.0, sigma=1.0, m0=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            final, _ = evolve(state, prof, 0.5, 2, record_every=1)
        assert abs(final.norm() - 1.0) <= 1e-12

    def test_validation(self):
        g = Grid(n=256, length=32.0)
        state = gaussian_packet(g, x_c=-8.0, k_c=1.0, sigma=1.0, m0=1.0)
        prof = PotentialProfile(coupling="vector", kind="zero")
        with pytest.raises(ValueError):
            evolve(state, prof, 0.0, 10)
        with pytest.raises(ValueError):
            evolve(state, prof, 0.05, 0)
        with pytest.raises(ValueError):
            evolve(state, prof, 0.05, 10, record_every=0)


class TestStepPhysics:
    def test_klein_regime_transmits_vector_but_not_scalar(self):
        """V0 = 4 with E_c = 2, m0 = 1 sits deep in the Klein zone for a
        vector step (supercritical) and deep under the barrier for a scalar
        step (mass grows to 5).  A packet should tunnel appreciably through
        the former and essentially not at all through the latter."""
        g = Grid(n=1024, length=200.0)
        m0 = 1.0
        k_c = math.sqrt(3.0)  # E_c = 2
        dt, n_steps = 0.08, 750  # T = 60; packet reaches the step at t ~ 46
        results = {}
        for coupling in ("vector", "scalar"):
            state = gaussian_packet(g, x_c=-40.0, k_c=k_c, sigma=5.0, m0=m0)
            prof = PotentialProfile(
                coupling=coupling, v0=4.0, x_step=0.0, smoothing=2 * g.dx
            )
            final, records = evolve(state, prof, dt, n_steps, record_every=n_steps)
            assert abs(records[-1].norm - 1.0) <= 1e-12
            results[coupling] = records[-1].p_right
        assert results["vector"] >= 0.01
        assert results["scalar"] <= 1e-3

    def test_constant_scalar_potential_shifts_the_mass(self):
        """A uniform scalar potential V0 acts as a mass shift m0 -> m0 + V0,
        so the packet slows to k_c / sqrt(k_c^2 + (m0+V0)^2)."""
        g = Grid(n=512, length=100.0)
        m0, v0 = 1.0, 0.2
        k_c = math.sqrt(3.0)
        v_expected = k_c / math.hypot(k_c, m0 + v0)
        state = gaussian_packet(g, x_c=-20.0, k_c=k_c, sigma=4.0, m0=m0)
        prof = PotentialProfile(coupling="scalar", v0=v0, x_step=g.x0 - 0.5 * g.dx)
        t_total = 24.0
        # the packet's negative-energy part moves left into the edge band
        with pytest.warns(WrappedWarning):
            final, records = evolve(state, prof, 0.08, 300, record_every=300)
        v_measured = (records[-1].mean_x - records[0].mean_x) / t_total
        assert abs(v_measured - v_expected) / v_expected <= 0.01


class TestCsvWriters:
    def test_observables_round_trip(self):
        g = Grid(n=512, length=100.0)
        state = gaussian_packet(g, x_c=-20.0, k_c=1.0, sigma=4.0, m0=1.0)
        prof = PotentialProfile(coupling="vector", kind="zero")
        final, records = evolve(state, prof, 0.05, 20, record_every=10)
        buf = io.StringIO()
        observables_to_csv(records, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == OBSERVABLES_CSV_HEADER
        assert len(lines) == len(records) + 1
        for line, rec in zip(lines[1:], records):
            fields = line.split(",")
            assert int(fields[0]) == rec.step
            assert float(fields[1]) == rec.time
            assert float(fields[2]) == rec.norm
            assert float(fields[5]) == rec.p_right
            values = (rec.time, rec.norm, rec.mean_x, rec.p_left, rec.p_right,
                      rec.current_at_step)
            assert fields == [str(rec.step)] + [format(v, ".17g") for v in values]

    def test_snapshot_round_trip(self):
        g = Grid(n=256, length=32.0)
        state = gaussian_packet(g, x_c=-8.0, k_c=1.0, sigma=1.0, m0=1.0)
        buf = io.StringIO()
        snapshot_to_csv(state, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == SNAPSHOT_CSV_HEADER
        assert len(lines) == g.n + 1
        first = lines[1].split(",")
        assert float(first[0]) == g.x[0]
        assert float(first[1]) == state.psi[0, 0].real
        assert float(first[2]) == state.psi[0, 0].imag
        up, dn = state.psi
        for line, x, u, d in zip(lines[1:], g.x, up, dn):
            values = (x, u.real, u.imag, d.real, d.imag)
            assert line.split(",") == [format(v, ".17g") for v in values]
