"""Split-step spectral time evolution for the 1+1D Dirac equation.

The Hamiltonian is H = sigma_x p + sigma_z m0 + Gamma * V(x), with Gamma
the coupling matrix (identity / sigma_z / sigma_y for vector / scalar /
pseudoscalar).  One Strang step of size dt is

    exp(-i V Gamma dt/2) . exp(-i H0 dt) . exp(-i V Gamma dt/2)

where both factors are exact closed-form 2x2 unitaries of the form
c * 1 - i s * h: the free factor acts per momentum mode, the potential
factor per grid point (every coupling matrix squares to 1, so
exp(-i theta Gamma) = cos theta - i sin theta Gamma).  Each factor is built
once per run as coefficient fields and applied to the field in place.
Every substep is therefore unitary and the norm is conserved to roundoff;
the splitting error is O(dt^2) in observables.  Spatial derivatives are
spectral (FFT), so there is no fermion doubling.

Between the steps the run reads (records, band checks and the final
step) the two adjacent half-kicks of consecutive steps are fused into one
full kick, so a run of n steps costs n kicks plus one per reading, not 2n;
every reading ends on a trailing half-kick, so every field read is the
Strang state to roundoff.

When the potential factor is one number at every grid point and commutes
with H0 (a zero potential under any coupling, or a vector potential that is
uniform over the grid, such as a step left of the domain), n Strang steps
are exactly exp(-i V n dt) exp(-i H0 n dt) per momentum mode.  Such a run
transforms the initial field once and jumps from it to each step it reads,
at the cost of one inverse FFT there, and takes no steps.  A uniform scalar
or pseudoscalar potential does not commute with H0, so it still steps and
keeps the splitting error of Strang.

Finiteness is checked at record points only: a NaN or inf spreads over the
whole field through the FFT, so a fault is still caught, and reported as
"detected by step N" with N the record point that caught it.  Non-finite
parameters (grid, profile, packet or dt) are refused with ValueError before
any step runs.  A run that wrapped around the periodic domain, or whose
waves the grid cannot carry, ends with a WrappedWarning or an
UnresolvedWarning.

A wave packet is stored as a (2, N) complex field on a uniform periodic
grid.  Packets are initialized in momentum space as superpositions of
positive-energy free spinors, which suppresses zitterbewegung and makes
packet-level reflection/transmission directly comparable to the
plane-wave coefficients of the scattering module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Callable, Literal

import numpy as np

from .scattering import Coupling


_BANDS, _THRESHOLD = 16, 1e-4  # trust bands of n/16 points; the probability they may gain


class WrappedWarning(UserWarning):
    """Waves crossed the periodic edge: p_left and p_right mix both ends."""


class UnresolvedWarning(UserWarning):
    """The run's wavenumbers reach pi/dx, past what the grid carries."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic spatial grid.

    n must be a power of two (>= 256) for the FFT sizes this module is
    tuned for; the domain is [x0, x0 + length) with x0 = -length/2, centred
    on 0.  Wavenumbers are k_j = 2*pi*j/length, j in [-n/2, n/2).
    The coordinate arrays x and k are computed once per grid and are
    read-only.
    """

    n: int
    length: float

    def __post_init__(self):
        if self.n < 256 or self.n & (self.n - 1) != 0:
            raise ValueError(f"n must be a power of two >= 256, got {self.n}")
        if not (self.length > 0 and math.isfinite(self.length)):
            raise ValueError(f"domain length must be positive and finite, got {self.length}")

    @property
    def x0(self) -> float:
        return -0.5 * self.length

    @property
    def dx(self) -> float:
        return self.length / self.n

    @cached_property
    def x(self) -> np.ndarray:
        return _read_only(self.x0 + self.dx * np.arange(self.n))

    @cached_property
    def k(self) -> np.ndarray:
        return _read_only(2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PotentialProfile:
    """Potential landscape V(x) and the Lorentz channel it couples through.

    kind "step": V(x) = v0 * theta(x - x_step) for smoothing = 0 (value
    v0/2 exactly at the step point), or v0 * (1 + tanh((x-x_step)/w))/2
    for smoothing w > 0.  kind "zero": V = 0 everywhere.
    """

    coupling: Coupling
    kind: Literal["step", "zero"] = "step"
    v0: float = 0.0
    x_step: float = 0.0
    smoothing: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "coupling", Coupling(self.coupling))
        if self.kind not in ("step", "zero"):
            raise ValueError(f"kind must be 'step' or 'zero', got {self.kind!r}")
        if not all(map(math.isfinite, (self.v0, self.x_step, self.smoothing))):
            raise ValueError(
                f"v0, x_step and smoothing must be finite, got v0={self.v0}, "
                f"x_step={self.x_step}, smoothing={self.smoothing}"
            )
        if self.smoothing < 0:
            raise ValueError(f"smoothing width must be nonnegative, got {self.smoothing}")

    def values(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.smoothing == 0.0:
            return self.v0 * np.heaviside(x - self.x_step, 0.5)
        return self.v0 * 0.5 * (1.0 + np.tanh((x - self.x_step) / self.smoothing))

    def split_position(self, grid: Grid) -> float:
        """Where left/right probabilities are split: the step, or mid-domain.

        A step lying outside the domain (e.g. a constant potential realized
        as a step left of every grid point) clamps to the nearest edge, so
        everything counts as being on the appropriate side.
        """
        if self.kind == "zero":
            return grid.x0 + 0.5 * grid.length
        return min(max(self.x_step, grid.x0), grid.x0 + grid.length)


@dataclass(frozen=True)
class WavePacketState:
    """Two-component spinor field on a grid at one instant.

    psi has shape (2, grid.n): psi[0] is the upper component, psi[1] the
    lower.  The state stores the mass because the free propagator needs
    it; it is fixed at packet creation.  The array is copied in and
    frozen, so states are immutable values.
    """

    grid: Grid
    psi: np.ndarray
    time: float
    m0: float

    def __post_init__(self):
        psi = np.array(self.psi, dtype=complex)
        if psi.shape != (2, self.grid.n):
            raise ValueError(f"psi must have shape (2, {self.grid.n}), got {psi.shape}")
        if self.m0 < 0:
            raise ValueError(f"mass must be nonnegative, got {self.m0}")
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)

    def norm(self) -> float:
        dens = np.abs(self.psi[0]) ** 2 + np.abs(self.psi[1]) ** 2
        return float(np.sum(dens)) * self.grid.dx


@dataclass(frozen=True)
class ObservableRecord:
    step: int
    time: float
    norm: float
    mean_x: float
    p_left: float
    p_right: float
    current_at_step: float


def gaussian_packet(
    grid: Grid, x_c: float, k_c: float, sigma: float, m0: float
) -> WavePacketState:
    """Normalized Gaussian packet of positive-energy free spinors.

    The scalar envelope exp(-(x-x_c)^2/(4 sigma^2)) * exp(i k_c x) is built
    in position space, transformed, and each momentum mode is dressed with
    the normalized positive-energy spinor

        u(k) = (1, k/(E_k + m0)) / sqrt(1 + (k/(E_k+m0))^2),
        E_k = sqrt(k^2 + m0^2),

    so the packet contains no negative-energy admixture and moves with
    group velocity ~ k_c/E_c.  Preconditions: sigma >= 4 dx (momentum
    content resolved), x_c at least 5 sigma from both edges (periodic
    wrap-around negligible), k_c > 0 (right-moving), all four finite.
    """
    if not all(map(math.isfinite, (x_c, k_c, sigma, m0))):
        raise ValueError(
            f"x_c, k_c, sigma and m0 must be finite, got x_c={x_c}, k_c={k_c}, "
            f"sigma={sigma}, m0={m0}"
        )
    if m0 < 0:
        raise ValueError(f"mass must be nonnegative, got {m0}")
    if not k_c > 0:
        raise ValueError(f"central wavenumber must be positive, got {k_c}")
    if sigma < 4 * grid.dx:
        raise ValueError(
            f"packet under-resolved: sigma={sigma} < 4*dx={4 * grid.dx} "
            f"(grid n={grid.n}, length={grid.length})"
        )
    left_gap = x_c - grid.x0
    right_gap = grid.x0 + grid.length - x_c
    if left_gap < 5 * sigma or right_gap < 5 * sigma:
        raise ValueError(
            f"packet too close to the domain edge: x_c={x_c} leaves gaps "
            f"({left_gap}, {right_gap}) but 5*sigma={5 * sigma} is required"
        )
    x = grid.x
    envelope = np.exp(-((x - x_c) ** 2) / (4.0 * sigma * sigma) + 1j * k_c * x)
    phi = np.fft.fft(envelope)
    k = grid.k
    e_k = np.hypot(k, m0)
    denom = e_k + m0
    # k/(E+m0); the 0/0 at k=0 with m0=0 has zero weight, define it as 0.
    ratio = np.divide(k, denom, out=np.zeros_like(k), where=denom > 0)
    spinor_norm = np.sqrt(1.0 + ratio * ratio)
    psi_k = np.stack([phi / spinor_norm, phi * ratio / spinor_norm])
    psi = np.fft.ifft(psi_k, axis=1)
    total = np.sum(np.abs(psi[0]) ** 2 + np.abs(psi[1]) ** 2) * grid.dx
    psi /= np.sqrt(total)
    return WavePacketState(grid=grid, psi=psi, time=0.0, m0=m0)


# A factor is the 2x2 matrix field [[d0, o0], [o1, d1]] held as two
# coefficient fields, diag = (d0, d1) and off = (o0, o1), each (2, N), or
# (N,) when its two rows agree; off is None when the matrix is diagonal
# everywhere.
_Factor = tuple[np.ndarray, "np.ndarray | None"]


def _unitary(c: np.ndarray, s: np.ndarray, h) -> _Factor:
    """The factor c * 1 - i s * h for a 2x2 (field of) matrices h."""
    diag = _rows(c - 1j * s * h[0][0], c - 1j * s * h[1][1])
    off = _rows(-1j * s * h[0][1], -1j * s * h[1][0])
    return diag, (off if off.any() else None)


def _rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # one row broadcasts over both components and halves the field's memory
    return a if np.array_equal(a, b) else np.stack([a, b])


def _free_factor(grid: Grid, m0: float, dt: float) -> _Factor:
    """Exact per-mode free propagator exp(-i (sigma_x k + sigma_z m0) dt).

    exp(-i H0 dt) = cos(w dt) I - i sin(w dt)/w (sigma_x k + sigma_z m0),
    w = sqrt(k^2 + m0^2); the w = 0 mode (k = 0, massless) is the identity.
    """
    k = grid.k
    omega = np.hypot(k, m0)
    s_over_omega = np.divide(
        np.sin(omega * dt), omega, out=np.zeros_like(omega), where=omega > 0
    )
    return _unitary(np.cos(omega * dt), s_over_omega, ((m0, k), (k, -m0)))


def _kick_factor(profile: PotentialProfile, grid: Grid, dt: float) -> _Factor:
    """Exact per-point potential propagator exp(-i V(x) Gamma dt).

    Gamma^2 = 1 for every coupling, so the exponential is
    cos(theta) I - i sin(theta) Gamma with theta = V dt; cos and sin are
    read off exp(-i theta), so a vector kick is exactly that phase.
    """
    phase = np.exp(-1j * (profile.values(grid.x) * dt))
    return _unitary(phase.real, -phase.imag, profile.coupling.matrix)


def _apply(factor: _Factor, psi: np.ndarray) -> None:
    """psi <- factor . psi at every column of the (2, N) field, in place."""
    diag, off = factor
    if off is None:
        psi *= diag
        return
    swapped = off * psi[::-1]
    psi *= diag
    psi += swapped


def measure(state: WavePacketState, x_split: float, step: int = 0) -> ObservableRecord:
    """Norm, mean position, left/right probabilities, current at the split.

    p_left collects density at x < x_split, p_right the rest; their sum is
    the norm by construction.  The current is the density flux psi^dag
    sigma_x psi = 2 Re(conj(up) dn) at the grid point nearest x_split.
    """
    grid = state.grid
    if not grid.x0 <= x_split <= grid.x0 + grid.length:
        raise ValueError(f"x_split={x_split} outside the domain")
    x = grid.x
    up, dn = state.psi
    dens = (np.abs(up) ** 2 + np.abs(dn) ** 2) * grid.dx
    # x is sorted, so x < x_split holds exactly on x[:split]
    split = int(np.searchsorted(x, x_split))
    p_left = float(np.sum(dens[:split]))
    p_right = float(np.sum(dens[split:]))
    norm = p_left + p_right
    mean_x = float(np.sum(x * dens) / norm)
    # nearest of the two neighbours of x_split, the lower one on a tie
    lo, hi = max(split - 1, 0), min(split, grid.n - 1)
    idx = lo if abs(x[lo] - x_split) <= abs(x[hi] - x_split) else hi
    current = float(2.0 * (np.conj(up[idx]) * dn[idx]).real)
    return ObservableRecord(
        step=step,
        time=state.time,
        norm=norm,
        mean_x=mean_x,
        p_left=p_left,
        p_right=p_right,
        current_at_step=current,
    )


def evolve(
    state: WavePacketState,
    profile: PotentialProfile,
    dt: float,
    n_steps: int,
    record_every: int = 10,
    on_record: Callable[[WavePacketState, int], None] | None = None,
) -> tuple[WavePacketState, list[ObservableRecord]]:
    """Run n_steps Strang steps, recording observables along the way.

    Records are taken at step 0, every record_every steps, and at the
    final step; on_record (if given) is called with the state at each of
    those points, e.g. to dump field snapshots.  Probabilities are split
    at the potential step (or mid-domain for a zero profile).  dt well
    above 0.5*dx degrades the splitting accuracy of a run that steps (the
    method stays unitary and stable); that is reported as a warning.
    Kicks are fused and non-finite fields abort as the module docstring
    says.  A potential that is one value at every grid point, zero under
    any coupling or any value under vector coupling, commutes with H0: the
    run then jumps from the initial field to each step it reads with the
    exact propagator, one inverse FFT per reading instead of an FFT pair
    per step.  Uniform scalar and pseudoscalar potentials still step.  The
    run reads the probability in bands of n/16 grid points at both domain
    edges and around the step, after its last step and often enough before
    that no front at speed 1 skips a band.  It ends with a
    WrappedWarning if the edge bands gained more than 1e-4 over step 0,
    and with an UnresolvedWarning if the energies E of the initial
    spectrum allow k >= pi/dx (k <= E, and k <= |E - V0| past a vector
    step once the step band held more than 1e-4).

    Every field the run reads, at a record point or a band reading, is the
    Strang state at that step.
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    grid = state.grid
    x_split = profile.split_position(grid)
    values = profile.values(grid.x)
    # one number at every point, and coupled through the identity unless it is 0
    if (values == values[0]).all() and (profile.coupling is Coupling.VECTOR or not values[0]):
        advance = _exact_jumps(state, float(values[0]), dt)
    else:
        if dt > 0.5 * grid.dx:
            warnings.warn(
                f"dt={dt} exceeds the splitting-accuracy heuristic 0.5*dx={0.5 * grid.dx}; "
                "results remain unitary but splitting error grows",
                stacklevel=2,
            )
        advance = _strang_steps(state, profile, dt)
    width = grid.n // _BANDS
    lo, hi = np.searchsorted(grid.x, profile.x_step + np.array([-0.5, 0.5]) * width * grid.dx)
    bands = (np.r_[:width, grid.n - width:grid.n], slice(lo, hi))  # edges, step
    check_every = max(1, int(width * grid.dx / dt))  # < one band width at speed 1

    def band_probabilities(psi: np.ndarray) -> np.ndarray:
        return grid.dx * np.array([np.vdot(psi[:, band], psi[:, band]).real for band in bands])

    start = peak = band_probabilities(state.psi)
    records = [measure(state, x_split, step=0)]
    if on_record is not None:
        on_record(state, 0)
    step = 0
    while step < n_steps:
        # the next band check, record point or final step
        step = min(n_steps, (step // check_every + 1) * check_every,
                   (step // record_every + 1) * record_every)
        psi = advance(step)
        if not step % check_every or step == n_steps:
            peak = np.maximum(peak, band_probabilities(psi))
        if step % record_every and step != n_steps:
            continue
        if not np.isfinite(psi).all():
            raise FloatingPointError(f"non-finite field values detected by step {step}")
        snapshot = WavePacketState(grid, psi, state.time + step * dt, state.m0)
        records.append(measure(snapshot, x_split, step=step))
        if on_record is not None:
            on_record(snapshot, step)
    _judge(state, profile, edge_gain=peak[0] - start[0], step_peak=peak[1])
    return snapshot, records


# An advance maps a step to the Strang state at that step, for steps that
# increase from call to call.
_Advance = Callable[[int], np.ndarray]


def _strang_steps(state: WavePacketState, profile: PotentialProfile, dt: float) -> _Advance:
    """Strang steps with the adjacent half-kicks of consecutive steps fused."""
    grid = state.grid
    half_kick = _kick_factor(profile, grid, 0.5 * dt)
    kick = _kick_factor(profile, grid, dt)
    free = _free_factor(grid, state.m0, dt)
    psi, done = np.array(state.psi), 0

    def advance(step: int) -> np.ndarray:
        nonlocal psi, done
        for n in range(done, step):
            # a leading half, then a trailing and a leading half fused
            _apply(kick if n > done else half_kick, psi)
            psi = np.fft.fft(psi, axis=1)
            _apply(free, psi)
            psi = np.fft.ifft(psi, axis=1)
        done = step
        _apply(half_kick, psi)  # the trailing half: the Strang state
        return psi

    return advance


def _exact_jumps(state: WavePacketState, v: float, dt: float) -> _Advance:
    """Exact jumps from step 0 when the potential factor is the phase
    exp(-i v dt) at every point: it commutes with H0, so n Strang steps are
    exp(-i v t) exp(-i H0 t) per momentum mode, t = n dt."""
    grid = state.grid
    psi_k = np.fft.fft(state.psi, axis=1)

    def advance(step: int) -> np.ndarray:
        time = step * dt
        psi = psi_k * np.exp(-1j * (v * time))  # a phase of exactly 1 when v = 0
        _apply(_free_factor(grid, state.m0, time), psi)
        return np.fft.ifft(psi, axis=1)

    return advance


def _judge(state: WavePacketState, profile: PotentialProfile, edge_gain: float,
           step_peak: float) -> None:
    """Raise the trust warnings of a run from what its bands saw."""
    grid, limit = state.grid, _THRESHOLD * state.norm()
    if edge_gain > limit:
        warnings.warn(f"waves crossed the periodic edge (edge bands gained {edge_gain:.3g}): "
                      "p_left and p_right mix both ends", WrappedWarning, stacklevel=3)
    # the energies of the modes that hold at least _THRESHOLD of the peak weight
    weight = np.sum(np.abs(np.fft.fft(state.psi, axis=1)) ** 2, axis=0)
    energies = np.hypot(grid.k, state.m0)[weight >= _THRESHOLD * weight.max()]
    k_max = energies.max()
    if profile.kind == "step" and profile.coupling is Coupling.VECTOR and step_peak > limit:
        k_max = max(k_max, np.abs(energies - profile.v0).max())
    if k_max >= math.pi / grid.dx:
        warnings.warn(f"wavenumbers up to k={k_max:.12g} reach the grid's limit pi/dx="
                      f"{math.pi / grid.dx:.12g}: the grid cannot carry the run's waves",
                      UnresolvedWarning, stacklevel=3)


OBSERVABLES_CSV_HEADER = "step,time,norm,mean_x,p_left,p_right,current"
SNAPSHOT_CSV_HEADER = "x,re_psi_up,im_psi_up,re_psi_dn,im_psi_dn"


def observables_to_csv(records: list[ObservableRecord], stream: IO[str]) -> None:
    line = "%d" + ",%.17g" * 6 + "\n"
    rows = [(r.step, r.time, r.norm, r.mean_x, r.p_left, r.p_right, r.current_at_step)
            for r in records]
    stream.write(OBSERVABLES_CSV_HEADER + "\n" + "".join(map(line.__mod__, rows)))


def snapshot_to_csv(state: WavePacketState, stream: IO[str]) -> None:
    """Full-field dump, one row per grid point."""
    up, dn = state.psi
    columns = [c.tolist() for c in (state.grid.x, up.real, up.imag, dn.real, dn.imag)]
    line = "%.17g" + ",%.17g" * 4 + "\n"
    stream.write(SNAPSHOT_CSV_HEADER + "\n" + "".join(map(line.__mod__, zip(*columns))))
