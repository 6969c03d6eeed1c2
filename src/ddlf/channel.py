"""Doubly-dispersive scatterer channel.

Synthetic WSSUS generation, time-varying cyclic convolution, channel
main-diagonal (CMD) ground truth, delay-Doppler leakage response, noise
injection and the self-interference residual.

The channel acts on one frame with a block cyclic prefix: delays wrap
cyclically while the per-path Doppler ramp runs over absolute frame time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gabor import SHIFT_BLOCK, GaborGrid, Pulse, _phasors, cross_ambiguity


class ChannelError(ValueError):
    """Invalid channel configuration."""


@dataclass(frozen=True)
class Scatterer:
    """Single propagation path: delay tau (s), Doppler nu (Hz), complex gain eta."""

    tau: float
    nu: float
    eta: complex


@dataclass(frozen=True)
class DDChannel:
    """Collection of scatterers bounded by (tau_max, nu_max), underspread."""

    scatterers: tuple[Scatterer, ...]
    tau_max: float
    nu_max: float

    def __post_init__(self):
        spread = 2.0 * self.tau_max * self.nu_max
        if spread >= 0.1:
            raise ChannelError(
                f"channel not underspread: 2*tau_max*nu_max = {spread:.3g} >= 0.1"
            )
        for s in self.scatterers:
            if not (0.0 <= s.tau <= self.tau_max * (1 + 1e-9)):
                raise ChannelError(f"scatterer delay {s.tau} outside [0, {self.tau_max}]")
            if abs(s.nu) > self.nu_max * (1 + 1e-9):
                raise ChannelError(f"scatterer Doppler {s.nu} outside +-{self.nu_max}")

    @property
    def total_power(self) -> float:
        return float(sum(abs(s.eta) ** 2 for s in self.scatterers))


def default_power_profile(tau_max: float) -> float:
    """Exponential delay-decay rate placing 99% of the profile within tau_max/2."""
    if tau_max <= 0:
        return 0.0
    return 2.0 * math.log(100.0) / tau_max


@dataclass(frozen=True)
class ChannelConfig:
    """Synthetic WSSUS generator settings.

    fractional=True draws off-grid delay/Doppler shifts; otherwise the shifts
    snap to the 1/(M F) delay grid and 1/(N T) Doppler grid.
    """

    R: int
    tau_max: float
    nu_max: float
    power_profile: float | None = None
    seed: int = 0
    fractional: bool = True

    def __post_init__(self):
        if self.R < 1:
            raise ChannelError("scatterer count R must be >= 1")


def generate_channel(cfg: ChannelConfig, grid: GaborGrid | None = None) -> DDChannel:
    """Draw R scatterers: uniform delays/Dopplers, exponential power-delay profile.

    Gains are circular complex Gaussian with variance proportional to
    exp(-tau * power_profile), renormalized so the realized total power
    sum |eta_r|^2 is exactly 1. Deterministic for a given seed.
    """
    if 2.0 * cfg.tau_max * cfg.nu_max >= 0.1:
        raise ChannelError("configuration violates the underspread requirement")
    rate = cfg.power_profile if cfg.power_profile is not None else default_power_profile(cfg.tau_max)
    rng = np.random.default_rng(cfg.seed)
    taus = rng.uniform(0.0, cfg.tau_max, size=cfg.R)
    nus = rng.uniform(-cfg.nu_max, cfg.nu_max, size=cfg.R)
    if not cfg.fractional:
        if grid is None:
            raise ChannelError("on-grid snapping requires the Gabor grid")
        d_tau = 1.0 / (grid.M * grid.F)
        d_nu = 1.0 / (grid.N * grid.T)
        taus = np.round(taus / d_tau) * d_tau
        nus = np.round(nus / d_nu) * d_nu
        taus = np.clip(taus, 0.0, cfg.tau_max)
        nus = np.clip(nus, -cfg.nu_max, cfg.nu_max)
    var = np.exp(-taus * rate)
    etas = np.sqrt(var / 2.0) * (rng.standard_normal(cfg.R) + 1j * rng.standard_normal(cfg.R))
    etas /= np.linalg.norm(etas)
    scatterers = tuple(Scatterer(float(t), float(n), complex(e))
                       for t, n, e in zip(taus, nus, etas))
    return DDChannel(scatterers=scatterers, tau_max=cfg.tau_max, nu_max=cfg.nu_max)


def _paths(ch: DDChannel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Delays, Dopplers and gains of the scatterers as arrays."""
    sc = ch.scatterers
    return (np.array([s.tau for s in sc], dtype=float),
            np.array([s.nu for s in sc], dtype=float),
            np.array([s.eta for s in sc], dtype=complex))


def apply_channel(f: np.ndarray, ch: DDChannel, grid: GaborGrid) -> np.ndarray:
    """Time-varying cyclic convolution: sum_r eta_r f(t - tau_r) e^{2j pi nu_r t}.

    Fractional delays are band-limited cyclic shifts (the block cyclic prefix
    makes delays circular); the Doppler ramp runs over absolute frame time.
    The transmit band occupies [0, fs), so the delay phase ramp runs over the
    one-sided DFT bins: subcarrier m is rotated by exactly e^{-2j pi m F tau}.
    One forward FFT serves every path; paths go SHIFT_BLOCK at a time through
    a batched inverse FFT.
    """
    f = np.asarray(f)
    if f.shape != (grid.L,):
        raise ValueError(f"signal length {f.shape} does not match grid L = {grid.L}")
    taus, nus, etas = _paths(ch)
    late = taus >= grid.duration
    if late.any():
        raise ChannelError(f"delay {taus[late][0]} exceeds the frame duration {grid.duration}")
    L = grid.L
    spectrum = np.fft.fft(f)
    out = np.zeros(L, dtype=complex)
    for i in range(0, len(taus), SHIFT_BLOCK):
        blk = slice(i, i + SHIFT_BLOCK)
        delayed = np.fft.ifft(spectrum * _phasors(-taus[blk] * grid.fs / L, L))
        out += etas[blk] @ (delayed * _phasors(nus[blk] / grid.fs, L))
    return out


def add_noise(f: np.ndarray, sigma2: float, rng: np.random.Generator) -> np.ndarray:
    """Add circular complex Gaussian noise with variance sigma2 per sample.

    With unit-norm (tight) analysis pulses this yields exactly variance sigma2
    per analyzed TF symbol.
    """
    if sigma2 < 0:
        raise ValueError("noise variance must be nonnegative")
    if sigma2 == 0:
        return np.asarray(f, dtype=complex)
    L = len(f)
    noise = np.sqrt(sigma2 / 2.0) * (rng.standard_normal(L) + 1j * rng.standard_normal(L))
    return f + noise


def true_cmd(ch: DDChannel, gamma: Pulse, g: Pulse, grid: GaborGrid) -> np.ndarray:
    """Ground-truth channel main diagonal on the M x N TF grid.

    h[m, n] = sum_r eta_r e^{2j pi (n T nu_r - m F tau_r)} A(tau_r, nu_r),
    the superposition of one low-frequency 2D complex exponential per path
    weighted by the pulse cross-ambiguity at the path's shift.
    """
    taus, nus, etas = _paths(ch)
    amp = etas * cross_ambiguity(gamma, g, taus, nus, grid)
    delay = np.exp(-2j * np.pi * grid.F * taus * np.arange(grid.M)[:, None])
    doppler = np.exp(2j * np.pi * grid.T * nus[:, None] * np.arange(grid.N))
    return (delay * amp) @ doppler


def dirichlet_kernel(K: int, t: np.ndarray | float) -> np.ndarray:
    """D_K(t) = sum_{k=0}^{K-1} e^{2j pi k t}; equals K at integer arguments."""
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape, dtype=complex)
    near_int = np.abs(t - np.round(t)) < 1e-12
    out[near_int] = K
    tt = t[~near_int]
    out[~near_int] = np.exp(1j * np.pi * (K - 1) * tt) * np.sin(np.pi * K * tt) / np.sin(np.pi * tt)
    return out


def dd_leakage_response(tau: float, nu: float, gamma: Pulse, g: Pulse,
                        grid: GaborGrid) -> np.ndarray:
    """Response of a unit scatterer on the discrete delay-Doppler grid.

    Returns the N x M array H[l, k] = A(tau, nu) * D_N((l + N T nu)/N)
    * D_M((-k - M F tau)/M): rows index Doppler bins l, columns delay bins k
    (cyclic). Off-grid shifts smear over the grid following the Dirichlet
    kernels; on-grid shifts concentrate in a single bin of magnitude N*M*|A|.
    """
    amp = cross_ambiguity(gamma, g, tau, nu, grid)
    lbar = np.arange(grid.N)
    kbar = np.arange(grid.M)
    d_dopp = dirichlet_kernel(grid.N, (lbar + grid.N * grid.T * nu) / grid.N)
    d_delay = dirichlet_kernel(grid.M, (-kbar - grid.M * grid.F * tau) / grid.M)
    return amp * np.outer(d_dopp, d_delay)


def channel_to_csv(ch: DDChannel) -> str:
    """Scatterer dump (columns r, tau_s, nu_hz, eta_re, eta_im) for fixtures."""
    lines = ["r,tau_s,nu_hz,eta_re,eta_im"]
    for r, s in enumerate(ch.scatterers):
        lines.append(f"{r},{s.tau:.17g},{s.nu:.17g},{s.eta.real:.17g},{s.eta.imag:.17g}")
    return "\n".join(lines) + "\n"


def channel_from_csv(text: str, tau_max: float, nu_max: float) -> DDChannel:
    """Rebuild a channel from its channel_to_csv dump."""
    rows = [ln for ln in text.splitlines() if ln.strip()]
    if not rows or rows[0] != "r,tau_s,nu_hz,eta_re,eta_im":
        raise ChannelError("not a channel dump (bad header)")
    scatterers = []
    for ln in rows[1:]:
        _, tau, nu, re, im = ln.split(",")
        scatterers.append(Scatterer(float(tau), float(nu), float(re) + 1j * float(im)))
    return DDChannel(scatterers=tuple(scatterers), tau_max=tau_max, nu_max=nu_max)


def self_interference_power(y_clean: np.ndarray, x: np.ndarray,
                            h_true: np.ndarray) -> float:
    """Empirical per-symbol power of the off-diagonal distortion.

    mean |y_clean - x * h_true|^2 for the noiseless analyzed frame y_clean of
    the transmit frame x: the residual not explained by the channel main
    diagonal h_true. Used to calibrate the noise-aware estimator relaxation.
    """
    z = np.asarray(y_clean) - np.asarray(x) * h_true
    return float(np.mean(np.abs(z) ** 2))
