"""Doubly-dispersive scatterer channel.

Synthetic WSSUS generation, time-varying cyclic convolution, channel
main-diagonal (CMD) ground truth, noise injection and the self-interference
residual.

A channel realization (DDChannel) is only its paths. Each rule on the
delay-Doppler box [0, tau_max] x [-nu_max, nu_max] has one home: the grid
decides which boxes it can hold (gabor.GaborGrid.check_box), the draw's
settings (ChannelConfig) hold the underspread rule, and true_cmd checks that
the paths lie inside the box of the ambiguity table it reads.

The channel acts on one frame with a block cyclic prefix: delays wrap
cyclically while the per-path Doppler ramp runs over absolute frame time.
Like gabor, the module has no physical scale: delays are in samples, Doppler
shifts in cycles per sample and the delay-decay rate per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gabor import AmbiguityTable, GaborGrid, _delays, _phasors


class ChannelError(ValueError):
    """Invalid channel configuration."""


@dataclass(frozen=True, eq=False)
class DDChannel:
    """R paths, each a delay tau (samples), Doppler nu (cycles per sample) and
    complex gain eta, as three length-R arrays."""

    tau: np.ndarray
    nu: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        for name, dtype in (("tau", float), ("nu", float), ("eta", complex)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if not (self.tau.ndim == 1 and self.tau.shape == self.nu.shape == self.eta.shape):
            raise ChannelError(f"path arrays tau, nu, eta of shapes {self.tau.shape}, "
                               f"{self.nu.shape}, {self.eta.shape} are not one length")


def default_power_profile(tau_max: float) -> float:
    """Exponential delay-decay rate placing 99% of the profile within tau_max/2."""
    if tau_max <= 0:
        return 0.0
    return 2.0 * math.log(100.0) / tau_max


@dataclass(frozen=True)
class ChannelConfig:
    """Synthetic WSSUS generator settings.

    R paths in the box [0, tau_max] x [-nu_max, nu_max], tau_max in samples
    and nu_max in cycles per sample, which must be underspread
    (2*tau_max*nu_max < 0.1, the same number in any units). power_profile is
    the delay-decay rate per sample, or None for default_power_profile.
    fractional=True draws off-grid delay/Doppler shifts; otherwise the shifts
    snap to the delay grid of whole samples (1/(M F)) and the Doppler grid of
    1/L cycles per sample (1/(N T)). A ChannelError leads with the fields it
    rests on.
    """

    R: int
    tau_max: float
    nu_max: float
    power_profile: float | None = None
    fractional: bool = True

    def __post_init__(self):
        if (spread := 2.0 * self.tau_max * self.nu_max) >= 0.1:
            raise ChannelError(f"tau_max, nu_max: 2*tau_max*nu_max = {spread:.3g} >= 0.1 "
                               f"(tau_max = {self.tau_max:.6g} samples, nu_max = "
                               f"{self.nu_max:.6g} cycles per sample); the channel is not "
                               "underspread")
        if self.R < 1:
            raise ChannelError(f"R: scatterer count R must be >= 1, got {self.R}")
        if self.power_profile is not None and self.power_profile < 0:
            raise ChannelError(f"power_profile: delay-decay rate power_profile = "
                               f"{self.power_profile:g} must be nonnegative")


def generate_channel(cfg: ChannelConfig, grid: GaborGrid, seed: int) -> DDChannel:
    """Draw R paths: uniform delays/Dopplers, exponential power-delay profile.

    Gains are circular complex Gaussian with variance proportional to
    exp(-tau * power_profile), renormalized so the realized total power
    sum |eta_r|^2 is exactly 1. Deterministic for a given seed. A box that
    grid cannot hold (GaborGrid.check_box) is a GridError before any draw.
    """
    grid.check_box(cfg.tau_max, cfg.nu_max)
    rate = cfg.power_profile if cfg.power_profile is not None else default_power_profile(cfg.tau_max)
    rng = np.random.default_rng(seed)
    taus = rng.uniform(0.0, cfg.tau_max, size=cfg.R)
    nus = rng.uniform(-cfg.nu_max, cfg.nu_max, size=cfg.R)
    if not cfg.fractional:
        taus = np.clip(np.round(taus), 0.0, cfg.tau_max)
        nus = np.clip(np.round(nus * grid.L) / grid.L, -cfg.nu_max, cfg.nu_max)
    # relative to the earliest delay, so a steep profile cannot underflow every
    # weight to 0; the common factor cancels in the normalization
    var = np.exp(-(taus - taus.min()) * rate)
    etas = np.sqrt(var / 2.0) * (rng.standard_normal(cfg.R) + 1j * rng.standard_normal(cfg.R))
    etas /= np.linalg.norm(etas)
    return DDChannel(taus, nus, etas)


def apply_channel(f: np.ndarray, ch: DDChannel, grid: GaborGrid) -> np.ndarray:
    """Time-varying cyclic convolution: sum_r eta_r f(t - tau_r) e^{2j pi nu_r t}.

    t counts samples, tau_r is in samples and nu_r in cycles per sample.
    Fractional delays are band-limited cyclic shifts (the block cyclic prefix
    makes delays circular); the Doppler ramp runs over absolute frame time.
    The transmit band occupies the DFT bins [0, L), so the delay phase ramp
    runs over the one-sided bins: subcarrier m is rotated by exactly
    e^{-2j pi m (b/L) tau}. The paths go through gabor._delays in blocks, and
    each block's gain-weighted sum of its Doppler-ramped delays is added in. A
    path the grid cannot carry is a ChannelError: a delay outside [0, L), or
    a Doppler of at least 1/2 in magnitude, whose sampled ramp would alias.
    """
    f = np.asarray(f)
    if f.shape != (grid.L,):
        raise ValueError(f"signal length {f.shape} does not match grid L = {grid.L}")
    late = ~((0.0 <= ch.tau) & (ch.tau < grid.L))
    if late.any():
        raise ChannelError(f"delay {ch.tau[late][0]} samples is negative or exceeds the frame "
                           f"duration {grid.L}")
    fast = np.abs(ch.nu) >= 0.5
    if fast.any():
        raise ChannelError(f"Doppler {ch.nu[fast][0]} cycles per sample is not below 1/2")
    out = np.zeros(grid.L, dtype=complex)
    for block, delayed in _delays(f, ch.tau, signed=False):
        out += ch.eta[block] @ (delayed * _phasors(ch.nu[block], grid.L))
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


def true_cmd(ch: DDChannel, table: AmbiguityTable) -> np.ndarray:
    """Ground-truth channel main diagonal on the M x N TF grid of table.grid.

    h[m, n] = sum_r eta_r e^{2j pi (n a nu_r - m (b/L) tau_r)} A(tau_r, nu_r),
    with tau_r in samples and nu_r in cycles per sample: the superposition of
    one low-frequency 2D complex exponential per path weighted by the pulse
    cross-ambiguity at the path's shift. A comes from
    table, the gabor.ambiguity_table of the pulses on a box that holds every
    path of ch (the box ch was drawn in, or a larger one), which one
    evaluation reads for every path. A path outside the table's box is a
    ChannelError.
    """
    # a path on the box edge may pass it by rounding (a scaled or snapped
    # draw), so the box reaches a relative 1e-9 further, where the table's
    # polynomials still hold
    late = ~((0.0 <= ch.tau) & (ch.tau <= table.tau_max * (1 + 1e-9)))
    if late.any():
        raise ChannelError(f"scatterer delay {ch.tau[late][0]} outside [0, {table.tau_max}], "
                           "the box of the ambiguity table")
    fast = np.abs(ch.nu) > table.nu_max * (1 + 1e-9)
    if fast.any():
        raise ChannelError(f"scatterer Doppler {ch.nu[fast][0]} outside +-{table.nu_max}, "
                           "the box of the ambiguity table")
    grid = table.grid
    amp = ch.eta * table(ch.tau, ch.nu)
    delay = np.exp(-2j * np.pi * grid.freq_shift / grid.L * ch.tau * np.arange(grid.M)[:, None])
    doppler = np.exp(2j * np.pi * grid.time_shift * ch.nu[:, None] * np.arange(grid.N))
    return (delay * amp) @ doppler


def self_interference_power(y_clean: np.ndarray, x: np.ndarray,
                            h_true: np.ndarray) -> float:
    """Empirical per-symbol power of the off-diagonal distortion.

    mean |y_clean - x * h_true|^2 for the noiseless analyzed frame y_clean of
    the transmit frame x: the residual not explained by the channel main
    diagonal h_true. Used to calibrate the noise-aware estimator relaxation.
    """
    z = np.asarray(y_clean) - np.asarray(x) * h_true
    return float(np.mean(np.abs(z) ** 2))
