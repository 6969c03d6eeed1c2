"""Reference implementations that only the tests use."""

from __future__ import annotations

import math

import numpy as np

from ddlf.channel import ChannelError, DDChannel, true_cmd
from ddlf.estimation import hessian_kernels
from ddlf.gabor import GaborGrid, Pulse, ambiguity_table, cross_ambiguity
from ddlf.piloting import PilotPlacement


def fractional_shift(samples: np.ndarray, delay_samples: float) -> np.ndarray:
    """Cyclic band-limited delay by a (possibly fractional) number of samples,
    with one FFT pair and a per-bin exp ramp."""
    L = len(samples)
    spectrum = np.fft.fft(samples)
    return np.fft.ifft(spectrum * np.exp(-2j * np.pi * np.fft.fftfreq(L) * delay_samples))


def box_cmd(ch, pulse, grid, tau_max, nu_max):
    """The true CMD of ch, read from the ambiguity table of pulse on the box
    [0, tau_max] x [-nu_max, nu_max], which must hold every path of ch."""
    return true_cmd(ch, ambiguity_table(pulse, pulse, grid, tau_max, nu_max))


def per_path_apply(f, ch, grid):
    """Reference: one FFT pair and two length-L exp ramps per path."""
    L = grid.L
    t = np.arange(L) / grid.fs
    out = np.zeros(L, dtype=complex)
    for tau, nu, eta in zip(ch.tau, ch.nu, ch.eta):
        ramp = np.exp(-2j * np.pi * np.arange(L) * (tau * grid.fs) / L)
        out += eta * np.fft.ifft(np.fft.fft(f) * ramp) * np.exp(2j * np.pi * nu * t)
    return out


def channel_to_csv(ch: DDChannel) -> str:
    """Path dump (columns r, tau_s, nu_hz, eta_re, eta_im) for fixtures."""
    lines = ["r,tau_s,nu_hz,eta_re,eta_im"]
    for r, (tau, nu, eta) in enumerate(zip(ch.tau, ch.nu, ch.eta)):
        lines.append(f"{r},{tau:.17g},{nu:.17g},{eta.real:.17g},{eta.imag:.17g}")
    return "\n".join(lines) + "\n"


def channel_from_csv(text: str) -> DDChannel:
    """Rebuild a channel from its channel_to_csv dump."""
    rows = [ln for ln in text.splitlines() if ln.strip()]
    if not rows or rows[0] != "r,tau_s,nu_hz,eta_re,eta_im":
        raise ChannelError("not a channel dump (bad header)")
    _, tau, nu, re, im = np.array([ln.split(",") for ln in rows[1:]],
                                  dtype=float).reshape(-1, 5).T
    return DDChannel(tau, nu, re + 1j * im)


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


def valid_convolve(ext: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Valid part of the 2D convolution of an (M+2) x (N+2) array with a 3x3 kernel.

    out[m, n] = sum_{i,j} kernel[i, j] * ext[m - i + 2, n - j + 2], yielding M x N.
    """
    ext = np.asarray(ext)
    M, N = ext.shape[0] - 2, ext.shape[1] - 2
    out = np.zeros((M, N), dtype=ext.dtype)
    for i in range(3):
        for j in range(3):
            if kernel[i, j]:
                out += kernel[i, j] * ext[2 - i:2 - i + M, 2 - j:2 - j + N]
    return out


def weighted_hessian_energy(h_ex: np.ndarray, alpha: float, beta: float) -> float:
    """Total squared Frobenius norm of the weighted discrete Hessian.

    The per-cell Hessian has diagonal alpha^2 * (ff term), beta^2 * (tt term)
    and off-diagonal alpha*beta * (tf term), counted twice.
    """
    phi_tt, phi_ff, phi_tf = hessian_kernels()
    c_ff = valid_convolve(h_ex, phi_ff)
    c_tt = valid_convolve(h_ex, phi_tt)
    c_tf = valid_convolve(h_ex, phi_tf)
    return float(alpha**4 * np.sum(np.abs(c_ff) ** 2)
                 + beta**4 * np.sum(np.abs(c_tt) ** 2)
                 + 2 * alpha**2 * beta**2 * np.sum(np.abs(c_tf) ** 2))


def srh_objective(h_ex: np.ndarray, h_pilot: np.ndarray, pl: PilotPlacement,
                  alpha: float, beta: float, omega: float) -> float:
    """Smoothness energy plus omega-weighted pilot fidelity on the extended array."""
    pr, pc = pl.pilot_array_indices()
    fid = np.sum(np.abs(np.asarray(h_pilot) - h_ex[pr + 1, pc + 1]) ** 2)
    return weighted_hessian_energy(h_ex, alpha, beta) + omega * float(fid)


def bracketed_min_distance_sq(lam: int, mu: int) -> int:
    """Reference: squared minimal distance of the lattice {(l, lam*k + mu*l)},
    from the k that bracket -mu*l/lam for each l = 1 .. lam (robust to the
    rounding direction); l = 0 contributes lam^2."""
    best = lam * lam
    for ell in range(1, lam + 1):
        t = -mu * ell / lam
        for k in range(math.floor(t) - 1, math.ceil(t) + 2):
            best = min(best, ell * ell + (lam * k + mu * ell) ** 2)
    return best
