"""Reference implementations that only the tests use."""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from ddlf.channel import ChannelError, DDChannel, true_cmd
from ddlf.estimation import affine_rank, hessian_kernels
from ddlf.gabor import GaborGrid, Pulse, ambiguity_table
from ddlf.piloting import PilotPlacement


def fractional_shift(samples: np.ndarray, delay_samples: float) -> np.ndarray:
    """Cyclic band-limited delay by a (possibly fractional) number of samples,
    with one FFT pair and a per-bin exp ramp."""
    L = len(samples)
    spectrum = np.fft.fft(samples)
    return np.fft.ifft(spectrum * np.exp(-2j * np.pi * np.fft.fftfreq(L) * delay_samples))


def total_power(ch: DDChannel) -> float:
    """sum |eta_r|^2 over the paths of ch."""
    return float(np.sum(np.abs(ch.eta) ** 2))


def centered_samples(L: int) -> np.ndarray:
    """The sample indices 0 .. L-1 folded to [-L/2, L/2), matching the centered pulse."""
    return ((np.arange(L) + L // 2) % L) - L // 2


def pair_ambiguity(gamma: Pulse, g: Pulse, tau, nu, grid: GaborGrid) -> np.ndarray:
    """Reference A(tau, nu) at scattered pairs (tau in samples, nu in cycles per
    sample): tau and nu broadcast against each other, and each pair is one
    fractional_shift of gamma and a direct sum over the samples of g* times it
    and the Doppler exp at the centered sample indices."""
    if len(gamma.samples) != grid.L or len(g.samples) != grid.L:
        raise ValueError("pulses must share the sample grid")
    tau, nu = np.broadcast_arrays(np.asarray(tau, dtype=float), np.asarray(nu, dtype=float))
    k = centered_samples(grid.L)
    out = np.empty(tau.shape, dtype=complex)
    for i in np.ndindex(tau.shape):
        shifted = fractional_shift(gamma.samples, tau[i])
        out[i] = np.sum(g.samples.conj() * shifted * np.exp(2j * np.pi * nu[i] * k))
    return out


def box_cmd(ch, pulse, grid, tau_max, nu_max):
    """The true CMD of ch, read from the ambiguity table of pulse on the box
    [0, tau_max] x [-nu_max, nu_max], which must hold every path of ch."""
    return true_cmd(ch, ambiguity_table(pulse, pulse, grid, tau_max, nu_max))


def per_path_apply(f, ch, grid):
    """Reference: one FFT pair and two length-L exp ramps per path."""
    L = grid.L
    k = np.arange(L)
    out = np.zeros(L, dtype=complex)
    for tau, nu, eta in zip(ch.tau, ch.nu, ch.eta):
        ramp = np.exp(-2j * np.pi * k * tau / L)
        out += eta * np.fft.ifft(np.fft.fft(f) * ramp) * np.exp(2j * np.pi * nu * k)
    return out


def shift_register_step(previous: list, bit: int, generators, k: int) -> tuple[list, list]:
    """One step of a bit-serial convolutional encoder. previous holds the k-1
    earlier input bits, newest first; the window is bit followed by them, and
    each output bit is the parity of the window's bits under the taps of one
    generator, its binary digits with the top one on the newest bit. Returns
    the output bits, one per generator in order, and the next previous."""
    window = [bit] + list(previous)
    out = [sum(w * int(tap) for w, tap in zip(window, format(g, f"0{k}b"))) % 2
           for g in generators]
    return out, window[:-1]


def shift_register_encode(bits, generators, k: int) -> np.ndarray:
    """Reference zero-tail encoder: shift_register_step from the all-zero
    register over bits and then k-1 zeros, the output bits in step order."""
    previous, coded = [0] * (k - 1), []
    for bit in [int(b) for b in bits] + [0] * (k - 1):
        out, previous = shift_register_step(previous, bit, generators, k)
        coded += out
    return np.array(coded, dtype=np.int8)


def channel_to_csv(ch: DDChannel) -> str:
    """Path dump (columns r, tau, nu, eta_re, eta_im; tau in samples, nu in
    cycles per sample) for fixtures."""
    lines = ["r,tau,nu,eta_re,eta_im"]
    for r, (tau, nu, eta) in enumerate(zip(ch.tau, ch.nu, ch.eta)):
        lines.append(f"{r},{tau:.17g},{nu:.17g},{eta.real:.17g},{eta.imag:.17g}")
    return "\n".join(lines) + "\n"


def channel_from_csv(text: str) -> DDChannel:
    """Rebuild a channel from its channel_to_csv dump."""
    rows = [ln for ln in text.splitlines() if ln.strip()]
    if not rows or rows[0] != "r,tau,nu,eta_re,eta_im":
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

    tau is in samples and nu in cycles per sample. Returns the N x M array
    H[l, k] = A(tau, nu) * D_N((l + L nu)/N) * D_M((-k - tau)/M), since
    N T nu = L nu and M F tau = tau: rows index Doppler bins l, columns delay
    bins k (cyclic). Off-grid shifts smear over the grid following the Dirichlet
    kernels; on-grid shifts concentrate in a single bin of magnitude N*M*|A|.
    """
    amp = pair_ambiguity(gamma, g, tau, nu, grid)
    lbar = np.arange(grid.N)
    kbar = np.arange(grid.M)
    d_dopp = dirichlet_kernel(grid.N, (lbar + grid.L * nu) / grid.N)
    d_delay = dirichlet_kernel(grid.M, (-kbar - tau) / grid.M)
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


def hessian_matrix(M: int, N: int, alpha: float, beta: float) -> np.ndarray:
    """Dense A = sum_k w_k D_k^T D_k on the row-major (M+2)(N+2) extension:
    row m N + n of D_k is output [m, n] of valid_convolve with kernel k, and
    the weights are alpha^4, beta^4 and 2 alpha^2 beta^2 (ff, tt, tf)."""
    nvar = (M + 2) * (N + 2)
    m, n = np.indices((M, N)).reshape(2, -1)
    phi_tt, phi_ff, phi_tf = hessian_kernels()
    A = np.zeros((nvar, nvar))
    for kern, wk in ((phi_ff, alpha**4), (phi_tt, beta**4), (phi_tf, 2 * alpha**2 * beta**2)):
        D = np.zeros((M * N, nvar))
        for i, j in zip(*np.nonzero(kern)):
            D[m * N + n, (m + 2 - i) * (N + 2) + n + 2 - j] = kern[i, j]
        A += wk * D.T @ D
    return A


def dense_z_srh_operator(pl: PilotPlacement, alpha: float, beta: float):
    """Reference SRH operator (U, Z, pvar, V, lam) that holds Z = U^-T A_fp
    whole: A from hessian_matrix, the pilot rows and columns replaced by a unit
    diagonal (as are the cells no stencil reaches), one banded Cholesky of
    the rest, and one banded triangular solve over every pilot column of A_fp
    on the full band. S = A_pp - Z^T Z, and its affine_rank smallest
    eigenvalues are set to 0."""
    M, N = pl.M, pl.N
    u = 2 * (N + 2) + 2
    A = hessian_matrix(M, N, alpha, beta)
    pr, pc = pl.pilot_array_indices()
    pvar = (pr + 1) * (N + 2) + (pc + 1)
    A_pp = A[np.ix_(pvar, pvar)]
    A_fp = A[:, pvar].copy(order="F")
    A_fp[pvar] = 0.0
    A[pvar], A[:, pvar] = 0.0, 0.0
    A[np.diag_indices_from(A)] = np.where(np.diag(A) == 0.0, 1.0, np.diag(A))
    band = np.zeros((u + 1, len(A)), order="F")
    for d in range(u + 1):  # band[u + r - c, c] = A[r, c]
        band[u - d, d:] = np.diagonal(A, d)
    U = sla.cholesky_banded(band)
    Z, info = lapack.dtbtrs(U, A_fp, trans="T")
    assert info == 0
    S = A_pp - Z.T @ Z
    lam, V = np.linalg.eigh(0.5 * (S + S.T))
    lam[:affine_rank(pl)] = 0.0
    return U, Z, pvar, V, np.maximum(lam, 0.0)


def dense_z_srh_estimate(h_pilot: np.ndarray, pl: PilotPlacement, omega: float, op):
    """The extended SRH estimate from dense_z_srh_operator's op: the pilot
    values h_p = V diag(omega / (lam + omega)) V^T h_pilot and the free cells
    -U^-1 (Z h_p), on the real and imaginary parts as two columns."""
    U, Z, pvar, V, lam = op
    h2 = np.stack([h_pilot.real, h_pilot.imag], axis=-1)
    h_p = V @ ((omega / (lam + omega))[:, None] * (V.T @ h2))
    x, info = lapack.dtbtrs(U, -Z @ h_p)
    assert info == 0
    x[pvar] = h_p
    return (x[:, 0] + 1j * x[:, 1]).reshape(pl.M + 2, pl.N + 2)


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
