"""Discrete Gabor (Weyl-Heisenberg) signaling.

Pulse generation, tight orthogonalization, synthesis/analysis filterbanks and
the cross-ambiguity function, all on a cyclic sample grid of length L.

Conventions: pulses are unit-norm length-L vectors centered at sample 0 (tails
wrap around). Fractional time shifts are realized as DFT-domain phase ramps
(band-limited interpolation). Frequency shifts in the ambiguity function use
centered time representatives so that a centered pulse sees a continuous ramp
across its full support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class GridError(ValueError):
    """Inconsistent time-frequency grid parameters."""


class FrameError(RuntimeError):
    """Pulse does not generate a usable (well-conditioned) Gabor frame."""


@dataclass(frozen=True)
class GaborGrid:
    """Time-frequency lattice: M frequency steps of size F, N time steps of size T.

    The signal space is cyclic with L samples at rate fs. The time step spans
    a = T*fs samples and the frequency step b = L*F/fs DFT bins; both must be
    exact integers with L = a*N and M*b <= L.
    """

    M: int
    N: int
    T: float
    F: float
    fs: float
    L: int

    def __post_init__(self):
        if self.M < 1 or self.N < 1 or self.L < 1:
            raise GridError("grid dimensions must be positive")
        a = self.T * self.fs
        b = self.L * self.F / self.fs
        if abs(a - round(a)) > 1e-6 or abs(b - round(b)) > 1e-6:
            raise GridError(
                f"T*fs = {a} and L*F/fs = {b} must be integers; "
                "choose fs so the shifts fall on the sample grid"
            )
        if self.L != round(a) * self.N:
            raise GridError(f"L = {self.L} != T*fs*N = {round(a) * self.N}")
        if self.M * round(b) > self.L:
            raise GridError("frequency channels exceed the sampled band (M*b > L)")
        if self.T * self.F <= 1.0:
            raise GridError(
                f"T*F = {self.T * self.F:.6g} <= 1: only the undersampled regime "
                "(T*F > 1) is supported"
            )

    @property
    def time_shift(self) -> int:
        """Time step in samples (a = T*fs)."""
        return round(self.T * self.fs)

    @property
    def freq_shift(self) -> int:
        """Frequency step in DFT bins (b = L*F/fs)."""
        return round(self.L * self.F / self.fs)

    @property
    def duration(self) -> float:
        return self.N * self.T

    @property
    def bandwidth(self) -> float:
        return self.M * self.F


def make_grid(M: int, N: int, tf_product: float = 1.25,
              bandwidth: float = 5.0e6) -> GaborGrid:
    """Build a grid with the requested T*F product and sampling rate fs = bandwidth.

    The time shift a = round(M*tf_product) samples and the frequency shift
    b = round(N*tf_product) bins; b is reduced when necessary so M*b <= L.
    When M*tf_product and N*tf_product are integers the product is honored
    exactly and the M channels tile the full band (M*b = L).
    """
    a = round(M * tf_product)
    b = min(round(N * tf_product), (a * N) // M)
    L = a * N
    fs = float(bandwidth)
    return GaborGrid(M=M, N=N, T=a / fs, F=b * fs / L, fs=fs, L=L)


@dataclass(frozen=True)
class Pulse:
    """Unit-energy pulse on the cyclic sample grid."""

    samples: np.ndarray
    norm: float = 1.0

    def __post_init__(self):
        n = float(np.linalg.norm(self.samples))
        if abs(n - 1.0) > 1e-12:
            raise ValueError(f"pulse must have unit energy, got ||.||_2 = {n}")
        object.__setattr__(self, "norm", n)


def centered_times(grid: GaborGrid) -> np.ndarray:
    """Sample times folded to [-L/2, L/2) / fs, matching the centered pulse."""
    L = grid.L
    return (((np.arange(L) + L // 2) % L) - L // 2) / grid.fs


def gaussian_prototype(grid: GaborGrid, spread: float = 1.0) -> Pulse:
    """Periodized Gaussian centered at sample 0, proportioned to the grid.

    The time width is spread * sqrt(T/F), which balances time and frequency
    localization relative to the lattice steps.
    """
    if spread <= 0:
        raise ValueError("spread must be positive")
    sigma_t = spread * np.sqrt(grid.T / grid.F)
    t = centered_times(grid)
    period = grid.L / grid.fs
    vals = np.zeros(grid.L)
    for j in range(-3, 4):
        vals += np.exp(-np.pi * (t - j * period) ** 2 / sigma_t**2)
    vals /= np.linalg.norm(vals)
    return Pulse(samples=vals.astype(complex))


def tight_orthogonalize(prototype: Pulse, grid: GaborGrid,
                        cond_limit: float = 1e12) -> Pulse:
    """Orthogonalize a prototype so its lattice translates/modulates are orthonormal.

    Applies the inverse square root of the frame operator of the adjoint
    lattice (time shifts of M samples, frequency shifts of N bins), which by
    lattice duality renders the original-lattice Gabor family orthonormal.
    The operator block-diagonalizes over residues r modulo the time shift a
    into N x N blocks. With d = gcd(a, M) and a*s = d (mod M), the block of
    residue r + d is the block of residue r with both indices cyclically
    shifted by s (the adjoint shifts p*M run over all of Z_L since M*b = L),
    so only d dense eigenproblems are solved.
    """
    a, b, L, M, N = grid.time_shift, grid.freq_shift, grid.L, grid.M, grid.N
    if M * b != L:
        raise FrameError(
            "tight orthogonalization requires the M frequency channels to tile "
            f"the band exactly (M*b = L), got M*b = {M * b}, L = {L}"
        )
    g0 = prototype.samples
    d = math.gcd(a, M)
    s = pow(a // d, -1, M // d)
    u = np.arange(N)
    # V[r, p, u] = g0[(a*u + r - p*M) mod L] for the d distinct residues r < d
    V = g0[(a * u + np.arange(d)[:, None, None] - (np.arange(b) * M)[:, None]) % L]
    B = a * (V.transpose(0, 2, 1) @ V.conj())
    w, U = np.linalg.eigh(B)
    lo, hi = float(w[:, 0].min()), float(w[:, -1].max())
    if lo <= 0:
        raise FrameError("frame operator not positive definite; "
                         "prototype does not generate a frame on this grid")
    if hi / lo > cond_limit:
        raise FrameError(
            f"frame operator ill-conditioned (cond {hi / lo:.3g} > {cond_limit:.1e})"
        )
    inv_sqrt = (U * w[:, None, :] ** -0.5) @ U.conj().transpose(0, 2, 1)
    # residue r = r0 + j*d seen in coordinates rotated by j*s: sample
    # idx[j, r0, v] = r + a*((v - j*s) mod N) meets block r0 at position v
    j = np.arange(a // d)[:, None, None]
    idx = j * d + np.arange(d)[:, None] + a * ((u - j * s) % N)
    out = np.empty(L, dtype=complex)
    out[idx] = (inv_sqrt @ g0[idx][..., None])[..., 0]
    out /= np.linalg.norm(out)
    return Pulse(samples=out)


def synthesize(x: np.ndarray, g_tx: Pulse, grid: GaborGrid) -> np.ndarray:
    """Build the length-L transmit signal sum_{m,n} x[m,n] g(t - nT) e^{2j pi m F t}.

    Per time slot n, the modulated sum over m is an unnormalized inverse
    L-point DFT of a spectrum holding x[:, n] at bins m*b; it is windowed by
    the pulse delayed by n*a samples.
    """
    x = np.asarray(x)
    if x.shape != (grid.M, grid.N):
        raise ValueError(f"frame shape {x.shape} does not match grid ({grid.M}, {grid.N})")
    if len(g_tx.samples) != grid.L:
        raise ValueError("pulse length does not match grid")
    bins = grid.freq_shift * np.arange(grid.M)
    spectrum = np.zeros(grid.L, dtype=complex)
    out = np.zeros(grid.L, dtype=complex)
    for n in range(grid.N):
        spectrum[bins] = x[:, n]
        out += np.fft.ifft(spectrum, norm="forward") * np.roll(g_tx.samples, n * grid.time_shift)
    return out


def analyze(f: np.ndarray, g_rx: Pulse, grid: GaborGrid) -> np.ndarray:
    """Project a length-L signal onto the Gabor atoms of the receive pulse.

    Returns the M x N frame of inner products y[m, n] = <f, g_{m,n}>: per
    time slot n, the L-point DFT of f times the conjugate pulse delayed by
    n*a samples, read at bins m*b.
    """
    f = np.asarray(f)
    if f.shape != (grid.L,):
        raise ValueError(f"signal length {f.shape} does not match grid L = {grid.L}")
    if len(g_rx.samples) != grid.L:
        raise ValueError("pulse length does not match grid")
    bins = grid.freq_shift * np.arange(grid.M)
    g_conj = g_rx.samples.conj()
    out = np.empty((grid.M, grid.N), dtype=complex)
    for n in range(grid.N):
        out[:, n] = np.fft.fft(f * np.roll(g_conj, n * grid.time_shift))[bins]
    return out


# shifts per batched inverse FFT in cross_ambiguity and channel.apply_channel:
# a (SHIFT_BLOCK, L) complex block is 0.66 MB at paper scale (L = 5120), so
# the working set stays in cache and no (paths, L) array is ever alive
SHIFT_BLOCK = 8


def _phasors(rate: np.ndarray, L: int, signed: bool = False) -> np.ndarray:
    """Rows e^{2j pi rate_i k} for the sample indices k = 0 .. L-1, shape (len(rate), L).

    signed=True uses the centered index k - L for k >= ceil(L/2), the order of
    np.fft.fftfreq(L) * L and of centered_times. Each row is the outer product
    of a coarse and a fine table of about sqrt(L) exponentials.
    """
    K = math.isqrt(L - 1) + 1
    rate = np.asarray(rate, dtype=float)[:, None]
    coarse = np.exp(2j * np.pi * rate * (K * np.arange(-(-L // K))))
    fine = np.exp(2j * np.pi * rate * np.arange(K))
    out = (coarse[:, :, None] * fine[:, None, :]).reshape(len(rate), -1)[:, :L]
    if signed:
        out[:, (L + 1) // 2:] *= np.exp(-2j * np.pi * rate * L)
    return out


def fractional_shift(samples: np.ndarray, delay_samples: float) -> np.ndarray:
    """Cyclic band-limited delay by a (possibly fractional) number of samples."""
    L = len(samples)
    spectrum = np.fft.fft(samples)
    return np.fft.ifft(spectrum * np.exp(-2j * np.pi * np.fft.fftfreq(L) * delay_samples))


def cross_ambiguity(gamma: Pulse, g: Pulse, tau: float | np.ndarray, nu: float | np.ndarray,
                    grid: GaborGrid) -> complex | np.ndarray:
    """Correlation of two pulses under joint time shift tau and frequency shift nu.

    A(tau, nu) = sum_t g*(t) gamma(t - tau) e^{2j pi nu t}, with fractional tau
    realized in the DFT domain and t running over centered representatives.
    A(0, 0) equals the inner product <gamma, g> (= 1 for gamma = g unit-norm).
    tau and nu broadcast against each other: scalars give a complex, arrays
    an array of A over the broadcast shape, from one FFT of gamma and one
    inverse FFT per (tau, nu) pair, SHIFT_BLOCK pairs at a time.
    """
    if len(gamma.samples) != len(g.samples):
        raise ValueError("pulses must share the sample grid")
    tau, nu = np.broadcast_arrays(np.asarray(tau, dtype=float), np.asarray(nu, dtype=float))
    if np.any(np.abs(tau) >= grid.duration):
        raise ValueError(f"|tau| = {np.abs(tau).max()} exceeds the frame duration {grid.duration}")
    L = grid.L
    spectrum = np.fft.fft(gamma.samples)
    g_conj = g.samples.conj()
    taus, nus = tau.ravel(), nu.ravel()
    out = np.empty(taus.shape, dtype=complex)
    for i in range(0, len(out), SHIFT_BLOCK):
        blk = slice(i, i + SHIFT_BLOCK)
        # delay ramp over the two-sided DFT bins, Doppler over centered times
        shifted = np.fft.ifft(spectrum * _phasors(-taus[blk] * grid.fs / L, L, signed=True))
        out[blk] = (shifted * _phasors(nus[blk] / grid.fs, L, signed=True)) @ g_conj
    return complex(out[0]) if tau.ndim == 0 else out.reshape(tau.shape)
