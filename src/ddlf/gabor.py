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
    The operator block-diagonalizes over residues modulo the time shift a, so
    only a dense N x N eigenproblem per residue is needed.
    """
    a, b, L, N = grid.time_shift, grid.freq_shift, grid.L, grid.N
    if grid.M * b != L:
        raise FrameError(
            "tight orthogonalization requires the M frequency channels to tile "
            f"the band exactly (M*b = L), got M*b = {grid.M * b}, L = {L}"
        )
    g0 = prototype.samples
    out = np.empty(L, dtype=complex)
    lo, hi = np.inf, 0.0
    for r in range(a):
        idx = (r + a * np.arange(N)) % L
        # V[p, u] = g0[(a*u + r - p*M) mod L] over the b adjoint time shifts
        V = g0[(idx[None, :] - (np.arange(b) * grid.M)[:, None]) % L]
        B = a * (V.T @ V.conj())
        w, U = np.linalg.eigh(B)
        lo, hi = min(lo, float(w[0])), max(hi, float(w[-1]))
        if w[0] <= 0:
            raise FrameError("frame operator not positive definite; "
                             "prototype does not generate a frame on this grid")
        inv_sqrt = (U * w**-0.5) @ U.conj().T
        out[idx] = inv_sqrt @ g0[idx]
    if hi / lo > cond_limit:
        raise FrameError(
            f"frame operator ill-conditioned (cond {hi / lo:.3g} > {cond_limit:.1e})"
        )
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


def fractional_shift(samples: np.ndarray, delay_samples: float) -> np.ndarray:
    """Cyclic band-limited delay by a (possibly fractional) number of samples."""
    L = len(samples)
    spectrum = np.fft.fft(samples)
    return np.fft.ifft(spectrum * np.exp(-2j * np.pi * np.fft.fftfreq(L) * delay_samples))


def cross_ambiguity(gamma: Pulse, g: Pulse, tau: float, nu: float,
                    grid: GaborGrid) -> complex:
    """Correlation of two pulses under joint time shift tau and frequency shift nu.

    A(tau, nu) = sum_t g*(t) gamma(t - tau) e^{2j pi nu t}, with fractional tau
    realized in the DFT domain and t running over centered representatives.
    A(0, 0) equals the inner product <gamma, g> (= 1 for gamma = g unit-norm).
    """
    if len(gamma.samples) != len(g.samples):
        raise ValueError("pulses must share the sample grid")
    if abs(tau) >= grid.duration:
        raise ValueError(f"|tau| = {abs(tau)} exceeds the frame duration {grid.duration}")
    shifted = fractional_shift(gamma.samples, tau * grid.fs)
    ramp = np.exp(2j * np.pi * nu * centered_times(grid))
    return complex(np.vdot(g.samples, shifted * ramp))
