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


class FrameError(ValueError):
    """Pulse does not generate a usable (well-conditioned) Gabor frame."""


@dataclass(frozen=True)
class GaborGrid:
    """Time-frequency lattice on a cyclic grid of L = a*N samples at rate fs.

    The lattice is fixed by integers: M frequency steps of b = freq_shift DFT
    bins and N time steps of a = time_shift samples, with M*b <= L. The steps
    T = a/fs and F = b*fs/L follow from them, so T*F = b/N, and only the
    undersampled regime T*F > 1 (b > N) is supported.
    """

    M: int
    N: int
    time_shift: int
    freq_shift: int
    fs: float

    def __post_init__(self):
        if not all(isinstance(v, int) and v > 0
                   for v in (self.M, self.N, self.time_shift, self.freq_shift)):
            raise GridError("M, N and the time and frequency shifts must be positive "
                            f"integers, got {self.M}, {self.N}, {self.time_shift}, "
                            f"{self.freq_shift}")
        if not 0 < self.fs < math.inf:
            raise GridError(f"sampling rate fs = {self.fs:g} must be positive and finite")
        if self.M * self.freq_shift > self.L:
            raise GridError("frequency channels exceed the sampled band (M*b > L)")
        if self.freq_shift <= self.N:
            raise GridError(f"T*F = b/N = {self.freq_shift}/{self.N} <= 1: only the "
                            "undersampled regime (T*F > 1) is supported")

    @property
    def L(self) -> int:
        """Samples per frame (a*N)."""
        return self.time_shift * self.N

    @property
    def T(self) -> float:
        """Time step in seconds (a/fs)."""
        return self.time_shift / self.fs

    @property
    def F(self) -> float:
        """Frequency step in hertz (b*fs/L)."""
        return self.freq_shift * self.fs / self.L

    @property
    def duration(self) -> float:
        return self.N * self.T


def make_grid(M: int, N: int, tf_product: float = 1.25,
              bandwidth: float = 5.0e6) -> GaborGrid:
    """Build a grid with about the requested T*F product and fs = bandwidth.

    The time shift a = round(M*tf_product) samples and the frequency shift
    b = round(N*tf_product) bins; b is reduced when necessary so M*b <= L.
    When M*tf_product and N*tf_product are integers the product is honored
    exactly and the M channels tile the full band (M*b = L). A non-positive
    M, N, tf_product or bandwidth, or a non-finite one, raises GridError.
    """
    if not math.isfinite(tf_product):
        raise GridError(f"tf_product = {tf_product!r} must be finite")
    a = round(M * tf_product)
    b = round(N * tf_product)
    if M * b > a * N:
        b = a * N // M
    return GaborGrid(M=M, N=N, time_shift=a, freq_shift=b, fs=float(bandwidth))


@dataclass(frozen=True)
class Pulse:
    """Unit-energy pulse on the cyclic sample grid."""

    samples: np.ndarray

    def __post_init__(self):
        n = float(np.linalg.norm(self.samples))
        if abs(n - 1.0) > 1e-12:
            raise ValueError(f"pulse must have unit energy, got ||.||_2 = {n}")


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
    into N x N blocks B_r. With d = gcd(a, M) and a*s = d (mod M), the block
    of residue r + d is the block of residue r with both indices cyclically
    shifted by s (the adjoint shifts p*M run over all of Z_L since M*b = L),
    so only the d blocks r < d are needed. Each is block-circulant: with
    q = M/d, a*q is a multiple of M, so B_r[u+q, v+q] = B_r[u, v] and B_r is
    made of K = N/q blocks of size q x q (q divides N since a*N = M*b). One
    K-point DFT over the block index turns it into K independent q x q
    Hermitian blocks (the Zak-domain factorization of the frame operator;
    Strohmer 1998, Sondergaard 2007), whose eigenvalues are those of B_r, so
    d*K eigenproblems of size q x q are solved.
    """
    a, b, L, M, N = grid.time_shift, grid.freq_shift, grid.L, grid.M, grid.N
    if M * b != L:
        raise FrameError(
            "tight orthogonalization requires the M frequency channels to tile "
            f"the band exactly (M*b = L), got M*b = {M * b}, L = {L}"
        )
    g0 = prototype.samples
    d = math.gcd(a, M)
    q = M // d
    K = N // q
    s = pow(a // d, -1, q)
    u = np.arange(N)
    # V[r, p, u] = g0[(a*u + r - p*M) mod L] for the d distinct residues r < d
    V = np.take(g0, a * u + np.arange(d)[:, None, None] - (np.arange(b) * M)[:, None],
                mode="wrap")
    # first block row C[r, k] = B_r[:q, k*q:(k+1)*q], then its DFT over k
    C = a * (V[:, :, :q].transpose(0, 2, 1) @ V.conj())
    C = np.fft.fft(C.reshape(d, q, K, q).transpose(0, 2, 1, 3), axis=1)
    w, U = np.linalg.eigh(C)
    lo, hi = float(w[..., 0].min()), float(w[..., -1].max())
    if lo <= 0:
        raise FrameError("frame operator not positive definite; "
                         "prototype does not generate a frame on this grid")
    if hi / lo > cond_limit:
        raise FrameError(
            f"frame operator ill-conditioned (cond {hi / lo:.3g} > {cond_limit:.1e})"
        )
    inv_sqrt = (U * w[..., None, :] ** -0.5) @ U.conj().swapaxes(-1, -2)
    # residue r = r0 + j*d seen in coordinates rotated by j*s: sample
    # idx[j, r0, v] = r + a*((v - j*s) mod N) meets block r0 at position v
    j = np.arange(a // d)[:, None, None]
    idx = j * d + np.arange(d)[:, None] + a * ((u - j * s) % N)
    # B_r^(-1/2) x = fft_k(C_hat^(-1/2) ifft_k(x)) with x split into K blocks of q
    x = np.fft.ifft(g0[idx].reshape(a // d, d, K, q), axis=2)
    out = np.empty(L, dtype=complex)
    out[idx] = np.fft.fft((inv_sqrt @ x[..., None])[..., 0], axis=2).reshape(a // d, d, N)
    out /= np.linalg.norm(out)
    return Pulse(samples=out)


def _fold(grid: GaborGrid) -> tuple[int, np.ndarray]:
    """Fold length K = L / gcd(L, b) and the K-point DFT bins m*b/gcd(L, b).

    Bin m*b of an L-point DFT is bin m*b/gcd(L, b) of the K-point DFT of the
    signal summed over its L/K blocks of length K (folded mod K); K = M when
    the M channels tile the band (M*b = L).
    """
    b = grid.freq_shift
    g = math.gcd(grid.L, b)
    return grid.L // g, (b // g) * np.arange(grid.M)


def synthesize(x: np.ndarray, g_tx: Pulse, grid: GaborGrid) -> np.ndarray:
    """Build the length-L transmit signal sum_{m,n} x[m,n] g(t - nT) e^{2j pi m F t}.

    The modulated sum over m of time slot n repeats every K = L / gcd(L, b)
    samples: it is the unnormalized inverse K-point DFT of x[:, n] placed at
    bins m*b/gcd(L, b), tiled L/K times, and one batched inverse FFT gives all
    N slots. Each slot is then windowed by the pulse delayed by n*a samples and
    added in, one slot at a time, so the working set stays O(L).
    """
    x = np.asarray(x)
    if x.shape != (grid.M, grid.N):
        raise ValueError(f"frame shape {x.shape} does not match grid ({grid.M}, {grid.N})")
    if len(g_tx.samples) != grid.L:
        raise ValueError("pulse length does not match grid")
    L, a = grid.L, grid.time_shift
    K, bins = _fold(grid)
    spectrum = np.zeros((grid.N, K), dtype=complex)
    spectrum[:, bins] = x.T
    slots = np.fft.ifft(spectrum, axis=1, norm="forward")
    win = np.tile(g_tx.samples, 2)  # win[L - s:2L - s] is the pulse delayed by s
    out = np.zeros(L, dtype=complex)
    folded, prod = out.reshape(L // K, K), np.empty((L // K, K), dtype=complex)
    for n in range(grid.N):
        folded += np.multiply(win[L - n * a:2 * L - n * a].reshape(L // K, K), slots[n], out=prod)
    return out


def analyze(f: np.ndarray, g_rx: Pulse, grid: GaborGrid) -> np.ndarray:
    """Project a length-L signal onto the Gabor atoms of the receive pulse.

    Returns the M x N frame of inner products y[m, n] = <f, g_{m,n}>: the
    L-point DFT of f times the conjugate pulse delayed by n*a samples, read
    at bins m*b. Each windowed slot is folded mod K = L / gcd(L, b), and one
    batched K-point FFT of the N folded slots gives every bin that is read.
    """
    f = np.asarray(f)
    if f.shape != (grid.L,):
        raise ValueError(f"signal length {f.shape} does not match grid L = {grid.L}")
    if len(g_rx.samples) != grid.L:
        raise ValueError("pulse length does not match grid")
    L, a = grid.L, grid.time_shift
    K, bins = _fold(grid)
    win = np.tile(g_rx.samples.conj(), 2)  # win[L - s:2L - s] is g* delayed by s
    folded = np.empty((grid.N, K), dtype=complex)
    prod = np.empty(L, dtype=complex)
    for n in range(grid.N):
        np.multiply(f, win[L - n * a:2 * L - n * a], out=prod)
        prod.reshape(L // K, K).sum(axis=0, out=folded[n])
    return np.ascontiguousarray(np.fft.fft(folded, axis=1)[:, bins].T)


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


def cross_ambiguity(gamma: Pulse, g: Pulse, tau: float | np.ndarray, nu: float | np.ndarray,
                    grid: GaborGrid) -> complex | np.ndarray:
    """Correlation of two pulses under joint time shift tau and frequency shift nu.

    A(tau, nu) = sum_t g*(t) gamma(t - tau) e^{2j pi nu t}, with fractional tau
    realized in the DFT domain and t running over centered representatives.
    A(0, 0) equals the inner product <gamma, g> (= 1 for gamma = g unit-norm).
    tau and nu broadcast against each other: scalars give a complex, arrays
    an array of A over the broadcast shape, from one FFT of gamma and one
    inverse FFT per distinct tau, SHIFT_BLOCK delays at a time; each pair then
    costs one Doppler ramp and one dot product.
    """
    if len(gamma.samples) != len(g.samples):
        raise ValueError("pulses must share the sample grid")
    tau, nu = np.broadcast_arrays(np.asarray(tau, dtype=float), np.asarray(nu, dtype=float))
    if np.any(np.abs(tau) >= grid.duration):
        raise ValueError(f"|tau| = {np.abs(tau).max()} exceeds the frame duration {grid.duration}")
    L = grid.L
    spectrum = np.fft.fft(gamma.samples)
    g_conj = g.samples.conj()
    nus = nu.ravel()
    delays, which = np.unique(tau.ravel(), return_inverse=True)
    order = np.argsort(which, kind="stable")  # pairs grouped by delay
    starts = np.searchsorted(which[order], np.arange(0, len(delays) + SHIFT_BLOCK, SHIFT_BLOCK))
    out = np.empty(nus.shape, dtype=complex)
    for i, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
        # delay ramp over the two-sided DFT bins, Doppler over centered times
        blk = delays[i * SHIFT_BLOCK:(i + 1) * SHIFT_BLOCK]
        shifted = np.fft.ifft(spectrum * _phasors(-blk * grid.fs / L, L, signed=True))
        for j in range(lo, hi, SHIFT_BLOCK):
            pairs = order[j:min(j + SHIFT_BLOCK, hi)]
            ramps = _phasors(nus[pairs] / grid.fs, L, signed=True)
            ramps *= g_conj
            # row by row: gathering the shifted rows costs more than the dots
            out[pairs] = [r @ shifted[k] for r, k in zip(ramps, which[pairs] - i * SHIFT_BLOCK)]
    return complex(out[0]) if tau.ndim == 0 else out.reshape(tau.shape)
