"""Discrete Gabor (Weyl-Heisenberg) signaling.

Pulse generation, tight orthogonalization, synthesis/analysis filterbanks, the
delay-Doppler shift kernel, the cross-ambiguity function and its Chebyshev
table on a delay-Doppler box, all on a cyclic sample grid of length L.

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
from numpy.polynomial import chebyshev


class GridError(ValueError):
    """Inconsistent time-frequency grid parameters."""


class FrameError(ValueError):
    """Pulse does not generate a usable (well-conditioned) Gabor frame."""


@dataclass(frozen=True)
class GaborGrid:
    """Time-frequency lattice on a cyclic grid of L = a*N samples at rate fs.

    The lattice is fixed by integers: M frequency steps of b = freq_shift DFT
    bins and N time steps of a = time_shift samples, and the M channels tile
    the sampled band exactly (M*b = L). The steps T = a/fs and F = b*fs/L
    follow from them, so T*F = b/N = a/M, and only the undersampled regime
    T*F > 1 (b > N) is supported.
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
        if self.M * self.freq_shift != self.L:
            raise GridError("the M frequency channels must tile the sampled band exactly "
                            f"(M*b = L), got M*b = {self.M * self.freq_shift}, L = {self.L}")
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

    def check_box(self, tau_max: float, nu_max: float):
        """Refuse a delay-Doppler box [0, tau_max] x [-nu_max, nu_max] that the
        grid cannot hold: a negative (or NaN) spread, a Doppler spread of at
        least fs/2 or a delay spread of at least the frame duration. The
        GridError leads with the quantities it rests on (tau_max, nu_max, fs)."""
        if not tau_max >= 0:
            raise GridError(f"tau_max: the delay spread must be nonnegative, got {tau_max:.6g} s")
        if not nu_max >= 0:
            raise GridError(f"nu_max: the Doppler spread must be nonnegative "
                            f"(nu_max = {nu_max:.6g} Hz)")
        # a sampled Doppler ramp at nu and at nu - fs are the same samples
        if nu_max >= self.fs / 2:
            raise GridError(f"nu_max, fs: nu_max = {nu_max:.6g} Hz is not below half the sampling "
                            f"rate, fs/2 = {self.fs / 2:.6g} Hz; the Doppler shifts alias")
        # a delay wraps cyclically within one frame
        if tau_max >= self.duration:
            raise GridError(f"tau_max: {tau_max:.6g} s is not below the frame duration "
                            f"{self.duration:.6g} s")


def make_grid(M: int, N: int, tf_product: float = 1.25,
              bandwidth: float = 5.0e6) -> GaborGrid:
    """Build a grid with about the requested T*F product and fs = bandwidth.

    The time shift a = round(M*tf_product) samples and the frequency shift
    b = round(N*tf_product) bins. The M channels must tile the band
    (M*b = a*N), as they do when M*tf_product and N*tf_product are integers;
    a shape and product that do not tile raise GridError, as does a
    non-positive M, N, tf_product or bandwidth, or a non-finite one.
    """
    if not math.isfinite(tf_product):
        raise GridError(f"tf_product = {tf_product!r} must be finite")
    a = round(M * tf_product)
    b = round(N * tf_product)
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


# tight_orthogonalize refuses a frame operator whose eigenvalues spread wider
# than this ratio
FRAME_COND_LIMIT = 1e12


def tight_orthogonalize(prototype: Pulse, grid: GaborGrid) -> Pulse:
    """Orthogonalize a prototype so its lattice translates/modulates are orthonormal.

    Applies the inverse square root of the frame operator of the adjoint
    lattice (time shifts of M samples, frequency shifts of N bins), which by
    lattice duality renders the original-lattice Gabor family orthonormal.
    The operator block-diagonalizes over residues r modulo the time shift a
    into N x N blocks B_r. With d = gcd(a, M) and a*s = d (mod M), the block
    of residue r + d is the block of residue r with both indices cyclically
    shifted by s (the adjoint shifts p*M run over all of Z_L, since the grid
    tiles its band: M*b = L), so only the d blocks r < d are needed. Each is
    block-circulant: with q = M/d, a*q is a multiple of M, so
    B_r[u+q, v+q] = B_r[u, v] and B_r is made of K = N/q blocks of size
    q x q (q divides N since a*N = M*b). One K-point DFT over the block index
    turns it into K independent q x q Hermitian blocks (the Zak-domain
    factorization of the frame operator; Strohmer 1998, Sondergaard 2007),
    whose eigenvalues are those of B_r, so d*K eigenproblems of size q x q
    are solved. A frame operator that is not positive definite, or whose
    condition number passes FRAME_COND_LIMIT, is a FrameError.
    """
    a, b, L, M, N = grid.time_shift, grid.freq_shift, grid.L, grid.M, grid.N
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
    if hi / lo > FRAME_COND_LIMIT:
        raise FrameError(
            f"frame operator ill-conditioned (cond {hi / lo:.3g} > {FRAME_COND_LIMIT:.1e})"
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


def synthesize(x: np.ndarray, g_tx: Pulse, grid: GaborGrid) -> np.ndarray:
    """Build the length-L transmit signal sum_{m,n} x[m,n] g(t - nT) e^{2j pi m F t}.

    The channels tile the band (M*b = L), so the modulated sum over m of time
    slot n repeats every M samples: it is the unnormalized inverse M-point DFT
    of x[:, n], tiled b times, and one batched inverse FFT gives all N slots.
    Each slot is then windowed by the pulse delayed by n*a samples and added
    in, one slot at a time, so the working set stays O(L).
    """
    x = np.asarray(x)
    if x.shape != (grid.M, grid.N):
        raise ValueError(f"frame shape {x.shape} does not match grid ({grid.M}, {grid.N})")
    if len(g_tx.samples) != grid.L:
        raise ValueError("pulse length does not match grid")
    L, M, a, b = grid.L, grid.M, grid.time_shift, grid.freq_shift
    slots = np.fft.ifft(x.T, axis=1, norm="forward")
    win = np.tile(g_tx.samples, 2)  # win[L - s:2L - s] is the pulse delayed by s
    out = np.zeros(L, dtype=complex)
    folded, prod = out.reshape(b, M), np.empty((b, M), dtype=complex)
    for n in range(grid.N):
        folded += np.multiply(win[L - n * a:2 * L - n * a].reshape(b, M), slots[n], out=prod)
    return out


def analyze(f: np.ndarray, g_rx: Pulse, grid: GaborGrid) -> np.ndarray:
    """Project a length-L signal onto the Gabor atoms of the receive pulse.

    Returns the M x N frame of inner products y[m, n] = <f, g_{m,n}>: the
    L-point DFT of f times the conjugate pulse delayed by n*a samples, read
    at bins m*b. The channels tile the band (M*b = L), so each windowed slot
    is folded mod M, and one batched M-point FFT of the N folded slots gives
    every bin.
    """
    f = np.asarray(f)
    if f.shape != (grid.L,):
        raise ValueError(f"signal length {f.shape} does not match grid L = {grid.L}")
    if len(g_rx.samples) != grid.L:
        raise ValueError("pulse length does not match grid")
    L, M, a, b = grid.L, grid.M, grid.time_shift, grid.freq_shift
    win = np.tile(g_rx.samples.conj(), 2)  # win[L - s:2L - s] is g* delayed by s
    folded = np.empty((grid.N, M), dtype=complex)
    prod = np.empty(L, dtype=complex)
    for n in range(grid.N):
        np.multiply(f, win[L - n * a:2 * L - n * a], out=prod)
        prod.reshape(b, M).sum(axis=0, out=folded[n])
    return np.ascontiguousarray(np.fft.fft(folded, axis=1).T)


# delays per batched inverse FFT in _delays(): a (SHIFT_BLOCK, L) complex
# block is 0.66 MB at paper scale (L = 5120), so the working set stays in
# cache and no (pairs, L) array is ever alive
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


def _delays(f: np.ndarray, tau: np.ndarray, fs: float, signed: bool):
    """The length-L signal f delayed by each of tau (seconds), SHIFT_BLOCK at a time.

    Yields (block, delayed) for consecutive slices block of tau: row i of
    delayed is f delayed by tau[block][i] through a DFT phase ramp over the
    two-sided bins (signed=True) or the one-sided bins (signed=False). One
    forward FFT of f serves every delay; each block costs one batched inverse
    FFT. The callers add their own Doppler ramps (_phasors of nu / fs).
    """
    L = len(f)
    spectrum = np.fft.fft(f)
    for i in range(0, len(tau), SHIFT_BLOCK):
        block = slice(i, i + SHIFT_BLOCK)
        yield block, np.fft.ifft(spectrum * _phasors(-tau[block] * fs / L, L, signed))


def cross_ambiguity(gamma: Pulse, g: Pulse, tau: float | np.ndarray, nu: float | np.ndarray,
                    grid: GaborGrid) -> complex | np.ndarray:
    """Correlation of two pulses under joint time shift tau and frequency shift nu.

    A(tau, nu) = sum_t g*(t) gamma(t - tau) e^{2j pi nu t}, with fractional tau
    realized in the DFT domain and t running over centered representatives.
    A(0, 0) equals the inner product <gamma, g> (= 1 for gamma = g unit-norm).
    tau and nu broadcast against each other: scalars give a complex, arrays
    an array of A over the broadcast shape. Each pair is one signed delay of
    gamma (see _delays) and one dot product with its Doppler ramp times g*.
    """
    if len(gamma.samples) != grid.L or len(g.samples) != grid.L:
        raise ValueError("pulses must share the sample grid")
    tau, nu = np.broadcast_arrays(np.asarray(tau, dtype=float), np.asarray(nu, dtype=float))
    if np.any(np.abs(tau) >= grid.duration):
        raise ValueError(f"|tau| = {np.abs(tau).max()} exceeds the frame duration {grid.duration}")
    g_conj = g.samples.conj()
    out = np.empty(tau.size, dtype=complex)
    for block, delayed in _delays(gamma.samples, tau.ravel(), grid.fs, signed=True):
        ramps = _phasors(nu.flat[block] / grid.fs, grid.L, signed=True) * g_conj
        # one BLAS dot per pair, as in the scalar call
        out[block] = [r @ d for r, d in zip(ramps, delayed)]
    return complex(out[0]) if tau.ndim == 0 else out.reshape(tau.shape)


# ambiguity_table starts from this many (delay, Doppler) nodes and doubles an
# axis while its last two Chebyshev coefficients exceed AMBIGUITY_TOL, unless
# they sit at rounding level (at most AMBIGUITY_FLOOR) and no longer halve; the
# pulses have unit energy, so |A| <= 1 and both are relative to that. No axis
# takes more than AMBIGUITY_MAX_NODES nodes: (nodes, L) complex rows at paper
# scale (L = 5120) are then at most 84 MB
AMBIGUITY_NODES = (12, 8)
AMBIGUITY_TOL = 1e-14
AMBIGUITY_FLOOR = 1e-12
AMBIGUITY_MAX_NODES = 1024


def _chebyshev(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n first-kind Chebyshev nodes on [-1, 1], and the DCT-II matrix that
    maps values at them to the Chebyshev coefficients of their interpolant."""
    x = chebyshev.chebpts1(n)
    weights = np.full(n, 2.0 / n)
    weights[0] = 1.0 / n
    return x, weights[:, None] * chebyshev.chebvander(x, n - 1).T


@dataclass(frozen=True, eq=False)
class AmbiguityTable:
    """cross_ambiguity of the pulses it was built from, on grid and the box
    [0, tau_max] x [-nu_max, nu_max], as a tensor Chebyshev series: coef[i, j]
    multiplies T_i(2 tau / tau_max - 1) T_j(nu / nu_max). Built by
    ambiguity_table."""

    grid: GaborGrid
    tau_max: float
    nu_max: float
    coef: np.ndarray

    def __call__(self, tau: np.ndarray, nu: np.ndarray) -> np.ndarray:
        """A at the pairs (tau[i], nu[i]). Points just outside the box, such as
        the relative 1e-9 that channel.true_cmd allows, extend the polynomials."""
        x = np.asarray(tau, dtype=float) * (2.0 / self.tau_max if self.tau_max else 0.0) - 1.0
        y = np.asarray(nu, dtype=float) * (1.0 / self.nu_max if self.nu_max else 0.0)
        n_tau, n_nu = self.coef.shape
        return ((chebyshev.chebvander(x, n_tau - 1) @ self.coef)
                * chebyshev.chebvander(y, n_nu - 1)).sum(axis=-1)


def ambiguity_table(gamma: Pulse, g: Pulse, grid: GaborGrid, tau_max: float,
                    nu_max: float) -> AmbiguityTable:
    """Tensor Chebyshev interpolant of cross_ambiguity on [0, tau_max] x [-nu_max, nu_max].

    A is smooth on an underspread box, so a small table replaces one shift of
    gamma per evaluated pair (Trefethen, Approximation Theory and
    Approximation Practice, ch. 8). The node values take one signed delay of
    gamma per delay node (see _delays) and one (delay, L) @ (L, Doppler)
    product against the Doppler-node ramps; a DCT-II matrix per axis turns
    them into coefficients. Each axis starts at AMBIGUITY_NODES and doubles
    until its last two coefficients are at most AMBIGUITY_TOL, or at most
    AMBIGUITY_FLOOR and no longer halving (rounding level). An axis that
    would pass AMBIGUITY_MAX_NODES is a ValueError. A box that the grid
    cannot hold (GaborGrid.check_box) is a GridError before the first node.
    A zero-width axis has one node.
    """
    if len(gamma.samples) != grid.L or len(g.samples) != grid.L:
        raise ValueError("pulses must share the sample grid")
    grid.check_box(tau_max, nu_max)
    n_tau, n_nu = (n if width > 0 else 1 for n, width in zip(AMBIGUITY_NODES, (tau_max, nu_max)))
    last = (math.inf, math.inf)  # each axis's tail in the previous round
    rows = np.empty((0, grid.L), dtype=complex)  # g* times gamma at each delay node
    while True:
        x, tau_coef = _chebyshev(n_tau)
        y, nu_coef = _chebyshev(n_nu)
        if len(rows) != n_tau:  # kept while only the Doppler axis doubles
            rows = np.empty((n_tau, grid.L), dtype=complex)
            for block, delayed in _delays(gamma.samples, tau_max / 2 * (1 + x), grid.fs,
                                          signed=True):
                np.multiply(delayed, g.samples.conj(), out=rows[block])
        values = rows @ _phasors(nu_max * y / grid.fs, grid.L, signed=True).T
        coef = tau_coef @ values @ nu_coef.T
        tail = np.abs(coef[-2:]).max(), np.abs(coef[:, -2:]).max()
        more_tau, more_nu = (n > 1 and t > AMBIGUITY_TOL and (t > AMBIGUITY_FLOOR or t <= t0 / 2)
                             for n, t, t0 in zip((n_tau, n_nu), tail, last))
        if not (more_tau or more_nu):
            return AmbiguityTable(grid, float(tau_max), float(nu_max), coef)
        n_tau, n_nu, last = n_tau * (1 + more_tau), n_nu * (1 + more_nu), tail
        if max(n_tau, n_nu) > AMBIGUITY_MAX_NODES:
            raise ValueError(f"the box tau_max = {tau_max:.6g} s, nu_max = {nu_max:.6g} Hz needs "
                             f"more than {AMBIGUITY_MAX_NODES} Chebyshev nodes on an axis")
