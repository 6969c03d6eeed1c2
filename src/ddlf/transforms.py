"""Orthogonal linear precoding of the data frame.

Every kind is an isometry: the 2D symplectic DFT (self-inverse), unitary
1D/2D FFTs, the normalized Walsh-Hadamard transform, and a seeded random
unitary. Frames may be split along the time axis into independent sub-frame
blocks that are each precoded separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

KINDS = ("none", "dsft2d", "fft1d", "fft2d", "fwht1d", "fwht2d", "random")
SUBFRAME_CHOICES = (1, 2, 4, 8)
# Householder block width of the random kind's QR
_BLOCK = 64


def dsft2d(X: np.ndarray) -> np.ndarray:
    """2D discrete symplectic Fourier transform; its own inverse.

    For input of shape (A, B) with rows l and columns k,
    out[m, n] = (1/sqrt(A B)) sum_{l,k} X[l, k] e^{-2j pi (n l / A - m k / B)}
    with output shape (B, A): the axes exchange roles, which is what makes a
    second application give back the input exactly.
    """
    X = np.asarray(X)
    A, B = X.shape
    return np.sqrt(B / A) * np.fft.fft(np.fft.ifft(X, axis=1), axis=0).T


def fwht(v: np.ndarray) -> np.ndarray:
    """Normalized fast Walsh-Hadamard transform; self-inverse, orthogonal."""
    v = np.asarray(v, dtype=complex).copy()
    n = len(v)
    if n < 1 or n & (n - 1):
        raise ValueError(f"length {n} is not a power of two")
    h = 1
    while h < n:
        v = v.reshape(-1, 2 * h)
        a = v[:, :h].copy()
        b = v[:, h:].copy()
        v[:, :h] = a + b
        v[:, h:] = a - b
        v = v.reshape(-1)
        h *= 2
    return v / np.sqrt(n)


class Reflectors:
    """A unitary Q = Π_k (I − V_k T_k V_kᴴ), kept as the Householder blocks of
    a compact-WY QR (Schreiber & Van Loan, SIAM J. Sci. Stat. Comput. 10(1),
    1989) and never formed.

    blocks holds (j, V_k, T_k) per block of columns j:j+b. V_k is rows j:
    of those columns, with unit diagonal and zeros above it, and T_k is b x b
    upper triangular. Both are views into the QR's own buffers.
    """

    def __init__(self, a: np.ndarray, t: np.ndarray):
        n, nb = a.shape[1], t.shape[0]
        self.blocks = []
        for j in range(0, n, nb):
            b = min(nb, n - j)
            # zgeqrt leaves R on and above the diagonal, which Q does not need
            d = a[j:j + b, j:j + b]
            d[np.triu_indices(b)] = 0
            d[np.diag_indices(b)] = 1
            self.blocks.append((j, a[j:, j:j + b], t[:b, j:j + b]))


def _random_unitary(n: int, seed: int) -> Reflectors:
    """Q factor of a seeded complex Gaussian matrix, as Householder blocks.

    The Gaussian matrix is drawn into one Fortran-ordered buffer that zgeqrt
    overwrites with the reflectors. Its real and then its imaginary part are
    filled _BLOCK rows at a time, in the order of one (n, n) draw each, so the
    build's peak is about one n x n matrix plus a row block and zgeqrt's own
    arrays, and Q is never formed.
    """
    rng = np.random.default_rng(seed)
    A = np.empty((n, n), dtype=complex, order="F")
    for part in A.real, A.imag:
        for i in range(0, n, _BLOCK):
            part[i:i + _BLOCK] = rng.standard_normal((min(_BLOCK, n - i), n))
    a, t, info = lapack.zgeqrt(min(_BLOCK, n), A, overwrite_a=True)
    if info:
        raise np.linalg.LinAlgError(f"zgeqrt failed (info {info})")
    return Reflectors(a, t)


# the random kind's block unitary, keyed by (block size, seed); it holds one at
# most, and a miss empties it before the QR, so two are never alive at once
_random_factors: dict[tuple[int, int], Reflectors] = {}


@dataclass(frozen=True)
class Precoder:
    """Energy-preserving precoder description, bound to a data-frame shape.

    subframes > 1 splits the frame along the time axis into equal blocks that
    are encoded independently. A ValueError leads with the fields it rests on.
    """

    kind: str
    shape: tuple[int, int]
    subframes: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind: unknown precoder kind {self.kind!r}; choose from {KINDS}")
        if self.subframes not in SUBFRAME_CHOICES:
            raise ValueError(f"subframes: subframes must be one of {SUBFRAME_CHOICES}")
        m, n = self.shape
        if n % self.subframes:
            raise ValueError(f"shape, subframes: time dimension {n} not divisible into "
                             f"{self.subframes} sub-frames")
        bm, bn = self.block_shape
        # a product of positive integers is a power of two only when each factor is
        if self.kind in ("fwht1d", "fwht2d") and (bm * bn) & (bm * bn - 1):
            raise ValueError(f"kind, shape, subframes: {self.kind} needs power-of-two block "
                             "dimensions")

    @property
    def factors(self) -> Reflectors:
        """The random kind's block unitary as Householder blocks, built by a
        QR on first use, so that constructing a Precoder only checks its
        parameters. Equal precoders share them; the last ones built are kept."""
        bm, bn = self.block_shape
        key = (bm * bn, self.seed)
        if key not in _random_factors:
            _random_factors.clear()
            _random_factors[key] = _random_unitary(*key)
        return _random_factors[key]

    @property
    def block_shape(self) -> tuple[int, int]:
        return self.shape[0], self.shape[1] // self.subframes

    def _code_block(self, X, inverse):
        """One block through the precoder, or through its inverse."""
        if self.kind == "none":
            return X
        if self.kind == "dsft2d":
            # its own inverse, but it exchanges the axes of a non-square block
            flip = X.shape[0] != X.shape[1]
            Y = dsft2d(X.T if inverse and flip else X)
            return Y.T if flip and not inverse else Y
        if self.kind == "fft1d":
            fft = np.fft.ifft if inverse else np.fft.fft
            return fft(X.reshape(-1), norm="ortho").reshape(X.shape)
        if self.kind == "fft2d":
            return (np.fft.ifft2 if inverse else np.fft.fft2)(X, norm="ortho")
        if self.kind in ("fwht1d", "fwht2d"):
            # Sylvester ordering: H_mn = H_m (x) H_n, so the WHT of the row-major
            # flattened block is the 2D WHT H_m X H_n; it is its own inverse
            return fwht(X.reshape(-1)).reshape(X.shape)
        x = X.flatten()
        if inverse:
            # Q^H x: the blocks first to last with T_k^H, where
            # T_k^H V_k^H x = conj(conj(V_k^H x) T_k)
            for j, V, T in self.factors.blocks:
                x[j:] -= V @ ((V.T @ x[j:].conj()) @ T).conj()
        else:
            # Q x: the blocks last to first; V_k^H x is conj(V_k^T conj(x)), since
            # V_k^T is a view and V_k^H would be a copy
            for j, V, T in reversed(self.factors.blocks):
                x[j:] -= V @ (T @ (V.T @ x[j:].conj()).conj())
        return x.reshape(X.shape)


def _code(X: np.ndarray, p: Precoder, inverse: bool) -> np.ndarray:
    """Check the frame's shape, split it into sub-frame blocks and code each."""
    X = np.asarray(X, dtype=complex)
    if X.shape != p.shape:
        raise ValueError(f"frame shape {X.shape} does not match precoder shape {p.shape}")
    return np.hstack([p._code_block(b, inverse) for b in np.hsplit(X, p.subframes)])


def encode(X: np.ndarray, p: Precoder) -> np.ndarray:
    """Precode the data frame block by block; preserves shape and energy."""
    return _code(X, p, inverse=False)


def decode(Y: np.ndarray, p: Precoder) -> np.ndarray:
    """Invert encode()."""
    return _code(Y, p, inverse=True)
