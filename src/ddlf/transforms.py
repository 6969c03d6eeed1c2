"""Orthogonal linear precoding of the data frame.

Every kind is an isometry: the 2D symplectic DFT (self-inverse), unitary
1D/2D FFTs, the normalized Walsh-Hadamard transform, and a seeded random
unitary. Frames may be split along the time axis into independent sub-frame
blocks that are each precoded separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

KINDS = ("none", "dsft2d", "fft1d", "fft2d", "fwht1d", "fwht2d", "random")
SUBFRAME_CHOICES = (1, 2, 4, 8)


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


def _random_unitary(n: int, seed: int) -> np.ndarray:
    """Q factor of a seeded complex Gaussian matrix.

    The Gaussian matrix is drawn into one Fortran-ordered buffer that the QR
    overwrites, which keeps the build's peak memory to about two n x n
    matrices instead of the five that np.linalg.qr holds at once.
    """
    rng = np.random.default_rng(seed)
    A = np.empty((n, n), dtype=complex, order="F")
    A.real = rng.standard_normal((n, n))
    A.imag = rng.standard_normal((n, n))
    Q, _ = scipy.linalg.qr(A, mode="economic", overwrite_a=True, check_finite=False)
    return Q


# the random kind's block unitary, keyed by (block size, seed); it holds one at
# most, and a miss empties it before the QR, so two are never alive at once
_random_matrix: dict[tuple[int, int], np.ndarray] = {}


@dataclass(frozen=True)
class Precoder:
    """Energy-preserving precoder description, bound to a data-frame shape.

    subframes > 1 splits the frame along the time axis into equal blocks that
    are encoded independently.
    """

    kind: str
    shape: tuple[int, int]
    subframes: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown precoder kind {self.kind!r}; choose from {KINDS}")
        if self.subframes not in SUBFRAME_CHOICES:
            raise ValueError(f"subframes must be one of {SUBFRAME_CHOICES}")
        m, n = self.shape
        if n % self.subframes:
            raise ValueError(f"time dimension {n} not divisible into {self.subframes} sub-frames")
        bm, bn = self.block_shape
        # a product of positive integers is a power of two only when each factor is
        if self.kind in ("fwht1d", "fwht2d") and (bm * bn) & (bm * bn - 1):
            raise ValueError(f"{self.kind} needs power-of-two block dimensions")

    @property
    def matrix(self) -> np.ndarray:
        """The random kind's block unitary, built by a QR on first use, so
        that constructing a Precoder only checks its parameters. Equal
        precoders share one; the last one built is kept."""
        bm, bn = self.block_shape
        key = (bm * bn, self.seed)
        if key not in _random_matrix:
            _random_matrix.clear()
            _random_matrix[key] = _random_unitary(*key)
        return _random_matrix[key]

    @property
    def block_shape(self) -> tuple[int, int]:
        return self.shape[0], self.shape[1] // self.subframes

    def _encode_block(self, X):
        if self.kind == "none":
            return X
        if self.kind == "dsft2d":
            Y = dsft2d(X)
            return Y if Y.shape == X.shape else Y.T
        if self.kind == "fft1d":
            return np.fft.fft(X.reshape(-1), norm="ortho").reshape(X.shape)
        if self.kind == "fft2d":
            return np.fft.fft2(X, norm="ortho")
        if self.kind in ("fwht1d", "fwht2d"):
            # Sylvester ordering: H_mn = H_m (x) H_n, so the WHT of the row-major
            # flattened block is the 2D WHT H_m X H_n
            return fwht(X.reshape(-1)).reshape(X.shape)
        return (self.matrix @ X.reshape(-1)).reshape(X.shape)

    def _decode_block(self, Y):
        if self.kind == "none":
            return Y
        if self.kind == "dsft2d":
            return dsft2d(Y) if Y.shape[0] == Y.shape[1] else dsft2d(Y.T)
        if self.kind == "fft1d":
            return np.fft.ifft(Y.reshape(-1), norm="ortho").reshape(Y.shape)
        if self.kind == "fft2d":
            return np.fft.ifft2(Y, norm="ortho")
        if self.kind in ("fwht1d", "fwht2d"):
            return self._encode_block(Y)
        # Q^H y as conj(Q^T conj(y)): the transpose is a view, Q^H would be an n x n copy
        return (self.matrix.T @ Y.reshape(-1).conj()).conj().reshape(Y.shape)

    def _blocks(self, X):
        return np.split(np.asarray(X, dtype=complex), self.subframes, axis=1)


def encode(X: np.ndarray, p: Precoder) -> np.ndarray:
    """Precode the data frame block by block; preserves shape and energy."""
    X = np.asarray(X)
    if X.shape != p.shape:
        raise ValueError(f"frame shape {X.shape} does not match precoder shape {p.shape}")
    return np.concatenate([p._encode_block(b) for b in p._blocks(X)], axis=1)


def decode(Y: np.ndarray, p: Precoder) -> np.ndarray:
    """Invert encode()."""
    Y = np.asarray(Y)
    if Y.shape != p.shape:
        raise ValueError(f"frame shape {Y.shape} does not match precoder shape {p.shape}")
    return np.concatenate([p._decode_block(b) for b in p._blocks(Y)], axis=1)
