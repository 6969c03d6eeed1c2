"""Tests for the orthogonal precoding module."""

import tracemalloc

import numpy as np
import pytest

from ddlf.transforms import KINDS, Precoder, decode, dsft2d, encode, fwht


def rand_frame(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestDsft2d:
    def test_self_inverse(self):
        X = rand_frame((8, 8), 1)
        assert np.abs(dsft2d(dsft2d(X)) - X).max() < 1e-12

    def test_self_inverse_non_square(self):
        X = rand_frame((4, 8), 2)
        assert np.abs(dsft2d(dsft2d(X)) - X).max() < 1e-12

    def test_impulse_to_constant(self):
        X = np.zeros((8, 8), dtype=complex)
        X[0, 0] = 1.0
        out = dsft2d(X)
        assert np.abs(out - 1.0 / 8.0).max() < 1e-12

    def test_unitary(self):
        X = rand_frame((8, 8), 3)
        assert np.linalg.norm(dsft2d(X)) == pytest.approx(np.linalg.norm(X), rel=1e-12)

    def test_quadruple_loop_oracle(self):
        # x[m, n] = (1/sqrt(N' M')) sum_{l,k} X[l, k] e^{-2j pi (n l / N' - m k / M')}
        Np, Mp = 8, 8
        X = rand_frame((Np, Mp), 4)
        want = np.zeros((Mp, Np), dtype=complex)
        for m in range(Mp):
            for n in range(Np):
                acc = 0.0 + 0j
                for l in range(Np):
                    for k in range(Mp):
                        acc += X[l, k] * np.exp(-2j * np.pi * (n * l / Np - m * k / Mp))
                want[m, n] = acc / np.sqrt(Np * Mp)
        assert np.abs(dsft2d(X) - want).max() < 1e-12


class TestFwht:
    def test_involution(self):
        v = rand_frame(64, 5)
        assert np.abs(fwht(fwht(v)) - v).max() < 1e-12

    def test_impulse(self):
        v = np.zeros(16)
        v[0] = 1.0
        assert np.abs(fwht(v) - 0.25).max() < 1e-12

    def test_length_four_explicit(self):
        out = fwht(np.array([1.0, 0.0, 0.0, 0.0]))
        assert np.abs(out - np.array([0.5, 0.5, 0.5, 0.5])).max() < 1e-12

    def test_matches_hadamard_matrix_oracle(self):
        H = np.array([[1.0]])
        while H.shape[0] < 64:
            H = np.block([[H, H], [H, -H]])
        v = rand_frame(64, 6)
        want = H @ v / np.sqrt(64)
        assert np.abs(fwht(v) - want).max() < 1e-11

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fwht(np.zeros(12))


class TestPrecoder:
    @pytest.mark.parametrize("kind", KINDS)
    def test_roundtrip_square(self, kind):
        p = Precoder(kind=kind, shape=(16, 16), seed=7)
        X = rand_frame((16, 16), 8)
        assert np.abs(decode(encode(X, p), p) - X).max() < 1e-10

    @pytest.mark.parametrize("kind", KINDS)
    def test_energy_preserved(self, kind):
        p = Precoder(kind=kind, shape=(16, 16), seed=7)
        X = rand_frame((16, 16), 9)
        assert np.linalg.norm(encode(X, p)) == pytest.approx(np.linalg.norm(X), rel=1e-10)

    @pytest.mark.parametrize("kind", ("dsft2d", "fft2d", "fwht2d", "random"))
    @pytest.mark.parametrize("subframes", (2, 4, 8))
    def test_roundtrip_subframes(self, kind, subframes):
        p = Precoder(kind=kind, shape=(16, 16), subframes=subframes, seed=10)
        X = rand_frame((16, 16), 11)
        assert np.abs(decode(encode(X, p), p) - X).max() < 1e-10

    def test_kind_none_identity(self):
        p = Precoder(kind="none", shape=(8, 8))
        X = rand_frame((8, 8), 12)
        assert np.array_equal(encode(X, p), X)

    def test_subframe_blocks_independent(self):
        p = Precoder(kind="dsft2d", shape=(16, 16), subframes=2)
        X = rand_frame((16, 16), 13)
        Y = encode(X, p)
        X2 = X.copy()
        X2[:, 8:] = rand_frame((16, 8), 14)
        Y2 = encode(X2, p)
        assert np.abs(Y2[:, :8] - Y[:, :8]).max() < 1e-14
        assert np.abs(Y2[:, 8:] - Y[:, 8:]).max() > 1e-3

    def test_non_square_dsft_roundtrip(self):
        p = Precoder(kind="dsft2d", shape=(16, 8))
        X = rand_frame((16, 8), 15)
        enc = encode(X, p)
        assert enc.shape == X.shape
        assert np.abs(decode(enc, p) - X).max() < 1e-10

    def test_random_precoder_deterministic(self):
        a = Precoder(kind="random", shape=(8, 8), seed=3)
        b = Precoder(kind="random", shape=(8, 8), seed=3)
        X = rand_frame((8, 8), 16)
        assert np.array_equal(encode(X, a), encode(X, b))
        c = Precoder(kind="random", shape=(8, 8), seed=4)
        assert not np.allclose(encode(X, a), encode(X, c))

    def test_random_decode_copies_no_matrix(self):
        p = Precoder(kind="random", shape=(16, 16), seed=5)  # one 256 x 256 block
        Y = encode(rand_frame((16, 16), 18), p)
        decode(Y, p)
        tracemalloc.start()
        try:
            X = decode(Y, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < p._matrix.nbytes / 8
        assert np.abs(encode(X, p) - Y).max() < 1e-12

    def test_fwht_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Precoder(kind="fwht2d", shape=(12, 16))
        with pytest.raises(ValueError):
            Precoder(kind="fwht1d", shape=(12, 5))

    def test_rejects_unknown_kind_and_subframes(self):
        with pytest.raises(ValueError):
            Precoder(kind="dct", shape=(8, 8))
        with pytest.raises(ValueError):
            Precoder(kind="dsft2d", shape=(8, 8), subframes=3)

    def test_shape_mismatch(self):
        p = Precoder(kind="dsft2d", shape=(8, 8))
        with pytest.raises(ValueError):
            encode(rand_frame((4, 8), 17), p)
