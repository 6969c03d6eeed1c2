"""Tests for the orthogonal precoding module."""

import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlf import transforms
from ddlf.transforms import (
    KINDS,
    SUBFRAME_CHOICES,
    Precoder,
    decode,
    dsft2d,
    encode,
    fwht,
)


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

    def test_random_matrix_built_on_first_use(self, qrs):
        p = Precoder("random", (8, 8), seed=1)
        assert qrs == []
        encode(rand_frame((8, 8), 19), p)
        assert qrs == [(64, 1)]
        assert [V.shape for _, V, _ in p.factors.blocks] == [(64, 64)]

    def test_equal_random_precoders_share_one_matrix(self, qrs):
        a = Precoder("random", (8, 8), seed=1)
        b = Precoder("random", (8, 8), seed=1)
        assert a.factors is b.factors
        assert qrs == [(64, 1)]

    def test_another_random_matrix_replaces_the_first(self, qrs):
        a = Precoder("random", (8, 8), seed=1)
        first = a.factors
        Precoder("random", (8, 8), seed=2).factors
        assert list(transforms._random_factors) == [(64, 2)]
        assert a.factors is not first  # rebuilt, equal to the first
        assert all(j == j1 and np.array_equal(V, V1) and np.array_equal(T, T1)
                   for (j, V, T), (j1, V1, T1) in zip(a.factors.blocks, first.blocks, strict=True))
        assert qrs == [(64, 1), (64, 2), (64, 1)]

    def test_precoder_is_a_frozen_hashable_value(self):
        a = Precoder("random", (8, 8), seed=1)
        assert {a: 1}[Precoder("random", (8, 8), seed=1)] == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.seed = 2
        assert all(f.name != "_matrix" for f in dataclasses.fields(Precoder))

    def test_random_matrix_is_not_a_parameter(self):
        # the unitary is derived from (kind, shape, subframes, seed), so it is
        # neither a constructor argument nor part of equality
        assert "_matrix" not in inspect.signature(Precoder).parameters
        a = Precoder("random", (8, 8), seed=1)
        assert a == Precoder("random", (8, 8), seed=1)
        assert a != Precoder("random", (8, 8), seed=2)

    def test_random_decode_copies_no_matrix(self):
        p = Precoder(kind="random", shape=(16, 16), seed=5)  # one 256 x 256 block
        Y = encode(rand_frame((16, 16), 18), p)
        peaks = []
        for apply in (decode, encode):
            tracemalloc.start()
            try:
                apply(Y, p)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        # an eighth of the 256 x 256 complex unitary
        assert max(peaks) < 256 * 256 * 16 / 8
        assert np.abs(encode(decode(Y, p), p) - Y).max() < 1e-12

    @pytest.mark.parametrize("n", [1, transforms._BLOCK - 1, transforms._BLOCK,
                                   transforms._BLOCK + 1, 240])
    def test_random_blocks_apply_the_qr_q(self, n):
        # one short block, one full block, a full block and a one-column block,
        # and four blocks of which the last is short
        rng = np.random.default_rng(n)  # the random kind's draw
        Q = scipy.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        p = Precoder("random", (n, 1), seed=n)
        eye = np.eye(n, dtype=complex)
        assert np.abs(np.hstack([encode(e[:, None], p) for e in eye]) - Q).max() < 1e-12
        assert np.abs(np.hstack([decode(e[:, None], p) for e in eye]) - Q.conj().T).max() < 1e-12

    @pytest.mark.parametrize("subframes", (1, 2))
    def test_random_decode_inverts_encode(self, subframes):
        p = Precoder(kind="random", shape=(16, 16), subframes=subframes, seed=12)
        X = rand_frame((16, 16), 13)
        Y = encode(X, p)
        assert np.linalg.norm(Y) == pytest.approx(np.linalg.norm(X), rel=1e-12)
        assert np.abs(decode(Y, p) - X).max() < 1e-12
        assert np.abs(encode(decode(X, p), p) - X).max() < 1e-12

    def test_random_build_forms_no_second_matrix(self):
        n = 256
        tracemalloc.start()
        try:
            transforms._random_unitary(n, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the drawn matrix, which the QR overwrites, a row block of the draw and
        # zgeqrt's own arrays; forming Q would take a second n x n complex matrix
        assert peak < 1.75 * n * n * 16

    def test_random_draw_needs_no_n_by_n_temporary(self):
        n = 512
        tracemalloc.start()
        try:
            transforms._random_unitary(n, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the drawn matrix, filled a row block at a time, and zgeqrt's own
        # arrays; a whole (n, n) real part drawn at once would add half of it
        assert peak <= 1.3 * n * n * 16

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

    def test_shape_mismatch_decode(self):
        p = Precoder(kind="dsft2d", shape=(8, 8))
        with pytest.raises(ValueError):
            decode(rand_frame((4, 8), 17), p)


def dsft2d_loops(X):
    """dsft2d by its defining quadruple sum, of shape (B, A) for X of (A, B)."""
    A, B = X.shape
    out = np.zeros((B, A), dtype=complex)
    for m, n, l, k in np.ndindex(B, A, A, B):
        out[m, n] += X[l, k] * np.exp(-2j * np.pi * (n * l / A - m * k / B))
    return out / np.sqrt(A * B)


class TestEncodeDirection:
    """Each kind's encode against its matrix. Round trips and isometries also
    hold with encode and decode swapped; these do not."""

    @pytest.mark.parametrize("subframes", (1, 2))
    def test_fft1d_is_the_dft_of_the_row_major_block(self, subframes):
        p = Precoder(kind="fft1d", shape=(6, 8), subframes=subframes)
        X = rand_frame((6, 8), 20)
        # the unitary DFT matrix, F[j, k] = e^{-2j pi j k / n} / sqrt(n)
        want = [(scipy.linalg.dft(b.size, scale="sqrtn") @ b.reshape(-1)).reshape(b.shape)
                for b in np.split(X, subframes, axis=1)]
        assert np.abs(encode(X, p) - np.concatenate(want, axis=1)).max() < 1e-12

    @pytest.mark.parametrize("subframes", (1, 2))
    def test_fft2d_is_f_m_x_f_n_transposed(self, subframes):
        p = Precoder(kind="fft2d", shape=(6, 8), subframes=subframes)
        X = rand_frame((6, 8), 21)
        Fm, Fn = (scipy.linalg.dft(n, scale="sqrtn") for n in p.block_shape)
        want = [Fm @ b @ Fn.T for b in np.split(X, subframes, axis=1)]
        assert np.abs(encode(X, p) - np.concatenate(want, axis=1)).max() < 1e-12

    @pytest.mark.parametrize("subframes", (1, 2))
    def test_non_square_dsft2d_is_the_transposed_loop_oracle(self, subframes):
        p = Precoder(kind="dsft2d", shape=(6, 8), subframes=subframes)  # 6x8 or 6x4 blocks
        X = rand_frame((6, 8), 22)
        want = [dsft2d_loops(b).T for b in np.split(X, subframes, axis=1)]
        assert np.abs(encode(X, p) - np.concatenate(want, axis=1)).max() < 1e-12


def is_power_of_two(n):
    return n & (n - 1) == 0


class TestWalshHadamardKinds:
    """fwht1d and fwht2d name one map: the Sylvester-ordered WHT of a block."""

    @settings(max_examples=60)
    @given(rows=st.integers(0, 5), block_cols=st.integers(0, 4),
           subframes=st.sampled_from(SUBFRAME_CHOICES), seed=st.integers(0, 2**32 - 1))
    def test_both_kinds_encode_the_2d_wht(self, rows, block_cols, subframes, seed):
        bm, bn = 2 ** rows, 2 ** block_cols
        shape = (bm, subframes * bn)
        X = rand_frame(shape, seed)
        Y1 = encode(X, Precoder(kind="fwht1d", shape=shape, subframes=subframes))
        Y2 = encode(X, Precoder(kind="fwht2d", shape=shape, subframes=subframes))
        assert np.abs(Y1 - Y2).max() <= 1e-12
        # each block is H_m X H_n / sqrt(m n)
        Hm, Hn = scipy.linalg.hadamard(bm), scipy.linalg.hadamard(bn)
        want = np.concatenate([Hm @ b @ Hn for b in np.split(X, subframes, axis=1)], axis=1)
        assert np.abs(Y2 - want / np.sqrt(bm * bn)).max() <= 1e-12

    @settings(max_examples=100)
    @given(rows=st.integers(1, 40), block_cols=st.integers(1, 20),
           subframes=st.sampled_from(SUBFRAME_CHOICES))
    def test_both_kinds_reject_the_same_shapes(self, rows, block_cols, subframes):
        shape = (rows, subframes * block_cols)
        errors = {}
        for kind in ("fwht1d", "fwht2d"):
            try:
                Precoder(kind=kind, shape=shape, subframes=subframes)
            except ValueError as exc:
                errors[kind] = str(exc)
        rejected = not (is_power_of_two(rows) and is_power_of_two(block_cols))
        assert set(errors) == ({"fwht1d", "fwht2d"} if rejected else set())
        for kind, message in errors.items():
            assert message.startswith(f"kind, shape, subframes: {kind} needs")


@st.composite
def precoded_frames(draw):
    """A precoder kind, subframe count and data-frame shape it accepts."""
    kind = draw(st.sampled_from(KINDS))
    subframes = draw(st.sampled_from(SUBFRAME_CHOICES))
    if kind.startswith("fwht"):
        rows = 2 ** draw(st.integers(0, 4))
        block_cols = 2 ** draw(st.integers(0, 3))
    else:
        rows = draw(st.integers(1, 12))
        block_cols = draw(st.integers(1, 8))
    return kind, subframes, (rows, subframes * block_cols), draw(st.integers(0, 2**32 - 1))


class TestPrecoderProperties:
    @settings(max_examples=60)
    @given(case=precoded_frames())
    def test_isometry_and_perfect_reconstruction(self, case):
        kind, subframes, shape, seed = case
        p = Precoder(kind=kind, shape=shape, subframes=subframes, seed=seed % 1000)
        X1, X2 = rand_frame(shape, seed), rand_frame(shape, seed + 1)
        Y1, Y2 = encode(X1, p), encode(X2, p)
        assert Y1.shape == shape
        # encode keeps inner products, so it is an isometry on every frame
        assert np.vdot(Y1, Y2) == pytest.approx(np.vdot(X1, X2), rel=1e-10, abs=1e-10)
        assert np.linalg.norm(Y1) == pytest.approx(np.linalg.norm(X1), rel=1e-10)
        assert np.abs(decode(Y1, p) - X1).max() <= 1e-10 * np.abs(X1).max()
