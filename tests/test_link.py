"""Tests for modulation, equalization, coding and metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlf.link import (
    CONV_GENERATORS,
    CONV_K,
    ber_to_db,
    compute_metrics,
    conv_code_decode_hard,
    conv_code_encode,
    conv_info_bits,
    demodulate,
    bits_to_frame,
    mmse_equalize,
    modulate,
)


def scalar_viterbi(coded):
    """Reference decoder for one codeword: a gather of both predecessors per
    next state, the even one kept on a tie, and a scalar traceback."""
    n_states = 1 << (CONV_K - 1)
    states = np.arange(n_states)
    out = np.empty((n_states, 2), dtype=np.int64)
    for bit in (0, 1):
        reg = (bit << (CONV_K - 1)) | states
        sym = np.zeros(n_states, dtype=np.int64)
        for g in CONV_GENERATORS:
            taps = reg & g
            parity = np.zeros(n_states, dtype=np.int64)
            for shift in range(CONV_K):
                parity ^= (taps >> shift) & 1
            sym = (sym << 1) | parity
        out[:, bit] = sym

    coded = np.asarray(coded).astype(np.int8).reshape(-1)
    n_steps = len(coded) // 3
    syms = (coded[0::3].astype(np.int64) << 2) | (coded[1::3] << 1) | coded[2::3]
    pop = np.array([bin(i).count("1") for i in range(8)])
    pm = np.full(n_states, 1 << 30, dtype=np.int64)
    pm[0] = 0
    choice = np.empty((n_steps, n_states), dtype=np.uint8)
    in_bit = states >> (CONV_K - 2)
    pred0 = (states << 1) & (n_states - 1)
    pred1 = pred0 | 1
    bd0 = out[pred0, in_bit]
    bd1 = out[pred1, in_bit]
    for t in range(n_steps):
        dist = pop[np.bitwise_xor([bd0, bd1], syms[t])]
        cand0 = pm[pred0] + dist[0]
        cand1 = pm[pred1] + dist[1]
        take1 = cand1 < cand0
        pm = np.where(take1, cand1, cand0)
        choice[t] = take1
    state = 0
    decoded = np.empty(n_steps, dtype=np.int8)
    for t in range(n_steps - 1, -1, -1):
        decoded[t] = state >> (CONV_K - 2)
        state = int(pred1[state] if choice[t, state] else pred0[state])
    return decoded[:n_steps - (CONV_K - 1)]


class TestQpsk:
    def test_zero_bits_map_to_first_quadrant(self):
        sym = modulate(np.array([0, 0]))
        assert sym[0] == pytest.approx((1 + 1j) / np.sqrt(2))
        assert np.array_equal(demodulate(sym), [0, 0])

    def test_roundtrip_all_patterns(self):
        for b0 in (0, 1):
            for b1 in (0, 1):
                bits = np.array([b0, b1])
                assert np.array_equal(demodulate(modulate(bits)), bits)

    def test_unit_average_energy(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=2000)
        syms = modulate(bits)
        assert np.mean(np.abs(syms) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_gray_property_across_boundary(self):
        # decision boundaries are the axes; stepping across one flips one bit
        just_left = np.exp(1j * np.deg2rad(89.0))
        just_right = np.exp(1j * np.deg2rad(91.0))
        delta = np.sum(demodulate(np.array([just_left]))
                       != demodulate(np.array([just_right])))
        assert delta == 1

    def test_frame_helpers(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=2 * 4 * 6)
        frame = bits_to_frame(bits, (4, 6))
        assert frame.shape == (4, 6)
        # demodulate reads a 2D frame row-major, as bits_to_frame fills it
        assert np.array_equal(demodulate(frame), bits)

    def test_odd_bit_count_rejected(self):
        with pytest.raises(ValueError):
            modulate(np.array([1, 0, 1]))

    @pytest.mark.parametrize("n_bits", [2 * 4 * 6 - 2, 2 * 4 * 6 + 2])
    def test_frame_needs_its_bit_count(self, n_bits):
        with pytest.raises(ValueError, match=r"need 48 bits for a \(4, 6\) QPSK frame"):
            bits_to_frame(np.zeros(n_bits, dtype=np.int8), (4, 6))


class TestMmseEqualize:
    def test_identity(self):
        y = np.array([[1 + 1j, 2.0]])
        out = mmse_equalize(y, np.ones((1, 2)), 0.0)
        assert np.abs(out - y).max() < 1e-14

    def test_zero_coefficient_with_noise(self):
        y = np.array([[1.0 + 0j]])
        out = mmse_equalize(y, np.zeros((1, 1)), 0.1)
        assert out[0, 0] == 0.0

    def test_zero_forcing_limit(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h0 = 0.7 - 0.4j
        out = mmse_equalize(h0 * x, np.full((4, 4), h0), 0.0)
        assert np.abs(out - x).max() < 1e-12

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        h = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        sigma2 = 0.3
        out = mmse_equalize(y, h, sigma2)
        for i in range(5):
            for j in range(7):
                want = np.conj(h[i, j]) * y[i, j] / (abs(h[i, j]) ** 2 + sigma2)
                assert abs(out[i, j] - want) < 1e-14

    def test_zero_division_guard(self):
        with pytest.raises(ZeroDivisionError):
            mmse_equalize(np.ones((1, 1)), np.zeros((1, 1)), 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            mmse_equalize(np.ones((2, 3)), np.ones((3, 2)), 0.1)

    def test_rejects_negative_noise_variance(self):
        with pytest.raises(ValueError, match="noise variance must be nonnegative"):
            mmse_equalize(np.ones((1, 1)), np.ones((1, 1)), -0.1)


class TestConvCode:
    def test_roundtrip_various_lengths(self):
        rng = np.random.default_rng(4)
        for length in (1, 7, 64, 500, 4096):
            bits = rng.integers(0, 2, size=length).astype(np.int8)
            coded = conv_code_encode(bits)
            assert len(coded) == 3 * (length + 6)
            assert np.array_equal(conv_code_decode_hard(coded), bits)

    def test_all_zero_codeword(self):
        assert not np.any(conv_code_encode(np.zeros(32, dtype=np.int8)))

    def test_single_error_correction_exhaustive(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=64).astype(np.int8)
        coded = conv_code_encode(bits)
        for pos in range(len(coded)):
            corrupted = coded.copy()
            corrupted[pos] ^= 1
            assert np.array_equal(conv_code_decode_hard(corrupted), bits), pos

    def test_burst_of_three_errors_corrected(self):
        rng = np.random.default_rng(6)
        bits = rng.integers(0, 2, size=128).astype(np.int8)
        coded = conv_code_encode(bits)
        coded[30:33] ^= 1
        assert np.array_equal(conv_code_decode_hard(coded), bits)

    def test_info_bits_fill_frame(self):
        # the codeword plus a pad of under 3 bits fills the QPSK frame exactly
        for n_symbols in range(11, 300):
            n_bits = 2 * n_symbols
            coded = conv_code_encode(np.zeros(conv_info_bits(n_bits), dtype=np.int8))
            assert 0 <= n_bits - len(coded) < 3

    def test_info_bits_rejects_tiny_frame(self):
        with pytest.raises(ValueError, match="cannot carry"):
            conv_info_bits(20)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            conv_code_decode_hard(np.zeros(32, dtype=np.int8))

    def test_stack_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            conv_code_decode_hard(np.zeros((3, 32), dtype=np.int8))
        with pytest.raises(ValueError):
            conv_code_decode_hard(np.zeros((2, 3, 21), dtype=np.int8))

    def test_one_codeword_stays_one_dimensional(self):
        bits = np.array([1, 0, 1, 1], dtype=np.int8)
        coded = conv_code_encode(bits)
        assert conv_code_decode_hard(coded).shape == (4,)
        assert conv_code_decode_hard(coded[None]).shape == (1, 4)

    @settings(max_examples=40)
    @given(n_cw=st.sampled_from((1, 2, 7)), payload=st.integers(1, 4096),
           flip=st.floats(0.0, 0.3), seed=st.integers(0, 2**32 - 1))
    def test_stack_matches_scalar_oracle(self, n_cw, payload, flip, seed):
        # at high flip rates path metrics tie, so this also pins the tie-break
        rng = np.random.default_rng(seed)
        coded = np.stack([conv_code_encode(rng.integers(0, 2, payload)) for _ in range(n_cw)])
        coded ^= (rng.random(coded.shape) < flip).astype(np.int8)
        got = conv_code_decode_hard(coded)
        assert got.shape == (n_cw, payload)
        for row, cw in zip(got, coded):
            assert np.array_equal(row, scalar_viterbi(cw))


class TestMetrics:
    def test_perfect_frame_floors(self):
        x = np.ones((2, 2), dtype=complex)
        bits = np.zeros(8, dtype=np.int8)
        m = compute_metrics(x, x, bits, bits)
        assert m.rel_symbol_mse_db == -120.0
        assert m.uncoded_ber == 0.0
        assert m.nmsed_db == 0.0

    def test_uniform_error_gives_zero_nmsed(self):
        # same |error| on every symbol -> max equals mean
        x = np.ones((2, 2), dtype=complex)
        m = compute_metrics(x + 0.1j, x, np.zeros(2), np.zeros(2))
        assert m.nmsed_db == pytest.approx(0.0, abs=1e-9)

    def test_single_error_symbol_nmsed(self):
        x = np.ones(64, dtype=complex)
        xh = x.copy()
        xh[10] += 1.0
        m = compute_metrics(xh, x, np.zeros(2), np.zeros(2))
        assert m.nmsed_db == pytest.approx(10 * np.log10(64), abs=1e-9)

    def test_mse_value(self):
        x = np.ones(4, dtype=complex)
        xh = x + 0.1
        m = compute_metrics(xh, x, np.zeros(2), np.zeros(2))
        assert m.rel_symbol_mse_db == pytest.approx(10 * np.log10(0.01), abs=1e-9)

    def test_coded_ber_optional(self):
        x = np.ones(4, dtype=complex)
        m = compute_metrics(x, x, np.zeros(4), np.ones(4),
                            np.zeros(4), np.array([0, 0, 1, 0]))
        assert m.uncoded_ber == 1.0
        assert m.coded_ber == pytest.approx(0.25)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics(np.ones(4), np.zeros(4), np.zeros(2), np.zeros(2))

    def test_ber_floor(self):
        assert ber_to_db(0.0, 1000) == pytest.approx(10 * np.log10(1 / 2000))
        assert ber_to_db(0.1, 1000) == pytest.approx(-10.0)
