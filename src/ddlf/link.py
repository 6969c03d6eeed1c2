"""Receiver-side chain pieces: QPSK mapping, one-tap MMSE equalization,
rate-1/3 convolutional coding with hard-decision Viterbi decoding, and the
per-frame error metrics.

QPSK Gray map: bit pair (b0, b1) -> ((1 - 2 b0) + 1j (1 - 2 b1)) / sqrt(2),
so 00 -> (1 + 1j)/sqrt(2) and hard decisions are quadrant decisions. Crossing
one axis flips exactly one bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# rate-1/3 convolutional code, constraint length 7, zero-tail terminated
CONV_GENERATORS = (0o133, 0o171, 0o165)
CONV_K = 7
_N_STATES = 1 << (CONV_K - 1)

MSE_FLOOR_DB = -120.0


@dataclass(frozen=True)
class FrameMetrics:
    """Per-frame error summary: relative symbol MSE and max-to-mean symbol-error
    deviation in dB, bit error rates as ratios."""

    rel_symbol_mse_db: float
    uncoded_ber: float
    nmsed_db: float
    coded_ber: float | None = None


def modulate(bits: np.ndarray) -> np.ndarray:
    """Gray-mapped QPSK, unit average energy; bit count must be even."""
    bits = np.asarray(bits).astype(np.int8).reshape(-1)
    if len(bits) % 2:
        raise ValueError("bit count must be even for QPSK")
    re = 1.0 - 2.0 * bits[0::2]
    im = 1.0 - 2.0 * bits[1::2]
    return (re + 1j * im) / np.sqrt(2.0)


def demodulate(symbols: np.ndarray) -> np.ndarray:
    """Hard quadrant decision back to the Gray-mapped bit pairs."""
    symbols = np.asarray(symbols).reshape(-1)
    bits = np.empty(2 * len(symbols), dtype=np.int8)
    bits[0::2] = symbols.real < 0
    bits[1::2] = symbols.imag < 0
    return bits


def bits_to_frame(bits: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Modulate a bit vector row-major into a symbol frame of the given shape."""
    m, n = shape
    if len(bits) != 2 * m * n:
        raise ValueError(f"need {2 * m * n} bits for a {shape} QPSK frame")
    return modulate(bits).reshape(shape)


def frame_to_bits(frame: np.ndarray) -> np.ndarray:
    return demodulate(np.asarray(frame).reshape(-1))


def mmse_equalize(y: np.ndarray, h_tilde: np.ndarray, sigma2: float) -> np.ndarray:
    """One-tap MMSE: x_hat = conj(h) * y / (|h|^2 + sigma2), elementwise."""
    y = np.asarray(y)
    h_tilde = np.asarray(h_tilde)
    if y.shape != h_tilde.shape:
        raise ValueError("received frame and CMD estimate shapes differ")
    if sigma2 < 0:
        raise ValueError("noise variance must be nonnegative")
    denom = np.abs(h_tilde) ** 2 + sigma2
    if sigma2 == 0 and np.any(denom == 0):
        raise ZeroDivisionError("zero CMD coefficient with sigma2 = 0")
    return np.conj(h_tilde) * y / denom


def _conv_output_table():
    """Per-state next-state and 3-bit output tables for input bits 0 and 1."""
    states = np.arange(_N_STATES)
    nxt = np.empty((_N_STATES, 2), dtype=np.int64)
    out = np.empty((_N_STATES, 2), dtype=np.int64)
    for bit in (0, 1):
        reg = (bit << (CONV_K - 1)) | states
        nxt[:, bit] = reg >> 1
        sym = np.zeros(_N_STATES, dtype=np.int64)
        for g in CONV_GENERATORS:
            taps = reg & g
            parity = np.zeros(_N_STATES, dtype=np.int64)
            for shift in range(CONV_K):
                parity ^= (taps >> shift) & 1
            sym = (sym << 1) | parity
        out[:, bit] = sym
    return nxt, out


_NEXT_STATE, _OUT_SYM = _conv_output_table()


def conv_code_encode(bits: np.ndarray) -> np.ndarray:
    """Rate-1/3 encoding with a K-1 zero tail driving the encoder back to state 0."""
    bits = np.asarray(bits).astype(np.int8).reshape(-1)
    padded = np.concatenate([bits, np.zeros(CONV_K - 1, dtype=np.int8)])
    coded = np.empty(3 * len(padded), dtype=np.int8)
    for i, g in enumerate(CONV_GENERATORS):
        taps = np.array([(g >> (CONV_K - 1 - d)) & 1 for d in range(CONV_K)], dtype=np.int8)
        stream = np.convolve(padded, taps) % 2
        coded[i::3] = stream[:len(padded)]
    return coded


def conv_info_bits(n_bits: int) -> int:
    """Info bits whose zero-tail codeword fits in n_bits channel bits.

    The codeword takes 3 * (n_info + CONV_K - 1) bits; the rest of the frame,
    fewer than 3 bits, is zero pad.
    """
    n_info = n_bits // 3 - (CONV_K - 1)
    if n_info < 1:
        raise ValueError(f"{n_bits} channel bits cannot carry a zero-tail codeword")
    return n_info


def conv_code_decode_hard(coded: np.ndarray) -> np.ndarray:
    """Hard-decision Viterbi decoding of a zero-tail terminated codeword."""
    coded = np.asarray(coded).astype(np.int8).reshape(-1)
    if len(coded) % 3 or len(coded) // 3 < CONV_K - 1:
        raise ValueError("coded length must be 3*(payload + 6) for the zero-tail code")
    n_steps = len(coded) // 3
    syms = (coded[0::3].astype(np.int64) << 2) | (coded[1::3] << 1) | coded[2::3]

    # hamming distance lookup between the 8 possible branch outputs and each symbol
    pop = np.array([bin(i).count("1") for i in range(8)])
    big = 1 << 30
    pm = np.full(_N_STATES, big, dtype=np.int64)
    pm[0] = 0
    choice = np.empty((n_steps, _N_STATES), dtype=np.uint8)

    ns = np.arange(_N_STATES)
    in_bit = ns >> (CONV_K - 2)           # bit that produced each next-state
    pred0 = (ns << 1) & (_N_STATES - 1)   # predecessor with old LSB 0
    pred1 = pred0 | 1
    bd0 = _OUT_SYM[pred0, in_bit]
    bd1 = _OUT_SYM[pred1, in_bit]
    for t in range(n_steps):
        dist = pop[np.bitwise_xor([bd0, bd1], syms[t])]
        cand0 = pm[pred0] + dist[0]
        cand1 = pm[pred1] + dist[1]
        take1 = cand1 < cand0
        pm = np.where(take1, cand1, cand0)
        choice[t] = take1

    state = 0  # zero tail ends in state 0
    decoded = np.empty(n_steps, dtype=np.int8)
    for t in range(n_steps - 1, -1, -1):
        decoded[t] = state >> (CONV_K - 2)
        state = int(pred1[state] if choice[t, state] else pred0[state])
    return decoded[:n_steps - (CONV_K - 1)]


def ber_to_db(ber: float, total_bits: int) -> float:
    """10 log10 of the BER, floored at the one-error-in-2N level to stay finite."""
    floor = 1.0 / (2.0 * max(total_bits, 1))
    return float(10.0 * np.log10(max(ber, floor)))


def compute_metrics(x_hat: np.ndarray, x_ref: np.ndarray,
                    bits_tx: np.ndarray, bits_rx: np.ndarray,
                    info_tx: np.ndarray | None = None,
                    info_rx: np.ndarray | None = None) -> FrameMetrics:
    """Relative symbol MSE, bit error rates and the max-to-mean squared-error
    deviation (NMSED) for one decoded frame."""
    x_hat = np.asarray(x_hat).reshape(-1)
    x_ref = np.asarray(x_ref).reshape(-1)
    ref_energy = float(np.sum(np.abs(x_ref) ** 2))
    if ref_energy == 0:
        raise ValueError("reference frame has zero energy")
    err2 = np.abs(x_hat - x_ref) ** 2
    tot = float(np.sum(err2))
    mse_db = MSE_FLOOR_DB if tot == 0 else max(
        MSE_FLOOR_DB, float(10 * np.log10(tot / ref_energy)))
    nmsed_db = 0.0 if tot == 0 else float(10 * np.log10(err2.max() / err2.mean()))
    ber = float(np.mean(np.asarray(bits_tx) != np.asarray(bits_rx)))
    coded = None
    if info_tx is not None and info_rx is not None:
        coded = float(np.mean(np.asarray(info_tx) != np.asarray(info_rx)))
    return FrameMetrics(rel_symbol_mse_db=mse_db, uncoded_ber=ber,
                        nmsed_db=nmsed_db, coded_ber=coded)
