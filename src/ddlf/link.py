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


# the output symbol of each encoder register, the input bit on top of the
# state: one parity bit per generator, the first generator in the top bit
_SYMBOL = np.array([int("".join(str(bin(reg & g).count("1") % 2) for g in CONV_GENERATORS), 2)
                    for reg in range(2 * _N_STATES)])
# Hamming distance from each received 3-bit symbol r to every trellis branch
# output, indexed [r, lsb, bit, j]: the branch that leaves state 2j + lsb on
# input bit and enters state bit * 32 + j; C-contiguous, so that each trellis
# step adds one contiguous [lsb, bit, j] block
_BRANCH_DIST = np.array([bin(i).count("1") for i in range(8)], dtype=np.int32)[
    np.arange(8)[:, None, None, None] ^ _SYMBOL.reshape(2, -1, 2).transpose(2, 0, 1).copy()]
_ACS_CHUNK = 16  # trellis steps whose branch distances are looked up at once


def conv_code_encode(bits: np.ndarray) -> np.ndarray:
    """Rate-1/3 encoding with a K-1 zero tail driving the encoder back to state 0.

    Each step's register (the input bit on top of the K-1 before it) is one
    convolution of the bits with the powers of two, and its symbol in _SYMBOL
    gives the step's 3 coded bits, top bit first.
    """
    bits = np.asarray(bits).astype(np.int8).reshape(-1) & 1
    padded = np.concatenate([bits, np.zeros(CONV_K - 1, dtype=np.int8)])
    reg = np.convolve(padded, 1 << np.arange(CONV_K - 1, -1, -1))[:len(padded)]
    return ((_SYMBOL[reg][:, None] >> np.arange(2, -1, -1)) & 1).astype(np.int8).reshape(-1)


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
    """Hard-decision Viterbi decoding of zero-tail terminated codewords.

    ``coded`` is one codeword of shape (n,) or a stack of B codewords of shape
    (B, n), with n = 3 * (payload + 6); the result is the payload of shape
    (n/3 - 6,) or (B, n/3 - 6). One add-compare-select per trellis step serves
    all B codewords: next state (bit, j) = bit * 32 + j is reached from states
    2j and 2j + 1, so its two candidate metrics come from the even and odd
    views of the path metrics, plus branch distances looked up by received
    symbol. On a tie the even predecessor wins.
    """
    coded = np.asarray(coded).astype(np.int8)
    if coded.ndim not in (1, 2):
        raise ValueError("coded bits must be one codeword (n,) or a stack (B, n)")
    stack = coded.reshape(-1, coded.shape[-1])
    n_cw, n = stack.shape
    if n % 3 or n // 3 < CONV_K - 1:
        raise ValueError("coded length must be 3*(payload + 6) for the zero-tail code")
    n_steps = n // 3
    triples = stack.reshape(n_cw, n_steps, 3)
    syms = ((triples[..., 0] << 2) | (triples[..., 1] << 1) | triples[..., 2]).T.copy()

    half = _N_STATES // 2
    pm = np.full((n_cw, _N_STATES), 1 << 20, dtype=np.int32)  # unreached states
    pm[:, 0] = 0
    pred = pm.reshape(n_cw, half, 2).transpose(0, 2, 1)[:, :, None, :]  # [b, lsb, -, j]
    nxt = pm.reshape(n_cw, 2, half)                                     # [b, bit, j]
    cand = np.empty((n_cw, 2, 2, half), dtype=np.int32)                 # [b, lsb, bit, j]
    cand0, cand1 = cand[:, 0], cand[:, 1]
    choice = np.empty((n_steps, n_cw, 2, half), dtype=bool)  # odd predecessor taken
    for t0 in range(0, n_steps, _ACS_CHUNK):
        steps = slice(t0, t0 + _ACS_CHUNK)
        for dist, take1 in zip(_BRANCH_DIST[syms[steps]], choice[steps]):
            np.add(pred, dist, out=cand)
            np.less(cand1, cand0, out=take1)
            np.minimum(cand0, cand1, out=nxt)

    # bit s of words[b][t] is the choice of codeword b's state s at step t
    words = np.packbits(choice.reshape(n_steps, n_cw, _N_STATES), axis=-1, bitorder="little")
    words = words.view("<u8")[..., 0].T.tolist()
    decoded = np.empty((n_cw, n_steps), dtype=np.int8)
    for row, word in zip(decoded, words):
        bits = [0] * n_steps
        state = 0  # zero tail ends in state 0
        for t in range(n_steps - 1, -1, -1):
            bits[t] = state >> (CONV_K - 2)
            state = ((state & (half - 1)) << 1) | (word[t] >> state & 1)
        row[:] = bits
    decoded = decoded[:, :n_steps - (CONV_K - 1)]
    return decoded[0] if coded.ndim == 1 else decoded


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
