"""Reference implementations that only the tests use."""

import numpy as np

from ddlf.channel import ChannelError, DDChannel, true_cmd
from ddlf.gabor import ambiguity_table


def fractional_shift(samples: np.ndarray, delay_samples: float) -> np.ndarray:
    """Cyclic band-limited delay by a (possibly fractional) number of samples,
    with one FFT pair and a per-bin exp ramp."""
    L = len(samples)
    spectrum = np.fft.fft(samples)
    return np.fft.ifft(spectrum * np.exp(-2j * np.pi * np.fft.fftfreq(L) * delay_samples))


def own_box_cmd(ch, pulse, grid):
    """The true CMD of ch, read from the ambiguity table of pulse on ch's own box."""
    return true_cmd(ch, ambiguity_table(pulse, pulse, grid, ch.tau_max, ch.nu_max))


def per_path_apply(f, ch, grid):
    """Reference: one FFT pair and two length-L exp ramps per path."""
    L = grid.L
    t = np.arange(L) / grid.fs
    out = np.zeros(L, dtype=complex)
    for tau, nu, eta in zip(ch.tau, ch.nu, ch.eta):
        ramp = np.exp(-2j * np.pi * np.arange(L) * (tau * grid.fs) / L)
        out += eta * np.fft.ifft(np.fft.fft(f) * ramp) * np.exp(2j * np.pi * nu * t)
    return out


def channel_to_csv(ch: DDChannel) -> str:
    """Path dump (columns r, tau_s, nu_hz, eta_re, eta_im) for fixtures."""
    lines = ["r,tau_s,nu_hz,eta_re,eta_im"]
    for r, (tau, nu, eta) in enumerate(zip(ch.tau, ch.nu, ch.eta)):
        lines.append(f"{r},{tau:.17g},{nu:.17g},{eta.real:.17g},{eta.imag:.17g}")
    return "\n".join(lines) + "\n"


def channel_from_csv(text: str, tau_max: float, nu_max: float) -> DDChannel:
    """Rebuild a channel from its channel_to_csv dump."""
    rows = [ln for ln in text.splitlines() if ln.strip()]
    if not rows or rows[0] != "r,tau_s,nu_hz,eta_re,eta_im":
        raise ChannelError("not a channel dump (bad header)")
    _, tau, nu, re, im = np.array([ln.split(",") for ln in rows[1:]],
                                  dtype=float).reshape(-1, 5).T
    return DDChannel(tau, nu, re + 1j * im, tau_max=tau_max, nu_max=nu_max)
