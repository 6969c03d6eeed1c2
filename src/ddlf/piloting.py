"""Pilot and data index management for the TF frame.

Accordion pilot placement inserts a fixed number of pilots per row, circularly
shifting the row pattern by an offset chosen to maximize the minimal distance
of the resulting point lattice, so pilots spread as uniformly as possible
between the precoded data cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def round_half_away(x: float) -> int:
    """round() with halves away from zero (numpy/python round halves to even)."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


@dataclass(frozen=True)
class PilotPlacement:
    """Partition of the M x N frame into pilot cells and data cells.

    pilot_indices orders the pilot cells (fixing the pilot map kappa_p) and
    data_indices orders the data cells row-major (fixing kappa_d onto the
    M_data x N_data data frame).
    """

    M: int
    N: int
    M_data: int
    N_data: int
    pilot_indices: tuple[tuple[int, int], ...]
    data_indices: tuple[tuple[int, int], ...]

    def __post_init__(self):
        cells = set(self.pilot_indices) | set(self.data_indices)
        if len(self.pilot_indices) + len(self.data_indices) != self.M * self.N \
                or len(cells) != self.M * self.N:
            raise ValueError("pilot and data indices must partition the frame")
        if len(self.data_indices) != self.M_data * self.N_data:
            raise ValueError("data cell count does not match the data-frame shape")

    @property
    def P(self) -> int:
        return len(self.pilot_indices)

    def pilot_array_indices(self):
        """Index arrays (rows, cols) selecting pilot cells in kappa_p order."""
        return self._index_arrays[0]

    def data_array_indices(self):
        """Index arrays (rows, cols) selecting data cells in kappa_d order."""
        return self._index_arrays[1]

    @cached_property
    def _index_arrays(self):
        return _read_only_rc(self.pilot_indices), _read_only_rc(self.data_indices)


def _read_only_rc(cells: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays of the cells, built once and locked against writes."""
    rc = np.array(cells, dtype=int).reshape(-1, 2).T.copy()
    rc.flags.writeable = False
    return rc[0], rc[1]


@dataclass(frozen=True)
class PilotSequence:
    """Known pilot symbols, unit energy per symbol by default."""

    symbols: np.ndarray
    energy: float = 1.0


def qpsk_pilot_sequence(P: int, seed: int = 0) -> PilotSequence:
    """Unit-magnitude QPSK pilots drawn from a seeded generator."""
    rng = np.random.default_rng(seed)
    phases = np.pi / 4 + (np.pi / 2) * rng.integers(0, 4, size=P)
    return PilotSequence(symbols=np.exp(1j * phases))


def lattice_min_distance_sq(lam: int, mu: int) -> int:
    """Squared minimal distance of the lattice {(l, lam*k + mu*l)} over integers.

    The minimum over l != 0 is found with k bracketing -mu*l/lam (robust to
    the rounding direction); l = 0 contributes lam^2.
    """
    if lam < 2:
        raise ValueError("lam must be at least 2")
    if not 0 <= mu < lam:
        raise ValueError("mu must lie in [0, lam)")
    best = lam * lam
    for ell in range(1, lam + 1):
        t = -mu * ell / lam
        for k in range(math.floor(t) - 1, math.ceil(t) + 2):
            best = min(best, ell * ell + (lam * k + mu * ell) ** 2)
    return best


def optimal_shift(lam: int) -> int:
    """Row shift in [0, lam) maximizing the lattice minimal distance (ties: smallest)."""
    if lam < 2:
        raise ValueError("lam must be at least 2")
    best_mu, best_d = 0, -1
    for mu in range(lam):
        d = lattice_min_distance_sq(lam, mu)
        if d > best_d:
            best_mu, best_d = mu, d
    return best_mu


def accordion_placement(m_data: int, n_data: int, pilots_per_row: int) -> PilotPlacement:
    """Spread pilots_per_row pilots into each row of the widened transmit frame.

    The frame becomes M x (N_data + pilots_per_row). A single row template
    places the pilots as evenly as rounding allows; each subsequent row applies
    the distance-optimal circular shift, producing the diagonal striping that
    keeps every data cell close to a pilot.
    """
    if m_data < 1 or n_data < 1:
        raise ValueError("data frame dimensions must be positive")
    if not 1 <= pilots_per_row < n_data:
        raise ValueError("pilots per row must satisfy 1 <= P' < N_data")
    M = m_data
    N = n_data + pilots_per_row
    lam = round_half_away(N / pilots_per_row)
    mu = optimal_shift(lam)
    template = [round_half_away(nb * N / pilots_per_row) % N for nb in range(pilots_per_row)]
    if len(set(template)) != pilots_per_row:
        raise ValueError("row template collision; pilots per row too dense")
    pilot_indices = []
    data_indices = []
    for m in range(M):
        cols = sorted((mu * m + r) % N for r in template)
        col_set = set(cols)
        pilot_indices.extend((m, n) for n in cols)
        data_indices.extend((m, n) for n in range(N) if n not in col_set)
    return PilotPlacement(M=M, N=N, M_data=m_data, N_data=n_data,
                          pilot_indices=tuple(pilot_indices),
                          data_indices=tuple(data_indices))


def all_data_placement(M: int, N: int) -> PilotPlacement:
    """Placement with no pilots: the whole frame carries data (full-CSI studies)."""
    data = tuple((m, n) for m in range(M) for n in range(N))
    return PilotPlacement(M=M, N=N, M_data=M, N_data=N,
                          pilot_indices=(), data_indices=data)


def multiplex(data_frame: np.ndarray, pilots: PilotSequence,
              pl: PilotPlacement) -> np.ndarray:
    """Assemble the M x N TF frame from the precoded data frame and pilot vector."""
    data_frame = np.asarray(data_frame)
    if data_frame.shape != (pl.M_data, pl.N_data):
        raise ValueError(f"data frame shape {data_frame.shape} does not match "
                         f"placement ({pl.M_data}, {pl.N_data})")
    if len(pilots.symbols) != pl.P:
        raise ValueError(f"pilot vector length {len(pilots.symbols)} != P = {pl.P}")
    frame = np.zeros((pl.M, pl.N), dtype=complex)
    dr, dc = pl.data_array_indices()
    frame[dr, dc] = data_frame.reshape(-1)
    if pl.P:
        pr, pc = pl.pilot_array_indices()
        frame[pr, pc] = pilots.symbols
    return frame


def demultiplex(frame: np.ndarray, pl: PilotPlacement) -> np.ndarray:
    """Extract the data cells back into the M_data x N_data data frame."""
    frame = np.asarray(frame)
    if frame.shape != (pl.M, pl.N):
        raise ValueError(f"frame shape {frame.shape} does not match placement")
    dr, dc = pl.data_array_indices()
    return frame[dr, dc].reshape(pl.M_data, pl.N_data)


def extract_pilots(frame: np.ndarray, pl: PilotPlacement) -> np.ndarray:
    """Read the received pilot cells in kappa_p order."""
    frame = np.asarray(frame)
    if frame.shape != (pl.M, pl.N):
        raise ValueError(f"frame shape {frame.shape} does not match placement")
    pr, pc = pl.pilot_array_indices()
    return frame[pr, pc]
