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

    pilot_indices orders the pilot cells (fixing the pilot map kappa_p); the
    data cells are the other cells in row-major order (fixing kappa_d onto
    the M_data x N_data data frame).
    """

    M: int
    N: int
    M_data: int
    N_data: int
    pilot_indices: tuple[tuple[int, int], ...]

    def __post_init__(self):
        cells = set(self.pilot_indices)
        if len(cells) != self.P or not all(0 <= m < self.M and 0 <= n < self.N
                                           for m, n in cells):
            raise ValueError("pilot indices must be distinct cells of the frame")
        if self.M_data * self.N_data != self.M * self.N - self.P:
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
        pilots = np.array(self.pilot_indices, dtype=int).reshape(-1, 2).T.copy()
        is_data = np.ones((self.M, self.N), dtype=bool)
        is_data[pilots[0], pilots[1]] = False
        data = np.array(np.nonzero(is_data))
        for rc in (pilots, data):
            rc.flags.writeable = False
        return tuple(pilots), tuple(data)


def qpsk_pilot_sequence(P: int, seed: int = 0) -> np.ndarray:
    """P unit-magnitude QPSK pilot symbols in kappa_p order, drawn from a
    seeded generator."""
    rng = np.random.default_rng(seed)
    phases = np.pi / 4 + (np.pi / 2) * rng.integers(0, 4, size=P)
    return np.exp(1j * phases)


def _min_distances_sq(lam: int, mu: int | np.ndarray) -> np.ndarray:
    """Squared minimal distance of the lattice {(l, lam*k + mu*l)} for each shift
    in mu (an int or an integer array).

    For fixed l, min over k of |lam*k + mu*l| is min(r, lam - r) with
    r = mu*l mod lam. The lattice is symmetric under l -> -l, and l = lam
    gives lam^2, the distance at l = 0, which no l > lam can beat; so the
    minimum is over l = 1 .. lam, in exact integer arithmetic.
    """
    ell = np.arange(1, lam + 1)
    r = np.multiply.outer(mu, ell) % lam
    return (ell**2 + np.minimum(r, lam - r) ** 2).min(axis=-1)


def lattice_min_distance_sq(lam: int, mu: int) -> int:
    """Squared minimal distance of the lattice {(l, lam*k + mu*l)} over integers."""
    if lam < 2:
        raise ValueError("lam must be at least 2")
    if not 0 <= mu < lam:
        raise ValueError("mu must lie in [0, lam)")
    return int(_min_distances_sq(lam, mu))


def optimal_shift(lam: int) -> int:
    """Row shift in [0, lam) maximizing the lattice minimal distance (ties: smallest)."""
    if lam < 2:
        raise ValueError("lam must be at least 2")
    return int(np.argmax(_min_distances_sq(lam, np.arange(lam))))


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
    # spaced N/P' > 2 apart, the rounded positions are distinct cells below N
    template = [round_half_away(nb * N / pilots_per_row) for nb in range(pilots_per_row)]
    rows = (sorted((mu * m + r) % N for r in template) for m in range(M))
    return PilotPlacement(M=M, N=N, M_data=m_data, N_data=n_data,
                          pilot_indices=tuple((m, n) for m, cols in enumerate(rows) for n in cols))


def all_data_placement(M: int, N: int) -> PilotPlacement:
    """Placement with no pilots: the whole frame carries data (full-CSI studies)."""
    return PilotPlacement(M=M, N=N, M_data=M, N_data=N, pilot_indices=())


def multiplex(data_frame: np.ndarray, pilots: np.ndarray,
              pl: PilotPlacement) -> np.ndarray:
    """Assemble the M x N TF frame from the precoded data frame and the pilot
    symbols in kappa_p order."""
    data_frame = np.asarray(data_frame)
    if data_frame.shape != (pl.M_data, pl.N_data):
        raise ValueError(f"data frame shape {data_frame.shape} does not match "
                         f"placement ({pl.M_data}, {pl.N_data})")
    if len(pilots) != pl.P:
        raise ValueError(f"pilot vector length {len(pilots)} != P = {pl.P}")
    frame = np.zeros((pl.M, pl.N), dtype=complex)
    dr, dc = pl.data_array_indices()
    frame[dr, dc] = data_frame.reshape(-1)
    pr, pc = pl.pilot_array_indices()
    frame[pr, pc] = pilots
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
