"""Benchmark workloads: three seeded sweeps through ``ddlf.harness.run_sweep``.

Each workload is a closed-loop batch run from one process: one sweep of
``trials`` trials per axis value, the next sweep started only after the
previous one returned. BLAS runs one thread per process and ``threads`` is
the ``DDLF_THREADS`` trial parallelism, so at most ``threads`` processes
compute at once (the machine this was sized on has two cores).
"""

from __future__ import annotations

from dataclasses import dataclass

# Master seed of the pinned reference CSVs in perfbench/reference/.
DEFAULT_SEED = 1


def sweep_seed(seed: int, k: int) -> int:
    """Master seed of the k-th sweep (and k-th set-up probe) of a run at ``seed``.

    Each sweep of a run draws new channels, bits and noise, so a run averages
    over many realizations: the SRH solver's iteration count depends on them.
    """
    return seed * 1000 + k


ALL_ESTIMATORS = ("lmmse", "srh", "srh-na", "srh-ma", "srh-mna", "perfect")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict  # ExperimentConfig fields; the master seed comes from --seed
    axis: str
    values: tuple[float, ...]
    threads: int

    @property
    def trials(self) -> int:
        """Trials in one sweep; each is scored by every configured estimator."""
        return self.config["trials"] * len(self.values)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk-snr",
        why="16x16 dsft2d frame, all six estimators, coded, SNR 0/10/20: every operator "
            "is shared by all trials, so per-trial overhead and hoisting show most",
        config=dict(estimators=ALL_ESTIMATORS, coding=True, trials=10),
        axis="snr", values=(0.0, 10.0, 20.0), threads=1,
    ),
    Workload(
        name="paper-srh",
        why="paper scale 64x64, 58 paths, lmmse/srh-mna/perfect, uncoded: SRH goes to CG "
            "and the dense filterbank and channel dominate; link and harness cost nothing",
        config=dict(m_data=64, n_data=62, pilots_per_row=2, bandwidth=5.0e6,
                    scatterers=58, estimators=("lmmse", "srh-mna", "perfect"),
                    snr_db=(15.0,), trials=2),
        axis="snr", values=(15.0,), threads=1,
    ),
    Workload(
        name="mid-random-velocity",
        why="32x32 random precoder, srh-ma/perfect, velocity 100/250/500 km/h, 2 workers: "
            "per-trial QR and per-point pool spawn dominate; bypasses coding, CG, self-interference",
        config=dict(m_data=32, n_data=30, pilots_per_row=2, precoder="random",
                    estimators=("srh-ma", "perfect"), snr_db=(15.0,), trials=4),
        axis="velocity", values=(100.0, 250.0, 500.0), threads=2,
    ),
)}
