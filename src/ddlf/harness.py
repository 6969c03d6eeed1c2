"""End-to-end Monte-Carlo experiment driver.

Composes modulation, precoding, pilot multiplexing, the Gabor filterbank, the
dispersive channel, CMD estimation, equalization and decoding into seeded
trials, and aggregates sweeps over SNR, velocity or pilot density into CSV
rows. Every trial is a pure function of (config, trial index, master seed);
all estimators within a trial share one physical realization so comparisons
are seed-paired.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import channel as chan
from . import estimation as est
from . import gabor, link, piloting, transforms

CARRIER_HZ = 5.9e9
LIGHT_SPEED = 299792458.0

ESTIMATOR_CHOICES = est.VARIANTS + ("perfect",)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment description with desk-scale defaults.

    The transmit frame is m_data x (n_data + pilots_per_row); pilots_per_row=0
    runs a pilot-free frame (only the "perfect" estimator is then valid).
    tau_max / nu_max default to 4.5 delay bins and 0.7 Doppler bins of the
    frame grid; a velocity (km/h) overrides nu_max via the 5.9 GHz carrier.
    """

    m_data: int = 16
    n_data: int = 15
    pilots_per_row: int = 1
    tf_product: float = 1.25
    bandwidth: float = 5.0e6
    pulse_spread: float = 1.0
    precoder: str = "dsft2d"
    subframes: int = 1
    precoder_seed: int = 2024
    scatterers: int = 8
    tau_max: float | None = None
    nu_max: float | None = None
    velocity: float | None = None
    power_profile: float | None = None
    fractional: bool = True
    estimators: tuple[str, ...] = ("srh-mna",)
    omega: float | None = None
    recon_q: int = 2
    recon_w: int = 1
    recon_wn: int = 4
    sigma_z2: float | str = "auto"
    snr_db: tuple[float, ...] = (15.0,)
    trials: int = 200
    seed: int = 1
    coding: bool = False

    def __post_init__(self):
        for e in self.estimators:
            if e not in ESTIMATOR_CHOICES:
                raise ValueError(f"unknown estimator {e!r}; choose from {ESTIMATOR_CHOICES}")
        if not self.estimators or not self.snr_db:
            raise ValueError("estimator list and snr list must be non-empty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.pilots_per_row == 0 and set(self.estimators) != {"perfect"}:
            raise ValueError("a pilot-free frame supports only the 'perfect' estimator")
        if isinstance(self.sigma_z2, str) and self.sigma_z2 != "auto":
            raise ValueError("sigma_z2 must be 'auto' or a number")


@dataclass(frozen=True)
class ResultRow:
    """Aggregated metrics for one sweep point and estimator."""

    snr_db: float
    velocity_kmh: float | None
    pilots: int
    estimator: str
    precoder: str
    subframes: int
    trials: int
    mse_db_mean: float
    mse_db_std: float
    uncoded_ber_mean: float
    uncoded_ber_std: float
    uncoded_ber_db: float
    nmsed_db_mean: float
    nmsed_db_std: float
    coded_ber_mean: float | None = None
    coded_ber_std: float | None = None
    coded_ber_db: float | None = None


CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(ResultRow))


def velocity_to_nu_max(velocity_kmh: float, carrier_hz: float = CARRIER_HZ) -> float:
    """Maximum Doppler shift of a relative velocity given in km/h."""
    return velocity_kmh / 3.6 * carrier_hz / LIGHT_SPEED


@lru_cache(maxsize=32)
def _tight_pulse(grid: gabor.GaborGrid, spread: float) -> gabor.Pulse:
    return gabor.tight_orthogonalize(gabor.gaussian_prototype(grid, spread), grid)


@lru_cache(maxsize=8)
def _placement(m_data: int, n_data: int, pilots_per_row: int) -> piloting.PilotPlacement:
    if pilots_per_row == 0:
        return piloting.all_data_placement(m_data, n_data)
    return piloting.accordion_placement(m_data, n_data, pilots_per_row)


def build_placement(cfg: ExperimentConfig) -> piloting.PilotPlacement:
    return _placement(cfg.m_data, cfg.n_data, cfg.pilots_per_row)


# one entry: a paper-scale random precoder holds a 3968 x 3968 complex matrix
@lru_cache(maxsize=1)
def _precoder(kind: str, shape: tuple[int, int], subframes: int,
              seed: int) -> transforms.Precoder:
    return transforms.Precoder(kind=kind, shape=shape, subframes=subframes, seed=seed)


def build_grid(cfg: ExperimentConfig, pl: piloting.PilotPlacement) -> gabor.GaborGrid:
    return gabor.make_grid(pl.M, pl.N, cfg.tf_product, cfg.bandwidth)


def resolve_spreads(cfg: ExperimentConfig, grid: gabor.GaborGrid) -> tuple[float, float]:
    """Channel delay/Doppler bounds in seconds and hertz."""
    tau_max = cfg.tau_max if cfg.tau_max is not None else 4.5 / (grid.M * grid.F)
    if cfg.velocity is not None:
        nu_max = velocity_to_nu_max(cfg.velocity)
    elif cfg.nu_max is not None:
        nu_max = cfg.nu_max
    else:
        nu_max = 0.7 / (grid.N * grid.T)
    return tau_max, nu_max


def _estimator_config(name: str, cfg: ExperimentConfig, grid: gabor.GaborGrid,
                      sigma2: float, sigma_z2: float,
                      tau_max: float, nu_max: float) -> est.EstimatorConfig:
    # mode weights in grid-step units so the three curvature channels balance,
    # ratio-normalized so the omega default keeps its meaning across channels
    scale = np.sqrt(nu_max * grid.T * tau_max * grid.F)
    if scale > 0:
        alpha = nu_max * grid.T / scale
        beta = tau_max * grid.F / scale
    else:
        alpha = beta = 1.0
    return est.EstimatorConfig(
        variant=name, sigma2=sigma2, sigma_z2=sigma_z2,
        alpha=alpha, beta=beta, omega=cfg.omega,
        grid_k=est.ReconstructionGrid(Q=cfg.recon_q, W=cfg.recon_w, Wn=cfg.recon_wn),
    )


def _point_operators(cfg: ExperimentConfig):
    """Placement, grid, tight pulse and precoder of a sweep point, each built
    once per process and shared by its trials."""
    pl = build_placement(cfg)
    grid = build_grid(cfg, pl)
    pulse = _tight_pulse(grid, cfg.pulse_spread)
    precoder = _precoder(cfg.precoder, (pl.M_data, pl.N_data), cfg.subframes,
                         cfg.precoder_seed)
    return pl, grid, pulse, precoder


def run_trial(cfg: ExperimentConfig, snr_db: float, trial_index: int
              ) -> dict[str, link.FrameMetrics]:
    """Run one seeded trial and evaluate every configured estimator on the
    same bits, channel and noise realization."""
    rng = np.random.default_rng((cfg.seed, trial_index))
    pl, grid, pulse, precoder = _point_operators(cfg)
    tau_max, nu_max = resolve_spreads(cfg, grid)

    n_bits = 2 * pl.M_data * pl.N_data
    if cfg.coding:
        info_bits = rng.integers(0, 2, size=link.conv_info_bits(n_bits)).astype(np.int8)
        coded = link.conv_code_encode(info_bits)
        bits_tx = np.zeros(n_bits, dtype=np.int8)
        bits_tx[:len(coded)] = coded
    else:
        info_bits = None
        bits_tx = rng.integers(0, 2, size=n_bits).astype(np.int8)

    pilots = piloting.qpsk_pilot_sequence(pl.P, seed=int(rng.integers(2**32)))
    ch_cfg = chan.ChannelConfig(R=cfg.scatterers, tau_max=tau_max, nu_max=nu_max,
                                power_profile=cfg.power_profile,
                                seed=int(rng.integers(2**62)), fractional=cfg.fractional)
    ch = chan.generate_channel(ch_cfg, grid)

    X = link.bits_to_frame(bits_tx, (pl.M_data, pl.N_data))
    frame_tx = piloting.multiplex(transforms.encode(X, precoder), pilots, pl)
    sig = gabor.synthesize(frame_tx, pulse, grid)
    sigma2 = float(10.0 ** (-snr_db / 10.0))
    rx_clean = chan.apply_channel(sig, ch, grid)
    y = gabor.analyze(chan.add_noise(rx_clean, sigma2, rng), pulse, grid)

    h_true = chan.true_cmd(ch, pulse, pulse, grid)
    if not isinstance(cfg.sigma_z2, str):
        sigma_z2 = float(cfg.sigma_z2)
    elif any(e in ("srh-na", "srh-mna") for e in cfg.estimators):
        sigma_z2 = chan.self_interference_power(gabor.analyze(rx_clean, pulse, grid),
                                                frame_tx, h_true)
    else:
        sigma_z2 = 0.0

    h_pilot = None
    if pl.P:
        h_pilot = est.partial_cmd(piloting.extract_pilots(y, pl), pilots)

    results: dict[str, link.FrameMetrics] = {}
    for name in cfg.estimators:
        if name == "perfect":
            h_tilde = h_true
        else:
            ecfg = _estimator_config(name, cfg, grid, sigma2, sigma_z2, tau_max, nu_max)
            h_tilde = est.estimate(h_pilot, pl, ecfg).h_tilde
        x_eq = link.mmse_equalize(y, h_tilde, sigma2)
        X_hat = transforms.decode(piloting.demultiplex(x_eq, pl), precoder)
        bits_rx = link.frame_to_bits(X_hat)
        info_rx = None
        if cfg.coding:
            info_rx = link.conv_code_decode_hard(bits_rx[:len(coded)])
        results[name] = link.compute_metrics(X_hat, X, bits_tx, bits_rx,
                                             info_bits, info_rx)
    return results


def _trial_worker(args):
    cfg, snr_db, index = args
    return index, run_trial(cfg, snr_db, index)


def _max_workers() -> int:
    return max(1, int(os.environ.get("DDLF_THREADS", "1")))


def run_point(cfg: ExperimentConfig, snr_db: float
              ) -> dict[str, list[link.FrameMetrics]]:
    """All trials for one sweep point; per-estimator metric lists in trial order."""
    workers = _max_workers()
    per_trial: list[dict[str, link.FrameMetrics]] = [None] * cfg.trials
    if workers == 1 or cfg.trials == 1:
        for i in range(cfg.trials):
            per_trial[i] = run_trial(cfg, snr_db, i)
    else:
        _point_operators(cfg)  # forked workers inherit them
        jobs = [(cfg, snr_db, i) for i in range(cfg.trials)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for i, res in pool.map(_trial_worker, jobs):
                per_trial[i] = res
    return {name: [t[name] for t in per_trial] for name in cfg.estimators}


def _aggregate(cfg: ExperimentConfig, snr_db: float, estimator: str,
               metrics: list[link.FrameMetrics], pilots: int) -> ResultRow:
    def stats(vals):
        arr = np.array(vals, dtype=float)
        return float(arr.mean()), float(arr.std(ddof=1) if len(arr) > 1 else 0.0)

    mse_m, mse_s = stats([m.rel_symbol_mse_db for m in metrics])
    ber_m, ber_s = stats([m.uncoded_ber for m in metrics])
    nms_m, nms_s = stats([m.nmsed_db for m in metrics])
    n_bits = 2 * cfg.m_data * cfg.n_data
    coded_m = coded_s = coded_db = None
    if metrics[0].coded_ber is not None:
        coded_m, coded_s = stats([m.coded_ber for m in metrics])
        coded_db = link.ber_to_db(coded_m, link.conv_info_bits(n_bits) * cfg.trials)
    return ResultRow(
        snr_db=snr_db, velocity_kmh=cfg.velocity,
        pilots=pilots, estimator=estimator,
        precoder=cfg.precoder, subframes=cfg.subframes, trials=cfg.trials,
        mse_db_mean=mse_m, mse_db_std=mse_s,
        uncoded_ber_mean=ber_m, uncoded_ber_std=ber_s,
        uncoded_ber_db=link.ber_to_db(ber_m, n_bits * cfg.trials),
        nmsed_db_mean=nms_m, nmsed_db_std=nms_s,
        coded_ber_mean=coded_m, coded_ber_std=coded_s, coded_ber_db=coded_db,
    )


def _sweep_config(cfg: ExperimentConfig, axis: str, value: float) -> tuple[ExperimentConfig, float]:
    """Config variant and SNR for one sweep value on the given axis."""
    if axis == "snr":
        return cfg, float(value)
    snr = cfg.snr_db[0]
    if axis == "velocity":
        return dataclasses.replace(cfg, velocity=float(value), nu_max=None), snr
    if axis == "pilots":
        ppr = int(value)
        frame_n = cfg.n_data + cfg.pilots_per_row
        return dataclasses.replace(cfg, pilots_per_row=ppr, n_data=frame_n - ppr), snr
    raise ValueError(f"unknown sweep axis {axis!r}")


def run_sweep(cfg: ExperimentConfig, axis: str, values) -> list[ResultRow]:
    """Cross-product execution over the axis values and configured estimators.

    The pilots axis keeps the transmit frame fixed and trades data cells for
    pilot cells; velocity values are km/h; snr values are dB.
    """
    rows = []
    for value in values:
        point_cfg, snr = _sweep_config(cfg, axis, value)
        point = run_point(point_cfg, snr)
        for name in point_cfg.estimators:
            rows.append(_aggregate(point_cfg, snr, name, point[name],
                                   build_placement(point_cfg).P))
    return rows


def simulate(cfg: ExperimentConfig) -> list[ResultRow]:
    """Run the configured SNR list (the default experiment)."""
    return run_sweep(cfg, "snr", cfg.snr_db)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def rows_to_csv(rows: list[ResultRow]) -> str:
    """Stable RFC-4180 CSV with a header row; byte-identical for equal inputs."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(getattr(row, col)) for col in CSV_COLUMNS])
    return buf.getvalue()


def write_csv(rows: list[ResultRow], path: str):
    with open(path, "w", newline="") as fh:
        fh.write(rows_to_csv(rows))
