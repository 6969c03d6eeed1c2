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
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

from . import channel as chan
from . import estimation as est
from . import gabor, link, piloting, transforms

CARRIER_HZ = 5.9e9
LIGHT_SPEED = 299792458.0

ESTIMATOR_CHOICES = est.VARIANTS + ("perfect",)


def _sigma2(snr_db: float) -> float:
    """Noise variance per unit-energy symbol at snr_db; a ValueError unless it
    is a positive finite float (an SNR of a few thousand dB is not)."""
    try:
        sigma2 = 10.0 ** (-float(snr_db) / 10.0)
    except OverflowError:
        sigma2 = math.inf
    if not 0.0 < sigma2 < math.inf:
        raise ValueError(f"{snr_db:g} dB gives the noise variance {sigma2!r}, "
                         "which is not a positive finite number")
    return sigma2


def _key(default, help: str | None, key: str | None = None):
    """An ExperimentConfig field with its config-file help and its key, where that
    is not the field name with '-' for '_' (the first field of a key has its help)."""
    return dataclasses.field(default=default, metadata={"help": help, "key": key})


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment description with desk-scale defaults.

    The transmit frame is m_data x (n_data + pilots_per_row); pilots_per_row=0
    runs a pilot-free frame (only the "perfect" estimator is then valid).
    tau_max / nu_max default to 4.5 delay bins and 0.7 Doppler bins of the
    frame grid; a velocity (km/h) overrides nu_max via the 5.9 GHz carrier.
    sigma_z2 = None (auto) measures the self-interference power in each trial.
    """

    m_data: int = _key(16, "M'xN' data frame, e.g. 16x15", "data-shape")
    n_data: int = _key(15, None, "data-shape")
    pilots_per_row: int = _key(1, "pilots inserted per frame row; 0 = no pilots")
    tf_product: float = _key(1.25, "grid T*F product")
    bandwidth: float = _key(5.0e6, "sampled bandwidth in Hz")
    pulse_spread: float = _key(1.0, "Gaussian prototype width factor")
    precoder: str = _key("dsft2d", "|".join(transforms.KINDS))
    subframes: int = _key(1, "|".join(map(str, transforms.SUBFRAME_CHOICES))
                          + " independent time blocks")
    precoder_seed: int = _key(2024, "seed for the random precoder")
    scatterers: int = _key(8, "channel path count")
    tau_max: float | None = _key(None, "delay spread in seconds, or auto")
    nu_max: float | None = _key(None, "Doppler spread in Hz, or auto")
    velocity: float | None = _key(None, "relative speed in km/h (overrides nu-max)")
    power_profile: float | None = _key(None, "exponential delay-decay rate 1/s, or auto")
    fractional: bool = _key(True, "true|false off-grid channel shifts")
    estimators: tuple[str, ...] = _key(("srh-mna",), "comma list: "
                                       + ",".join(ESTIMATOR_CHOICES), "estimator")
    omega: float | None = _key(None, "SRH fidelity weight, or auto (1/P)")
    recon_q: int = _key(2, "LMMSE reconstruction-grid Doppler extent", "Q")
    recon_w: int = _key(1, "LMMSE reconstruction-grid delay guard", "W")
    recon_wn: int = _key(4, "LMMSE reconstruction-grid delay extent", "Wn")
    sigma_z2: float | None = _key(None, "self-interference power, or auto")
    snr_db: tuple[float, ...] = _key((15.0,), "comma list of SNR points in dB", "snr")
    trials: int = _key(200, "Monte-Carlo trials per point")
    seed: int = _key(1, "master seed")
    coding: bool = _key(False, "true|false rate-1/3 convolutional")

    def __post_init__(self):
        # tuples also when given lists, so that a config can be a dict key
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "snr_db", tuple(self.snr_db))
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, float) and not math.isfinite(v):
                    raise ValueError(f"{f.name}: expected a finite number, got {v!r}")
        with _config_key("snr_db"):
            for snr in self.snr_db:
                _sigma2(snr)
        for e in self.estimators:
            if e not in ESTIMATOR_CHOICES:
                raise ValueError(f"estimators: unknown estimator {e!r}; "
                                 f"choose from {ESTIMATOR_CHOICES}")
        if not self.estimators:
            raise ValueError("estimators: expected at least one estimator")
        if not self.snr_db:
            raise ValueError("snr_db: expected at least one SNR")
        if self.trials < 1:
            raise ValueError(f"trials: expected at least 1, got {self.trials}")
        if self.pilots_per_row == 0 and set(self.estimators) != {"perfect"}:
            raise ValueError("pilots_per_row, estimators: a pilot-free frame supports only "
                             "the 'perfect' estimator")
        if not (self.sigma_z2 is None or isinstance(self.sigma_z2, (int, float))
                and self.sigma_z2 >= 0):
            raise ValueError("sigma_z2: expected None (auto) or a nonnegative number, "
                             f"got {self.sigma_z2!r}")
        for name in ("seed", "precoder_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: expected a nonnegative integer, "
                                 f"got {getattr(self, name)}")


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


def build_placement(cfg: ExperimentConfig) -> piloting.PilotPlacement:
    if cfg.pilots_per_row == 0:
        return piloting.all_data_placement(cfg.m_data, cfg.n_data)
    return piloting.accordion_placement(cfg.m_data, cfg.n_data, cfg.pilots_per_row)


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


def _doppler_key(cfg: ExperimentConfig) -> str:
    """The config key that the Doppler spread comes from."""
    return "velocity" if cfg.velocity is not None else "nu_max"


@contextmanager
def _config_key(key: str):
    """Prefix an error raised inside the block with the config key(s) it comes from."""
    try:
        yield
    except ValueError as e:
        raise type(e)(f"{key}: {e}") from e


@dataclass(frozen=True, eq=False)
class Point:
    """What every trial of a sweep point shares: validate_point() builds it
    with the channel config (seed 0; each trial draws its own seed) and every
    estimator's zero-noise config, and prepare() adds the estimators'
    operators."""

    cfg: ExperimentConfig
    pl: piloting.PilotPlacement
    grid: gabor.GaborGrid
    pulse: gabor.Pulse
    precoder: transforms.Precoder
    channel: chan.ChannelConfig
    estimators: dict  # estimator name -> its zero-noise estimation.EstimatorConfig
    operators: dict  # estimator name -> its linear map (estimation.operator)


def validate_point(cfg: ExperimentConfig) -> Point:
    """Check a sweep point before any trial runs, and return its unprepared
    Point. This builds the placement, grid, spreads, tight pulse, precoder
    (without the random kind's QR), reconstruction grid, and the channel
    config and every estimator config, which the Point keeps. Each uses its
    own checks, and an error names the offending key. It also rejects SRH
    variants on pilot cells of one line and, with coding, a data frame too
    small for a codeword."""
    with _config_key("pilots_per_row"):
        pl = build_placement(cfg)
    # the Hessian energy is zero on affine fields, so on pilot cells of one
    # line (every 2x2 minor of their offsets from the first is zero, so that
    # [row, col, 1] has rank below 3) the SRH minimizer is not unique
    if set(cfg.estimators) & set(est.SRH_VARIANTS):
        d = np.array(pl.pilot_indices) - pl.pilot_indices[0]
        if np.array_equal(np.outer(d[:, 0], d[:, 1]), np.outer(d[:, 1], d[:, 0])):
            raise ValueError("pilots_per_row, estimators: the pilot cells lie on one line, "
                             "where an SRH estimate is not unique")
    if cfg.coding:
        with _config_key("coding, m_data, n_data"):
            link.conv_info_bits(2 * pl.M_data * pl.N_data)
    with _config_key("tf_product, bandwidth"):
        grid = build_grid(cfg, pl)
    tau_max, nu_max = resolve_spreads(cfg, grid)
    doppler_key = _doppler_key(cfg)
    if tau_max < 0 or nu_max < 0:
        raise ValueError(f"tau_max, {doppler_key}: spreads must be nonnegative "
                         f"(tau_max = {tau_max:.6g} s, nu_max = {nu_max:.6g} Hz)")
    if tau_max >= grid.duration:
        raise ValueError(f"tau_max: {tau_max:.6g} s is not below the frame duration "
                         f"{grid.duration:.6g} s")
    if 2.0 * tau_max * nu_max >= 0.1:
        raise ValueError(f"tau_max, {doppler_key}: 2*tau_max*nu_max = "
                         f"{2.0 * tau_max * nu_max:.3g} >= 0.1 (tau_max = {tau_max:.6g} s, "
                         f"nu_max = {nu_max:.6g} Hz); the channel is not underspread")
    with _config_key("scatterers, power_profile"):
        channel = chan.ChannelConfig(R=cfg.scatterers, tau_max=tau_max, nu_max=nu_max,
                                     power_profile=cfg.power_profile,
                                     fractional=cfg.fractional)
    # tight orthogonalization needs the channels to tile the band (M*b = L)
    with _config_key("tf_product" if grid.M * grid.freq_shift != grid.L else "pulse_spread"):
        pulse = _tight_pulse(grid, cfg.pulse_spread)
    with _config_key("precoder, subframes"):
        precoder = transforms.Precoder(kind=cfg.precoder, shape=(cfg.m_data, cfg.n_data),
                                       subframes=cfg.subframes, seed=cfg.precoder_seed)
    with _config_key("recon_q, recon_w, recon_wn"):
        grid_k = est.ReconstructionGrid(Q=cfg.recon_q, W=cfg.recon_w, Wn=cfg.recon_wn)
        if "lmmse" in cfg.estimators:
            grid_k.validate(pl.M, pl.N)
    # mode weights in grid-step units so the three curvature channels balance,
    # ratio-normalized so the omega default keeps its meaning across channels
    scale = np.sqrt(nu_max * grid.T * tau_max * grid.F)
    if scale > 0:
        alpha = nu_max * grid.T / scale
        beta = tau_max * grid.F / scale
    else:
        alpha = beta = 1.0
    with _config_key("omega"):
        estimators = {name: est.EstimatorConfig(variant=name, alpha=alpha, beta=beta,
                                                omega=cfg.omega, grid_k=grid_k)
                      for name in cfg.estimators if name != "perfect"}
    return Point(cfg, pl, grid, pulse, precoder, channel, estimators, {})


def prepare(point: Point) -> Point:
    """Complete a validated point with what validation leaves out: the
    placement's index arrays, a random kind's matrix (held by transforms, one
    at a time), and then every estimator's operator (one SRH operator per
    (alpha, beta), the LMMSE operator). The operators come after the matrix,
    so that none of them is alive during its QR. A failed build names
    estimators and, for the mode-aware variants, the spread keys that alpha
    and beta come from."""
    pl = point.pl
    pl.pilot_array_indices(), pl.data_array_indices()  # cached on pl from here on
    if point.precoder.kind == "random":
        point.precoder.matrix
    operators = {}
    for name, ecfg in point.estimators.items():
        weights = f", tau_max, {_doppler_key(point.cfg)}" if name in est.MODE_AWARE else ""
        with _config_key(f"estimators{weights}: {name}"):
            operators[name] = est.operator(pl, ecfg)
    return dataclasses.replace(point, operators=operators)


# the prepared points of the run of points in progress, or else the last point
# a trial used
_points: dict[ExperimentConfig, Point] = {}


def _prepare(points: list[Point]):
    """Replace the cached points with the prepared points (each distinct one once)."""
    _points.clear()
    for point in dict.fromkeys(points):
        _points[point.cfg] = prepare(point)


def run_trial(cfg: ExperimentConfig, snr_db: float, trial_index: int
              ) -> dict[str, link.FrameMetrics]:
    """Run one seeded trial and evaluate every configured estimator on the
    same bits, channel and noise realization. The sweep point comes from the
    cache of prepared points; a miss validates and prepares it in place of
    what the cache held."""
    sigma2 = _sigma2(snr_db)
    rng = np.random.default_rng((cfg.seed, trial_index))
    if cfg not in _points:
        _prepare([validate_point(cfg)])
    point = _points[cfg]
    pl, grid, pulse, precoder = point.pl, point.grid, point.pulse, point.precoder

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
    ch_cfg = dataclasses.replace(point.channel, seed=int(rng.integers(2**62)))
    ch = chan.generate_channel(ch_cfg, grid)

    X = link.bits_to_frame(bits_tx, (pl.M_data, pl.N_data))
    frame_tx = piloting.multiplex(transforms.encode(X, precoder), pilots, pl)
    sig = gabor.synthesize(frame_tx, pulse, grid)
    rx_clean = chan.apply_channel(sig, ch, grid)
    y = gabor.analyze(chan.add_noise(rx_clean, sigma2, rng), pulse, grid)

    h_true = chan.true_cmd(ch, pulse, pulse, grid)
    if cfg.sigma_z2 is not None:
        sigma_z2 = float(cfg.sigma_z2)
    elif any(e in ("srh-na", "srh-mna") for e in cfg.estimators):
        sigma_z2 = chan.self_interference_power(gabor.analyze(rx_clean, pulse, grid),
                                                frame_tx, h_true)
    else:
        sigma_z2 = 0.0

    h_pilot = None
    if pl.P:
        h_pilot = est.partial_cmd(piloting.extract_pilots(y, pl), pilots)

    frames: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for name in cfg.estimators:
        if name == "perfect":
            h_tilde = h_true
        else:
            ecfg = dataclasses.replace(point.estimators[name], sigma2=sigma2, sigma_z2=sigma_z2)
            h_tilde = est.estimate(h_pilot, pl, ecfg, point.operators[name]).h_tilde
        x_eq = link.mmse_equalize(y, h_tilde, sigma2)
        X_hat = transforms.decode(piloting.demultiplex(x_eq, pl), precoder)
        frames[name] = X_hat, link.demodulate(X_hat)

    info_rx = [None] * len(frames)
    if cfg.coding:  # every estimator's codeword in one trellis pass
        info_rx = link.conv_code_decode_hard(
            np.stack([bits_rx[:len(coded)] for _, bits_rx in frames.values()]))
    return {name: link.compute_metrics(X_hat, X, bits_tx, bits_rx, info_bits, info)
            for (name, (X_hat, bits_rx)), info in zip(frames.items(), info_rx)}


def _trial_worker(args):
    cfg, snr_db, index = args
    return index, run_trial(cfg, snr_db, index)


def _max_workers() -> int:
    return max(1, int(os.environ.get("DDLF_THREADS", "1")))


def _run_points(points: list[tuple[Point, float]]) -> list[dict[str, list[link.FrameMetrics]]]:
    """Every trial of the (validated point, snr) pairs; per pair, each
    estimator's metrics in trial order.

    Consecutive points that share a random precoder (or have none) form a
    run, and each run is prepared at once in this process, so its one random
    matrix is built before its trials start. Serially (DDLF_THREADS = 1, or
    one trial in all) the run's trials then follow in a plain loop. Otherwise
    one process pool per run executes them; its forked workers inherit every
    prepared point and the random matrix, and build nothing.
    """
    workers = _max_workers() if sum(point.cfg.trials for point, _ in points) > 1 else 1
    results = []
    for _, run in groupby(points, lambda p: p[0].precoder.kind == "random" and p[0].precoder):
        run = list(run)
        _prepare([point for point, _ in run])
        jobs = [(point.cfg, snr, i) for point, snr in run for i in range(point.cfg.trials)]
        if workers == 1:
            results += [run_trial(*job) for job in jobs]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results += [res for _, res in pool.map(_trial_worker, jobs)]
    done = iter(results)
    trials = [[next(done) for _ in range(point.cfg.trials)] for point, _ in points]
    return [{name: [t[name] for t in per_trial] for name in point.cfg.estimators}
            for (point, _), per_trial in zip(points, trials)]


def run_point(cfg: ExperimentConfig, snr_db: float
              ) -> dict[str, list[link.FrameMetrics]]:
    """All trials for one sweep point, as a one-point sweep (see run_sweep);
    per-estimator metric lists in trial order."""
    return _run_points([(validate_point(cfg), snr_db)])[0]


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
    if not math.isfinite(value):
        raise ValueError(f"{axis}: expected a finite number, got {value!r}")
    if axis == "snr":
        with _config_key(axis):
            _sigma2(value)
        return cfg, float(value)
    snr = cfg.snr_db[0]
    if axis == "velocity":
        return dataclasses.replace(cfg, velocity=float(value), nu_max=None), snr
    if axis == "pilots":
        ppr = int(value)
        if ppr != value:
            raise ValueError(f"pilots per row must be a whole number, got {value:g}")
        frame_n = cfg.n_data + cfg.pilots_per_row
        return dataclasses.replace(cfg, pilots_per_row=ppr, n_data=frame_n - ppr), snr
    raise ValueError(f"unknown sweep axis {axis!r}")


def sweep_points(cfg: ExperimentConfig, axis: str, values) -> list[tuple[ExperimentConfig, float]]:
    """Config variant and SNR of each sweep value on the given axis."""
    return [_sweep_config(cfg, axis, value) for value in values]


def run_sweep(cfg: ExperimentConfig, axis: str, values) -> list[ResultRow]:
    """Cross-product execution over the axis values and configured estimators.

    The pilots axis keeps the transmit frame fixed and trades data cells for
    pilot cells; velocity values are km/h; snr values are dB. Every point is
    validated before the first trial runs.

    Where things are built: validate_point builds each distinct config's
    Point once, before any trial, with its estimator configs. Then each run
    of consecutive points that share a random precoder (or have none) is
    prepared in this process: the random matrix, which transforms keeps one
    at a time, and the estimator operators (see prepare). With
    DDLF_THREADS = 1, or a sweep of one trial, the trials run here, one
    after another, and no pool is opened. Otherwise one process pool per run
    executes its trials, so the workers inherit the pulse, placement, random
    matrix and estimator operators and build none of them. Only a change of
    random precoder (the pilots axis with precoder = random) starts a new
    run, and with it a new pool whose workers inherit the new matrix.
    """
    points = sweep_points(cfg, axis, values)
    validated = {c: validate_point(c) for c in dict.fromkeys(c for c, _ in points)}
    points = [(validated[c], snr) for c, snr in points]
    rows = []
    for (point, snr), metrics in zip(points, _run_points(points)):
        for name in point.cfg.estimators:
            rows.append(_aggregate(point.cfg, snr, name, metrics[name], point.pl.P))
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
