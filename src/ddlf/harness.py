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
import multiprocessing
import os
import warnings
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
    sigma_z2 = None (auto) measures the self-interference power in each trial
    that runs a noise-aware variant.
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
        for name in ("bandwidth", "pulse_spread"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name}: expected a positive number, got {getattr(self, name)}")


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


def velocity_to_nu_max(velocity_kmh: float) -> float:
    """Maximum Doppler shift of a relative velocity given in km/h at the carrier."""
    return velocity_kmh / 3.6 * CARRIER_HZ / LIGHT_SPEED


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
    """Prefix an error raised inside the block with the config key(s), or the
    command-line flag(s), it comes from."""
    try:
        yield
    except ValueError as e:
        raise type(e)(f"{key}: {e}") from e


@contextmanager
def _renamed(keys: dict):
    """Rename the quantities that lead an error raised inside the block (the
    comma list before its first ': ') to the config keys they come from; a
    quantity that keys does not hold is a key itself."""
    try:
        yield
    except ValueError as e:
        head, sep, rest = str(e).partition(": ")
        raise type(e)(", ".join(keys.get(q, q) for q in head.split(", ")) + sep + rest) from e


@dataclass(frozen=True, eq=False)
class Point:
    """What every trial of a sweep point shares, all of it built by
    validate_point before the first trial: the placement (with its cached
    index arrays), grid, tight pulse, precoder, the channel config (each
    trial draws its own channel seed), every estimator's zero-noise config and
    its linear map (estimation.operator), and, where the trials read the true
    CMD, the ambiguity table of the point's delay-Doppler box (else None).
    A random precoder's Householder factors are the one part left to first
    use; transforms holds them, one set at a time."""

    cfg: ExperimentConfig
    pl: piloting.PilotPlacement
    grid: gabor.GaborGrid
    pulse: gabor.Pulse
    precoder: transforms.Precoder
    channel: chan.ChannelConfig
    estimators: dict  # estimator name -> its zero-noise estimation.EstimatorConfig
    operators: dict  # estimator name -> its linear map (estimation.operator)
    ambiguity: gabor.AmbiguityTable | None


def validate_point(cfg: ExperimentConfig) -> Point:
    """Check a sweep point and build everything its trials share, before any
    trial runs, and return it as a Point: the placement and its index arrays,
    grid, spreads, tight pulse, precoder (without the random kind's QR),
    reconstruction grid, channel config, every estimator's config and its
    operator (one SRH operator per (alpha, beta), the LMMSE operator), and,
    when the trials read the true CMD, the gabor.ambiguity_table of the pulse
    on the channel's (tau_max, nu_max) box. Each part uses its own checks,
    and an error names the offending key. The grid's box check
    (GaborGrid.check_box: a negative spread, a Doppler spread of at least
    half the sampling rate, where the Doppler shifts alias, or a delay
    spread of at least the frame duration), the channel config (the
    underspread rule, the scatterer count, the decay rate), the precoder
    and the reconstruction grid lead their errors with the quantities they
    rest on, which _renamed turns into config keys. A failed operator build
    names estimators and, for the mode-aware variants, the spread keys that
    alpha and beta come from; a table past its node cap names the spread
    keys. It also rejects SRH variants on pilot cells of one line and, with
    coding, a data frame too small for a codeword, and warns, naming the
    keys, when the LMMSE reconstruction grid has more cells than there are
    pilots."""
    with _config_key("pilots_per_row"):
        pl = build_placement(cfg)
    # the Hessian energy is zero on affine fields, so on pilot cells of one
    # line ([1, row, col] of rank below 3) the SRH minimizer is not unique
    if set(cfg.estimators) & set(est.SRH_VARIANTS) and est.affine_rank(pl) < 3:
        raise ValueError("pilots_per_row, estimators: the pilot cells lie on one line, "
                         "where an SRH estimate is not unique")
    if cfg.coding:
        with _config_key("coding, m_data, n_data"):
            link.conv_info_bits(2 * pl.M_data * pl.N_data)
    with _config_key("tf_product"):
        grid = build_grid(cfg, pl)
    tau_max, nu_max = resolve_spreads(cfg, grid)
    doppler_key = _doppler_key(cfg)
    with _renamed({"R": "scatterers", "nu_max": doppler_key, "fs": "bandwidth"}):
        grid.check_box(tau_max, nu_max)
        channel = chan.ChannelConfig(R=cfg.scatterers, tau_max=tau_max, nu_max=nu_max,
                                     power_profile=cfg.power_profile,
                                     fractional=cfg.fractional)
    with _config_key("pulse_spread"):
        pulse = _tight_pulse(grid, cfg.pulse_spread)
    with _renamed({"kind": "precoder", "shape": "m_data, n_data"}):
        precoder = transforms.Precoder(kind=cfg.precoder, shape=(cfg.m_data, cfg.n_data),
                                       subframes=cfg.subframes, seed=cfg.precoder_seed)
    with _renamed({"Q": "recon_q", "W": "recon_w", "Wn": "recon_wn"}):
        grid_k = est.ReconstructionGrid(Q=cfg.recon_q, W=cfg.recon_w, Wn=cfg.recon_wn)
        if "lmmse" in cfg.estimators:
            grid_k.validate(pl.M, pl.N)
    # in the calling process, before any trial; the default warning filter
    # shows one text once per location, so the points of a sweep that share
    # the grid and the pilot count warn once
    if "lmmse" in cfg.estimators and (K := len(grid_k.cells())) > pl.P:
        warnings.warn(f"reconstruction grid has {K} cells (recon_q, recon_w, recon_wn) but only "
                      f"{pl.P} pilots (pilots_per_row); the fit is underdetermined and relies "
                      "on the ridge term", stacklevel=2)
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
    pl.pilot_array_indices(), pl.data_array_indices()  # cached on pl from here on
    operators = {}
    for name, ecfg in estimators.items():
        weights = f", tau_max, {doppler_key}" if name in est.MODE_AWARE else ""
        with _config_key(f"estimators{weights}: {name}"):
            operators[name] = est.operator(pl, ecfg)
    ambiguity = None
    # a trial computes the true CMD for a perfect estimator, or to measure sigma_z2
    if "perfect" in cfg.estimators or _measures_sigma_z2(cfg):
        with _config_key(f"tau_max, {doppler_key}"):
            ambiguity = gabor.ambiguity_table(pulse, pulse, grid, tau_max, nu_max)
    return Point(cfg, pl, grid, pulse, precoder, channel, estimators, operators, ambiguity)


def _measures_sigma_z2(cfg: ExperimentConfig) -> bool:
    """Whether a trial measures sigma_z2 against the true CMD: it is auto, and
    a noise-aware variant reads it."""
    return cfg.sigma_z2 is None and not set(cfg.estimators).isdisjoint(est.NOISE_AWARE)


# the points of the sweep in progress, or else the last point a trial used
_points: dict[ExperimentConfig, Point] = {}


def run_trial(cfg: ExperimentConfig, snr_db: float, trial_index: int
              ) -> dict[str, link.FrameMetrics]:
    """Run one seeded trial and evaluate every configured estimator on the
    same bits, channel and noise realization. The sweep point comes from the
    cache of built points; a miss builds it (validate_point) in place of what
    the cache held."""
    sigma2 = _sigma2(snr_db)
    rng = np.random.default_rng((cfg.seed, trial_index))
    if cfg not in _points:
        _points.clear()
        _points[cfg] = validate_point(cfg)
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
    ch = chan.generate_channel(point.channel, grid, seed=int(rng.integers(2**62)))

    X = link.bits_to_frame(bits_tx, (pl.M_data, pl.N_data))
    frame_tx = piloting.multiplex(transforms.encode(X, precoder), pilots, pl)
    sig = gabor.synthesize(frame_tx, pulse, grid)
    rx_clean = chan.apply_channel(sig, ch, grid)
    y = gabor.analyze(chan.add_noise(rx_clean, sigma2, rng), pulse, grid)

    h_true = None
    if point.ambiguity is not None:
        h_true = chan.true_cmd(ch, point.ambiguity)
    sigma_z2 = float(cfg.sigma_z2 or 0.0)
    if _measures_sigma_z2(cfg):
        sigma_z2 = chan.self_interference_power(gabor.analyze(rx_clean, pulse, grid),
                                                frame_tx, h_true)

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
    """DDLF_THREADS, 1 when unset; a ValueError unless it is a positive integer."""
    value = os.environ.get("DDLF_THREADS", "1")
    try:
        threads = int(value)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"DDLF_THREADS: expected a positive integer, got {value!r}")
    return threads


def _run_points(points: list[Point]) -> list[tuple[Point, float, list[dict]]]:
    """Every trial of the built points (validate_point), each at every SNR of
    its config: per point and SNR, in that order, (point, snr, each trial's
    run_trial result in trial order).

    Every point goes into the cache of built points first, so its trials
    build nothing. Consecutive points that share a random precoder (or have
    none) form a run, and a random run's Householder factors are built in
    this process just before its trials, one set at a time. Serially
    (DDLF_THREADS = 1, or one trial in the run) the run's trials then follow
    in a plain loop. Otherwise one process pool per run executes them, with
    no more workers than trials (under fork a pool starts all of its workers
    at once). The pool forks wherever the platform can, whatever the default
    start method, so its workers inherit every point and the random factors,
    and build nothing; elsewhere it uses the default method, and each worker
    builds the points it runs.
    """
    threads = _max_workers()
    _points.clear()
    _points.update((p.cfg, p) for p in points)
    results = []
    for precoder, run in groupby(points, lambda p: p.precoder.kind == "random" and p.precoder):
        if precoder:
            precoder.factors  # the run's QR, here before any worker forks
        jobs = [(p.cfg, snr, i) for p in run for snr in p.cfg.snr_db for i in range(p.cfg.trials)]
        workers = min(threads, len(jobs))
        if workers == 1:
            results += [run_trial(*job) for job in jobs]
        else:
            fork = "fork" in multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context("fork") if fork else None
            with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
                results += [res for _, res in pool.map(_trial_worker, jobs)]
    done = iter(results)
    return [(p, snr, [next(done) for _ in range(p.cfg.trials)])
            for p in points for snr in p.cfg.snr_db]


def run_point(cfg: ExperimentConfig, snr_db: float
              ) -> dict[str, list[link.FrameMetrics]]:
    """All trials for one sweep point at one SNR, as a one-point sweep (see
    run_sweep); per-estimator metric lists in trial order."""
    [(_, _, trials)] = _run_points([validate_point(dataclasses.replace(cfg, snr_db=(snr_db,)))])
    return {name: [t[name] for t in trials] for name in cfg.estimators}


def _aggregate(point: Point, snr_db: float, estimator: str,
               trials: list[dict[str, link.FrameMetrics]]) -> ResultRow:
    def stats(vals):
        arr = np.array(vals, dtype=float)
        return float(arr.mean()), float(arr.std(ddof=1) if len(arr) > 1 else 0.0)

    cfg, metrics = point.cfg, [t[estimator] for t in trials]
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
        pilots=point.pl.P, estimator=estimator,
        precoder=cfg.precoder, subframes=cfg.subframes, trials=cfg.trials,
        mse_db_mean=mse_m, mse_db_std=mse_s,
        uncoded_ber_mean=ber_m, uncoded_ber_std=ber_s,
        uncoded_ber_db=link.ber_to_db(ber_m, n_bits * cfg.trials),
        nmsed_db_mean=nms_m, nmsed_db_std=nms_s,
        coded_ber_mean=coded_m, coded_ber_std=coded_s, coded_ber_db=coded_db,
    )


def sweep_configs(cfg: ExperimentConfig, axis: str, values) -> list[ExperimentConfig]:
    """The configs of a sweep over the values on the given axis. The snr axis
    gives one config whose SNR list is the values (dB); the velocity (km/h)
    and pilots axes give one config per value, each with the SNR list of cfg.
    The pilots axis keeps the transmit frame and trades data for pilot cells."""
    for value in values:
        if not math.isfinite(value):
            raise ValueError(f"{axis}: expected a finite number, got {value!r}")
        if axis == "snr":
            with _config_key(axis):
                _sigma2(value)
        if axis == "pilots" and int(value) != value:
            raise ValueError(f"pilots per row must be a whole number, got {value:g}")
    if axis == "snr":
        return [dataclasses.replace(cfg, snr_db=tuple(map(float, values)))]
    if axis == "velocity":
        return [dataclasses.replace(cfg, velocity=float(v), nu_max=None) for v in values]
    if axis == "pilots":
        frame_n = cfg.n_data + cfg.pilots_per_row
        return [dataclasses.replace(cfg, pilots_per_row=int(v), n_data=frame_n - int(v))
                for v in values]
    raise ValueError(f"unknown sweep axis {axis!r}")


def run_sweep(cfg: ExperimentConfig, axis: str, values) -> list[ResultRow]:
    """One row per axis value, SNR and configured estimator, in that order
    (see sweep_configs). Every point is checked and built (validate_point)
    before the first trial runs, each distinct config once."""
    configs = sweep_configs(cfg, axis, values)
    validated = {c: validate_point(c) for c in dict.fromkeys(configs)}
    return [_aggregate(point, snr, name, trials)
            for point, snr, trials in _run_points([validated[c] for c in configs])
            for name in point.cfg.estimators]


def simulate(cfg: ExperimentConfig) -> list[ResultRow]:
    """Run the configured SNR list (the default experiment)."""
    return run_sweep(cfg, "snr", cfg.snr_db)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def to_csv(header, rows) -> str:
    """Stable RFC-4180 CSV: the header row, then the rows with each cell through
    _fmt (floats as .12g, None empty); byte-identical for equal inputs."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


def rows_to_csv(rows: list[ResultRow]) -> str:
    """The result rows as CSV under CSV_COLUMNS (see to_csv)."""
    return to_csv(CSV_COLUMNS, (dataclasses.astuple(row) for row in rows))
