"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured margin. Statistical criteria run 200
seed-paired Monte-Carlo trials; ordering claims written as "<=" must hold
within two standard errors of the paired difference, claims written as "<"
must be significant at two standard errors.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from ddlf.channel import DDChannel, true_cmd
from ddlf.estimation import (
    EstimatorConfig,
    ReconstructionGrid,
    lmmse_estimate,
    operator,
    relaxation_delta,
    srh_estimate,
)
from ddlf.gabor import ambiguity_table, analyze, cross_ambiguity, gaussian_prototype, \
    make_grid, synthesize, tight_orthogonalize
from ddlf.harness import ExperimentConfig, build_grid, build_placement, \
    rows_to_csv, run_point, run_sweep
from ddlf.piloting import PilotPlacement, accordion_placement, \
    lattice_min_distance_sq, optimal_shift
from ddlf.transforms import dsft2d

from oracles import dd_leakage_response, srh_objective

warnings.filterwarnings("ignore", message=".*underdetermined.*")


def report(num, ok, detail):
    print(f"\ncriterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def paired_se(diff):
    return float(np.std(diff, ddof=1) / np.sqrt(len(diff)))


def ber_arrays(point):
    return {k: np.array([m.uncoded_ber for m in v]) for k, v in point.items()}


@pytest.fixture(scope="module")
def desk_pulse_cache():
    cache = {}
    for M, N in [(8, 8), (16, 16), (32, 32)]:
        grid = make_grid(M, N, 1.25)
        cache[(M, N)] = (grid, tight_orthogonalize(gaussian_prototype(grid), grid))
    return cache


def test_01_accordion_shapes():
    pl1 = accordion_placement(64, 64, 1)
    pl6 = accordion_placement(64, 64, 6)
    rows1 = {m: 0 for m in range(64)}
    for m, _ in pl1.pilot_indices:
        rows1[m] += 1
    rows6 = {m: 0 for m in range(64)}
    for m, _ in pl6.pilot_indices:
        rows6[m] += 1
    ok = ((pl1.M, pl1.N) == (64, 65) and (pl6.M, pl6.N) == (64, 70)
          and all(v == 1 for v in rows1.values())
          and all(v == 6 for v in rows6.values()))
    report(1, ok, f"accordion frames {pl1.M}x{pl1.N} (1/row) and {pl6.M}x{pl6.N} (6/row)")


def test_02_lattice_oracle():
    worst = None
    for lam in range(2, 17):
        dists = []
        for mu in range(lam):
            best = None
            for ell in range(-2 * lam, 2 * lam + 1):
                for k in range(-3 * lam, 3 * lam + 1):
                    if ell == 0 and k == 0:
                        continue
                    d = ell * ell + (lam * k + mu * ell) ** 2
                    best = d if best is None else min(best, d)
            dists.append(best)
            if lattice_min_distance_sq(lam, mu) != best:
                worst = (lam, mu)
        exhaustive_opt = max(range(lam), key=lambda mu: (dists[mu], -mu))
        if optimal_shift(lam) != exhaustive_opt:
            worst = (lam, "shift")
    report(2, worst is None,
           f"lattice minimal distance and optimal shift match exhaustive "
           f"enumeration for all lam in 2..16 ({'ok' if worst is None else worst})")


def test_03_perfect_reconstruction(desk_pulse_cache):
    worst = 0.0
    rng = np.random.default_rng(2024)
    for (M, N), (grid, pulse) in desk_pulse_cache.items():
        for _ in range(50):
            x = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
            y = analyze(synthesize(x, pulse, grid), pulse, grid)
            worst = max(worst, float(np.abs(y - x).max()))
    report(3, worst < 1e-9,
           f"max reconstruction error {worst:.2e} over 50 frames on 8x8/16x16/32x32 (< 1e-9)")


def test_04_leakage_oracle(desk_pulse_cache):
    grid, pulse = desk_pulse_cache[(16, 16)]
    # on-grid shift: single hot bin
    tau_on = 2 / (grid.M * grid.F)
    nu_on = 1 / (grid.N * grid.T)
    H_on = np.abs(dd_leakage_response(tau_on, nu_on, pulse, pulse, grid))
    hot = int(np.sum(H_on > 1e-6 * H_on.max()))
    # half-bin Doppler: spread over many bins
    H_half = np.abs(dd_leakage_response(0.0, 1 / (2 * grid.N * grid.T), pulse, pulse, grid))
    spread = int(np.sum(H_half > 0.01 * H_half.max()))
    # closed form matches the transform of the numerically computed response
    tau_f, nu_f = 0.37 / (grid.M * grid.F), 0.53 / (grid.N * grid.T)
    ch = DDChannel([tau_f], [nu_f], [1.0])
    h = true_cmd(ch, ambiguity_table(pulse, pulse, grid, tau_f * 1.3, nu_f * 1.3))
    err = float(np.abs(np.sqrt(grid.N * grid.M) * dsft2d(h)
                       - dd_leakage_response(tau_f, nu_f, pulse, pulse, grid)).max())
    report(4, hot == 1 and spread >= 5 and err < 1e-9,
           f"on-grid bins {hot} (=1), half-bin bins {spread} (>=5), "
           f"closed form vs transform {err:.2e} (< 1e-9)")


def test_05_estimator_exact_recovery(desk_pulse_cache):
    grid, pulse = desk_pulse_cache[(16, 16)]
    # all-pilot frame (data cells zeroed): orthonormal reconstruction atoms
    cells16 = tuple((m, n) for m in range(16) for n in range(16))
    pl_full = PilotPlacement(M=16, N=16, M_data=0, N_data=0,
                             pilot_indices=cells16)
    fr, fc = pl_full.pilot_array_indices()
    # on-grid scatterer inside the reconstruction grid
    tau, nu = 1 / (grid.M * grid.F), 2 / (grid.N * grid.T)
    ch = DDChannel([tau], [nu], [0.8 - 0.4j])
    h = true_cmd(ch, ambiguity_table(pulse, pulse, grid, tau * 1.2, nu * 1.2))
    cfg = EstimatorConfig(variant="lmmse", sigma2=1e-12,
                          grid_k=ReconstructionGrid(Q=2, W=1, Wn=4))
    lmmse_err = float(np.abs(lmmse_estimate(h[fr, fc], pl_full, cfg,
                                            operator(pl_full, cfg)).h_tilde - h).max())

    pl = accordion_placement(16, 14, 2)
    pr, pc = pl.pilot_array_indices()
    m_idx, n_idx = np.meshgrid(np.arange(pl.M), np.arange(pl.N), indexing="ij")
    affine = (0.4 + 0.9j) * m_idx + (-0.7 + 0.2j) * n_idx + (1.5 - 0.5j)
    srh_cfg = EstimatorConfig(variant="srh", omega=1.0)
    srh_err = float(np.abs(
        srh_estimate(affine[pr, pc], pl, srh_cfg, operator(pl, srh_cfg)).h_tilde
        - affine).max())
    report(5, lmmse_err < 1e-5 and srh_err < 1e-6,
           f"lmmse on-grid recovery {lmmse_err:.2e} (< 1e-5), "
           f"srh affine recovery {srh_err:.2e} (< 1e-6)")


def test_06_srh_optimality_and_invariance():
    pl = accordion_placement(16, 14, 2)
    rng = np.random.default_rng(7)
    h_pilot = rng.standard_normal(pl.P) + 1j * rng.standard_normal(pl.P)
    alpha, beta, omega = 0.7, 1.6, 0.2
    cfg = EstimatorConfig(variant="srh-ma", alpha=alpha, beta=beta, omega=omega)
    out = srh_estimate(h_pilot, pl, cfg, operator(pl, cfg))
    h_ex = out.h_extended
    eps = 1e-5
    j0 = srh_objective(h_ex, h_pilot, pl, alpha, beta, omega)
    scale = max(float(np.abs(h_ex).max()), 1.0)
    worst_rel = 0.0
    for _ in range(20):
        i = int(rng.integers(0, pl.M + 2))
        j = int(rng.integers(0, pl.N + 2))
        for direction in (1.0, 1.0j):
            delta = np.zeros_like(h_ex)
            delta[i, j] = direction * eps
            up = srh_objective(h_ex + delta, h_pilot, pl, alpha, beta, omega)
            down = srh_objective(h_ex - delta, h_pilot, pl, alpha, beta, omega)
            grad = abs(up - down) / (2 * eps)
            curv = max((up + down - 2 * j0) / eps**2, 1e-12)
            worst_rel = max(worst_rel, grad / (curv * scale))
    inv_err = 0.0
    for c in (0.5, 2.0):
        cfg = EstimatorConfig(variant="srh-ma", alpha=c * alpha, beta=c * beta,
                              omega=c**4 * omega)
        scaled = srh_estimate(h_pilot, pl, cfg, operator(pl, cfg))
        inv_err = max(inv_err, float(np.abs(scaled.h_tilde - out.h_tilde).max()))
    report(6, worst_rel < 1e-5 and inv_err < 1e-6,
           f"relative gradient {worst_rel:.2e} (< 1e-5), "
           f"(c a, c b, c^4 omega) shift {inv_err:.2e} for c in {{0.5, 2}}")


def test_07_estimator_ordering_trend():
    cfg = ExperimentConfig(
        estimators=("lmmse", "srh", "srh-ma", "srh-mna", "perfect"),
        trials=200, snr_db=(15.0,), seed=1)
    grid = build_grid(cfg, build_placement(cfg))
    spread_area = 2 * (4.5 / (grid.M * grid.F)) * (0.7 / (grid.N * grid.T))
    assert abs(spread_area - 0.02) < 0.005  # desk channel as advertised
    ber = ber_arrays(run_point(cfg, 15.0))

    checks = []
    for better, worse, strict in (("srh-ma", "srh", False),
                                  ("srh-mna", "srh-ma", False),
                                  ("srh-mna", "lmmse", True)):
        d = ber[worse] - ber[better]
        se = paired_se(d)
        ok = d.mean() >= 2 * se if strict else d.mean() >= -2 * se
        checks.append((f"{better} vs {worse}: {d.mean():+.4f} ({d.mean() / se:+.1f} se)", ok))
    floor_ok = all(ber["perfect"].mean() <= ber[k].mean() for k in ber)
    checks.append((f"perfect lower-bounds all ({ber['perfect'].mean():.4f})", floor_ok))
    report(7, all(ok for _, ok in checks), "; ".join(t for t, _ in checks))


def test_08_pilot_count_trend():
    diffs = []
    for est in ("lmmse", "srh", "srh-na", "srh-ma", "srh-mna"):
        ber = {}
        for ppr in (1, 2):
            cfg = ExperimentConfig(n_data=16 - ppr, pilots_per_row=ppr,
                                   estimators=(est,), trials=200, snr_db=(15.0,), seed=1)
            ber[ppr] = np.array([m.uncoded_ber
                                 for m in run_point(cfg, 15.0)[est]])
        d = ber[2] - ber[1]
        diffs.append((est, float(d.mean()), paired_se(d)))
    ok = all(mean <= 2 * se for _, mean, se in diffs)
    report(8, ok, "doubling pilots changes BER by " +
           ", ".join(f"{e}: {m:+.4f} ({m / s:+.1f} se)" for e, m, s in diffs))


def test_09_precoding_diversity():
    base = ExperimentConfig(m_data=16, n_data=16, pilots_per_row=0,
                            estimators=("perfect",), trials=200, snr_db=(15.0,),
                            scatterers=8, fractional=False, seed=1)
    grid = build_grid(base, build_placement(base))
    base = dataclasses.replace(base, tau_max=4.5 / (grid.M * grid.F),
                               nu_max=2.0 / (grid.N * grid.T))
    kinds = ("none", "dsft2d", "fft1d", "fft2d", "fwht1d", "fwht2d", "random")
    mse, nmsed, ber = {}, {}, {}
    for kind in kinds:
        met = run_point(dataclasses.replace(base, precoder=kind), 15.0)["perfect"]
        mse[kind] = float(np.mean([m.rel_symbol_mse_db for m in met]))
        nmsed[kind] = float(np.mean([m.nmsed_db for m in met]))
        ber[kind] = float(np.mean([m.uncoded_ber for m in met]))
    full = [k for k in kinds if k != "none"]
    mse_spread = max(mse[k] for k in full) - min(mse[k] for k in full)
    nmsed_gap = nmsed["none"] - nmsed["dsft2d"]
    spreading_ok = (nmsed["fwht2d"] < nmsed["none"]
                    and all(ber[k] < ber["none"] for k in full))

    sf_checks = []
    prev = None
    for s in (1, 2, 4, 8):
        met = run_point(dataclasses.replace(base, precoder="dsft2d", subframes=s),
                        15.0)["perfect"]
        bers = np.array([m.uncoded_ber for m in met])
        if prev is not None:
            d = bers - prev
            sf_checks.append((s, float(d.mean()), paired_se(d)))
        prev = bers
    sf_ok = all(mean >= -2 * se for _, mean, se in sf_checks)
    ok = mse_spread <= 0.2 and nmsed_gap >= 3.0 and sf_ok and spreading_ok
    report(9, ok,
           f"full-frame MSE spread {mse_spread:.3f} dB (<= 0.2), "
           f"NMSED gap {nmsed_gap:.2f} dB (>= 3), every full-frame precoder "
           f"beats none in BER ({ber['dsft2d']:.4f} vs {ber['none']:.4f}), "
           "sub-frame deltas " +
           " ".join(f"SF{s}: {m:+.4f} ({m / se:+.1f} se)" for s, m, se in sf_checks))


def test_10_determinism():
    cfg = ExperimentConfig(estimators=("srh", "lmmse"), trials=5,
                           snr_db=(10.0, 15.0), seed=77)
    a = rows_to_csv(run_sweep(cfg, "snr", cfg.snr_db)).encode()
    b = rows_to_csv(run_sweep(cfg, "snr", cfg.snr_db)).encode()
    report(10, a == b, f"sweep CSV byte-identical across runs ({len(a)} bytes)")


def test_11_relaxation_delta_value():
    delta = relaxation_delta(0.01, 0.005, np.ones(256, dtype=complex))
    report(11, delta == pytest.approx(3.84, abs=1e-12),
           f"relaxation parameter {delta} (= 3.84)")
