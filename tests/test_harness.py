"""Tests for the Monte-Carlo harness."""

import dataclasses
import gc
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddlf import channel, estimation, gabor, harness, transforms
from ddlf.harness import (
    ExperimentConfig,
    build_grid,
    build_placement,
    rows_to_csv,
    run_point,
    run_sweep,
    run_trial,
    simulate,
    velocity_to_nu_max,
)


def quiet_cfg(**kw):
    kw.setdefault("trials", 2)
    kw.setdefault("estimators", ("srh",))
    kw.setdefault("snr_db", (15.0,))
    return ExperimentConfig(**kw)


class TestConfig:
    def test_rejects_unknown_estimator(self):
        with pytest.raises(ValueError):
            quiet_cfg(estimators=("wiener",))

    def test_rejects_pilot_free_with_estimation(self):
        with pytest.raises(ValueError):
            quiet_cfg(pilots_per_row=0, n_data=16, estimators=("srh",))

    @pytest.mark.parametrize("overrides, field", [
        (dict(trials=0), "trials"),
        (dict(estimators=("wiener",)), "estimators"),
        (dict(estimators=()), "estimators"),
        (dict(snr_db=()), "snr_db"),
        (dict(pilots_per_row=0, n_data=16), "pilots_per_row, estimators"),
    ])
    def test_error_starts_with_its_field(self, overrides, field):
        with pytest.raises(ValueError, match=f"^{field}: "):
            quiet_cfg(**overrides)

    def test_rejects_negative_sigma_z2(self):
        with pytest.raises(ValueError, match="sigma_z2"):
            quiet_cfg(sigma_z2=-1.0)

    @pytest.mark.parametrize("value", ["auto", "0.1", [0.1]])
    def test_rejects_a_non_number_sigma_z2(self, value):
        # None is the only auto
        with pytest.raises(ValueError, match="^sigma_z2: "):
            quiet_cfg(sigma_z2=value)

    @pytest.mark.parametrize("value", [1.0000001e300, 2e307, 1e308, 10**301],
                             ids=["1.0000001e300", "2e307", "1e308", "int 10**301"])
    def test_rejects_sigma_z2_past_the_noise_limit(self, value):
        # the bound the SNR limit puts on sigma2; past it (sigma2 + sigma_z2) * P
        # overflows in srh-na's relaxation
        with pytest.raises(ValueError, match=r"^sigma_z2: .* at most 1e\+300, got "):
            quiet_cfg(sigma_z2=value)

    def test_sigma_z2_at_the_limit_gives_a_finite_result(self):
        # every estimator, coded, at both SNR edges; a RuntimeWarning is an error here
        cfg = quiet_cfg(estimators=harness.ESTIMATOR_CHOICES, coding=True, trials=2,
                        sigma_z2=1e300, snr_db=(-harness.SNR_LIMIT_DB, harness.SNR_LIMIT_DB))
        assert cfg.sigma_z2 == 10 ** (harness.SNR_LIMIT_DB / 10)
        rows = simulate(cfg)
        assert len(rows) == 2 * len(harness.ESTIMATOR_CHOICES)
        assert all(math.isfinite(v) for row in rows for v in dataclasses.astuple(row)
                   if isinstance(v, float))

    @pytest.mark.parametrize("overrides", [
        dict(m_data=0),
        dict(n_data=0),
        dict(m_data=-2, n_data=5),
        dict(n_data=0, pilots_per_row=0, estimators=("perfect",)),
    ])
    def test_rejects_a_non_positive_data_shape(self, overrides):
        with pytest.raises(ValueError, match="^m_data, n_data: data frame dimensions must be positive"):
            quiet_cfg(**overrides)

    @pytest.mark.parametrize("field", ["seed", "precoder_seed"])
    def test_rejects_a_negative_seed(self, field):
        with pytest.raises(ValueError, match=f"^{field}: expected a nonnegative integer"):
            quiet_cfg(**{field: -1})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["tf_product", "bandwidth", "pulse_spread", "tau_max",
                                       "nu_max", "velocity", "power_profile", "omega",
                                       "sigma_z2", "snr_db"])
    def test_rejects_non_finite_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}: expected a finite number"):
            quiet_cfg(**{field: (15.0, value) if field == "snr_db" else value})

    @pytest.mark.parametrize("value", [0.0, -5e6])
    def test_rejects_a_non_positive_bandwidth(self, value):
        with pytest.raises(ValueError,
                           match=f"^bandwidth: expected a positive number, got {value}"):
            quiet_cfg(bandwidth=value)

    @pytest.mark.parametrize("snr", [-4000.0, 5000.0, -3080.0, -3000.5, 3000.5])
    def test_rejects_snr_without_a_positive_finite_noise_variance(self, snr):
        # 10^400 overflows a float and 10^-500 underflows to 0; 10^308 is
        # finite, but its products with the pilot count overflow
        with pytest.raises(ValueError, match=r"^snr_db: .* not a positive finite number "
                                             r".* \(\|snr\| <= 3000 dB\)$"):
            quiet_cfg(snr_db=(15.0, snr))

    def test_snr_at_the_limit_gives_a_finite_result(self):
        # every estimator, coded, at both edges; a RuntimeWarning is an error here
        cfg = quiet_cfg(estimators=harness.ESTIMATOR_CHOICES, coding=True, trials=3,
                        snr_db=(-harness.SNR_LIMIT_DB, harness.SNR_LIMIT_DB))
        rows = simulate(cfg)
        assert len(rows) == 2 * len(harness.ESTIMATOR_CHOICES)
        assert all(math.isfinite(v) for row in rows for v in dataclasses.astuple(row)
                   if isinstance(v, float))

    def test_list_config_runs_as_the_tuple_config(self):
        lists = quiet_cfg(estimators=["srh", "lmmse"], snr_db=[10.0, 15.0], trials=1)
        tuples = quiet_cfg(estimators=("srh", "lmmse"), snr_db=(10.0, 15.0), trials=1)
        assert lists == tuples and hash(lists) == hash(tuples)
        assert rows_to_csv(simulate(lists)) == rows_to_csv(simulate(tuples))

    def test_velocity_mapping(self):
        # 200 km/h at 5.9 GHz
        assert velocity_to_nu_max(200.0) == pytest.approx(1093.2, rel=1e-3)

    def test_placement_and_grid(self):
        cfg = quiet_cfg()
        pl = build_placement(cfg)
        assert (pl.M, pl.N) == (16, 16)
        grid = build_grid(cfg, pl)
        assert grid.M == 16 and grid.N == 16


class TestRunTrial:
    def test_clean_loopback_zero_ber(self):
        # single unit path, essentially no noise, known CMD: error-free frame
        cfg = quiet_cfg(estimators=("perfect",), scatterers=1,
                        tau_max=0.0, nu_max=0.0, snr_db=(300.0,))
        res = run_trial(cfg, 300.0, 0)
        assert res["perfect"].uncoded_ber == 0.0
        assert res["perfect"].rel_symbol_mse_db < -100

    def test_deterministic(self):
        cfg = quiet_cfg(estimators=("srh", "lmmse"))
        a = run_trial(cfg, 15.0, 3)
        b = run_trial(cfg, 15.0, 3)
        assert a == b

    def test_extreme_snr_fails_before_the_trial(self):
        with pytest.raises(ValueError, match="not a positive finite number"):
            run_trial(quiet_cfg(), 5000.0, 0)

    def test_snr_past_the_limit_fails_before_the_trial(self):
        with pytest.raises(ValueError, match=r"\(\|snr\| <= 3000 dB\)"):
            run_trial(quiet_cfg(estimators=("srh-na",)), -3080.0, 0)

    def test_distinct_trials_differ(self):
        cfg = quiet_cfg()
        a = run_trial(cfg, 15.0, 0)
        b = run_trial(cfg, 15.0, 1)
        assert a != b

    def test_estimators_share_realization(self):
        # the physical chain must not depend on the estimator list
        lone = run_trial(quiet_cfg(estimators=("perfect",)), 15.0, 5)
        joint = run_trial(quiet_cfg(estimators=("perfect", "srh-mna")), 15.0, 5)
        assert lone["perfect"] == joint["perfect"]

    def test_fixed_sigma_z2_is_not_measured(self, monkeypatch):
        measured, seen = [], []
        monkeypatch.setattr(channel, "self_interference_power",
                            lambda *a: measured.append(a) or 0.0)
        estimate = estimation.estimate
        monkeypatch.setattr(estimation, "estimate",
                            lambda h, pl, ecfg, op: seen.append(ecfg) or estimate(h, pl, ecfg, op))
        run_trial(quiet_cfg(estimators=("srh-na",), sigma_z2=0.01), 15.0, 0)
        assert measured == []
        assert [ecfg.sigma_z2 for ecfg in seen] == [0.01]
        run_trial(quiet_cfg(estimators=("srh-na",)), 15.0, 0)  # auto measures it
        assert len(measured) == 1 and seen[-1].sigma_z2 == 0.0

    @pytest.mark.parametrize("overrides, calls", [
        (dict(estimators=("lmmse", "srh-ma"), pilots_per_row=2, n_data=14), 0),
        (dict(estimators=("srh",)), 0),
        (dict(estimators=("srh-na",), sigma_z2=0.01), 0),
        (dict(estimators=("perfect",)), 1),
        (dict(estimators=("srh-na",)), 1),  # auto sigma_z2 measures it against the true CMD
    ])
    def test_true_cmd_only_for_its_readers(self, monkeypatch, overrides, calls):
        cfg = quiet_cfg(**overrides)
        run_trial(cfg, 15.0, 0)  # builds the point
        true_cmd, seen = channel.true_cmd, []
        monkeypatch.setattr(channel, "true_cmd", lambda *a: seen.append(a) or true_cmd(*a))
        run_trial(cfg, 15.0, 1)
        assert len(seen) == calls

    @pytest.mark.parametrize("overrides, reads", [
        (dict(estimators=("lmmse", "srh-ma"), pilots_per_row=2, n_data=14), False),
        (dict(estimators=("srh-na",), sigma_z2=0.01), False),
        (dict(estimators=("srh-mna", "perfect"), sigma_z2=0.01), True),
        (dict(estimators=("perfect",)), True),
        (dict(estimators=("srh-na",)), True),
    ])
    def test_ambiguity_table_only_for_the_true_cmd_readers(self, overrides, reads):
        point = harness.validate_point(quiet_cfg(**overrides))
        assert (point.ambiguity is not None) == reads
        if reads:
            box = point.ambiguity.tau_max, point.ambiguity.nu_max
            assert box == (point.channel.tau_max, point.channel.nu_max)

    @pytest.mark.parametrize("overrides, keys", [
        # 64 x 62 at 5 MHz: the Doppler spreads sit below fs/2 = 2.5 MHz
        (dict(tau_max=1e-9, nu_max=2e6), "tau_max, nu_max"),
        (dict(tau_max=1e-9, velocity=367000.0), "tau_max, velocity"),
    ])
    def test_table_past_its_node_cap_names_the_spread_keys(self, overrides, keys):
        cap = gabor.AMBIGUITY_MAX_NODES
        with pytest.raises(ValueError, match=f"^{keys}: .* more than {cap} Chebyshev nodes"):
            harness.validate_point(quiet_cfg(estimators=("perfect",), m_data=64, n_data=62,
                                             pilots_per_row=2, **overrides))

    def test_cached_trial_computes_no_ambiguity(self, monkeypatch):
        cfg = quiet_cfg(estimators=("srh-mna", "perfect"))
        run_trial(cfg, 15.0, 0)  # builds the point and its table
        assert not hasattr(channel, "cross_ambiguity")
        calls = []
        for owner, attr in ((gabor, "cross_ambiguity"), (gabor, "ambiguity_table")):
            monkeypatch.setattr(owner, attr, lambda *a, attr=attr: calls.append(attr))
        run_trial(cfg, 15.0, 1)
        assert calls == []

    def test_coded_path_clean(self):
        cfg = quiet_cfg(estimators=("perfect",), scatterers=1, tau_max=0.0,
                        nu_max=0.0, snr_db=(300.0,), coding=True)
        res = run_trial(cfg, 300.0, 0)
        assert res["perfect"].coded_ber == 0.0


class TestSweep:
    def test_row_count(self):
        cfg = quiet_cfg(estimators=("srh", "perfect"), trials=2)
        rows = run_sweep(cfg, "snr", [10.0, 15.0])
        assert len(rows) == 4

    def test_simulate_uses_snr_list(self):
        cfg = quiet_cfg(snr_db=(10.0, 20.0))
        rows = simulate(cfg)
        assert [r.snr_db for r in rows] == [10.0, 20.0]

    def test_pilot_axis_keeps_frame_and_reports_total(self):
        cfg = quiet_cfg()
        rows = run_sweep(cfg, "pilots", [1, 2, 4])
        assert [r.pilots for r in rows] == [16, 32, 64]
        # pilots = N*M - N'*M' with the frame fixed at 16x16
        for row, ppr in zip(rows, (1, 2, 4)):
            assert row.pilots == 16 * 16 - 16 * (16 - ppr)

    def test_velocity_axis(self):
        cfg = quiet_cfg()
        rows = run_sweep(cfg, "velocity", [50.0, 100.0])
        assert [r.velocity_kmh for r in rows] == [50.0, 100.0]

    def test_pilots_value_must_be_whole(self):
        with pytest.raises(ValueError, match="whole number, got 1.5"):
            run_sweep(quiet_cfg(), "pilots", [1, 1.5])

    def test_pilots_value_error_leads_with_the_axis(self):
        with pytest.raises(ValueError, match="^pilots: pilots per row must be a whole number"):
            harness.sweep_configs(quiet_cfg(), "pilots", [2, 0.5])

    def test_pilots_value_that_leaves_no_data_column_names_pilots_per_row(self):
        # the default 16x16 frame: 16 pilots per row leave a 16x0 data frame
        with pytest.raises(ValueError, match="^pilots_per_row: data frame dimensions must be "
                                             "positive, got 16x0$"):
            harness.sweep_configs(quiet_cfg(), "pilots", [1, 16])

    @pytest.mark.parametrize("axis", ["snr", "velocity", "pilots"])
    def test_non_finite_value_rejected(self, axis):
        with pytest.raises(ValueError, match=f"^{axis}: expected a finite number"):
            run_sweep(quiet_cfg(), axis, [1.0, float("nan")])

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            run_sweep(quiet_cfg(), "temperature", [1.0])

    @pytest.mark.parametrize("axis, values", [("velocity", [50.0, 100.0]), ("pilots", [1, 2])])
    def test_every_value_runs_every_snr(self, axis, values):
        cfg = quiet_cfg(estimators=("srh", "perfect"), snr_db=(10.0, 20.0))
        rows = run_sweep(cfg, axis, values)
        # value, then SNR, then estimator
        assert [(r.snr_db, r.estimator) for r in rows] == \
            [(snr, e) for _ in values for snr in (10.0, 20.0) for e in ("srh", "perfect")]
        one_snr = {snr: run_sweep(dataclasses.replace(cfg, snr_db=(snr,)), axis, values)
                   for snr in (10.0, 20.0)}
        expected = [one_snr[snr][2 * v + k] for v in range(len(values))
                    for snr in (10.0, 20.0) for k in range(2)]
        assert rows == expected

    def test_snr_axis_replaces_the_snr_list(self):
        rows = run_sweep(quiet_cfg(snr_db=(0.0, 10.0, 20.0)), "snr", [5.0, 15.0])
        assert [r.snr_db for r in rows] == [5.0, 15.0]

    @pytest.mark.parametrize("snr", [5000.0, -4000.0])
    def test_bad_snr_value_names_the_axis_once(self, snr):
        with pytest.raises(ValueError) as exc:
            run_sweep(quiet_cfg(), "snr", [10.0, snr])
        assert str(exc.value).startswith("snr: ") and "snr_db" not in str(exc.value)


class TestUnderdeterminedWarning:
    def test_a_sweep_warns_once_naming_the_keys(self, monkeypatch):
        monkeypatch.delenv("DDLF_THREADS", raising=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            run_sweep(quiet_cfg(estimators=("lmmse", "perfect")), "velocity", [50.0, 100.0, 150.0])
        assert [str(w.message) for w in caught] == [
            "reconstruction grid has 30 cells (recon_q, recon_w, recon_wn) but only 16 pilots "
            "(pilots_per_row); the fit is underdetermined and relies on the ridge term"]


class TestSweepValidation:
    """A bad sweep point fails before any trial of any point runs."""

    @pytest.fixture
    def no_trials(self, monkeypatch):
        monkeypatch.delenv("DDLF_THREADS", raising=False)
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *a: calls.append(a))
        return calls

    def test_velocity_past_underspread(self, no_trials):
        # desk tau_max is 0.9 us, so 2*tau_max*nu_max >= 0.1 above ~10^4 km/h
        with pytest.raises(ValueError, match=r"velocity.*not underspread"):
            run_sweep(quiet_cfg(), "velocity", [50.0, 100.0, 20000.0])
        assert no_trials == []

    def test_nu_max_past_underspread(self, no_trials):
        with pytest.raises(ValueError, match=r"tau_max, nu_max:.*>= 0.1"):
            run_sweep(quiet_cfg(tau_max=1e-6, nu_max=6e4), "snr", [10.0, 15.0])
        assert no_trials == []

    def test_tau_max_past_frame_duration(self, no_trials):
        # the 16x16 desk frame lasts 64 us
        with pytest.raises(ValueError, match="tau_max: .* frame duration"):
            run_sweep(quiet_cfg(tau_max=64e-6, nu_max=0.0), "snr", [15.0])
        assert no_trials == []

    @pytest.mark.parametrize("snr", [5000.0, -4000.0])
    def test_snr_past_the_float_range(self, no_trials, snr):
        with pytest.raises(ValueError, match="^snr: .* not a positive finite number"):
            run_sweep(quiet_cfg(), "snr", [10.0, snr])
        assert no_trials == []

    def test_bad_pilot_count_on_a_later_point(self, no_trials):
        with pytest.raises(ValueError, match="dimensions must be positive"):
            run_sweep(quiet_cfg(), "pilots", [1, 2, 17])
        assert no_trials == []


    @pytest.mark.parametrize("key, overrides", [
        ("omega", dict(omega=-1.0)),
        ("recon_q", dict(recon_q=-1)),
        ("recon_wn", dict(recon_wn=40, estimators=("lmmse",))),
        ("scatterers", dict(scatterers=0)),
        ("pulse_spread", dict(pulse_spread=0.0)),
        ("pulse_spread", dict(pulse_spread=20.0)),
        ("tau_max", dict(tau_max=-1e-6)),
        ("velocity", dict(velocity=-50.0)),
        ("precoder", dict(precoder="bogus")),
        ("precoder", dict(precoder="fwht1d")),  # the 16 x 15 data block is 240 cells
        ("subframes", dict(subframes=4)),  # 15 data columns
        ("power_profile", dict(power_profile=-1e9)),  # exp(-tau*rate) overflows
        ("tf_product", dict(tf_product=0.0)),
        ("bandwidth", dict(bandwidth=0.0)),
        ("bandwidth", dict(bandwidth=-5e6)),
        ("tf_product", dict(m_data=16, n_data=16)),  # M*b = 336 != L = 340: no grid
        ("pilots_per_row", dict(pilots_per_row=20)),
        # 16 x 14 at T*F 1.3 does not tile the band, but the spread is at fault
        ("pulse_spread", dict(m_data=16, n_data=14, tf_product=1.3, pulse_spread=-1.0)),
    ])
    def test_bad_value_names_its_key(self, no_trials, key, overrides):
        with pytest.raises(ValueError) as info:
            run_sweep(quiet_cfg(**overrides), "snr", [15.0])
        assert key in str(info.value).split(": ")[0]
        assert no_trials == []

    @pytest.mark.parametrize("keys, overrides", [
        # pilots at (0, 0), (1, 4), (2, 8), (3, 12): srh gave BER 0.55 against 0 for perfect
        ("pilots_per_row, estimators", dict(m_data=4, n_data=16, tf_product=2.0, tau_max=0.0,
                                            estimators=("srh", "perfect"), snr_db=(30.0,))),
        ("pilots_per_row, estimators", dict(m_data=2, n_data=16, tf_product=2.0)),
        ("coding, m_data, n_data", dict(m_data=2, n_data=2, tf_product=2.0, tau_max=0.0,
                                        coding=True, estimators=("perfect",))),
        # mode-aware weights of very different size: the banded Cholesky fails
        ("estimators, tau_max, velocity", dict(m_data=16, n_data=15, pilots_per_row=1,
                                               velocity=0.05, estimators=("srh-ma",))),
        # the channel, precoder and reconstruction-grid errors name only the keys at fault
        ("scatterers", dict(scatterers=0)),
        ("power_profile", dict(power_profile=-1.0)),
        ("precoder", dict(precoder="bogus")),
        ("subframes", dict(precoder="fft2d", subframes=3)),
        ("m_data, n_data, subframes", dict(subframes=4)),  # 15 data columns
        ("precoder, m_data, n_data, subframes", dict(precoder="fwht1d")),
        ("recon_wn", dict(recon_q=1, recon_wn=-1)),
        ("recon_q", dict(recon_q=9, estimators=("lmmse",))),  # N/2 = 8
        ("recon_w, recon_wn", dict(recon_wn=40, estimators=("lmmse",))),
    ])
    def test_set_up_failure_names_its_keys(self, no_trials, keys, overrides):
        with pytest.raises(ValueError, match=f"^{keys}: "):
            run_sweep(quiet_cfg(**overrides), "snr", [15.0])
        assert no_trials == []

    @pytest.mark.parametrize("keys, overrides", [
        # 5.47 MHz at fs = 5 MHz: |A(0, fs)| = |A(0, 0)|, yet 2*tau_max*nu_max = 0.011
        ("velocity, bandwidth", dict(tau_max=1e-9, velocity=1e6, estimators=("perfect",))),
        ("velocity, bandwidth", dict(tau_max=1e-9, velocity=9e5, estimators=("perfect",))),
        ("nu_max, bandwidth", dict(tau_max=1e-9, nu_max=5e6, estimators=("perfect",))),
        ("nu_max, bandwidth", dict(tau_max=1e-9, nu_max=2.5e6, estimators=("perfect",))),
        ("velocity, bandwidth", dict(m_data=4, n_data=16, pilots_per_row=2, bandwidth=1000.0,
                                     tau_max=1e-6, velocity=5000.0, tf_product=2.0,
                                     estimators=("srh-ma",))),
    ])
    def test_doppler_spread_that_aliases(self, no_trials, keys, overrides):
        with pytest.raises(ValueError, match=f"^{keys}: .* not below half the sampling rate"):
            run_sweep(quiet_cfg(**overrides), "snr", [15.0])
        assert no_trials == []

    def test_doppler_spread_below_half_the_sampling_rate_runs(self):
        point = harness.validate_point(quiet_cfg(tau_max=1e-9, nu_max=2.4e6))
        assert point.channel.nu_max < point.grid.fs / 2

    def test_collinear_pilots_only_stop_srh(self):
        # the LMMSE fit and the true CMD do not depend on the pilot geometry
        cfg = quiet_cfg(m_data=4, n_data=16, tf_product=2.0, tau_max=0.0, recon_wn=2,
                        estimators=("lmmse", "perfect"))
        assert set(harness.validate_point(cfg).operators) == {"lmmse"}
        for srh in estimation.SRH_VARIANTS:
            with pytest.raises(ValueError, match="^pilots_per_row, estimators: .* one line"):
                harness.validate_point(dataclasses.replace(cfg, estimators=(srh,)))

    @pytest.mark.parametrize("overrides", [{}, dict(power_profile=2e5, fractional=False,
                                                     velocity=300.0, scatterers=3)])
    def test_point_keeps_the_channel_config(self, overrides):
        cfg = quiet_cfg(**overrides)
        point = harness.validate_point(cfg)
        tau_max, nu_max = harness.resolve_spreads(cfg, point.grid)
        assert point.channel == channel.ChannelConfig(
            R=cfg.scatterers, tau_max=tau_max, nu_max=nu_max,
            power_profile=cfg.power_profile, fractional=cfg.fractional)
        assert not hasattr(point.channel, "seed")  # each trial passes its own channel seed

    def test_random_precoder_validated_without_its_qr(self, monkeypatch):
        built = []
        monkeypatch.setattr(transforms, "_random_unitary", lambda *a: built.append(a))
        harness.validate_point(quiet_cfg(precoder="random"))
        assert built == []


class TestPointOperators:
    @staticmethod
    def cached_point(cfg):
        run_trial(cfg, 15.0, 0)  # a cache miss builds the point
        return harness._points[cfg]

    def test_random_precoder_matrix_built_in_parent(self, qrs, monkeypatch):
        # forked pool workers inherit the matrix instead of each redoing the QR
        validated = harness.validate_point(quiet_cfg(precoder="random"))
        assert qrs == []
        seen = []  # the QRs run before each trial
        monkeypatch.setattr(harness, "run_trial", lambda *a: seen.append(list(qrs)))
        monkeypatch.delenv("DDLF_THREADS", raising=False)
        harness._run_points([validated])
        assert seen == [[(16 * 15, 2024)]] * 2
        assert sum(T.shape[0] for _, _, T in validated.precoder.factors.blocks) == 16 * 15
        assert qrs == [(16 * 15, 2024)]
        # a Point holds no factors: its precoder is a plain value
        assert all(not isinstance(v, (np.ndarray, transforms.Reflectors))
                   for v in vars(validated.precoder).values())

    def test_prepare_keeps_the_validated_precoder(self):
        # the point that the trials read is the validated one
        validated = harness.validate_point(quiet_cfg(precoder="random"))
        harness._run_points([validated])
        assert harness._points[validated.cfg] is validated

    def test_operators_are_the_estimators_maps(self):
        cfg = quiet_cfg(estimators=("lmmse", "srh", "srh-ma", "perfect"), velocity=300.0)
        point = harness.validate_point(cfg)  # it already holds every map
        assert set(point.estimators) == {"lmmse", "srh", "srh-ma"}
        assert set(point.operators) == {"lmmse", "srh", "srh-ma"}
        for name, op in point.operators.items():
            ecfg = point.estimators[name]
            assert (ecfg.variant, ecfg.sigma2, ecfg.sigma_z2) == (name, 0.0, 0.0)
            assert ecfg.alpha * ecfg.beta == pytest.approx(1.0)
            assert ecfg.grid_k == estimation.ReconstructionGrid(cfg.recon_q, cfg.recon_w,
                                                                cfg.recon_wn)
            assert op is estimation.operator(point.pl, ecfg)
        assert point.operators["srh"] is not point.operators["srh-ma"]

    def test_consecutive_points_share_the_precoder(self, qrs):
        cfgs = [quiet_cfg(precoder="random", velocity=v) for v in (100.0, 200.0)]
        first = self.cached_point(cfgs[0])
        second = self.cached_point(cfgs[1])
        assert second.precoder == first.precoder
        assert second.precoder.factors is first.precoder.factors
        assert list(harness._points) == [cfgs[1]]  # one point kept between trials
        harness._run_points([harness.validate_point(cfg) for cfg in cfgs])
        assert harness._points[cfgs[0]].precoder.factors is first.precoder.factors
        assert harness._points[cfgs[1]].precoder.factors is first.precoder.factors
        assert qrs == [(16 * 15, 2024)]  # one QR for both points

    def test_a_different_precoder_is_not_shared(self):
        a = self.cached_point(quiet_cfg(precoder="random"))
        b = self.cached_point(quiet_cfg(precoder="random", precoder_seed=7))
        assert b.precoder is not a.precoder
        X = np.ones(a.precoder.shape, dtype=complex)
        assert not np.allclose(transforms.encode(X, b.precoder), transforms.encode(X, a.precoder))


class TestSweepPool:
    """A sweep runs its trials in one process pool, and the workers build nothing."""

    @pytest.fixture
    def pools(self, monkeypatch):
        opened = []

        class CountingPool(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        return opened

    def test_one_pool_per_sweep(self, pools, monkeypatch):
        monkeypatch.setenv("DDLF_THREADS", "2")
        run_sweep(quiet_cfg(), "velocity", [50.0, 100.0, 150.0])
        assert pools == [2]

    def test_random_pilots_sweep_one_pool_per_matrix(self, pools, monkeypatch):
        monkeypatch.setenv("DDLF_THREADS", "2")
        run_sweep(quiet_cfg(precoder="random"), "pilots", [1, 2])
        assert pools == [2, 2]
        pools.clear()
        run_sweep(quiet_cfg(), "pilots", [1, 2])
        assert pools == [2]

    def test_serial_and_single_trial_sweeps_open_none(self, pools, monkeypatch):
        monkeypatch.setenv("DDLF_THREADS", "1")
        run_sweep(quiet_cfg(), "velocity", [50.0, 100.0, 150.0])
        monkeypatch.setenv("DDLF_THREADS", "2")
        run_sweep(quiet_cfg(trials=1), "velocity", [50.0])
        assert pools == []

    def test_pool_no_bigger_than_its_jobs(self, pools, monkeypatch):
        monkeypatch.setenv("DDLF_THREADS", "4")
        run_sweep(quiet_cfg(trials=3), "velocity", [50.0])
        assert pools == [3]

    @pytest.mark.parametrize("threads", ["two", "0", "-3", "", "1.5"])
    def test_bad_threads_fail_before_any_trial(self, pools, monkeypatch, threads):
        trials = []
        monkeypatch.setattr(harness, "run_trial", lambda *a: trials.append(a))
        monkeypatch.setenv("DDLF_THREADS", threads)
        with pytest.raises(ValueError, match=f"^DDLF_THREADS: .*{threads!r}"):
            run_sweep(quiet_cfg(), "velocity", [50.0, 100.0])
        assert trials == [] and pools == []

    def test_workers_build_nothing(self, monkeypatch):
        parent, built = os.getpid(), []

        def in_parent_only(owner, attr):
            fn = getattr(owner, attr)

            def guarded(*args, **kwargs):
                if os.getpid() != parent:
                    raise AssertionError(f"{attr} ran in a pool worker")
                built.append(attr)
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, attr, guarded)

        in_parent_only(transforms, "_random_unitary")
        in_parent_only(gabor, "tight_orthogonalize")
        in_parent_only(estimation.sla, "cholesky_banded")
        for cache in (harness._tight_pulse, estimation._srh_operator,
                      estimation._lmmse_operator):
            cache.cache_clear()
        harness._points.clear()
        monkeypatch.setenv("DDLF_THREADS", "2")
        cfg = quiet_cfg(precoder="random", estimators=("srh", "srh-ma", "lmmse"), trials=3)
        run_sweep(cfg, "velocity", [50.0, 100.0, 150.0])
        # one QR, one pulse, and the (1, 1) plus three mode-aware SRH operators
        assert sorted(built) == ["_random_unitary"] + ["cholesky_banded"] * 4 \
            + ["tight_orthogonalize"]

    def test_workers_read_the_parents_ambiguity_tables(self, monkeypatch):
        parent, built = os.getpid(), []
        table = gabor.ambiguity_table

        def in_parent_only(*args):
            if os.getpid() != parent:
                raise AssertionError("an ambiguity table was built in a pool worker")
            built.append(args[3:])
            return table(*args)

        monkeypatch.setattr(gabor, "ambiguity_table", in_parent_only)
        harness._points.clear()
        monkeypatch.setenv("DDLF_THREADS", "2")
        run_sweep(quiet_cfg(estimators=("srh-na", "perfect"), trials=3),
                  "velocity", [50.0, 100.0, 150.0])
        assert [nu_max for _, nu_max in built] == [velocity_to_nu_max(v) for v in (50, 100, 150)]

    @pytest.mark.skipif("forkserver" not in multiprocessing.get_all_start_methods(),
                        reason="no forkserver start method")
    def test_workers_build_nothing_under_forkserver(self, tmp_path):
        # forkserver (the Linux default from Python 3.14) starts workers from a
        # fresh interpreter, which would build every point again. Such a
        # worker imports the script as __mp_main__, so its calls are logged too.
        log = tmp_path / "calls.log"
        script = tmp_path / "sweep.py"
        script.write_text(textwrap.dedent(f"""
            import multiprocessing, os
            from ddlf import harness, transforms
            from ddlf.harness import ExperimentConfig

            def logged(owner, attr):
                fn = getattr(owner, attr)
                def wrapper(*args, **kwargs):
                    with open({str(log)!r}, "a") as fh:
                        fh.write(f"{{os.getpid()}} {{attr}}\\n")
                    return fn(*args, **kwargs)
                setattr(owner, attr, wrapper)

            logged(harness, "validate_point")
            logged(transforms, "_random_unitary")
            if __name__ == "__main__":
                multiprocessing.set_start_method("forkserver")
                harness.run_sweep({quiet_cfg(precoder="random")!r}, "velocity", [50.0, 100.0])
                print(os.getpid())
        """))
        src = os.path.dirname(os.path.dirname(harness.__file__))
        env = {**os.environ, "DDLF_THREADS": "2", "PYTHONPATH": src}
        done = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        parent = done.stdout.split()[-1]
        calls = [line.split() for line in log.read_text().splitlines()]
        assert calls == [[parent, "validate_point"], [parent, "validate_point"],
                         [parent, "_random_unitary"]]

    @pytest.mark.parametrize("axis, values", [("velocity", [50.0, 100.0, 150.0]),
                                              ("pilots", [1, 2, 3])])
    def test_csv_identical_across_threads(self, monkeypatch, axis, values):
        cfg = quiet_cfg(precoder="random", estimators=("srh-ma", "lmmse"), trials=3)
        csv = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("DDLF_THREADS", threads)
            csv[threads] = rows_to_csv(run_sweep(cfg, axis, values))
        assert csv["1"] == csv["2"]


class TestBuildOnce:
    """A sweep builds each distinct config once and one random matrix at a time."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("axis, values, configs", [("snr", [10.0, 15.0, 20.0], 1),
                                                       ("velocity", [50.0, 100.0, 150.0], 3),
                                                       ("pilots", [1, 2, 3], 3)],
                             ids=["snr", "velocity", "pilots"])
    def test_each_config_built_once(self, monkeypatch, threads, axis, values, configs):
        grids, make_grid = [], gabor.make_grid
        monkeypatch.setattr(gabor, "make_grid", lambda *a: grids.append(a) or make_grid(*a))
        monkeypatch.setenv("DDLF_THREADS", threads)
        run_sweep(quiet_cfg(), axis, values)
        assert len(grids) == configs

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_one_random_matrix_alive(self, monkeypatch, threads):
        built, random_unitary = [], transforms._random_unitary

        def tracked(*args):
            gc.collect()
            assert all(ref() is None for ref in built), "an earlier random matrix is alive"
            matrix = random_unitary(*args)
            built.append(weakref.ref(matrix))
            return matrix

        monkeypatch.setattr(transforms, "_random_unitary", tracked)
        monkeypatch.setenv("DDLF_THREADS", threads)
        harness._points.clear()
        run_sweep(quiet_cfg(precoder="random"), "pilots", [1, 2, 3])
        assert len(built) == 3


class TestDeterminism:
    def test_csv_byte_identical(self):
        cfg = quiet_cfg(estimators=("srh", "lmmse"), trials=3)
        a = rows_to_csv(run_sweep(cfg, "snr", [12.0, 15.0]))
        b = rows_to_csv(run_sweep(cfg, "snr", [12.0, 15.0]))
        assert a == b

    def test_master_seed_changes_results(self):
        a = rows_to_csv(simulate(quiet_cfg(seed=1)))
        b = rows_to_csv(simulate(quiet_cfg(seed=2)))
        assert a != b

    def test_parallel_matches_serial(self, monkeypatch):
        cfg = quiet_cfg(trials=4)
        serial = rows_to_csv(simulate(cfg))
        monkeypatch.setenv("DDLF_THREADS", "2")
        parallel = rows_to_csv(simulate(cfg))
        assert serial == parallel

    def test_trial_channels_distinct(self):
        # counter-mode trial seeds: distinct trials draw distinct channels
        cfg = quiet_cfg(estimators=("perfect",), trials=1)
        fprints = set()
        for t in range(8):
            m = run_trial(cfg, 15.0, t)["perfect"]
            fprints.add(round(m.rel_symbol_mse_db, 9))
        assert len(fprints) == 8


class TestAggregation:
    def test_point_metrics_lists(self):
        cfg = quiet_cfg(estimators=("srh", "perfect"), trials=3)
        point = run_point(cfg, 15.0)
        assert set(point) == {"srh", "perfect"}
        assert all(len(v) == 3 for v in point.values())

    def test_csv_header(self):
        csv_text = rows_to_csv(simulate(quiet_cfg()))
        header = csv_text.splitlines()[0]
        assert header.startswith("snr_db,velocity_kmh,pilots,estimator,precoder")


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


# desk-size configs over ranges that reach every known set-up failure: frames
# of 1-4 rows (collinear pilots, too few bits for a codeword), extreme
# bandwidth, Doppler and delay spreads (mode-aware weights of very different
# size), and omega, snr_db and sigma_z2 far from their defaults.
desk_configs = st.fixed_dictionaries(dict(
    m_data=st.integers(1, 4), n_data=st.integers(1, 16), pilots_per_row=st.integers(1, 2),
    tf_product=st.sampled_from((1.25, 1.5, 2.0, 2.5, 3.0)),
    bandwidth=_log_uniform(1e2, 1e10),
    precoder=st.sampled_from(transforms.KINDS),
    subframes=st.sampled_from(transforms.SUBFRAME_CHOICES),
    scatterers=st.integers(1, 8),
    tau_max=st.none() | st.just(0.0) | _log_uniform(1e-10, 1e-2),
    nu_max=st.none() | st.just(0.0) | _log_uniform(1e-1, 1e6),
    velocity=st.none() | st.just(0.0) | _log_uniform(1e-1, 1e5),
    power_profile=st.none() | _log_uniform(1e3, 1e12),
    fractional=st.booleans(),
    estimators=st.lists(st.sampled_from(harness.ESTIMATOR_CHOICES), min_size=1, max_size=3,
                        unique=True).map(tuple),
    omega=st.none() | st.floats(0.0, exclude_min=True, allow_infinity=False),
    recon_q=st.integers(0, 3), recon_w=st.integers(0, 2), recon_wn=st.integers(0, 4),
    sigma_z2=st.none() | st.just(0.0) | _log_uniform(1e-12, 1e4),
    snr_db=st.tuples(st.floats(-60.0, 100.0)),
    trials=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
    coding=st.booleans(),
))
FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


class TestAnyConfig:
    @pytest.mark.filterwarnings("ignore:reconstruction grid has:UserWarning")
    @settings(max_examples=100)
    @given(fields=desk_configs, field_seed=st.integers(0, 2**32 - 1))
    # pilots at (0, 0), (1, 4), (2, 8), (3, 12): srh gave BER 0.55 against 0 for perfect
    @example(fields=dict(m_data=4, n_data=16, tf_product=2.0, tau_max=0.0,
                         estimators=("srh", "perfect"), snr_db=(30.0,), trials=2),
             field_seed=1)
    @example(fields=dict(m_data=2, n_data=16, tf_product=2.0, estimators=("srh",), trials=1),
             field_seed=1)
    @example(fields=dict(m_data=2, n_data=2, tf_product=2.0, tau_max=0.0, coding=True,
                         estimators=("perfect",), trials=1), field_seed=1)
    @example(fields=dict(m_data=4, n_data=16, pilots_per_row=2, bandwidth=1000.0,
                         tau_max=1e-6, velocity=5000.0, tf_product=2.0,
                         estimators=("srh-ma",), trials=1), field_seed=1)
    def test_fails_before_any_trial_naming_a_field_or_runs_exactly(self, fields, field_seed):
        trials, run = [], harness.run_trial
        with mock.patch.object(harness, "run_trial", lambda *a: trials.append(a) or run(*a)), \
                mock.patch.dict(os.environ, {"DDLF_THREADS": "1"}):
            try:
                cfg = ExperimentConfig(**fields)
                rows = simulate(cfg)
            except ValueError as exc:
                assert trials == []
                assert set(str(exc).split(": ", 1)[0].split(", ")) <= FIELDS, str(exc)
                return
        assert 1 <= len(trials) <= 2
        for row in rows:
            assert all(math.isfinite(v) for v in dataclasses.astuple(row)
                       if isinstance(v, float)), row
        # a NaN check misses a wrong estimate: an affine field at the pilots comes back
        point = harness._points[cfg]
        pl = point.pl
        m, n = np.meshgrid(np.arange(pl.M), np.arange(pl.N), indexing="ij")
        rng = np.random.default_rng(field_seed)
        for name in (e for e in cfg.estimators if e in estimation.SRH_VARIANTS):
            a, b, c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            field = a * m + b * n + c
            ecfg = dataclasses.replace(point.estimators[name], sigma2=10 ** (-cfg.snr_db[0] / 10),
                                       sigma_z2=cfg.sigma_z2 or 0.0)
            h = estimation.estimate(field[pl.pilot_array_indices()], pl, ecfg,
                                    point.operators[name]).h_tilde
            assert np.abs(h - field).max() <= 1e-6 * np.abs(field).max(), name
