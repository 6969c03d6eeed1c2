"""Tests for the command-line interface and config parsing."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ddlf import gabor, harness, piloting
from ddlf.cli import CONFIG_KEYS, load_config, main
from ddlf.harness import ESTIMATOR_CHOICES, ExperimentConfig
from ddlf.transforms import KINDS, SUBFRAME_CHOICES


class TestConfigFile:
    def test_full_config(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            """
            # experiment
            data-shape = 16x14
            pilots-per-row = 2
            precoder = fwht2d      # power-of-two data shape not required here
            subframes = 2
            estimator = lmmse, srh-mna
            snr = 5, 10, 15
            trials = 7
            seed = 42
            Q = 3
            Wn = 5
            sigma-z2 = 0.05
            omega = 0.25
            fractional = false
            velocity = 120
            coding = true
            """
        )
        cfg = load_config(str(path))
        assert (cfg.m_data, cfg.n_data) == (16, 14)
        assert cfg.pilots_per_row == 2
        assert cfg.precoder == "fwht2d" and cfg.subframes == 2
        assert cfg.estimators == ("lmmse", "srh-mna")
        assert cfg.snr_db == (5.0, 10.0, 15.0)
        assert cfg.trials == 7 and cfg.seed == 42
        assert cfg.recon_q == 3 and cfg.recon_wn == 5
        assert cfg.sigma_z2 == 0.05 and cfg.omega == 0.25
        assert cfg.fractional is False
        assert cfg.velocity == 120.0
        assert cfg.coding is True

    def test_auto_values(self, tmp_path):
        path = tmp_path / "auto.cfg"
        path.write_text("tau-max = auto\nomega = auto\nsigma-z2 = auto\n")
        cfg = load_config(str(path))
        assert cfg.tau_max is None and cfg.omega is None and cfg.sigma_z2 is None

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("bandwith = 5e6\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(str(path))

    @pytest.mark.parametrize("key, value", [
        ("trials", "abc"),
        # a non-finite number would fail only inside a trial
        ("snr", "nan"), ("snr", "10,inf"), ("velocity", "nan"), ("tau-max", "nan"),
        ("nu-max", "nan"), ("omega", "nan"), ("sigma-z2", "nan"), ("power-profile", "nan"),
        ("bandwidth", "inf"),
    ])
    def test_bad_value_names_file_line_and_key(self, tmp_path, key, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"seed = 3\n{key} = {value}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: {key}:")):
            load_config(str(path))

    @pytest.mark.parametrize("value", ["maybe", "2", ""])
    def test_bad_boolean_names_file_line_and_key(self, tmp_path, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"seed = 3\ncoding = {value}\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:2: coding: expected a boolean, got {value!r}")):
            load_config(str(path))

    def test_line_without_equals_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("seed = 3\n# a comment\ncoding true\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: expected key = value")):
            load_config(str(path))
        out = tmp_path / "res.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"ddlf: {path}:3: expected key = value\n"
        assert not out.exists()

    def test_keys_case_insensitive(self, tmp_path):
        path = tmp_path / "case.cfg"
        path.write_text("q = 3\nWN = 5\nTrials = 4\n")
        cfg = load_config(str(path))
        assert (cfg.recon_q, cfg.recon_wn, cfg.trials) == (3, 5, 4)

    def test_readme_lists_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        para = readme[readme.index("Config files are flat"):]
        para = para[:para.index("\n\n")]
        missing = [k[0] for k in CONFIG_KEYS if f"`{k[0]}`" not in para]
        assert not missing

    def test_help_lists_every_key(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for key, *_ in CONFIG_KEYS:
            assert re.search(rf"^{re.escape(key)} .*\(default \S+\)$", out, re.M), key

    def test_help_lists_the_choices(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert re.search(rf"^precoder +{re.escape('|'.join(KINDS))} ", out, re.M)
        assert re.search(rf"^subframes +{'[|]'.join(map(str, SUBFRAME_CHOICES))} ", out, re.M)
        assert re.search(rf"^estimator +comma list: {','.join(ESTIMATOR_CHOICES)} ", out, re.M)

    def test_every_field_reached_by_one_key(self):
        # data-shape sets n_data with m_data
        fields = [name for _, names, _, _ in CONFIG_KEYS for name in names]
        assert sorted(fields) == sorted(f.name for f in dataclasses.fields(ExperimentConfig))
        assert [names for _, names, _, _ in CONFIG_KEYS if "n_data" in names] == [
            ("m_data", "n_data")]

    def test_help_defaults_load_to_the_default_config(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        shown = re.findall(r"^(\S+) .*\(default (\S+)\)$", capsys.readouterr().out, re.M)
        assert [key for key, _ in shown] == [k[0] for k in CONFIG_KEYS]
        path = tmp_path / "defaults.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in shown))
        assert load_config(str(path)) == ExperimentConfig()

    def test_velocity_auto(self, tmp_path):
        path = tmp_path / "auto.cfg"
        path.write_text("velocity = 120\nvelocity = auto\n")
        assert load_config(str(path)).velocity is None

    def test_list_items_are_stripped(self, tmp_path):
        path = tmp_path / "lists.cfg"
        path.write_text("estimator =  srh ,lmmse\t\nsnr = 5 ,  10\n")
        cfg = load_config(str(path))
        assert (cfg.estimators, cfg.snr_db) == (("srh", "lmmse"), (5.0, 10.0))

    @pytest.mark.parametrize("key, value", [("estimator", "srh,"), ("estimator", ",srh"),
                                            ("estimator", "srh, ,lmmse"), ("snr", "10,,15"),
                                            ("snr", "10,")])
    def test_empty_list_item_names_file_line_and_key(self, tmp_path, key, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"seed = 3\n{key} = {value}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: {key}: expected a comma "
                                                       "list without empty items")):
            load_config(str(path))

    def test_overrides(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("seed = 1\n")
        cfg = load_config(str(path), {"seed": 9})
        assert cfg.seed == 9

    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.m_data == 16 and cfg.trials == 200


class TestPlacePilots:
    def test_mask_bit_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["place-pilots", "--data-shape", "16x14",
                         "--pilots-per-row", "2", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_mask_contents(self, tmp_path):
        out = tmp_path / "mask.csv"
        main(["place-pilots", "--data-shape", "8x6", "--pilots-per-row", "2",
              "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "m,n,kind,order"
        assert len(lines) == 1 + 8 * 8
        kinds = [ln.split(",")[2] for ln in lines[1:]]
        assert kinds.count("pilot") == 16
        assert kinds.count("data") == 48

    def test_rows_match_the_placement_indices(self, tmp_path):
        out = tmp_path / "mask.csv"
        assert main(["place-pilots", "--data-shape", "4x5", "--pilots-per-row", "2",
                     "--out", str(out)]) == 0
        pl = piloting.accordion_placement(4, 5, 2)
        cell = {}  # (m, n) -> (kind, place among the cells of that kind)
        for kind, (rows, cols) in (("pilot", pl.pilot_array_indices()),
                                   ("data", pl.data_array_indices())):
            for i, (m, n) in enumerate(zip(rows, cols)):
                cell[int(m), int(n)] = kind, i
        assert out.read_text().splitlines()[1:] == [
            f"{m},{n},{cell[m, n][0]},{cell[m, n][1]}" for m in range(pl.M) for n in range(pl.N)]


class TestAmbiguity:
    def test_raster(self, tmp_path):
        out = tmp_path / "amb.csv"
        assert main(["ambiguity", "--frame", "8x8", "--steps", "5",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tau_s,nu_hz,abs,re,im"
        assert len(lines) == 1 + 25
        # the raster includes the origin where |A| = 1
        mags = [float(ln.split(",")[2]) for ln in lines[1:]]
        assert max(mags) == pytest.approx(1.0, abs=1e-9)

    def test_cells_are_the_cross_ambiguity(self, tmp_path):
        out = tmp_path / "amb.csv"
        assert main(["ambiguity", "--frame", "8x8", "--steps", "5", "--out", str(out)]) == 0
        cfg = ExperimentConfig()
        grid = gabor.make_grid(8, 8, cfg.tf_product)
        pulse = gabor.tight_orthogonalize(gabor.gaussian_prototype(grid, cfg.pulse_spread), grid)
        # the axes in seconds and hertz, T = a/fs and F = b*fs/L, and the
        # raster of their samples and cycles per sample
        fs = cfg.bandwidth
        T, F = grid.time_shift / fs, grid.freq_shift * fs / grid.L
        taus = np.linspace(-2 * T, 2 * T, 5)
        nus = np.linspace(-2 * F, 2 * F, 5)
        raster = gabor.cross_ambiguity(pulse, pulse, taus * fs, nus / fs, grid)
        assert out.read_text().splitlines()[1:] == [
            ",".join(format(v, ".12g") for v in (tau, nu, abs(a), a.real, a.imag))
            for tau, row in zip(taus, raster) for nu, a in zip(nus, row.tolist())]

    @pytest.mark.parametrize("steps", [5, 33])
    def test_raster_delays_each_row_once(self, tmp_path, monkeypatch, steps):
        # a steps x steps raster takes steps delays of the pulse, not steps**2
        delays, counted = gabor._delays, []

        def counting_delays(f, tau, *args, **kw):
            counted.append(len(tau))
            return delays(f, tau, *args, **kw)

        monkeypatch.setattr(gabor, "_delays", counting_delays)
        out = tmp_path / "amb.csv"
        assert main(["ambiguity", "--frame", "8x8", "--steps", str(steps),
                     "--out", str(out)]) == 0
        assert counted == [steps]
        assert len(out.read_text().splitlines()) == 1 + steps**2

    # M*tf_product ends in .5: 2x2 and 10x10 round half away to a = b = 3 and 13;
    # a 2-slot frame lasts 2T, so its raster spans +-T
    @pytest.mark.parametrize("frame, span, tf", [("2x2", 1, 1.5), ("10x10", 2, 1.3)])
    def test_rounding_tie_frames_run(self, tmp_path, frame, span, tf):
        out = tmp_path / "amb.csv"
        assert main(["ambiguity", "--frame", frame, "--steps", "3", "--tau-span", str(span),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tau_s,nu_hz,abs,re,im" and len(lines) == 1 + 9
        M = int(frame.split("x")[0])
        grid = gabor.make_grid(M, M)
        assert grid.time_shift * grid.freq_shift / grid.L == pytest.approx(tf, rel=1e-15)
        # the first delay is -span time steps T = a/fs of the realised lattice
        T = grid.time_shift / ExperimentConfig.bandwidth
        assert float(lines[1].split(",")[0]) == pytest.approx(-span * T, rel=1e-12)

    def test_any_bandwidth_gives_finite_cells(self, tmp_path):
        # at 1e-160 Hz the prototype's squared times in seconds used to
        # overflow, and the command exited 2 blaming --spread
        rasters = []
        for bandwidth in ("1e-160", "5e6", "1e160"):
            out = tmp_path / f"amb-{bandwidth}.csv"
            assert main(["ambiguity", "--bandwidth", bandwidth, "--steps", "3",
                         "--out", str(out)]) == 0
            cells = np.array([[float(v) for v in line.split(",")]
                              for line in out.read_text().splitlines()[1:]])
            assert cells.shape == (9, 5) and np.all(np.isfinite(cells))
            # the axes are seconds and hertz, -2T = -2a/bandwidth with a = 20 on
            # the 16x16 grid; A itself does not depend on them
            assert cells[0, 0] == pytest.approx(-2 * 20 / float(bandwidth), rel=1e-12)
            rasters.append(cells[:, 2:])
        assert np.array_equal(rasters[0], rasters[1]) and np.array_equal(rasters[1], rasters[2])

    def test_overflowing_doppler_span_exits_2_naming_it(self, tmp_path, capsys):
        # 1e306 F overflows to inf, and the raster's Doppler axis holds no finite shift
        out = tmp_path / "amb.csv"
        assert main(["ambiguity", "--nu-span", "1e306", "--steps", "3",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ddlf: --nu-span: expected finite Doppler shifts")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--tf-product", "--bandwidth", "--spread",
                                      "--tau-span", "--nu-span"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_flag_exits_2_naming_it(self, tmp_path, capsys, flag, value):
        out = tmp_path / "amb.csv"
        with pytest.raises(SystemExit) as info:
            main(["ambiguity", "--frame", "8x8", "--steps", "5", flag, value,
                  "--out", str(out)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert re.search(rf"^ddlf ambiguity: error: argument {flag}: ", err, re.M)
        assert f"expected a finite number, got '{value}'" in err
        assert "_finite" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag, reason", [
        (["ambiguity", "--frame", "8"], "--frame", "expected MxN, got '8'"),
        (["ambiguity", "--frame", "8x"], "--frame", "invalid literal for int()"),
        (["ambiguity", "--frame", "0x8"], "--frame", "expected positive M and N, got '0x8'"),
        (["ambiguity", "--steps", "-1"], "--steps", "expected a positive integer, got '-1'"),
        (["ambiguity", "--steps", "0"], "--steps", "expected a positive integer, got '0'"),
        (["place-pilots", "--data-shape", "8", "--pilots-per-row", "1"], "--data-shape",
         "expected MxN, got '8'"),
        (["ambiguity", "--bandwidth", "-1"], "--bandwidth",
         "expected a positive number, got '-1'"),
        (["ambiguity", "--bandwidth", "0"], "--bandwidth",
         "expected a positive number, got '0'"),
    ])
    def test_bad_flag_exits_2_naming_it_and_why(self, tmp_path, capsys, argv, flag, reason):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as info:
            main([*argv, "--out", str(out)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert re.search(rf"^ddlf {argv[0]}: error: argument {flag}: {re.escape(reason)}",
                         err, re.M)
        assert not out.exists()

    # values that parse but that the command rejects together
    @pytest.mark.parametrize("argv, flags, reason", [
        (["place-pilots", "--data-shape", "8x8", "--pilots-per-row", "0"], "--pilots-per-row",
         "pilots per row must satisfy 1 <= P' < N_data"),
        (["place-pilots", "--data-shape", "8x8", "--pilots-per-row", "8"], "--pilots-per-row",
         "pilots per row must satisfy 1 <= P' < N_data"),
        # a = 8 and b = 6: M*b = 36, L = a*N = 40
        (["ambiguity", "--frame", "6x5"], "--frame, --tf-product",
         "the M frequency channels must tile the sampled band exactly (M*b = L), "
         "got M*b = 36, L = 40"),
        # a = b = 1 < N = 2: T*F = 1/2, whatever the bandwidth
        (["ambiguity", "--frame", "2x2", "--tf-product", "0.5"],
         "--frame, --tf-product", "only the undersampled regime"),
        # the grid is refused before the prototype is built
        (["ambiguity", "--frame", "6x5", "--spread", "-1"], "--frame, --tf-product",
         "must tile the sampled band exactly"),
        (["ambiguity", "--frame", "8x8", "--spread", "0"], "--spread",
         "spread must be positive"),
        (["ambiguity", "--frame", "8x8", "--spread", "-1"], "--spread",
         "spread must be positive"),
        (["ambiguity", "--frame", "8x8", "--spread", "1e-9"], "--spread",
         "frame operator not positive definite"),
        (["ambiguity", "--frame", "8x8", "--tau-span", "8"], "--tau-span",
         "exceeds the frame duration"),
    ])
    def test_rejected_combination_exits_2_naming_its_flags(self, tmp_path, capsys, argv,
                                                            flags, reason):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ddlf: {flags}: ") and reason in err
        assert err.count("\n") == 1
        assert not out.exists()


class TestSimulateAndSweep:
    def test_simulate_end_to_end(self, tmp_path):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("trials = 2\nsnr = 15\nestimator = srh\n")
        out = tmp_path / "res.csv"
        assert main(["simulate", "--config", str(cfgf), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("15,")

    def test_delay_spread_of_half_the_frame_runs(self, tmp_path):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("data-shape = 16x15\ntau-max = 3.2e-5\nnu-max = 100\n"
                        "estimator = perfect\ntrials = 1\n")
        out = tmp_path / "res.csv"
        assert main(["simulate", "--config", str(cfgf), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_seed_override_changes_output(self, tmp_path):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("trials = 2\nsnr = 15\nestimator = srh\n")
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / f"res{seed}.csv"
            main(["simulate", "--config", str(cfgf), "--out", str(out),
                  "--seed", seed])
            outs.append(out.read_bytes())
        assert outs[0] != outs[1]

    # both subcommands run their config as an snr sweep
    @pytest.mark.parametrize("argv", [["simulate"], ["sweep", "--axis", "snr", "--values", "15"]],
                             ids=["argv0-simulate", "argv1-run_sweep"])
    def test_paper_scale(self, tmp_path, monkeypatch, argv):
        seen = []
        monkeypatch.setattr(harness, "run_sweep",
                            lambda cfg, axis, values: seen.append((cfg, axis, values)) or [])
        assert main(argv + ["--paper-scale", "--out", str(tmp_path / "res.csv")]) == 0
        ((cfg, axis, values),) = seen
        assert (axis, list(values)) == ("snr", [15.0])
        assert (cfg.m_data, cfg.n_data, cfg.pilots_per_row) == (64, 62, 2)
        assert (cfg.scatterers, cfg.bandwidth) == (58, 5.0e6)
        pl = harness.build_placement(cfg)
        assert (pl.M, pl.N, pl.P) == (64, 64, 128)

    def test_steep_power_profile(self, tmp_path):
        # every exp(-tau * 1e12) underflows unless taken relative to the earliest path
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("trials = 1\nsnr = 15\nestimator = srh-mna\npower-profile = 1e12\n")
        out = tmp_path / "res.csv"
        assert main(["simulate", "--config", str(cfgf), "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        mse = row.split(",")[header.split(",").index("mse_db_mean")]
        assert np.isfinite(float(mse))

    def test_sweep_runs_every_snr_of_the_file(self, tmp_path):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("trials = 1\nsnr = 0, 10, 20\nestimator = srh, perfect\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfgf), "--axis", "velocity",
                     "--values", "100,200", "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        assert len(rows) == 12
        assert [(r[1], r[0], r[3]) for r in rows] == [
            (v, snr, e) for v in ("100", "200") for snr in ("0", "10", "20")
            for e in ("srh", "perfect")]

    def test_sweep_pilots(self, tmp_path):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("trials = 2\nsnr = 15\nestimator = srh\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfgf), "--axis", "pilots",
                     "--values", "1,2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        pilots = [int(ln.split(",")[2]) for ln in lines[1:]]
        assert pilots == [16, 32]


class TestConfigErrors:
    @pytest.mark.parametrize("line, key", [("precoder = bogus", "precoder"),
                                           ("omega = -1", "omega"),
                                           ("seed = -1", "seed"),
                                           ("precoder = random\nprecoder-seed = -1",
                                            "precoder_seed"),
                                           ("pulse-spread = 20", "pulse_spread"),
                                           ("tf-product = 0", "tf_product"),
                                           ("power-profile = -1e9", "power_profile"),
                                           ("trials = 0", "trials"),
                                           ("pilots-per-row = 0", "pilots_per_row")])
    def test_bad_value_exits_2_with_one_line(self, tmp_path, capsys, line, key):
        cfgf = tmp_path / "bad.cfg"
        cfgf.write_text(f"trials = 1\nsnr = 15\n{line}\n")
        out = tmp_path / "res.csv"
        assert main(["simulate", "--config", str(cfgf), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert re.search(rf"^ddlf: .*\b{key}\b.*:", err, re.M)
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("axis, values", [("pilots", "1,1.5"), ("snr", "10,abc"),
                                              ("snr", "10,inf"), ("velocity", "100,nan"),
                                              ("snr", "10,-4000"), ("snr", "10,5000")])
    def test_bad_sweep_value_exits_2_naming_values(self, tmp_path, capsys, axis, values):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("trials = 1\nsnr = 15\nestimator = srh\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfgf), "--axis", axis,
                     "--values", values, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert re.search(r"^ddlf: --values: ", err, re.M)
        assert not out.exists()

    @pytest.mark.parametrize("line, key, reason", [
        ("omega = -1", "omega", "omega: omega must be positive when given"),
        # the 16x16 desk frame lasts 64 us
        ("tau-max = 64e-6", "tau_max", "tau_max: 320 samples is not below the frame duration"),
        ("velocity = 20000", "velocity", "tau_max, velocity: 2*tau_max*nu_max = 0.197 >= 0.1"),
        ("pulse-spread = -1", "pulse_spread", "pulse_spread: expected a positive number, got -1.0"),
        ("bandwidth = 0", "bandwidth", "bandwidth: expected a positive number, got 0.0"),
    ])
    def test_rejected_value_names_its_file_line(self, tmp_path, capsys, line, key, reason):
        cfgf = tmp_path / "bad.cfg"
        cfgf.write_text(f"trials = 1\nsnr = 15\n\n{line}  # line 4\n")
        out = tmp_path / "res.csv"
        assert main(["simulate", "--config", str(cfgf), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ddlf: {cfgf}:4: {reason}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text, reason", [
        ("scatterers = 8\npower-profile = -1\n",
         "power_profile: delay-decay rate power_profile = -1 must be nonnegative"),
        ("precoder = fft2d\nsubframes = 3\n", "subframes: subframes must be one of (1, 2, 4, 8)"),
        ("Q = 1\nWn = -1\n", "recon_wn: reconstruction grid extent Wn = -1 must be nonnegative"),
    ])
    def test_error_names_the_line_of_the_bad_value(self, tmp_path, capsys, text, reason):
        # each pair is checked together; the error names the key at fault and its line
        cfgf = tmp_path / "two.cfg"
        cfgf.write_text(f"{text}trials = 1\n")
        out = tmp_path / "r.csv"
        assert main(["simulate", "--config", str(cfgf), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"ddlf: {cfgf}:2: {reason}\n"
        assert not out.exists()

    def test_negative_velocity_blames_its_own_line(self, tmp_path, capsys):
        cfgf = tmp_path / "c.cfg"
        cfgf.write_text("tau-max = 5e-7\ntrials = 1\nvelocity = -5\n")
        assert main(["simulate", "--config", str(cfgf), "--out", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"ddlf: {cfgf}:3: velocity: ")

    def test_negative_swept_velocity_blames_no_file_line(self, tmp_path, capsys):
        cfgf = tmp_path / "c.cfg"
        cfgf.write_text("tau-max = 5e-7\n")
        assert main(["sweep", "--config", str(cfgf), "--axis", "velocity", "--values", "-5",
                     "--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err.startswith("ddlf: velocity: ")

    def test_message_of_fields_the_file_did_not_set_unchanged(self, tmp_path, capsys):
        # 16x16 data needs a 16x17 frame, whose channels do not tile the band: no grid
        cfgf = tmp_path / "bad.cfg"
        cfgf.write_text("trials = 1\ndata-shape = 16x16\n")
        assert main(["simulate", "--config", str(cfgf), "--out", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err.startswith("ddlf: tf_product: ")

    def test_grid_error_does_not_blame_the_bandwidth_line(self, tmp_path, capsys):
        # T*F = b/N and M*b = a*N do not involve the bandwidth: a 4x1 frame
        # (a = 5, b = 1) names tf_product alone, and no line of the file
        cfgf = tmp_path / "edge.cfg"
        cfgf.write_text("bandwidth = 5e6\ndata-shape = 4x1\npilots-per-row = 0\n"
                        "estimator = perfect\ntrials = 1\n")
        out = tmp_path / "r.csv"
        assert main(["simulate", "--config", str(cfgf), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ddlf: tf_product: ") and "bandwidth" not in err
        assert not out.exists()

    def test_an_overridden_field_is_not_the_files(self, tmp_path, capsys):
        # --seed replaces the file's seed, and the pilots axis its pilots-per-row
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("trials = 1\nseed = 3\nestimator = srh\npilots-per-row = 3\n")
        assert main(["simulate", "--config", str(cfgf), "--out", str(tmp_path / "r.csv"),
                     "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("ddlf: seed: expected a nonnegative integer")
        assert main(["sweep", "--config", str(cfgf), "--axis", "pilots", "--values", "20",
                     "--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err.startswith("ddlf: pilots_per_row: ")

    @pytest.mark.parametrize("snr", ["-3080", "-3000.5", "3000.5"])
    def test_snr_past_the_limit_exits_2_before_any_trial(self, tmp_path, capsys, monkeypatch,
                                                         snr):
        # -3080 dB: a noise variance of 1e308 is finite, but srh-na's relaxation
        # (sigma2 + sigma_z2) * P overflows and its estimate is 0/0
        trials = []
        monkeypatch.setattr(harness, "run_trial", lambda *a: trials.append(a))
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text(f"snr = {snr}\nestimator = srh-na\ntrials = 1\n")
        out = tmp_path / "res.csv"
        assert main(["simulate", "--config", str(cfgf), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ddlf: {cfgf}:1: snr_db: {float(snr):g} dB gives")
        assert "|snr| <= 3000 dB" in err and err.count("\n") == 1
        assert trials == [] and not out.exists()

    def test_sigma_z2_past_the_limit_exits_2_before_any_trial(self, tmp_path, capsys,
                                                              monkeypatch):
        # 2e307: srh-na's relaxation (sigma2 + sigma_z2) * P overflows and its
        # estimate is 0/0
        trials = []
        monkeypatch.setattr(harness, "run_trial", lambda *a: trials.append(a))
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("trials = 2\nsigma-z2 = 2e307\n"
                        f"estimator = {', '.join(ESTIMATOR_CHOICES)}\n")
        out = tmp_path / "res.csv"
        assert main(["simulate", "--config", str(cfgf), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ddlf: {cfgf}:2: sigma_z2: ") and "1e+300" in err
        assert err.count("\n") == 1
        assert trials == [] and not out.exists()

    @pytest.mark.parametrize("values", ["1,,2", "", "1,", " , 2"])
    def test_empty_sweep_value_is_an_empty_list_item(self, tmp_path, capsys, values):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("trials = 1\nsnr = 15\nestimator = srh\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfgf), "--axis", "velocity",
                     "--values", values, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ddlf: --values: expected a comma list without empty items")
        assert not out.exists()

    def test_fractional_pilots_value_names_the_flag_and_the_axis(self, tmp_path, capsys):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("trials = 1\nsnr = 15\nestimator = srh\n")
        assert main(["sweep", "--config", str(cfgf), "--axis", "pilots", "--values", "1,1.5",
                     "--out", str(tmp_path / "sweep.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ddlf: --values: pilots: pilots per row must be a whole number")

    def test_bad_snr_value_names_the_flag_and_the_axis_once(self, tmp_path, capsys):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("trials = 1\nsnr = 15\nestimator = srh\n")
        assert main(["sweep", "--config", str(cfgf), "--axis", "snr", "--values", "10,5000",
                     "--out", str(tmp_path / "sweep.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ddlf: --values: snr: 5000 dB gives") and "snr_db" not in err

    def test_sweep_axis_overrides_a_bad_base_value(self, tmp_path):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("trials = 1\nsnr = 15\nestimator = srh\nvelocity = 20000\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfgf), "--axis", "velocity",
                     "--values", "100", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2

    @pytest.mark.parametrize("threads", ["two", "0", "-3"])
    def test_bad_threads_exit_2_before_any_trial(self, tmp_path, capsys, monkeypatch, threads):
        trials = []
        monkeypatch.setattr(harness, "run_trial", lambda *a: trials.append(a))
        monkeypatch.setenv("DDLF_THREADS", threads)
        out = tmp_path / "res.csv"
        assert main(["simulate", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"ddlf: DDLF_THREADS: expected a positive integer, got {threads!r}\n"
        assert trials == [] and not out.exists()

    @pytest.mark.parametrize("text, line, keys", [
        ("data-shape = 4x16\npilots-per-row = 1\ntf-product = 2\ntau-max = 0\n"
         "estimator = srh, perfect\nsnr = 30\ntrials = 3\nseed = 1\n", 2,
         "pilots_per_row, estimators"),
        ("data-shape = 2x16\npilots-per-row = 1\nestimator = srh\ntf-product = 2\n", 2,
         "pilots_per_row, estimators"),
        ("data-shape = 16x15\npilots-per-row = 1\nvelocity = 0.05\nestimator = srh-ma\n", 4,
         "estimators, tau_max, velocity"),
        ("data-shape = 2x2\npilots-per-row = 1\ncoding = true\ntf-product = 2\n"
         "tau-max = 0\nestimator = perfect\n", 3, "coding, m_data, n_data"),
        # the ambiguity table of this box would need more nodes than its cap
        ("estimator = perfect\ntau-max = 1e-9\nnu-max = 2e6\ndata-shape = 64x62\n"
         "pilots-per-row = 2\n", 2, "tau_max, nu_max"),
    ])
    def test_set_up_failure_exits_2_before_any_trial(self, tmp_path, capsys, monkeypatch,
                                                      text, line, keys):
        trials = []
        monkeypatch.delenv("DDLF_THREADS", raising=False)
        monkeypatch.setattr(harness, "run_trial", lambda *a: trials.append(a))
        cfgf = tmp_path / "bad.cfg"
        cfgf.write_text(text)
        out = tmp_path / "res.csv"
        assert main(["simulate", "--config", str(cfgf), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ddlf: {cfgf}:{line}: {keys}: ")
        assert err.count("\n") == 1
        assert trials == [] and not out.exists()

    @pytest.mark.parametrize("text, line, keys", [
        # 5.47 MHz of Doppler at fs = 5 MHz: the shifts alias
        ("estimator = perfect\ntau-max = 1e-9\nvelocity = 1e6\n", 3, "velocity, bandwidth"),
        ("estimator = perfect\ntau-max = 1e-9\nnu-max = 5e6\n", 3, "nu_max, bandwidth"),
        ("data-shape = 4x16\npilots-per-row = 2\nbandwidth = 1000\ntau-max = 1e-6\n"
         "velocity = 5000\nestimator = srh-ma\ntf-product = 2\n", 5, "velocity, bandwidth"),
    ])
    def test_doppler_spread_that_aliases_exits_2_before_any_trial(self, tmp_path, capsys,
                                                                  monkeypatch, text, line, keys):
        trials = []
        monkeypatch.delenv("DDLF_THREADS", raising=False)
        monkeypatch.setattr(harness, "run_trial", lambda *a: trials.append(a))
        cfgf = tmp_path / "alias.cfg"
        cfgf.write_text(text)
        out = tmp_path / "res.csv"
        assert main(["simulate", "--config", str(cfgf), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ddlf: {cfgf}:{line}: {keys}: ")
        assert "not below half the sampling rate" in err and err.count("\n") == 1
        assert trials == [] and not out.exists()

    def test_failed_build_on_a_later_run_exits_2_before_any_trial(self, tmp_path, capsys,
                                                                    monkeypatch):
        # each pilot count has its own random precoder, so the points form two
        # runs; the second point's mode-aware SRH build fails at this velocity
        trials = []
        monkeypatch.delenv("DDLF_THREADS", raising=False)
        monkeypatch.setattr(harness, "run_trial", lambda *a: trials.append(a))
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("data-shape = 16x14\npilots-per-row = 2\nprecoder = random\n"
                        "estimator = srh-ma, perfect\nvelocity = 0.05\ntrials = 20\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfgf), "--axis", "pilots", "--values", "2,1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ddlf: {cfgf}:4: estimators, tau_max, velocity: srh-ma: ")
        assert err.count("\n") == 1
        assert trials == [] and not out.exists()


class TestOutputFiles:
    @pytest.mark.parametrize("argv, name", [
        (["simulate"], "results.csv"),
        (["sweep", "--axis", "velocity", "--values", "100"], "sweep.csv"),
        (["place-pilots", "--data-shape", "8x6", "--pilots-per-row", "1"], "pilots.csv"),
        (["ambiguity", "--frame", "8x8", "--steps", "3"], "ambiguity.csv"),
    ])
    def test_default_out(self, tmp_path, monkeypatch, argv, name):
        # simulate and sweep share their other flags, but not the --out default
        monkeypatch.setattr(harness, "run_sweep", lambda cfg, axis, values: [])
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        assert [p.name for p in tmp_path.iterdir()] == [name]

    @pytest.mark.parametrize("argv", [["simulate"],
                                      ["sweep", "--axis", "snr", "--values", "10"]])
    def test_unwritable_out_exits_2_before_any_trial(self, tmp_path, capsys, monkeypatch,
                                                      argv):
        trials = []
        monkeypatch.setattr(harness, "run_trial", lambda *a: trials.append(a))
        monkeypatch.delenv("DDLF_THREADS", raising=False)
        out = tmp_path / "missing" / "x.csv"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ddlf: ") and "No such file or directory" in err
        assert str(out) in err and err.count("\n") == 1
        assert trials == [] and not out.parent.exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        cfgf = tmp_path / "missing.cfg"
        out = tmp_path / "res.csv"
        assert main(["simulate", "--config", str(cfgf), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ddlf: ") and "No such file or directory" in err
        assert str(cfgf) in err and err.count("\n") == 1
        assert not out.exists()

    def test_rejected_config_keeps_an_existing_out(self, tmp_path, capsys):
        cfgf = tmp_path / "bad.cfg"
        cfgf.write_text("trials = 0\n")
        out = tmp_path / "res.csv"
        out.write_text("earlier results\n")
        assert main(["simulate", "--config", str(cfgf), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"ddlf: {cfgf}:1: trials: ")
        assert out.read_text() == "earlier results\n"

    def test_underdetermined_lmmse_warning_names_its_keys(self, tmp_path):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("data-shape = 8x7\ntrials = 1\nsnr = 10\nestimator = lmmse\n")
        src = os.path.dirname(os.path.dirname(harness.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env.update(DDLF_THREADS="1", PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "ddlf.cli", "simulate", "--config", str(cfgf),
                               "--out", str(tmp_path / "res.csv")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr == (
            "ddlf: warning: reconstruction grid has 30 cells (recon_q, recon_w, recon_wn) "
            "but only 8 pilots (pilots_per_row); the fit is underdetermined and relies on "
            "the ridge term\n")

    def test_underdetermined_lmmse_warns_once_across_workers(self, tmp_path):
        # a subprocess, because pytest's warning capture would hide the workers'
        # stderr; 30 grid cells against 8 pilots
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("data-shape = 8x7\ntrials = 2\nsnr = 10\nestimator = lmmse, perfect\n")
        src = os.path.dirname(os.path.dirname(harness.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env.update(DDLF_THREADS="2", PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "ddlf.cli", "sweep", "--config", str(cfgf),
                               "--axis", "velocity", "--values", "50,100,150",
                               "--out", str(tmp_path / "sweep.csv")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        warned = [ln for ln in done.stderr.splitlines() if "reconstruction grid has" in ln]
        assert len(warned) == 1, done.stderr
