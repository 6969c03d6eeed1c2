"""Tests for the command-line interface and config parsing."""

import re
from pathlib import Path

import numpy as np
import pytest

from ddlf.cli import CONFIG_KEYS, load_config, main


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
        assert cfg.tau_max is None and cfg.omega is None and cfg.sigma_z2 == "auto"

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("bandwith = 5e6\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(str(path))

    def test_bad_value_names_file_line_and_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed = 3\ntrials = abc\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: trials:")):
            load_config(str(path))

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


class TestSimulateAndSweep:
    def test_simulate_end_to_end(self, tmp_path):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("trials = 2\nsnr = 15\nestimator = srh\n")
        out = tmp_path / "res.csv"
        assert main(["simulate", "--config", str(cfgf), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("15,")

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
