"""Pinned results: every run must reproduce the CSV files in tests/data/.

golden_desk.csv covers `simulate` at desk scale: all six estimators (the
srh-na/srh-mna rows pin the self-interference calibration), the
none/dsft2d/random precoders and one coded point. golden_sweeps.csv covers the
sweep paths: a desk velocity and a desk pilots sweep with the random precoder,
and one paper-scale point (64x62 data, 2 pilots per row, 58 paths).
golden_on_grid.csv covers the on-grid channel draw (fractional = false):
all six estimators at desk scale and a desk velocity sweep with the random
precoder. Key
columns must match exactly; numeric cells within rel 1e-6 / abs 1e-9, the
tolerance of the benchmark's reference gate. Regenerate them only for a change
that is meant to alter results:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import io
import math
from pathlib import Path

from ddlf.harness import ExperimentConfig, rows_to_csv, run_sweep, simulate

GOLDEN = Path(__file__).parent / "data" / "golden_desk.csv"
GOLDEN_SWEEPS = Path(__file__).parent / "data" / "golden_sweeps.csv"
GOLDEN_ON_GRID = Path(__file__).parent / "data" / "golden_on_grid.csv"
ESTIMATORS = ("lmmse", "srh", "srh-na", "srh-ma", "srh-mna", "perfect")
KEY_COLUMNS = ("snr_db", "velocity_kmh", "pilots", "estimator", "precoder",
               "subframes", "trials")


def golden_csv() -> str:
    rows = []
    for precoder in ("none", "dsft2d", "random"):
        rows += simulate(ExperimentConfig(precoder=precoder, estimators=ESTIMATORS,
                                          trials=20))
    rows += simulate(ExperimentConfig(estimators=ESTIMATORS, trials=20,
                                      snr_db=(10.0,), coding=True))
    return rows_to_csv(rows)


def golden_sweeps_csv() -> str:
    cfg = ExperimentConfig(precoder="random", estimators=("srh-ma", "lmmse"), trials=2)
    rows = run_sweep(cfg, "velocity", [100.0, 250.0, 500.0])
    rows += run_sweep(cfg, "pilots", [1, 2, 3])
    rows += simulate(ExperimentConfig(m_data=64, n_data=62, pilots_per_row=2, scatterers=58,
                                      estimators=("lmmse", "srh-mna", "perfect"),
                                      trials=2, snr_db=(15.0,)))
    return rows_to_csv(rows)


def golden_on_grid_csv() -> str:
    rows = simulate(ExperimentConfig(fractional=False, estimators=ESTIMATORS, trials=20))
    rows += run_sweep(ExperimentConfig(fractional=False, precoder="random",
                                       estimators=("srh-ma", "perfect"), trials=2),
                      "velocity", [100.0, 500.0])
    return rows_to_csv(rows)


def _parse(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _assert_matches(golden: Path, text: str):
    want = _parse(golden.read_text())
    got = _parse(text)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert list(g) == list(w), "CSV header changed"
        for col in w:
            if col in KEY_COLUMNS or not w[col] or not g[col]:
                assert g[col] == w[col], f"row {i} column {col}"
            else:
                assert math.isclose(float(g[col]), float(w[col]),
                                    rel_tol=1e-6, abs_tol=1e-9), \
                    f"row {i} column {col}: {g[col]} != {w[col]}"


def test_matches_golden():
    _assert_matches(GOLDEN, golden_csv())


def test_sweeps_match_golden():
    _assert_matches(GOLDEN_SWEEPS, golden_sweeps_csv())


def test_on_grid_matches_golden():
    _assert_matches(GOLDEN_ON_GRID, golden_on_grid_csv())


if __name__ == "__main__":
    for path, make in ((GOLDEN, golden_csv), (GOLDEN_SWEEPS, golden_sweeps_csv),
                       (GOLDEN_ON_GRID, golden_on_grid_csv)):
        path.write_text(make())
        print(f"wrote {path}")
