"""Pinned desk-scale results: every run must reproduce tests/data/golden_desk.csv.

The file covers all six estimators (the srh-na/srh-mna rows pin the
self-interference calibration), the none/dsft2d/random precoders and one coded
point. Key columns must match exactly; numeric cells within rel 1e-6 / abs
1e-9, the tolerance of the benchmark's reference gate. Regenerate it only for
a change that is meant to alter results:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import io
import math
from pathlib import Path

from ddlf.harness import ExperimentConfig, rows_to_csv, simulate

GOLDEN = Path(__file__).parent / "data" / "golden_desk.csv"
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


def _parse(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def test_matches_golden():
    want = _parse(GOLDEN.read_text())
    got = _parse(golden_csv())
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


if __name__ == "__main__":
    GOLDEN.write_text(golden_csv())
    print(f"wrote {GOLDEN}")
