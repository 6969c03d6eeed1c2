"""Correctness gate: compare a sweep's result CSV with the pinned reference.

At the reference seed every numeric cell must match the reference within
``math.isclose(rel_tol=REL_TOL, abs_tol=ABS_TOL)``: not byte for byte,
because refactors that reorder floating-point sums (FFT filterbank, batched
trials) move the last digits. At any other seed the values differ, so only
these invariants are checked against the reference: the same header, the
same rows in the same order (sweep point, estimator, precoder, trial count),
the same empty cells, finite numbers, and mean BERs in [0, 1].
"""

from __future__ import annotations

import csv
import io
import math

REL_TOL = 1e-6
ABS_TOL = 1e-9
KEY_COLUMNS = ("snr_db", "velocity_kmh", "pilots", "estimator", "precoder",
               "subframes", "trials")


def _parse(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return (rows[0], rows[1:]) if rows else ([], [])


def _same_key(got: str, want: str) -> bool:
    return got == want or _number(got) == _number(want)


def check(text: str, reference: str, match_values: bool) -> list[tuple[int | None, str]]:
    """Problems as (row index or None for the whole sweep, message naming the row).

    ``match_values`` compares every value with the reference; otherwise only
    the invariants in the module docstring are checked.
    """
    header, rows = _parse(text)
    ref_header, ref_rows = _parse(reference)
    if header != ref_header:
        return [(None, f"header {header} != reference {ref_header}")]
    if len(rows) != len(ref_rows):
        return [(None, f"{len(rows)} rows != reference {len(ref_rows)}")]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        label = "row {} ({})".format(i, ", ".join(
            f"{c}={v}" for c, v in zip(header, ref) if c in KEY_COLUMNS and v))
        for col, got, want in zip(header, row, ref):
            bad = None
            if col in KEY_COLUMNS or not want or not got:
                if not _same_key(got, want):
                    bad = "differs"
            elif not math.isfinite(value := _number(got)):
                bad = "is not a finite number"
            elif col.endswith("ber_mean") and not 0.0 <= value <= 1.0:
                bad = "is outside [0, 1]"
            elif match_values and not math.isclose(value, float(want), rel_tol=REL_TOL,
                                                   abs_tol=ABS_TOL):
                bad = "differs beyond tolerance"
            if bad:
                problems.append((i, f"{label}: {col}={got!r} {bad} (reference {want!r})"))
    return problems


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan
