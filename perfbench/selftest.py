"""Self-test of the benchmark itself; not part of the ddlf test suite.

    python3 perfbench/selftest.py

Takes about half a minute. It checks that BENCHMARK.json names exactly the
metrics and workloads the code reports; that the gate passes each pinned
reference and rejects a perturbed copy, naming the row; that the tracer puts
back every attribute it wrapped; and, with a tiny-trial smoke sweep of every
workload, that traced and untraced sweeps give the same rows, spans nest
(children inside their parent, self time >= 0), two traced sweeps give
identical call counts, and the predicted zeros hold. Last, a full sweep at the
reference seed must pass the real reference and fail a perturbed one.
Exits non-zero on the first failed check.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))

TINY_TRIALS = {"desk-snr": 1, "paper-srh": 1, "mid-random-velocity": 2}  # 2: the pool runs


def reference(name: str) -> str:
    return (run.HERE / "reference" / f"{name}.csv").read_text()


def edit_cell(text: str, rows, column: str, value) -> str:
    """The CSV with ``value(old)`` in ``column`` of the given data rows."""
    lines = text.splitlines()
    col = lines[0].split(",").index(column)
    for row in ([rows] if isinstance(rows, int) else rows):
        cells = lines[row + 1].split(",")
        cells[col] = str(value(cells[col]))
        lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def check_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in workloads.WORKLOADS.values()}


def check_gate():
    for name in workloads.WORKLOADS:
        ref = reference(name)
        assert gate.check(ref, ref, True) == []
        bad = edit_cell(ref, 1, "mse_db_mean", lambda v: float(v) * (1 + 1e-4))
        problems = gate.check(bad, ref, True)
        assert [i for i, _ in problems] == [1] and "row 1 (" in problems[0][1], problems
        assert gate.check(bad, ref, False) == []
        for column, value in (("nmsed_db_mean", "nan"), ("uncoded_ber_mean", 1.5),
                              ("estimator", "srh-x")):
            problems = gate.check(edit_cell(ref, 0, column, lambda v: value), ref, False)
            assert [i for i, _ in problems] == [0], (column, problems)
        assert gate.check(ref.rsplit("\n", 2)[0] + "\n", ref, False)[0][0] is None


def check_restore():
    import importlib
    owners = [importlib.import_module(f"ddlf.{layer}") for layer in spans.LAYERS]
    owners.append(importlib.import_module("ddlf.transforms").Precoder)

    def snapshot():
        return [(owner, attr, value) for owner in owners for attr, value in vars(owner).items()]

    before = snapshot()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert any(a[2] is not b[2] for a, b in zip(snapshot(), before))
    finally:
        tracer.uninstall()
    after = snapshot()
    assert len(after) == len(before)
    assert all(a[1] == b[1] and a[2] is b[2] for a, b in zip(after, before))


def check_nesting(recorded: list[list]):
    by_id = {s[spans.ID]: s for s in recorded}
    eps = 1e-9
    for s in recorded:
        parent = by_id.get(s[spans.PARENT])
        if s[spans.PARENT] is not None:
            assert parent is not None, f"{s[spans.NAME]} has an unknown parent"
            assert parent[spans.START] - eps <= s[spans.START] <= s[spans.END] \
                <= parent[spans.END] + eps, f"{s[spans.NAME]} leaves {parent[spans.NAME]}"
    assert min(spans.self_times(recorded).values()) >= -eps


def sweep(name: str, seed: int, trials: int | None, traced: bool) -> dict:
    args = ["--workload", name, "--seed", str(seed)]
    args += (["--trials", str(trials)] if trials else []) + (["--trace"] if traced else [])
    result, err = run.run_child(args, run.LIMIT_S)
    assert result is not None and not result["error"], (result and result["error"]) or err
    return result


def check_smoke(name: str):
    wl = workloads.WORKLOADS[name]
    trials = TINY_TRIALS[name]
    plain = sweep(name, 7, trials, False)
    ref = reference(name)
    ref = edit_cell(ref, range(ref.count("\n") - 1), "trials", lambda v: trials)
    assert gate.check(plain["csv"], ref, False) == [], name
    counts = []
    for _ in range(2):
        traced = sweep(name, 7, trials, True)
        assert traced["csv"] == plain["csv"], f"{name}: tracing changed the rows"
        check_nesting(traced["spans"])
        counts.append(Counter(s[spans.NAME] for s in traced["spans"]))
    assert counts[0] == counts[1], f"{name}: call counts differ: {counts[0] - counts[1]}"
    assert counts[0]["harness.run_trial"] == plain["trials"]
    m = spans.span_metrics(traced["spans"], 1, wl.threads)
    assert set(m) == {n for n, _ in spans.PER_LAYER} - {
        "setup.import_s", "setup.first_trial_s", "trace.overhead_frac"}
    if name == "mid-random-velocity":
        assert m["channel.self_interference_power.calls_per_trial"] == 0
        assert m["link.conv_code_decode_hard.ms_per_trial"] == 0
        assert m["link.conv_code_encode.ms_per_trial"] == 0
    else:
        assert m["transforms.Precoder.ms_per_trial"] < 0.1, m["transforms.Precoder.ms_per_trial"]
    print(f"  {name}: {plain['trials']} trials, {sum(counts[0].values())} spans per traced sweep")


def check_reference_sweep():
    ref = reference("desk-snr")
    result = sweep("desk-snr", workloads.DEFAULT_SEED, None, False)
    assert gate.check(result["csv"], ref, True) == []
    bad = edit_cell(ref, 4, "nmsed_db_mean", lambda v: float(v) + 1e-3)
    problems = gate.check(result["csv"], bad, True)
    assert [i for i, _ in problems] == [4] and "estimator=srh-mna" in problems[0][1], problems


def main() -> int:
    checks = [("BENCHMARK.json matches the code", check_benchmark_json),
              ("gate accepts references and rejects perturbed ones", check_gate),
              ("tracer restores wrapped attributes", check_restore),
              *((f"smoke {name}", lambda name=name: check_smoke(name))
                for name in workloads.WORKLOADS),
              ("reference-seed sweep passes, perturbed reference fails",
               check_reference_sweep)]
    for label, fn in checks:
        print(label)
        fn()
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
