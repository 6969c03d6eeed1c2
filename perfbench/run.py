"""ddlf benchmark: seeded sweeps through the public harness API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

ddlf is imported from ``src/`` next to this directory. For ``--seconds`` the
run alternates two kinds of fresh interpreter: set-up probes, which import
ddlf, build the config and finish the first trial of the first sweep point
(``setup_s``, ``SETUP_PROBES`` of them), and whole sweeps of the workload,
the k-th at master seed ``workloads.sweep_seed(seed, k)``. With
``--trace 1`` every second sweep is traced (perfbench/spans.py) and the
per-layer metrics are reported instead of the end-to-end ones. Then one
untimed sweep runs at the reference seed. perfbench/gate.py checks every
sweep's result CSV: values against the pinned reference at the reference
seed, invariants at other seeds. Trials of a sweep point whose rows fail
count as failed.

Readable lines and an ``env`` line go to stdout before the last line, a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The full
record goes to ``.perfbench/`` in the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

SETUP_PROBES = 5
MIN_SWEEPS = 3          # of each kind (untraced, traced) in a run
BUDGET_S = 120          # start no further sweep after this many seconds
LIMIT_S = 170           # kill what still runs after this; a run must end within 180 s

# (name, unit) of every end-to-end metric
END_TO_END = (("trials_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("ok_frac", "frac"))


def run_child(args: list[str], timeout: float) -> tuple[dict | None, str]:
    """Run rep.py in its own session; return its JSON line (None if absent) and stderr."""
    proc = subprocess.Popen([sys.executable, str(HERE / "rep.py"), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the sweep and its pool workers
        out, err = proc.communicate()
        err += f"\nkilled after {timeout:.0f} s\n"
    try:
        return json.loads(out.strip().splitlines()[-1]), err
    except (IndexError, json.JSONDecodeError):
        return None, err


def setup_probe(wl: workloads.Workload, seed: int, timeout: float) -> dict | None:
    t0 = time.monotonic()
    result, err = run_child(["--workload", wl.name, "--seed", str(seed), "--setup", repr(t0)],
                            timeout)
    if result is None:
        sys.stderr.write(f"set-up probe failed:\n{err}")
    return result


def sweep(wl: workloads.Workload, seed: int, traced: bool, timeout: float) -> dict:
    t0 = time.monotonic()
    result, err = run_child(["--workload", wl.name, "--seed", str(seed)]
                            + (["--trace"] if traced else []), timeout)
    rec = result or {"error": err or "no result", "trials": wl.trials}
    if rec.get("error"):
        sys.stderr.write(f"sweep at seed {seed} failed:\n{rec['error']}\n{err[-2000:]}")
    rec.update(seed=seed, traced=traced, wall_s=time.monotonic() - t0)
    return rec


def failed_trials(rec: dict, wl: workloads.Workload, reference: str) -> tuple[int, list[str]]:
    """Trials of ``rec`` that did not finish with rows passing the gate, and why."""
    if rec.get("error") or "csv" not in rec:
        return rec["trials"], ["the sweep did not finish"]
    problems = gate.check(rec["csv"], reference, rec["seed"] == workloads.DEFAULT_SEED)
    if rec["traced"]:
        traced = sum(1 for s in rec["spans"] if s[spans.NAME] == "harness.run_trial")
        if traced != rec["trials"]:
            problems.append((None, f"{traced} run_trial spans for {rec['trials']} trials"))
    if any(i is None for i, _ in problems):
        return rec["trials"], [msg for _, msg in problems]
    per_point = rec["trials"] // len(wl.values)
    points = {i // len(wl.config["estimators"]) for i, _ in problems}
    return per_point * len(points), [msg for _, msg in problems]


def source_id() -> dict:
    """Digest of the ddlf sources, and the git commit when the checkout has one."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ddlf").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        ref = ROOT / ".git" / commit.removeprefix("ref: ")
        if commit.startswith("ref: ") and ref.is_file():
            commit = ref.read_text().strip()
    return {"src_sha256": digest.hexdigest(), "git_commit": commit}


def throughput(recs: list[dict]) -> float:
    """Trials per second of run_sweep time, over sweeps of differing work."""
    return sum(r["trials"] for r in recs) / sum(r["sweep_s"] for r in recs)


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.6g}, quartiles {q1:.6g}..{q3:.6g}, n={len(values)}"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "ddlf" / "__init__.py").is_file():
        sys.stderr.write(f"no ddlf sources under {ROOT / 'src'}\n")
        return 2
    wl = workloads.WORKLOADS[args.workload]
    reference = (HERE / "reference" / f"{wl.name}.csv").read_text()
    t_start = time.monotonic()

    def left() -> float:
        return max(1.0, t_start + LIMIT_S - time.monotonic())

    setups, recs = [], []
    # set-up probes interleave with the first sweeps, so both sample the whole window
    while time.monotonic() - t_start < BUDGET_S:
        k = len(recs)
        seed = workloads.sweep_seed(args.seed, k)
        if k < SETUP_PROBES and (probe := setup_probe(wl, seed, left())):
            setups.append(probe)
        recs.append(sweep(wl, seed, bool(args.trace) and k % 2 == 1, left()))
        if k + 1 >= max(SETUP_PROBES, MIN_SWEEPS * (1 + args.trace)) \
                and time.monotonic() + recs[-1]["wall_s"] > t_start + args.seconds:
            break
    # untimed; the only sweep whose values can be compared with the reference
    anchor = sweep(wl, workloads.DEFAULT_SEED, False, left())

    attempted = failed = 0
    for k, rec in enumerate(recs + [anchor]):
        n, problems = failed_trials(rec, wl, reference)
        attempted += rec["trials"]
        failed += n
        where = "reference-seed sweep" if rec is anchor else f"sweep {k}"
        for msg in problems[:20]:
            sys.stderr.write(f"{wl.name} {where} (seed {rec['seed']}): {msg}\n")

    done = [r for r in recs if "sweep_s" in r]
    plain = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    if not setups or not plain or (args.trace and not traced):
        sys.stderr.write("no measurement: every set-up probe or sweep failed\n")
        return 1

    setup_s = [s["setup_s"] for s in setups]
    if args.trace:
        metrics = spans.span_metrics([s for r in traced for s in r["spans"]],
                                     len(traced), wl.threads)
        metrics["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
        metrics["setup.first_trial_s"] = statistics.median(s["first_trial_s"] for s in setups)
        metrics["trace.overhead_frac"] = throughput(plain) / throughput(traced) - 1
        units = dict(spans.PER_LAYER)
    else:
        metrics = {
            "trials_per_s": throughput(plain),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": max(r["rss_kb"] for r in done) / 1024,
            "ok_frac": 1 - failed / attempted,
        }
        units = dict(END_TO_END)

    env = {**done[0]["env"], **source_id(), "workload": wl.name, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace}
    print(f"{wl.name} seed {args.seed}: {len(done)} sweeps of {wl.trials} trials "
          f"({len(traced)} traced) in {time.monotonic() - t_start:.1f} s, "
          f"{len(setups)} set-up probes")
    rates = [r["trials"] / r["sweep_s"] for r in plain]
    print(f"  per-sweep trials/s, untraced: {quartiles(rates)}")
    print(f"  setup_s: {quartiles(setup_s)}")
    print(f"  fail_frac {failed / attempted:.6g} ({failed} of {attempted} trials)")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print("env " + json.dumps(env))

    OUT.mkdir(exist_ok=True)
    record = {"env": env, "setups": setups, "metrics": metrics,
              "sweeps": [{k: v for k, v in r.items() if k != "spans"} for r in recs + [anchor]]}
    (OUT / f"{wl.name}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        with open(OUT / f"{wl.name}-spans.jsonl", "w") as fh:
            for k, r in enumerate(traced):
                for s in r["spans"]:
                    fh.write(json.dumps(dict(zip(
                        ("id", "parent", "name", "start", "end", "trial", "attrs"), s),
                        sweep=k)) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": units[n]}
                                  for n, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
