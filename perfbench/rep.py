"""One benchmark sweep, or one set-up probe, in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N [--trace] [--trials T]
    python3 perfbench/rep.py --workload NAME --seed N --setup T0

A sweep imports ddlf from ``src/``, times one ``harness.run_sweep`` call and
prints one JSON line: the sweep seconds, the result CSV, the peak resident
set of this process and its pool workers, the environment, and with
``--trace`` the recorded spans. A set-up probe times a fresh interpreter from
``T0`` (the parent's ``time.monotonic()`` just before it started this
process) through ``import ddlf`` and the first one-trial sweep of the first
sweep point.

Every sweep runs in its own process so that, as for a CLI user, no ddlf cache
is warm when the sweep starts, and pool workers forked by the harness inherit
nothing from earlier sweeps.
"""

import os

# Pin BLAS to one thread per process before numpy loads.
BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_PIN:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))  # ddlf


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        **{var: os.environ.get(var) for var in (*BLAS_PIN, "DDLF_THREADS")},
    }


def peak_rss_kb() -> int:
    """Largest resident set of this process and of its waited-for children."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def setup_probe(wl: workloads.Workload, seed: int, t0: float) -> dict:
    from ddlf import harness
    t_import = time.monotonic()
    cfg = harness.ExperimentConfig(**{**wl.config, "trials": 1}, seed=seed)
    harness.run_sweep(cfg, wl.axis, wl.values[:1])
    t_done = time.monotonic()
    return {"setup_s": t_done - t0, "import_s": t_import - t0,
            "first_trial_s": t_done - t_import}


def sweep(wl: workloads.Workload, seed: int, trace: bool, trials: int | None) -> dict:
    from ddlf import harness
    cfg = harness.ExperimentConfig(**wl.config, seed=seed)
    if trials is not None:
        cfg = dataclasses.replace(cfg, trials=trials)
    out = {"trials": cfg.trials * len(wl.values), "env": environment(), "error": None}
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    try:
        t0 = time.monotonic()
        rows = harness.run_sweep(cfg, wl.axis, wl.values)
        out["sweep_s"] = time.monotonic() - t0
        out["csv"] = harness.rows_to_csv(rows)
    except Exception:
        out["error"] = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.uninstall()
            out["spans"] = tracer.spans
    out["rss_kb"] = peak_rss_kb()
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", action="store_true", help="record spans")
    p.add_argument("--trials", type=int, help="trials per sweep point (smoke runs)")
    p.add_argument("--setup", type=float, metavar="T0", help="run a set-up probe")
    args = p.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    os.environ["DDLF_THREADS"] = str(wl.threads)
    if args.setup is not None:
        result = setup_probe(wl, args.seed, args.setup)
    else:
        result = sweep(wl, args.seed, args.trace, args.trials)
    print(json.dumps(result))
    return 1 if result.get("error") else 0


if __name__ == "__main__":
    sys.exit(main())
