"""gridmpnn benchmark: one workload per run, metrics as one JSON line.

    python3 benchmarks/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from the repository root. ``--trace 0`` sets up three times, then
repeats the workload's operation for about ``--seconds`` seconds
and reports the end-to-end metrics; ``--trace 1`` sets up once with
every layer wrapped, repeats the operation untraced for half the time,
repeats the same operations traced and reports the per-layer metrics.
The last line of standard output is the result; the exit code is 1 when
a correctness check fails. ``--smoke`` swaps in a tiny world.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: on two shared cores extra
# BLAS threads swing matmul times several-fold.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HASH_SEED = "0"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
N_SETUPS = 3  # setup_s is the median of this many set-ups

END_TO_END = {  # name -> unit
    "items_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny world and one epoch, for the self-test")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for path in sorted(glob.glob(os.path.join(SRC, "gridmpnn", "*.py"))):
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)
    return {"blas_threads": THREADS,
            "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "src_lines": src_lines}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(wl, budget_s: float, check_outputs: bool, count=None):
    """Run ops 0, 1, ... until the next one would overrun the budget of
    timed seconds (always at least one), or exactly ``count`` ops."""
    results = []
    spent = 0.0
    while True:
        r = wl.op(len(results), check_outputs)
        results.append(r)
        spent += r.wall
        if count is not None:
            if len(results) >= count:
                return results
        elif spent + statistics.median(x.wall for x in results) > budget_s:
            return results


def untraced(wl, seconds: float, env: dict) -> dict:
    setups = []
    for _ in range(N_SETUPS):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    wl.check_setup()
    results = run_ops(wl, seconds, check_outputs=True)
    latencies = [x for r in results for x in r.latencies_ms]
    metrics = {
        "items_per_s": sum(r.items for r in results) / sum(r.wall for r in results),
        "op_ms_p50": statistics.median(latencies),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setups),
    }
    named = {wl.aliases.get(k, k): (v, END_TO_END[k]) for k, v in metrics.items()}
    named.update(wl.extras())
    print(json.dumps({"env": env}))
    print(json.dumps({"workload": wl.name, "ops": len(results),
                      "latency_samples": len(latencies), "setups_s": setups,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in named.items()}}))
    return {"metrics": {k: {"value": v, "unit": END_TO_END[k]}
                        for k, v in metrics.items()},
            "attempted": sum(r.attempted for r in results),
            "failed": sum(r.failed for r in results)}


def traced(wl, seconds: float, env: dict, spans_path: str) -> dict:
    import tracing

    tr = tracing.Tracer()
    with tracing.instrumented(tr):
        wl.setup()
    wl.check_setup()
    plain = run_ops(wl, seconds / 2, check_outputs=True)
    tr.phase = "timed"
    with tracing.instrumented(tr):
        t0 = time.perf_counter()
        traced_ops = run_ops(wl, 0.0, check_outputs=False, count=len(plain))
        traced_wall = time.perf_counter() - t0
    tr.write(spans_path)
    layer = tracing.layer_metrics(tr, len(traced_ops))
    layer["trace.overhead_ratio"] = (
        sum(r.wall for r in traced_ops) / sum(r.wall for r in plain), "ratio")
    extras = wl.extras()
    for name, unit in tracing.QUALITY_UNITS.items():
        layer[name] = extras.get(name, (0.0, unit))
    print(json.dumps({"env": env}))
    print(json.dumps({"workload": wl.name, "ops": len(traced_ops),
                      "traced_wall_s": traced_wall, "spans": len(tr.spans),
                      "spans_file": os.path.relpath(spans_path, ROOT)}))
    return {"metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in layer.items()},
            "attempted": sum(r.attempted for r in plain),
            "failed": sum(r.failed for r in plain)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gridmpnn", "__init__.py")):
        print(f"error: no gridmpnn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    scale = workloads.SMOKE if args.smoke else workloads.FULL
    out_dir = os.path.join(ROOT, ".bench_out")
    workdir = os.path.join(out_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    wl = workloads.WORKLOADS[args.workload](scale, args.seed, workdir)
    env = environment()
    try:
        if args.trace:
            spans = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
            result = traced(wl, args.seconds, env, spans)
        else:
            result = untraced(wl, args.seconds, env)
    except workloads.CheckFailed as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": True, **result}))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Python-heavy parsing swings ~10% from run to run with the
        # per-process string hash seed; one fixed seed gives every run the
        # same dict and set layout.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
