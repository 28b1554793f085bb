"""Repository benchmark: low-dose diagnosis, DDnet training, mixed serving.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload diagnose_lowdose --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics instead.  Each metric is
printed by name with its unit; the last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output passed its correctness check.

The launcher imports nothing heavy.  It pins the BLAS/OpenMP pools to
one thread in the environment of every worker process, so they apply
before NumPy loads: on a small shared host a second BLAS thread measures
the neighbours' load, not this code.  ``setup_s`` is the median over
three fresh processes of their set-up time (the program's imports, model
construction, input generation, the warm-up operations).  All three
timing metrics are normalised by the host's speed, measured with
calibration rounds in the same process (``hostspeed.py``); the wall-clock
figures are printed beside them.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: Wall-clock budget of one single-workload run, under the 180 s limit.
RUN_BUDGET_S = 170.0


class BenchmarkError(Exception):
    """A worker failed or produced unusable output."""


def load_spec():
    """``BENCHMARK.json``: the workloads and the metrics with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def worker_env():
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    # Fixed string hashing, so set iteration order (and with it the work
    # done) repeats from run to run.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_worker(args, deadline, setup_only=False):
    """Run one worker process; returns its report."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{args.workload}: worker exceeded the time budget") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{args.workload}: worker exited {proc.returncode}\n"
                             f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, spec, deadline):
    """One workload end to end; returns the result object to print."""
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    runs = [run_worker(args, deadline)]
    report, metrics = runs[0], runs[0]["metrics"]
    if not args.trace:
        runs += [run_worker(args, deadline, setup_only=True)
                 for _ in range(SETUP_REPEATS - 1)]
        metrics["setup_s"] = {"value": statistics.median(r["setup_s"] for r in runs),
                              "unit": "s"}
        report["wall"]["setup_s"] = statistics.median(r["setup_wall_s"] for r in runs)
    for name, unit in declared.items():
        # Layers a workload never enters report zero.
        metrics.setdefault(name, {"value": 0.0, "unit": unit})
    for name, metric in metrics.items():
        if declared.get(name) != metric["unit"]:
            raise BenchmarkError(f"metric {name} [{metric['unit']}] is not declared "
                                 "in BENCHMARK.json")
    host = dict(report["host"], nproc=os.cpu_count(),
                cpus_allowed=len(os.sched_getaffinity(0)))
    print(f"{args.workload}: seed {args.seed}, {report['timed_ops']} timed operations, "
          f"host {json.dumps(host, sort_keys=True)}")
    print("  wall clock, not normalised: " + ", ".join(
        f"{name} {value:.6g}" for name, value in report["wall"].items()))
    for name in declared:
        print(f"  {name:34s} {metrics[name]['value']:14.6g} {metrics[name]['unit']}")
    for error in report["errors"]:
        print(f"  FAILED {error}")
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {name: metrics[name] for name in declared}}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    spec = load_spec()
    workloads = tuple(w["name"] for w in spec["workloads"])
    parser.add_argument("--workload", required=True, choices=workloads + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the inputs (smoke tests only)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)  # keep byte-compiling out of setup_s
    names = workloads if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.perf_counter() + RUN_BUDGET_S
            results[name] = run_workload(
                argparse.Namespace(**{**vars(args), "workload": name}), spec, deadline)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
