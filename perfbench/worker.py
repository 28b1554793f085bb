"""One benchmark process: set up a workload, time it, check it.

Started by ``run.py`` with the BLAS/OpenMP thread pools already pinned
in its environment, so NumPy loads single-threaded.  Prints one JSON
object on its last stdout line.  The process stays on the vCPU it
started on, so its operations and its calibration rounds (see
``hostspeed.py``) run on the same one.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import time

import hostspeed


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it is not found."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def traced(workload, i):
    """Whether operation ``i`` of a traced run is traced: whole input
    cycles alternate, so traced and untraced operations see equal mixes."""
    return ((i - workload.warmup_ops) // workload.cycle) % 2 == 0


#: Calibration time run after each operation, as a share of its time.
CALIBRATION_SHARE = 0.2
#: Calibration time run right before and right after set-up, each.
SETUP_CALIBRATION_S = 0.5


def pin_to_current_cpu():
    """Keep this process on the vCPU it is running on."""
    with open("/proc/self/stat") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})
    return cpu


def timed_loop(workload, seconds, trace):
    """Run operations until ``seconds`` have passed, then to the end of
    the cycle.  After each operation, untimed, calibration rounds run for
    a fifth of its time.  Returns ``(times, units, errors, rounds, tracer)``
    where ``rounds[i]`` are the round times after operation ``i``.
    """
    from repro.backend import trace_dispatches

    from tracer import EntryPoints, Tracer

    tracer = entry_points = None
    if trace:
        tracer = Tracer()
        entry_points = EntryPoints(tracer)
    block = workload.cycle * (2 if trace else 1)
    times, units, errors, rounds = {}, {}, {}, {}
    i = workload.warmup_ops
    start = time.perf_counter()
    while True:
        if trace and traced(workload, i):
            entry_points.install()
            try:
                with trace_dispatches(tracer):
                    wall = tracer.wall_s
                    out = tracer.operation(workload.run, i)
                    times[i] = tracer.wall_s - wall
            finally:
                entry_points.uninstall()
        else:
            t0 = time.perf_counter()
            out = workload.run(i)
            times[i] = time.perf_counter() - t0
        units[i] = workload.units(out)
        rounds[i] = hostspeed.run_for(CALIBRATION_SHARE * times[i], workload.calibration)
        problems = workload.check(i, out)
        if problems:
            errors[i] = "; ".join(problems)
        del out  # so it is not held alive through the next operation
        i += 1
        if (time.perf_counter() - start >= seconds
                and (i - workload.warmup_ops) % block == 0):
            return times, units, errors, rounds, tracer


def normalised(workload, times, units, rounds):
    """Throughput and median latency on the reference host, and the wall
    clock figures, from operation times and the rounds after each one."""
    kernels = workload.calibration
    speed = hostspeed.speed([r for block in rounds.values() for r in block], kernels)
    # The host's state changes within seconds, so each operation is scaled
    # by the rounds just before and just after it before taking the median.
    scaled = {i: t * hostspeed.speed(rounds.get(i - 1, []) + rounds[i], kernels)
              for i, t in times.items()}
    wall = {"throughput_per_s": sum(units.values()) / sum(times.values()),
            "latency_p50_s": workload.latency(times), "host_speed": speed}
    return wall["throughput_per_s"] / speed, workload.latency(scaled), wall


def trace_metrics(workload, times, units, tracer):
    """Per-layer metrics of a traced run, ``{name: (value, unit)}``."""
    metrics = tracer.metrics()
    metrics.update(workload.layer_counts())
    on = [i for i in times if traced(workload, i)]
    off = [i for i in times if not traced(workload, i)]
    rate_on = sum(units[i] for i in on) / sum(times[i] for i in on)
    rate_off = sum(units[i] for i in off) / sum(times[i] for i in off)
    metrics["trace.traced_ops"] = (len(on), "count")
    metrics["trace.traced_throughput_per_s"] = (rate_on, "1/s")
    metrics["trace.untraced_throughput_per_s"] = (rate_off, "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (rate_off / rate_on - 1.0), "%")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the inputs (smoke tests only)")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report when it ended")
    args = parser.parse_args(argv)

    import numpy as np

    from workloads import WORKLOADS

    cpu = pin_to_current_cpu()
    # Set-up: the workload's imports of the program, model construction,
    # input generation and the warm-up operations, between two blocks of
    # calibration rounds.
    kernels = WORKLOADS[args.workload].calibration
    before = hostspeed.run_for(SETUP_CALIBRATION_S, kernels)
    t0 = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    errors = {}
    for i in range(workload.warmup_ops):
        problems = workload.check(i, workload.run(i))
        if problems:
            errors[i] = "; ".join(problems)
    setup_wall_s = time.perf_counter() - t0
    after = hostspeed.run_for(SETUP_CALIBRATION_S, kernels)
    result = {"setup_wall_s": setup_wall_s,
              "setup_s": setup_wall_s * hostspeed.speed(before + after, kernels)}
    if not args.setup_only:
        times, units, timed_errors, rounds, tracer = timed_loop(
            workload, args.seconds, args.trace)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errors.update(timed_errors)
        errors.update(workload.verify())
        throughput, latency, result["wall"] = normalised(workload, times, units, rounds)
        if args.trace:
            metrics = trace_metrics(workload, times, units, tracer)
            metrics["host.speed"] = (result["wall"]["host_speed"], "ratio")
        else:
            metrics = {
                "throughput_per_s": (throughput, "1/s"),
                "latency_p50_s": (latency, "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        result.update({
            "attempted": workload.warmup_ops + len(times),
            "failed": len(errors),
            "errors": [f"op {i}: {msg}" for i, msg in sorted(errors.items())][:10],
            "timed_ops": len(times),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
            "host": {"blas_threads": blas_threads(), "cpu": cpu, "numpy": np.__version__,
                     "python": platform.python_version()},
        })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
