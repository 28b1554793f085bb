"""Perf-regression harness for the three `repro.parallel` hot paths.

Times, serial vs. parallel (median-of-k with warmup, worker-count
sweep):

1. low-dose dataset simulation (:func:`repro.data.make_enhancement_pairs`
   with the full §3.1.2 physics chain),
2. batch inference (:meth:`ComputeCovid19Plus.score_batch`),
3. float32 inference, the framework default, against an explicit
   float64 copy (:meth:`ComputeCovid19Plus.to_dtype`).

Alongside every timing it re-checks the correctness contract — parallel
results bit-identical to serial, float32 probabilities within tolerance
of float64 — and the JSON it writes (``BENCH_hotpaths.json`` at the
repo root by convention) records ``host.cpu_count`` so a reader can
judge the speedup numbers: on a single-core container the fan-out
cannot beat serial and the figures honestly say so, while the parity
flags still guard the contract that *does* transfer across hosts.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.benchrunner import host_info

DEFAULT_WORKERS: Sequence[int] = (1, 2, 4)

#: Float32 probabilities may drift from float64 by accumulated rounding;
#: §5.2 reports accuracies to three decimals, so 1e-4 is conservative.
FLOAT32_PROB_TOL = 1e-4


def median_seconds(fn: Callable[[], object], repeats: int, warmup: int = 1) -> Dict:
    """Median wall time of ``fn`` over ``repeats`` runs after ``warmup``.

    Warmup runs are discarded and the median is reported with its
    min/max spread; the kernel bench reports the same record, from
    backends timed in turn within each round.
    """
    for _ in range(warmup):
        fn()
    times: List[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return {
        "median_s": statistics.median(times),
        "min_s": min(times),
        "max_s": max(times),
        "repeats": repeats,
    }


def _bench_dataset_simulation(workers: Iterable[int], repeats: int,
                              num_pairs: int, size: int) -> Dict:
    """Hot path 1: §3.1.2 low-dose pair simulation over shared memory."""
    from repro.data import make_enhancement_pairs

    def run(w: int):
        return make_enhancement_pairs(
            num_pairs, size=size, physics=True,
            rng=np.random.default_rng(0), workers=w)

    ref_lows, ref_fulls = run(1)
    result: Dict = {
        "params": {"num_pairs": num_pairs, "size": size, "physics": True},
        "serial": median_seconds(lambda: run(1), repeats),
        "workers": {},
        "parity_ok": True,
    }
    serial_s = result["serial"]["median_s"]
    for w in workers:
        if w <= 1:
            continue
        lows, fulls = run(w)
        parity = (np.array_equal(ref_lows, lows)
                  and np.array_equal(ref_fulls, fulls))
        timing = median_seconds(lambda: run(w), repeats)
        timing["speedup"] = serial_s / timing["median_s"]
        timing["bit_identical_to_serial"] = parity
        result["workers"][str(w)] = timing
        result["parity_ok"] &= parity
    return result


def _bench_batch_scoring(workers: Iterable[int], repeats: int,
                         num_volumes: int, size: int, num_slices: int) -> Dict:
    """Hot path 2: data-parallel ``score_batch`` with warm replicas."""
    from repro.data import chest_volume
    from repro.pipeline import ComputeCovid19Plus

    framework = ComputeCovid19Plus()
    volumes = [
        chest_volume(size, num_slices, covid=bool(i % 2),
                     rng=np.random.default_rng(100 + i))
        for i in range(num_volumes)
    ]

    ref = framework.score_batch(volumes)
    result: Dict = {
        "params": {"num_volumes": num_volumes, "size": size,
                   "num_slices": num_slices},
        "serial": median_seconds(lambda: framework.score_batch(volumes), repeats),
        "workers": {},
        "parity_ok": True,
    }
    serial_s = result["serial"]["median_s"]
    for w in workers:
        if w <= 1:
            continue
        parity = np.array_equal(ref, framework.score_batch(volumes, workers=w))
        timing = median_seconds(
            lambda: framework.score_batch(volumes, workers=w), repeats)
        timing["speedup"] = serial_s / timing["median_s"]
        timing["bit_identical_to_serial"] = parity
        result["workers"][str(w)] = timing
        result["parity_ok"] &= parity
    return result


def _bench_float32_inference(repeats: int, size: int, num_slices: int) -> Dict:
    """Hot path 3: float32 inference (the framework default) vs float64."""
    from repro.data import chest_volume
    from repro.pipeline import ClassificationAI, ComputeCovid19Plus, EnhancementAI

    volume = chest_volume(size, num_slices, rng=np.random.default_rng(3))
    enhancement, classification = EnhancementAI(), ClassificationAI()
    weights = [t.model.state_dict() for t in (enhancement, classification)]
    framework = ComputeCovid19Plus(enhancement=enhancement,
                                   classification=classification)
    # The constructor rounded the weights to float32; the float64 arm
    # runs the unrounded originals, as a float64-trained model would.
    for tool, state in zip((enhancement, classification), weights):
        tool.model.load_state_dict(state)
    prob64 = framework.diagnose(volume).probability
    assert prob64.dtype == np.float64, "the float64 arm must infer in float64"
    t64 = median_seconds(lambda: framework.diagnose(volume), repeats)
    framework.to_dtype(np.float32)
    prob32 = framework.diagnose(volume).probability
    assert prob32.dtype == np.float32, "the float32 arm must infer in float32"
    t32 = median_seconds(lambda: framework.diagnose(volume), repeats)
    delta = float(abs(prob64 - prob32))
    return {
        "params": {"size": size, "num_slices": num_slices},
        "float64": t64,
        "float32": t32,
        "speedup": t64["median_s"] / t32["median_s"],
        "prob_delta": delta,
        "parity_ok": bool(delta <= FLOAT32_PROB_TOL),
    }


def run_hotpath_bench(
    quick: bool = False,
    workers: Sequence[int] = DEFAULT_WORKERS,
    repeats: Optional[int] = None,
) -> Dict:
    """Run all three hot-path benchmarks; returns the JSON-ready payload.

    ``quick`` shrinks problem sizes and repeats for CI smoke runs; the
    parity checks are identical in both modes.
    """
    if repeats is None:
        repeats = 2 if quick else 3
    if quick:
        sim = dict(num_pairs=6, size=32)
        score = dict(num_volumes=4, size=16, num_slices=16)
        fp32 = dict(size=16, num_slices=16)
    else:
        sim = dict(num_pairs=16, size=48)
        score = dict(num_volumes=8, size=16, num_slices=16)
        fp32 = dict(size=32, num_slices=16)

    paths = {
        "dataset_simulation": _bench_dataset_simulation(workers, repeats, **sim),
        "batch_scoring": _bench_batch_scoring(workers, repeats, **score),
        "float32_inference": _bench_float32_inference(repeats, **fp32),
    }
    return {
        "bench": "hotpaths",
        "schema": 1,
        "quick": quick,
        "workers_swept": [int(w) for w in workers],
        "host": host_info(),
        "paths": paths,
        "parity_ok": all(p["parity_ok"] for p in paths.values()),
    }


def write_bench_json(path: str, payload: Dict) -> None:
    """Write the benchmark payload as pretty-printed JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def format_bench_summary(payload: Dict) -> str:
    """Human-readable one-screen summary of a benchmark payload."""
    lines = [
        f"hot-path benchmark ({'quick' if payload['quick'] else 'full'}; "
        f"cpu_count={payload['host']['cpu_count']})",
    ]
    for name in ("dataset_simulation", "batch_scoring"):
        p = payload["paths"][name]
        lines.append(f"  {name}: serial {p['serial']['median_s']:.3f}s")
        for w, t in sorted(p["workers"].items(), key=lambda kv: int(kv[0])):
            lines.append(
                f"    workers={w}: {t['median_s']:.3f}s "
                f"(x{t['speedup']:.2f}, bit-identical={t['bit_identical_to_serial']})")
    f = payload["paths"]["float32_inference"]
    lines.append(
        f"  float32_inference: fp64 {f['float64']['median_s']:.3f}s, "
        f"fp32 {f['float32']['median_s']:.3f}s (x{f['speedup']:.2f}, "
        f"prob_delta={f['prob_delta']:.2e})")
    lines.append(f"  parity_ok={payload['parity_ok']}")
    return "\n".join(lines)
