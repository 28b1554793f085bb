"""Microbenchmark every registered kernel op on every backend.

Produces ``BENCH_kernels.json`` (repo root by convention), the kernel
sibling of ``BENCH_hotpaths.json``: the same host metadata, medians
after a warmup, and a per-backend parity record per op at the tier
:mod:`repro.backend.precision` assigns — ``fast`` must agree with
``reference`` within the dtype-aware ulp tolerance — re-proven on every
run.  The payload also embeds one fresh
:class:`repro.backend.calibrate.KernelCalibration` *per benched
backend*, so per-backend service-time coefficients ship with the
timings they came from.

CI runs ``benchmarks/perf/bench_kernels.py --quick --backends
reference,fast`` as a perf smoke test and fails the job when any
parity tier is violated (``parity_ok``).
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend.precision import meets_tier, tier_for
from repro.backend.registry import dispatch, known_backends, known_ops
from repro.benchrunner import host_info
from repro.tensor import no_grad

#: Parity baseline and speedup denominator; always benched even when a
#: ``backends`` selection omits it.
BASELINE_BACKEND = "reference"

#: Batch of the conv-family workloads: the serving batch, where the FFT
#: kernels amortize their filter transforms.
SERVING_BATCH = 4


def _op_workloads(size: int, rng: np.random.Generator,
                  batch: int = SERVING_BATCH,
                  ) -> Dict[str, Tuple[Dict, Callable[[str], object]]]:
    """Per-workload ``(params, run(backend))`` at the given spatial size.

    Covers every registered op with DDnet-shaped 2D workloads: the conv
    family uses the paper's 5×5 stride-1 kernels at a serving batch so
    the FFT path is exercised (≥25 taps), and the fused decoder pair
    runs its Fig. 9 shape.  Each workload is named after its op, except
    ``maxpool_inference``: ``maxpool`` times the training path (argmax
    indices, 2/2/0), which no diagnosis takes, and ``maxpool_inference``
    the path every pool of a diagnosis takes (no indices, DDnet's 3/2/1
    window), and the two conv shapes ``fast`` routes off the FFT, at
    DDnet's sizes whatever ``size``: ``conv_pointwise`` (a 1×1 conv,
    one channel GEMM) and ``conv_stem`` (the one-channel 7×7 stem, on
    ``reference``).  ``params["op"]`` names the op.  The 3D paths share
    the same N-d kernels, so 2D timing is representative while keeping
    quick mode fast.
    """
    c = 8
    k = 5
    x = rng.standard_normal((batch, c, size, size))
    w = rng.standard_normal((c, c, k, k))
    bias = rng.standard_normal(c)
    mean = rng.standard_normal(c)
    var = rng.uniform(0.5, 2.0, c)
    gamma = rng.standard_normal(c)
    beta = rng.standard_normal(c)
    # The weight-gradient op consumes a saved im2col buffer; build it
    # once on the baseline backend so every backend sees identical input.
    _, cols, _ = dispatch("conv", x, w, None, 1, k // 2, want_cols=True,
                          backend=BASELINE_BACKEND)
    g = rng.standard_normal((batch, c, size, size))
    up_shape = (batch, c, 2 * size, 2 * size)
    x_pw = rng.standard_normal((8, 64, 32, 32))
    w_pw = rng.standard_normal((64, 64, 1, 1))
    x_stem = rng.standard_normal((8, 1, 64, 64))
    w_stem = rng.standard_normal((16, 1, 7, 7))
    shape = {"input": list(x.shape), "weight": list(w.shape)}
    elementwise = {"input": list(x.shape)}
    workloads = {
        "conv": (shape, lambda b: dispatch(
            "conv", x, w, bias, 1, k // 2, want_cols=False, backend=b)),
        "conv_pointwise": (
            {"op": "conv", "input": list(x_pw.shape), "weight": list(w_pw.shape)},
            lambda b: dispatch("conv", x_pw, w_pw, None, 1, 0, want_cols=False,
                               backend=b)),
        "conv_stem": (
            {"op": "conv", "input": list(x_stem.shape), "weight": list(w_stem.shape)},
            lambda b: dispatch("conv", x_stem, w_stem, None, 1, 3, want_cols=False,
                               backend=b)),
        "deconv": (shape, lambda b: dispatch(
            "deconv", x, w, x.shape, (1, 1), (k // 2, k // 2), backend=b)),
        "conv_weight_grad": (shape, lambda b: dispatch(
            "conv_weight_grad", cols, g, w.shape, backend=b)),
        "unpool_deconv": (
            {"input": list(x.shape), "weight": list(w.shape), "scale": 2},
            lambda b: dispatch("unpool_deconv", x, w, up_shape, 2,
                               (1, 1), (k // 2, k // 2), backend=b)),
        "maxpool": ({**elementwise, "window": [2, 2, 0], "want_indices": True},
                    lambda b: dispatch("maxpool", x, 2, 2, 0, want_indices=True,
                                       backend=b)),
        "maxpool_inference": (
            {**elementwise, "op": "maxpool", "window": [3, 2, 1], "want_indices": False},
            lambda b: dispatch("maxpool", x, 3, 2, 1, want_indices=False, backend=b)),
        "avgpool": (elementwise, lambda b: dispatch(
            "avgpool", x, 2, 2, 0, backend=b)),
        "unpool": (elementwise, lambda b: dispatch("unpool", x, 2, backend=b)),
        "leaky_relu": (elementwise, lambda b: dispatch(
            "leaky_relu", x, 0.01, backend=b)),
        "relu": (elementwise, lambda b: dispatch("relu", x, backend=b)),
        "batchnorm": (elementwise, lambda b: dispatch(
            "batchnorm", x, mean, var, gamma, beta, 1e-5, backend=b)),
    }
    return {name: ({"op": name, **params}, run)
            for name, (params, run) in workloads.items()}


def _resolve_backends(backends: Optional[Sequence[str]]) -> List[str]:
    """Validate a backend selection; baseline is always included first."""
    known = known_backends()
    if backends is None:
        selected = list(known)
    else:
        selected = [str(b) for b in backends]
        unknown = sorted(set(selected) - set(known))
        if unknown:
            raise ValueError(
                f"unknown backends {unknown}; registered: {known}")
    ordered = [BASELINE_BACKEND]
    ordered += [b for b in selected if b != BASELINE_BACKEND]
    return ordered


def _interleaved_seconds(runs: Dict[str, Callable[[], object]], repeats: int,
                         ) -> Tuple[Dict[str, Dict], Dict[str, List[float]]]:
    """Time every call in ``runs`` once per round, ``repeats`` rounds,
    after one warmup round.

    One round times each backend back to back, so a change in the
    host's speed (a neighbour, a CPU state) lands on every backend of
    that round rather than on whichever was timed during it.  Returns
    each backend's median/min/max and its per-round times.
    """
    for run in runs.values():
        run()
    times: Dict[str, List[float]] = {b: [] for b in runs}
    for _ in range(repeats):
        for b, run in runs.items():
            t0 = time.perf_counter()
            run()
            times[b].append(time.perf_counter() - t0)
    stats = {b: {"median_s": statistics.median(ts), "min_s": min(ts),
                 "max_s": max(ts), "repeats": repeats}
             for b, ts in times.items()}
    return stats, times


def run_kernel_bench(
    quick: bool = False,
    repeats: Optional[int] = None,
    size: Optional[int] = None,
    with_calibration: bool = True,
    backends: Optional[Sequence[str]] = None,
) -> Dict:
    """Time every registered op on the selected backends.

    ``backends`` defaults to every registered backend; the baseline
    (``reference``) is always included because parity and speedups are
    defined against it.  Every op runs under ``no_grad``, as a diagnosis
    runs it (under autograd ``fast`` sends deconvolutions to
    ``reference``).  Backends are timed in turn within each of
    ``repeats`` rounds; a speedup is the median of the rounds' paired
    ratios, and ``speedup_spread`` holds their quartiles, so a speedup
    whose spread covers 1.0 is not told from noise.  The payload's
    ``host`` record carries the core count the speedups were measured
    on.  ``quick`` shrinks the workload and repeats for CI smoke runs;
    the parity-tier checks are identical in both modes.
    """
    from repro.backend.calibrate import calibrate_host

    if repeats is None:
        repeats = 3 if quick else 25
    if size is None:
        size = 24 if quick else 64
    bench_backends = _resolve_backends(backends)
    rng = np.random.default_rng(0)
    workloads = _op_workloads(size, rng)
    missing = sorted(set(known_ops()) - set(workloads))
    if missing:
        raise RuntimeError(f"kernel bench has no workload for ops: {missing}")

    ops: Dict[str, Dict] = {}
    with no_grad():
        for name, (params, run) in sorted(workloads.items()):
            op = params["op"]
            baseline = run(BASELINE_BACKEND)
            entry: Dict = {"params": dict(params), "parity": {}}
            timed = [b for b in bench_backends if b in known_backends(op)]
            for backend in timed:
                if backend != BASELINE_BACKEND:
                    tier = tier_for(backend)
                    ok = meets_tier(tier, baseline, run(backend))
                    entry["parity"][backend] = {"tier": tier, "ok": bool(ok)}
            stats, times = _interleaved_seconds(
                {b: (lambda b=b: run(b)) for b in timed}, repeats)
            entry.update(stats)
            entry["speedups"], entry["speedup_spread"] = {}, {}
            for b in timed:
                if b == BASELINE_BACKEND:
                    continue
                # Each round's own ratio pairs two times taken moments
                # apart; the ratios' quartiles are the speedup's noise.
                ratios = [r / t for r, t in zip(times[BASELINE_BACKEND], times[b])]
                q1, q2, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                              if len(ratios) > 1 else ratios * 3)
                entry["speedups"][b] = q2
                entry["speedup_spread"][b] = [q1, q3]
            ops[name] = entry

    parity_ok = all(p["ok"] for e in ops.values() for p in e["parity"].values())
    payload: Dict = {
        "bench": "kernels",
        "schema": 7,
        "quick": quick,
        "backends": list(bench_backends),
        "baseline": BASELINE_BACKEND,
        "workload_size": size,
        "serving_batch": SERVING_BATCH,
        "host": host_info(),
        "ops": ops,
        "speedup_matrix": {op: dict(e["speedups"]) for op, e in ops.items()},
        "parity_ok": parity_ok,
    }
    if with_calibration:
        payload["calibrations"] = {}
        for backend in bench_backends:
            cal = calibrate_host(sizes=(16, 32) if quick else (32, 64, 96),
                                 repeats=2 if quick else 3, backend=backend)
            payload["calibrations"][backend] = cal.to_dict()
    return payload


def format_kernel_summary(payload: Dict) -> str:
    """Human-readable one-screen summary of a kernel-bench payload."""
    lines = [
        f"kernel benchmark ({'quick' if payload['quick'] else 'full'}; "
        f"size={payload['workload_size']}, batch={payload.get('serving_batch')}, "
        f"cpu_count={payload['host']['cpu_count']}, "
        f"backends={','.join(payload['backends'])})",
    ]
    for op, e in sorted(payload["ops"].items()):
        parts = [f"{b} {e[b]['median_s'] * 1e3:.3f}ms"
                 for b in payload["backends"] if b in e]
        speed = ", ".join("{} x{:.2f} [{:.2f}, {:.2f}]".format(
            b, s, *e["speedup_spread"][b]) for b, s in e["speedups"].items())
        parity = ", ".join(
            f"{b}:{p['tier']}{'✓' if p['ok'] else '✗'}"
            for b, p in e["parity"].items())
        lines.append(
            f"  {op}: {', '.join(parts)} ({speed or 'n/a'}; {parity or 'n/a'})")
    for backend, cal in payload.get("calibrations", {}).items():
        lines.append(f"  calibration[{backend}]: host={cal['host']!r}")
    lines.append(f"  parity_ok={payload['parity_ok']}")
    return "\n".join(lines)
