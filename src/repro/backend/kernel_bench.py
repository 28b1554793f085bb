"""Microbenchmark every registered kernel op on every backend.

Produces ``BENCH_kernels.json`` (repo root by convention), the kernel
sibling of ``BENCH_hotpaths.json``: same timing discipline (median-of-k
after warmup via :func:`repro.parallel.hotpath_bench.median_seconds`),
same host metadata, and a per-backend parity record per op at the tier
:mod:`repro.backend.precision` assigns — ``fast`` must agree with
``reference`` within the dtype-aware ulp tolerance — re-proven on every
run.  A reduced-precision arm runs the DDnet enhancement forward with
int8-quantized weights and checks MS-SSIM/PSNR against the float64
reference output and the
:data:`repro.backend.precision.PRECISION_FLOORS`.  The payload also
embeds one fresh :class:`repro.backend.calibrate.KernelCalibration`
*per benched backend*, so per-backend service-time coefficients ship
with the timings they came from.

CI runs ``repro bench kernels --quick --backends reference,fast``
as a perf smoke test and fails the job when any parity tier or
precision floor is violated (``gate_ok``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend.precision import (
    PRECISION_FLOORS,
    allclose_ulp,
    bit_identical,
    check_floors,
    ms_ssim,
    psnr,
    tier_for,
)
from repro.backend.registry import dispatch, known_backends, known_ops

#: Parity baseline and speedup denominator; always benched even when a
#: ``backends`` selection omits it.
BASELINE_BACKEND = "reference"

#: Scans per serving batch in the conv-family workloads — the batched
#: multi-scan ops exist to amortize work across exactly this dimension.
SERVING_BATCH = 4


def _op_workloads(size: int, rng: np.random.Generator,
                  batch: int = SERVING_BATCH,
                  ) -> Dict[str, Tuple[Dict, Callable[[str], object]]]:
    """Per-op ``(params, run(backend))`` at the given spatial size.

    Covers every registered op with DDnet-shaped 2D workloads: the conv
    family uses the paper's 5×5 stride-1 kernels at a serving batch so
    the FFT path is exercised (≥25 taps), and the fused/batched ops run
    their Fig. 9 / multi-scan shapes.  The 3D paths share the same N-d
    kernels, so 2D timing is representative while keeping quick mode
    fast.
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
    scans = [rng.standard_normal((c, size, size)) for _ in range(batch)]
    # The weight-gradient op consumes a saved im2col buffer; build it
    # once on the baseline backend so every backend sees identical input.
    _, cols, _ = dispatch("conv", x, w, None, 1, k // 2, want_cols=True,
                          backend=BASELINE_BACKEND)
    g = rng.standard_normal((batch, c, size, size))
    # Quantize inputs: the conv weight itself (per-output-channel axis).
    q_ref, scale_ref = dispatch("quantize_linear", w, 0,
                                backend=BASELINE_BACKEND)
    up_shape = (batch, c, 2 * size, 2 * size)
    shape = {"input": list(x.shape), "weight": list(w.shape)}
    elementwise = {"input": list(x.shape)}
    return {
        "conv": (shape, lambda b: dispatch(
            "conv", x, w, bias, 1, k // 2, want_cols=False, backend=b)),
        "deconv": (shape, lambda b: dispatch(
            "deconv", x, w, x.shape, (1, 1), (k // 2, k // 2), backend=b)),
        "conv_weight_grad": (shape, lambda b: dispatch(
            "conv_weight_grad", cols, g, w.shape, backend=b)),
        "conv_bias_act": (shape, lambda b: dispatch(
            "conv_bias_act", x, w, bias, 1, k // 2, 0.01, backend=b)),
        "unpool_deconv": (
            {"input": list(x.shape), "weight": list(w.shape), "scale": 2},
            lambda b: dispatch("unpool_deconv", x, w, up_shape, 2,
                               (1, 1), (k // 2, k // 2), backend=b)),
        "conv_batch": (
            {"scans": [list(scans[0].shape)] * batch, "weight": list(w.shape)},
            lambda b: dispatch("conv_batch", scans, w, bias, 1, k // 2,
                               0.01, backend=b)),
        "maxpool": (elementwise, lambda b: dispatch(
            "maxpool", x, 2, 2, 0, want_indices=True, backend=b)),
        "avgpool": (elementwise, lambda b: dispatch(
            "avgpool", x, 2, 2, 0, backend=b)),
        "unpool": (elementwise, lambda b: dispatch("unpool", x, 2, backend=b)),
        "leaky_relu": (elementwise, lambda b: dispatch(
            "leaky_relu", x, 0.01, backend=b)),
        "relu": (elementwise, lambda b: dispatch("relu", x, backend=b)),
        "batchnorm": (elementwise, lambda b: dispatch(
            "batchnorm", x, mean, var, gamma, beta, 1e-5, backend=b)),
        "quantize_linear": (
            {"input": list(w.shape), "axis": 0},
            lambda b: dispatch("quantize_linear", w, 0, backend=b)),
        "dequantize_linear": (
            {"input": list(q_ref.shape)},
            lambda b: dispatch("dequantize_linear", q_ref, scale_ref,
                               np.float32, backend=b)),
    }


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


def _small_ddnet(rng_seed: int = 0):
    from repro.models.ddnet import DDnet

    return DDnet(base_channels=4, growth=4, num_blocks=2, layers_per_block=2,
                 global_shortcuts=False, rng=np.random.default_rng(rng_seed))


def _precision_arm(quick: bool, repeats: int) -> Dict:
    """Reduced-precision enhancement parity: int8 vs float64.

    Runs the same seeded small DDnet forward (fused decoder path) twice
    — float64 weights, then int8-quantized weights — and scores the
    int8 output against the float64 arm with the Fig. 8 metrics.
    """
    from repro.nn.quantize import quantize_module
    from repro.parallel.hotpath_bench import median_seconds
    from repro.tensor.tensor import Tensor, no_grad

    size = 32 if quick else 64
    rng = np.random.default_rng(7)
    image = rng.uniform(0.0, 1.0, (1, 1, size, size))

    with no_grad():
        ref_model = _small_ddnet()
        y_ref = ref_model(Tensor(image)).data[0, 0]
        ref_t = median_seconds(
            lambda: ref_model(Tensor(image)), repeats)

        int8_model = _small_ddnet()
        quantized = quantize_module(int8_model)
        y8 = int8_model(Tensor(image)).data
        int8_t = median_seconds(lambda: int8_model(Tensor(image)), repeats)

    out = np.asarray(y8, dtype=np.float64)[0, 0]
    metrics = {"ms_ssim": ms_ssim(y_ref, out), "psnr_db": psnr(y_ref, out)}
    flags = check_floors("int8", metrics)
    int8 = {
        "metrics": metrics,
        "floors": dict(PRECISION_FLOORS["int8"]),
        "floor_checks": flags,
        "ok": all(flags.values()),
        "median_s": int8_t["median_s"],
        "quantized_params": quantized,
    }
    return {
        "image_size": size,
        "reference_median_s": ref_t["median_s"],
        "modes": {"int8": int8},
        "ok": int8["ok"],
    }


def run_kernel_bench(
    quick: bool = False,
    repeats: Optional[int] = None,
    size: Optional[int] = None,
    with_calibration: bool = True,
    with_precision: bool = True,
    backends: Optional[Sequence[str]] = None,
) -> Dict:
    """Time every registered op on the selected backends.

    ``backends`` defaults to every registered backend; the baseline
    (``reference``) is always included because parity and speedups are
    defined against it.  ``quick`` shrinks the workload and repeats for
    CI smoke runs; the parity-tier checks are identical in both modes.
    """
    import os
    import platform

    from repro.backend.calibrate import calibrate_host
    from repro.parallel.hotpath_bench import median_seconds

    if repeats is None:
        repeats = 2 if quick else 3
    if size is None:
        size = 24 if quick else 64
    bench_backends = _resolve_backends(backends)
    missing = sorted(set(known_ops()) - set(_op_workloads(4, np.random.default_rng(0))))
    if missing:
        raise RuntimeError(f"kernel bench has no workload for ops: {missing}")

    rng = np.random.default_rng(0)
    workloads = _op_workloads(size, rng)
    ops: Dict[str, Dict] = {}
    for op in known_ops():
        params, run = workloads[op]
        baseline = run(BASELINE_BACKEND)
        entry: Dict = {"params": dict(params), "parity": {}}
        for backend in bench_backends:
            if backend not in known_backends(op):
                continue
            if backend != BASELINE_BACKEND:
                tier = tier_for(backend)
                result = run(backend)
                ok = (bit_identical(baseline, result) if tier == "bit"
                      else allclose_ulp(baseline, result))
                entry["parity"][backend] = {"tier": tier, "ok": bool(ok)}
            entry[backend] = median_seconds(lambda b=backend: run(b), repeats)
        ref_s = entry[BASELINE_BACKEND]["median_s"]
        entry["speedups"] = {
            b: ref_s / entry[b]["median_s"]
            for b in bench_backends if b in entry and b != BASELINE_BACKEND
        }
        ops[op] = entry

    parity_ok = all(p["ok"] for e in ops.values() for p in e["parity"].values())
    payload: Dict = {
        "bench": "kernels",
        "schema": 3,
        "quick": quick,
        "backends": list(bench_backends),
        "baseline": BASELINE_BACKEND,
        "workload_size": size,
        "serving_batch": SERVING_BATCH,
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "ops": ops,
        "speedup_matrix": {op: dict(e["speedups"]) for op, e in ops.items()},
        "parity_ok": parity_ok,
    }
    if with_precision:
        payload["precision"] = _precision_arm(quick, repeats)
    payload["precision_ok"] = payload.get("precision", {}).get("ok", True)
    payload["gate_ok"] = bool(parity_ok and payload["precision_ok"])
    if with_calibration:
        payload["calibrations"] = {}
        for backend in bench_backends:
            cal = calibrate_host(sizes=(16, 32) if quick else (32, 64, 96),
                                 repeats=repeats, backend=backend)
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
        speed = ", ".join(f"{b} x{s:.2f}" for b, s in e["speedups"].items())
        parity = ", ".join(
            f"{b}:{p['tier']}{'✓' if p['ok'] else '✗'}"
            for b, p in e["parity"].items())
        lines.append(
            f"  {op}: {', '.join(parts)} ({speed or 'n/a'}; {parity or 'n/a'})")
    if "precision" in payload:
        for mode, m in payload["precision"]["modes"].items():
            met = m["metrics"]
            lines.append(
                f"  precision[{mode}]: ms_ssim={met['ms_ssim']:.4f} "
                f"psnr={met['psnr_db']:.1f}dB "
                f"({'ok' if m['ok'] else 'FLOOR VIOLATION'})")
    for backend, cal in payload.get("calibrations", {}).items():
        lines.append(f"  calibration[{backend}]: host={cal['host']!r}")
    lines.append(f"  parity_ok={payload['parity_ok']} "
                 f"precision_ok={payload['precision_ok']} "
                 f"gate_ok={payload['gate_ok']}")
    return "\n".join(lines)
