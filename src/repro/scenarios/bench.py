"""The scanner-variation benchmark behind ``repro bench scenarios``.

Two arms, one payload (``BENCH_scenarios.json``):

1. **stress sweep** — :func:`repro.scenarios.run_scenario_suite` over
   the built-in :data:`~repro.scenarios.SCENARIOS`, recording per-
   scenario PSNR, lung Dice, quantification MAE, and severity-band
   accuracy against the lesion phantoms' exact masks.
2. **mixed-kind serving** — one seeded diagnosis+monitoring+quantify
   stream through the staged and DAG engines (the workload registry's
   three built-in kinds), recording per-kind SLO attainment and
   checking that the per-kind block recounts bit-identically from a
   JSONL trace round trip.

Gates (exit nonzero when any fails):

- ``quantify_error`` — reference-protocol involvement MAE within
  :data:`QUANTIFY_MAE_GATE_PP` of phantom ground truth,
- ``degradation`` — the combined worst-case scenario measurably
  degrades reconstruction versus the reference (the sweep is not a
  no-op),
- ``kind_parity`` — every served kind completes traffic in both modes
  and the per-kind summary survives the trace round trip bit-for-bit.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict

from repro.benchrunner import host_info
from repro.scenarios.suite import SCENARIOS, run_scenario_suite

__all__ = ["run_scenarios_bench", "format_scenarios_summary",
           "QUANTIFY_MAE_GATE_PP", "MIXED_KINDS"]

#: Max mean absolute percent-of-involvement error (pp) tolerated at the
#: reference protocol.  Calibration: the −600 HU threshold lands ≈ 6 pp
#: on pristine phantoms and ≈ 5-7 pp after reference-protocol FBP.
QUANTIFY_MAE_GATE_PP = 12.0

#: The three registry kinds the mixed-serving arm exercises.
MIXED_KINDS = ("diagnosis", "monitoring", "quantify")

#: Seeded mixed-traffic scenario for the serving arm.
SERVE_SCENARIO = dict(rate_per_s=12.0, seed=11, dup_fraction=0.1,
                      monitor_fraction=0.3, quantify_fraction=0.2,
                      size=32, slices=8)


def _kind_subset(block: Dict[str, object]) -> Dict[str, object]:
    keys = ("completed", "shed", "slo_violations", "slo_attainment",
            "latency_p50_s", "latency_p95_s")
    return {k: block[k] for k in keys}


def _serve_arm(mode: str, n: int) -> Dict[str, object]:
    """Run the mixed stream through one engine mode; check trace parity."""
    from repro.serve import (
        ServingEngine,
        make_workload,
        summarize,
        summarize_trace,
    )
    from repro.telemetry import export_jsonl, load_jsonl

    s = SERVE_SCENARIO
    requests = make_workload(
        n, rate_per_s=s["rate_per_s"], seed=s["seed"],
        dup_fraction=s["dup_fraction"], monitor_fraction=s["monitor_fraction"],
        quantify_fraction=s["quantify_fraction"], size=s["size"],
        slices=s["slices"])
    engine = ServingEngine(mode=mode, queue_capacity=10 ** 6,
                           workloads=MIXED_KINDS)
    summary = summarize(engine.run(requests))
    fd, path = tempfile.mkstemp(suffix=".jsonl")
    os.close(fd)
    try:
        export_jsonl(path, engine.telemetry.events)
        trace_summary = summarize_trace(load_jsonl(path))
    finally:
        os.unlink(path)
    parity = (json.dumps(summary["kinds"], sort_keys=True)
              == json.dumps(trace_summary["kinds"], sort_keys=True))
    kinds = {k: _kind_subset(v) for k, v in summary["kinds"].items()}
    served_all = all(kinds.get(k, {}).get("completed", 0) > 0
                     for k in MIXED_KINDS)
    return {"mode": mode, "requests": n,
            "throughput_rps": summary["throughput_rps"],
            "kinds": kinds, "trace_parity": bool(parity),
            "all_kinds_completed": bool(served_all)}


def run_scenarios_bench(quick: bool = False) -> Dict[str, object]:
    """Run the sweep + serving arms; returns the gated payload."""
    if quick:
        num_volumes, size, num_slices, serve_n = 2, 32, 4, 40
    else:
        num_volumes, size, num_slices, serve_n = 4, 48, 6, 150
    scores = run_scenario_suite(num_volumes=num_volumes, size=size,
                                num_slices=num_slices, seed=0)
    reference = scores["reference"]
    combined = scores["combined"]
    serve = {mode: _serve_arm(mode, serve_n) for mode in ("staged", "dag")}

    gates = {
        "quantify_error": reference.quantify_mae_pp <= QUANTIFY_MAE_GATE_PP,
        # Worst case must be measurably worse than reference or the
        # sweep is not stressing anything.
        "degradation": combined.psnr_db < reference.psnr_db
        and combined.lung_dice <= reference.lung_dice,
        "kind_parity": all(arm["trace_parity"] and arm["all_kinds_completed"]
                           for arm in serve.values()),
    }
    return {
        "bench": "scenarios",
        "quick": bool(quick),
        "config": {
            "num_volumes": num_volumes, "size": size,
            "num_slices": num_slices, "serve_requests": serve_n,
            "quantify_mae_gate_pp": QUANTIFY_MAE_GATE_PP,
            "serve_scenario": dict(SERVE_SCENARIO),
        },
        "host": host_info(),
        "scenarios": {name: score.as_dict()
                      for name, score in scores.items()},
        "sweep_axes": {s.name: {"dose_fraction": s.dose_fraction,
                                "geometry_scale": s.geometry_scale,
                                "electronic_noise_hu": s.electronic_noise_hu}
                       for s in SCENARIOS},
        "serve": serve,
        "gates": gates,
        "gates_ok": all(gates.values()),
    }


def format_scenarios_summary(payload: Dict[str, object]) -> str:
    """Human-readable one-screen summary of a scenarios payload."""
    c = payload["config"]
    lines = [
        f"scanner-variation benchmark "
        f"({'quick' if payload['quick'] else 'full'}; "
        f"{c['num_volumes']} phantoms {c['size']}x{c['num_slices']}, "
        f"{c['serve_requests']} mixed requests)",
    ]
    for name, s in payload["scenarios"].items():
        lines.append(
            f"  {name}: psnr={s['psnr_db']:.2f}dB dice={s['lung_dice']:.3f} "
            f"quantify_mae={s['quantify_mae_pp']:.2f}pp "
            f"severity_acc={s['severity_accuracy']:.2f}")
    for mode, arm in payload["serve"].items():
        kinds = ", ".join(
            f"{k}: slo={v['slo_attainment']:.3f} ({v['completed']} done)"
            for k, v in arm["kinds"].items())
        lines.append(f"  serve[{mode}]: {kinds}; "
                     f"trace_parity={arm['trace_parity']}")
    gates = payload["gates"]
    lines.append("  gates: " + ", ".join(f"{k}={v}"
                                         for k, v in gates.items()))
    lines.append(f"  gates_ok={payload['gates_ok']}")
    return "\n".join(lines)
