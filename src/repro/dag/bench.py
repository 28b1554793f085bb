"""The ISSUE-6 DAG serving benchmark: monolithic vs stage-pipelined.

One seeded mixed-fleet scenario, six arms:

- ``monolithic_diagnosis`` / ``dag_diagnosis`` — a diagnosis-only
  stream (no monitoring re-reads).  Stage-pipelining *loses* here by
  design: the DAG arm honestly pays weight-swap, activation-transfer,
  and post-processing costs that a fused pipeline never sees.
- ``monolithic_monitoring_cold`` / ``dag_monitoring_cold`` — the
  paper's monitoring scenario (§1: repeat scans tracking progression).
  Monitoring re-reads bypass the result cache (the radiologist wants a
  fresh read), so the monolithic arm re-runs the full pipeline for
  them; the DAG arm enters at ``classify`` through the intermediate
  artifact cache.  This is the headline throughput claim.
- ``monolithic_monitoring_warm`` / ``dag_monitoring_warm`` — the same
  stream replayed on the same engine (artifact + result caches warm).
  The warm DAG arm's stage-completion counts are the skip proof: only
  ``classify`` batches run.

Simulated time is modelled, so arm timings are deterministic — no
repeats needed.  Functional parity is *measured*: a small workload is
run through both modes with full verification on one shared
reduced-scale framework, and per-request predictions must match
exactly, and probabilities must agree at the ulp tier of their dtype
(:func:`repro.backend.precision.allclose_ulp`) — batch composition
differs between modes, so float reassociation inside
``diagnose_batch`` can move the last few ulps.

``repro bench dag`` / ``benchmarks/bench_serving_dag.py`` write the
payload to ``BENCH_dag.json`` and exit nonzero when any gate fails.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.backend.precision import ULP_RTOL, allclose_ulp
from repro.benchrunner import host_info
from repro.serve import ServingEngine, make_workload

__all__ = ["run_dag_bench", "format_dag_summary"]

#: The benchmark scenario (chosen so the monitoring arms are robustly
#: past the DAG's swap/transfer overhead across seeds).
SCENARIO = dict(n=200, rate_per_s=24.0, seed=3, dup_fraction=0.15,
                monitor_fraction=0.5, fleet="mixed", policy="perf-aware",
                artifact_cache_mb=16384.0)


def _engine(mode: str, **over) -> ServingEngine:
    kw = dict(fleet=SCENARIO["fleet"], policy=SCENARIO["policy"],
              queue_capacity=10 ** 6)
    if mode == "dag":
        kw["artifact_cache_mb"] = SCENARIO["artifact_cache_mb"]
    kw.update(over)
    return ServingEngine(mode=mode, **kw)


def _arm(summary: Dict[str, object]) -> Dict[str, object]:
    """The per-arm subset of a serving summary the payload records."""
    keys = ("completed", "throughput_rps", "latency_p50_s", "latency_p95_s",
            "cache_hits", "mode", "model_swaps", "stages_skipped",
            "artifact_entries", "stage_completions")
    out = {k: summary[k] for k in keys}
    if "artifact_cache" in summary:
        out["artifact_hit_rate"] = round(
            summary["artifact_cache"]["hit_rate"], 4)
    return out


def _parity(quick: bool) -> Dict[str, object]:
    """Run one workload through both modes with full verification."""
    n = 8 if quick else 12
    requests = make_workload(n, rate_per_s=4.0, seed=5, dup_fraction=0.2)
    framework = None
    by_mode: Dict[str, Dict[int, object]] = {}
    for mode in ("monolithic", "dag"):
        eng = _engine(mode, verify_batches=10 ** 9, framework=framework)
        framework = eng.verifier.framework  # share: same weights, threshold
        report = eng.run(requests)
        by_mode[mode] = {r.request.request_id: r.result
                        for r in report.completed}
    mono, dag = by_mode["monolithic"], by_mode["dag"]
    compared = sorted(set(mono) & set(dag))
    predictions_match = set(mono) == set(dag)
    pairs = []
    for rid in compared:
        a, b = mono[rid], dag[rid]
        if a is None or b is None:
            predictions_match = predictions_match and a is b
            continue
        predictions_match = predictions_match and a.prediction == b.prediction
        pairs.append((a.probability, b.probability))
    # Probabilities keep the classifier's dtype, so the tolerance is the
    # ulp tier of that dtype (rtol 1e-9 at float64, 1e-4 at float32).
    p_mono = np.array([a for a, _ in pairs])
    p_dag = np.array([b for _, b in pairs])
    max_delta = float(np.max(np.abs(p_mono - p_dag))) if pairs else 0.0
    ok = bool(predictions_match and allclose_ulp(p_mono, p_dag))
    return {"requests": n, "compared": len(compared),
            "predictions_match": predictions_match,
            "max_prob_delta": max_delta, "dtype": p_mono.dtype.name,
            "tolerance": ULP_RTOL[p_mono.dtype.name], "ok": ok}


def run_dag_bench(quick: bool = False,
                  parity: Optional[bool] = None) -> Dict[str, object]:
    """Run all six arms + the functional-parity check; returns payload.

    ``quick`` shrinks only the parity workload — the serving arms are
    discrete-event simulations and already run in well under a second.
    Pass ``parity=False`` to skip the (real-pipeline, slow) parity run
    entirely, e.g. from tests that cover parity separately.
    """
    diag = make_workload(SCENARIO["n"], rate_per_s=SCENARIO["rate_per_s"],
                         seed=SCENARIO["seed"],
                         dup_fraction=SCENARIO["dup_fraction"])
    monitoring = make_workload(SCENARIO["n"],
                               rate_per_s=SCENARIO["rate_per_s"],
                               seed=SCENARIO["seed"],
                               dup_fraction=SCENARIO["dup_fraction"],
                               monitor_fraction=SCENARIO["monitor_fraction"])
    arms: Dict[str, Dict[str, object]] = {}
    for mode in ("monolithic", "dag"):
        arms[f"{mode}_diagnosis"] = _arm(_engine(mode).run(diag).summary())
        eng = _engine(mode)
        arms[f"{mode}_monitoring_cold"] = _arm(eng.run(monitoring).summary())
        arms[f"{mode}_monitoring_warm"] = _arm(eng.run(monitoring).summary())

    def tput(name: str) -> float:
        return float(arms[name]["throughput_rps"])

    warm = arms["dag_monitoring_warm"]
    headline = {
        "throughput_monitoring_cold": {
            "monolithic": tput("monolithic_monitoring_cold"),
            "dag": tput("dag_monitoring_cold"),
            "speedup": round(tput("dag_monitoring_cold")
                             / tput("monolithic_monitoring_cold"), 4),
        },
        "throughput_monitoring_warm": {
            "monolithic": tput("monolithic_monitoring_warm"),
            "dag": tput("dag_monitoring_warm"),
            "speedup": round(tput("dag_monitoring_warm")
                             / tput("monolithic_monitoring_warm"), 4),
        },
        "dag_overhead_diagnosis": round(
            tput("dag_diagnosis") / tput("monolithic_diagnosis"), 4),
        "dag_wins_monitoring": tput("dag_monitoring_cold")
        > tput("monolithic_monitoring_cold"),
        # Skip proof: on the warm replay every pipeline request enters
        # at classify — no enhance/segment batch ever runs.
        "warm_skips_enhance_segment": (
            set(warm["stage_completions"]) == {"classify"}
            and warm["stages_skipped"] > 0),
    }
    parity_block = (_parity(quick) if parity or parity is None
                    else {"skipped": True, "ok": True})
    return {
        "bench": "serving_dag",
        "quick": bool(quick),
        "scenario": dict(SCENARIO),
        "host": host_info(),
        "arms": arms,
        "headline": headline,
        "parity": parity_block,
        "parity_ok": bool(parity_block["ok"]),
        "gates_ok": bool(parity_block["ok"]
                         and headline["dag_wins_monitoring"]
                         and headline["warm_skips_enhance_segment"]),
    }


def format_dag_summary(payload: Dict[str, object]) -> str:
    """Human-readable one-screen summary of a DAG benchmark payload."""
    s = payload["scenario"]
    h = payload["headline"]
    lines = [
        f"serving-dag benchmark ({'quick' if payload['quick'] else 'full'}; "
        f"{s['n']} req @ {s['rate_per_s']:g}/s, fleet={s['fleet']}, "
        f"monitor_fraction={s['monitor_fraction']:g})",
    ]
    for name, arm in payload["arms"].items():
        lines.append(f"  {name}: {arm['throughput_rps']:.2f} req/s "
                     f"(p95 {arm['latency_p95_s']:.2f}s, "
                     f"skipped={arm['stages_skipped']}, "
                     f"swaps={arm['model_swaps']})")
    cold = h["throughput_monitoring_cold"]
    warm = h["throughput_monitoring_warm"]
    lines += [
        f"  monitoring cold: dag x{cold['speedup']:.2f} vs monolithic "
        f"(win={h['dag_wins_monitoring']})",
        f"  monitoring warm: dag x{warm['speedup']:.2f} vs monolithic; "
        f"skips enhance+segment={h['warm_skips_enhance_segment']}",
        f"  diagnosis-only dag/monolithic: "
        f"x{h['dag_overhead_diagnosis']:.2f} (overhead arm)",
    ]
    p = payload["parity"]
    if p.get("skipped"):
        lines.append("  parity: skipped")
    else:
        lines.append(f"  parity: predictions_match={p['predictions_match']}, "
                     f"max_prob_delta={p['max_prob_delta']:.2e} "
                     f"(rtol {p['tolerance']:.0e}, {p['dtype']})")
    lines.append(f"  gates_ok={payload['gates_ok']}")
    return "\n".join(lines)
