"""``repro bench pandemic``: a full epidemic wave over a 3-region fleet.

Millions of simulated users — each region's SEIR wave is run at real
population scale and its case load mapped onto the request stream — hit
a 3-region fleet through one discrete-event loop.  Arms:

- ``isolated``   — no spillover, no autoscaler: each undersized region
  rides out its own wave (the baseline that sheds),
- ``spillover``  — capacity-aware routing only: hot regions borrow the
  phase-shifted quiet regions' capacity, paying WAN transfer,
- ``autoscaled`` — per-region autoscaling only: capacity follows each
  region's wave through provisioning lag, warm-up, and hysteresis,
- ``combined``   — spillover + autoscaler (the operational config;
  also run twice for the determinism gate),
- ``static_peak``— every region statically provisioned at the
  autoscaled arm's peak device count from t=0: same SLO headroom, paid
  for the whole wave (the cost baseline autoscaling beats),
- ``outage``     — the hot region's base fleet crashes mid-wave
  (scripted ``crash_times``); spillover + autoscaling route around it
  (informational, not gated — the point is the trace, not a threshold).

Plus a **capacity-planning table**: devices-per-region needed (the
autoscaled peak) across wave shapes x SLO targets, with the SLO
attainment and cost each combination achieved.

Gates (``gates_ok``):

- ``spillover_beats_isolated`` — same seed, strictly fewer misses
  (shed + SLO violations) with routing on,
- ``autoscaler_restores_slo`` — attainment under autoscaling beats the
  fixed undersized fleet and clears :data:`ATTAINMENT_TARGET`,
- ``autoscaling_cheaper_than_peak`` — autoscaled device-hour cost is
  below the static-peak fleet's at equal-or-better attainment,
- ``accounting_ok`` — the fleet trace exports to JSONL and replays
  through :func:`repro.serve.metrics.summarize_fleet_trace`
  bit-identically (SLO + cost accounting cannot drift from events),
- ``deterministic`` — two runs of the combined arm produce identical
  summaries.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, List, Optional

from repro.benchrunner import host_info
from repro.fleet.autoscale import AutoscalerConfig
from repro.fleet.engine import FleetEngine, FleetReport
from repro.fleet.region import RegionConfig
from repro.fleet.router import RouterConfig

__all__ = ["run_pandemic_bench", "format_pandemic_summary",
           "pandemic_regions", "ATTAINMENT_TARGET"]

#: SLO attainment the autoscaled fleet must clear (completed within
#: deadline / offered).
ATTAINMENT_TARGET = 0.95

#: The three regions: a hot early wave on an undersized fleet, and two
#: phase-shifted milder waves with spare capacity.  Populations are in
#: persons — the fleet really is serving multi-million-user regions.
REGION_SEEDS = dict(north=1, central=2, south=3)


def pandemic_regions(quick: bool = False, slo_deadline_s: float = 30.0,
                     r0_scale: float = 1.0,
                     static_extra: Optional[Dict[str, int]] = None,
                     ) -> List[RegionConfig]:
    """The benchmark's 3-region scenario (optionally reshaped)."""
    extra = static_extra or {}
    scale = 0.5 if quick else 1.0
    return [
        RegionConfig(
            name="north", fleet="Nvidia T4 GPU",
            r0=7.0 * r0_scale, onset_day=0, population=12e6,
            requests=int(240 * scale), seed=REGION_SEEDS["north"],
            slo_deadline_s=slo_deadline_s,
            static_extra=extra.get("north", 0)),
        RegionConfig(
            name="central", fleet="Nvidia T4 GPU,Intel Xeon Gold 6128 CPU",
            r0=5.5 * r0_scale, onset_day=30, population=8e6,
            requests=int(160 * scale), seed=REGION_SEEDS["central"],
            slo_deadline_s=slo_deadline_s,
            static_extra=extra.get("central", 0)),
        RegionConfig(
            name="south", fleet="Nvidia T4 GPU,Intel Xeon Gold 6128 CPU",
            r0=4.5 * r0_scale, onset_day=60, population=5e6,
            requests=int(100 * scale), seed=REGION_SEEDS["south"],
            slo_deadline_s=slo_deadline_s,
            static_extra=extra.get("south", 0)),
    ]


def _fleet(regions: List[RegionConfig], horizon_s: float,
           spillover: bool, autoscale: bool,
           resilience=None) -> FleetEngine:
    return FleetEngine(
        regions, horizon_s=horizon_s,
        router=RouterConfig(spillover=spillover),
        autoscaler=(AutoscalerConfig(tick_s=1.0, queue_high=0.25,
                                     scale_up_step=3, max_devices=8)
                    if autoscale else None),
        resilience=resilience,
    )


def _attainment(region_summary: Dict[str, object]) -> float:
    """Completed-within-deadline over offered for one region."""
    offered = int(region_summary["requests"])
    if offered == 0:
        return 1.0
    good = int(region_summary["completed"]) - int(
        region_summary["slo_violations"])
    return good / offered


def _arm(summary: Dict[str, object]) -> Dict[str, object]:
    """The per-arm subset of a fleet summary the payload records."""
    regions = {}
    offered = good = missed = 0
    for name, r in summary["regions"].items():
        shed = (int(r["shed_queue_full"]) + int(r["shed_timeout"])
                + int(r["shed_fault"]))
        att = _attainment(r)
        regions[name] = {
            "requests": r["requests"], "completed": r["completed"],
            "latency_p50_s": r["latency_p50_s"],
            "latency_p99_s": r["latency_p99_s"],
            "slo_violations": r["slo_violations"], "shed": shed,
            "attainment": round(att, 4),
        }
        offered += int(r["requests"])
        good += int(r["completed"]) - int(r["slo_violations"])
        missed += shed + int(r["slo_violations"])
    f = summary["fleet"]
    return {
        "regions": regions,
        "attainment": round(good / max(1, offered), 4),
        "missed": missed,
        "spillover": f["spillover"],
        "wan_bytes": f["wan_bytes"],
        "devices_provisioned": f["devices_provisioned"],
        "peak_devices": dict(f["peak_devices"]),
        "cost_total_usd": f["cost_total_usd"],
        "makespan_s": f["makespan_s"],
    }


def _accounting_gate(report: FleetReport,
                     live_summary: Dict[str, object]) -> Dict[str, object]:
    """Export → load → recount must be bit-identical to the live view."""
    from repro.serve.metrics import summarize_fleet_trace
    from repro.telemetry import export_jsonl, load_jsonl

    live = summarize_fleet_trace(report.events)
    fd, path = tempfile.mkstemp(suffix=".jsonl")
    os.close(fd)
    try:
        export_jsonl(path, report.events)
        loaded = summarize_fleet_trace(load_jsonl(path))
    finally:
        os.unlink(path)
    round_trip = json.dumps(live, sort_keys=True) == json.dumps(
        loaded, sort_keys=True)
    fleet_match = live["fleet"] == live_summary["fleet"]
    region_match = True
    for name, trace_block in live["regions"].items():
        live_block = live_summary["regions"][name]
        for key, value in trace_block.items():
            if key in live_block and live_block[key] != value:
                region_match = False
    return {"round_trip_identical": bool(round_trip),
            "fleet_block_matches_live": bool(fleet_match),
            "region_blocks_match_live": bool(region_match),
            "events": len(report.events),
            "ok": bool(round_trip and fleet_match and region_match)}


def run_pandemic_bench(quick: bool = False,
                       seed: int = 0) -> Dict[str, object]:
    """Run every arm + the capacity sweep; returns the JSON payload.

    ``seed`` offsets every region's workload seed, so CI can probe
    seed-robustness; the shipped gates are tuned for the default.
    """
    horizon = 75.0 if quick else 150.0

    def regions(**kw) -> List[RegionConfig]:
        regs = pandemic_regions(quick=quick, **kw)
        if seed:
            from dataclasses import replace

            regs = [replace(r, seed=r.seed + seed) for r in regs]
        return regs

    arms: Dict[str, Dict[str, object]] = {}
    arms["isolated"] = _arm(
        _fleet(regions(), horizon, spillover=False, autoscale=False)
        .run().summary())
    arms["spillover"] = _arm(
        _fleet(regions(), horizon, spillover=True, autoscale=False)
        .run().summary())
    auto_report = _fleet(regions(), horizon, spillover=False,
                         autoscale=True).run()
    arms["autoscaled"] = _arm(auto_report.summary())
    combined_engine = _fleet(regions(), horizon, spillover=True,
                             autoscale=True)
    combined_report = combined_engine.run()
    combined_summary = combined_report.summary()
    arms["combined"] = _arm(combined_summary)
    combined_repeat = _fleet(regions(), horizon, spillover=True,
                             autoscale=True).run().summary()
    deterministic = json.dumps(combined_summary, sort_keys=True) == \
        json.dumps(combined_repeat, sort_keys=True)

    # Static peak: provision every region at the autoscaled arm's peak
    # from t=0 (clone counts above the base fleet), no scaling.
    base = {name: arms["isolated"]["peak_devices"][name]
            for name in arms["isolated"]["peak_devices"]}
    peak_extra = {name: max(0, int(peak) - int(base[name]))
                  for name, peak in arms["autoscaled"]["peak_devices"].items()}
    arms["static_peak"] = _arm(
        _fleet(regions(static_extra=peak_extra), horizon,
               spillover=False, autoscale=False).run().summary())

    # Regional outage: the hot region's only base device crashes
    # mid-wave; spillover + autoscaling route around the hole.
    from repro.resilience import FaultConfig, ResilienceConfig, RetryPolicy

    outage = ResilienceConfig(
        faults=FaultConfig(
            seed=seed, transient_rate=0.0, straggler_rate=0.0,
            reconfig_rate=0.0,
            crash_times={"Nvidia T4 GPU @north": horizon * 0.25}),
        retry=RetryPolicy())
    arms["outage"] = _arm(
        _fleet(regions(), horizon, spillover=True, autoscale=True,
               resilience=outage).run().summary())

    # Capacity planning: devices per region needed per wave shape and
    # SLO target (the autoscaled peak), with attainment and cost.
    shapes = {"reference": 1.0} if quick else {"reference": 1.0,
                                               "sharp": 1.15}
    slos = (30.0,) if quick else (12.0, 30.0)
    capacity_table = []
    for shape_name, r0_scale in shapes.items():
        for slo in slos:
            run = _arm(_fleet(
                regions(slo_deadline_s=slo, r0_scale=r0_scale), horizon,
                spillover=False, autoscale=True).run().summary())
            capacity_table.append({
                "wave_shape": shape_name, "r0_scale": r0_scale,
                "slo_deadline_s": slo,
                "devices": run["peak_devices"],
                "attainment": run["attainment"],
                "cost_usd": run["cost_total_usd"],
            })

    # Scale bookkeeping: how many people the simulated waves cover and
    # how many each request stands for.
    cases = {name: round(region.cases_total(), 1)
             for name, region in combined_engine.regions.items()}
    total_requests = sum(int(r["requests"])
                         for r in arms["combined"]["regions"].values())
    scale = {
        "population": {name: r.config.population
                       for name, r in combined_engine.regions.items()},
        "simulated_cases": cases,
        "simulated_cases_total": round(sum(cases.values()), 1),
        "users_per_request": round(
            sum(cases.values()) / max(1, total_requests), 1),
    }

    accounting = _accounting_gate(combined_report, combined_summary)
    gates = {
        "spillover_beats_isolated": bool(
            arms["spillover"]["missed"] < arms["isolated"]["missed"]),
        "autoscaler_restores_slo": bool(
            arms["autoscaled"]["attainment"] > arms["isolated"]["attainment"]
            and arms["autoscaled"]["attainment"] >= ATTAINMENT_TARGET),
        "autoscaling_cheaper_than_peak": bool(
            arms["autoscaled"]["cost_total_usd"]
            < arms["static_peak"]["cost_total_usd"]
            and arms["autoscaled"]["attainment"] >= ATTAINMENT_TARGET),
        "accounting_ok": bool(accounting["ok"]),
        "deterministic": bool(deterministic),
    }
    headline = {
        "isolated_missed": arms["isolated"]["missed"],
        "spillover_missed": arms["spillover"]["missed"],
        "isolated_attainment": arms["isolated"]["attainment"],
        "autoscaled_attainment": arms["autoscaled"]["attainment"],
        "static_peak_cost_usd": arms["static_peak"]["cost_total_usd"],
        "autoscaled_cost_usd": arms["autoscaled"]["cost_total_usd"],
        "autoscaling_saving": round(
            1.0 - arms["autoscaled"]["cost_total_usd"]
            / max(1e-12, arms["static_peak"]["cost_total_usd"]), 4),
    }
    return {
        "bench": "pandemic",
        "quick": bool(quick),
        "seed": seed,
        "scenario": {
            "regions": [r.name for r in regions()],
            "horizon_s": horizon,
            "requests": total_requests,
            "slo_deadline_s": 30.0,
        },
        "host": host_info(),
        "scale": scale,
        "arms": arms,
        "capacity_table": capacity_table,
        "headline": headline,
        "accounting": accounting,
        "gates": gates,
        "gates_ok": bool(all(gates.values())),
    }


def format_pandemic_summary(payload: Dict[str, object]) -> str:
    """Human-readable one-screen summary of a pandemic bench payload."""
    s = payload["scenario"]
    scale = payload["scale"]
    h = payload["headline"]
    lines = [
        f"pandemic fleet benchmark ({'quick' if payload['quick'] else 'full'};"
        f" {len(s['regions'])} regions, {s['requests']} requests over "
        f"{s['horizon_s']:g}s, ~{scale['simulated_cases_total'] / 1e6:.1f}M "
        f"simulated cases, {scale['users_per_request']:g} users/request)",
    ]
    for name, arm in payload["arms"].items():
        lines.append(
            f"  {name:12s}: attainment {arm['attainment']:.3f} "
            f"(missed {arm['missed']}), spillover {arm['spillover']}, "
            f"provisioned {arm['devices_provisioned']}, "
            f"cost ${arm['cost_total_usd']:.3f}")
    lines.append(
        f"  spillover: missed {h['isolated_missed']} -> "
        f"{h['spillover_missed']} vs isolated")
    lines.append(
        f"  autoscaler: attainment {h['isolated_attainment']:.3f} -> "
        f"{h['autoscaled_attainment']:.3f}; cost "
        f"${h['autoscaled_cost_usd']:.3f} vs static-peak "
        f"${h['static_peak_cost_usd']:.3f} "
        f"({h['autoscaling_saving']:.1%} saved)")
    lines.append("  capacity table (devices @ SLO x wave shape):")
    for row in payload["capacity_table"]:
        devices = ", ".join(f"{k}={v}" for k, v in
                            sorted(row["devices"].items()))
        lines.append(
            f"    {row['wave_shape']:9s} slo={row['slo_deadline_s']:g}s: "
            f"{devices} (attainment {row['attainment']:.3f}, "
            f"${row['cost_usd']:.3f})")
    acc = payload["accounting"]
    lines.append(
        f"  accounting: {acc['events']} events, round-trip "
        f"identical={acc['round_trip_identical']}")
    gates = ", ".join(f"{k}={v}" for k, v in payload["gates"].items())
    lines.append(f"  gates: {gates}")
    lines.append(f"  gates_ok={payload['gates_ok']}")
    return "\n".join(lines)
