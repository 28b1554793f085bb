"""Serving metrics: latency percentiles, throughput, utilization.

Summarizes a :class:`repro.serve.engine.ServingReport` into the
flat dict the CLI prints / serializes: p50/p95/p99 end-to-end latency,
sustained throughput, per-device utilization and batch counts, queue
depth, shed counts split by :class:`~repro.serve.engine.ShedReason`
(``queue_full`` / ``timeout`` / ``fault``), SLO violations, cache hit
rate, and — when the resilience layer is armed — fault/retry counters,
per-device availability, and degraded-mode accounting.

The math lives in the telemetry spine: :func:`percentile` *is*
:func:`repro.telemetry.metrics.percentile` (one nearest-rank
implementation repo-wide), latencies are read back from the registry
histogram ``serve.latency_s`` the lifecycle observed into, and
:func:`summarize_trace` recomputes the latency/throughput block from
an exported event stream alone — bit-identical to the live summary,
which is what makes ``repro serve --trace-out`` → ``repro trace
summary`` a lossless round trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from repro.telemetry.metrics import percentile

__all__ = ["percentile", "LatencyStats", "summarize", "summarize_trace",
           "fleet_block", "summarize_fleet_trace", "is_fleet_trace"]


@dataclass(frozen=True)
class LatencyStats:
    """End-to-end latency distribution of completed requests."""

    count: int
    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float

    @classmethod
    def from_latencies(cls, latencies: Sequence[float]) -> "LatencyStats":
        if not latencies:
            return cls(0, float("nan"), float("nan"), float("nan"),
                       float("nan"), float("nan"))
        return cls(
            count=len(latencies),
            mean_s=float(sum(latencies) / len(latencies)),
            p50_s=percentile(latencies, 50),
            p95_s=percentile(latencies, 95),
            p99_s=percentile(latencies, 99),
            max_s=float(max(latencies)),
        )


def _performance_block(latencies: Sequence[float],
                       makespan: float) -> Dict[str, object]:
    """The latency/throughput keys — shared by live and trace summaries.

    One code path means the two can only disagree if their *inputs*
    disagree, which the round-trip test pins down to "never".
    """
    lat = LatencyStats.from_latencies(latencies)
    throughput = len(latencies) / makespan if makespan > 0 else 0.0
    return {
        "completed": lat.count,
        "makespan_s": round(makespan, 4),
        "throughput_rps": round(throughput, 4),
        "latency_p50_s": round(lat.p50_s, 4),
        "latency_p95_s": round(lat.p95_s, 4),
        "latency_p99_s": round(lat.p99_s, 4),
        "latency_mean_s": round(lat.mean_s, 4),
        "latency_max_s": round(lat.max_s, 4),
    }


def _kind_block(completions: Iterable, sheds: Iterable) -> Dict[str, object]:
    """Per-workload-kind breakdown — shared by live and trace summaries.

    ``completions`` yields ``(kind, latency_s, deadline_s)`` in
    completion order; ``sheds`` yields ``(kind, reason)``.  Like
    :func:`_performance_block`, one code path serves both the live
    report and the JSONL-trace recount, so the per-kind numbers are
    bit-identical across the round trip (the per-kind-parity gate of
    ``repro bench scenarios``).
    """
    per: Dict[str, Dict[str, object]] = {}

    def slot(kind: str) -> Dict[str, object]:
        return per.setdefault(kind, {"latencies": [], "violations": 0,
                                     "shed": {}})

    for kind, latency, deadline in completions:
        d = slot(kind)
        d["latencies"].append(latency)
        if latency > deadline:
            d["violations"] += 1
    for kind, reason in sheds:
        shed = slot(kind)["shed"]
        shed[reason] = shed.get(reason, 0) + 1
    out: Dict[str, object] = {}
    for kind in sorted(per):
        d = per[kind]
        lat = LatencyStats.from_latencies(d["latencies"])
        shed_total = sum(d["shed"].values())
        offered = lat.count + shed_total
        out[kind] = {
            "completed": lat.count,
            "shed": shed_total,
            "shed_by_reason": {k: d["shed"][k] for k in sorted(d["shed"])},
            "slo_violations": d["violations"],
            # Attainment over everything offered: sheds violate by
            # definition (the request never got an answer).
            "slo_attainment": (round((lat.count - d["violations"]) / offered, 4)
                               if offered else 1.0),
            "latency_p50_s": round(lat.p50_s, 4),
            "latency_p95_s": round(lat.p95_s, 4),
            "latency_p99_s": round(lat.p99_s, 4),
            "latency_mean_s": round(lat.mean_s, 4),
            "latency_max_s": round(lat.max_s, 4),
        }
    return out


def summarize(report) -> Dict[str, object]:
    """Flatten a ServingReport into the CLI/benchmark summary dict."""
    if getattr(report, "registry", None) is not None:
        # The canonical record: the histogram the lifecycle observed
        # into, in completion order (same floats as the list below).
        latencies = list(report.registry.histogram("serve.latency_s").values)
    else:
        latencies = [r.latency_s for r in report.completed]
    violations = sum(1 for r in report.completed
                     if r.latency_s > r.request.slo.deadline_s)
    degraded = sum(1 for r in report.completed if r.degraded)
    out = {
        "requests": report.offered,
        "shed_queue_full": report.queue_stats["rejected"],
        "shed_timeout": report.queue_stats["timed_out"],
        "shed_fault": report.queue_stats["faulted"],
        "slo_violations": violations,
    }
    out.update(_performance_block(latencies, report.makespan_s))
    out.update({
        "queue_mean_depth": round(report.queue_mean_depth, 3),
        "queue_max_depth": report.queue_max_depth,
        "cache_hit_rate": round(report.cache_stats["hit_rate"], 4),
        "cache_hits": report.cache_stats["hits"],
        "cache_evictions": report.cache_stats.get("evictions", 0),
        "cache_resident_bytes": report.cache_stats.get("resident_bytes", 0),
        "device_utilization": {k: round(v, 4)
                               for k, v in report.utilization.items()},
        "device_batches": {w.spec.name: w.batches_done for w in report.workers},
        "device_requests": {w.spec.name: w.requests_done for w in report.workers},
        "device_failures": {w.spec.name: w.batches_failed
                            for w in report.workers},
        "device_availability": {k: round(v, 4)
                                for k, v in report.availability.items()},
        "fault_events": dict(report.fault_stats),
        "retries": report.retries,
        "retries_gave_up": report.gave_up,
        "degraded_completed": degraded,
        "degrade_switches": len(report.degrade_log),
        "breaker_states": dict(report.health_states),
        "verified_batches": report.verified_batches,
        "policy": report.policy,
        "mode": getattr(report, "mode", "staged"),
        # Per-workload-kind breakdown: the completed list holds the same
        # floats the histogram observed, in the same completion order.
        "kinds": _kind_block(
            ((r.request.kind, r.latency_s, r.request.slo.deadline_s)
             for r in report.completed),
            ((r.request.kind, r.shed_reason.value) for r in report.shed)),
    })
    # Run-scoped stage counters; each has a co-located bus event, so
    # summarize_trace recounts the same numbers from events alone.
    out.update(report.stage_stats)
    if report.artifact_stats:
        out["artifact_cache"] = dict(report.artifact_stats)
    return out


def summarize_trace(events: Iterable) -> Dict[str, object]:
    """Recompute the serving summary from an event stream alone.

    Works on live :class:`~repro.telemetry.TelemetryEvent` objects or
    ones loaded back from a ``--trace-out`` JSONL file.  Keys present
    here are *bit-identical* to :func:`summarize` on the originating
    run: latencies ride ``request_done`` payloads in completion order
    (JSON round-trips Python floats exactly), the makespan is the
    ``done`` event's timestamp, and shed/conservation counts are
    recounted from ``shed`` events by reason.
    """
    latencies: List[float] = []
    kind_completions: List[tuple] = []
    kind_sheds: List[tuple] = []
    requests = 0
    violations = 0
    degraded = 0
    cache_hits = 0
    retries = 0
    makespan = 0.0
    shed_by_reason = {"queue_full": 0, "timeout": 0, "fault": 0}
    fault_events: Dict[str, int] = {}
    stage_completions: Dict[str, int] = {}
    model_swaps = 0
    model_evictions = 0
    stages_skipped = 0
    artifact_entries = 0
    stage_degraded = 0
    for e in events:
        if e.kind == "arrival":
            requests += 1
        elif e.kind == "complete":
            stage = e.payload["stage"]
            stage_completions[stage] = stage_completions.get(stage, 0) + 1
        elif e.kind == "model_swap":
            model_swaps += 1
            model_evictions += len(e.payload.get("evicted", []))
        elif e.kind == "stage_skip":
            artifact_entries += 1
            stages_skipped += len(e.payload["skipped"])
        elif e.kind == "stage_degraded":
            stage_degraded += int(e.payload["size"])
        elif e.kind == "request_done":
            latency = float(e.payload["latency_s"])
            latencies.append(latency)
            if latency > float(e.payload["deadline_s"]):
                violations += 1
            if e.payload.get("degraded"):
                degraded += 1
            # Pre-workload-registry traces carry no kind stamp; they
            # were all-diagnosis-SLO streams, so default accordingly.
            kind_completions.append((e.payload.get("kind_of", "diagnosis"),
                                     latency, float(e.payload["deadline_s"])))
        elif e.kind == "shed":
            reason = e.payload["reason"]
            shed_by_reason[reason] = shed_by_reason.get(reason, 0) + 1
            kind_sheds.append((e.payload.get("kind_of", "diagnosis"), reason))
        elif e.kind == "cache_hit":
            cache_hits += 1
        elif e.kind == "retry":
            retries += 1
        elif e.kind == "fault":
            kind = e.payload["fault"]
            fault_events[kind] = fault_events.get(kind, 0) + 1
        elif e.kind == "done":
            makespan = float(e.t)
    out = {
        "requests": requests,
        "shed_queue_full": shed_by_reason["queue_full"],
        "shed_timeout": shed_by_reason["timeout"],
        "shed_fault": shed_by_reason["fault"],
        "slo_violations": violations,
    }
    out.update(_performance_block(latencies, makespan))
    out.update({
        "cache_hits": cache_hits,
        "retries": retries,
        "fault_events": fault_events,
        "degraded_completed": degraded,
        "kinds": _kind_block(kind_completions, kind_sheds),
        # The run-scoped stage counters, recounted from their
        # co-located events — bit-identical to the live summary.
        "model_swaps": model_swaps,
        "model_evictions": model_evictions,
        "stages_skipped": stages_skipped,
        "artifact_entries": artifact_entries,
        "stage_degraded_requests": stage_degraded,
        "stage_completions": stage_completions,
    })
    return out


# ---------------------------------------------------------------------------
# Multi-region fleet traces (repro.fleet)
# ---------------------------------------------------------------------------
def is_fleet_trace(events: Iterable) -> bool:
    """Did this event stream come from a :class:`repro.fleet.FleetEngine`?

    Fleet runs always open with one ``region_fleet`` event per region,
    so the probe is cheap and unambiguous.
    """
    return any(e.kind == "region_fleet" for e in events)


def fleet_block(events: Iterable) -> Dict[str, object]:
    """Recount the fleet-level summary from the event stream alone.

    This is the *only* implementation of the fleet block: the live
    :meth:`repro.fleet.FleetReport.summary` calls it on the run's
    events and ``repro trace summary`` calls it on the JSONL-loaded
    ones, so the two cannot disagree (SLO/cost accounting gate of the
    pandemic bench).  Inputs are the fleet's own events: ``spill``
    (router), ``region_fleet`` / ``provision`` / ``decommission``
    (fleet + autoscaler), ``region_cost`` (billing), and the per-region
    ``done`` markers for the makespan.
    """
    spillover = 0
    wan_bytes = 0
    replication_bytes = 0
    spills_out: Dict[str, int] = {}
    spills_in: Dict[str, int] = {}
    base_devices: Dict[str, int] = {}
    peak_devices: Dict[str, int] = {}
    provisioned: Dict[str, int] = {}
    decommissioned: Dict[str, int] = {}
    cost_usd: Dict[str, float] = {}
    device_hours: Dict[str, float] = {}
    makespan = 0.0
    for e in events:
        p = e.payload
        if e.kind == "spill":
            spillover += 1
            wan_bytes += int(p["nbytes"])
            replication_bytes += int(p.get("replicated_bytes", 0))
            spills_out[p["region"]] = spills_out.get(p["region"], 0) + 1
            spills_in[p["target"]] = spills_in.get(p["target"], 0) + 1
        elif e.kind == "region_fleet":
            base_devices[p["region"]] = int(p["devices"])
            peak_devices[p["region"]] = max(
                peak_devices.get(p["region"], 0), int(p["devices"]))
        elif e.kind == "provision":
            provisioned[p["region"]] = provisioned.get(p["region"], 0) + 1
            peak_devices[p["region"]] = max(
                peak_devices.get(p["region"], 0), int(p["active"]))
        elif e.kind == "decommission":
            decommissioned[p["region"]] = (
                decommissioned.get(p["region"], 0) + 1)
        elif e.kind == "region_cost":
            cost_usd[p["region"]] = float(p["cost_usd"])
            device_hours[p["region"]] = float(p["device_hours"])
        elif e.kind == "done":
            makespan = max(makespan, float(e.t))
    return {
        "regions": sorted(base_devices),
        "makespan_s": round(makespan, 4),
        "spillover": spillover,
        "wan_bytes": wan_bytes,
        "artifact_replication_bytes": replication_bytes,
        "spills_out": {k: spills_out[k] for k in sorted(spills_out)},
        "spills_in": {k: spills_in[k] for k in sorted(spills_in)},
        "base_devices": {k: base_devices[k] for k in sorted(base_devices)},
        "peak_devices": {k: peak_devices[k] for k in sorted(peak_devices)},
        "devices_provisioned": sum(provisioned.values()),
        "devices_provisioned_by_region": {
            k: provisioned[k] for k in sorted(provisioned)},
        "devices_decommissioned": sum(decommissioned.values()),
        "cost_usd": {k: cost_usd[k] for k in sorted(cost_usd)},
        "cost_total_usd": round(sum(cost_usd.values()), 6),
        "device_hours": {k: device_hours[k] for k in sorted(device_hours)},
    }


def summarize_fleet_trace(events: Iterable) -> Dict[str, object]:
    """Per-region :func:`summarize_trace` blocks plus the fleet block.

    The event stream is partitioned by the ``region`` payload stamp
    every :class:`repro.fleet.RegionBus` applies; each partition then
    replays through the exact single-region recount, and the fleet
    block recounts routing/scaling/billing — all from events alone, so
    a JSONL round trip is bit-identical.
    """
    events = list(events)
    names = sorted({e.payload["region"] for e in events
                    if e.kind == "region_fleet"})
    return {
        "regions": {
            name: summarize_trace(
                [e for e in events if e.payload.get("region") == name])
            for name in names},
        "fleet": fleet_block(events),
    }
