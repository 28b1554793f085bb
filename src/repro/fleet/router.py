"""Capacity-aware spillover routing between regional fleets.

The global router sits in front of every region's admission queue.  A
request stays in its home region while that region looks healthy —
admission-queue occupancy under :attr:`RouterConfig.queue_ratio` and
the recent completion p99 within the SLO — and *spills* to the
healthiest remote region otherwise, paying a WAN transfer delay from
:class:`WanCostModel` (propagation RTT plus scan bytes over the
inter-region link).  Spilled requests arrive at the remote region
``wan_s`` later, so the WAN cost lands inside the request's end-to-end
latency (the lifecycle measures from the original ``arrival_s``).

DAG-mode cache locality is respected for free: a spilled monitoring
re-read finds no intermediate artifact in the remote region's cache
and runs the full pipeline — unless the fleet was built with
``replicate_artifacts``, in which case all regions share one artifact
store and the router charges the replication bytes instead.

Observability: every spill is a ``spill`` event on the fleet bus plus
fleet-registry counters (:data:`SPILL_COUNTER`, :data:`WAN_BYTES_COUNTER`,
per-region in/out counts), which is what lets ``repro trace summary``
recount the spillover block bit-identically from events alone.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.telemetry.metrics import percentile
from repro.workload import get_workload

__all__ = ["WanCostModel", "RouterConfig", "SpilloverRouter",
           "FLEET_SOURCE", "SPILL_COUNTER", "WAN_BYTES_COUNTER",
           "REPLICATION_BYTES_COUNTER"]

#: ``source`` tag of fleet-level events on the shared bus.
FLEET_SOURCE = "repro.fleet"

SPILL_COUNTER = "fleet.spillover"
WAN_BYTES_COUNTER = "fleet.wan_bytes"
REPLICATION_BYTES_COUNTER = "fleet.artifact_replication_bytes"


@dataclass(frozen=True)
class WanCostModel:
    """Inter-region transfer cost: propagation RTT + serialization.

    One scan upload is ``nbytes`` over a ``gbps`` link after an
    ``rtt_s`` round trip (connection + headers); artifact replication
    reuses the same link model.
    """

    rtt_s: float = 0.08
    gbps: float = 1.0

    def __post_init__(self):
        if self.rtt_s < 0 or self.gbps <= 0:
            raise ValueError("need rtt_s >= 0 and gbps > 0")

    def delay_s(self, nbytes: float) -> float:
        return self.rtt_s + nbytes * 8.0 / (self.gbps * 1e9)


@dataclass(frozen=True)
class RouterConfig:
    """Spillover policy knobs."""

    #: Master switch; off = strictly isolated regions (the baseline the
    #: pandemic bench compares against).
    spillover: bool = True
    #: Home region is unhealthy above this admission-queue occupancy.
    queue_ratio: float = 0.5
    #: Sliding window (completions) for the recent-p99 health signal.
    p99_window: int = 32
    #: Healthy iff recent p99 <= slack x the region's diagnosis SLO.
    p99_slack: float = 1.0
    #: Share one artifact store across regions (DAG mode): spilled
    #: monitoring re-reads keep the classify-only fast path, but each
    #: spill of a monitoring request bills artifact replication bytes.
    replicate_artifacts: bool = False

    def __post_init__(self):
        if not 0.0 < self.queue_ratio <= 1.0:
            raise ValueError("queue_ratio must be in (0, 1]")
        if self.p99_window < 1 or self.p99_slack <= 0:
            raise ValueError("need p99_window >= 1 and p99_slack > 0")


class SpilloverRouter:
    """Route each request to its home region or the best healthy remote."""

    def __init__(self, regions: Dict[str, object], config: RouterConfig,
                 wan: WanCostModel, bus, registry, scan_bytes: float,
                 artifact_bytes: Optional[float] = None):
        self.regions = regions
        self.config = config
        self.wan = wan
        self.bus = bus
        self.registry = registry
        #: One scan's WAN payload (reference workload, float32 voxels).
        self.scan_bytes = float(scan_bytes)
        #: One intermediate artifact's replication payload (the segment
        #: stage's masked volume ~= half the scan by default).
        self.artifact_bytes = (float(artifact_bytes)
                               if artifact_bytes is not None
                               else self.scan_bytes / 2.0)
        #: Requests delivered per region (home-kept + spilled-in) — the
        #: per-region ``offered`` count of the final report.
        self.delivered: Dict[str, int] = {name: 0 for name in regions}
        self.spills_out: Dict[str, int] = {name: 0 for name in regions}
        self.spills_in: Dict[str, int] = {name: 0 for name in regions}
        self._recent: Dict[str, deque] = {
            name: deque(maxlen=config.p99_window) for name in regions}
        # The subscription holds the latency windows, not this router: a
        # bus -> router -> regions -> bus cycle would keep every event of
        # a finished run alive until the cyclic garbage collector ran.
        recent = self._recent

        def on_request_done(event) -> None:
            window = recent.get(event.payload.get("region"))
            if window is not None:
                window.append(float(event.payload["latency_s"]))

        bus.subscribe(on_request_done, kinds=("request_done",))

    # -- health signals --------------------------------------------------
    def recent_p99(self, name: str) -> Optional[float]:
        """p99 of the region's recent completions (None until warm)."""
        window = self._recent[name]
        if not window:
            return None
        return percentile(list(window), 99)

    def queue_occupancy(self, name: str) -> float:
        engine = self.regions[name].engine
        return engine.queue.occupancy / max(1, engine.queue.capacity)

    def alive_devices(self, name: str) -> int:
        """Devices the region can still dispatch to (crash-aware)."""
        engine = self.regions[name].engine
        dead = engine.health.dead() if engine.health is not None else set()
        return sum(1 for w in engine.scheduler.workers
                   if w.alive and w.spec.name not in dead)

    def healthy(self, name: str) -> bool:
        """Can this region absorb a new request within its SLO?"""
        if self.alive_devices(name) == 0:
            # A drained-but-dead region sheds everything it admits; it
            # must not masquerade as healthy just because its queue is
            # empty (the regional-outage arm of the pandemic bench).
            return False
        if self.queue_occupancy(name) >= self.config.queue_ratio:
            return False
        p99 = self.recent_p99(name)
        deadline = self.regions[name].config.slo_deadline_s
        return p99 is None or p99 <= self.config.p99_slack * deadline

    # -- routing ---------------------------------------------------------
    def route(self, home: str, req, now: float) -> Tuple[str, float]:
        """Target region and WAN delay for ``req`` arriving at ``home``.

        Local while home is healthy (or spillover is off, or nowhere
        healthier exists); otherwise the healthy remote with the
        lowest ``(occupancy, recent p99, name)`` — a deterministic
        total order, so fleet runs stay bit-reproducible.
        """
        if not self.config.spillover or self.healthy(home):
            self.delivered[home] += 1
            return home, 0.0
        remote = [name for name in sorted(self.regions)
                  if name != home and self.healthy(name)]
        if not remote:
            self.delivered[home] += 1
            return home, 0.0
        target = min(remote, key=lambda n: (
            self.queue_occupancy(n),
            p99 if (p99 := self.recent_p99(n)) is not None else 0.0,
            n))
        nbytes = self.scan_bytes
        replicated = 0.0
        if self.config.replicate_artifacts and get_workload(req.kind).follow_up:
            # Follow-up kinds have artifact affinity at home: spilling
            # one means shipping (and billing) its cached intermediate
            # artifacts alongside the scan.
            replicated = self.artifact_bytes
            nbytes += replicated
            self.registry.counter(REPLICATION_BYTES_COUNTER).inc(
                int(replicated))
        wan_s = self.wan.delay_s(nbytes)
        self.delivered[target] += 1
        self.spills_out[home] += 1
        self.spills_in[target] += 1
        self.registry.counter(SPILL_COUNTER).inc()
        self.registry.counter(WAN_BYTES_COUNTER).inc(int(nbytes))
        self.bus.emit(now, "spill", FLEET_SOURCE, region=home,
                      target=target, request=req.request_id,
                      kind_of=req.kind, nbytes=int(nbytes),
                      replicated_bytes=int(replicated),
                      wan_s=round(wan_s, 6))
        return target, wan_s
