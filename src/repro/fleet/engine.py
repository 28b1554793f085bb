"""Multi-region fleet serving: one event loop, N regions, one trace.

:class:`FleetEngine` composes the pieces of this package — regional
serving stacks (:mod:`repro.fleet.region`), the capacity-aware
spillover router (:mod:`repro.fleet.router`), and the telemetry-driven
autoscalers (:mod:`repro.fleet.autoscale`) — over a single
:class:`repro.des.EventLoop` and a single
:class:`repro.telemetry.EventBus`:

1. every region's SEIR-driven workload is scheduled as ``route``
   events in the region's own namespace,
2. the router resolves each route to home-or-remote at arrival time
   (spills re-arrive at the target ``wan_s`` later),
3. a fleet-global ``autoscale`` tick evaluates every region's scaler;
   scale-ups mature into ``provision`` events after the provisioning
   lag,
4. the drained loop yields one global makespan, per-region billing
   (``region_cost`` events), and one event stream that partitions
   losslessly back into per-region serving reports.

The whole run is bit-deterministic: one heap, seeded workloads,
deterministic router tie-breaks — same seed, same trace, always.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.des import EventLoop
from repro.fleet.autoscale import AutoscalerConfig, RegionAutoscaler, region_cost
from repro.fleet.region import Region, RegionConfig
from repro.fleet.router import (
    FLEET_SOURCE,
    RouterConfig,
    SpilloverRouter,
    WanCostModel,
)
from repro.serve.engine import ServingReport
from repro.serve.scheduler import ServiceTimeModel
from repro.telemetry import EventBus, MetricsRegistry, TelemetryEvent

__all__ = ["FleetEngine", "FleetReport"]


@dataclass
class FleetReport:
    """Everything a fleet run produced."""

    regions: Dict[str, ServingReport]
    configs: Dict[str, RegionConfig]
    makespan_s: float
    events: List[TelemetryEvent]
    registry: MetricsRegistry
    #: Requests delivered per region (home-kept + spilled in).
    delivered: Dict[str, int] = field(default_factory=dict)
    spills_out: Dict[str, int] = field(default_factory=dict)
    spills_in: Dict[str, int] = field(default_factory=dict)
    #: Peak concurrently-active devices per region (capacity planning).
    peak_devices: Dict[str, int] = field(default_factory=dict)
    costs: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def summary(self) -> Dict[str, object]:
        """Per-region serving summaries plus the fleet block.

        The fleet block is computed by the same event-recount function
        ``repro trace summary`` uses (:func:`repro.serve.metrics.fleet_block`),
        so live and trace-side fleet accounting are bit-identical by
        construction.
        """
        from repro.serve.metrics import fleet_block, summarize

        return {
            "regions": {name: summarize(rep)
                        for name, rep in sorted(self.regions.items())},
            "fleet": fleet_block(self.events),
        }


class FleetEngine:
    """Serve N regional epidemics on one deterministic event loop."""

    def __init__(
        self,
        regions: Sequence[RegionConfig],
        mode: str = "staged",
        policy: str = "perf-aware",
        batch_policy=None,
        router: Optional[RouterConfig] = None,
        wan: Optional[WanCostModel] = None,
        autoscaler: Optional[AutoscalerConfig] = None,
        resilience=None,
        service_model: Optional[ServiceTimeModel] = None,
        horizon_s: float = 120.0,
        slots_per_device: int = 1,
        artifact_cache_mb: float = 4096.0,
    ):
        if not regions:
            raise ValueError("need at least one region")
        names = [r.name for r in regions]
        if len(set(names)) != len(names):
            raise ValueError(f"region names must be unique, got {names}")
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        self.bus = EventBus()
        self.registry = MetricsRegistry()
        self.router_config = router or RouterConfig()
        self.wan = wan or WanCostModel()
        self.autoscaler_config = autoscaler
        self.horizon_s = horizon_s
        self.service_model = service_model or ServiceTimeModel()
        shared_artifacts = None
        if mode == "dag" and self.router_config.replicate_artifacts:
            from repro.dag import ArtifactCache

            # One artifact store spanning the fleet: spilled monitoring
            # re-reads keep their fast path (the router bills the
            # replication traffic instead).
            shared_artifacts = ArtifactCache(artifact_cache_mb,
                                             registry=self.registry)
        self.regions: Dict[str, Region] = {}
        for cfg in regions:
            self.regions[cfg.name] = Region(
                cfg, self.bus, mode=mode, policy=policy,
                batch_policy=batch_policy, resilience=resilience,
                service_model=self.service_model,
                artifact_cache=shared_artifacts,
                slots_per_device=slots_per_device,
            )
        scan_bytes = (self.service_model.input_size ** 2
                      * self.service_model.slices_per_scan * 4)
        self.router = SpilloverRouter(
            self.regions, self.router_config, self.wan, self.bus,
            self.registry, scan_bytes=scan_bytes)
        self.autoscalers: Dict[str, RegionAutoscaler] = {}
        if autoscaler is not None:
            self.autoscalers = {
                name: RegionAutoscaler(region, autoscaler, self.router,
                                       self.bus, self.registry)
                for name, region in self.regions.items()}
        self._loop: Optional[EventLoop] = None

    # ------------------------------------------------------------------
    def run(self) -> FleetReport:
        """Serve every region's wave to completion on one shared loop."""
        loop = EventLoop()
        self._loop = loop
        mark = self.bus.mark()
        for i, name in enumerate(sorted(self.regions)):
            region = self.regions[name]
            region.bind(loop)
            self.bus.emit(0.0, "region_fleet", FLEET_SOURCE, region=name,
                          devices=len(region.engine.scheduler.workers),
                          names=[w.spec.name
                                 for w in region.engine.scheduler.workers])
            region.loop.on(
                "route",
                lambda req, now, _r=region: self._on_route(_r, req, now))
            # Request ids are region-offset at workload build time, so
            # one shared trace never aliases two requests.
            for req in region.workload(self.horizon_s,
                                       id_base=(i + 1) * 1_000_000):
                region.loop.schedule(req.arrival_s, "route", req)
            region.ensure_heartbeat()
        if self.autoscalers:
            loop.on("autoscale", self._on_autoscale)
            loop.on("provision", self._on_provision)
            loop.schedule(self.autoscaler_config.tick_s, "autoscale", None)
        now = loop.run()
        for name in sorted(self.regions):
            self.regions[name].engine.finish(now)
        for name in sorted(self.regions):
            bill = region_cost(
                self.regions[name].engine.scheduler.all_workers, now)
            self.bus.emit(now, "region_cost", FLEET_SOURCE, region=name,
                          **bill)
        events = self.bus.since(mark)
        reports = {}
        for name, region in self.regions.items():
            region_events = [e for e in events
                             if e.payload.get("region") == name]
            reports[name] = region.engine.collect(
                now, self.router.delivered[name], region_events)
        peaks = {name: (self.autoscalers[name].peak_devices
                        if name in self.autoscalers
                        else len(region.engine.scheduler.workers))
                 for name, region in self.regions.items()}
        # Drop the finished loop: its handlers point back at this fleet
        # and at each region's engine, and that cycle would keep the
        # run's events alive until the cyclic garbage collector ran.
        self._loop = None
        for region in self.regions.values():
            region.unbind()
        return FleetReport(
            regions=reports,
            configs={n: r.config for n, r in self.regions.items()},
            makespan_s=now,
            events=events,
            registry=self.registry,
            delivered=dict(self.router.delivered),
            spills_out=dict(self.router.spills_out),
            spills_in=dict(self.router.spills_in),
            peak_devices=peaks,
            costs={name: region_cost(
                self.regions[name].engine.scheduler.all_workers, now)
                for name in self.regions},
        )

    # -- handlers --------------------------------------------------------
    def _on_route(self, home: Region, req, now: float) -> None:
        """Resolve one request's region at its arrival instant."""
        target_name, wan_s = self.router.route(home.config.name, req, now)
        target = self.regions[target_name]
        target.loop.schedule(now + wan_s, "arrival", req)
        if target is not home:
            # A region whose heartbeat chain died idle must resume
            # sweeping once spillover hands it new work.
            target.ensure_heartbeat()

    def _on_autoscale(self, _payload, now: float) -> None:
        for name in sorted(self.autoscalers):
            self.autoscalers[name].evaluate(
                now,
                lambda t, _n=name: self._loop.schedule(t, "provision", _n))
        if any(r.loop.pending for r in self.regions.values()):
            self._loop.schedule(now + self.autoscaler_config.tick_s,
                                "autoscale", None)

    def _on_provision(self, region_name: str, now: float) -> None:
        self.autoscalers[region_name].provision(now)
