"""The serving composition root (admission → batch → schedule → run).

A deterministic simulator/runtime for operating the Fig. 4 pipeline at
load, composed from three units over the shared telemetry spine:

- :class:`repro.des.EventLoop` — the reusable discrete-event kernel
  (heap of ``(time, seq)`` entries, insertion-order tie-break),
- :class:`repro.serve.lifecycle.RequestLifecycle` — admission, cache,
  degrade tagging, and terminal completed/shed accounting,
- :class:`repro.serve.dispatch.DispatchController` — stage batchers,
  backlog, device placement, fault injection, and failover.

Every transition is a :class:`repro.telemetry.TelemetryEvent` on one
:class:`~repro.telemetry.EventBus` (``report.events`` is this run's
slice of it), the admission-conservation ledger, fault counts and the
per-stage counters live in one
:class:`~repro.telemetry.MetricsRegistry`, and circuit breakers are
driven *by* bus events rather than direct calls — so the serving
layer, the hetero runtime, and the resilience layer can share a single
event spine (pass ``telemetry=`` / ``metrics=``).

With a :class:`repro.resilience.ResilienceConfig` attached, the fleet
is no longer perfect: the fault injector decides each dispatch's fate
(transient failure, device crash, straggler, FPGA-reconfiguration
stall), heartbeat events drive per-device circuit breakers, failed
batches retry with exponential backoff onto non-excluded healthy
devices, and a degradation controller flips new admissions to the
Fig. 13 no-enhancement arm under pressure (results tagged
``degraded``).  Requests whose batch exhausts its retries are shed
with the distinct :attr:`ShedReason.FAULT`.

Simulated time is *modelled* (paper-scale 512×512×32 chunks); results
are *genuine* for up to ``verify_batches`` final-stage batches, which
are functionally executed at reduced scale through
:meth:`repro.pipeline.ComputeCovid19Plus.diagnose_batch`.

Runs are bit-deterministic for a given workload — fault injection
included.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.des import EventLoop
from repro.hetero.device import DeviceSpec
from repro.resilience import ResilienceConfig
from repro.resilience.degrade import DegradationController
from repro.resilience.failover import FailoverManager
from repro.resilience.faults import FaultInjector
from repro.resilience.health import FleetHealth
from repro.serve.batcher import Batch, BatchPolicy
from repro.serve.cache import ResultCache
from repro.serve.dispatch import DispatchController
from repro.serve.lifecycle import (
    CACHE_HIT_LATENCY_S,
    SERVE_SOURCE,
    RequestLifecycle,
    ServedRequest,
    ShedReason,
)
from repro.serve.queue import AdmissionQueue
from repro.serve.request import ScanRequest
from repro.serve.scheduler import (
    MONOLITHIC_STAGE,
    STAGES,
    DeviceWorker,
    FleetScheduler,
    ServiceTimeModel,
    fleet_from_spec,
)
from repro.telemetry import EventBus, MetricsRegistry, TelemetryEvent

__all__ = [
    "CACHE_HIT_LATENCY_S", "SERVE_MODES", "ShedReason", "ServedRequest",
    "BatchVerifier", "ServingReport", "ServingEngine",
]

#: How the engine decomposes a request onto the fleet:
#: - ``staged`` — the historical default: per-stage batching over the
#:   logical stages, no cost model beyond exec time,
#: - ``monolithic`` — one fused ``pipeline`` pseudo-stage per request
#:   (the whole enhance+segment+classify on one device) — the baseline
#:   the DAG benchmark compares against,
#: - ``dag`` — stage-graph serving: Clockwork-style stage cost records,
#:   model residency/eviction, intermediate-artifact fast path, and
#:   per-stage route-around resilience (see :mod:`repro.dag`).
SERVE_MODES = ("staged", "monolithic", "dag")


class BatchVerifier:
    """Functional verification budget for final-stage batches.

    Owns the lazily-built :class:`repro.pipeline.ComputeCovid19Plus`
    frameworks (full-quality and degraded arms) and the engine-lifetime
    budget of batches to actually execute at reduced scale.
    """

    def __init__(self, stages: Sequence[str], budget: int = 0,
                 framework=None, workers: int = 1, bus=None,
                 backend: Optional[str] = None):
        self.stages = tuple(stages)
        self.budget = budget
        self.verified = 0
        self.workers = workers
        self.bus = bus
        self.backend = backend
        self._framework = framework
        self._framework_degraded = None
        self._quantifier = None

    @property
    def framework(self):
        """Lazily built pipeline for functional batch verification."""
        if self._framework is None:
            from repro.pipeline import ComputeCovid19Plus

            self._framework = ComputeCovid19Plus(
                use_enhancement="enhance" in self.stages,
                backend=self.backend)
        return self._framework

    @property
    def framework_degraded(self):
        """The no-enhancement (Fig. 13 original) arm for degraded batches.

        A shallow copy of the primary framework: it shares the stage
        tools (and so their dtype, backend and weights), so a degraded
        result differs from the full-quality one only by the skipped
        Enhancement AI stage.  It does not go through the constructor,
        whose dtype cast would change the shared stages in place.
        """
        if self._framework_degraded is None:
            degraded = copy.copy(self.framework)
            degraded.use_enhancement = False
            self._framework_degraded = degraded
        return self._framework_degraded

    @property
    def quantifier(self):
        """Lazily built lesion quantifier (the quantify arm's verifier)."""
        if self._quantifier is None:
            from repro.pipeline.quantification import QuantificationAI

            self._quantifier = QuantificationAI()
        return self._quantifier

    def verify(self, batch: Batch, degraded_ids) -> Dict[int, object]:
        """Run one batch through the real pipeline if budget remains.

        Terminal batches are kind-homogeneous by construction (per-stage
        batchers; chains only diverge at their terminal stage), so the
        batch's workload spec decides the verification path: a custom
        ``verify_batch`` (the quantify arm's lesion quantification) or
        the default diagnosis framework below.
        """
        results: Dict[int, object] = {}
        if self.verified < self.budget and batch.requests:
            from repro.workload import get_workload

            spec = get_workload(batch.requests[0].kind)
            if spec.verify_batch is not None:
                results = dict(spec.verify_batch(self, batch, degraded_ids))
                self.verified += 1
                return results
            # Degraded requests skipped the enhancement stage in the
            # timing pipeline; the functional pass must match.
            normal = [r for r in batch.requests
                      if r.request_id not in degraded_ids]
            degraded = [r for r in batch.requests
                        if r.request_id in degraded_ids]
            if normal:
                outs = self.framework.diagnose_batch(
                    [r.materialize() for r in normal],
                    workers=self.workers, bus=self.bus)
                results.update({r.request_id: o for r, o in zip(normal, outs)})
            if degraded:
                outs = self.framework_degraded.diagnose_batch(
                    [r.materialize() for r in degraded],
                    workers=self.workers, bus=self.bus)
                results.update({r.request_id: o
                                for r, o in zip(degraded, outs)})
            self.verified += 1
        return results


@dataclass
class ServingReport:
    """Everything a run produced; ``summary()`` flattens it for output."""

    offered: int
    completed: List[ServedRequest]
    shed: List[ServedRequest]
    workers: List[DeviceWorker]
    policy: str
    makespan_s: float
    queue_stats: Dict[str, int]
    queue_mean_depth: float
    queue_max_depth: int
    cache_stats: Dict[str, float]
    utilization: Dict[str, float]
    verified_batches: int
    # -- resilience layer (empty/zero on fault-free runs) ---------------
    fault_stats: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    gave_up: int = 0
    availability: Dict[str, float] = field(default_factory=dict)
    degrade_log: List[Tuple[float, str]] = field(default_factory=list)
    health_states: Dict[str, str] = field(default_factory=dict)
    # -- telemetry spine -------------------------------------------------
    events: List[TelemetryEvent] = field(default_factory=list)
    registry: Optional[MetricsRegistry] = None
    mode: str = "staged"
    #: Run-scoped stage counters (zero swaps/skips outside DAG mode).
    stage_stats: Dict[str, object] = field(default_factory=dict)
    #: Intermediate-artifact cache statistics (DAG mode only).
    artifact_stats: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> Dict[str, object]:
        from repro.serve.metrics import summarize

        return summarize(self)


class ServingEngine:
    """Discrete-event serving of diagnosis requests over a device fleet."""

    def __init__(
        self,
        fleet: Union[str, Sequence[DeviceSpec]] = "mixed",
        policy: str = "perf-aware",
        batch_policy: Optional[BatchPolicy] = None,
        queue_capacity: int = 64,
        cache_capacity: int = 256,
        slots_per_device: int = 1,
        use_enhancement: bool = True,
        service_model: Optional[ServiceTimeModel] = None,
        verify_batches: int = 0,
        verify_workers: int = 1,
        framework=None,
        resilience: Optional[ResilienceConfig] = None,
        telemetry: Optional[EventBus] = None,
        metrics: Optional[MetricsRegistry] = None,
        mode: str = "staged",
        artifact_cache_mb: float = 4096.0,
        artifact_cache=None,
        backend: Optional[str] = None,
        workloads: Optional[Sequence[str]] = None,
    ):
        if backend is not None:
            from repro.backend.registry import known_backends

            if backend not in known_backends():
                raise ValueError(f"unknown kernel backend {backend!r}; "
                                 f"registered: {known_backends()}")
        self.backend = backend
        if mode not in SERVE_MODES:
            raise ValueError(f"mode must be one of {SERVE_MODES}")
        if mode == "monolithic" and not use_enhancement:
            raise ValueError("monolithic mode fuses the full pipeline; "
                             "use staged/dag for the no-enhancement arm")
        devices = fleet_from_spec(fleet) if isinstance(fleet, str) else list(fleet)
        self.mode = mode
        self.telemetry = telemetry if telemetry is not None else EventBus()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.service_model = service_model or ServiceTimeModel()
        # Logical pipeline stages (verification, degrade semantics) vs
        # the stages batches actually move through: each served workload
        # kind resolves its own chain against this base pipeline via the
        # workload registry; monolithic serving fuses every chain into
        # one "pipeline" pseudo-stage.
        from repro.workload import DEFAULT_WORKLOADS, WorkloadRouter

        self.stages = STAGES if use_enhancement else STAGES[1:]
        self.workloads = tuple(workloads) if workloads is not None \
            else DEFAULT_WORKLOADS
        self.router = WorkloadRouter(
            self.workloads, self.stages,
            monolithic_stage=MONOLITHIC_STAGE if mode == "monolithic"
            else None)
        self.dag = None
        extra_delay = None
        if mode == "dag":
            from repro.dag import (
                ArtifactCache,
                DagContext,
                ModelResidency,
                covid_stage_graph,
            )

            graph = covid_stage_graph(
                use_enhancement=use_enhancement,
                with_quantify="quantify" in self.router.stages)
            residency = ModelResidency(devices, bus=self.telemetry,
                                       registry=self.metrics)
            # A caller-supplied cache lets several engines share one
            # artifact store (repro.fleet's replicated-artifacts mode).
            artifacts = artifact_cache if artifact_cache is not None else \
                ArtifactCache(artifact_cache_mb, registry=self.metrics)
            route = (resilience.route_around_stage
                     if resilience is not None else True)
            self.dag = DagContext(graph, residency, artifacts,
                                  route_around_stage=route)

            def extra_delay(worker, batch, _dag=self.dag):
                return _dag.batch_seconds(worker.spec, batch.stage, len(batch))
        self.scheduler = FleetScheduler(devices, policy=policy,
                                        service_model=self.service_model,
                                        slots=slots_per_device,
                                        extra_delay=extra_delay)
        self.batch_policy = batch_policy or BatchPolicy()
        self.queue = AdmissionQueue(queue_capacity, registry=self.metrics)
        self.cache = ResultCache(cache_capacity, registry=self.metrics)
        self.verifier = BatchVerifier(self.stages, verify_batches,
                                      framework=framework,
                                      workers=verify_workers,
                                      bus=self.telemetry,
                                      backend=backend)
        # -- resilience layers (all None ⇒ the PR-1 perfect fleet) ------
        self.resilience = resilience
        self.injector = (FaultInjector(resilience.faults, devices)
                         if resilience and resilience.faults else None)
        self.health = (FleetHealth([d.name for d in devices],
                                   resilience.health, bus=self.telemetry)
                       if resilience else None)
        self.failover = (FailoverManager(resilience.retry)
                         if resilience and resilience.retry else None)
        self.degrade_ctl = (DegradationController(resilience.degrade)
                            if resilience and resilience.degrade else None)
        self.lifecycle = RequestLifecycle(
            self.queue, self.cache, self.router, self.telemetry,
            self.metrics, degrade_ctl=self.degrade_ctl,
            verifier=self.verifier, dag=self.dag)
        self.dispatcher = DispatchController(
            self.scheduler, self.service_model, self.batch_policy,
            self.router, self.telemetry, self.metrics, self.lifecycle,
            injector=self.injector, failover=self.failover,
            health=self.health, dag=self.dag)
        self._loop: Optional[EventLoop] = None

    # ------------------------------------------------------------------
    def bind(self, loop) -> None:
        """Bind handlers and reset per-run state onto ``loop``.

        ``loop`` may be the engine's own :class:`~repro.des.EventLoop`
        (the single-fleet :meth:`run` path) or a region-scoped proxy of
        a shared loop (:class:`repro.fleet.RegionLoop`) — either way the
        engine only ever sees ``schedule`` / ``on`` / ``pending`` /
        ``now``, so N engines can interleave on one deterministic heap.
        """
        self._loop = loop
        self.lifecycle.begin_run()
        self.dispatcher.begin_run(loop)
        loop.on("arrival", self._on_arrival)
        loop.on("flush", self.dispatcher.on_flush)
        loop.on("complete",
                lambda p, now: self.dispatcher.on_complete(p[0], p[1], now))
        loop.on("fail",
                lambda p, now: self.dispatcher.on_fail(p[0], p[1], p[2], now))
        loop.on("retry", self.dispatcher.on_retry)
        loop.on("heartbeat", self._on_heartbeat)

    def unbind(self) -> None:
        """Drop a finished run's loop.

        Its handlers point back at this engine, and that cycle would keep
        the run's events alive until the cyclic garbage collector
        happened to run.
        """
        self._loop = self.dispatcher.loop = None

    def inject(self, requests: Sequence[ScanRequest]) -> None:
        """Schedule a workload's arrivals (and arm the heartbeat)."""
        for req in requests:
            if not self.router.serves(req.kind):
                raise ValueError(
                    f"request {req.request_id} has kind {req.kind!r}, "
                    f"which this engine does not serve; pass "
                    f"workloads={tuple(sorted(set(self.workloads) | {req.kind}))} "
                    f"(serving {self.workloads})")
            self._loop.schedule(req.arrival_s, "arrival", req)
        self.arm_heartbeat()

    def arm_heartbeat(self) -> None:
        """Start the periodic health sweep if the resilience layer is on."""
        if self.resilience is not None and self._loop.pending:
            self._loop.schedule(self.health.config.heartbeat_s,
                                "heartbeat", None)

    def finish(self, now: float) -> None:
        """Emit the terminal ``done`` event and check conservation."""
        self.telemetry.emit(now, "done", SERVE_SOURCE,
                            completed=len(self.lifecycle.completed))
        self.queue.check_conservation()

    def run(self, requests: Sequence[ScanRequest]) -> ServingReport:
        """Serve a workload to completion; returns the full report."""
        loop = EventLoop()
        mark = self.telemetry.mark()
        self.bind(loop)
        self.inject(requests)
        now = loop.run()
        self.finish(now)
        self.unbind()
        events = self.telemetry.since(mark)
        return self.collect(now, len(requests), events)

    def collect(self, now: float, offered: int,
                events: List[TelemetryEvent]) -> ServingReport:
        """Assemble the report for a finished run over ``events``."""
        return ServingReport(
            offered=offered,
            completed=self.lifecycle.completed,
            shed=self.lifecycle.shed,
            workers=self.scheduler.all_workers,
            policy=self.scheduler.policy,
            makespan_s=now,
            queue_stats=self.queue.stats.as_dict(),
            queue_mean_depth=self.queue.mean_depth(),
            queue_max_depth=self.queue.max_depth(),
            cache_stats=self.cache.stats(),
            utilization=self.scheduler.utilization(now),
            verified_batches=self.verifier.verified,
            fault_stats=self.dispatcher.fault_stats(),
            retries=self.failover.retries if self.failover else 0,
            gave_up=self.failover.gave_up if self.failover else 0,
            availability=self.scheduler.availability(now),
            degrade_log=list(self.degrade_ctl.switches) if self.degrade_ctl else [],
            health_states=self.health.states() if self.health else {},
            events=events,
            registry=self.metrics,
            mode=self.mode,
            stage_stats=self.dispatcher.stage_stats(),
            artifact_stats=(self.dag.artifacts.stats() if self.dag is not None
                            else {}),
        )

    # -- handlers kept at the root --------------------------------------
    def _on_arrival(self, req: ScanRequest, now: float) -> None:
        entry_stage = self.lifecycle.admit(req, now)
        if entry_stage is None:
            return
        self.dispatcher.add_to_stage(entry_stage, req, now)
        self.dispatcher.pump_backlog(now)

    def _on_heartbeat(self, _payload, now: float) -> None:
        """Periodic health sweep: crash detection, degrade check, re-pump.

        Stays at the composition root because it spans every unit:
        fleet health, the injector, scheduler workers, the dispatch
        backlog, and the loop's own re-arming.
        """
        if self.health is not None:
            alive = ((lambda name: self.injector.alive(name, now))
                     if self.injector else (lambda name: True))
            newly_dead = self.health.on_heartbeat(now, alive)
            for w in self.scheduler.workers:
                if w.spec.name in newly_dead and w.alive:
                    w.crashed_at = (self.injector.crash_time(w.spec.name)
                                    if self.injector else now)
            self.telemetry.emit(now, "heartbeat", SERVE_SOURCE,
                                dead=sorted(newly_dead),
                                total_dead=len(self.health.dead()))
        self.lifecycle.evaluate_degrade(now)
        self.dispatcher.pump_backlog(now)
        if (self.dispatcher.backlog_depth and self.health is not None
                and not self.health.any_alive()):
            # The whole fleet is gone: nothing will ever serve these.
            self.dispatcher.shed_all_backlog(now)
        if self._loop.pending or (
                self.dispatcher.backlog_depth and
                (self.health is None or self.health.any_alive())):
            self._loop.schedule(now + self.health.config.heartbeat_s,
                                "heartbeat", None)
