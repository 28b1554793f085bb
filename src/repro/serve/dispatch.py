"""Batch dispatch: stage batchers, device placement, faults, failover.

The batch-movement unit of the decomposed serving engine.  It owns the
per-stage dynamic batchers, the overflow backlog, and every interaction
with the fleet scheduler — including the resilience path: consulting
the fault injector at dispatch time, scheduling ``fail`` events for
doomed launches, and driving retry/backoff through the failover
manager.

It emits ``dispatch`` / ``backlog`` / ``complete`` / ``fault`` /
``retry`` events on the shared bus and counts injected faults in
registry counters ``serve.faults.<kind>``.  Circuit breakers are *not*
called directly for success/failure: :class:`repro.resilience.health.
FleetHealth` subscribes to the ``complete`` and ``fault`` events this
unit emits (see :meth:`FleetHealth.attach`), which keeps the breaker
state machine purely event-driven.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.dag.residency import EVICTION_COUNTER, SWAP_COUNTER
from repro.resilience.faults import FAULT_KINDS
from repro.serve.batcher import Batch, BatchPolicy, DynamicBatcher
from repro.serve.lifecycle import (
    ARTIFACT_ENTRY_COUNTER,
    SERVE_SOURCE,
    STAGE_DEGRADED_COUNTER,
    STAGES_SKIPPED_COUNTER,
    RequestLifecycle,
)
from repro.serve.request import ScanRequest
from repro.serve.scheduler import DeviceWorker, FleetScheduler, ServiceTimeModel
from repro.telemetry import EventBus, MetricsRegistry

#: Registry name prefix for injected-fault counters (reset per run).
FAULT_COUNTER_PREFIX = "serve.faults."

#: Per-stage batch-completion counters (reset per run).
STAGE_DONE_PREFIX = "serve.dag.stage_done."

#: Summary key → run-scoped stage counter.  Every mode reports them;
#: outside DAG mode nothing swaps, skips or routes around, so they
#: read zero.  Each increment site emits a bus event, which is how
#: ``summarize_trace`` recounts them from a trace.
STAGE_COUNTERS = {
    "model_swaps": SWAP_COUNTER,
    "model_evictions": EVICTION_COUNTER,
    "stages_skipped": STAGES_SKIPPED_COUNTER,
    "artifact_entries": ARTIFACT_ENTRY_COUNTER,
    "stage_degraded_requests": STAGE_DEGRADED_COUNTER,
}


class DispatchController:
    """Moves batches from stage batchers onto fleet devices."""

    def __init__(
        self,
        scheduler: FleetScheduler,
        service_model: ServiceTimeModel,
        batch_policy: BatchPolicy,
        router,
        bus: EventBus,
        registry: MetricsRegistry,
        lifecycle: RequestLifecycle,
        injector=None,
        failover=None,
        health=None,
        dag=None,
    ):
        self.scheduler = scheduler
        self.service_model = service_model
        self.batch_policy = batch_policy
        self.router = router  # repro.workload.WorkloadRouter
        self.stages = router.stages  # union of every served kind's chain
        self.bus = bus
        self.registry = registry
        self.lifecycle = lifecycle
        self.injector = injector
        self.failover = failover
        self.health = health
        self.dag = dag  # repro.dag.DagContext in DAG mode, else None
        self.loop = None
        self._backlog: "deque[Batch]" = deque()
        self._batchers: Dict[str, DynamicBatcher] = {}
        #: The backlog head's last refusal: ``(pick state, deadline)``.
        self._refusal: Optional[Tuple[tuple, float]] = None

    def begin_run(self, loop) -> None:
        """Bind a fresh event loop and reset per-run dispatch state."""
        self.loop = loop
        self._backlog = deque()
        self._refusal = None
        batch_ids = itertools.count()  # per-run ids: faults key on them
        self._batchers = {s: DynamicBatcher(s, self.batch_policy, batch_ids)
                          for s in self.stages}
        for kind in FAULT_KINDS:
            self.registry.counter(FAULT_COUNTER_PREFIX + kind).reset()
        for name in STAGE_COUNTERS.values():
            self.registry.counter(name).reset()
        for stage in self.stages:
            self.registry.counter(STAGE_DONE_PREFIX + stage).reset()

    # -- telemetry ------------------------------------------------------
    def emit(self, t: float, kind: str, **payload) -> None:
        self.bus.emit(t, kind, SERVE_SOURCE, **payload)

    def _count_fault(self, kind: str) -> None:
        self.registry.counter(FAULT_COUNTER_PREFIX + kind).inc()

    def fault_stats(self) -> Dict[str, int]:
        """Injected-fault counts for this run (zero kinds omitted)."""
        out = {}
        for kind in FAULT_KINDS:
            n = self.registry.counter(FAULT_COUNTER_PREFIX + kind).value
            if n:
                out[kind] = n
        return out

    def stage_stats(self) -> Dict[str, object]:
        """The run's stage counters; zero-count stages are omitted from
        ``stage_completions`` (the :meth:`fault_stats` convention)."""
        out: Dict[str, object] = {
            key: self.registry.counter(name).value
            for key, name in STAGE_COUNTERS.items()}
        done = {s: self.registry.counter(STAGE_DONE_PREFIX + s).value
                for s in self.stages}
        out["stage_completions"] = {s: n for s, n in done.items() if n}
        return out

    @property
    def backlog_depth(self) -> int:
        return len(self._backlog)

    # -- event-loop handlers --------------------------------------------
    def on_flush(self, stage: str, now: float) -> None:
        batcher = self._batchers[stage]
        batch = batcher.flush_due(now)
        if batch is not None:
            self.dispatch_or_backlog(batch, now)
        self.arm_flush(stage)
        self.pump_backlog(now)

    def on_complete(self, worker: DeviceWorker, batch: Batch,
                    now: float) -> None:
        worker.complete(batch)
        # FleetHealth.record_success rides this event (see attach()).
        self.emit(now, "complete", stage=batch.stage, device=worker.spec.name,
                  size=len(batch), batch=batch.batch_id)
        self.registry.counter(STAGE_DONE_PREFIX + batch.stage).inc()
        routed = self._next_stages(batch)
        continuing = [(req, nxt) for req, nxt in routed if nxt is not None]
        if continuing:
            if self.dag is not None:
                # Store this stage's artifact for every full-quality
                # member whose chain continues: a later follow-up
                # re-read enters past it.
                fn = self.dag.graph.stage(batch.stage)
                for req, _ in continuing:
                    if req.request_id not in self.lifecycle.degraded_ids:
                        self.dag.artifacts.put(req.content_key, batch.stage,
                                               fn.artifact_bytes)
            for req, nxt in continuing:
                self.add_to_stage(nxt, req, now)
        terminal = [req for req, nxt in routed if nxt is None]
        if terminal:
            batch.requests = terminal
            self.lifecycle.finalize_batch(batch, now)
        self.pump_backlog(now)

    def _next_stages(self, batch: Batch) -> List[Tuple[ScanRequest, object]]:
        """Each member's next stage on its own workload chain (arrival
        order preserved; ``None`` = this stage was its terminal)."""
        return [(req, self.router.next_stage(req.kind, batch.stage))
                for req in batch.requests]

    def on_fail(self, worker: DeviceWorker, batch: Batch, kind: str,
                now: float) -> None:
        """A dispatched batch failed on ``worker`` (fault injection)."""
        worker.fail(batch)
        name = worker.spec.name
        if kind in ("crash", "dead") and worker.alive:
            crash_at = self.injector.crash_time(name) if self.injector else now
            worker.crashed_at = min(crash_at, now)
        self._count_fault(kind)
        # FleetHealth.record_failure / mark_dead ride this event.
        self.emit(now, "fault", device=name, fault=kind, batch=batch.batch_id,
                  stage=batch.stage, size=len(batch), attempt=batch.attempt)
        if self.failover is not None:
            retry_at = self.failover.on_failure(
                batch, name, now, self.healthy_names(now))
            if retry_at is not None:
                self.loop.schedule(retry_at, "retry", batch)
                self.emit(now, "retry", batch=batch.batch_id,
                          attempt=batch.attempt, retry_at=round(retry_at, 6))
                self.pump_backlog(now)
                return
        if self._route_around(batch, now):
            return
        self.lifecycle.shed_batch_fault(batch, now)
        self.pump_backlog(now)

    def _route_around(self, batch: Batch, now: float) -> bool:
        """DAG per-stage resilience: a *skippable* stage that exhausted
        failover degrades its requests (Fig. 13 arm) and forwards them
        to the next stage instead of shedding the whole pipeline."""
        if (self.dag is None or not self.dag.route_around_stage
                or batch.stage not in self.dag.graph.skippable
                or not batch.requests):
            return False
        routed = self._next_stages(batch)
        if any(nxt is None for _, nxt in routed):
            # A skippable stage is never a chain terminal (graph sanity
            # check), but guard against hand-built graphs anyway.
            return False
        self.lifecycle.degrade_batch_around(batch, now)
        batch.requests = []
        for req, nxt in routed:
            self.add_to_stage(nxt, req, now)
        self.pump_backlog(now)
        return True

    def on_retry(self, batch: Batch, now: float) -> None:
        self.dispatch_or_backlog(batch, now)
        self.pump_backlog(now)

    # -- placement ------------------------------------------------------
    def healthy_names(self, now: float) -> Set[str]:
        """Devices that can still take traffic (alive, breaker not DEAD)."""
        from repro.resilience.health import BreakerState

        names = set()
        for w in self.scheduler.workers:
            if not w.alive:
                continue
            if self.injector is not None and not self.injector.alive(
                    w.spec.name, now):
                continue
            if (self.health is not None and
                    self.health.breaker(w.spec.name).state is BreakerState.DEAD):
                continue
            names.add(w.spec.name)
        return names

    def excluded_for(self, batch: Batch, now: float) -> Set[str]:
        excl = set(batch.excluded_devices)
        if self.health is not None:
            excl |= self.health.unavailable(now)
        if batch.excluded_devices and not (
                {w.spec.name for w in self.scheduler.workers} - excl):
            # The batch's own exclusions (plus open breakers) cover the
            # whole fleet — forgive its exclusions rather than strand it.
            batch.excluded_devices.clear()
            excl = (self.health.unavailable(now)
                    if self.health is not None else set())
        return excl

    def add_to_stage(self, stage: str, req: ScanRequest, now: float) -> None:
        batch = self._batchers[stage].add(req, now)
        if batch is not None:
            self.dispatch_or_backlog(batch, now)
        self.arm_flush(stage)

    def arm_flush(self, stage: str) -> None:
        deadline = self._batchers[stage].next_deadline()
        if deadline is not None:
            self.loop.schedule(deadline, "flush", stage)

    def try_dispatch(self, batch: Batch, now: float) -> bool:
        """Place ``batch`` on a device (consulting the fault injector)."""
        worker = self.scheduler.pick(batch, now,
                                     exclude=self.excluded_for(batch, now))
        if worker is None:
            return False
        service = self.service_model.batch_time(worker.spec, batch.stage,
                                                len(batch))
        if self.dag is not None:
            # Clockwork-style charge: swap the stage's weights in if
            # absent (pre), move activations (input/output), then post.
            service = self.dag.batch_seconds(worker.spec, batch.stage,
                                             len(batch), exec_s=service,
                                             now=now)
        outcome = (self.injector.outcome(worker.spec, batch.batch_id, now,
                                         service, batch.attempt)
                   if self.injector is not None else None)
        if self.health is not None:
            self.health.breaker(worker.spec.name).begin_probe()
        detail = dict(stage=batch.stage, device=worker.spec.name,
                      size=len(batch), batch=batch.batch_id)
        if outcome is not None and outcome.fails:
            # Doomed launch: the device is busy until the failure fires.
            self.scheduler.dispatch(worker, batch, now,
                                    service_s=outcome.fail_after_s)
            self.emit(now, "dispatch", service_s=outcome.fail_after_s,
                      fault=outcome.kind, **detail)
            self.loop.schedule(now + outcome.fail_after_s, "fail",
                               (worker, batch, outcome.kind))
            return True
        if outcome is not None:
            service = outcome.service_s
            if outcome.kind != "ok":  # straggler / reconfig survive, slower
                self._count_fault(outcome.kind)
                detail["fault"] = outcome.kind
        done = self.scheduler.dispatch(worker, batch, now, service_s=service)
        self.emit(now, "dispatch", service_s=done - now, **detail)
        self.loop.schedule(done, "complete", (worker, batch))
        return True

    def dispatch_or_backlog(self, batch: Batch, now: float) -> None:
        batch = self.lifecycle.shed_expired(batch, now)
        if not batch.requests:
            return
        if not self.try_dispatch(batch, now):
            self._backlog.append(batch)
            self.emit(now, "backlog", stage=batch.stage, size=len(batch),
                      depth=len(self._backlog))

    def _pick_state(self, batch: Batch) -> tuple:
        """Everything but ``now`` that a placement of ``batch`` reads:
        the batch (its exclusions only change with its attempt) and the
        versions of the fleet, its breakers and DAG residency."""
        return (batch.batch_id, batch.attempt, len(batch),
                self.scheduler.version,
                self.health.version if self.health is not None else None,
                self.dag.residency.version if self.dag is not None else None)

    def refusal_holds(self, batch: Batch, now: float) -> bool:
        """Would re-pricing the backlog head ``batch`` refuse again?

        True while nothing a placement reads has changed since its last
        refusal (:meth:`_pick_state`) and ``now`` is before that
        refusal's deadline.  With the state fixed, time alone cannot
        turn a refusal into a placement: "no free slot" stays true, and
        in a lookahead refusal the free candidates' delays are constant
        while the best delay, a busy worker's, can only fall.  The
        deadline covers the two exceptions: an OPEN breaker's cooldown
        ending (its device becomes eligible), and a free worker whose
        ``free_at`` is still ahead (a warm-up hold, or a second slot),
        whose delay falls with time too.
        """
        return (self._refusal is not None and now < self._refusal[1]
                and self._refusal[0] == self._pick_state(batch))

    def pump_backlog(self, now: float) -> None:
        """Dispatch backlogged batches in order until the head is refused.

        Timeout sheds on the head run first, at every pump; a head whose
        refusal still holds (:meth:`refusal_holds`) is not re-priced.
        """
        while self._backlog:
            batch = self.lifecycle.shed_expired(self._backlog[0], now)
            if not batch.requests:
                self._backlog.popleft()
                continue
            if self.refusal_holds(batch, now):
                return
            if not self.try_dispatch(batch, now):
                deadline = self.scheduler.warm_until(now)
                if self.health is not None:
                    deadline = min(deadline, self.health.half_opens_at)
                self._refusal = (self._pick_state(batch), deadline)
                return
            self._backlog.popleft()

    def shed_all_backlog(self, now: float) -> None:
        """Fleet is gone: shed every backlogged batch (nothing can serve)."""
        while self._backlog:
            self.lifecycle.shed_batch_fault(self._backlog.popleft(), now)
