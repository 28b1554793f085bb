"""The backlog memo: a refused backlog head is re-priced only when what a
placement reads has changed, or a refusal deadline has passed.

Every skipped re-price is shadowed by the real ``excluded_for`` + ``pick``,
which must refuse too and must emit nothing (a breaker transition the skip
deferred would show as an event).
"""

import pytest

from repro.fleet import AutoscalerConfig, FleetEngine, RegionConfig, RouterConfig
from repro.resilience import FaultConfig, HealthConfig, ResilienceConfig, RetryPolicy
from repro.serve import SCHEDULING_POLICIES, ServingEngine, make_workload
from repro.serve.dispatch import DispatchController


@pytest.fixture
def shadow(monkeypatch):
    """Shadow every skip with the real placement; lists each skip's
    ``(now, end of the earliest warm-up hold then running)``."""
    holds = DispatchController.refusal_holds
    skips = []

    def checked(self, batch, now):
        held = holds(self, batch, now)
        if held:
            mark = self.bus.mark()
            placed = self.scheduler.pick(batch, now,
                                         exclude=self.excluded_for(batch, now))
            assert placed is None, (
                f"skipped a re-price at t={now} that would place batch "
                f"{batch.batch_id} on {placed.spec.name}")
            emitted = self.bus.since(mark)
            assert not emitted, f"skip at t={now} deferred {emitted}"
            skips.append((now, self.scheduler.warm_until(now)))
        return held

    monkeypatch.setattr(DispatchController, "refusal_holds", checked)
    return skips


def mixed_requests(rate):
    return make_workload(160, rate_per_s=rate, seed=3, monitor_fraction=0.3,
                         quantify_fraction=0.15, dup_fraction=0.3)


@pytest.mark.parametrize("slots", [1, 2])
@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize("mode", ["staged", "dag", "monolithic"])
@pytest.mark.parametrize("policy", SCHEDULING_POLICIES)
def test_skipped_reprice_would_refuse(shadow, policy, mode, faults, slots):
    resilience = (ResilienceConfig(faults=FaultConfig(seed=5, transient_rate=0.1),
                                   retry=RetryPolicy())
                  if faults else None)
    engine = ServingEngine(policy=policy, mode=mode, slots_per_device=slots,
                           resilience=resilience,
                           workloads=("diagnosis", "monitoring", "quantify"))
    report = engine.run(mixed_requests(rate=14.0 * slots))
    assert len(report.completed) + len(report.shed) == 160
    assert shadow, "the workload never skipped a re-price"


def test_skip_holds_across_breaker_cooldown(shadow):
    """A breaker's cooldown ends between events: the first pump after it
    re-prices, so the OPEN -> HALF_OPEN transition keeps its instant."""
    resilience = ResilienceConfig(
        faults=FaultConfig(seed=2, transient_rate=0.3, straggler_rate=0.0,
                           reconfig_rate=0.0),
        retry=RetryPolicy(),
        health=HealthConfig(failure_threshold=1, cooldown_s=0.37,
                            heartbeat_s=10.0))
    engine = ServingEngine(fleet="gpus", resilience=resilience)
    report = engine.run(make_workload(160, rate_per_s=30.0, seed=4))
    assert any(e.kind == "breaker_transition"
               and e.payload["state"] == "half_open" for e in report.events)
    assert shadow


def test_skip_holds_across_autoscaler_warmup(shadow):
    """A new device's warm-up hold ends between events: a free worker's
    delay falls with time until then, so the refusal must expire."""
    regions = [
        RegionConfig(name="north", fleet="Nvidia T4 GPU", r0=7.0, onset_day=0,
                     population=12e6, requests=100, seed=1, queue_capacity=32),
        RegionConfig(name="south", r0=4.5, onset_day=60, population=5e6,
                     requests=20, seed=3),
    ]
    report = FleetEngine(
        regions, horizon_s=40.0, router=RouterConfig(spillover=False),
        autoscaler=AutoscalerConfig(tick_s=1.0, queue_high=0.25, scale_up_step=3,
                                    max_devices=8, provision_delay_s=2.0,
                                    warmup_s=3.0)).run()
    assert any(e.kind == "provision" for e in report.events)
    assert any(warm < float("inf") for _, warm in shadow), \
        "no re-price was skipped while a device warmed up"


#: ``try_dispatch`` calls on the ``TestEventStreamPinned`` workload (whose
#: event digests pin that the placements are unchanged); re-pricing the
#: backlog head at every pump made 1,149 (staged) and 1,116 (dag).
PINNED_CALLS = {"staged": 380, "dag": 413}


@pytest.mark.parametrize("mode", sorted(PINNED_CALLS))
def test_memo_cuts_pinned_workload_reprices(monkeypatch, mode):
    calls = []
    try_dispatch = DispatchController.try_dispatch

    def counted(self, batch, now):
        calls.append(now)
        return try_dispatch(self, batch, now)

    monkeypatch.setattr(DispatchController, "try_dispatch", counted)
    reqs = make_workload(300, rate_per_s=25.0, seed=7,
                         monitor_fraction=0.3, quantify_fraction=0.1 / 0.7,
                         dup_fraction=0.3 / 0.6)
    engine = ServingEngine(
        mode=mode, workloads=("diagnosis", "monitoring", "quantify"),
        resilience=ResilienceConfig(faults=FaultConfig(seed=7),
                                    retry=RetryPolicy()))
    engine.run(reqs)
    assert len(calls) == PINNED_CALLS[mode]
