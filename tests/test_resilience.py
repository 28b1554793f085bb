"""Tests for ``repro.resilience``: faults, health, failover, degradation.

The headline chaos test pins the ISSUE-2 acceptance criteria: a
deterministic run in which 2 of 6 devices crash mid-epidemic-wave must
complete strictly more requests with failover than without, strand zero
batches on dead devices, and tag/count degraded-mode results.
"""

import math

import numpy as np
import pytest

from repro.hetero import DEVICES, NVIDIA_V100
from repro.hetero.runtime import InferenceEngine
from repro.resilience import (
    BreakerState,
    CircuitBreaker,
    DegradationController,
    DegradeConfig,
    FailoverManager,
    FaultConfig,
    FaultInjector,
    FleetHealth,
    HealthConfig,
    KernelFault,
    ResilienceConfig,
    RetryPolicy,
    kernel_fault_hook,
)
from repro.serve import (
    Batch,
    ServingEngine,
    ShedReason,
    fleet_from_spec,
    make_workload,
)

MIXED = fleet_from_spec("mixed")
ALL = fleet_from_spec("all")


def req(i=0, t=0.0, seed=0, **kw):
    from repro.serve import ScanRequest

    return ScanRequest(request_id=i, arrival_s=t, seed=seed, **kw)


# ---------------------------------------------------------------------------
class TestFaultInjector:
    def test_outcomes_are_deterministic(self):
        cfg = FaultConfig(seed=5, transient_rate=0.3, straggler_rate=0.3)
        a = FaultInjector(cfg, MIXED)
        b = FaultInjector(cfg, MIXED)
        for bid in range(50):
            oa = a.outcome(MIXED[0], bid, 0.0, 1.0)
            ob = b.outcome(MIXED[0], bid, 0.0, 1.0)
            assert oa == ob

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**70 + 3])
    def test_draws_equal_the_list_seeded_generator(self, seed):
        # Each dispatch seeds from the seed's 32-bit words, split once;
        # its draws must be those of default_rng([seed, ...]).
        inj = FaultInjector(FaultConfig(seed=seed), MIXED)
        for index, device in enumerate(MIXED):
            for batch_id, attempt in [(0, 0), (1, 0), (7, 3), (2**31, 1)]:
                expected = np.random.default_rng(
                    [seed, index, batch_id, attempt]).random(3)
                got = inj._uniforms(device.name, batch_id, attempt)
                assert np.array_equal(got, expected)

    def test_retry_attempt_gets_fresh_luck(self):
        cfg = FaultConfig(seed=1, transient_rate=0.5)
        inj = FaultInjector(cfg, MIXED)
        kinds = {inj.outcome(MIXED[0], 7, 0.0, 1.0, attempt=k).kind
                 for k in range(20)}
        assert "transient" in kinds and "ok" in kinds

    def test_explicit_crash_schedule(self):
        cfg = FaultConfig(seed=0, crash_times={MIXED[0].name: 5.0})
        inj = FaultInjector(cfg, MIXED)
        assert inj.crash_time(MIXED[0].name) == 5.0
        assert inj.alive(MIXED[0].name, 4.9)
        assert not inj.alive(MIXED[0].name, 5.0)
        # Other devices never crash without an mttf.
        assert all(math.isinf(inj.crash_time(d.name)) for d in MIXED[1:])

    def test_dispatch_onto_corpse_fails_fast(self):
        cfg = FaultConfig(seed=0, crash_times={MIXED[0].name: 1.0})
        inj = FaultInjector(cfg, MIXED)
        out = inj.outcome(MIXED[0], 0, 2.0, 10.0)
        assert out.kind == "dead" and out.fails
        assert out.fail_after_s == cfg.detection_s

    def test_crash_mid_service(self):
        cfg = FaultConfig(seed=0, crash_times={MIXED[0].name: 5.0},
                          transient_rate=0.0, straggler_rate=0.0)
        inj = FaultInjector(cfg, MIXED)
        out = inj.outcome(MIXED[0], 0, 4.0, 10.0)
        assert out.kind == "crash" and out.fails
        assert out.fail_after_s == pytest.approx(1.0)

    def test_mttf_draws_crash_times(self):
        cfg = FaultConfig(seed=2, mttf_s=100.0)
        inj = FaultInjector(cfg, ALL)
        times = [inj.crash_time(d.name) for d in ALL]
        assert all(math.isfinite(t) and t > 0 for t in times)
        assert len(set(times)) == len(times)  # independent draws

    def test_max_crashes_caps_failing_devices(self):
        cfg = FaultConfig(seed=2, mttf_s=100.0, max_crashes=2)
        inj = FaultInjector(cfg, ALL)
        finite = [t for t in inj.crash_times.values() if math.isfinite(t)]
        assert len(finite) == 2

    def test_straggler_slows_reconfig_stalls(self):
        fpga = DEVICES["Intel Arria 10 GX 1150 FPGA"]
        cfg = FaultConfig(seed=0, transient_rate=0.0, straggler_rate=1.0,
                          straggler_factor=4.0)
        out = FaultInjector(cfg, [fpga]).outcome(fpga, 0, 0.0, 2.0)
        assert out.kind == "straggler" and out.service_s == pytest.approx(8.0)
        cfg = FaultConfig(seed=0, transient_rate=0.0, straggler_rate=0.0,
                          reconfig_rate=1.0, reconfig_stall_s=0.5)
        out = FaultInjector(cfg, [fpga]).outcome(fpga, 0, 0.0, 2.0)
        assert out.kind == "reconfig" and out.service_s == pytest.approx(2.5)
        # Reconfig stalls never hit non-FPGA devices.
        out = FaultInjector(cfg, MIXED).outcome(NVIDIA_V100, 0, 0.0, 2.0)
        assert out.kind == "ok"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(transient_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(mttf_s=0.0)
        with pytest.raises(ValueError):
            FaultConfig(straggler_factor=0.5)


# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def cfg(self, **kw):
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("cooldown_s", 5.0)
        return HealthConfig(**kw)

    def test_opens_after_k_consecutive_failures(self):
        b = CircuitBreaker("dev", self.cfg())
        for t in (1.0, 2.0):
            b.record_failure(t)
            assert b.state is BreakerState.CLOSED
        b.record_failure(3.0)
        assert b.state is BreakerState.OPEN
        assert not b.allows(3.1)

    def test_success_resets_consecutive_count(self):
        b = CircuitBreaker("dev", self.cfg())
        b.record_failure(1.0)
        b.record_failure(2.0)
        b.record_success(3.0)
        b.record_failure(4.0)
        b.record_failure(5.0)
        assert b.state is BreakerState.CLOSED  # never hit 3 consecutive

    def test_half_open_probe_then_close(self):
        b = CircuitBreaker("dev", self.cfg())
        for t in (1.0, 2.0, 3.0):
            b.record_failure(t)
        assert not b.allows(4.0)           # still cooling down
        assert b.allows(8.0)               # cooldown elapsed -> half-open
        assert b.state is BreakerState.HALF_OPEN
        b.begin_probe()
        assert not b.allows(8.1)           # one probe at a time
        b.record_success(9.0)
        assert b.state is BreakerState.CLOSED
        assert b.allows(9.1)

    def test_failed_probe_reopens_with_longer_cooldown(self):
        b = CircuitBreaker("dev", self.cfg(cooldown_factor=2.0))
        for t in (1.0, 2.0, 3.0):
            b.record_failure(t)
        assert b.allows(8.0)
        b.begin_probe()
        b.record_failure(9.0)
        assert b.state is BreakerState.OPEN
        assert b.cooldown_s == pytest.approx(10.0)
        assert not b.allows(9.0 + 9.99)
        assert b.allows(9.0 + 10.01)

    def test_dead_is_terminal(self):
        b = CircuitBreaker("dev", self.cfg())
        b.mark_dead(1.0)
        assert b.state is BreakerState.DEAD
        b.record_success(2.0)
        assert b.state is BreakerState.DEAD
        assert not b.allows(100.0)

    def test_fleet_health_heartbeat_marks_dead(self):
        fh = FleetHealth(["a", "b"], self.cfg())
        newly = fh.on_heartbeat(1.0, alive=lambda n: n != "b")
        assert newly == {"b"}
        assert fh.dead() == {"b"}
        assert fh.unavailable(1.0) == {"b"}
        assert fh.any_alive()
        fh.on_heartbeat(2.0, alive=lambda n: False)
        assert not fh.any_alive()

    def test_health_config_validation(self):
        with pytest.raises(ValueError):
            HealthConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            HealthConfig(heartbeat_s=0.0)


# ---------------------------------------------------------------------------
class TestFailover:
    def batch(self, n=2):
        return Batch(0, "enhance", [req(i) for i in range(n)], 0.0)

    def test_backoff_is_exponential_and_capped(self):
        p = RetryPolicy(backoff_base_s=0.5, backoff_factor=2.0, backoff_max_s=3.0)
        assert p.backoff_s(1) == 0.5
        assert p.backoff_s(2) == 1.0
        assert p.backoff_s(3) == 2.0
        assert p.backoff_s(4) == 3.0  # capped
        with pytest.raises(ValueError):
            p.backoff_s(0)

    def test_failure_excludes_device_and_schedules_retry(self):
        fm = FailoverManager(RetryPolicy(max_retries=2, backoff_base_s=1.0))
        b = self.batch()
        retry_at = fm.on_failure(b, "gpu0", 10.0, healthy={"gpu0", "gpu1"})
        assert retry_at == pytest.approx(11.0)
        assert b.attempt == 1 and b.excluded_devices == {"gpu0"}
        assert fm.retries == 1

    def test_bounded_retries_then_give_up(self):
        fm = FailoverManager(RetryPolicy(max_retries=1))
        b = self.batch()
        assert fm.on_failure(b, "gpu0", 0.0, healthy={"gpu1"}) is not None
        assert fm.on_failure(b, "gpu1", 1.0, healthy={"gpu1"}) is None
        assert fm.gave_up == 1

    def test_no_healthy_devices_gives_up_immediately(self):
        fm = FailoverManager(RetryPolicy(max_retries=5))
        assert fm.on_failure(self.batch(), "gpu0", 0.0, healthy=set()) is None

    def test_exclusions_forgiven_when_covering_healthy_fleet(self):
        fm = FailoverManager(RetryPolicy(max_retries=5))
        b = self.batch()
        fm.on_failure(b, "gpu0", 0.0, healthy={"gpu0", "gpu1"})
        retry_at = fm.on_failure(b, "gpu1", 1.0, healthy={"gpu0", "gpu1"})
        assert retry_at is not None
        assert b.excluded_devices == set()  # forgiven, not stranded

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


# ---------------------------------------------------------------------------
class TestDegradationController:
    def cfg(self, **kw):
        kw.setdefault("queue_high", 10)
        kw.setdefault("queue_low", 2)
        kw.setdefault("p95_high_s", 5.0)
        kw.setdefault("min_dwell_s", 1.0)
        return DegradeConfig(**kw)

    def test_enters_on_queue_pressure_with_hysteresis(self):
        c = DegradationController(self.cfg())
        assert not c.evaluate(0.0, 5)
        assert c.evaluate(1.0, 12)          # above high watermark
        assert c.evaluate(2.0, 5)           # between watermarks: stays degraded
        assert not c.evaluate(3.5, 1)       # below low watermark: recovers
        assert [m for _, m in c.switches] == ["degraded", "full"]

    def test_enters_on_latency_pressure(self):
        c = DegradationController(self.cfg())
        for _ in range(10):
            c.record_latency(9.0)
        assert c.evaluate(1.0, 0)
        assert c.p95_s() == pytest.approx(9.0)

    def test_min_dwell_prevents_flapping(self):
        c = DegradationController(self.cfg(min_dwell_s=10.0))
        assert c.evaluate(0.0, 12)
        assert c.evaluate(1.0, 0)           # wants to recover, dwell blocks
        assert not c.evaluate(11.0, 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DegradeConfig(queue_high=4, queue_low=8)
        with pytest.raises(ValueError):
            DegradeConfig(p95_high_s=0.0)


# ---------------------------------------------------------------------------
class TestKernelFaultHook:
    def _tiny_engine(self, hook):
        from repro.models import DDnet

        model = DDnet(base_channels=4, growth=4, num_blocks=2,
                      layers_per_block=2, dense_kernel=3, deconv_kernel=3,
                      rng=np.random.default_rng(0))
        return InferenceEngine(model, NVIDIA_V100, fault_hook=hook)

    def test_hook_slows_modelled_time_only(self):
        x = np.random.default_rng(1).normal(size=(1, 1, 16, 16))
        clean_engine = self._tiny_engine(None)
        out_clean, trace_clean = clean_engine.run(x)
        slow_engine = self._tiny_engine(
            kernel_fault_hook(seed=0, slow_rate=1.0, slow_factor=3.0))
        out_slow, trace_slow = slow_engine.run(x)
        np.testing.assert_allclose(out_slow, out_clean)  # results untouched
        assert trace_slow.modelled_time_s == pytest.approx(
            3.0 * trace_clean.modelled_time_s)

    def test_hook_raises_deterministically(self):
        x = np.random.default_rng(1).normal(size=(1, 1, 16, 16))
        with pytest.raises(KernelFault):
            self._tiny_engine(kernel_fault_hook(seed=3, failure_rate=0.05)).run(x)
        # Same seed, fresh hook: the identical launch fails again.
        try:
            self._tiny_engine(kernel_fault_hook(seed=3, failure_rate=0.05)).run(x)
        except KernelFault as exc:
            first = str(exc)
        try:
            self._tiny_engine(kernel_fault_hook(seed=3, failure_rate=0.05)).run(x)
        except KernelFault as exc:
            assert str(exc) == first

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            kernel_fault_hook(failure_rate=2.0)


# ---------------------------------------------------------------------------
# The ISSUE-2 acceptance scenario: 2 of 6 devices crash mid-epidemic-wave.
# ---------------------------------------------------------------------------
class TestChaosServing:
    SEED = 7

    @pytest.fixture(scope="class")
    def workload(self):
        return make_workload(200, rate_per_s=12.0, pattern="wave",
                             seed=self.SEED, dup_fraction=0.2)

    @pytest.fixture(scope="class")
    def fault_config(self, workload):
        horizon = workload[-1].arrival_s
        # The two fastest GPUs die mid-wave: maximal damage.
        return FaultConfig(seed=3, transient_rate=0.05, straggler_rate=0.05,
                           crash_times={
                               "Nvidia V100 GPU": 0.45 * horizon,
                               "Nvidia P100 GPU": 0.55 * horizon,
                           })

    def _run(self, workload, fault_config, retry, degrade=None):
        resilience = ResilienceConfig(faults=fault_config, retry=retry,
                                      degrade=degrade)
        engine = ServingEngine(fleet="all", policy="perf-aware",
                               resilience=resilience)
        return engine.run(workload)

    @pytest.fixture(scope="class")
    def with_failover(self, workload, fault_config):
        return self._run(workload, fault_config, RetryPolicy(),
                         DegradeConfig())

    @pytest.fixture(scope="class")
    def without_failover(self, workload, fault_config):
        return self._run(workload, fault_config, None, DegradeConfig())

    def test_two_devices_died_midwave(self, with_failover):
        crashed = [w for w in with_failover.workers if not w.alive]
        assert len(crashed) == 2
        assert {w.spec.name for w in crashed} == {
            "Nvidia V100 GPU", "Nvidia P100 GPU"}
        states = with_failover.health_states
        assert states["Nvidia V100 GPU"] == "dead"
        assert states["Nvidia P100 GPU"] == "dead"
        avail = with_failover.availability
        assert 0.0 < avail["Nvidia V100 GPU"] < 1.0
        assert all(avail[w.spec.name] == 1.0 for w in with_failover.workers
                   if w.alive)

    def test_failover_completes_strictly_more(self, with_failover,
                                              without_failover):
        assert len(with_failover.completed) > len(without_failover.completed)
        # The no-failover arm sheds every faulted batch outright.
        assert without_failover.queue_stats["faulted"] > 0
        assert without_failover.retries == 0
        assert with_failover.retries > 0

    def test_zero_batches_stranded_on_dead_devices(self, with_failover):
        # Every dispatched batch resolved: no in-flight work anywhere,
        # dead devices included, and the admission ledger balances to 0.
        assert all(w.in_flight == 0 for w in with_failover.workers)
        s = with_failover.queue_stats
        assert s["admitted"] == s["departed"] + s["timed_out"] + s["faulted"]
        # Trace-level check: every dispatch has a matching complete/fail.
        open_batches = {}
        for e in with_failover.events:
            if e.kind == "dispatch":
                open_batches[(e.payload["device"], e.payload["batch"])] = e
            elif e.kind in ("complete", "fault"):
                open_batches.pop((e.payload["device"], e.payload["batch"]), None)
        assert not open_batches
        # And nothing was dispatched to a device after its detected death.
        death = {w.spec.name: w.crashed_at for w in with_failover.workers
                 if not w.alive}
        for e in with_failover.events:
            if e.kind == "dispatch" and e.payload["device"] in death:
                assert e.t <= death[e.payload["device"]] + 1e-9 \
                    or e.payload.get("fault") in ("dead", "crash")

    def test_every_offered_request_accounted(self, with_failover, workload):
        cache_hits = sum(1 for r in with_failover.completed if r.from_cache)
        assert (len(with_failover.completed) + len(with_failover.shed)
                == len(workload))
        assert with_failover.queue_stats["offered"] == len(workload) - cache_hits
        for r in with_failover.shed:
            assert r.shed_reason in (ShedReason.QUEUE_FULL, ShedReason.TIMEOUT,
                                     ShedReason.FAULT)

    def test_degraded_results_tagged_and_counted(self, with_failover):
        summary = with_failover.summary()
        degraded = [r for r in with_failover.completed if r.degraded]
        assert degraded, "fleet shrink under wave load must trigger degradation"
        assert summary["degraded_completed"] == len(degraded)
        assert summary["degrade_switches"] == len(with_failover.degrade_log)
        assert summary["degrade_switches"] >= 1
        assert with_failover.degrade_log[0][1] == "degraded"

    def test_chaos_run_is_deterministic(self, workload, fault_config):
        a = self._run(workload, fault_config, RetryPolicy(), DegradeConfig())
        b = self._run(workload, fault_config, RetryPolicy(), DegradeConfig())
        assert a.summary() == b.summary()

    def test_fault_shed_carries_distinct_reason(self, without_failover):
        fault_shed = [r for r in without_failover.shed
                      if r.shed_reason is ShedReason.FAULT]
        assert len(fault_shed) == without_failover.queue_stats["faulted"]
        assert fault_shed, "no-failover arm must shed faulted batches"

    def test_summary_surfaces_resilience_counters(self, with_failover):
        s = with_failover.summary()
        for key in ("shed_fault", "fault_events", "retries", "retries_gave_up",
                    "device_availability", "degraded_completed",
                    "breaker_states", "device_failures"):
            assert key in s
        assert s["fault_events"], "chaos run must record fault events"


# ---------------------------------------------------------------------------
class TestResilientEngineEdges:
    def test_whole_fleet_dies_everything_resolves(self):
        reqs = make_workload(30, rate_per_s=10.0, seed=1, dup_fraction=0.0)
        cfg = FaultConfig(seed=0, crash_times={
            "Nvidia V100 GPU": 0.5, "Nvidia T4 GPU": 0.6})
        res = ResilienceConfig(faults=cfg, retry=RetryPolicy(max_retries=2))
        rep = ServingEngine(fleet="V100,T4", policy="perf-aware",
                            resilience=res).run(reqs)
        assert len(rep.completed) + len(rep.shed) == len(reqs)
        assert all(w.in_flight == 0 for w in rep.workers)
        assert not rep.health_states or all(
            v == "dead" for v in rep.health_states.values())

    def test_transients_recovered_without_crashes(self):
        reqs = make_workload(60, rate_per_s=10.0, seed=2, dup_fraction=0.0)
        cfg = FaultConfig(seed=1, transient_rate=0.25, straggler_rate=0.0)
        rep = ServingEngine(fleet="gpus", policy="perf-aware",
                            resilience=ResilienceConfig(faults=cfg)).run(reqs)
        assert rep.fault_stats.get("transient", 0) > 0
        assert rep.retries > 0
        # Failover swallowed every transient: nothing shed for faults.
        assert rep.queue_stats["faulted"] == 0
        assert len(rep.completed) == len(reqs)

    def test_fault_free_resilient_run_matches_plain_run(self):
        reqs = make_workload(40, rate_per_s=10.0, seed=3, dup_fraction=0.3)
        plain = ServingEngine(fleet="mixed", policy="perf-aware").run(reqs)
        armed = ServingEngine(fleet="mixed", policy="perf-aware",
                              resilience=ResilienceConfig()).run(reqs)
        # Heartbeats may pad the makespan (throughput denominator) by up
        # to one tick, but every per-request outcome must be identical.
        for key in ("completed", "latency_p50_s", "latency_p95_s",
                    "latency_p99_s", "cache_hits"):
            assert plain.summary()[key] == armed.summary()[key]
        assert [(r.request.request_id, r.completed_s)
                for r in plain.completed] == \
               [(r.request.request_id, r.completed_s)
                for r in armed.completed]

    def test_degradation_under_pure_overload(self):
        # No faults at all: a slow fleet + hot wave still triggers the
        # no-enhancement arm purely from queue depth.
        reqs = make_workload(80, rate_per_s=40.0, seed=4, dup_fraction=0.0)
        res = ResilienceConfig(degrade=DegradeConfig(queue_high=10, queue_low=2))
        rep = ServingEngine(fleet="mixed", policy="perf-aware",
                            queue_capacity=128, resilience=res).run(reqs)
        degraded = [r for r in rep.completed if r.degraded]
        assert degraded
        assert rep.summary()["degraded_completed"] == len(degraded)
