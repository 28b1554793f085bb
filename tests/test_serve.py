"""Tests for the ``repro.serve`` inference-serving subsystem."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.precision import allclose_ulp
from repro.hetero import DEVICES, NVIDIA_T4, NVIDIA_V100, PerfModel
from repro.serve import (
    CACHE_HIT_LATENCY_S,
    MONOLITHIC_STAGE,
    QUANTIFY_STAGE,
    SLO,
    STAGES,
    AdmissionQueue,
    Batch,
    BatchPolicy,
    BatchVerifier,
    DynamicBatcher,
    FleetScheduler,
    ResultCache,
    ScanRequest,
    ServiceTimeModel,
    ServingEngine,
    ShedReason,
    burst_arrivals,
    epidemic_wave_arrivals,
    fleet_from_spec,
    make_workload,
    percentile,
    poisson_arrivals,
)


@pytest.fixture(scope="module")
def service_model():
    return ServiceTimeModel(PerfModel())


def req(i=0, t=0.0, seed=0, **kw):
    return ScanRequest(request_id=i, arrival_s=t, seed=seed, **kw)


# ---------------------------------------------------------------------------
class TestRequests:
    def test_poisson_sorted_and_deterministic(self):
        a = poisson_arrivals(50, 4.0, np.random.default_rng(3))
        b = poisson_arrivals(50, 4.0, np.random.default_rng(3))
        assert np.all(np.diff(a) >= 0) and np.all(a > 0)
        assert np.array_equal(a, b)

    def test_poisson_validates(self):
        with pytest.raises(ValueError):
            poisson_arrivals(10, 0.0, np.random.default_rng(0))

    def test_zero_and_negative_rates_rejected_everywhere(self):
        rng = np.random.default_rng(0)
        for gen in (poisson_arrivals, burst_arrivals, epidemic_wave_arrivals):
            for rate in (0.0, -2.0):
                with pytest.raises(ValueError):
                    gen(10, rate, rng)
        with pytest.raises(ValueError):
            poisson_arrivals(-1, 1.0, rng)
        with pytest.raises(ValueError):
            burst_arrivals(10, 1.0, rng, burst_factor=0.0)
        with pytest.raises(ValueError):
            burst_arrivals(10, 1.0, rng, burst_fraction=1.5)

    def test_empty_streams(self):
        rng = np.random.default_rng(0)
        for gen in (poisson_arrivals, burst_arrivals, epidemic_wave_arrivals):
            t = gen(0, 4.0, rng)
            assert isinstance(t, np.ndarray) and t.shape == (0,)
        assert make_workload(0, rate_per_s=4.0, seed=0) == []

    def test_all_patterns_monotone_nondecreasing(self):
        for pattern in ("poisson", "burst", "wave"):
            reqs = make_workload(200, rate_per_s=6.0, pattern=pattern, seed=11)
            t = np.array([r.arrival_s for r in reqs])
            assert np.all(np.diff(t) >= 0)
            assert np.all(t >= 0)

    def test_burst_compresses_middle(self):
        t = burst_arrivals(300, 1.0, np.random.default_rng(0), burst_factor=8.0)
        gaps = np.diff(t)
        middle = gaps[120:180].mean()
        edges = np.concatenate([gaps[:80], gaps[-80:]]).mean()
        assert middle < edges / 3

    def test_wave_spans_horizon(self):
        t = epidemic_wave_arrivals(100, 2.0, np.random.default_rng(0))
        assert len(t) == 100
        assert np.all(np.diff(t) >= 0)
        assert t[-1] <= 100 / 2.0 + 1e-9

    def test_make_workload_dup_fraction_drives_cacheable_keys(self):
        reqs = make_workload(100, seed=0, dup_fraction=0.5)
        keys = [r.content_key for r in reqs]
        assert len(set(keys)) < len(keys)
        unique = make_workload(100, seed=0, dup_fraction=0.0)
        assert len({r.content_key for r in unique}) == len(unique)

    def test_content_key_is_content_derived(self):
        assert req(1, 0.0, seed=7).content_key == req(2, 9.0, seed=7).content_key
        assert req(1, 0.0, seed=7).content_key != req(1, 0.0, seed=8).content_key
        assert req(1, 0.0, seed=7).content_key != req(1, 0.0, seed=7, covid=True).content_key

    def test_content_key_is_memoized_and_unchanged(self):
        r = req(1, 0.0, seed=7, size=16, slices=4, covid=True)
        tag = "7:16:4:1"
        key = hashlib.sha1(tag.encode()).hexdigest()[:16]
        assert r.content_key == key
        assert r.__dict__["_content_key"] == key
        assert r.content_key is r.content_key
        assert r == req(1, 0.0, seed=7, size=16, slices=4, covid=True)

    def test_materialize_matches_descriptor(self):
        r = req(0, 0.0, seed=5, size=16, slices=4)
        vol = r.materialize()
        assert vol.shape == (4, 16, 16)
        assert np.array_equal(vol, r.materialize())  # pure function of seed

    def test_materialize_is_memoized(self):
        # Retries re-materialize; the synthesis must run only once.
        r = req(0, 0.0, seed=5, size=16, slices=4)
        assert r.materialize() is r.materialize()

    def test_slo_and_pattern_validation(self):
        with pytest.raises(ValueError):
            SLO(deadline_s=-1.0)
        with pytest.raises(ValueError):
            make_workload(5, pattern="diurnal")


# ---------------------------------------------------------------------------
class TestAdmissionQueue:
    def test_backpressure_at_capacity(self):
        q = AdmissionQueue(capacity=2)
        assert q.offer(req(0), 0.0) and q.offer(req(1), 0.1)
        assert not q.offer(req(2), 0.2)  # rejected: full
        q.release(req(0), 0.5)
        assert q.offer(req(3), 0.6)
        assert q.stats.rejected == 1 and q.stats.admitted == 3
        q.check_conservation()

    def test_conservation_with_timeouts(self):
        q = AdmissionQueue(capacity=8)
        rs = [req(i, i * 0.1) for i in range(5)]
        for r in rs:
            q.offer(r, r.arrival_s)
        q.time_out(rs[0], 1.0)
        q.release(rs[1], 2.0)
        q.check_conservation()
        assert q.occupancy == 3
        assert q.stats.as_dict() == {"offered": 5, "admitted": 5, "rejected": 0,
                                     "timed_out": 1, "faulted": 0, "departed": 1}

    def test_underflow_raises(self):
        q = AdmissionQueue(capacity=2)
        with pytest.raises(RuntimeError):
            q.release(req(0), 0.0)

    def test_depth_tracking(self):
        q = AdmissionQueue(capacity=10)
        for i in range(4):
            q.offer(req(i, float(i)), float(i))
        assert q.max_depth() == 4
        assert 0 < q.mean_depth() <= 4

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=0)


# ---------------------------------------------------------------------------
class TestDynamicBatcher:
    def test_size_trigger(self):
        b = DynamicBatcher("enhance", BatchPolicy(max_batch=3, max_wait_s=10.0))
        assert b.add(req(0), 0.0) is None
        assert b.add(req(1), 0.1) is None
        batch = b.add(req(2), 0.2)
        assert batch is not None and len(batch) == 3
        assert b.pending == 0

    def test_wait_trigger(self):
        b = DynamicBatcher("enhance", BatchPolicy(max_batch=8, max_wait_s=0.5))
        b.add(req(0), 1.0)
        assert b.next_deadline() == pytest.approx(1.5)
        assert b.flush_due(1.2) is None  # not due yet
        batch = b.flush_due(1.5)
        assert batch is not None and len(batch) == 1

    def test_overflow_stays_pending(self):
        b = DynamicBatcher("enhance", BatchPolicy(max_batch=2, max_wait_s=1.0))
        b.add(req(0), 0.0)
        batch = b.add(req(1), 0.0)
        assert len(batch) == 2
        b.add(req(2), 0.1)
        assert b.pending == 1
        assert len(b.drain(0.2)) == 1

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait_s=-0.1)


# ---------------------------------------------------------------------------
class TestServiceTimeModel:
    def test_enhance_monotone_in_batch(self, service_model):
        times = [service_model.batch_time(NVIDIA_V100, "enhance", b)
                 for b in (1, 2, 4, 8)]
        assert all(t1 > t0 for t0, t1 in zip(times, times[1:]))

    def test_fleet_heterogeneity_visible(self, service_model):
        v100 = service_model.batch_time(NVIDIA_V100, "enhance", 1)
        xeon = service_model.batch_time(DEVICES["Intel Xeon Gold 6128 CPU"], "enhance", 1)
        fpga = service_model.batch_time(DEVICES["Intel Arria 10 GX 1150 FPGA"], "enhance", 1)
        assert v100 < xeon < fpga

    def test_stage_cost_ordering(self, service_model):
        enhance = service_model.batch_time(NVIDIA_V100, "enhance", 4)
        segment = service_model.batch_time(NVIDIA_V100, "segment", 4)
        classify = service_model.batch_time(NVIDIA_V100, "classify", 4)
        assert segment < classify < enhance

    def test_validation(self, service_model):
        with pytest.raises(ValueError):
            service_model.batch_time(NVIDIA_V100, "triage", 1)
        with pytest.raises(ValueError):
            service_model.batch_time(NVIDIA_V100, "enhance", 0)


class TestFleetScheduler:
    def _batch(self, n=2, stage="enhance"):
        return Batch(0, stage, [req(i) for i in range(n)], 0.0)

    def test_fleet_from_spec(self):
        assert len(fleet_from_spec("all")) == 6
        assert [d.name for d in fleet_from_spec("V100,Xeon")] == [
            "Nvidia V100 GPU", "Intel Xeon Gold 6128 CPU"]
        with pytest.raises(KeyError):
            fleet_from_spec("Nvidia")  # ambiguous

    def test_round_robin_cycles(self, service_model):
        s = FleetScheduler(fleet_from_spec("gpus"), "round-robin", service_model)
        picked = [s.pick(self._batch(), 0.0).spec.name for _ in range(4)]
        assert len(set(picked)) == 4  # visits every device before repeating

    def test_least_loaded_prefers_idle(self, service_model):
        s = FleetScheduler(fleet_from_spec("gpus"), "least-loaded", service_model)
        first = s.pick(self._batch(), 0.0)
        s.dispatch(first, self._batch(), 0.0)
        second = s.pick(self._batch(), 0.0)
        assert second.spec.name != first.spec.name

    def test_perf_aware_prefers_fastest(self, service_model):
        s = FleetScheduler(fleet_from_spec("mixed"), "perf-aware", service_model)
        assert s.pick(self._batch(), 0.0).spec.name == "Nvidia V100 GPU"

    def test_perf_aware_declines_when_best_is_busy(self, service_model):
        s = FleetScheduler([NVIDIA_V100, DEVICES["Intel Arria 10 GX 1150 FPGA"]],
                           "perf-aware", service_model)
        w = s.pick(self._batch(), 0.0)
        s.dispatch(w, self._batch(), 0.0)
        # V100 busy for ~0.4 s; the idle FPGA would take ~17 s — wait.
        assert s.pick(self._batch(), 0.0) is None

    def test_slot_enforcement(self, service_model):
        s = FleetScheduler([NVIDIA_V100], "round-robin", service_model)
        w = s.pick(self._batch(), 0.0)
        s.dispatch(w, self._batch(), 0.0)
        assert s.pick(self._batch(), 0.0) is None
        with pytest.raises(RuntimeError):
            w.begin(0.0, 1.0)

    def test_completion_accounting(self, service_model):
        s = FleetScheduler([NVIDIA_T4], "round-robin", service_model, slots=2)
        b = self._batch(3)
        w = s.pick(b, 0.0)
        done = s.dispatch(w, b, 0.0)
        assert done > 0 and w.in_flight == 1
        w.complete(b)
        assert w.in_flight == 0 and w.requests_done == 3 and w.batches_done == 1
        with pytest.raises(RuntimeError):
            w.complete(b)

    def test_pick_with_every_device_excluded(self, service_model):
        fleet = fleet_from_spec("gpus")
        everyone = {d.name for d in fleet}
        for policy in ("round-robin", "least-loaded", "perf-aware"):
            s = FleetScheduler(fleet, policy, service_model)
            assert s.pick(self._batch(), 0.0, exclude=everyone) is None
        # Partial exclusion still yields a non-excluded worker.
        s = FleetScheduler(fleet, "perf-aware", service_model)
        w = s.pick(self._batch(), 0.0, exclude={"Nvidia V100 GPU"})
        assert w is not None and w.spec.name != "Nvidia V100 GPU"

    def test_failure_accounting(self, service_model):
        s = FleetScheduler([NVIDIA_V100], "round-robin", service_model)
        b = self._batch()
        w = s.pick(b, 0.0)
        s.dispatch(w, b, 0.0)
        w.fail(b)
        assert w.in_flight == 0 and w.batches_failed == 1
        assert w.batches_done == 0 and w.requests_done == 0
        with pytest.raises(RuntimeError):
            w.fail(b)

    def test_policy_validation(self, service_model):
        with pytest.raises(ValueError):
            FleetScheduler([NVIDIA_V100], "random", service_model)
        with pytest.raises(ValueError):
            FleetScheduler([], "round-robin", service_model)


def _three_min_pick(sched, batch, now, exclude):
    """Perf-aware placement as three ``min`` passes: the reference the
    one-pass :meth:`FleetScheduler.pick` must agree with."""
    exclude = exclude or set()
    eligible = [w for w in sched.workers if w.spec.name not in exclude]
    free = [w for w in eligible if w.available]
    if not free:
        return None

    def delay(w):
        d = max(0.0, w.free_at - now) + sched.service_model.batch_time(
            w.spec, batch.stage, len(batch))
        if sched.extra_delay is not None:
            d += sched.extra_delay(w, batch)
        return d
    best = min(eligible, key=lambda w: (delay(w), w.spec.name))
    cand = min(free, key=lambda w: (delay(w), w.spec.name))
    return cand if delay(cand) <= sched.lookahead * delay(best) else None


@st.composite
def _placements(draw):
    """A perf-aware scheduler mid-run, a batch, ``now`` and an exclude set.

    Devices repeat as regional clones (``<base> @rK``, priced as their
    base) and ``free_at`` comes from a few offsets around ``now``, so
    equal delays are common and only the name can decide them.
    """
    now = draw(st.sampled_from([0.0, 3.0]))
    n = draw(st.integers(2, 6))
    bases = draw(st.lists(st.sampled_from(sorted(DEVICES)),
                          min_size=n, max_size=n))
    regions = draw(st.permutations(range(n)))
    fleet = [replace(DEVICES[b], name=f"{b} @r{k}")
             for b, k in zip(bases, regions)]
    penalties = draw(st.one_of(st.none(), st.lists(
        st.sampled_from([0.0, 0.0, 0.02, 0.4, 6.0]), min_size=n, max_size=n)))
    extra_delay = None
    if penalties is not None:
        # DAG-style hook: a per-device swap penalty plus a per-scan term.
        by_name = {d.name: p for d, p in zip(fleet, penalties)}

        def extra_delay(worker, batch):
            extra_delay.calls.append(worker.spec.name)
            return by_name[worker.spec.name] + 0.001 * len(batch)
        extra_delay.calls = []
    lookahead = draw(st.sampled_from([1.0, 2.0, 3.5]))
    workers = []
    for _ in fleet:
        slots = draw(st.integers(1, 2))
        workers.append(dict(
            slots=slots, in_flight=draw(st.integers(0, slots)),
            free_at=now + draw(st.sampled_from([-1.0, 0.0, 0.05, 0.5, 20.0]))))
    names = [d.name for d in fleet]
    exclude = draw(st.one_of(st.none(), st.sets(st.sampled_from(names))))
    stage = draw(st.sampled_from(STAGES + (QUANTIFY_STAGE, MONOLITHIC_STAGE)))
    size = draw(st.integers(1, 8))
    return fleet, workers, extra_delay, lookahead, exclude, stage, size, now


class TestOnePassPick:
    @settings(max_examples=200)
    @given(case=_placements())
    def test_matches_three_min_placement(self, case):
        fleet, workers, extra_delay, lookahead, exclude, stage, size, now = case
        sched = FleetScheduler(fleet, "perf-aware",
                               ServiceTimeModel(PerfModel()),
                               lookahead=lookahead, extra_delay=extra_delay)
        for w, state in zip(sched.workers, workers):
            w.slots, w.in_flight, w.free_at = (
                state["slots"], state["in_flight"], state["free_at"])
        batch = Batch(0, stage, [req(i) for i in range(size)], now)
        want = _three_min_pick(sched, batch, now, exclude)
        if extra_delay is not None:
            extra_delay.calls.clear()
        got = sched.pick(batch, now, exclude=exclude)
        assert got is want
        if extra_delay is not None:
            # One completion estimate per eligible worker, none when
            # no eligible worker has a free slot.
            eligible = [w for w in sched.workers
                        if w.spec.name not in (exclude or set())]
            priced = [w.spec.name for w in eligible] \
                if any(w.available for w in eligible) else []
            assert extra_delay.calls == priced


class TestEventStreamPinned:
    """Both serving modes replay a seeded mixed run event for event.

    Any change to scheduling, batching, faults or DAG placement (where
    the ``extra_delay`` hook runs) shows up as a different stream; only
    a change meant to move serving behaviour may re-record a digest.
    """

    DIGESTS = {
        "staged": "e3642eb606f2fd4b99afa73b26daedb146b856f1ad9723a8a36eefb618d5ee5c",
        "dag": "a9c0ec5315709690cb087deeaf254f1507ed000aa9f33660a39f04d876f9ab09",
    }

    @pytest.mark.parametrize("mode", sorted(DIGESTS))
    def test_seeded_mixed_run_event_stream(self, mode):
        from repro.resilience import FaultConfig, ResilienceConfig, RetryPolicy

        # Past the mixed fleet's capacity, so sheds, retries and
        # lookahead refusals all appear in the stream.
        reqs = make_workload(300, rate_per_s=25.0, seed=7,
                             monitor_fraction=0.3, quantify_fraction=0.1 / 0.7,
                             dup_fraction=0.3 / 0.6)
        engine = ServingEngine(
            mode=mode, workloads=("diagnosis", "monitoring", "quantify"),
            resilience=ResilienceConfig(faults=FaultConfig(seed=7),
                                        retry=RetryPolicy()))
        report = engine.run(reqs)
        assert report.shed and any(e.kind == "retry" for e in report.events)
        h = hashlib.sha256()
        for e in report.events:
            h.update(json.dumps([e.t, e.kind, e.source, e.payload],
                                sort_keys=True).encode() + b"\n")
        assert h.hexdigest() == self.DIGESTS[mode]


# ---------------------------------------------------------------------------
class TestResultCache:
    def test_hit_miss_stats(self):
        c = ResultCache(capacity=4)
        assert c.get("a") is None
        c.put("a", 1)
        assert c.get("a") == 1
        assert c.hits == 1 and c.misses == 1 and c.hit_rate == 0.5

    def test_lru_eviction(self):
        c = ResultCache(capacity=2)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")          # refresh a; b is now LRU
        c.put("c", 3)
        assert "a" in c and "c" in c and "b" not in c
        assert c.evictions == 1

    def test_zero_capacity_never_stores(self):
        c = ResultCache(capacity=0)
        c.put("a", 1)
        assert c.get("a") is None


# ---------------------------------------------------------------------------
class TestEngineInvariants:
    @pytest.fixture(scope="class")
    def workload(self):
        return make_workload(48, rate_per_s=12.0, seed=3, dup_fraction=0.3)

    @pytest.fixture(scope="class")
    def report(self, workload):
        return ServingEngine(fleet="mixed", policy="perf-aware").run(workload)

    def test_conservation(self, report, workload):
        assert len(report.completed) + len(report.shed) == len(workload)
        s = report.queue_stats
        assert s["admitted"] == s["departed"] + s["timed_out"]
        cache_hits = sum(1 for r in report.completed if r.from_cache)
        assert s["offered"] == len(workload) - cache_hits

    def test_trace_timestamps_monotone(self, report):
        ts = [e.t for e in report.events]
        assert all(t1 >= t0 for t0, t1 in zip(ts, ts[1:]))

    def test_no_device_exceeds_slots(self, report):
        in_flight = {}
        for e in report.events:
            if e.kind == "dispatch":
                d = e.payload["device"]
                in_flight[d] = in_flight.get(d, 0) + 1
                assert in_flight[d] <= 1, d
            elif e.kind == "complete":
                in_flight[e.payload["device"]] -= 1
        assert all(v == 0 for v in in_flight.values())
        assert all(w.max_in_flight <= w.slots for w in report.workers)

    def test_latencies_positive_and_ordered(self, report):
        for r in report.completed:
            assert r.latency_s > 0
            assert r.completed_s >= r.request.arrival_s

    def test_cache_hits_are_duplicates_with_fixed_latency(self, report):
        first_seen = set()
        for r in sorted(report.completed, key=lambda r: r.completed_s):
            if r.from_cache:
                assert r.request.content_key in first_seen
                assert r.latency_s == pytest.approx(CACHE_HIT_LATENCY_S)
            else:
                first_seen.add(r.request.content_key)
        assert report.cache_stats["hits"] > 0  # dup_fraction drove real hits

    def test_deterministic_replay(self, workload):
        s1 = ServingEngine(fleet="mixed", policy="perf-aware").run(workload).summary()
        s2 = ServingEngine(fleet="mixed", policy="perf-aware").run(workload).summary()
        assert s1 == s2

    def test_summary_shape(self, report):
        s = report.summary()
        for key in ("throughput_rps", "latency_p50_s", "latency_p95_s",
                    "latency_p99_s", "device_utilization", "cache_hit_rate"):
            assert key in s
        assert set(s["device_utilization"]) == {w.spec.name for w in report.workers}

    def test_backpressure_sheds_under_tiny_queue(self):
        reqs = make_workload(30, rate_per_s=200.0, seed=0, dup_fraction=0.0)
        rep = ServingEngine(fleet="Arria", policy="round-robin",
                            queue_capacity=4).run(reqs)
        assert rep.queue_stats["rejected"] > 0
        assert all(r.shed_reason is ShedReason.QUEUE_FULL for r in rep.shed
                   if r.latency_s is None)

    def test_timeout_shedding_on_slow_fleet(self):
        slo = SLO(deadline_s=1.0, queue_timeout_s=10.0)
        reqs = make_workload(24, rate_per_s=50.0, seed=0, dup_fraction=0.0, slo=slo)
        rep = ServingEngine(fleet="Arria", policy="round-robin",
                            queue_capacity=64).run(reqs)
        assert rep.queue_stats["timed_out"] > 0
        rep.summary()  # conservation holds with sheds in the mix

    def test_perf_aware_beats_round_robin_on_mixed_fleet(self, workload):
        fast = ServingEngine(fleet="mixed", policy="perf-aware").run(workload)
        slow = ServingEngine(fleet="mixed", policy="round-robin").run(workload)
        assert fast.summary()["throughput_rps"] >= slow.summary()["throughput_rps"]


# ---------------------------------------------------------------------------
def _tiny_framework():
    from repro.models import DDnet, DenseNet3D
    from repro.pipeline import ClassificationAI, ComputeCovid19Plus, EnhancementAI

    return ComputeCovid19Plus(
        enhancement=EnhancementAI(
            model=DDnet(base_channels=4, growth=4, num_blocks=2,
                        layers_per_block=2, dense_kernel=3, deconv_kernel=3,
                        rng=np.random.default_rng(0)),
            msssim_levels=1, msssim_window=5),
        classification=ClassificationAI(
            model=DenseNet3D(block_layers=(1, 1, 1, 1), growth=4,
                             init_features=4, rng=np.random.default_rng(0))),
    )


class TestEngineFunctional:
    @pytest.fixture(scope="class")
    def tiny_framework(self):
        return _tiny_framework()

    def test_served_results_are_genuine_and_cache_safe(self, tiny_framework):
        reqs = make_workload(10, rate_per_s=6.0, seed=2, dup_fraction=0.5,
                             size=16, slices=16)
        engine = ServingEngine(fleet="gpus", policy="perf-aware",
                               verify_batches=10**6, framework=tiny_framework)
        rep = engine.run(reqs)
        assert rep.verified_batches > 0
        by_key = {}
        for r in sorted(rep.completed, key=lambda r: r.completed_s):
            assert r.result is not None
            if not r.from_cache:
                by_key[r.request.content_key] = r.result
        # Cache hits never change results: a duplicate's cached result is
        # the one computed from the byte-identical scan.
        for r in rep.completed:
            if r.from_cache:
                assert r.result.probability == by_key[r.request.content_key].probability
        # Served results match running the pipeline directly.
        sample = next(r for r in rep.completed if not r.from_cache)
        direct = tiny_framework.diagnose(sample.request.materialize())
        # A served batch and a lone scan may differ in the last float32 ulps.
        assert allclose_ulp(np.array([direct.probability]),
                            np.array([sample.result.probability]))

    def test_verify_budget_limits_functional_batches(self, tiny_framework):
        reqs = make_workload(12, rate_per_s=6.0, seed=4, dup_fraction=0.0,
                             size=16, slices=16)
        engine = ServingEngine(fleet="gpus", policy="perf-aware",
                               verify_batches=1, framework=tiny_framework)
        rep = engine.run(reqs)
        assert rep.verified_batches == 1
        with_results = [r for r in rep.completed if r.result is not None]
        assert 0 < len(with_results) < len(rep.completed)

    def test_degraded_arm_keeps_the_framework_dtype(self):
        # A float64 framework handed to the engine stays float64 once a
        # degraded batch has built the no-enhancement arm over its stages.
        framework = _tiny_framework().to_dtype(np.float64)
        verifier = BatchVerifier(("enhance", "segment", "classify"), budget=1,
                                 framework=framework)
        reqs = make_workload(2, seed=1, dup_fraction=0.0, size=16, slices=16)
        batch = Batch(batch_id=0, stage="classify", requests=reqs, formed_s=0.0)
        results = verifier.verify(batch, {reqs[0].request_id})
        assert framework.enhancement.model.dtype == np.float64
        assert framework.classification.model.dtype == np.float64
        assert framework.use_enhancement
        assert not results[reqs[0].request_id].enhanced
        assert results[reqs[1].request_id].enhanced
        assert {r.probability.dtype for r in results.values()} == {np.dtype(np.float64)}


# ---------------------------------------------------------------------------
class TestMetrics:
    def test_percentile_nearest_rank(self):
        vals = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(vals, 50) == 3.0
        assert percentile(vals, 95) == 5.0
        assert percentile(vals, 0) == 1.0
        assert np.isnan(percentile([], 50))
        with pytest.raises(ValueError):
            percentile(vals, 101)
