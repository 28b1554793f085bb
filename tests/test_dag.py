"""Tests for ``repro.dag``: stage-graph serving with placement,
pipelining, model residency, and the intermediate-artifact fast path."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.backend.precision import allclose_ulp
from repro.dag import (
    ArtifactCache,
    DagContext,
    ModelResidency,
    StageFn,
    StageGraph,
    covid_stage_graph,
)
from repro.dag.bench import run_dag_bench
from repro.dag.stage import FPGA_MODEL_SWAP_S, HOST_LINK_GB_S
from repro.hetero import DEVICES, INTEL_ARRIA10, NVIDIA_T4, NVIDIA_V100
from repro.resilience import FaultConfig, ResilienceConfig
from repro.serve import ServiceTimeModel, ServingEngine, make_workload, seir_arrivals
from repro.serve.metrics import summarize, summarize_trace
from repro.serve.scheduler import MONOLITHIC_STAGE, QUANTIFY_STAGE, STAGES
from repro.telemetry import EventBus, MetricsRegistry, export_jsonl, load_jsonl

BENCH_DAG = Path(__file__).resolve().parent.parent / "BENCH_dag.json"


def stage_fn(name="enhance", model="DDnet", space=1.5):
    return StageFn(name=name, model=model, space_gb=space,
                   input_mb=30.0, output_mb=30.0)


# ---------------------------------------------------------------------------
class TestStageFn:
    def test_transfer_time_scales_with_batch(self):
        fn = stage_fn()
        one = fn.transfer_time(1)
        assert one == pytest.approx(60.0 / 1e3 / HOST_LINK_GB_S)
        assert fn.transfer_time(4) == pytest.approx(4 * one)

    def test_load_time_depends_on_device_type(self):
        # FPGA pays the reconfiguration stall to swap weights in;
        # PCIe-attached devices pay space / link bandwidth.
        fn = stage_fn(space=1.6)
        assert fn.load_time(INTEL_ARRIA10) == FPGA_MODEL_SWAP_S
        assert fn.load_time(NVIDIA_V100) == pytest.approx(1.6 / HOST_LINK_GB_S)
        # A device the fleet adds mid-run (a renamed clone) is priced
        # like the preset it was cloned from.
        clone = replace(NVIDIA_T4, name="Nvidia T4 GPU @north +0")
        assert fn.load_time(clone) == fn.load_time(NVIDIA_T4)

    def test_rejects_bad_costs(self):
        with pytest.raises(ValueError):
            stage_fn(space=0.0)
        with pytest.raises(ValueError):
            StageFn("a", "A", 1.0, input_mb=-1.0, output_mb=0.0)


class TestServiceTimeModel:
    def test_batch_time_is_positive_and_non_decreasing(self):
        """The one execution-time source the DAG charges: a bigger
        batch never finishes sooner, on any device or stage."""
        sm = ServiceTimeModel()
        for device in DEVICES.values():
            for stage in STAGES + (QUANTIFY_STAGE, MONOLITHIC_STAGE):
                times = [sm.batch_time(device, stage, b) for b in range(1, 17)]
                where = (device.name, stage)
                assert times[0] > 0, where
                assert all(b >= a for a, b in zip(times, times[1:])), where


# ---------------------------------------------------------------------------
class TestStageGraph:
    def test_covid_graph_structure(self):
        g = covid_stage_graph()
        assert g.stage_names == ("enhance", "segment", "classify")
        assert g.skippable == ("enhance",)
        models = {s.name: s.model for s in g.stages}
        assert models == {"enhance": "DDnet", "segment": "AH-Net",
                          "classify": "DenseNet3D-121"}

    def test_no_enhancement_arm_drops_the_stage(self):
        g = covid_stage_graph(use_enhancement=False)
        assert g.stage_names == ("segment", "classify")
        assert g.skippable == ()

    def test_sanity_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            StageGraph("bad", (stage_fn("a"), stage_fn("a")))

    def test_sanity_rejects_skippable_final_stage(self):
        with pytest.raises(ValueError):
            StageGraph("bad", (stage_fn("a"), stage_fn("b")),
                       skippable=("b",))

    def test_quantify_record_is_appended_last(self):
        g = covid_stage_graph(with_quantify=True)
        assert g.stage_names == ("enhance", "segment", "classify", "quantify")
        assert g.stage("quantify").model == "COVID-Rate-Seg"


# ---------------------------------------------------------------------------
class TestModelResidency:
    def test_resident_model_costs_nothing(self):
        res = ModelResidency([NVIDIA_V100])
        fn = stage_fn()
        first = res.ensure(NVIDIA_V100, fn, 0.0)
        assert first > 0
        assert res.ensure(NVIDIA_V100, fn, 1.0) == 0.0
        assert res.load_penalty(NVIDIA_V100, fn) == 0.0

    def test_fpga_swap_penalty_is_the_reconfig_stall(self):
        fn = covid_stage_graph().stage("classify")
        res = ModelResidency([INTEL_ARRIA10])
        assert res.ensure(INTEL_ARRIA10, fn, 0.0) == FPGA_MODEL_SWAP_S
        assert FPGA_MODEL_SWAP_S == FaultConfig().reconfig_stall_s

    def test_lru_eviction_on_small_device(self):
        bus, reg = EventBus(), MetricsRegistry()
        res = ModelResidency([INTEL_ARRIA10], bus=bus, registry=reg)  # 2 GB
        a, b = stage_fn("a", "A", 1.5), stage_fn("b", "B", 1.5)
        res.ensure(INTEL_ARRIA10, a, 0.0)
        res.ensure(INTEL_ARRIA10, b, 1.0)  # evicts A
        assert res.ensure(INTEL_ARRIA10, a, 2.0) > 0  # A gone again
        assert res.evictions == 2
        assert res.swaps == 3
        swaps = bus.of_kind("model_swap")
        assert len(swaps) == 3
        assert swaps[1].payload["evicted"] == ["A"]
        assert reg.counter("serve.dag.model_swaps").value == 3
        assert reg.counter("serve.dag.model_evictions").value == 2

    def test_oversized_model_never_becomes_resident(self):
        res = ModelResidency([INTEL_ARRIA10])
        huge = stage_fn("huge", "HUGE", space=8.0)
        assert res.ensure(INTEL_ARRIA10, huge, 0.0) > 0
        assert res.ensure(INTEL_ARRIA10, huge, 1.0) > 0  # pays every time
        assert res.snapshot()[INTEL_ARRIA10.name] == []


# ---------------------------------------------------------------------------
class TestArtifactCache:
    def test_deepest_counts_one_hit_or_miss(self):
        cache = ArtifactCache(capacity_mb=100.0)
        cache.put("k", "enhance", 10 * 10 ** 6)
        assert cache.deepest("k", ["segment", "enhance"]) == "enhance"
        assert cache.deepest("other", ["segment", "enhance"]) is None
        s = cache.stats()
        assert s["hits"] == 1 and s["misses"] == 1

    def test_deepest_prefers_later_stage(self):
        cache = ArtifactCache(capacity_mb=100.0)
        cache.put("k", "enhance", 10 ** 6)
        cache.put("k", "segment", 10 ** 6)
        assert cache.deepest("k", ["segment", "enhance"]) == "segment"

    def test_byte_bounded_lru_eviction(self):
        reg = MetricsRegistry()
        cache = ArtifactCache(capacity_mb=25.0, registry=reg)
        for i in range(3):
            cache.put(f"k{i}", "enhance", 10 * 10 ** 6)
        s = cache.stats()
        assert s["evictions"] == 1 and s["entries"] == 2
        assert s["resident_bytes"] == 20 * 10 ** 6
        assert cache.deepest("k0", ["enhance"]) is None  # oldest evicted
        # Registry mirrors the cache's own accounting.
        assert reg.counter("serve.cache.artifact.evictions").value == 1
        assert reg.gauge("serve.cache.artifact.resident_bytes").value == s["resident_bytes"]
        assert reg.gauge("serve.cache.artifact.entries").value == 2

    def test_oversized_artifact_is_not_stored(self):
        cache = ArtifactCache(capacity_mb=100.0)
        cache.put("a", "enhance", 40 * 10 ** 6)
        cache.put("b", "enhance", 40 * 10 ** 6)
        cache.put("c", "enhance", 150 * 10 ** 6)  # larger than the cache
        s = cache.stats()
        assert s["entries"] == 2 and s["evictions"] == 0
        assert s["resident_bytes"] == 80 * 10 ** 6
        assert ("a", "enhance") in cache and ("c", "enhance") not in cache


# ---------------------------------------------------------------------------
class TestEpiArrivals:
    def test_monotone_deterministic_and_validated(self):
        rng = np.random.default_rng(5)
        t, phase = seir_arrivals(100, 4.0, rng)
        t2, phase2 = seir_arrivals(100, 4.0, np.random.default_rng(5))
        assert np.all(np.diff(t) >= 0) and np.all(t >= 0)
        assert np.array_equal(t, t2) and np.array_equal(phase, phase2)
        assert np.all((phase >= 0) & (phase <= 1))
        assert np.all(np.diff(phase) >= 0)
        with pytest.raises(ValueError):
            seir_arrivals(10, 0.0, rng)

    def test_epi_workload_monitoring_concentrates_late(self):
        reqs = make_workload(400, rate_per_s=8.0, pattern="epi", seed=9,
                             monitor_fraction=0.4)
        mon = [r.arrival_s for r in reqs if r.kind == "monitoring"]
        dia = [r.arrival_s for r in reqs if r.kind == "diagnosis"]
        assert mon and dia
        # Monitoring probability scales with the cumulative wave phase,
        # so re-reads cluster after the wave has built up.
        assert np.mean(mon) > np.mean(dia)

    def test_epi_smoke_run_serves_the_stream(self):
        reqs = make_workload(60, rate_per_s=10.0, pattern="epi", seed=3,
                             monitor_fraction=0.3)
        rep = ServingEngine(fleet="gpus", queue_capacity=1000).run(reqs)
        s = rep.summary()
        assert s["completed"] + s["shed_timeout"] == s["requests"]


# ---------------------------------------------------------------------------
class TestServeModes:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            ServingEngine(mode="fused")
        with pytest.raises(ValueError):
            ServingEngine(mode="monolithic", use_enhancement=False)

    def test_monolithic_dispatches_one_pseudo_stage(self):
        reqs = make_workload(20, rate_per_s=10.0, seed=1)
        eng = ServingEngine(mode="monolithic", fleet="gpus",
                            queue_capacity=1000)
        rep = eng.run(reqs)
        stages = {e.payload["stage"] for e in rep.events
                  if e.kind == "dispatch"}
        assert stages == {"pipeline"}
        assert rep.summary()["mode"] == "monolithic"

    def test_dag_mode_emits_stage_events(self):
        reqs = make_workload(30, rate_per_s=10.0, seed=1, dup_fraction=0.3)
        eng = ServingEngine(mode="dag", fleet="mixed", queue_capacity=1000)
        rep = eng.run(reqs)
        s = rep.summary()
        assert s["model_swaps"] == len([e for e in rep.events
                                        if e.kind == "model_swap"]) > 0
        per_stage = {}
        for e in rep.events:
            if e.kind == "complete":
                per_stage[e.payload["stage"]] = per_stage.get(
                    e.payload["stage"], 0) + 1
        assert s["stage_completions"] == per_stage
        assert set(per_stage) <= {"enhance", "segment", "classify"}
        assert s["artifact_cache"]["hits"] == s["artifact_entries"]

    @pytest.mark.parametrize("mode", ["staged", "monolithic"])
    def test_every_mode_reports_the_stage_counters(self, mode):
        reqs = make_workload(20, rate_per_s=10.0, seed=1)
        s = ServingEngine(mode=mode, fleet="gpus",
                          queue_capacity=1000).run(reqs).summary()
        for key in ("model_swaps", "model_evictions", "stages_skipped",
                    "artifact_entries", "stage_degraded_requests"):
            assert s[key] == 0, key
        expected = set(STAGES) if mode == "staged" else {MONOLITHIC_STAGE}
        assert set(s["stage_completions"]) == expected
        assert "artifact_cache" not in s

    def test_batch_seconds_peek_matches_the_dispatch_charge(self):
        graph = covid_stage_graph()
        dag = DagContext(graph, ModelResidency([NVIDIA_V100]), ArtifactCache())
        peek = dag.batch_seconds(NVIDIA_V100, "enhance", 3)
        charged = dag.batch_seconds(NVIDIA_V100, "enhance", 3, exec_s=0.0,
                                    now=0.0)
        assert peek == charged > 0  # both paid the cold swap-in
        warm = dag.batch_seconds(NVIDIA_V100, "enhance", 3)
        fn = graph.stage("enhance")
        assert warm == fn.transfer_time(3) + fn.post_s
        assert peek == pytest.approx(fn.load_time(NVIDIA_V100) + warm)

    def test_release_volume_frees_memoized_scans(self):
        # Satellite 1 regression: terminal requests must not pin their
        # synthesized volume (a serving run over N requests held N
        # full volumes in memory before).
        reqs = make_workload(10, rate_per_s=10.0, seed=2)
        for r in reqs:
            r.materialize()
            assert getattr(r, "_volume", None) is not None
        rep = ServingEngine(fleet="gpus", queue_capacity=1000).run(reqs)
        for r in rep.completed + rep.shed:
            assert getattr(r.request, "_volume", None) is None
        # Released requests still re-materialize deterministically.
        vol = reqs[0].materialize()
        assert vol.shape == (reqs[0].slices, reqs[0].size, reqs[0].size)

    def test_release_volume_is_idempotent(self):
        r = make_workload(1, rate_per_s=1.0, seed=0)[0]
        r.release_volume()  # nothing memoized: safe no-op
        r.materialize()
        r.release_volume()
        assert getattr(r, "_volume", None) is None


# ---------------------------------------------------------------------------
class TestCacheObservability:
    def test_result_cache_counters_mirror_registry(self):
        from repro.serve import ResultCache

        reg = MetricsRegistry()
        cache = ResultCache(capacity=2, registry=reg)
        cache.get("a")
        cache.put("a", object())
        cache.get("a")
        cache.put("b", object())
        cache.put("c", object())  # evicts "a"
        s = cache.stats()
        assert (s["hits"], s["misses"], s["evictions"]) == (1, 1, 1)
        assert reg.counter("serve.cache.result.hits").value == 1
        assert reg.counter("serve.cache.result.misses").value == 1
        assert reg.counter("serve.cache.result.evictions").value == 1
        assert reg.gauge("serve.cache.result.resident_bytes").value == s["resident_bytes"]

    def test_summary_reports_cache_gauges(self):
        reqs = make_workload(40, rate_per_s=10.0, seed=3, dup_fraction=0.5)
        eng = ServingEngine(fleet="gpus", cache_capacity=8,
                            queue_capacity=1000)
        s = eng.run(reqs).summary()
        assert "cache_evictions" in s and "cache_resident_bytes" in s
        assert s["cache_resident_bytes"] == eng.cache.stats()["resident_bytes"]


# ---------------------------------------------------------------------------
class TestMonitoringFastPath:
    def test_warm_monitoring_skips_enhance_and_segment(self):
        reqs = make_workload(60, rate_per_s=20.0, seed=3, dup_fraction=0.0,
                             monitor_fraction=0.4)
        eng = ServingEngine(mode="dag", fleet="mixed", queue_capacity=1000,
                            artifact_cache_mb=16384.0)
        eng.run(reqs)  # cold pass populates the artifact cache
        s = eng.run(reqs).summary()  # warm replay
        # The proof by stage-event counts: nothing but classify runs.
        assert set(s["stage_completions"]) == {"classify"}
        assert s["stages_skipped"] > 0
        assert s["artifact_entries"] > 0

    def test_monitoring_bypasses_the_result_cache(self):
        reqs = make_workload(60, rate_per_s=20.0, seed=3,
                             monitor_fraction=0.4)
        eng = ServingEngine(mode="dag", fleet="mixed", queue_capacity=1000)
        rep = eng.run(reqs)
        monitoring = {r.request.request_id for r in rep.completed
                      if r.request.kind == "monitoring"}
        assert monitoring
        for r in rep.completed:
            if r.request.request_id in monitoring:
                assert not r.from_cache


# ---------------------------------------------------------------------------
class TestRouteAround:
    RES = dict(faults=FaultConfig(seed=11, transient_rate=0.25,
                                  straggler_rate=0.1),
               retry=None)  # first failure exhausts failover

    def test_skippable_stage_failure_degrades_instead_of_shedding(self):
        reqs = make_workload(80, rate_per_s=12.0, seed=7, dup_fraction=0.2,
                             monitor_fraction=0.3)
        on = ServingEngine(mode="dag", fleet="mixed", queue_capacity=1000,
                           resilience=ResilienceConfig(**self.RES)).run(reqs)
        off = ServingEngine(
            mode="dag", fleet="mixed", queue_capacity=1000,
            resilience=ResilienceConfig(route_around_stage=False,
                                        **self.RES)).run(reqs)
        s_on, s_off = on.summary(), off.summary()
        assert s_on["stage_degraded_requests"] > 0
        assert s_off["stage_degraded_requests"] == 0
        assert s_on["shed_fault"] < s_off["shed_fault"]
        # Routed-around requests complete through the Fig. 13 arm.
        assert s_on["degraded_completed"] > 0

    def test_dag_chaos_trace_round_trip_is_bit_identical(self, tmp_path):
        """Satellite 4: a DAG chaos run (stage events, model swaps,
        per-stage degradation) replays bit-identically from JSONL."""
        reqs = make_workload(80, rate_per_s=12.0, seed=7, dup_fraction=0.2,
                             monitor_fraction=0.3)
        rep = ServingEngine(mode="dag", fleet="mixed", queue_capacity=1000,
                            resilience=ResilienceConfig(**self.RES)).run(reqs)
        live = summarize(rep)
        assert live["stage_degraded_requests"] > 0  # chaos actually bit
        assert live["model_swaps"] > 0
        path = str(tmp_path / "dag_chaos.jsonl")
        export_jsonl(path, rep.events)
        replay = summarize_trace(load_jsonl(path))
        for key in ("requests", "completed", "shed_queue_full",
                    "shed_timeout", "shed_fault", "slo_violations",
                    "makespan_s", "throughput_rps", "latency_p50_s",
                    "latency_p95_s", "latency_p99_s", "latency_mean_s",
                    "latency_max_s", "cache_hits", "retries",
                    "degraded_completed",
                    # the DAG block, recounted from stage events alone
                    "model_swaps", "model_evictions", "stages_skipped",
                    "artifact_entries", "stage_degraded_requests",
                    "stage_completions"):
            assert replay[key] == live[key], key


# ---------------------------------------------------------------------------
class TestDagBenchmark:
    @pytest.fixture(scope="class")
    def payload(self):
        # parity=False: functional parity is covered (with a real
        # framework) by TestDagParity below; the arms alone are fast.
        return run_dag_bench(quick=True, parity=False)

    def test_stage_pipelined_beats_monolithic_on_monitoring(self, payload):
        h = payload["headline"]
        assert h["dag_wins_monitoring"]
        assert h["throughput_monitoring_cold"]["speedup"] > 1.0

    def test_warm_replay_skips_enhance_and_segment(self, payload):
        assert payload["headline"]["warm_skips_enhance_segment"]
        warm = payload["arms"]["dag_monitoring_warm"]
        assert set(warm["stage_completions"]) == {"classify"}

    def test_diagnosis_overhead_is_reported_not_hidden(self, payload):
        # The DAG arm honestly pays swap/transfer costs on fresh
        # diagnosis traffic; the payload must not pretend otherwise.
        assert payload["headline"]["dag_overhead_diagnosis"] < 1.0

    def test_arms_and_headline_match_committed_bench(self, payload):
        """Refactor pin: the serving numbers of every arm reproduce the
        committed ``BENCH_dag.json`` exactly."""
        committed = json.loads(BENCH_DAG.read_text())
        assert payload["arms"] == committed["arms"]
        assert payload["headline"] == committed["headline"]
        assert committed["parity_ok"]

    def test_payload_shape(self, payload):
        assert payload["bench"] == "serving_dag"
        assert set(payload["arms"]) == {
            "monolithic_diagnosis", "dag_diagnosis",
            "monolithic_monitoring_cold", "dag_monitoring_cold",
            "monolithic_monitoring_warm", "dag_monitoring_warm"}
        assert payload["parity"]["skipped"] and payload["parity_ok"]


# ---------------------------------------------------------------------------
class TestDagParity:
    @pytest.fixture(scope="class")
    def tiny_framework(self):
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

    def test_dag_mode_is_functionally_identical(self, tiny_framework):
        """Acceptance: DAG serving returns the same diagnoses as the
        monolithic pipeline for every request (same shared framework;
        probabilities may differ only by cross-batch float
        reassociation inside diagnose_batch)."""
        reqs = make_workload(12, rate_per_s=6.0, seed=2, dup_fraction=0.3,
                             size=16, slices=16)
        results = {}
        for mode in ("monolithic", "dag"):
            eng = ServingEngine(mode=mode, fleet="mixed",
                                queue_capacity=1000, verify_batches=10 ** 6,
                                framework=tiny_framework)
            rep = eng.run(reqs)
            results[mode] = {r.request.request_id: r.result
                             for r in rep.completed}
        assert set(results["monolithic"]) == set(results["dag"])
        for rid, mono in results["monolithic"].items():
            dag = results["dag"][rid]
            assert mono is not None and dag is not None
            assert mono.prediction == dag.prediction
            # Batch composition moves the last float32 ulps: the ulp tier.
            assert allclose_ulp(np.array([mono.probability]),
                                np.array([dag.probability]))
