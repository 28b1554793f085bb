"""Tests for the workload registry (``repro.workload``) and the
quantify arm: registry dispatch, chain routing, mixed-kind serving,
per-kind summaries, and lesion quantification accuracy."""

import json

import numpy as np
import pytest

from repro.data import chest_volume
from repro.pipeline.quantification import (
    LESION_HU_THRESHOLD,
    QuantificationAI,
    QuantificationResult,
    percent_of_involvement,
    severity_band,
)
from repro.serve import (
    SLO,
    ScanRequest,
    ServingEngine,
    make_workload,
    summarize,
    summarize_trace,
)
from repro.workload import (
    DEFAULT_WORKLOADS,
    WorkloadRouter,
    WorkloadSpec,
    get_workload,
    register_workload,
    registered_kinds,
)

BASE_STAGES = ("enhance", "segment", "classify")


class TestRegistry:
    def test_builtin_kinds_registered(self):
        assert set(DEFAULT_WORKLOADS) == {"diagnosis", "monitoring"}
        assert {"diagnosis", "monitoring", "quantify"} <= set(registered_kinds())

    def test_unknown_kind_error_lists_registered(self):
        with pytest.raises(ValueError, match="diagnosis"):
            get_workload("histology")

    def test_monitoring_policy_flags(self):
        spec = get_workload("monitoring")
        assert spec.follow_up
        assert not spec.check_result_cache  # fresh read every time
        assert spec.store_result_cache

    def test_quantify_has_own_slo_and_final_stage(self):
        spec = get_workload("quantify")
        assert spec.final_stage == "quantify"
        assert spec.slo.deadline_s != get_workload("diagnosis").slo.deadline_s
        assert spec.verify_batch is not None

    def test_stage_chain_swaps_terminal_stage(self):
        assert get_workload("diagnosis").stage_chain(BASE_STAGES) == BASE_STAGES
        assert get_workload("quantify").stage_chain(BASE_STAGES) == (
            "enhance", "segment", "quantify")

    def test_register_rejects_duplicates_without_replace(self):
        spec = WorkloadSpec(kind="diagnosis", description="dup",
                            slo=SLO())
        with pytest.raises(ValueError, match="diagnosis"):
            register_workload(spec)


class TestWorkloadRouter:
    def test_stages_are_ordered_union(self):
        router = WorkloadRouter(("diagnosis", "quantify"), BASE_STAGES)
        assert router.stages == ("enhance", "segment", "classify", "quantify")

    def test_next_stage_follows_each_chain(self):
        router = WorkloadRouter(("diagnosis", "quantify"), BASE_STAGES)
        assert router.next_stage("diagnosis", "segment") == "classify"
        assert router.next_stage("quantify", "segment") == "quantify"
        assert router.next_stage("diagnosis", "classify") is None
        assert router.next_stage("quantify", "quantify") is None

    def test_monolithic_collapses_every_chain(self):
        router = WorkloadRouter(("diagnosis", "quantify"), BASE_STAGES,
                                monolithic_stage="pipeline")
        assert router.stages == ("pipeline",)
        assert router.chain("quantify") == ("pipeline",)

    def test_unserved_kind_error_names_served(self):
        router = WorkloadRouter(("diagnosis",), BASE_STAGES)
        assert router.serves("diagnosis")
        assert not router.serves("quantify")
        with pytest.raises(ValueError, match="diagnosis"):
            router.chain("quantify")

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ValueError, match="registered"):
            WorkloadRouter(("histology",), BASE_STAGES)


class TestScanRequest:
    def test_unknown_kind_error_lists_registered(self):
        with pytest.raises(ValueError, match="registered kinds"):
            ScanRequest(request_id=0, arrival_s=0.0, seed=1, kind="biopsy")

    def test_is_monitoring_comes_from_registry(self):
        req = ScanRequest(request_id=0, arrival_s=0.0, seed=1,
                          kind="monitoring")
        assert req.is_monitoring
        assert req.workload.follow_up

    def test_quantify_kind_accepted(self):
        req = ScanRequest(request_id=0, arrival_s=0.0, seed=1,
                          kind="quantify")
        assert not req.is_monitoring
        assert req.workload.final_stage == "quantify"


class TestMakeWorkload:
    def test_zero_quantify_fraction_is_bit_identical(self):
        # quantify_fraction=0 must not perturb the RNG stream — the
        # pre-registry workloads replay exactly.
        a = make_workload(50, seed=9, monitor_fraction=0.3)
        b = make_workload(50, seed=9, monitor_fraction=0.3,
                          quantify_fraction=0.0)
        assert [(r.kind, r.seed, r.arrival_s, r.covid) for r in a] == \
               [(r.kind, r.seed, r.arrival_s, r.covid) for r in b]

    def test_quantify_fraction_mixes_kind(self):
        reqs = make_workload(80, seed=9, monitor_fraction=0.2,
                             quantify_fraction=0.3)
        kinds = {r.kind for r in reqs}
        assert kinds == {"diagnosis", "monitoring", "quantify"}
        for r in reqs:
            if r.kind == "quantify":
                assert r.covid  # lesion burden needs lesions
                assert r.slo.deadline_s == get_workload("quantify").slo.deadline_s

    def test_quantify_slo_override(self):
        slow = SLO(deadline_s=300.0)
        reqs = make_workload(40, seed=9, quantify_fraction=0.5,
                             quantify_slo=slow)
        quantify = [r for r in reqs if r.kind == "quantify"]
        assert quantify and all(r.slo.deadline_s == 300.0 for r in quantify)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            make_workload(5, quantify_fraction=1.5)

    def test_pattern_error_lists_valid_patterns(self):
        with pytest.raises(ValueError, match="poisson"):
            make_workload(5, pattern="weibull")


class TestQuantification:
    def test_percent_of_involvement_edges(self):
        lung = np.zeros((2, 4, 4), dtype=bool)
        lesion = np.zeros_like(lung)
        assert percent_of_involvement(lesion, lung) == 0.0
        lung[0] = True
        lesion[0, :2] = True
        assert percent_of_involvement(lesion, lung) == pytest.approx(50.0)
        with pytest.raises(ValueError, match="shapes"):
            percent_of_involvement(lesion[:1], lung)

    def test_severity_bands(self):
        assert severity_band(0.0) == "minimal"
        assert severity_band(10.0) == "mild"
        assert severity_band(30.0) == "moderate"
        assert severity_band(80.0) == "severe"
        with pytest.raises(ValueError):
            severity_band(120.0)

    def test_quantifier_deterministic(self):
        vol = chest_volume(32, 4, covid=True, rng=np.random.default_rng(0))
        q = QuantificationAI()
        a, b = q.quantify(vol), q.quantify(vol)
        assert a == b
        assert isinstance(a, QuantificationResult)
        assert a.severity == severity_band(a.percent_involvement)

    def test_accuracy_against_phantom_ground_truth(self):
        # The per-kind accuracy gate: involvement error vs the lesion
        # phantoms' exact masks stays within the bench tolerance.
        q = QuantificationAI()
        errors = []
        for seed in range(4):
            vol, gt_mask = chest_volume(
                32, 8, covid=True, rng=np.random.default_rng(seed),
                return_lesion_mask=True)
            lung = q.lung_mask(vol)
            gt_pct = percent_of_involvement(gt_mask, lung)
            errors.append(abs(q.quantify(vol).percent_involvement - gt_pct))
        assert np.mean(errors) <= 12.0

    def test_healthy_lung_scores_low(self):
        q = QuantificationAI()
        vol = chest_volume(32, 8, covid=False, rng=np.random.default_rng(5))
        result = q.quantify(vol)
        assert result.percent_involvement < 15.0
        assert LESION_HU_THRESHOLD < -500.0  # below vessel density


@pytest.fixture(scope="module")
def mixed_requests():
    return make_workload(30, seed=7, monitor_fraction=0.3,
                         quantify_fraction=0.25, size=64, slices=16)


class TestMixedServing:
    @pytest.mark.parametrize("mode", ["staged", "dag", "monolithic"])
    def test_mixed_run_completes_all_kinds(self, mixed_requests, mode):
        engine = ServingEngine(mode=mode, queue_capacity=10 ** 6,
                               workloads=("diagnosis", "monitoring",
                                          "quantify"))
        summary = summarize(engine.run(mixed_requests))
        kinds = summary["kinds"]
        assert set(kinds) == {"diagnosis", "monitoring", "quantify"}
        for block in kinds.values():
            assert block["completed"] > 0
            assert 0.0 <= block["slo_attainment"] <= 1.0
        total = sum(b["completed"] + b["shed"] for b in kinds.values())
        assert total == len(mixed_requests)

    def test_quantify_batches_verify_with_quantifier(self):
        # Verifying every batch runs each diagnosis for real, so this test
        # gets its own short mixed stream of small scans (all three kinds,
        # mostly quantify) instead of the shared 64×16 fixture.
        requests = make_workload(6, seed=3, monitor_fraction=0.3,
                                 quantify_fraction=0.7, size=32, slices=16)
        assert {r.kind for r in requests} == {"diagnosis", "monitoring",
                                              "quantify"}
        engine = ServingEngine(mode="staged", verify_batches=10 ** 9,
                               queue_capacity=10 ** 6,
                               workloads=("diagnosis", "monitoring",
                                          "quantify"))
        report = engine.run(requests)
        quantified = [r for r in report.completed
                      if r.request.kind == "quantify" and not r.from_cache]
        assert quantified
        for served in quantified:
            assert isinstance(served.result, QuantificationResult)

    def test_engine_rejects_unserved_kind(self, mixed_requests):
        engine = ServingEngine(mode="staged")  # defaults: no quantify
        with pytest.raises(ValueError, match="does not serve"):
            engine.run(mixed_requests)

    @pytest.mark.parametrize("mode", ["staged", "dag"])
    def test_per_kind_block_trace_round_trip(self, tmp_path, mixed_requests,
                                             mode):
        from repro.telemetry import export_jsonl, load_jsonl

        engine = ServingEngine(mode=mode, queue_capacity=10 ** 6,
                               workloads=("diagnosis", "monitoring",
                                          "quantify"))
        summary = summarize(engine.run(mixed_requests))
        path = str(tmp_path / "trace.jsonl")
        export_jsonl(path, engine.telemetry.events)
        trace_summary = summarize_trace(load_jsonl(path))
        assert json.dumps(summary["kinds"], sort_keys=True) == \
            json.dumps(trace_summary["kinds"], sort_keys=True)

    def test_default_engine_matches_pre_registry_behavior(self):
        # Bit-identity pin: a diagnosis+monitoring stream through the
        # refactored engine must produce the same completions as the
        # registry knows nothing happened.
        requests = make_workload(40, seed=3, monitor_fraction=0.4,
                                 dup_fraction=0.2)
        summary = summarize(ServingEngine(mode="dag").run(requests))
        assert summary["completed"] + summary["shed_queue_full"] \
            + summary["shed_timeout"] == 40
        assert set(summary["kinds"]) <= {"diagnosis", "monitoring"}
