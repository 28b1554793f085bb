"""Tests for the multi-region pandemic-serving fleet (``repro.fleet``)."""

import gc
import json

import pytest

from repro.des import EventLoop
from repro.fleet import (
    COST_PER_HOUR,
    AutoscalerConfig,
    FleetEngine,
    RegionConfig,
    RegionLoop,
    RouterConfig,
    WanCostModel,
    region_cost,
)
from repro.resilience import FaultConfig, ResilienceConfig, RetryPolicy
from repro.serve.metrics import fleet_block, is_fleet_trace, summarize_fleet_trace
from repro.telemetry import TelemetryEvent, export_jsonl, load_jsonl


def small_regions(**north_kw):
    """A tiny 3-region scenario: north undersized, neighbours idle-ish."""
    north = dict(name="north", fleet="Nvidia T4 GPU", r0=7.0,
                 onset_day=0, population=12e6, requests=100, seed=1,
                 queue_capacity=32)
    north.update(north_kw)
    return [
        RegionConfig(**north),
        RegionConfig(name="central", r0=5.5, onset_day=30, population=8e6,
                     requests=30, seed=2),
        RegionConfig(name="south", r0=4.5, onset_day=60, population=5e6,
                     requests=20, seed=3),
    ]


def run_fleet(regions, horizon_s=40.0, **kw):
    return FleetEngine(regions, horizon_s=horizon_s, **kw).run()


def total(summary, key):
    return sum(int(r[key]) for r in summary["regions"].values())


def missed(summary):
    return sum(int(r["slo_violations"]) + int(r["shed_queue_full"])
               + int(r["shed_timeout"]) + int(r["shed_fault"])
               for r in summary["regions"].values())


class TestRegionLoop:
    def test_pending_is_region_local(self):
        loop = EventLoop()
        a = RegionLoop(loop, "a")
        b = RegionLoop(loop, "b")
        seen = []
        a.on("tick", lambda p, now: seen.append(("a", p)))
        b.on("tick", lambda p, now: seen.append(("b", p)))
        a.schedule(1.0, "tick", 1)
        a.schedule(2.0, "tick", 2)
        assert a.pending == 2 and b.pending == 0
        assert loop.pending == 2
        loop.run()
        assert a.pending == 0 and seen == [("a", 1), ("a", 2)]

    def test_kinds_are_namespaced(self):
        loop = EventLoop()
        a = RegionLoop(loop, "a")
        b = RegionLoop(loop, "b")
        seen = []
        a.on("tick", lambda p, now: seen.append("a"))
        b.on("tick", lambda p, now: seen.append("b"))
        b.schedule(1.0, "tick")
        loop.run()
        assert seen == ["b"]
        assert a.pending_of("tick") == 0 and b.pending_of("tick") == 0


class TestFleetEngine:
    def test_rejects_duplicate_region_names(self):
        with pytest.raises(ValueError, match="unique"):
            FleetEngine([RegionConfig(name="x"), RegionConfig(name="x")])

    def test_conservation_per_region(self):
        report = run_fleet(small_regions())
        summary = report.summary()
        for name, r in summary["regions"].items():
            shed = (r["shed_queue_full"] + r["shed_timeout"]
                    + r["shed_fault"])
            assert r["completed"] + shed == r["requests"], name
        # Spillover moves requests between regions but never loses any.
        assert total(summary, "requests") == sum(
            c.requests for c in report.configs.values())

    def test_finished_run_leaves_no_cyclic_garbage(self):
        # Reference counting alone must free a finished run: a cycle
        # through the shared loop or bus would keep every event alive
        # until the cyclic collector happened to run.
        gc.collect()
        gc.disable()
        try:
            run_fleet(small_regions())
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = sum(isinstance(o, TelemetryEvent) for o in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == 0

    def test_shared_loop_run_is_deterministic(self):
        a = run_fleet(small_regions()).summary()
        b = run_fleet(small_regions()).summary()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_spillover_beats_isolated_same_seed(self):
        isolated = run_fleet(small_regions(),
                             router=RouterConfig(spillover=False)).summary()
        spilled = run_fleet(small_regions(),
                            router=RouterConfig(spillover=True)).summary()
        assert spilled["fleet"]["spillover"] > 0
        assert missed(spilled) < missed(isolated)

    def test_requests_stay_local_while_healthy(self):
        # Plenty of capacity everywhere: nothing should spill.
        regions = [RegionConfig(name=n, requests=10, seed=i)
                   for i, n in enumerate(("east", "west"))]
        report = run_fleet(regions, router=RouterConfig(spillover=True))
        assert report.summary()["fleet"]["spillover"] == 0
        assert report.delivered["east"] == 10
        assert report.delivered["west"] == 10

    def test_spilled_requests_pay_wan_latency(self):
        wan = WanCostModel(rtt_s=5.0, gbps=1.0)   # absurd RTT to stand out
        report = run_fleet(small_regions(), wan=wan)
        spills = [e for e in report.events if e.kind == "spill"]
        assert spills, "scenario must actually spill"
        assert all(e.payload["wan_s"] >= 5.0 for e in spills)
        # A spilled request's end-to-end latency includes the WAN leg.
        spilled_ids = {e.payload["request"] for e in spills}
        # Cache-hit dedup completions report the lookup latency, so
        # only full executions witness the end-to-end WAN charge.
        done = {e.payload["request"]: e.payload["latency_s"]
                for e in report.events
                if e.kind == "request_done" and not e.payload["from_cache"]}
        completed_spills = spilled_ids & set(done)
        assert completed_spills
        assert all(done[rid] >= 5.0 for rid in completed_spills)

    def test_wan_cost_model_charges_bytes(self):
        wan = WanCostModel(rtt_s=0.1, gbps=1.0)
        assert wan.delay_s(0) == pytest.approx(0.1)
        assert wan.delay_s(1e9 / 8) == pytest.approx(1.1)
        with pytest.raises(ValueError):
            WanCostModel(rtt_s=-1.0)


class TestAutoscaler:
    def autoscaled(self, **cfg_kw):
        cfg = dict(tick_s=1.0, queue_high=0.25, scale_up_step=3,
                   max_devices=8, provision_delay_s=2.0)
        cfg.update(cfg_kw)
        return run_fleet(small_regions(),
                         router=RouterConfig(spillover=False),
                         autoscaler=AutoscalerConfig(**cfg))

    def test_dag_mode_prices_grown_devices(self):
        # A clone the autoscaler provisions mid-run has a name no preset
        # carries; the DAG's swap-in cost must still price it.
        report = run_fleet(small_regions(), mode="dag",
                           router=RouterConfig(spillover=False),
                           autoscaler=AutoscalerConfig(
                               tick_s=1.0, queue_high=0.25, scale_up_step=3,
                               max_devices=8, provision_delay_s=2.0))
        s = report.summary()
        assert s["fleet"]["devices_provisioned"] > 0
        assert sum(r["model_swaps"] for r in s["regions"].values()) > 0

    def test_scale_up_provisions_after_lag(self):
        report = self.autoscaled(provision_delay_s=4.0)
        ups = [e for e in report.events if e.kind == "scale_up"]
        provs = [e for e in report.events if e.kind == "provision"]
        assert ups and provs
        # Every provision lands exactly provision_delay_s after a
        # scale-up decision in the same region.
        decided = {(e.payload["region"], round(e.payload["ready_at"], 6))
                   for e in ups}
        for p in provs:
            assert (p.payload["region"], round(p.t, 6)) in decided

    def test_autoscaler_restores_slo_attainment(self):
        fixed = run_fleet(small_regions(),
                          router=RouterConfig(spillover=False)).summary()
        scaled = self.autoscaled().summary()
        assert missed(scaled) < missed(fixed)
        assert scaled["fleet"]["devices_provisioned"] > 0

    def test_peak_devices_bounded_by_max(self):
        report = self.autoscaled(max_devices=3)
        for peak in report.peak_devices.values():
            assert peak <= 3

    def test_scale_down_retires_idle_clones(self):
        report = self.autoscaled(scale_down_ticks=2)
        downs = [e for e in report.events if e.kind == "decommission"]
        assert downs, "calm tail should retire grown clones"
        fleet = report.summary()["fleet"]
        assert fleet["devices_decommissioned"] == len(downs)

    def test_warmup_delays_first_dispatch(self):
        report = self.autoscaled(warmup_s=3.0, provision_delay_s=2.0)
        provs = [e for e in report.events if e.kind == "provision"]
        assert provs and all(e.payload["warmup_s"] == 3.0 for e in provs)

    def test_crashed_base_fleet_is_replaced_and_routed_around(self):
        resilience = ResilienceConfig(
            faults=FaultConfig(transient_rate=0.0, straggler_rate=0.0,
                               reconfig_rate=0.0,
                               crash_times={"Nvidia T4 GPU @north": 8.0}),
            retry=RetryPolicy())
        report = run_fleet(
            small_regions(), router=RouterConfig(spillover=True),
            autoscaler=AutoscalerConfig(tick_s=1.0, queue_high=0.25,
                                        scale_up_step=3, max_devices=6),
            resilience=resilience)
        summary = report.summary()
        # The region is not a black hole: spillover and/or replacement
        # capacity keep the fleet-wide miss count tiny.
        assert missed(summary) <= 2
        assert (summary["fleet"]["spillover"] > 0
                or summary["fleet"]["devices_provisioned"] > 0)


class TestCostAccounting:
    def test_region_cost_matches_billed_seconds(self):
        engine = FleetEngine(small_regions(), horizon_s=40.0)
        rep = engine.run()
        for name, region in engine.regions.items():
            workers = region.engine.scheduler.all_workers
            bill = region_cost(workers, rep.makespan_s)
            expect = sum(
                w.billed_s(rep.makespan_s) / 3600.0
                * COST_PER_HOUR[w.spec.device_type] for w in workers)
            assert bill["cost_usd"] == pytest.approx(expect, abs=1e-6)
            assert rep.costs[name] == bill

    def test_static_extra_devices_bill_from_time_zero(self):
        base = run_fleet(small_regions())
        padded = run_fleet(small_regions(static_extra=2))
        assert (padded.costs["north"]["cost_usd"]
                > base.costs["north"]["cost_usd"])


class TestFleetTrace:
    def test_jsonl_round_trip_is_bit_identical(self, tmp_path):
        report = run_fleet(
            small_regions(),
            autoscaler=AutoscalerConfig(tick_s=1.0, queue_high=0.25,
                                        scale_up_step=3, max_devices=8))
        path = tmp_path / "fleet.jsonl"
        export_jsonl(str(path), report.events)
        loaded = load_jsonl(str(path))
        assert is_fleet_trace(loaded)
        live = summarize_fleet_trace(report.events)
        replayed = summarize_fleet_trace(loaded)
        assert json.dumps(live, sort_keys=True) == json.dumps(
            replayed, sort_keys=True)

    def test_trace_fleet_block_matches_live_summary(self):
        report = run_fleet(small_regions())
        assert (summarize_fleet_trace(report.events)["fleet"]
                == report.summary()["fleet"])

    def test_fleet_block_recounts_synthetic_events(self):
        events = [
            TelemetryEvent(0, 0.0, "region_fleet", "t", {"region": "a",
                                                         "devices": 2}),
            TelemetryEvent(1, 0.0, "region_fleet", "t", {"region": "b",
                                                         "devices": 1}),
            TelemetryEvent(2, 1.0, "spill", "t",
                           {"region": "a", "target": "b", "nbytes": 100,
                            "replicated_bytes": 40, "wan_s": 0.1,
                            "request": 7, "kind_of": "diagnosis"}),
            TelemetryEvent(3, 2.0, "provision", "t",
                           {"region": "b", "device": "d +0", "active": 2,
                            "warmup_s": 0.0}),
            TelemetryEvent(4, 3.0, "decommission", "t",
                           {"region": "b", "device": "d +0", "active": 1}),
            TelemetryEvent(5, 4.0, "region_cost", "t",
                           {"region": "a", "cost_usd": 0.5,
                            "device_hours": 0.25}),
            TelemetryEvent(6, 5.0, "done", "t", {"region": "a",
                                                 "request_id": 7}),
        ]
        block = fleet_block(events)
        assert block["spillover"] == 1
        assert block["wan_bytes"] == 100
        assert block["artifact_replication_bytes"] == 40
        assert block["peak_devices"] == {"a": 2, "b": 2}
        assert block["devices_provisioned"] == 1
        assert block["devices_decommissioned"] == 1
        assert block["cost_total_usd"] == pytest.approx(0.5)
        assert block["makespan_s"] == 5.0

    def test_is_fleet_trace_rejects_single_region_traces(self):
        events = [TelemetryEvent(0, 0.0, "request_done", "t",
                                 {"request": 1, "latency_s": 0.5})]
        assert not is_fleet_trace(events)


class TestArtifactReplication:
    def test_replication_keeps_monitoring_fast_path(self):
        # DAG mode + replicate_artifacts: the fleet shares one artifact
        # store, so spilled monitoring re-reads still hit the
        # classify-only fast path — billed as replication bytes.
        regions = small_regions(monitor_fraction=0.6, dup_fraction=0.6)
        plain = run_fleet(
            regions, mode="dag",
            router=RouterConfig(spillover=True)).summary()
        shared = run_fleet(
            regions, mode="dag",
            router=RouterConfig(spillover=True,
                                replicate_artifacts=True)).summary()
        assert plain["fleet"]["artifact_replication_bytes"] == 0
        if shared["fleet"]["spillover"] > 0:
            assert shared["fleet"]["artifact_replication_bytes"] > 0
