"""The telemetry spine: event bus, metrics registry, spans, DES kernel.

The headline tests pin the PR-3 acceptance criteria: one chaos run in
which kernel launches, shed decisions, failover retries, breaker
transitions, and heartbeats all land on a *single* event bus, and a
``serve --trace-out`` → ``trace summary`` round trip whose latency
percentiles, throughput, and completed/shed counts are bit-identical
to the live summary.
"""

import json
import math

import re

import numpy as np
import pytest

from repro.backend.counters import OpCounts
from repro.des import EventLoop
from repro.hetero import NVIDIA_V100
from repro.hetero.runtime import ExecutionTrace, InferenceEngine
from repro.models.ddnet import DDnet
from repro.resilience import (
    DegradeConfig,
    FaultConfig,
    ResilienceConfig,
    RetryPolicy,
)
from repro.serve import ServingEngine, make_workload
from repro.serve.metrics import summarize, summarize_trace
from repro.telemetry import EventBus, MetricsRegistry, export_jsonl, load_jsonl, open_span, percentile, spans_from_events


# ---------------------------------------------------------------------------
class TestEventBus:
    def test_emit_appends_in_seq_order(self):
        bus = EventBus()
        bus.emit(1.0, "a", "src", x=1)
        bus.emit(0.5, "b", "other")
        assert [e.seq for e in bus.events] == [0, 1]
        assert bus.events[0].payload == {"x": 1}
        assert len(bus) == 2

    def test_subscribers_are_kind_filtered_and_synchronous(self):
        bus = EventBus()
        seen, everything = [], []
        bus.subscribe(seen.append, kinds=("a",))
        bus.subscribe(everything.append)
        bus.emit(0.0, "a")
        bus.emit(0.0, "b")
        assert [e.kind for e in seen] == ["a"]
        assert [e.kind for e in everything] == ["a", "b"]

    def test_mark_and_since_scope_a_view(self):
        bus = EventBus()
        bus.emit(0.0, "a")
        mark = bus.mark()
        bus.emit(1.0, "b")
        assert [e.kind for e in bus.since(mark)] == ["b"]

    def test_of_kind_and_kinds(self):
        bus = EventBus()
        bus.emit(0.0, "a")
        bus.emit(1.0, "b")
        bus.emit(2.0, "a")
        assert [e.t for e in bus.of_kind("a")] == [0.0, 2.0]
        assert bus.kinds() == {"a", "b"}

    def test_jsonl_round_trip_is_lossless(self, tmp_path):
        bus = EventBus()
        bus.emit(0.1234567890123456, "launch", "hetero",
                 counts=OpCounts(loads=3, stores=1, flops=7),
                 tags={"nested": [1, 2.5, "x"]}, flag=True, nothing=None)
        path = str(tmp_path / "events.jsonl")
        assert export_jsonl(path, bus.events) == 1
        (loaded,) = load_jsonl(path)
        assert loaded.t == bus.events[0].t  # floats exact through repr
        assert loaded.kind == "launch" and loaded.source == "hetero"
        assert loaded.payload["counts"] == {"loads": 3, "stores": 1,
                                            "flops": 7}
        assert loaded.payload["tags"] == {"nested": [1, 2.5, "x"]}
        assert loaded.payload["flag"] is True
        assert loaded.payload["nothing"] is None

    def test_numpy_scalars_export_as_numbers(self, tmp_path):
        bus = EventBus()
        bus.emit(0.0, "k", v=np.float64(0.25), n=np.int64(3))
        path = str(tmp_path / "np.jsonl")
        export_jsonl(path, bus.events)
        (loaded,) = load_jsonl(path)
        assert loaded.payload == {"v": 0.25, "n": 3}

    @staticmethod
    def _trace_with(tmp_path, bad_line):
        path = tmp_path / "bad.jsonl"
        good = '{"seq":0,"t":0.0,"kind":"arrival","source":"s","payload":{}}'
        path.write_text(f"{good}\n\n{bad_line}\n{good}\n")
        return str(path)

    def test_line_without_seq_names_file_line_and_field(self, tmp_path):
        path = self._trace_with(tmp_path, '{"t":1.0,"kind":"arrival"}')
        with pytest.raises(ValueError, match=rf"^{re.escape(path)}:3: .*'seq'"):
            load_jsonl(path)

    def test_broken_line_names_file_and_line(self, tmp_path):
        path = self._trace_with(tmp_path, '{"seq":1,"t":1.0,"kind":')
        with pytest.raises(ValueError, match=rf"^{re.escape(path)}:3: not a JSON line"):
            load_jsonl(path)

    def test_non_object_line_is_refused(self, tmp_path):
        path = self._trace_with(tmp_path, "[1, 2]")
        with pytest.raises(ValueError, match=rf"^{re.escape(path)}:3: expected a JSON object"):
            load_jsonl(path)


# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_instruments_created_on_first_touch(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(2.0)
        assert reg.counter("c").value == 3
        assert reg.gauge("g").value == 1.5
        snap = reg.as_dict()
        assert snap["c"] == 3 and snap["g"] == 1.5
        assert snap["h"]["count"] == 1 and snap["h"]["p50"] == 2.0

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_histogram_empty_is_nan(self):
        h = MetricsRegistry().histogram("h")
        assert math.isnan(h.mean()) and math.isnan(h.max())
        assert math.isnan(h.percentile(50))

    def test_percentile_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)


# ---------------------------------------------------------------------------
class TestSpans:
    def test_span_event_and_reconstruction(self):
        bus = EventBus()
        span = open_span(bus, "inference", source="hetero", t_start=1.0)
        span.close(3.5, device="V100")
        (rebuilt,) = spans_from_events(bus.events)
        assert rebuilt.name == "inference" and rebuilt.source == "hetero"
        assert rebuilt.t_start == 1.0 and rebuilt.t_end == 3.5
        assert rebuilt.duration_s == 2.5
        assert rebuilt.attrs == {"device": "V100"}

    def test_double_close_raises(self):
        span = open_span(EventBus(), "s")
        span.close(1.0)
        with pytest.raises(RuntimeError):
            span.close(2.0)

    def test_close_before_start_raises(self):
        span = open_span(EventBus(), "s", t_start=5.0)
        with pytest.raises(ValueError):
            span.close(4.0)

    def test_spans_survive_jsonl(self, tmp_path):
        bus = EventBus()
        open_span(bus, "epoch", source="trainer", t_start=0.0).close(
            10.0, loss=0.5)
        path = str(tmp_path / "spans.jsonl")
        export_jsonl(path, bus.events)
        (span,) = spans_from_events(load_jsonl(path))
        assert span.duration_s == 10.0 and span.attrs == {"loss": 0.5}


# ---------------------------------------------------------------------------
class TestEventLoop:
    def test_pops_in_time_then_insertion_order(self):
        loop = EventLoop()
        order = []
        loop.on("k", lambda payload, now: order.append((payload, now)))
        loop.schedule(2.0, "k", "late")
        loop.schedule(1.0, "k", "early")
        loop.schedule(1.0, "k", "early2")  # same t: insertion order
        assert loop.run() == 2.0
        assert [p for p, _ in order] == ["early", "early2", "late"]

    def test_clock_never_goes_backwards(self):
        loop = EventLoop()
        seen = []
        loop.on("k", lambda payload, now: seen.append(now))
        loop.schedule(5.0, "k")
        loop.schedule(1.0, "k")
        loop.run()
        assert seen == sorted(seen)

    def test_handlers_can_schedule_more(self):
        loop = EventLoop()

        def chain(payload, now):
            if payload < 3:
                loop.schedule(now + 1.0, "k", payload + 1)

        loop.on("k", chain)
        loop.schedule(0.0, "k", 0)
        assert loop.run() == 3.0
        assert loop.processed == 4

    def test_unregistered_kind_raises(self):
        loop = EventLoop()
        loop.schedule(0.0, "mystery")
        with pytest.raises(KeyError):
            loop.step()

    def test_step_on_empty_returns_none(self):
        assert EventLoop().step() is None


# ---------------------------------------------------------------------------
class TestExecutionTraceView:
    @pytest.fixture(scope="class")
    def net(self):
        return DDnet(base_channels=4, growth=4, num_blocks=2,
                     layers_per_block=2, dense_kernel=3, deconv_kernel=3,
                     rng=np.random.default_rng(0)).eval()

    def test_trace_is_view_over_bus_events(self, net):
        bus = EventBus()
        engine = InferenceEngine(net, NVIDIA_V100, bus=bus)
        _, trace = engine.run(np.random.default_rng(1).random((1, 1, 16, 16)))
        kernel_events = bus.of_kind("kernel_launch")
        assert len(kernel_events) == len(trace.launches) > 0
        assert trace.modelled_time_s == pytest.approx(
            sum(e.payload["time_s"] for e in kernel_events))
        # The run closes an "inference" span on the same bus.
        (span,) = spans_from_events(bus.events)
        assert span.name == "inference"
        assert span.duration_s == pytest.approx(trace.modelled_time_s)
        assert span.attrs["device"] == NVIDIA_V100.name

    def test_two_traces_share_a_bus_without_mixing(self, net):
        bus = EventBus()
        engine = InferenceEngine(net, NVIDIA_V100, bus=bus)
        rng = np.random.default_rng(2)
        _, t1 = engine.run(rng.random((1, 1, 16, 16)))
        _, t2 = engine.run(rng.random((1, 1, 16, 16)))
        assert t1.trace_id != t2.trace_id
        assert len(t1.launches) == len(t2.launches)
        assert len(bus.of_kind("kernel_launch")) == 2 * len(t1.launches)

    def test_trace_round_trips_through_jsonl(self, net, tmp_path):
        _, trace = InferenceEngine(net, NVIDIA_V100).run(
            np.random.default_rng(3).random((1, 1, 16, 16)))
        path = str(tmp_path / "kernels.jsonl")
        export_jsonl(path, trace.bus.events)
        rebuilt = ExecutionTrace.from_events(load_jsonl(path))
        assert rebuilt.launches == trace.launches
        assert rebuilt.counts == trace.counts
        assert rebuilt.modelled_time_s == trace.modelled_time_s
        assert rebuilt.group_counts() == trace.group_counts()

    def test_run_with_queue_rides_the_same_view(self, net):
        """Queue-event profiling and the telemetry view agree: one
        enqueued kernel event per recorded launch, same modelled kind
        sequence, transfers book-ended around the compute."""
        bus = EventBus()
        engine = InferenceEngine(net, NVIDIA_V100, bus=bus)
        x = np.random.default_rng(4).random((1, 1, 16, 16))
        out, trace, queue = engine.run_with_queue(x)
        launches = trace.launches
        kernel_events = [e for e in queue.events if e.kind == "kernel"]
        assert len(kernel_events) == len(launches) > 0
        assert [e.name.split(":", 1)[0] for e in kernel_events] == \
            [launch["kind"] for launch in launches]
        assert queue.events[0].name == "write:input"
        assert queue.events[-1].name == "read:output"
        # The same launches landed on the shared bus.
        assert len(bus.of_kind("kernel_launch")) == len(launches)

    def test_group_counts_aggregates_by_table5_group(self):
        trace = ExecutionTrace()
        trace.record("convolution", "a", OpCounts(flops=10), 0.1)
        trace.record("convolution", "b", OpCounts(flops=5), 0.1)
        trace.record("batchnorm", "c", OpCounts(loads=8, stores=8), 0.1)
        grouped = trace.group_counts()
        assert grouped["convolution"].flops == 15
        assert trace.counts["batchnorm"].loads == 8


# ---------------------------------------------------------------------------
class TestTrainerEvents:
    def test_epoch_and_step_events(self):
        import repro.nn as nn
        from repro.pipeline.training import Trainer

        rng = np.random.default_rng(0)
        model = nn.Sequential(nn.Linear(4, 2))
        ds = nn.TensorDataset(rng.normal(size=(8, 4)),
                              rng.normal(size=(8, 2)))
        bus = EventBus()
        trainer = Trainer(model, nn.Adam(model.parameters(), lr=1e-2),
                          nn.MSELoss(), telemetry=bus)
        trainer.fit(nn.DataLoader(ds, batch_size=4), epochs=2)
        steps = bus.of_kind("step")
        epochs = bus.of_kind("epoch")
        assert len(steps) == 4 and len(epochs) == 2
        assert all(e.source == "pipeline.trainer" for e in steps + epochs)
        # The step-count clock is monotone.
        assert [e.t for e in steps] == [1.0, 2.0, 3.0, 4.0]
        assert epochs[0].payload["epoch"] == 1
        assert epochs[-1].payload["train_loss"] == pytest.approx(
            trainer.history.train_loss[-1])


# ---------------------------------------------------------------------------
# The PR-3 acceptance tests: one spine, bit-identical round trip.
# ---------------------------------------------------------------------------
class TestOneEventSpine:
    @pytest.fixture(scope="class")
    def chaos_report_and_engine(self):
        workload = make_workload(200, rate_per_s=12.0, pattern="wave",
                                 seed=7, dup_fraction=0.2)
        horizon = workload[-1].arrival_s
        resilience = ResilienceConfig(
            faults=FaultConfig(seed=3, transient_rate=0.05,
                               straggler_rate=0.05,
                               crash_times={
                                   "Nvidia V100 GPU": 0.45 * horizon,
                                   "Nvidia P100 GPU": 0.55 * horizon,
                               }),
            retry=RetryPolicy(),
            degrade=DegradeConfig(),
        )
        engine = ServingEngine(fleet="all", policy="perf-aware",
                               resilience=resilience)
        report = engine.run(workload)
        return report, engine

    def test_chaos_run_lands_every_layer_on_one_bus(
            self, chaos_report_and_engine):
        """Kernel launches, sheds, retries, breaker transitions, and
        heartbeats from one chaos run all share a single EventBus."""
        report, engine = chaos_report_and_engine
        bus = engine.telemetry
        # An inference on the *same* bus as the serving run.
        net = DDnet(base_channels=4, growth=4, num_blocks=2,
                    layers_per_block=2, dense_kernel=3, deconv_kernel=3,
                    rng=np.random.default_rng(0)).eval()
        InferenceEngine(net, NVIDIA_V100, bus=bus).run(
            np.random.default_rng(1).random((1, 1, 16, 16)))
        kinds = bus.kinds()
        for expected in ("kernel_launch", "shed", "retry",
                         "breaker_transition", "heartbeat", "dispatch",
                         "complete", "fault", "request_done", "span"):
            assert expected in kinds, expected

    def test_breaker_transitions_ride_the_bus(self, chaos_report_and_engine):
        report, engine = chaos_report_and_engine
        transitions = engine.telemetry.of_kind("breaker_transition")
        assert transitions  # two crashed devices must have transitioned
        dead = {e.payload["device"] for e in transitions
                if e.payload["state"] == "dead"}
        assert {"Nvidia V100 GPU", "Nvidia P100 GPU"} <= dead
        # The bus record equals the breakers' own transition lists.
        for name, breaker in engine.health.breakers.items():
            on_bus = [(e.t, e.payload["state"]) for e in transitions
                      if e.payload["device"] == name]
            assert on_bus == breaker.transitions

    def test_summary_round_trip_is_bit_identical(
            self, chaos_report_and_engine, tmp_path):
        """export → load → summarize_trace equals the live summary."""
        report, _ = chaos_report_and_engine
        live = summarize(report)
        path = str(tmp_path / "chaos_trace.jsonl")
        export_jsonl(path, report.events)
        replay = summarize_trace(load_jsonl(path))
        for key in ("requests", "completed", "shed_queue_full",
                    "shed_timeout", "shed_fault", "slo_violations",
                    "makespan_s", "throughput_rps", "latency_p50_s",
                    "latency_p95_s", "latency_p99_s", "latency_mean_s",
                    "latency_max_s", "cache_hits", "retries",
                    "degraded_completed"):
            assert replay[key] == live[key], key

    def test_queue_ledger_lives_in_the_registry(self, chaos_report_and_engine):
        report, engine = chaos_report_and_engine
        snap = engine.metrics.as_dict()
        for field, value in report.queue_stats.items():
            assert snap["serve.queue." + field] == value
        # The latency histogram is the summary's source of truth.
        hist = engine.metrics.histogram("serve.latency_s")
        assert hist.count == len(report.completed)

    def test_trace_file_is_valid_compact_jsonl(self, chaos_report_and_engine,
                                               tmp_path):
        report, _ = chaos_report_and_engine
        path = str(tmp_path / "trace.jsonl")
        n = export_jsonl(path, report.events)
        with open(path) as fh:
            lines = [line for line in fh if line.strip()]
        assert len(lines) == n == len(report.events)
        first = json.loads(lines[0])
        assert set(first) == {"seq", "t", "kind", "source", "payload"}
