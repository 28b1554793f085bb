"""Inference engine: run DDnet and price its kernels on a modelled device.

Runs a real DDnet (a :class:`repro.models.ddnet.DDnet` instance) — its
own ``forward``, so outputs are genuine — and charges every kernel it
dispatches (:func:`repro.backend.registry.trace_dispatches`) at the
dispatch's Table 6 operation counts and the device's modelled
wall-clock.  This is the reproduction of the paper's OpenCL inference
path: "counters in each kernel", the same optimization switch (naive vs
refactored deconvolution), portable across the device registry.  Each
launch is named by the module that dispatched it, as a path in the
model's ``named_modules()`` (``blocks.0.layers.1.conv2``).

Instrumentation rides the :mod:`repro.telemetry` spine:
:class:`ExecutionTrace` emits one ``kernel_launch`` event per launch on
an :class:`~repro.telemetry.EventBus` — pass ``bus=`` to share the
spine with the serving engine (one bus for kernel launches, shed
decisions, breaker transitions, and heartbeats alike), or let each
trace own a private bus for standalone use — and keeps its own events,
so reading a trace costs its own launches, not the bus's.  Each launch
is emitted at the trace's cumulative modelled time, so the event stream
doubles as a modelled timeline; ``launches`` / ``counts`` /
``modelled_time_s`` are derived properties, and a trace exported with
:func:`repro.telemetry.export_jsonl` rebuilds losslessly via
:meth:`ExecutionTrace.from_events`.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.backend.counters import OpCounts
from repro.backend.registry import calling_module, trace_dispatches
from repro.hetero.device import DeviceSpec
from repro.hetero.optimizations import OptimizationConfig
from repro.hetero.perfmodel import PerfModel, table5_groups
from repro.models.ddnet import DDnet
from repro.telemetry import EventBus, open_span
from repro.tensor import Tensor, no_grad


#: Source tag of every kernel-launch event the runtime emits.
HETERO_SOURCE = "hetero.runtime"

#: Process-wide trace ids so traces sharing one bus stay separable.
_trace_ids = itertools.count()


def _as_opcounts(value) -> OpCounts:
    """Accept a live :class:`OpCounts` or its JSONL dict form."""
    if isinstance(value, OpCounts):
        return value
    return OpCounts(**{k: value[k] for k in ("loads", "stores", "flops")})


class ExecutionTrace:
    """Per-launch log of ``kernel_launch`` telemetry events.

    ``record`` advances the trace's cumulative modelled clock, emits
    one event per launch and keeps it; ``launches`` / ``counts`` /
    ``modelled_time_s`` are derived from those events, so the bus holds
    the whole trace — export it, reload it, and the view is identical.
    """

    def __init__(self, bus: Optional[EventBus] = None,
                 source: str = HETERO_SOURCE):
        self.bus = bus if bus is not None else EventBus()
        self.source = source
        self.trace_id = next(_trace_ids)
        self._clock = 0.0  # cumulative modelled seconds within this trace
        self._events: List = []

    def record(self, kind: str, site: str, counts: OpCounts, time_s: float) -> None:
        self._clock += time_s
        # Payload key is ``op`` (not ``kind``): the event's own ``kind``
        # is the stream type, ``kernel_launch``.
        self._events.append(self.bus.emit(
            self._clock, "kernel_launch", self.source, trace=self.trace_id,
            op=kind, site=site, time_s=time_s, counts=counts))

    # -- derived views ---------------------------------------------------
    def events(self):
        """This trace's ``kernel_launch`` events, in launch order."""
        return list(self._events)

    @property
    def launches(self) -> List[Dict]:
        return [{"kind": e.payload["op"], "site": e.payload["site"],
                 "time_s": e.payload["time_s"]} for e in self.events()]

    @property
    def counts(self) -> Dict[str, OpCounts]:
        out: Dict[str, OpCounts] = {}
        for e in self.events():
            kind = e.payload["op"]
            out[kind] = out.get(kind, OpCounts()) + _as_opcounts(
                e.payload["counts"])
        return out

    @property
    def modelled_time_s(self) -> float:
        return sum(e.payload["time_s"] for e in self.events())

    def group_counts(self) -> Dict[str, OpCounts]:
        return table5_groups(self.counts, OpCounts())

    @classmethod
    def from_events(cls, events: Iterable,
                    trace_id: Optional[int] = None) -> "ExecutionTrace":
        """Rebuild a trace view from events (e.g. a loaded JSONL file).

        ``trace_id`` selects one trace when several share the stream;
        by default the first ``kernel_launch`` event's trace is used.
        """
        trace = cls()
        for e in events:
            if e.kind != "kernel_launch":
                continue
            if trace_id is None:
                trace_id = e.payload.get("trace")
            if e.payload.get("trace") != trace_id:
                continue
            trace.record(e.payload["op"], e.payload["site"],
                         _as_opcounts(e.payload["counts"]),
                         float(e.payload["time_s"]))
        return trace


class InferenceEngine:
    """Run a trained DDnet and price its kernel launches on a device model."""

    def __init__(
        self,
        model: DDnet,
        device: DeviceSpec,
        config: Optional[OptimizationConfig] = None,
        perf_model: Optional[PerfModel] = None,
        fault_hook: Optional[Callable[[str, str, float], float]] = None,
        bus: Optional[EventBus] = None,
    ):
        self.model = model
        self.device = device
        #: Optional shared telemetry bus: every trace this engine
        #: produces emits its kernel launches (and an ``inference``
        #: span) here, e.g. the serving engine's spine.
        self.bus = bus
        self.config = config or OptimizationConfig.ref_pf_lu()
        self.perf_model = perf_model or PerfModel()
        #: Optional per-launch fault hook ``(kind, site, time_s) -> time_s``.
        #: May raise (e.g. :class:`repro.resilience.faults.KernelFault`) to
        #: abort the inference, or return an adjusted launch time — the
        #: resilience layer's kernel-granularity fault injection point.
        self.fault_hook = fault_hook
        cal = self.perf_model.calibration[device.name]
        # Per-kind time rates derived from the calibrated efficiencies.
        self._flops_rate = {
            "convolution": device.peak_flops * cal.conv_eff,
            "deconvolution": device.peak_flops * cal.deconv_eff,
            "deconvolution_naive": device.peak_flops * cal.deconv_eff / cal.naive_penalty,
        }
        self._bw_rate = device.peak_bandwidth * cal.other_eff
        self._queue = None  # set during run_with_queue
        self.model.eval()

    # -- kernel pricing --------------------------------------------------
    def _charge(self, trace: ExecutionTrace, site: str, kind: str,
                counts: OpCounts) -> None:
        if kind == "deconvolution" and not self.config.refactor_deconv:
            # Fig. 9a arm: the model ran the gather; price the scatter
            # at its MAC count m, Table 6's naive counts (3m, m, 2m)
            # (exact for size-preserving stride-1 deconvolutions, as all
            # of DDnet's are; a fused unpool_deconv's m also carries its
            # un-pool).
            m = counts.flops // 2
            kind, counts = "deconvolution_naive", OpCounts(3 * m, m, 2 * m)
        if kind in self._flops_rate:
            t = counts.flops / self._flops_rate[kind]
            if not self.config.prefetch:
                t *= self.perf_model.calibration[self.device.name].pf_factor
            if not self.config.loop_unroll:
                t *= self.perf_model.calibration[self.device.name].lu_factor
        else:
            t = counts.bytes_moved / self._bw_rate
        t += self.device.launch_overhead_us * 1e-6
        if self.fault_hook is not None:
            t = self.fault_hook(kind, site, t)
        trace.record(kind, site, counts, t)
        if self._queue is not None:
            # Queue events carry the pure kernel duration; the queue adds
            # its own launch overhead.
            self._queue.enqueue_kernel(
                f"{kind}:{site}", t - self.device.launch_overhead_us * 1e-6
            )

    def run(self, x: np.ndarray) -> tuple[np.ndarray, ExecutionTrace]:
        """Execute one inference; returns (enhanced image, trace).

        Runs ``model(Tensor(x))`` under ``no_grad`` and prices every
        kernel the forward dispatches, in dispatch order, at the
        device's modelled time.  Each launch's site is the path, in the
        model's ``named_modules()``, of the innermost module whose call
        dispatched it (e.g. ``blocks.0.layers.1.conv2``).
        """
        trace = ExecutionTrace(bus=self.bus)
        span = open_span(trace.bus, "inference", source=trace.source,
                         t_start=0.0)
        sites = {id(m): name for name, m in self.model.named_modules()}

        def record(kind, _op, counts, _wall_s):
            self._charge(trace, sites[id(calling_module())], kind, counts)

        with no_grad(), trace_dispatches(SimpleNamespace(record=record)):
            out = self.model(Tensor(x, dtype=self.model.dtype)).data
        span.close(trace.modelled_time_s, trace=trace.trace_id,
                   device=self.device.name, launches=len(trace.launches))
        return out, trace

    def run_with_queue(self, x: np.ndarray, memory_bytes: Optional[float] = None):
        """Execute through an OpenCL-style command queue (event profiling).

        Allocates the input/output buffers, charges host→device /
        device→host transfers, and enqueues every kernel launch as an
        event.  Returns ``(output, trace, queue)``; inspect
        ``queue.events`` / ``queue.profile()`` for the Table 5-style
        event accounting.
        """
        from repro.hetero.oclsim import CommandQueue

        queue = CommandQueue(self.device, memory_bytes=memory_bytes)
        x = np.asarray(x, dtype=self.model.dtype)
        in_buf = queue.alloc("input", x.nbytes)
        out_buf = queue.alloc("output", x.nbytes)
        queue.enqueue_write(in_buf)
        self._queue = queue
        try:
            out, trace = self.run(x)
        finally:
            self._queue = None
        queue.enqueue_read(out_buf)
        queue.finish()
        return out, trace, queue
