"""Inference engine: functionally execute DDnet on a modelled device.

Runs a real DDnet (a :class:`repro.models.ddnet.DDnet` instance) through
the instrumented :mod:`repro.hetero.kernels` — so outputs are genuine —
while accumulating measured operation counts and the device's modelled
wall-clock per kernel launch.  This is the reproduction of the paper's
OpenCL inference path: same operation sequence, same optimization
switch (naive vs refactored deconvolution), portable across the device
registry.

Instrumentation rides the :mod:`repro.telemetry` spine:
:class:`ExecutionTrace` is a *view* over ``kernel_launch`` events on an
:class:`~repro.telemetry.EventBus` — pass ``bus=`` to share the spine
with the serving engine (one bus for kernel launches, shed decisions,
breaker transitions, and heartbeats alike), or let each trace own a
private bus for standalone use.  Each launch is emitted at the trace's
cumulative modelled time, so the event stream doubles as a modelled
timeline; ``launches`` / ``counts`` / ``modelled_time_s`` are derived
properties, and a trace exported with
:func:`repro.telemetry.export_jsonl` rebuilds losslessly via
:meth:`ExecutionTrace.from_events`.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.backend.counters import OpCounts
from repro.hetero.device import DeviceSpec
from repro.hetero.kernels import (
    KernelResult,
    batchnorm_kernel,
    conv2d_kernel,
    deconv2d_naive_kernel,
    deconv2d_refactored_kernel,
    leaky_relu_kernel,
    maxpool_kernel,
    unpool_bilinear_kernel,
)
from repro.hetero.optimizations import OptimizationConfig
from repro.hetero.perfmodel import PerfModel
from repro.hetero.schedule import TABLE5_GROUPS
from repro.models.ddnet import DDnet
from repro.telemetry import EventBus, open_span


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
    """Per-launch log as a view over ``kernel_launch`` telemetry events.

    ``record`` advances the trace's cumulative modelled clock and emits
    one event per launch; ``launches`` / ``counts`` /
    ``modelled_time_s`` are derived from those events, so the bus *is*
    the trace — export it, reload it, and the view is identical.
    """

    def __init__(self, bus: Optional[EventBus] = None,
                 source: str = HETERO_SOURCE):
        self.bus = bus if bus is not None else EventBus()
        self.source = source
        self.trace_id = next(_trace_ids)
        self._clock = 0.0  # cumulative modelled seconds within this trace

    def record(self, kind: str, site: str, counts: OpCounts, time_s: float) -> None:
        self._clock += time_s
        # Payload key is ``op`` (not ``kind``): the event's own ``kind``
        # is the stream type, ``kernel_launch``.
        self.bus.emit(self._clock, "kernel_launch", self.source,
                      trace=self.trace_id, op=kind, site=site,
                      time_s=time_s, counts=counts)

    # -- derived views ---------------------------------------------------
    def events(self):
        """This trace's ``kernel_launch`` events, in launch order."""
        return [e for e in self.bus.of_kind("kernel_launch")
                if e.payload.get("trace") == self.trace_id]

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
        counts = self.counts
        grouped: Dict[str, OpCounts] = {}
        for group, kinds in TABLE5_GROUPS.items():
            acc = OpCounts()
            for k in kinds:
                acc = acc + counts.get(k, OpCounts())
            grouped[group] = acc
        return grouped

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
    """Execute a trained DDnet on a device model, kernel by kernel."""

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

    # -- kernel dispatch -------------------------------------------------
    def _charge(self, trace: ExecutionTrace, site: str, result: KernelResult) -> np.ndarray:
        kind = result.kind
        if kind in self._flops_rate:
            t = result.counts.flops / self._flops_rate[kind]
            if not self.config.prefetch:
                t *= self.perf_model.calibration[self.device.name].pf_factor
            if not self.config.loop_unroll:
                t *= self.perf_model.calibration[self.device.name].lu_factor
        else:
            t = result.counts.bytes_moved / self._bw_rate
        t += self.device.launch_overhead_us * 1e-6
        if self.fault_hook is not None:
            t = self.fault_hook(kind, site, t)
        trace.record(kind, site, result.counts, t)
        if self._queue is not None:
            # Queue events carry the pure kernel duration; the queue adds
            # its own launch overhead.
            self._queue.enqueue_kernel(
                f"{kind}:{site}", t - self.device.launch_overhead_us * 1e-6
            )
        return result.output

    def _deconv(self, trace, site, x, w, stride=1, padding=0):
        if self.config.refactor_deconv:
            return self._charge(trace, site, deconv2d_refactored_kernel(x, w, stride, padding))
        return self._charge(trace, site, deconv2d_naive_kernel(x, w, stride, padding))

    def _conv_bn_act(self, trace, site, x, conv_mod, bn_mod):
        x = self._charge(
            trace, site,
            conv2d_kernel(x, conv_mod.weight.data,
                          conv_mod.bias.data if conv_mod.bias is not None else None,
                          stride=conv_mod.stride, padding=conv_mod.padding),
        )
        x = self._charge(
            trace, site + ":bn",
            batchnorm_kernel(x, bn_mod.running_mean, bn_mod.running_var,
                             bn_mod.weight.data, bn_mod.bias.data, bn_mod.eps),
        )
        return self._charge(trace, site + ":act", leaky_relu_kernel(x))

    def _deconv_bn_act(self, trace, site, x, block):
        x = self._deconv(trace, site, x, block.deconv.weight.data,
                         stride=block.deconv.stride, padding=block.deconv.padding)
        x = self._charge(
            trace, site + ":bn",
            batchnorm_kernel(x, block.bn.running_mean, block.bn.running_var,
                             block.bn.weight.data, block.bn.bias.data, block.bn.eps),
        )
        return self._charge(trace, site + ":act", leaky_relu_kernel(x))

    # -- the DDnet forward schedule ---------------------------------------
    def run(self, x: np.ndarray) -> tuple[np.ndarray, ExecutionTrace]:
        """Execute one inference; returns (enhanced image, trace).

        Functionally identical to ``model(Tensor(x))`` in eval mode
        (asserted in the test suite) but executed through the
        instrumented kernel layer with device-time accounting.
        """
        m = self.model
        trace = ExecutionTrace(bus=self.bus)
        span = open_span(trace.bus, "inference", source=trace.source,
                         t_start=0.0)
        h = self._conv_bn_act(trace, "stem", np.asarray(x, dtype=np.float64),
                              m.stem.conv, m.stem.bn)
        stem = h
        skips = []
        for i, (block, transition, pool) in enumerate(zip(m.blocks, m.transitions, m.pools)):
            h = self._charge(trace, f"pool{i + 1}",
                             maxpool_kernel(h, pool.kernel_size, pool.stride,
                                            pool.padding))
            feats = h
            for j, layer in enumerate(block.layers):  # noqa: B007
                site = f"db{i + 1}.l{j + 1}"
                a = self._charge(
                    trace, site + ".bn1",
                    batchnorm_kernel(feats, layer.bn1.running_mean, layer.bn1.running_var,
                                     layer.bn1.weight.data, layer.bn1.bias.data, layer.bn1.eps),
                )
                a = self._charge(trace, site + ".act1", leaky_relu_kernel(a))
                a = self._charge(trace, site + ".1x1",
                                 conv2d_kernel(a, layer.conv1.weight.data, None,
                                               stride=1, padding=0))
                a = self._charge(
                    trace, site + ".bn2",
                    batchnorm_kernel(a, layer.bn2.running_mean, layer.bn2.running_var,
                                     layer.bn2.weight.data, layer.bn2.bias.data, layer.bn2.eps),
                )
                a = self._charge(trace, site + ".act2", leaky_relu_kernel(a))
                a = self._charge(trace, site + ".kxk",
                                 conv2d_kernel(a, layer.conv2.weight.data, None,
                                               stride=1, padding=layer.conv2.padding))
                feats = np.concatenate([feats, a], axis=1)
            h = self._conv_bn_act(trace, f"transition{i + 1}", feats,
                                  transition.conv, transition.bn)
            skips.append(h)
        shortcut_feats = skips[-2::-1] + [stem]
        for stage in range(m.num_blocks):
            h = self._charge(trace, f"unpool{stage + 1}", unpool_bilinear_kernel(h, 2))
            h = np.concatenate([h, shortcut_feats[stage]], axis=1)
            h = self._deconv_bn_act(trace, f"deconv{stage + 1}a", h, m.deconvs_a[stage])
            if stage < m.num_blocks - 1:
                h = self._deconv_bn_act(trace, f"deconv{stage + 1}b", h, m.deconvs_b[stage])
        out = self._deconv(trace, "head", h, m.head.weight.data,
                           stride=m.head.stride, padding=m.head.padding)
        out = out + m.head.bias.data.reshape(1, -1, 1, 1)
        if m.residual:
            out = out + np.asarray(x, dtype=np.float64)
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
        x = np.asarray(x, dtype=np.float64)
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
