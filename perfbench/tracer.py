"""Per-layer tracing from outside the program.

The benchmark times each layer by wrapping the public entry points of
``repro`` (CT physics, the diagnosis pipeline, the autograd/optimizer
layer, the serving engine and its event loop) and by attaching a sink to
``repro.backend.trace_dispatches``, which already times every kernel
dispatch.  Nothing under ``src/`` is modified: the wrappers are swapped
in for one traced operation and swapped back out afterwards.

Spans nest.  A layer's *self time* is its span's duration minus the time
of the spans (and kernel dispatches) it directly contains, so the self
times of all layers plus ``unattributed`` (operation time covered by no
span) add up to the operations' wall time exactly.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

#: Backend op (the dispatch ``site``) -> reported op family.
BACKEND_FAMILIES = {
    "conv": "conv", "conv_bias_act": "conv", "conv_batch": "conv",
    "deconv": "deconv",
    "unpool_deconv": "unpool_deconv",
    "conv_weight_grad": "conv_weight_grad",
    "batchnorm": "batchnorm",
    "maxpool": "pool", "avgpool": "pool", "unpool": "pool",
    "relu": "activation", "leaky_relu": "activation",
}
FAMILIES = ("conv", "deconv", "unpool_deconv", "conv_weight_grad",
            "batchnorm", "pool", "activation", "other")

#: Every span layer, in report order.
SPAN_LAYERS = (
    "ct.project", "ct.noise", "ct.fbp", "data.simulate",
    "pipeline.enhance", "pipeline.segment", "pipeline.classify",
    "nn.forward", "nn.loss", "tensor.backward", "nn.optim",
    "serve.staged_run", "serve.dag_run", "des.loop", "serve.collect",
)
#: The metrics that partition an operation's wall time.
SELF_TIME_METRICS = (tuple(f"{layer}_s" for layer in SPAN_LAYERS)
                     + tuple(f"backend.{family}_s" for family in FAMILIES)
                     + ("unattributed_s",))


class Tracer:
    """Accumulates layer self times over traced operations.

    Also the ``trace_dispatches`` sink: :meth:`record` charges each
    kernel's measured time to its op family and to the enclosing span.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.flops = 0
        self.bytes_moved = 0
        self.wall_s = 0.0
        self.ops = 0
        # One frame per open span: the seconds its direct children took.
        self._frames = []

    # -- spans ------------------------------------------------------------
    def span(self, layer, fn, *args, **kwargs):
        self._frames.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.self_s[layer] += dt - self._frames.pop()
            self._frames[-1] += dt

    def operation(self, fn, *args):
        """Run one traced operation; returns its result."""
        if self._frames:
            raise RuntimeError("operations do not nest")
        self._frames.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            dt = time.perf_counter() - t0
            self.self_s["unattributed"] += dt - self._frames.pop()
            self.wall_s += dt
            self.ops += 1

    # -- trace_dispatches sink ----------------------------------------------
    def record(self, kind, site, counts, time_s):
        family = BACKEND_FAMILIES.get(site, "other")
        self.self_s["backend." + family] += time_s
        self.calls[family] += 1
        self.flops += counts.flops
        self.bytes_moved += counts.bytes_moved
        self._frames[-1] += time_s

    # -- report -------------------------------------------------------------
    def metrics(self):
        """Per-operation layer metrics as ``{name: (value, unit)}``."""
        n = max(self.ops, 1)
        out = {name: (self.self_s[name[:-2]] / n, "s") for name in SELF_TIME_METRICS}
        for family in FAMILIES:
            out[f"backend.{family}_calls"] = (self.calls[family] / n, "count")
        out["backend.gflop"] = (self.flops / n / 1e9, "GFLOP-computed")
        out["backend.gbytes"] = (self.bytes_moved / n / 1e9, "GB-computed")
        out["trace.op_wall_s"] = (self.wall_s / n, "s")
        return out


class EntryPoints:
    """The wrappers around ``repro``'s public entry points.

    :meth:`install` swaps every wrapper in; :meth:`uninstall` restores
    the originals.  A module-level function is replaced in every loaded
    ``repro`` module that bound it with ``from ... import``, so calls
    through those bindings are traced too.
    """

    def __init__(self, tracer: Tracer):
        from repro.ct import fbp, noise, projector
        from repro.data import preparation
        from repro.des import EventLoop
        from repro.nn import optim
        from repro.nn.module import Module
        from repro.pipeline.classification import ClassificationAI
        from repro.pipeline.framework import ComputeCovid19Plus
        from repro.pipeline.segmentation import SegmentationAI
        from repro.serve import metrics as serve_metrics
        from repro.serve.engine import ServingEngine
        from repro.tensor import is_grad_enabled
        from repro.tensor.tensor import Tensor

        self.tracer = tracer
        functions = [
            (projector, "forward_project", "ct.project"),
            (noise, "add_poisson_noise", "ct.noise"),
            (fbp, "fbp_reconstruct", "ct.fbp"),
            (preparation, "simulate_low_dose_volume", "data.simulate"),
            (serve_metrics, "summarize", "serve.collect"),
        ]
        methods = [
            (ComputeCovid19Plus, "enhance_volume_hu", "pipeline.enhance"),
            (SegmentationAI, "apply", "pipeline.segment"),
            (ClassificationAI, "predict_proba", "pipeline.classify"),
            (Tensor, "backward", "tensor.backward"),
            (optim.Optimizer, "zero_grad", "nn.optim"),
            (EventLoop, "run", "des.loop"),
            (ServingEngine, "collect", "serve.collect"),
        ]
        methods += [(cls, "step", "nn.optim")
                    for cls in optim.Optimizer.__subclasses__()
                    if "step" in cls.__dict__]
        # (owner, attribute, original, wrapper) for every swap.
        self._swaps = []
        for module, name, layer in functions:
            original = getattr(module, name)
            wrapper = self._wrap(original, layer)
            for owner in list(sys.modules.values()):
                if (getattr(owner, "__name__", "").startswith("repro")
                        and getattr(owner, name, None) is original):
                    self._swaps.append((owner, name, original, wrapper))
        for cls, name, layer in methods:
            original = cls.__dict__[name]
            self._swaps.append((cls, name, original, self._wrap(original, layer)))

        run = ServingEngine.run

        @functools.wraps(run)
        def engine_run(engine, requests):
            return tracer.span(f"serve.{engine.mode}_run", run, engine, requests)

        self._swaps.append((ServingEngine, "run", run, engine_run))

        call = Module.__call__
        losses = "repro.nn.losses"
        in_nn = False

        @functools.wraps(call)
        def module_call(module, *args, **kwargs):
            # Only the outermost module call is a span: the model in a
            # training step (under grad) or the loss.  Inference forwards
            # run under no_grad and stay inside their pipeline stage.
            nonlocal in_nn
            if in_nn:
                return call(module, *args, **kwargs)
            if type(module).__module__ == losses:
                layer = "nn.loss"
            elif is_grad_enabled():
                layer = "nn.forward"
            else:
                return call(module, *args, **kwargs)
            in_nn = True
            try:
                return tracer.span(layer, call, module, *args, **kwargs)
            finally:
                in_nn = False

        self._swaps.append((Module, "__call__", call, module_call))

    def _wrap(self, original, layer):
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.span(layer, original, *args, **kwargs)

        return wrapper

    def install(self):
        for owner, name, _, wrapper in self._swaps:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original, _ in self._swaps:
            setattr(owner, name, original)
