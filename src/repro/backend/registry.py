"""Kernel-dispatch registry: one execution layer for every tensor op.

The paper's §4.2 system is *one* set of kernels (conv, deconv, pool,
un-pool, Leaky-ReLU, batchnorm) with per-device implementations behind
a common interface.  This registry reproduces that architecture for the
NumPy engine: every tensor op is registered under ``(op, backend)`` and
executed through :func:`dispatch`, so

- implementations are pluggable (``reference`` is the classic numpy
  path, ``fast`` carries the FFT kernels in :mod:`repro.backend.fast`;
  new backends register without touching call sites),
- every dispatch can emit a ``kernel_launch``-compatible telemetry
  record with the **measured** wall time plus the analytic
  :class:`~repro.backend.counters.OpCounts` — attach any sink with a
  ``record(kind, site, counts, time_s)`` method (e.g.
  :class:`repro.hetero.runtime.ExecutionTrace`) via
  :func:`trace_dispatches` and real inference becomes visible through
  the exact same lens as the simulated device fleet; the sink can ask
  :func:`calling_module` which layer the dispatch ran for,
- backend selection nests: an explicit ``backend=`` argument beats the
  thread-local :func:`use_backend` scope, which beats the thread default
  of :func:`set_default_backend`.  Calling a module whose backend is set
  (:meth:`repro.nn.module.Module.to_backend`) enters that scope for the
  duration of its forward.

Providers register lazily: importing this module pulls in **nothing**
from the rest of the package; the op modules are imported on the first
resolve so ``repro.tensor`` ↔ ``repro.hetero`` stay cycle-free.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.backend.counters import OpCounts

#: The backend every dispatch uses unless overridden.
DEFAULT_BACKEND = "reference"

#: Modules that register kernels; imported on first resolve.
_PROVIDERS = (
    "repro.tensor.ops_conv",
    "repro.tensor.ops_pool",
    "repro.tensor.ops_norm",
    "repro.tensor.ops_activation",
    "repro.tensor.ops_fused",
    "repro.backend.fast",
)

#: ``counts(result, *args, **kwargs) -> OpCounts`` — analytic cost of one
#: dispatch, computed from the kernel's inputs and output.
CountsFn = Callable[..., OpCounts]


@dataclass
class OpSpec:
    """Per-op metadata shared by all backends of that op."""

    op: str
    kind: str
    counts: Optional[CountsFn] = None
    impls: Dict[str, Callable] = field(default_factory=dict)


class KernelRegistry:
    """Mapping of ``(op, backend)`` to kernel implementations."""

    def __init__(self):
        self._specs: Dict[str, OpSpec] = {}
        self._loaded = False
        self._load_lock = threading.Lock()
        self._cache_clearers: List[Callable[[], None]] = []

    # -- registration ---------------------------------------------------
    def register(self, op: str, backend: str, fn: Callable, *,
                 kind: Optional[str] = None,
                 counts: Optional[CountsFn] = None) -> Callable:
        spec = self._specs.get(op)
        if spec is None:
            spec = self._specs[op] = OpSpec(op=op, kind=kind or op, counts=counts)
        else:
            if kind is not None and kind != spec.kind:
                raise ValueError(
                    f"op {op!r} already registered with kind {spec.kind!r}; "
                    f"backend {backend!r} tried to change it to {kind!r}")
            if counts is not None:
                spec.counts = counts
        if backend in spec.impls:
            raise ValueError(f"({op!r}, {backend!r}) is already registered")
        spec.impls[backend] = fn
        return fn

    def register_cache_clearer(self, fn: Callable[[], None]) -> None:
        """Backends with weight-derived caches register an invalidator."""
        self._cache_clearers.append(fn)

    # -- lookup ---------------------------------------------------------
    def ensure_loaded(self) -> None:
        if self._loaded:
            return
        with self._load_lock:
            if self._loaded:
                return
            import importlib

            for module in _PROVIDERS:
                importlib.import_module(module)
            self._loaded = True

    def resolve(self, op: str, backend: str) -> Tuple[OpSpec, Callable]:
        self.ensure_loaded()
        spec = self._specs.get(op)
        if spec is None:
            raise KeyError(
                f"unknown op {op!r}; registered: {sorted(self._specs)}")
        fn = spec.impls.get(backend)
        if fn is None:
            raise KeyError(
                f"op {op!r} has no {backend!r} backend; "
                f"available: {sorted(spec.impls)}")
        return spec, fn

    def ops(self) -> List[str]:
        self.ensure_loaded()
        return sorted(self._specs)

    def backends(self, op: Optional[str] = None) -> List[str]:
        """Backends registered for ``op`` (or for any op when omitted)."""
        self.ensure_loaded()
        if op is not None:
            spec = self._specs.get(op)
            if spec is None:
                raise KeyError(f"unknown op {op!r}")
            return sorted(spec.impls)
        names = set()
        for spec in self._specs.values():
            names.update(spec.impls)
        return sorted(names)

    def clear_caches(self) -> None:
        for fn in self._cache_clearers:
            fn()


REGISTRY = KernelRegistry()

# ---------------------------------------------------------------------------
# Thread-local dispatch state: selected backend + telemetry sink
# ---------------------------------------------------------------------------
_state = threading.local()


def get_backend() -> str:
    """The backend dispatch uses when no explicit ``backend=`` is given."""
    return getattr(_state, "backend", None) or DEFAULT_BACKEND


def set_default_backend(backend: Optional[str]) -> None:
    """Set this thread's default backend (``None`` restores ``reference``)."""
    if backend is not None:
        REGISTRY.ensure_loaded()
        if backend not in REGISTRY.backends():
            raise ValueError(
                f"unknown backend {backend!r}; known: {REGISTRY.backends()}")
    _state.backend = backend


@contextmanager
def use_backend(backend: Optional[str]):
    """Scoped backend selection: every dispatch inside runs on ``backend``."""
    previous = getattr(_state, "backend", None)
    set_default_backend(backend)
    try:
        yield
    finally:
        _state.backend = previous


@contextmanager
def trace_dispatches(sink):
    """Send every dispatch in this scope to ``sink``.

    ``sink`` needs a ``record(kind, site, counts, time_s)`` method —
    :class:`repro.hetero.runtime.ExecutionTrace` is the canonical one,
    making real measured inference and the simulated fleet share one
    event vocabulary (``kernel_launch`` on the telemetry bus).  The
    wall time is *measured* (``time.perf_counter`` around the kernel);
    the counts are the analytic Table 6 formulas.
    """
    previous = getattr(_state, "sink", None)
    _state.sink = sink
    try:
        yield sink
    finally:
        _state.sink = previous


def calling_module():
    """The innermost module being called, for a sink to name its layer.

    :meth:`repro.nn.module.Module.__call__` records it only while a
    :func:`trace_dispatches` sink is attached; ``None`` otherwise.
    """
    return getattr(_state, "module", None)


# ---------------------------------------------------------------------------
# The dispatch entry point
# ---------------------------------------------------------------------------
def dispatch(op: str, *args, backend: Optional[str] = None,
             site: Optional[str] = None, **kwargs):
    """Execute ``op`` on the selected backend.

    ``backend=None`` uses the thread's current backend (see
    :func:`use_backend`); ``site`` labels the telemetry record when a
    sink is attached (defaults to the op name).
    """
    spec, fn = REGISTRY.resolve(op, backend or get_backend())
    sink = getattr(_state, "sink", None)
    if sink is None:
        return fn(*args, **kwargs)
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    elapsed = time.perf_counter() - t0
    counts = spec.counts(result, *args, **kwargs) if spec.counts else OpCounts()
    sink.record(spec.kind, site or op, counts, elapsed)
    return result


def register_kernel(op: str, backend: str, *, kind: Optional[str] = None,
                    counts: Optional[CountsFn] = None):
    """Decorator form of :meth:`KernelRegistry.register`."""

    def deco(fn: Callable) -> Callable:
        return REGISTRY.register(op, backend, fn, kind=kind, counts=counts)

    return deco


def known_ops() -> List[str]:
    return REGISTRY.ops()


def known_backends(op: Optional[str] = None) -> List[str]:
    return REGISTRY.backends(op)


def clear_kernel_caches() -> None:
    """Invalidate weight-derived kernel caches (e.g. the fast FFT cache).

    Called automatically by :meth:`repro.nn.module.Module.load_state_dict`,
    a :meth:`~repro.nn.module.Module.to_dtype` that changes a dtype and
    every optimizer step;
    call it manually after mutating a parameter's ``.data`` array in
    place outside those paths.
    """
    REGISTRY.clear_caches()
