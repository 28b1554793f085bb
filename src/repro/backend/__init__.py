"""Pluggable kernel backends: registry, FFT kernels, calibration.

One dispatch layer for every tensor op (§4.2's per-device kernel
architecture, reproduced for the NumPy engine):

- :mod:`~repro.backend.registry` — the ``(op, backend)`` kernel
  registry; ``reference`` is the classic numpy path, ``fast`` the FFT
  kernels (parity-gated in tests and in ``repro bench kernels``),
- :mod:`~repro.backend.counters` — the analytic Table 6 operation
  counters (N-dimensional; re-exported by :mod:`repro.hetero.counters`),
- :mod:`~repro.backend.fast` — the ulp-tier backend: FFT
  convolution/deconvolution with a filter-transform cache, fused
  unpool+deconv, and batched multi-scan conv; every other case runs
  the reference kernels,
- :mod:`~repro.backend.precision` — the accuracy-parity tiers (bit /
  ulp / metric floors) every backend and reduced-precision mode is
  held to,
- :mod:`~repro.backend.calibrate` — host microbenchmarks fitting
  per-op service-time coefficients into a
  :class:`~repro.backend.calibrate.CalibratedPerfModel` that the serve
  scheduler can run on,
- :mod:`~repro.backend.kernel_bench` — the ``repro bench kernels``
  harness writing ``BENCH_kernels.json``,
- :mod:`~repro.backend.lint` — the AST pass keeping ``models/`` and
  ``nn/layers*`` closed over the registry.

Heavy submodules (``calibrate``, ``kernel_bench``) load lazily so that
importing :mod:`repro.backend` from the op providers stays cheap and
cycle-free.
"""

from repro.backend.counters import OpCounts
from repro.backend.registry import (
    DEFAULT_BACKEND,
    REGISTRY,
    clear_kernel_caches,
    dispatch,
    get_backend,
    known_backends,
    known_ops,
    register_kernel,
    set_default_backend,
    trace_dispatches,
    use_backend,
)

_LAZY = {
    "CalibratedPerfModel": ("repro.backend.calibrate", "CalibratedPerfModel"),
    "KernelCalibration": ("repro.backend.calibrate", "KernelCalibration"),
    "OpCoefficients": ("repro.backend.calibrate", "OpCoefficients"),
    "calibrate_host": ("repro.backend.calibrate", "calibrate_host"),
    "run_kernel_bench": ("repro.backend.kernel_bench", "run_kernel_bench"),
    "BACKEND_TIERS": ("repro.backend.precision", "BACKEND_TIERS"),
    "PRECISION_FLOORS": ("repro.backend.precision", "PRECISION_FLOORS"),
    "allclose_ulp": ("repro.backend.precision", "allclose_ulp"),
    "bit_identical": ("repro.backend.precision", "bit_identical"),
    "tier_for": ("repro.backend.precision", "tier_for"),
    "FFT_CROSSOVER_ELEMS": ("repro.backend.fast", "FFT_CROSSOVER_ELEMS"),
    "FALLBACK_OPS": ("repro.backend.fast", "FALLBACK_OPS"),
}

__all__ = [
    "OpCounts", "DEFAULT_BACKEND", "REGISTRY",
    "clear_kernel_caches", "dispatch", "get_backend",
    "known_backends", "known_ops", "register_kernel",
    "set_default_backend", "trace_dispatches", "use_backend",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module, attr = _LAZY[name]
        return getattr(importlib.import_module(module), attr)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
