"""Heterogeneous inference substrate (§4.2, Tables 4-7, Figs. 9-10).

The paper runs DDnet inference through hand-optimized OpenCL kernels on
six platforms.  This subpackage reproduces that system as:

- :mod:`~repro.hetero.device` — the six platform specs exactly as
  printed in Table 4 (cores, bandwidth, frequency),
- :mod:`~repro.hetero.kernels` — the *naive* scatter deconvolution
  (Fig. 9a) and the *refactored* inverse-coefficient-mapping gather
  deconvolution (Fig. 9b), each returning its load/store/FLOP counts,
- :mod:`repro.backend.counters` (a leaf shared with the kernel-dispatch
  registry) — the analytic operation-count model that regenerates
  Table 6 and counts every dispatch,
- :mod:`~repro.hetero.optimizations` — the REF/PF/LU/vectorize/CU
  optimization flag set of §4.2,
- :mod:`~repro.hetero.perfmodel` — a calibrated roofline wall-clock
  model reproducing Tables 4, 5, and 7 from the counts of DDnet's own
  forward (``DDNET_16X16``, scaled by ``ddnet_totals``),
- :mod:`~repro.hetero.fpga` — Arria-10 resource accounting and the
  runtime-reconfiguration schedule of Fig. 10,
- :mod:`~repro.hetero.runtime` — an inference engine that runs DDnet's
  own forward and charges each kernel it dispatches modelled time.
"""

from repro.backend.counters import OpCounts, table6_counts
from repro.hetero.device import (
    AMD_VEGA_FRONTIER,
    DEVICES,
    INTEL_ARRIA10,
    INTEL_XEON_6128,
    NVIDIA_P100,
    NVIDIA_T4,
    NVIDIA_V100,
    DeviceSpec,
)
from repro.hetero.kernels import KernelResult, deconv_nd_naive_kernel, deconv_nd_refactored_kernel
from repro.hetero.optimizations import OptimizationConfig
from repro.hetero.perfmodel import DDNET_16X16, PerfModel, PlatformPrediction, ddnet_totals
from repro.hetero.fpga import FpgaResourceModel, ReconfigurationSchedule
from repro.hetero.oclsim import Buffer, CommandQueue, DeviceMemoryError, Event, transfer_fraction
from repro.hetero.runtime import InferenceEngine

__all__ = [
    "DeviceSpec", "DEVICES", "NVIDIA_V100", "NVIDIA_P100", "NVIDIA_T4",
    "AMD_VEGA_FRONTIER", "INTEL_XEON_6128", "INTEL_ARRIA10",
    "OpCounts", "table6_counts",
    "KernelResult", "deconv_nd_naive_kernel", "deconv_nd_refactored_kernel",
    "CalibratedPerfModel",
    "OptimizationConfig", "PerfModel", "PlatformPrediction",
    "DDNET_16X16", "ddnet_totals",
    "FpgaResourceModel", "ReconfigurationSchedule", "InferenceEngine",
    "Buffer", "CommandQueue", "Event", "DeviceMemoryError", "transfer_fraction",
]


def __getattr__(name: str):
    # Lazy: repro.backend.calibrate subclasses PerfModel, so importing
    # it eagerly here would cycle when calibrate is imported first.
    if name == "CalibratedPerfModel":
        from repro.backend.calibrate import CalibratedPerfModel

        return CalibratedPerfModel
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
