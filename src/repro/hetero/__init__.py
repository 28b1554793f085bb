"""Heterogeneous inference substrate (§4.2, Tables 4-7, Figs. 9-10).

The paper runs DDnet inference through hand-optimized OpenCL kernels on
six platforms.  This subpackage reproduces that system as:

- :mod:`~repro.hetero.device` — the six platform specs exactly as
  printed in Table 4 (cores, bandwidth, frequency),
- :mod:`~repro.hetero.kernels` — functional NumPy kernels for the six
  inference operations, including the *naive* scatter deconvolution
  (Fig. 9a) and the *refactored* inverse-coefficient-mapping gather
  deconvolution (Fig. 9b), instrumented with load/store/FLOP counters,
- :mod:`repro.backend.counters` (a leaf shared with the kernel-dispatch
  registry) — the analytic operation-count model that regenerates
  Table 6,
- :mod:`~repro.hetero.schedule` — enumeration of every DDnet kernel
  invocation with shapes (drives whole-network cost totals),
- :mod:`~repro.hetero.optimizations` — the REF/PF/LU/vectorize/CU
  optimization flag set of §4.2,
- :mod:`~repro.hetero.perfmodel` — a calibrated roofline wall-clock
  model reproducing Tables 4, 5, and 7,
- :mod:`~repro.hetero.fpga` — Arria-10 resource accounting and the
  runtime-reconfiguration schedule of Fig. 10,
- :mod:`~repro.hetero.runtime` — an inference engine that runs DDnet's
  own forward and charges each kernel it dispatches modelled time.
"""

from repro.backend.counters import OpCounts, kernel_op_counts, table6_counts
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
from repro.hetero.kernels import (
    KernelResult,
    batchnorm_kernel,
    conv2d_kernel,
    conv3d_kernel,
    conv_nd_kernel,
    deconv2d_naive_kernel,
    deconv2d_refactored_kernel,
    deconv3d_naive_kernel,
    deconv3d_refactored_kernel,
    deconv_nd_naive_kernel,
    deconv_nd_refactored_kernel,
    leaky_relu_kernel,
    maxpool_kernel,
    unpool_bilinear_kernel,
)
from repro.hetero.schedule import KernelInvocation, ddnet_kernel_schedule, schedule_totals
from repro.hetero.optimizations import OptimizationConfig
from repro.hetero.perfmodel import PerfModel, PlatformPrediction
from repro.hetero.fpga import FpgaResourceModel, ReconfigurationSchedule
from repro.hetero.oclsim import Buffer, CommandQueue, DeviceMemoryError, Event, transfer_fraction
from repro.hetero.runtime import InferenceEngine

__all__ = [
    "DeviceSpec", "DEVICES", "NVIDIA_V100", "NVIDIA_P100", "NVIDIA_T4",
    "AMD_VEGA_FRONTIER", "INTEL_XEON_6128", "INTEL_ARRIA10",
    "OpCounts", "kernel_op_counts", "table6_counts",
    "KernelResult", "conv2d_kernel", "deconv2d_naive_kernel",
    "deconv2d_refactored_kernel", "maxpool_kernel", "unpool_bilinear_kernel",
    "leaky_relu_kernel", "batchnorm_kernel",
    "conv_nd_kernel", "deconv_nd_naive_kernel", "deconv_nd_refactored_kernel",
    "conv3d_kernel", "deconv3d_naive_kernel", "deconv3d_refactored_kernel",
    "CalibratedPerfModel",
    "KernelInvocation", "ddnet_kernel_schedule", "schedule_totals",
    "OptimizationConfig", "PerfModel", "PlatformPrediction",
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
