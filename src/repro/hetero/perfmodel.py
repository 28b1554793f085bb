"""Calibrated wall-clock model for DDnet inference (Tables 4, 5, 7).

Structure
---------
For the optimized (REF + PF + LU) kernels:

- convolution / refactored deconvolution are *compute-limited*:
  ``t = flops / (peak_flops · eff)`` with a per-device efficiency,
- the "other" kernels (pooling, un-pooling, Leaky-ReLU, batch-norm) are
  *bandwidth-limited*: ``t = bytes / (peak_bw · eff)``.

FLOP and byte totals are the counts of the default DDnet's own forward
(:data:`DDNET_16X16`, the Table 6 counters of every kernel it
dispatches on one 16×16 slice, scaled exactly to any legal shape by
:func:`ddnet_totals`) — the paper's reference workload is a 512×512×32
chunk — and the per-device efficiencies are **calibrated once against
the paper's measured Table 5 kernel times**.  GPU conv
efficiencies land at a plausible 0.4-1.3 of peak.  Factors above 1 are
expected where the Table 6 counting convention over-states true DRAM
traffic: the counters charge every *global memory operation* the kernel
issues, but caches serve most of them (e.g. the 4-loads-per-output of
un-pooling mostly hit L2), so the effective service rate exceeds DRAM
bandwidth.  The factor is therefore an *effective-rate* calibration,
not a physical efficiency.

The un-optimized configurations of Table 7 are modelled as group-level
penalty factors (naive scatter deconvolution with read-modify-write
global traffic; missing prefetch/unroll), also calibrated per device
from Table 7.  Predictions for *new* workloads (different image sizes,
batch) then follow mechanically from the counts.

PyTorch runtimes (Table 4) = OpenCL time × a per-device framework
overhead factor (kernel dispatch, no fusion), calibrated from Table 4.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple, TypeVar

from repro.backend.counters import OpCounts
from repro.hetero.device import DEVICES, DeviceSpec
from repro.hetero.optimizations import OptimizationConfig

#: Paper Table 5: measured optimized kernel times (seconds).
PAPER_TABLE5: Dict[str, Dict[str, float]] = {
    "Nvidia V100 GPU": {"convolution": 0.036, "deconvolution": 0.059, "other": 0.004},
    "Nvidia P100 GPU": {"convolution": 0.075, "deconvolution": 0.169, "other": 0.005},
    "AMD Radeon Vega Frontier GPU": {"convolution": 0.082, "deconvolution": 0.170, "other": 0.005},
    "Nvidia T4 GPU": {"convolution": 0.123, "deconvolution": 0.153, "other": 0.016},
    "Intel Xeon Gold 6128 CPU": {"convolution": 0.495, "deconvolution": 1.078, "other": 0.057},
    "Intel Arria 10 GX 1150 FPGA": {"convolution": 9.819, "deconvolution": 2.839, "other": 3.991},
}

#: Paper Table 7: whole-DDnet times under the optimization ladder (seconds).
PAPER_TABLE7: Dict[str, Dict[str, float]] = {
    "Nvidia V100 GPU": {"baseline": 63.82, "ref": 0.10, "ref_pf": 0.10, "ref_pf_lu": 0.10},
    "Nvidia P100 GPU": {"baseline": 152.08, "ref": 0.29, "ref_pf": 0.26, "ref_pf_lu": 0.25},
    "AMD Radeon Vega Frontier GPU": {"baseline": 219.60, "ref": 0.25, "ref_pf": 0.25, "ref_pf_lu": 0.25},
    "Nvidia T4 GPU": {"baseline": 59.30, "ref": 0.32, "ref_pf": 0.31, "ref_pf_lu": 0.29},
    "Intel Xeon Gold 6128 CPU": {"baseline": 6.51, "ref": 1.95, "ref_pf": 1.69, "ref_pf_lu": 1.64},
    "Intel Arria 10 GX 1150 FPGA": {"baseline": 278.53, "ref": 130.62, "ref_pf": 127.72, "ref_pf_lu": 65.83},
}

#: Paper Table 4: end-to-end inference runtimes (seconds); None = unsupported.
PAPER_TABLE4: Dict[str, Dict[str, Optional[float]]] = {
    "Nvidia V100 GPU": {"pytorch": 0.22, "opencl": 0.10},
    "Nvidia P100 GPU": {"pytorch": 0.73, "opencl": 0.25},
    "AMD Radeon Vega Frontier GPU": {"pytorch": None, "opencl": 0.25},
    "Nvidia T4 GPU": {"pytorch": 1.29, "opencl": 0.29},
    "Intel Xeon Gold 6128 CPU": {"pytorch": 5.52, "opencl": 1.64},
    "Intel Arria 10 GX 1150 FPGA": {"pytorch": None, "opencl": 16.74},
}

#: FPGA-specific optimization gains (§4.2.3): the LU-ladder kernels are
#: further accelerated by vectorization ×5 on deconvolution and by
#: 2 compute units + dedicated 5×5 kernels on convolution.
FPGA_VECTORIZE_GAIN = 5.0
FPGA_CU_DEDICATED_GAIN = 4.85  # CU×2 ≈ 2.0, dedicated-kernel pipeline ≈ 2.4
FPGA_RECONFIG_OVERHEAD_S = 0.09


#: One forward of the default ``DDnet()`` on one 16×16 slice (the
#: smallest legal size) under ``no_grad``: per kernel kind, its launch
#: count and the Table 6 counts of all those launches, as
#: :class:`repro.hetero.runtime.InferenceEngine` traces them.  A tier-1
#: test re-traces the model and requires this table, so it cannot drift
#: from the network.  Stored rather than traced at run time: serving
#: prices DDnet without building or running one.
DDNET_16X16: Mapping[str, Tuple[int, OpCounts]] = MappingProxyType({
    "convolution": (37, OpCounts(loads=19767808, stores=32656, flops=19767808)),
    "deconvolution": (8, OpCounts(loads=17510400, stores=12480, flops=17510400)),
    "pooling": (4, OpCounts(loads=12240, stores=1360, flops=0)),
    "unpooling": (4, OpCounts(loads=21760, stores=5440, flops=76160)),
    "batchnorm": (44, OpCounts(loads=265200, stores=53040, flops=265200)),
    "leaky_relu": (44, OpCounts(loads=53040, stores=53040, flops=53040)),
})

#: Kernel kinds grouped the way Table 5 reports them.
TABLE5_GROUPS = {
    "convolution": ("convolution",),
    "deconvolution": ("deconvolution", "deconvolution_naive"),
    "other": ("pooling", "unpooling", "leaky_relu", "batchnorm"),
}

_T = TypeVar("_T")


def table5_groups(per_kind: Mapping[str, _T], zero: _T) -> Dict[str, _T]:
    """Sum per-kind values (counts or seconds) into the Table 5 groups.

    Kinds outside every group (e.g. ``relu``) are left out.
    """
    return {group: sum((per_kind[k] for k in kinds if k in per_kind), zero)
            for group, kinds in TABLE5_GROUPS.items()}


@functools.lru_cache(maxsize=256)
def ddnet_totals(input_size: int, batch: int) -> Mapping[str, OpCounts]:
    """Counts of the default DDnet on ``batch`` slices of ``input_size``².

    Per kernel kind and per Table 5 group: :data:`DDNET_16X16` scaled
    by ``(input_size / 16)² · batch``, which is exact because every
    count is linear in slices × area.  Built once per shape per process
    and shared by every caller, so the mapping is read-only (and
    :class:`OpCounts` frozen).
    """
    if input_size % 16:
        raise ValueError(f"DDnet input size must divide by 16; got {input_size}")
    scale = (input_size // 16) ** 2 * batch
    totals = {kind: counts.scaled(scale) for kind, (_, counts) in DDNET_16X16.items()}
    totals.update(table5_groups(totals, OpCounts()))
    return MappingProxyType(totals)


@dataclass
class PlatformPrediction:
    """Predicted kernel-group and total times for one configuration."""

    device: DeviceSpec
    config: OptimizationConfig
    convolution_s: float
    deconvolution_s: float
    other_s: float
    reconfig_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.convolution_s + self.deconvolution_s + self.other_s + self.reconfig_s


@dataclass
class _DeviceCalibration:
    conv_eff: float          # fraction of peak FLOP/s on conv
    deconv_eff: float        # fraction of peak FLOP/s on refactored deconv
    other_eff: float         # fraction of peak bandwidth on "other"
    naive_penalty: float     # deconv slowdown without REF
    pf_factor: float         # conv+deconv slowdown without prefetch
    lu_factor: float         # conv+deconv slowdown without loop unrolling
    baseline_conv_factor: float  # conv slowdown in the fully-unoptimized build
    pytorch_factor: Optional[float]  # framework overhead vs OpenCL


class PerfModel:
    """DDnet inference wall-clock model over the Table 4 platforms."""

    def __init__(self):
        #: The paper's reference workload: one 512×512×32 chunk.
        self.totals = ddnet_totals(512, 32)
        self.calibration: Dict[str, _DeviceCalibration] = {}
        for name, device in DEVICES.items():
            self.calibration[name] = self._calibrate(device)

    # ------------------------------------------------------------------
    def _calibrate(self, device: DeviceSpec) -> _DeviceCalibration:
        t5 = PAPER_TABLE5[device.name]
        t7 = PAPER_TABLE7[device.name]
        t4 = PAPER_TABLE4[device.name]
        conv_flops = self.totals["convolution"].flops
        deconv_flops = self.totals["deconvolution"].flops
        other_bytes = self.totals["other"].bytes_moved
        is_fpga = device.device_type == "fpga"
        # For the FPGA, Table 5 reports the *fully optimized* kernels;
        # the LU-ladder kernel times are backed out of Table 7.
        conv_t = t5["convolution"]
        deconv_t = t5["deconvolution"]
        if is_fpga:
            ladder_convdeconv = t7["ref_pf_lu"] - t5["other"]
            deconv_t = t5["deconvolution"] * FPGA_VECTORIZE_GAIN
            conv_t = ladder_convdeconv - deconv_t
        conv_eff = conv_flops / (device.peak_flops * conv_t)
        deconv_eff = deconv_flops / (device.peak_flops * deconv_t)
        other_eff = other_bytes / (device.peak_bandwidth * t5["other"])
        # Attribute the PF/LU ladder gains to the conv+deconv portion:
        # the Table 7 step sizes divided by the optimized conv+deconv
        # time give the slowdown factor each missing optimization costs.
        convdeconv_opt = conv_t + deconv_t
        lu_factor = max(1.0, 1.0 + (t7["ref_pf"] - t7["ref_pf_lu"]) / convdeconv_opt)
        pf_factor = max(1.0, 1.0 + (t7["ref"] - t7["ref_pf"]) / convdeconv_opt)
        baseline_deconv = deconv_t * pf_factor * lu_factor
        # On the FPGA the unoptimized convolution is also far from its
        # pipelined form; elsewhere the baseline conv equals the ladder conv.
        base_other_conv = conv_t * pf_factor * lu_factor + t5["other"]
        naive_penalty = max(1.0, (t7["baseline"] - base_other_conv) / baseline_deconv)
        baseline_conv_factor = 1.0
        if is_fpga:
            # Split the FPGA baseline between unpipelined conv and naive
            # deconv in proportion to their REF-column shares.
            conv_ref = t7["ref"] - t5["other"] - baseline_deconv
            baseline_conv_factor = max(1.0, conv_ref / (conv_t * pf_factor * lu_factor))
            naive_penalty = max(
                1.0,
                (t7["baseline"] - t7["ref"]) / baseline_deconv + 1.0,
            )
        pytorch_factor = None
        if t4["pytorch"] is not None and t4["opencl"]:
            pytorch_factor = t4["pytorch"] / t4["opencl"]
        return _DeviceCalibration(
            conv_eff=conv_eff, deconv_eff=deconv_eff, other_eff=other_eff,
            naive_penalty=naive_penalty, pf_factor=pf_factor, lu_factor=lu_factor,
            baseline_conv_factor=baseline_conv_factor, pytorch_factor=pytorch_factor,
        )

    # ------------------------------------------------------------------
    def predict(
        self,
        device: DeviceSpec,
        config: Optional[OptimizationConfig] = None,
        totals: Optional[Mapping[str, OpCounts]] = None,
    ) -> PlatformPrediction:
        """Predict kernel-group times for a configuration and workload.

        The workload is ``totals`` (a :func:`ddnet_totals` mapping),
        else the reference chunk.
        """
        config = config or OptimizationConfig.ref_pf_lu()
        cal = self.calibration[device.name]
        if totals is None:
            totals = self.totals
        conv = totals["convolution"].flops / (device.peak_flops * cal.conv_eff)
        deconv = totals["deconvolution"].flops / (device.peak_flops * cal.deconv_eff)
        other = totals["other"].bytes_moved / (device.peak_bandwidth * cal.other_eff)
        reconfig = 0.0

        if not config.refactor_deconv:
            deconv *= cal.naive_penalty
            conv *= cal.baseline_conv_factor
        if not config.prefetch:
            conv *= cal.pf_factor
            deconv *= cal.pf_factor
        if not config.loop_unroll:
            conv *= cal.lu_factor
            deconv *= cal.lu_factor

        if device.device_type == "fpga":
            wants_extra = (
                config.vectorize or config.compute_unit_replication > 1
                or config.dedicated_kernels
            )
            if wants_extra and not config.runtime_reconfiguration:
                raise ValueError(
                    "FPGA-specific optimizations exceed Arria-10 resources in a "
                    "single bitstream; enable runtime_reconfiguration (§4.2.3)"
                )
            if config.vectorize:
                deconv /= FPGA_VECTORIZE_GAIN
            if config.compute_unit_replication > 1 or config.dedicated_kernels:
                conv /= FPGA_CU_DEDICATED_GAIN
            if config.runtime_reconfiguration:
                reconfig = FPGA_RECONFIG_OVERHEAD_S
        elif config.vectorize or config.compute_unit_replication > 1 or config.dedicated_kernels:
            raise ValueError("vectorize/CU-replication/dedicated kernels are FPGA-specific (§4.2.3)")

        return PlatformPrediction(device, config, conv, deconv, other, reconfig)

    def predict_batch(
        self,
        device: DeviceSpec,
        batch: int = 1,
        config: Optional[OptimizationConfig] = None,
        input_size: int = 512,
        slices_per_scan: int = 32,
    ) -> PlatformPrediction:
        """Predict times for a *batch* of scan chunks served together.

        ``batch`` counts whole scans; each contributes
        ``slices_per_scan`` slices to :func:`ddnet_totals`' ``batch``
        argument (the paper's reference chunk is 512×512×32, i.e.
        ``batch=1``).  Times derive mechanically from the counts, so
        ``batch=1`` at the reference shape reproduces the Table 5
        calibration exactly.  The totals are shared per shape; the
        times still go through :meth:`predict`, so a subclass's
        corrections apply.
        """
        if batch < 1:
            raise ValueError("batch must be >= 1")
        return self.predict(device, config,
                            totals=ddnet_totals(input_size, batch * slices_per_scan))

    def predict_pytorch(self, device: DeviceSpec) -> Optional[float]:
        """Table 4 PyTorch column (None where PyTorch is unsupported)."""
        cal = self.calibration[device.name]
        if not device.pytorch_supported or cal.pytorch_factor is None:
            return None
        return self.predict(device).total_s * cal.pytorch_factor

    # ------------------------------------------------------------------
    def table5(self) -> Dict[str, Dict[str, float]]:
        """Model predictions in the Table 5 layout."""
        out = {}
        for name, device in DEVICES.items():
            cfg = (
                OptimizationConfig.fpga_full()
                if device.device_type == "fpga"
                else OptimizationConfig.ref_pf_lu()
            )
            p = self.predict(device, cfg)
            out[name] = {
                "convolution": p.convolution_s,
                "deconvolution": p.deconvolution_s,
                "other": p.other_s,
            }
        return out

    def table7(self) -> Dict[str, Dict[str, float]]:
        """Model predictions in the Table 7 layout."""
        labels = ["baseline", "ref", "ref_pf", "ref_pf_lu"]
        out = {}
        for name, device in DEVICES.items():
            row = {}
            for label, cfg in zip(labels, OptimizationConfig.table7_ladder()):
                row[label] = self.predict(device, cfg).total_s
            out[name] = row
        return out

    def table4(self) -> Dict[str, Dict[str, Optional[float]]]:
        """Model predictions in the Table 4 layout."""
        out = {}
        for name, device in DEVICES.items():
            cfg = (
                OptimizationConfig.fpga_full()
                if device.device_type == "fpga"
                else OptimizationConfig.ref_pf_lu()
            )
            out[name] = {
                "pytorch": self.predict_pytorch(device),
                "opencl": self.predict(device, cfg).total_s,
            }
        return out
