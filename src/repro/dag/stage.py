"""Clockwork-style per-stage cost records for the Fig. 4 pipeline.

A :class:`StageFn` is the DAG analogue of a Clockwork model record
(the ``clockwork_models`` exemplar): per stage it carries the weight
footprint (``space_gb``), the cold-load cost on a device
(:meth:`StageFn.load_time`, Clockwork's ``pre``), the per-scan
host↔device transfer volumes (``input_mb`` / ``output_mb``), and a
fixed post-processing cost (``post_s``).  It carries no execution
times: :meth:`repro.serve.scheduler.ServiceTimeModel.batch_time` (which
may itself be anchored on a :class:`repro.backend.calibrate.
CalibratedPerfModel`) is the one source of those.

The record is *data*: the residency model charges the load when a
stage's weights are not resident, and :meth:`repro.dag.DagContext.
batch_seconds` adds transfer + exec + post per batch, for both the
perf-aware placement estimate and the dispatch charge.  On the FPGA,
loading a different model means reprogramming the bitstream, so the
load there is the :class:`repro.resilience.faults.FaultConfig`
reconfiguration stall (the same constant the fault injector charges
for an unlucky mid-batch reconfiguration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.hetero.device import DeviceSpec
from repro.resilience.faults import FaultConfig

__all__ = ["HOST_LINK_GB_S", "FPGA_MODEL_SWAP_S", "StageFn"]

#: Effective host↔device link bandwidth for weight loads and activation
#: transfers (PCIe 3.0 x16 sustained).
HOST_LINK_GB_S = 12.0

#: Swapping a model onto the FPGA reprograms the bitstream: the cost is
#: the *same* reconfiguration stall the fault injector charges
#: (``FaultConfig.reconfig_stall_s`` = 4 × ``RECONFIG_TIME_S``).
FPGA_MODEL_SWAP_S = FaultConfig().reconfig_stall_s


@dataclass(frozen=True)
class StageFn:
    """One DAG stage: a model plus its Clockwork-style cost record."""

    name: str
    model: str
    #: Weight footprint in GB (drives residency/eviction).
    space_gb: float
    #: Per-scan activation transfer to the device, MB.
    input_mb: float
    #: Per-scan artifact produced by the stage, MB.
    output_mb: float
    #: Fixed post-processing (result serialization) seconds per batch.
    post_s: float = 1e-3
    #: Extra metadata (paper table references etc.).
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.space_gb <= 0:
            raise ValueError(f"{self.name}: space_gb must be > 0")
        if self.input_mb < 0 or self.output_mb < 0 or self.post_s < 0:
            raise ValueError(f"{self.name}: costs must be >= 0")

    # -- cost queries ----------------------------------------------------
    def load_time(self, device: DeviceSpec) -> float:
        """Cold-load (model swap-in) seconds on ``device``: the weight
        load over the host link on GPUs/CPUs, the reconfiguration stall
        on FPGAs.  Computed from the device type, so a device the fleet
        autoscaler adds mid-run is priced like any other."""
        if device.device_type == "fpga":
            return FPGA_MODEL_SWAP_S
        return self.space_gb / HOST_LINK_GB_S

    def transfer_time(self, batch_size: int) -> float:
        """Host↔device activation-transfer seconds for one batch."""
        mb = (self.input_mb + self.output_mb) * batch_size
        return mb / 1e3 / HOST_LINK_GB_S

    @property
    def artifact_bytes(self) -> int:
        """Size of one scan's output artifact (for the artifact cache)."""
        return int(self.output_mb * 1e6)
