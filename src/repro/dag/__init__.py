"""Stage-level DAG serving: placement, pipelining, and model residency.

The paper's inference path is three very differently-sized models —
DDnet enhance → AH-Net segment → DenseNet classify — and this package
gives the serving layer a first-class view of that structure (the
Clockwork model-record idiom, the Goel et al. follow-up framework
arXiv:2112.09216, and CoRSAI arXiv:2105.11863 all share the shape):

- :mod:`~repro.dag.stage` — :class:`StageFn` cost records
  (``space`` / ``pre`` / ``input`` / ``output`` / ``post``; execution
  time comes from :class:`repro.serve.scheduler.ServiceTimeModel`),
- :mod:`~repro.dag.graph` — :class:`StageGraph` and the
  :func:`covid_stage_graph` factory,
- :mod:`~repro.dag.residency` — :class:`ModelResidency`, per-device
  LRU weight residency with swap penalties (PCIe load on GPUs/CPUs,
  bitstream reconfiguration on the FPGA),
- :mod:`~repro.dag.artifacts` — :class:`ArtifactCache`, the
  ``(scan hash, stage)`` intermediate-artifact LRU that lets a
  monitoring re-read enter the DAG at the classify stage,
- :mod:`~repro.dag.bench` — the monolithic-vs-DAG benchmark harness
  behind ``repro bench dag``.

:class:`repro.serve.ServingEngine` consumes all of it via
``mode="dag"``; see ``docs/serving.md`` ("Pipeline as a DAG").
"""

from dataclasses import dataclass
from typing import Optional

from repro.dag.artifacts import ARTIFACT_METRIC_PREFIX, ArtifactCache
from repro.dag.graph import QUANTIFY_MODEL, STAGE_MODELS, StageGraph, covid_stage_graph
from repro.dag.residency import (
    DAG_SOURCE,
    EVICTION_COUNTER,
    SWAP_COUNTER,
    ModelResidency,
)
from repro.dag.stage import FPGA_MODEL_SWAP_S, HOST_LINK_GB_S, StageFn
from repro.hetero.device import DeviceSpec

__all__ = [
    "StageFn", "HOST_LINK_GB_S", "FPGA_MODEL_SWAP_S",
    "StageGraph", "covid_stage_graph", "STAGE_MODELS", "QUANTIFY_MODEL",
    "ModelResidency", "SWAP_COUNTER", "EVICTION_COUNTER", "DAG_SOURCE",
    "ArtifactCache", "ARTIFACT_METRIC_PREFIX",
    "DagContext",
]


@dataclass
class DagContext:
    """Everything the serving engine's DAG mode threads through its
    lifecycle and dispatch units."""

    graph: StageGraph
    residency: ModelResidency
    artifacts: ArtifactCache
    #: Route requests around a skippable stage whose batch exhausted
    #: failover (tagged degraded) instead of shedding them.
    route_around_stage: bool = True

    def batch_seconds(self, device: DeviceSpec, stage: str, size: int,
                      exec_s: float = 0.0,
                      now: Optional[float] = None) -> float:
        """Device seconds one DAG batch costs: weight swap-in, then
        activation transfer, ``exec_s``, then post-processing.

        With ``now=None`` this is a peek — the overhead the perf-aware
        placement adds to its estimate (``exec_s`` stays 0.0; the
        scheduler adds the exec time itself).  With ``now`` the stage's
        weights are made resident, which is the dispatch charge.
        """
        fn = self.graph.stage(stage)
        swap_s = (self.residency.load_penalty(device, fn) if now is None
                  else self.residency.ensure(device, fn, now))
        return swap_s + fn.transfer_time(size) + exec_s + fn.post_s
