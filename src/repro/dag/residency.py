"""Model residency: which stage's weights live on which device.

Clockwork's central constraint — a model must be *resident* before it
can execute, and device memory bounds how many models fit — applied to
the three-stage COVID pipeline.  Each device holds an LRU set of
resident models within :attr:`repro.hetero.device.DeviceSpec.memory_gb`;
dispatching a stage whose weights are absent pays the stage's ``pre``
cost (PCIe weight load on GPUs/CPUs, full bitstream reconfiguration on
the FPGA — the same stall constant the fault injector uses), evicting
least-recently-used models first when space runs out.

Every swap is observable: a ``model_swap`` event on the telemetry bus
(payload: device, model, stage, penalty, evicted list) and the
run-scoped counters ``serve.dag.model_swaps`` /
``serve.dag.model_evictions``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Sequence

from repro.dag.stage import StageFn
from repro.hetero.device import DeviceSpec

__all__ = ["ModelResidency", "SWAP_COUNTER", "EVICTION_COUNTER",
           "DAG_SOURCE"]

#: ``source`` tag of residency events on the shared bus.
DAG_SOURCE = "serve.dag"

SWAP_COUNTER = "serve.dag.model_swaps"
EVICTION_COUNTER = "serve.dag.model_evictions"


class ModelResidency:
    """Per-device LRU of resident model weights under a memory cap."""

    def __init__(self, devices: Sequence[DeviceSpec], bus=None, registry=None):
        self.capacity: Dict[str, float] = {d.name: d.memory_gb for d in devices}
        #: device name → OrderedDict(model label → space GB), LRU order.
        self.resident: Dict[str, "OrderedDict[str, float]"] = {
            d.name: OrderedDict() for d in devices}
        self.bus = bus
        self.registry = registry
        self.swaps = 0
        self.evictions = 0
        #: Bumped by every change to which models are resident where,
        #: the state :meth:`load_penalty` reads.
        self.version = 0

    def _count(self, name: str, n: int = 1) -> None:
        if self.registry is not None:
            self.registry.counter(name).inc(n)

    def add_device(self, spec: DeviceSpec) -> None:
        """Track a device provisioned mid-run (fleet autoscaling).

        It starts with nothing resident, so its first dispatch of every
        stage pays the full swap-in cost — the autoscaler's warm-up.
        """
        if spec.name in self.capacity:
            raise ValueError(f"device {spec.name!r} already tracked")
        self.capacity[spec.name] = spec.memory_gb
        self.resident[spec.name] = OrderedDict()
        self.version += 1

    def used_gb(self, device_name: str) -> float:
        return sum(self.resident[device_name].values())

    def is_resident(self, device_name: str, model: str) -> bool:
        return model in self.resident[device_name]

    def load_penalty(self, device: DeviceSpec, stage: StageFn) -> float:
        """Peek (no mutation): the swap cost the next dispatch would pay."""
        if self.is_resident(device.name, stage.model):
            return 0.0
        return stage.load_time(device)

    def ensure(self, device: DeviceSpec, stage: StageFn,
               now: float) -> float:
        """Make ``stage.model`` resident on ``device``; returns the
        swap penalty charged (0.0 when already resident).

        Evicts LRU models until the stage fits.  A model larger than
        the whole device never becomes resident — every dispatch pays
        the load (the FPGA-with-tiny-BRAM case).
        """
        res = self.resident[device.name]
        if stage.model in res:
            res.move_to_end(stage.model)
            return 0.0
        cap = self.capacity[device.name]
        evicted = []
        while res and self.used_gb(device.name) + stage.space_gb > cap:
            victim, _ = res.popitem(last=False)
            evicted.append(victim)
        penalty = stage.load_time(device)
        if self.used_gb(device.name) + stage.space_gb <= cap:
            res[stage.model] = stage.space_gb
        self.version += 1
        self.swaps += 1
        self.evictions += len(evicted)
        self._count(SWAP_COUNTER)
        if evicted:
            self._count(EVICTION_COUNTER, len(evicted))
        if self.bus is not None:
            self.bus.emit(now, "model_swap", DAG_SOURCE,
                          device=device.name, model=stage.model,
                          stage=stage.name, penalty_s=round(penalty, 6),
                          evicted=evicted)
        return penalty

    def snapshot(self) -> Dict[str, list]:
        """Resident model labels per device (LRU → MRU order)."""
        return {name: list(models) for name, models in self.resident.items()}
