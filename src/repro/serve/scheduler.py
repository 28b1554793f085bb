"""Fleet scheduling: place batches on the Table 4 device fleet.

Per-batch service times come from the calibrated
:class:`repro.hetero.PerfModel`, so the scheduler sees the paper's real
heterogeneity: a V100 finishes a DDnet batch ~600× sooner than the
Arria-10.  Three policies:

- ``round-robin`` — rotate over the fleet, heterogeneity-blind,
- ``least-loaded`` — fewest in-flight batches, then least cumulative
  busy time (a queue-depth balancer, still service-time-blind),
- ``perf-aware`` — minimize the *estimated completion time*
  ``free_at + T_device(stage, batch)`` using the perf model — the
  policy the ISSUE benchmarks against round-robin.

Every device has ``slots`` concurrency (default 1 batch in flight,
matching the paper's one-queue-per-device OpenCL runtime); the
scheduler enforces it and keeps per-device accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.hetero.device import DEVICES, DeviceSpec, get_device
from repro.hetero.perfmodel import PerfModel
from repro.serve.batcher import Batch

SCHEDULING_POLICIES = ("round-robin", "least-loaded", "perf-aware")

#: Pipeline stages in Fig. 4 order.
STAGES = ("enhance", "segment", "classify")

#: The terminal stage of the ``quantify`` workload arm (COVID-Rate
#: style lesion segmentation + percent-of-lung-involvement scoring):
#: replaces ``classify`` on that kind's chain (see ``repro.workload``).
QUANTIFY_STAGE = "quantify"

#: The fused pseudo-stage of monolithic serving (``mode="monolithic"``):
#: one batch runs enhance+segment+classify back-to-back on one device.
MONOLITHIC_STAGE = "pipeline"

#: Named fleets for the CLI / benchmarks.
FLEET_PRESETS: Dict[str, Sequence[str]] = {
    "all": tuple(DEVICES),
    "gpus": ("Nvidia V100 GPU", "Nvidia P100 GPU",
             "AMD Radeon Vega Frontier GPU", "Nvidia T4 GPU"),
    # GPU + CPU + FPGA: the heterogeneity stress case of the ISSUE.
    "mixed": ("Nvidia V100 GPU", "Nvidia T4 GPU",
              "Intel Xeon Gold 6128 CPU", "Intel Arria 10 GX 1150 FPGA"),
}


def fleet_from_spec(spec: str) -> List[DeviceSpec]:
    """Resolve a preset name or comma-separated device substrings."""
    if spec in FLEET_PRESETS:
        return [DEVICES[name] for name in FLEET_PRESETS[spec]]
    return [get_device(part.strip()) for part in spec.split(",") if part.strip()]


class ServiceTimeModel:
    """Per-(device, stage, batch-size) service times from the perf model.

    The enhancement stage is one DDnet inference per scan chunk — the
    perf model's calibrated Table 5 quantity — queried at the paper's
    reference workload (512×512×32 per scan) regardless of the reduced
    scale used for functional verification.  Segmentation is a frozen
    threshold/AH-Net pass, modelled as bandwidth-bound sweeps over the
    volume; classification is a 3D DenseNet, modelled as a fixed FLOP
    fraction of DDnet (both are an order cheaper than enhancement,
    matching the §5.1.1 Clara stage split).
    """

    #: full read + mask write + masked write, bytes per voxel (float32).
    SEGMENT_PASS_BYTES = 12.0
    #: DenseNet3D-121 inference FLOPs relative to DDnet on the same chunk.
    CLASSIFY_FLOP_FRACTION = 0.35
    #: Lesion quantification (quantify arm): masked read + lesion-mask
    #: write + connected-component relabel sweep, bytes per voxel.
    QUANTIFY_PASS_BYTES = 20.0

    def __init__(
        self,
        perf_model: Optional[PerfModel] = None,
        input_size: int = 512,
        slices_per_scan: int = 32,
    ):
        self.perf_model = perf_model or PerfModel()
        self.input_size = input_size
        self.slices_per_scan = slices_per_scan
        self._cache: Dict[tuple, float] = {}

    @classmethod
    def calibrated(
        cls,
        kernel_calibration=None,
        input_size: int = 512,
        slices_per_scan: int = 32,
        **calibrate_kwargs,
    ) -> "ServiceTimeModel":
        """Service times anchored on *measured* host kernel execution.

        Builds a :class:`repro.backend.calibrate.CalibratedPerfModel`
        from ``kernel_calibration`` (or from a fresh
        :func:`repro.backend.calibrate.calibrate_host` microbenchmark
        when omitted) so perf-aware placement runs on service times
        fitted to the machine actually executing the kernels.
        """
        from repro.backend.calibrate import CalibratedPerfModel, calibrate_host

        if kernel_calibration is None:
            kernel_calibration = calibrate_host(**calibrate_kwargs)
        return cls(
            perf_model=CalibratedPerfModel(kernel_calibration),
            input_size=input_size,
            slices_per_scan=slices_per_scan,
        )

    def batch_time(self, device: DeviceSpec, stage: str, batch_size: int) -> float:
        """Service time for ``batch_size`` scans of ``stage`` on ``device``.

        ``stage`` may also be :data:`MONOLITHIC_STAGE` (``"pipeline"``):
        the fused whole-pipeline time, i.e. the sum of the three stage
        times on the same device — the monolithic-serving baseline the
        DAG benchmark compares against.
        """
        key = (device.name, stage, batch_size)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        # Only valid keys enter the cache, so a hit needs no validation.
        if stage not in STAGES and stage not in (QUANTIFY_STAGE,
                                                 MONOLITHIC_STAGE):
            raise ValueError(f"unknown stage {stage!r}; have "
                             f"{STAGES + (QUANTIFY_STAGE, MONOLITHIC_STAGE)}")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        cached = self._cache[key] = self._compute(device, stage, batch_size)
        return cached

    @staticmethod
    def _base(device: DeviceSpec) -> DeviceSpec:
        """Resolve a regional clone to its calibrated base device.

        ``repro.fleet`` renames devices ``<base> @<region>`` (and the
        autoscaler appends ``+k``) to keep names fleet-unique; the perf
        model's calibration stays keyed by the Table 4 base names.
        """
        if " @" in device.name:
            from dataclasses import replace

            return replace(device, name=device.name.split(" @", 1)[0])
        return device

    def _compute(self, device: DeviceSpec, stage: str, batch_size: int) -> float:
        if stage == MONOLITHIC_STAGE:
            return sum(self.batch_time(device, s, batch_size) for s in STAGES)
        if stage in ("segment", QUANTIFY_STAGE):
            # Both are bandwidth-bound volume sweeps; quantification
            # touches more bytes per voxel (lesion mask + relabeling).
            per_voxel = (self.SEGMENT_PASS_BYTES if stage == "segment"
                         else self.QUANTIFY_PASS_BYTES)
            voxels = batch_size * self.slices_per_scan * self.input_size**2
            return (voxels * per_voxel / device.sustained_bandwidth
                    + device.launch_overhead_us * 1e-6)
        from repro.hetero.optimizations import OptimizationConfig

        # Serve each device with its best configuration: the FPGA only
        # reaches its Table 4 time with the §4.2.3 extras enabled.
        config = (OptimizationConfig.fpga_full()
                  if device.device_type == "fpga" else None)
        ddnet = self.perf_model.predict_batch(
            self._base(device), batch=batch_size, config=config,
            input_size=self.input_size, slices_per_scan=self.slices_per_scan,
        ).total_s
        if stage == "classify":
            return ddnet * self.CLASSIFY_FLOP_FRACTION
        return ddnet


@dataclass
class DeviceWorker:
    """One fleet member with in-flight, fault, and utilization accounting."""

    spec: DeviceSpec
    slots: int = 1
    in_flight: int = 0
    free_at: float = 0.0
    busy_s: float = 0.0
    batches_done: int = 0
    requests_done: int = 0
    batches_failed: int = 0
    max_in_flight: int = 0
    #: Simulated time at which the device permanently died (None = alive).
    crashed_at: Optional[float] = None
    #: Simulated time the device joined the fleet (0.0 = from the start)
    #: and left it (None = still provisioned) — the autoscaler's
    #: device-hour billing window.
    provisioned_at: float = 0.0
    retired_at: Optional[float] = None
    #: Bumped by every change to ``in_flight`` or ``free_at``, the
    #: worker state a pick reads (see :attr:`FleetScheduler.version`).
    version: int = 0

    def billed_s(self, makespan: float) -> float:
        """Seconds of provisioned (billable) time within the run.

        Billing stops at retirement or permanent crash, whichever comes
        first; a device alive at the end bills through the makespan.
        """
        end = makespan
        if self.retired_at is not None:
            end = min(end, self.retired_at)
        if self.crashed_at is not None:
            end = min(end, self.crashed_at)
        return max(0.0, end - self.provisioned_at)

    @property
    def available(self) -> bool:
        return self.in_flight < self.slots

    @property
    def alive(self) -> bool:
        return self.crashed_at is None

    def begin(self, now: float, service_s: float) -> float:
        """Start a batch; returns its completion time."""
        if not self.available:
            raise RuntimeError(f"{self.spec.name}: no free slot")
        self.in_flight += 1
        self.version += 1
        self.max_in_flight = max(self.max_in_flight, self.in_flight)
        self.busy_s += service_s
        done = now + service_s
        self.free_at = max(self.free_at, done)
        return done

    def complete(self, batch: Batch) -> None:
        if self.in_flight <= 0:
            raise RuntimeError(f"{self.spec.name}: completion without dispatch")
        self.in_flight -= 1
        self.version += 1
        self.batches_done += 1
        self.requests_done += len(batch)

    def fail(self, batch: Batch) -> None:
        """A dispatched batch failed (fault) instead of completing."""
        if self.in_flight <= 0:
            raise RuntimeError(f"{self.spec.name}: failure without dispatch")
        self.in_flight -= 1
        self.version += 1
        self.batches_failed += 1


class FleetScheduler:
    """Pick a device for each formed batch under one of three policies."""

    def __init__(
        self,
        fleet: Sequence[DeviceSpec],
        policy: str = "perf-aware",
        service_model: Optional[ServiceTimeModel] = None,
        slots: int = 1,
        lookahead: float = 2.0,
        extra_delay=None,
    ):
        if not fleet:
            raise ValueError("fleet must not be empty")
        if policy not in SCHEDULING_POLICIES:
            raise ValueError(f"policy must be one of {SCHEDULING_POLICIES}")
        if lookahead < 1.0:
            raise ValueError("lookahead must be >= 1.0")
        self.workers = [DeviceWorker(spec=d, slots=slots) for d in fleet]
        self.policy = policy
        self.service_model = service_model or ServiceTimeModel()
        self.lookahead = lookahead
        #: Optional ``(worker, batch) -> seconds`` hook folded into the
        #: perf-aware completion estimate.  DAG mode passes the model
        #: residency swap penalty + activation transfer + post cost, so
        #: placement prefers devices that already hold a stage's weights.
        self.extra_delay = extra_delay
        self.retired: List[DeviceWorker] = []
        self._rr_index = 0
        self._roster_changes = 0  # add_worker / retire_worker calls

    @property
    def version(self) -> Tuple[int, int]:
        """Changes whenever the fleet state :meth:`pick` reads changes:
        the roster, or a worker's ``in_flight`` or ``free_at``.

        Every counter only grows, so an equal version means that state
        is unchanged (the backlog memo of
        :meth:`repro.serve.dispatch.DispatchController.pump_backlog`).
        """
        return self._roster_changes, sum(w.version for w in self.workers)

    def warm_until(self, now: float) -> float:
        """The earliest ``free_at`` after ``now`` of a worker with a free
        slot (a new device's warm-up hold, or a second slot), or ``inf``.

        From then on, with the fleet state unchanged, every free
        worker's delay in :meth:`pick` is constant.
        """
        return min((w.free_at for w in self.workers
                    if w.available and w.free_at > now), default=math.inf)

    @property
    def all_workers(self) -> List[DeviceWorker]:
        """Every worker that ever served this run (active + retired)."""
        return self.workers + self.retired

    def add_worker(self, spec: DeviceSpec, now: float = 0.0,
                   slots: Optional[int] = None,
                   warmup_s: float = 0.0) -> DeviceWorker:
        """Grow the fleet with a newly provisioned device.

        ``warmup_s`` holds the device's first dispatch back (model
        residency being established); its billing clock starts at
        ``now`` regardless — warm-up is paid for, not free.
        """
        if any(w.spec.name == spec.name for w in self.all_workers):
            raise ValueError(f"duplicate device name {spec.name!r}")
        worker = DeviceWorker(spec=spec,
                              slots=slots if slots is not None
                              else self.workers[0].slots if self.workers else 1,
                              provisioned_at=now, free_at=now + warmup_s)
        self.workers.append(worker)
        self._roster_changes += 1
        return worker

    def retire_worker(self, name: str, now: float) -> DeviceWorker:
        """Remove an *idle* device from the fleet (scale-down).

        The worker keeps its accounting and moves to :attr:`retired`;
        billing stops at ``now``.
        """
        for i, w in enumerate(self.workers):
            if w.spec.name == name:
                if w.in_flight:
                    raise RuntimeError(f"{name}: cannot retire with "
                                       f"{w.in_flight} batch(es) in flight")
                w.retired_at = now
                self.retired.append(self.workers.pop(i))
                self._roster_changes += 1
                return w
        raise KeyError(f"no active worker named {name!r}")

    def pick(self, batch: Batch, now: float,
             exclude: Optional[Set[str]] = None) -> Optional[DeviceWorker]:
        """The worker to run ``batch``, or None if no eligible slot is free.

        ``exclude`` removes devices from consideration entirely — the
        resilience layer passes the union of the batch's failed devices
        and every device whose circuit breaker currently refuses traffic
        (:meth:`repro.resilience.health.FleetHealth.unavailable`).
        """
        exclude = exclude or set()
        eligible = [w for w in self.workers if w.spec.name not in exclude]
        free = [w for w in eligible if w.available]
        if not free:
            return None
        if self.policy == "round-robin":
            # Rotate over the *whole* fleet so the policy stays
            # heterogeneity-blind; skip to the next free eligible worker.
            n = len(self.workers)
            for step in range(n):
                w = self.workers[(self._rr_index + step) % n]
                if w.available and w.spec.name not in exclude:
                    self._rr_index = (self._rr_index + step + 1) % n
                    return w
            return None
        if self.policy == "least-loaded":
            return min(free, key=lambda w: (w.in_flight, w.busy_s, w.spec.name))
        # perf-aware: estimated completion delay over the whole ELIGIBLE
        # fleet, with lookahead.  Take the best free device unless it is
        # more than ``lookahead``× slower than waiting for the fleet's
        # best (busy) device: an idle sibling GPU is worth dispatching
        # to, a 17 s FPGA batch is not.  Pure greedy-ETA would serialize
        # everything onto the single fastest device; pure free-only
        # ETA would feed the FPGA whenever the GPUs are briefly busy.
        # One pass prices each eligible worker once; names are unique,
        # so ``(delay, name)`` picks one free candidate on a delay tie.
        size = len(batch)
        best = float("inf")
        cand = cand_key = None
        for w in eligible:
            d = max(0.0, w.free_at - now) + self.service_model.batch_time(
                w.spec, batch.stage, size)
            if self.extra_delay is not None:
                d += self.extra_delay(w, batch)
            if d < best:
                best = d
            if w.available:
                key = (d, w.spec.name)
                if cand is None or key < cand_key:
                    cand, cand_key = w, key
        return cand if cand_key[0] <= self.lookahead * best else None

    def dispatch(self, worker: DeviceWorker, batch: Batch, now: float,
                 service_s: Optional[float] = None) -> float:
        """Charge ``batch`` to ``worker``; returns completion time.

        ``service_s`` overrides the modelled service time — the engine
        passes the fault-adjusted duration (straggler slowdown,
        reconfiguration stall, or time-to-failure for a doomed launch).
        """
        if service_s is None:
            service_s = self.service_model.batch_time(
                worker.spec, batch.stage, len(batch))
        return worker.begin(now, service_s)

    def utilization(self, makespan: float) -> Dict[str, float]:
        """busy-time / makespan per device (can exceed 1 with slots > 1)."""
        if makespan <= 0:
            return {w.spec.name: 0.0 for w in self.all_workers}
        return {w.spec.name: w.busy_s / makespan for w in self.all_workers}

    def availability(self, makespan: float) -> Dict[str, float]:
        """Fraction of the run each device was alive (1.0 = never crashed)."""
        if makespan <= 0:
            return {w.spec.name: 1.0 for w in self.all_workers}
        return {
            w.spec.name: 1.0 if w.alive
            else max(0.0, min(w.crashed_at, makespan)) / makespan
            for w in self.all_workers
        }
