"""Seeded, deterministic fault injection for the serving fleet.

Production CT-diagnosis systems must stay available under hardware
faults (CoRSAI, arXiv:2105.11863, is pitched as a *robust*
interpretation system); this module supplies the adversary.  A
:class:`FaultInjector` attaches to the serving engine and decides, per
dispatched batch, whether the launch succeeds, fails, or slows down:

- **transient** — a kernel launch fails partway through service (the
  OpenCL ``CL_OUT_OF_RESOURCES`` class of error); the batch is lost but
  the device survives,
- **crash** — the device dies at a pre-drawn time (exponential with
  mean ``mttf_s``, or an explicit schedule); every batch in flight at
  that moment fails and the device never returns,
- **straggler** — the batch completes, but ``straggler_factor``× slower
  (thermal throttling, a contended PCIe link),
- **reconfig** — FPGA devices only: the launch lands during a §4.2.3
  runtime reconfiguration and stalls for an extra bitstream-swap delay
  (:data:`repro.hetero.fpga.RECONFIG_TIME_S`-scale).

Everything is a pure function of ``(seed, device, batch_id, attempt)``
via independent :class:`numpy.random.Generator` streams, so a chaos run
is bit-reproducible and a *retry* of the same batch on the same device
sees fresh luck — exactly what the failover layer needs.

:func:`kernel_fault_hook` provides the same adversary at the kernel
granularity for :class:`repro.hetero.runtime.InferenceEngine`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.hetero.device import DeviceSpec
from repro.hetero.fpga import RECONFIG_TIME_S

#: Outcome kinds, in reporting order.
FAULT_KINDS = ("transient", "crash", "dead", "straggler", "reconfig")


@dataclass(frozen=True)
class FaultConfig:
    """Knobs of the fault model (all rates are per dispatched batch)."""

    seed: int = 0
    #: Mean time to (permanent) device failure; ``inf`` disables crashes.
    mttf_s: float = math.inf
    #: Explicit per-device crash times; overrides the ``mttf_s`` draw.
    crash_times: Mapping[str, float] = field(default_factory=dict)
    #: Cap on how many devices may crash (earliest draws win).
    max_crashes: Optional[int] = None
    transient_rate: float = 0.02
    #: Fraction of the service time elapsed when a transient fault fires.
    transient_fail_frac: float = 0.5
    straggler_rate: float = 0.05
    straggler_factor: float = 4.0
    #: FPGA-only probability of landing during a reconfiguration.
    reconfig_rate: float = 0.15
    reconfig_stall_s: float = 4 * RECONFIG_TIME_S
    #: Time to detect a launch onto an already-dead device.
    detection_s: float = 0.01

    def __post_init__(self):
        for name in ("transient_rate", "straggler_rate", "reconfig_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.mttf_s <= 0:
            raise ValueError("mttf_s must be positive (inf disables crashes)")
        if not 0.0 < self.transient_fail_frac <= 1.0:
            raise ValueError("transient_fail_frac must be in (0, 1]")
        if self.straggler_factor < 1.0:
            raise ValueError("straggler_factor must be >= 1")


@dataclass(frozen=True)
class BatchOutcome:
    """The injector's verdict on one dispatch attempt."""

    kind: str  # "ok" | one of FAULT_KINDS
    #: Adjusted service time for surviving kinds (straggler/reconfig).
    service_s: float
    fails: bool = False
    #: Dispatch-relative time at which the failure surfaces.
    fail_after_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.fails


def _uint32_words(n: int) -> List[int]:
    """``n``'s 32-bit words, least significant first: how NumPy's
    :class:`~numpy.random.SeedSequence` reads an integer's entropy."""
    if n < 0:
        raise ValueError("expected a non-negative integer seed")
    words = [n & 0xFFFFFFFF]
    while n > 0xFFFFFFFF:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


class FaultInjector:
    """Deterministic per-(device, batch, attempt) fault decisions."""

    def __init__(self, config: FaultConfig, devices: Sequence[DeviceSpec]):
        self.config = config
        # The seed's words once: each dispatch then seeds from a ready
        # uint32 array, the same entropy ``default_rng([seed, ...])``
        # builds from the list on every call.
        self._seed_words = _uint32_words(int(config.seed))
        self.devices = list(devices)
        self._index = {d.name: i for i, d in enumerate(self.devices)}
        rng = np.random.default_rng([config.seed, 0xFA017])
        times: Dict[str, float] = {}
        for d in self.devices:
            # Draw for every device in registration order so explicit
            # schedules don't shift the other devices' streams.
            drawn = float(rng.exponential(config.mttf_s)) \
                if math.isfinite(config.mttf_s) else math.inf
            if d.name in config.crash_times:
                times[d.name] = float(config.crash_times[d.name])
            else:
                times[d.name] = drawn
        if config.max_crashes is not None:
            finite = sorted((t, n) for n, t in times.items() if math.isfinite(t))
            for _, name in finite[config.max_crashes:]:
                times[name] = math.inf
        self.crash_times = times

    # ------------------------------------------------------------------
    def add_device(self, spec: DeviceSpec, now: float = 0.0) -> None:
        """Register a device provisioned mid-run (fleet autoscaling).

        Its crash time is drawn from a stream keyed on the device's
        registration index, so the existing devices' fates are
        untouched and the draw is independent of provisioning order
        elsewhere in the fleet.  ``now`` shifts the draw: a device
        cannot have crashed before it existed.
        """
        if spec.name in self._index:
            raise ValueError(f"device {spec.name!r} already registered")
        index = len(self.devices)
        self.devices.append(spec)
        self._index[spec.name] = index
        if spec.name in self.config.crash_times:
            self.crash_times[spec.name] = float(
                self.config.crash_times[spec.name])
        elif math.isfinite(self.config.mttf_s):
            rng = np.random.default_rng([self.config.seed, 0xFA017, index])
            self.crash_times[spec.name] = now + float(
                rng.exponential(self.config.mttf_s))
        else:
            self.crash_times[spec.name] = math.inf

    def crash_time(self, device_name: str) -> float:
        return self.crash_times[device_name]

    def alive(self, device_name: str, now: float) -> bool:
        return now < self.crash_times[device_name]

    def _uniforms(self, device_name: str, batch_id: int,
                  attempt: int) -> np.ndarray:
        """One dispatch's three uniforms: the first draws of
        ``default_rng([seed, device index, batch_id, attempt])``."""
        entropy = np.array(self._seed_words + [self._index[device_name],
                                               batch_id, attempt], np.uint32)
        return np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy))).random(3)

    def outcome(
        self,
        device: DeviceSpec,
        batch_id: int,
        now: float,
        service_s: float,
        attempt: int = 0,
    ) -> BatchOutcome:
        """Fate of dispatching ``batch_id`` to ``device`` at ``now``."""
        cfg = self.config
        crash_at = self.crash_times[device.name]
        if now >= crash_at:  # launched onto a corpse
            return BatchOutcome("dead", service_s, fails=True,
                                fail_after_s=cfg.detection_s)
        # Fixed draw count/order keeps the stream stable across config
        # changes to individual rates.
        u_transient, u_straggler, u_reconfig = self._uniforms(
            device.name, batch_id, attempt)
        service = service_s
        kind = "ok"
        if u_straggler < cfg.straggler_rate:
            service, kind = service * cfg.straggler_factor, "straggler"
        elif device.device_type == "fpga" and u_reconfig < cfg.reconfig_rate:
            service, kind = service + cfg.reconfig_stall_s, "reconfig"
        if u_transient < cfg.transient_rate:
            fail_after = service * cfg.transient_fail_frac
            if now + fail_after >= crash_at:  # the crash gets there first
                return BatchOutcome("crash", service, fails=True,
                                    fail_after_s=crash_at - now)
            return BatchOutcome("transient", service, fails=True,
                                fail_after_s=fail_after)
        if now + service >= crash_at:  # device dies mid-batch
            return BatchOutcome("crash", service, fails=True,
                                fail_after_s=crash_at - now)
        return BatchOutcome(kind, service)


# ---------------------------------------------------------------------------
# Kernel-granularity faults for repro.hetero.runtime
# ---------------------------------------------------------------------------
class KernelFault(RuntimeError):
    """An injected kernel-launch failure (transient, device survives)."""


def kernel_fault_hook(
    seed: int = 0,
    failure_rate: float = 0.0,
    slow_rate: float = 0.0,
    slow_factor: float = 3.0,
) -> Callable[[str, str, float], float]:
    """Build a deterministic fault hook for ``InferenceEngine``.

    The returned callable matches the engine's ``fault_hook(kind, site,
    time_s)`` contract: it may raise :class:`KernelFault` or return an
    adjusted launch time.  Decisions hash a monotone launch counter, so
    a fresh hook replays the identical fault sequence.
    """
    if not 0.0 <= failure_rate <= 1.0 or not 0.0 <= slow_rate <= 1.0:
        raise ValueError("rates must be in [0, 1]")
    state = {"launch": 0}

    def hook(kind: str, site: str, time_s: float) -> float:
        launch = state["launch"]
        state["launch"] += 1
        u_fail, u_slow = np.random.default_rng([seed, launch]).random(2)
        if u_fail < failure_rate:
            raise KernelFault(f"injected fault in {kind} kernel at {site} "
                              f"(launch #{launch})")
        if u_slow < slow_rate:
            return time_s * slow_factor
        return time_s

    return hook
