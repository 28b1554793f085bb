"""One region of the multi-region pandemic-serving fleet.

A region is a full serving stack — device fleet, admission queue,
scheduler, resilience layer — driven by *its own* epidemic: a
phase-shifted SEIR wave (:func:`repro.epi.regional_wave_scenario`)
whose case curve shapes the region's diagnosis-surge arrivals and
monitoring tail.  All regions interleave on **one**
:class:`repro.des.EventLoop` and emit onto **one**
:class:`repro.telemetry.EventBus`, so a fleet run is a single
deterministic event stream.

Two small adapters make N engines coexist on the shared spine without
the engines knowing:

- :class:`RegionLoop` — proxies ``schedule``/``on`` onto the shared
  loop under region-scoped event kinds (``arrival@north``) and keeps a
  *region-local* pending count.  The count is what the engine's
  heartbeat re-arm checks; if it saw the global heap, every region's
  heartbeat would keep every other region's alive forever.
- :class:`RegionBus` — stamps ``region=<name>`` into every payload so
  the fleet trace partitions losslessly back into per-region streams.

Device names are suffixed with the region (``Nvidia T4 GPU @north``):
circuit breakers subscribe to the shared bus keyed on device name, so
names must be fleet-unique.  Counter namespaces are fixed strings
(``serve.queue.*``), so each region gets its own
:class:`~repro.telemetry.MetricsRegistry`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from repro.epi import regional_wave_scenario
from repro.hetero.device import get_device
from repro.serve.engine import ServingEngine
from repro.serve.request import SLO, ArrivalConfig, ScanRequest, arrivals_from_config
from repro.serve.scheduler import fleet_from_spec

__all__ = ["RegionConfig", "RegionLoop", "RegionBus", "Region"]


@dataclass(frozen=True)
class RegionConfig:
    """One region: its device fleet and its epidemic."""

    name: str
    #: Fleet preset or comma-separated device names (see
    #: :func:`repro.serve.scheduler.fleet_from_spec`); every device is
    #: renamed ``<device> @<region>``.
    fleet: str = "Nvidia T4 GPU,Intel Xeon Gold 6128 CPU"
    #: Pre-provisioned clones of ``grow_device`` beyond the base fleet
    #: (the static-peak arm of the capacity bench).
    static_extra: int = 0
    #: Device template the autoscaler (and ``static_extra``) clones.
    grow_device: str = "Nvidia T4 GPU"
    # -- the region's epidemic ------------------------------------------
    r0: float = 5.5
    onset_day: int = 0
    #: Population in persons (e.g. ``8e6``); scales the head-count each
    #: simulated request represents, not the request count itself.
    population: float = 8e6
    wave_days: int = 180
    # -- the region's workload ------------------------------------------
    requests: int = 200
    seed: int = 0
    dup_fraction: float = 0.3
    monitor_fraction: float = 0.4
    #: Diagnosis-surge SLO (tight) vs monitoring-tail SLO (lax).
    slo_deadline_s: float = 30.0
    monitor_deadline_s: float = 90.0
    queue_timeout_s: float = 120.0
    queue_capacity: int = 64

    def __post_init__(self):
        if not self.name:
            raise ValueError("region needs a name")
        if self.requests < 0 or self.population <= 0:
            raise ValueError("requests must be >= 0, population > 0")
        if self.static_extra < 0:
            raise ValueError("static_extra must be >= 0")


class RegionLoop:
    """Region-scoped proxy over the shared :class:`repro.des.EventLoop`.

    Presents the exact surface :meth:`ServingEngine.bind` uses —
    ``on`` / ``schedule`` / ``pending`` / ``now`` — but namespaces
    every event kind with the region and counts only this region's
    outstanding events.  ``pending_of(kind)`` additionally tracks one
    kind (the fleet uses it to arm at most one heartbeat chain).
    """

    def __init__(self, loop, region: str):
        self._loop = loop
        self.region = region
        self._pending_kind: Dict[str, int] = {}

    @property
    def now(self) -> float:
        return self._loop.now

    @property
    def pending(self) -> int:
        """This region's outstanding events (not the shared heap's)."""
        return sum(self._pending_kind.values())

    def pending_of(self, kind: str) -> int:
        return self._pending_kind.get(kind, 0)

    def on(self, kind: str, handler) -> None:
        # The wrapper holds the counts, not this proxy: a proxy reachable
        # from the shared loop's handlers would make the loop cyclic.
        def wrapped(payload, now, _h=handler, _k=kind,
                    _pending=self._pending_kind):
            _pending[_k] -= 1
            _h(payload, now)

        self._loop.on(f"{kind}@{self.region}", wrapped)

    def schedule(self, t: float, kind: str, payload: object = None) -> None:
        self._pending_kind[kind] = self._pending_kind.get(kind, 0) + 1
        self._loop.schedule(t, f"{kind}@{self.region}", payload)


class RegionBus:
    """Bus facade that stamps ``region=<name>`` into every payload.

    Everything else (``subscribe``, ``mark``, ``since`` …) delegates to
    the shared :class:`~repro.telemetry.EventBus`, so subscribers like
    :class:`repro.resilience.health.FleetHealth` still see the whole
    fleet's events — filtered by the region-unique device names.
    """

    def __init__(self, bus, region: str):
        self._bus = bus
        self.region = region

    def emit(self, t: float, kind: str, source: str = "", **payload):
        payload.setdefault("region", self.region)
        return self._bus.emit(t, kind, source, **payload)

    def __getattr__(self, name):
        return getattr(self._bus, name)


class Region:
    """A regional serving stack bound to the shared loop and bus."""

    def __init__(
        self,
        config: RegionConfig,
        bus,
        mode: str = "staged",
        policy: str = "perf-aware",
        batch_policy=None,
        resilience=None,
        service_model=None,
        artifact_cache=None,
        slots_per_device: int = 1,
    ):
        self.config = config
        self.bus = RegionBus(bus, config.name)
        devices = [replace(d, name=f"{d.name} @{config.name}")
                   for d in fleet_from_spec(config.fleet)]
        grow = get_device(config.grow_device)
        devices += [replace(grow, name=self.clone_name(k))
                    for k in range(config.static_extra)]
        self.devices = devices
        # The engine takes any bus-shaped object: every component then
        # emits region-stamped events, while the health layer's
        # subscription delegates through to the *shared* bus (filtered
        # by the region-unique device names).  Counters stay in the
        # engine's own per-region registry.
        self.engine = ServingEngine(
            fleet=devices, policy=policy, batch_policy=batch_policy,
            queue_capacity=config.queue_capacity, resilience=resilience,
            service_model=service_model, mode=mode,
            slots_per_device=slots_per_device,
            artifact_cache=artifact_cache,
            telemetry=self.bus,
        )
        self.loop: Optional[RegionLoop] = None
        self._wave: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def clone_name(self, k: int) -> str:
        """Name of the k-th grown clone (autoscaler / static-extra)."""
        return f"{self.config.grow_device} @{self.config.name} +{k}"

    def bind(self, loop) -> RegionLoop:
        """Attach this region's engine to the shared event loop."""
        self.loop = RegionLoop(loop, self.config.name)
        self.engine.bind(self.loop)
        return self.loop

    def unbind(self) -> None:
        """Detach a finished run's loop from this region and its engine."""
        self.loop = None
        self.engine.unbind()

    def ensure_heartbeat(self) -> None:
        """Arm the engine's heartbeat chain if none is outstanding.

        Called when traffic is (re)delivered to the region: a region
        whose chain died idle must resume crash detection and backlog
        pumping once spillover brings it new work.
        """
        if self.engine.resilience is None or self.loop is None:
            return
        if self.loop.pending_of("heartbeat") == 0:
            self.loop.schedule(
                self.loop.now + self.engine.health.config.heartbeat_s,
                "heartbeat", None)

    # ------------------------------------------------------------------
    def wave(self) -> np.ndarray:
        """This region's daily case curve (cases per million)."""
        if self._wave is None:
            model = regional_wave_scenario(
                r0=self.config.r0, onset_day=self.config.onset_day,
                population=self.config.population, days=self.config.wave_days)
            self._wave = model.run(model.days)["cases_per_million"]
        return self._wave

    def cases_total(self) -> float:
        """Head-count of cases this region's wave produces."""
        return float(self.wave().sum()) / 1e6 * self.config.population

    def workload(self, horizon_s: float, id_base: int = 0) -> List[ScanRequest]:
        """The region's request stream over the shared horizon.

        Arrivals are drawn from the region's *own* SEIR curve via the
        ``epi`` pattern, so onset shifts and R0 differences show up as
        staggered, differently-shaped surges; the wave tail flips to
        monitoring re-reads carrying the lax monitoring SLO.
        """
        c = self.config
        cfg = ArrivalConfig(
            n=c.requests, rate_per_s=max(c.requests, 1) / horizon_s,
            pattern="epi", seed=c.seed, dup_fraction=c.dup_fraction,
            monitor_fraction=c.monitor_fraction,
            slo=SLO(deadline_s=c.slo_deadline_s,
                    queue_timeout_s=c.queue_timeout_s),
            monitor_slo=SLO(deadline_s=c.monitor_deadline_s,
                            queue_timeout_s=c.queue_timeout_s),
            id_base=id_base,
        )
        return arrivals_from_config(cfg, cases=self.wave(),
                                    horizon_s=horizon_s)
