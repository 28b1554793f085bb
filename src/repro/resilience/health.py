"""Per-device health: circuit breakers driven by telemetry events.

Each fleet device gets a :class:`CircuitBreaker` with the classic
state machine:

    CLOSED ──(K consecutive failures)──► OPEN
    OPEN ──(cooldown elapses)──► HALF_OPEN (one probe batch allowed)
    HALF_OPEN ──probe succeeds──► CLOSED
    HALF_OPEN ──probe fails──► OPEN (cooldown grows by ``cooldown_factor``)

plus a terminal DEAD state for devices the heartbeat sweep finds
crashed.  The serving engine's discrete-event loop emits a heartbeat
every ``heartbeat_s`` of simulated time; the sweep marks crashed
devices dead and lets OPEN breakers age toward their half-open probe.
The scheduler excludes every device whose breaker currently refuses
traffic (:meth:`FleetHealth.unavailable`).

Breakers sit *on* the event spine in both directions: attach a
:class:`repro.telemetry.EventBus` (constructor ``bus=`` or
:meth:`FleetHealth.attach`) and success/failure transitions are driven
by the ``complete`` / ``fault`` events the dispatch layer emits —
no direct ``record_success``/``record_failure`` calls from the engine
— while every state change is emitted back as a
``breaker_transition`` event (source = device name).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple


class BreakerState(str, Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"
    DEAD = "dead"


@dataclass(frozen=True)
class HealthConfig:
    """Circuit-breaker and heartbeat knobs."""

    #: K consecutive failures flip a CLOSED breaker OPEN.
    failure_threshold: int = 3
    #: Seconds an OPEN breaker waits before allowing a half-open probe.
    cooldown_s: float = 5.0
    #: Cooldown growth after a failed probe (capped at ``cooldown_max_s``).
    cooldown_factor: float = 2.0
    cooldown_max_s: float = 60.0
    #: Simulated-time interval of the engine's heartbeat sweep.
    heartbeat_s: float = 0.5

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_s <= 0 or self.cooldown_max_s <= 0:
            raise ValueError("cooldowns must be positive")
        if self.cooldown_factor < 1.0:
            raise ValueError("cooldown_factor must be >= 1")
        if self.heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be positive")


class CircuitBreaker:
    """One device's failure-driven admission gate."""

    def __init__(self, name: str, config: Optional[HealthConfig] = None,
                 bus=None):
        self.name = name
        self.config = config or HealthConfig()
        self.bus = bus  # optional repro.telemetry.EventBus
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.failures = 0
        self.successes = 0
        self.opens = 0
        self.opened_at: Optional[float] = None
        self.cooldown_s = self.config.cooldown_s
        self._probe_in_flight = False
        self.transitions: List[Tuple[float, str]] = []
        #: Bumped by every change to what :meth:`allows` reads: the
        #: state (with its ``opened_at`` / ``cooldown_s``) and the probe
        #: flag (see :attr:`FleetHealth.version`).
        self.version = 0

    def _set(self, state: BreakerState, now: float) -> None:
        if state is not self.state:
            previous = self.state
            self.state = state
            self.version += 1
            self.transitions.append((now, state.value))
            if self.bus is not None:
                self.bus.emit(now, "breaker_transition", self.name,
                              device=self.name, state=state.value,
                              previous=previous.value)

    def _set_probe(self, in_flight: bool) -> None:
        if in_flight is not self._probe_in_flight:
            self._probe_in_flight = in_flight
            self.version += 1

    @property
    def half_opens_at(self) -> float:
        """When an OPEN breaker's cooldown ends (``inf`` otherwise): the
        one change to :meth:`allows` that time alone brings."""
        if self.state is BreakerState.OPEN and self.opened_at is not None:
            return self.opened_at + self.cooldown_s
        return math.inf

    # ------------------------------------------------------------------
    def allows(self, now: float) -> bool:
        """May the scheduler place a batch on this device right now?

        Ages an OPEN breaker into HALF_OPEN when its cooldown has
        elapsed; a HALF_OPEN breaker admits exactly one probe at a time.
        """
        if self.state is BreakerState.DEAD:
            return False
        if self.state is BreakerState.OPEN:
            if self.opened_at is not None and now >= self.opened_at + self.cooldown_s:
                self._set(BreakerState.HALF_OPEN, now)
            else:
                return False
        if self.state is BreakerState.HALF_OPEN:
            return not self._probe_in_flight
        return True

    def begin_probe(self) -> None:
        """The engine dispatched the half-open probe batch."""
        if self.state is BreakerState.HALF_OPEN:
            self._set_probe(True)

    def record_success(self, now: float) -> None:
        self._set_probe(False)
        self.successes += 1
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self.cooldown_s = self.config.cooldown_s  # healed: reset backoff
            self._set(BreakerState.CLOSED, now)

    def record_failure(self, now: float) -> None:
        self._set_probe(False)
        self.failures += 1
        self.consecutive_failures += 1
        if self.state is BreakerState.DEAD:
            return
        if self.state is BreakerState.HALF_OPEN:
            self.cooldown_s = min(self.cooldown_s * self.config.cooldown_factor,
                                  self.config.cooldown_max_s)
            self._open(now)
        elif (self.state is BreakerState.CLOSED
              and self.consecutive_failures >= self.config.failure_threshold):
            self._open(now)

    def _open(self, now: float) -> None:
        self.opens += 1
        self.opened_at = now
        self._set(BreakerState.OPEN, now)

    def mark_dead(self, now: float) -> None:
        self._set_probe(False)
        self._set(BreakerState.DEAD, now)


class FleetHealth:
    """Breaker registry plus the heartbeat sweep over the fleet."""

    def __init__(self, device_names: Sequence[str],
                 config: Optional[HealthConfig] = None, bus=None):
        self.config = config or HealthConfig()
        self.breakers: Dict[str, CircuitBreaker] = {
            name: CircuitBreaker(name, self.config) for name in device_names}
        self.heartbeats = 0
        self.bus = None
        if bus is not None:
            self.attach(bus)

    def attach(self, bus) -> None:
        """Drive the breakers from ``complete`` / ``fault`` bus events.

        Successes and failures then need no direct calls from the
        dispatch layer: its events *are* the breaker inputs.  State
        changes are emitted back as ``breaker_transition`` events.
        """
        self.bus = bus
        for breaker in self.breakers.values():
            breaker.bus = bus
        # The bus holds this subscription only weakly: a bus -> health ->
        # bus cycle would keep every event of a finished run alive until
        # the cyclic garbage collector happened to run.
        ref = weakref.ref(self)

        def on_event(event) -> None:
            health = ref()
            if health is not None:
                health._on_event(event)

        bus.subscribe(on_event, kinds=("complete", "fault"))

    def _on_event(self, event) -> None:
        name = event.payload.get("device")
        breaker = self.breakers.get(name)
        if breaker is None:
            return
        if event.kind == "complete":
            breaker.record_success(event.t)
        else:
            breaker.record_failure(event.t)
            if event.payload.get("fault") in ("crash", "dead"):
                breaker.mark_dead(event.t)

    def add_device(self, name: str) -> CircuitBreaker:
        """Start tracking a device provisioned mid-run (autoscaling)."""
        if name in self.breakers:
            raise ValueError(f"breaker for {name!r} already exists")
        breaker = CircuitBreaker(name, self.config, bus=self.bus)
        self.breakers[name] = breaker
        return breaker

    def breaker(self, name: str) -> CircuitBreaker:
        return self.breakers[name]

    def unavailable(self, now: float) -> Set[str]:
        """Devices the scheduler must skip at ``now``."""
        return {n for n, b in self.breakers.items() if not b.allows(now)}

    @property
    def version(self) -> Tuple[int, int]:
        """Changes whenever what :meth:`unavailable` reads changes: the
        breaker set, or a breaker's state or probe flag."""
        return len(self.breakers), sum(b.version for b in self.breakers.values())

    @property
    def half_opens_at(self) -> float:
        """The earliest end of an OPEN breaker's cooldown (``inf`` if
        none): until then :meth:`unavailable` changes only with
        :attr:`version`."""
        return min((b.half_opens_at for b in self.breakers.values()),
                   default=math.inf)

    def dead(self) -> Set[str]:
        return {n for n, b in self.breakers.items()
                if b.state is BreakerState.DEAD}

    def any_alive(self) -> bool:
        return any(b.state is not BreakerState.DEAD
                   for b in self.breakers.values())

    def on_heartbeat(self, now: float,
                     alive: Callable[[str], bool]) -> Set[str]:
        """One sweep: mark crashed devices dead; returns newly dead names."""
        self.heartbeats += 1
        newly_dead = set()
        for name, breaker in self.breakers.items():
            if breaker.state is not BreakerState.DEAD and not alive(name):
                breaker.mark_dead(now)
                newly_dead.add(name)
        return newly_dead

    def states(self) -> Dict[str, str]:
        return {n: b.state.value for n, b in self.breakers.items()}
