"""The structured event bus: one spine for every trace in the system.

Every layer that used to keep a private trace list — the serving
engine's ``TraceEvent`` log, ``repro.hetero``'s per-kernel
``ExecutionTrace``, the circuit breakers' transition lists — now emits
:class:`TelemetryEvent` records onto one :class:`EventBus`.  An event
is ``(seq, t, kind, source, payload)``: ``seq`` is a bus-global
emission counter (total order, ties in ``t`` resolved by emission),
``t`` is *simulated* time in the emitting layer's clock (the serving
engine's event-loop clock, cumulative modelled kernel time for an
inference trace, global step count for training), ``kind`` is the event
type, ``source`` names the emitting component, and ``payload`` carries
the structured detail.

Subscribers react synchronously at emission — this is how circuit
breakers are driven from ``complete``/``fault`` events
(:meth:`repro.resilience.health.FleetHealth.attach`) — and the whole
log round-trips through JSONL (:func:`export_jsonl` /
:func:`load_jsonl`) so a run's metrics can be recomputed offline,
bit-identically, by ``repro trace summary``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["TelemetryEvent", "EventBus", "export_jsonl", "load_jsonl"]


@dataclass(frozen=True)
class TelemetryEvent:
    """One structured record on the bus."""

    seq: int
    t: float
    kind: str
    source: str = ""
    payload: Dict[str, object] = field(default_factory=dict)


class EventBus:
    """Append-only event log with synchronous kind-filtered subscribers.

    The bus never interprets ``t``; each source keeps its own monotone
    clock.  Within one source (e.g. one serving-engine run) timestamps
    are non-decreasing; across sources only ``seq`` orders events.
    """

    def __init__(self):
        self.events: List[TelemetryEvent] = []
        self._seq = itertools.count()
        self._subscribers: List[
            Tuple[Optional[frozenset], Callable[[TelemetryEvent], None]]] = []

    def __len__(self) -> int:
        return len(self.events)

    def emit(self, t: float, kind: str, source: str = "",
             **payload) -> TelemetryEvent:
        """Append an event and notify matching subscribers (in order)."""
        event = TelemetryEvent(next(self._seq), float(t), kind, source, payload)
        self.events.append(event)
        for kinds, handler in self._subscribers:
            if kinds is None or kind in kinds:
                handler(event)
        return event

    def subscribe(self, handler: Callable[[TelemetryEvent], None],
                  kinds: Optional[Iterable[str]] = None) -> None:
        """Register ``handler`` for every event (or only ``kinds``)."""
        self._subscribers.append(
            (None if kinds is None else frozenset(kinds), handler))

    # -- views ----------------------------------------------------------
    def mark(self) -> int:
        """Position bookmark; pass to :meth:`since` to scope a view."""
        return len(self.events)

    def since(self, mark: int = 0) -> List[TelemetryEvent]:
        return self.events[mark:]

    def of_kind(self, *kinds: str, since: int = 0) -> List[TelemetryEvent]:
        wanted = set(kinds)
        return [e for e in self.events[since:] if e.kind in wanted]

    def kinds(self) -> set:
        return {e.kind for e in self.events}


# ---------------------------------------------------------------------------
# JSONL export / import
# ---------------------------------------------------------------------------
def _jsonable(value):
    """Map payload values onto the JSON type system, losslessly for the
    types the summary math depends on (Python floats round-trip exactly
    through ``json``'s repr-based float formatting)."""
    if isinstance(value, Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v)
                for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        return value.item()  # numpy scalars
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def export_jsonl(path: str, events: Sequence[TelemetryEvent]) -> int:
    """Write ``events`` as one JSON object per line; returns the count."""
    with open(path, "w") as fh:
        for e in events:
            fh.write(json.dumps({
                "seq": e.seq, "t": e.t, "kind": e.kind, "source": e.source,
                "payload": _jsonable(e.payload),
            }, separators=(",", ":")) + "\n")
    return len(events)


def load_jsonl(path: str) -> List[TelemetryEvent]:
    """Read a trace written by :func:`export_jsonl`.

    A line that is not a JSON object, or lacks ``seq``, ``t`` or
    ``kind``, raises :class:`ValueError` naming the file and the line.
    """
    events: List[TelemetryEvent] = []
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{number}"
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: not a JSON line ({exc})") from None
            if not isinstance(raw, dict):
                raise ValueError(f"{where}: expected a JSON object, "
                                 f"got {type(raw).__name__}")
            missing = [k for k in ("seq", "t", "kind") if k not in raw]
            if missing:
                raise ValueError(f"{where}: event lacks field "
                                 f"{', '.join(repr(k) for k in missing)}")
            events.append(TelemetryEvent(
                seq=int(raw["seq"]), t=float(raw["t"]), kind=raw["kind"],
                source=raw.get("source", ""), payload=raw.get("payload", {}),
            ))
    return events
