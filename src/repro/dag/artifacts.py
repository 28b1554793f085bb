"""Intermediate-artifact cache: (scan content hash, stage) → bytes.

The result cache answers *finished* repeat diagnoses; this cache keeps
the pipeline's *intermediate* artifacts — the enhanced volume after
``enhance``, the masked volume after ``segment`` — keyed by
``(content_key, stage)``.  A monitoring re-read of a known patient then
enters the DAG at the deepest stage whose predecessor artifact is still
resident: with a warm ``segment`` artifact, the request skips enhance
*and* segment and runs only classify.

Capacity is in bytes (artifacts are tens of MB each, unlike the tiny
result-cache entries), eviction is LRU over (key, stage) pairs, and
every lookup/eviction is mirrored into registry counters
``serve.cache.artifact.{hits,misses,evictions}`` plus the gauges
``serve.cache.artifact.resident_bytes`` / ``.entries``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple

__all__ = ["ArtifactCache", "ARTIFACT_METRIC_PREFIX"]

ARTIFACT_METRIC_PREFIX = "serve.cache.artifact."


class ArtifactCache:
    """Byte-bounded LRU of per-stage intermediate artifacts."""

    def __init__(self, capacity_mb: float = 4096.0, registry=None):
        if capacity_mb < 0:
            raise ValueError("capacity_mb must be >= 0")
        self.capacity_bytes = int(capacity_mb * 1e6)
        self._entries: "OrderedDict[Tuple[str, str], int]" = OrderedDict()
        self._resident_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.registry = registry

    # -- registry mirroring ---------------------------------------------
    def _count(self, name: str, n: int = 1) -> None:
        if self.registry is not None:
            self.registry.counter(ARTIFACT_METRIC_PREFIX + name).inc(n)

    def _update_gauges(self) -> None:
        if self.registry is not None:
            self.registry.gauge(
                ARTIFACT_METRIC_PREFIX + "resident_bytes").set(
                    self._resident_bytes)
            self.registry.gauge(
                ARTIFACT_METRIC_PREFIX + "entries").set(len(self._entries))

    # -- core ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key_stage: Tuple[str, str]) -> bool:
        return key_stage in self._entries

    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    def deepest(self, key: str, stages_deepest_first: Sequence[str]
                ) -> Optional[str]:
        """The deepest stage whose artifact for ``key`` is resident.

        Counts exactly one hit (artifact fast-path taken) or one miss
        (request must run the full pipeline) per call, and refreshes
        the winning entry's LRU position.
        """
        for stage in stages_deepest_first:
            if (key, stage) in self._entries:
                self._entries.move_to_end((key, stage))
                self.hits += 1
                self._count("hits")
                return stage
        self.misses += 1
        self._count("misses")
        return None

    def put(self, key: str, stage: str, nbytes: int) -> None:
        """Store one artifact, evicting LRU entries until it fits.

        An artifact larger than the whole cache is not stored: making
        room for it would evict every resident entry and then itself.
        """
        if self.capacity_bytes == 0 or nbytes > self.capacity_bytes:
            return
        entry = (key, stage)
        if entry in self._entries:
            self._resident_bytes -= self._entries[entry]
            self._entries.move_to_end(entry)
        self._entries[entry] = int(nbytes)
        self._resident_bytes += int(nbytes)
        while self._resident_bytes > self.capacity_bytes and self._entries:
            _, evicted_bytes = self._entries.popitem(last=False)
            self._resident_bytes -= evicted_bytes
            self.evictions += 1
            self._count("evictions")
        self._update_gauges()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "hits": self.hits, "misses": self.misses,
            "evictions": self.evictions, "entries": len(self._entries),
            "resident_bytes": self._resident_bytes,
            "hit_rate": self.hit_rate,
        }
