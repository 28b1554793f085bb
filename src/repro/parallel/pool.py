"""Deterministic process fan-out: chunking and ordered mapping.

``parallel_map`` is the one primitive every hot path shares: split the
item list into contiguous chunks (:func:`chunk_indices`), run each
chunk in a worker process, and reassemble results **in item order** so
the output is indistinguishable from a serial ``map``.  Randomness is
the caller's job and must be per-item (:mod:`repro.parallel.seeding`),
which is what makes ``workers ∈ {1, 2, 4}`` bit-identical.

Process start method is ``fork`` where available (Linux): children
inherit the parent's heap, so warm state — a trained model replica,
for instance — costs nothing to replicate, mirroring how DDP keeps a
model copy per rank (§4.1, Table 3).  Everything submitted through the
task pipe is expected to be small; bulk arrays travel via
:mod:`repro.parallel.shm` handles.

When a :class:`repro.telemetry.EventBus` is supplied, the map emits
one ``span`` event per chunk plus a wrapping ``parallel_map`` span
(clock: seconds since the map started), so ``repro trace summary``
and :func:`repro.telemetry.spans_from_events` can replay the fan-out
on the same event spine as everything else.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Callable, List, Optional, Sequence, TypeVar

__all__ = ["chunk_indices", "resolve_workers", "parallel_map"]

T = TypeVar("T")
R = TypeVar("R")

#: Telemetry source name for fan-out spans.
PARALLEL_SOURCE = "repro.parallel"


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count request (``None`` → all visible cores)."""
    if workers is None:
        return max(1, os.cpu_count() or 1)
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1 (or None); got {workers}")
    return workers


def chunk_indices(n: int, num_chunks: int) -> List[range]:
    """Split ``range(n)`` into ≤ ``num_chunks`` contiguous balanced ranges.

    Deterministic: the first ``n % num_chunks`` chunks carry one extra
    item.  Empty chunks are dropped, so every returned range is
    non-empty and their concatenation is exactly ``range(n)``.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0; got {n}")
    if num_chunks < 1:
        raise ValueError(f"num_chunks must be >= 1; got {num_chunks}")
    num_chunks = min(num_chunks, n)
    out: List[range] = []
    start = 0
    for i in range(num_chunks):
        size = n // num_chunks + (1 if i < n % num_chunks else 0)
        out.append(range(start, start + size))
        start += size
    return out


def _mp_context():
    """Prefer ``fork`` (zero-cost warm replicas); fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _run_chunk(fn, chunk):
    """Worker-side chunk body; times itself on the shared monotonic clock."""
    t0 = time.perf_counter()
    results = [fn(item) for item in chunk]
    return results, t0, time.perf_counter()


def _serial_map(fn, items, bus, source) -> list:
    """The workers=1 arm: plain in-process map, same spans, same order."""
    t_base = time.perf_counter()
    results = [fn(item) for item in items]
    if bus is not None:
        dt = time.perf_counter() - t_base
        bus.emit(dt, "span", source, name="parallel_chunk", t_start=0.0,
                 duration_s=dt, chunk_start=0, chunk_size=len(items),
                 workers=1)
        bus.emit(dt, "span", source, name="parallel_map", t_start=0.0,
                 duration_s=dt, items=len(items), chunks=1, workers=1)
    return results


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: Optional[int] = 1,
    bus=None,
    source: str = PARALLEL_SOURCE,
    initializer=None,
    initargs: tuple = (),
) -> List[R]:
    """Map ``fn`` over ``items``, fanning chunks across worker processes.

    Results are returned in item order.  ``workers=1`` (the default)
    runs inline with no subprocess at all — the serial and parallel
    arms share this one entry point, which is how callers guarantee
    their two paths cannot drift.  ``fn`` must be picklable
    (module-level or :func:`functools.partial` of one) and should
    receive/return small objects; ship arrays via
    :class:`repro.parallel.ShmArray`.
    """
    items = list(items)
    n_workers = resolve_workers(workers)
    if n_workers <= 1 or len(items) <= 1:
        if initializer is not None:
            initializer(*initargs)
        return _serial_map(fn, items, bus, source)
    ranges = chunk_indices(len(items), n_workers)
    pool = _mp_context().Pool(n_workers, initializer, initargs)
    t_base = time.perf_counter()
    try:
        handles = [
            pool.apply_async(_run_chunk, (fn, [items[i] for i in r]))
            for r in ranges
        ]
        gathered = [h.get() for h in handles]
    finally:
        pool.close()
        pool.join()
    results: List[R] = []
    for r, (chunk_results, t0, t1) in zip(ranges, gathered):
        results.extend(chunk_results)
        if bus is not None:
            bus.emit(max(0.0, t1 - t_base), "span", source,
                     name="parallel_chunk", t_start=max(0.0, t0 - t_base),
                     duration_s=t1 - t0, chunk_start=r.start,
                     chunk_size=len(r), workers=n_workers)
    if bus is not None:
        bus.emit(time.perf_counter() - t_base, "span", source,
                 name="parallel_map", t_start=0.0,
                 duration_s=time.perf_counter() - t_base,
                 items=len(items), chunks=len(ranges), workers=n_workers)
    return results
