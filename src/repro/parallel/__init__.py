"""repro.parallel — shared-memory multiprocess fan-out for batch inference.

The paper accelerates in two places: multi-GPU data parallelism for
training (§4.1, Table 3) and a heterogeneous device fleet for
inference (§4.2, Tables 4–7).  This package is the CPU-process
analogue for the one hot path where a work item is large enough to pay
for a process: a whole-scan diagnosis.

- :mod:`repro.parallel.shm` — picklable :class:`ShmArray` handles so
  volumes cross process boundaries without serialization,
- :mod:`repro.parallel.pool` — deterministic chunking
  (:func:`chunk_indices`) and ordered :func:`parallel_map`, whose
  ``initializer`` gives each worker a warm replica,
- :mod:`repro.parallel.seeding` — per-item
  :class:`~numpy.random.SeedSequence` seeding, so an item's draws do
  not depend on how items are batched.

Consumers: ``ComputeCovid19Plus.score_batch`` / ``diagnose_batch``
and serving verification fan out whole scans; ``repro.data`` seeds its
slices here and runs in one process (docs/performance.md says why).
"""

from repro.parallel.hotpath_bench import (
    format_bench_summary,
    run_hotpath_bench,
    write_bench_json,
)
from repro.parallel.pool import (
    PARALLEL_SOURCE,
    chunk_indices,
    parallel_map,
    resolve_workers,
)
from repro.parallel.seeding import derive_item_seeds, spawn_seeds
from repro.parallel.shm import ShmArray, shm_scope

__all__ = [
    "PARALLEL_SOURCE",
    "ShmArray",
    "chunk_indices",
    "derive_item_seeds",
    "format_bench_summary",
    "parallel_map",
    "resolve_workers",
    "run_hotpath_bench",
    "shm_scope",
    "spawn_seeds",
    "write_bench_json",
]
