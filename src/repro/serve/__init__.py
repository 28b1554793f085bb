"""Inference serving over the heterogeneous fleet (ROADMAP north star).

The paper measures the pipeline one scan at a time (Tables 4–7); this
subpackage *operates* it: a deterministic discrete-event serving
simulator/runtime that admits a stream of diagnosis requests, batches
them dynamically per pipeline stage, and schedules batches across the
Table 4 device fleet using the calibrated perf model for service times.

- :mod:`~repro.serve.request` — requests, SLOs, and arrival processes
  (Poisson, burst, Fig. 2 epidemic wave),
- :mod:`~repro.serve.queue` — bounded admission with backpressure and
  timeout shedding,
- :mod:`~repro.serve.batcher` — dynamic (max-batch / max-wait) batching,
- :mod:`~repro.serve.scheduler` — round-robin / least-loaded /
  perf-aware fleet placement with per-device slot accounting,
- :mod:`~repro.serve.cache` — content-hash result cache (LRU),
- :mod:`~repro.serve.lifecycle` — per-request admission and terminal
  accounting (completed / shed with a :class:`ShedReason`),
- :mod:`~repro.serve.dispatch` — stage batchers, backlog, device
  placement, fault injection, failover,
- :mod:`~repro.serve.engine` — the composition root over the
  :class:`repro.des.EventLoop` kernel, with functional batch
  verification through :meth:`ComputeCovid19Plus.diagnose_batch`,
- :mod:`~repro.serve.metrics` — p50/p95/p99 latency, throughput,
  utilization, shed/violation counts; :func:`summarize_trace`
  recomputes the summary from an exported JSONL event stream.

The whole subpackage rides the :mod:`repro.telemetry` spine: one
:class:`~repro.telemetry.EventBus` carries every transition, one
:class:`~repro.telemetry.MetricsRegistry` holds the queue-conservation
ledger, fault counters, and the latency histogram.

Fault tolerance lives in the sibling :mod:`repro.resilience` package:
pass a :class:`repro.resilience.ResilienceConfig` to
:class:`ServingEngine` to arm fault injection, circuit breakers,
retry/failover, and graceful degradation.

See ``docs/serving.md`` for the architecture and how modelled service
times trace back to the paper's Tables 4–7, and ``docs/resilience.md``
for the fault model.
"""

from repro.serve.batcher import Batch, BatchPolicy, DynamicBatcher
from repro.serve.cache import ResultCache
from repro.serve.dispatch import DispatchController
from repro.serve.engine import (
    CACHE_HIT_LATENCY_S,
    SERVE_MODES,
    BatchVerifier,
    ServedRequest,
    ServingEngine,
    ServingReport,
    ShedReason,
)
from repro.serve.lifecycle import RequestLifecycle
from repro.serve.metrics import (
    LatencyStats,
    percentile,
    summarize,
    summarize_trace,
)
from repro.serve.queue import AdmissionQueue, QueueStats
from repro.serve.request import (
    ARRIVAL_PATTERNS,
    SLO,
    ArrivalConfig,
    ScanRequest,
    arrivals_from_config,
    burst_arrivals,
    epidemic_wave_arrivals,
    make_workload,
    poisson_arrivals,
    seir_arrivals,
)
from repro.serve.scheduler import (
    FLEET_PRESETS,
    MONOLITHIC_STAGE,
    QUANTIFY_STAGE,
    SCHEDULING_POLICIES,
    STAGES,
    DeviceWorker,
    FleetScheduler,
    ServiceTimeModel,
    fleet_from_spec,
)
from repro.workload import (
    DEFAULT_WORKLOADS,
    WorkloadRouter,
    WorkloadSpec,
    get_workload,
    register_workload,
    registered_kinds,
)

__all__ = [
    "SLO", "ScanRequest", "ARRIVAL_PATTERNS",
    "DEFAULT_WORKLOADS", "WorkloadRouter", "WorkloadSpec",
    "get_workload", "register_workload", "registered_kinds",
    "QUANTIFY_STAGE",
    "ArrivalConfig", "arrivals_from_config",
    "make_workload", "poisson_arrivals", "burst_arrivals",
    "epidemic_wave_arrivals", "seir_arrivals",
    "AdmissionQueue", "QueueStats",
    "Batch", "BatchPolicy", "DynamicBatcher",
    "FleetScheduler", "DeviceWorker", "ServiceTimeModel",
    "SCHEDULING_POLICIES", "STAGES", "MONOLITHIC_STAGE", "FLEET_PRESETS",
    "fleet_from_spec",
    "ResultCache",
    "ServingEngine", "ServingReport", "ServedRequest",
    "ShedReason", "CACHE_HIT_LATENCY_S", "SERVE_MODES",
    "RequestLifecycle", "DispatchController", "BatchVerifier",
    "LatencyStats", "percentile", "summarize", "summarize_trace",
]
