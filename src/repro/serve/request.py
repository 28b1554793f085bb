"""Diagnosis requests, SLOs, and arrival-process generators.

A served request is one CT scan awaiting the Fig. 4 enhance → segment →
classify pipeline.  Requests are *descriptors*: the scan itself derives
deterministically from ``seed`` via :func:`repro.data.chest_volume`, so
the simulator can run timing-only at paper scale and materialize actual
(reduced-scale) volumes only for the batches it functionally verifies.

Arrival processes
-----------------
- :func:`poisson_arrivals` — memoryless steady traffic,
- :func:`burst_arrivals` — Poisson background with a flash-crowd window,
- :func:`epidemic_wave_arrivals` — inter-arrival intensity proportional
  to the Fig. 2 multi-variant SEIR case curve
  (:func:`repro.epi.uk_delta_wave_scenario`), i.e. scan traffic that
  tracks an epidemic wave compressed into the simulated horizon,
- :func:`seir_arrivals` — the ``epi`` pattern: the same SEIR-driven
  intensity, but each arrival also carries the *cumulative* share of
  the wave already diagnosed, which ``make_workload`` uses to ramp the
  probability that a request is a **monitoring** re-read of a known
  patient (``kind="monitoring"``) — early-wave traffic is diagnosis,
  the tail is follow-up monitoring.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.workload import SLO, get_workload, registered_kinds

ARRIVAL_PATTERNS = ("poisson", "burst", "wave", "epi")

__all__ = [
    "ARRIVAL_PATTERNS", "SLO", "ScanRequest",
    "ArrivalConfig", "arrivals_from_config", "make_workload",
    "poisson_arrivals", "burst_arrivals", "epidemic_wave_arrivals",
    "seir_arrivals",
]


@dataclass(frozen=True)
class ScanRequest:
    """One diagnosis request: arrival time plus a scan descriptor."""

    request_id: int
    arrival_s: float
    seed: int
    size: int = 32
    slices: int = 16
    covid: bool = False
    slo: SLO = field(default_factory=SLO)
    kind: str = "diagnosis"

    def __post_init__(self):
        if self.kind not in registered_kinds():
            raise ValueError(f"unknown workload kind {self.kind!r}; "
                             f"registered kinds: {registered_kinds()}")

    @property
    def workload(self):
        """This request's :class:`repro.workload.WorkloadSpec`."""
        return get_workload(self.kind)

    @property
    def content_key(self) -> str:
        """Content hash of the scan payload.

        The volume is a pure function of ``(seed, size, slices, covid)``,
        so hashing the descriptor is equivalent to hashing the voxels —
        two requests with equal keys carry byte-identical scans (repeat
        scans of the same patient), which is what the result cache keys
        on.  Memoized on the request like :meth:`materialize`'s volume.
        """
        cached = getattr(self, "_content_key", None)
        if cached is None:
            tag = f"{self.seed}:{self.size}:{self.slices}:{int(self.covid)}"
            cached = hashlib.sha1(tag.encode()).hexdigest()[:16]
            object.__setattr__(self, "_content_key", cached)
        return cached

    def materialize(self) -> np.ndarray:
        """The (slices, size, size) HU volume for this request.

        Memoized: the volume is synthesized once and cached on the
        request, so failover re-dispatch (and multi-stage verification)
        of the same request never re-synthesizes data.  Callers must
        treat the returned array as read-only.
        """
        cached = getattr(self, "_volume", None)
        if cached is None:
            from repro.data import chest_volume

            cached = chest_volume(self.size, self.slices, covid=self.covid,
                                  rng=np.random.default_rng(self.seed))
            # Frozen dataclass: stash the cache outside the field set.
            object.__setattr__(self, "_volume", cached)
        return cached

    def release_volume(self) -> None:
        """Drop the memoized volume (terminal-state memory bound).

        The serving lifecycle calls this when the request completes or
        is shed, so long wave workloads don't accumulate one resident
        volume per verified request.  Safe to call at any time: the
        volume is a pure function of the descriptor, so a later
        :meth:`materialize` simply re-synthesizes it.
        """
        if getattr(self, "_volume", None) is not None:
            object.__setattr__(self, "_volume", None)


# ---------------------------------------------------------------------------
# Arrival processes
# ---------------------------------------------------------------------------
def _validate_arrival_args(n: int, rate_per_s: float) -> None:
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if rate_per_s <= 0:
        raise ValueError(f"need rate > 0, got {rate_per_s}")


def poisson_arrivals(n: int, rate_per_s: float, rng: np.random.Generator) -> np.ndarray:
    """``n`` arrival times of a homogeneous Poisson process (sorted)."""
    _validate_arrival_args(n, rate_per_s)
    return np.cumsum(rng.exponential(1.0 / rate_per_s, size=n))


def burst_arrivals(
    n: int,
    rate_per_s: float,
    rng: np.random.Generator,
    burst_factor: float = 8.0,
    burst_fraction: float = 0.3,
) -> np.ndarray:
    """Poisson background with a flash-crowd burst.

    The middle ``burst_fraction`` of requests arrive at
    ``burst_factor × rate_per_s`` — an outbreak-day surge on top of
    steady traffic.
    """
    _validate_arrival_args(n, rate_per_s)
    if burst_factor <= 0 or not 0.0 <= burst_fraction <= 1.0:
        raise ValueError("need burst_factor > 0 and burst_fraction in [0, 1]")
    lo = int(n * (1 - burst_fraction) / 2)
    hi = n - lo
    gaps = rng.exponential(1.0 / rate_per_s, size=n)
    gaps[lo:hi] /= burst_factor
    return np.cumsum(gaps)


def _wave_cases(days: int, cases: Optional[np.ndarray]) -> np.ndarray:
    """The daily case curve driving wave-shaped arrivals.

    ``cases=None`` keeps the historical default (the Fig. 2 UK
    Delta-wave scenario); a caller-supplied series — e.g. a per-region
    SEIR trajectory from :func:`repro.epi.regional_wave_scenario` —
    drives arrivals from that region's own epidemic instead.
    """
    if cases is not None:
        cases = np.asarray(cases, dtype=float)
        if cases.ndim != 1 or len(cases) < 2:
            raise ValueError("cases must be a 1-D series of >= 2 days")
        return cases
    from repro.epi import uk_delta_wave_scenario

    return uk_delta_wave_scenario().run(days)["cases_per_million"]


def epidemic_wave_arrivals(
    n: int,
    rate_per_s: float,
    rng: np.random.Generator,
    days: int = 240,
    horizon_s: Optional[float] = None,
    cases: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Arrival times whose intensity follows the Fig. 2 case curve.

    The UK Delta-wave scenario's daily cases-per-million series (or a
    caller-supplied ``cases`` curve) is normalized into an arrival
    density over a simulated horizon of ``horizon_s`` seconds (default
    ``n / rate_per_s``), and ``n`` arrivals are drawn by inverse-CDF
    sampling — traffic concentrates where the epidemic curve peaks.
    """
    return seir_arrivals(n, rate_per_s, rng, days=days,
                         horizon_s=horizon_s, cases=cases)[0]


def seir_arrivals(
    n: int,
    rate_per_s: float,
    rng: np.random.Generator,
    days: int = 240,
    horizon_s: Optional[float] = None,
    cases: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``epi`` arrival process: SEIR-driven times plus wave phase.

    Arrival times follow the same inverse-CDF construction as
    :func:`epidemic_wave_arrivals` (intensity ∝ the Fig. 2 case curve,
    or a caller-supplied ``cases`` series such as a per-region SEIR
    trajectory), but each arrival additionally carries ``F(t)`` — the
    *cumulative* share of the wave's cases that have already occurred by
    its arrival time.  ``make_workload`` uses that phase to ramp the
    monitoring probability: follow-up re-reads are proportional to the
    pool of already-diagnosed patients, so they concentrate in the
    wave's tail.

    Returns ``(times, phase)`` with ``phase`` in [0, 1], both length
    ``n``.
    """
    _validate_arrival_args(n, rate_per_s)
    curve = _wave_cases(days, cases)
    days = len(curve)
    density = np.maximum(curve, 0.0) + 1e-9
    cdf = np.cumsum(density)
    cdf /= cdf[-1]
    horizon = horizon_s if horizon_s is not None else n / rate_per_s
    u = np.sort(rng.random(n))  # u IS the cumulative wave phase F(t)
    day_positions = np.interp(u, np.concatenate([[0.0], cdf]),
                              np.arange(days + 1, dtype=float))
    return day_positions / days * horizon, u


def make_workload(
    n: int,
    rate_per_s: float = 4.0,
    pattern: str = "poisson",
    seed: int = 0,
    dup_fraction: float = 0.3,
    size: int = 32,
    slices: int = 16,
    covid_prevalence: float = 0.4,
    slo: Optional[SLO] = None,
    monitor_fraction: float = 0.0,
    monitor_slo: Optional[SLO] = None,
    quantify_fraction: float = 0.0,
    quantify_slo: Optional[SLO] = None,
    cases: Optional[np.ndarray] = None,
    horizon_s: Optional[float] = None,
    id_base: int = 0,
) -> List[ScanRequest]:
    """Generate a request stream for the serving engine.

    ``dup_fraction`` of requests re-submit a previously seen scan
    (follow-up reads of the same patient), which is what exercises the
    content-hash result cache.  ``monitor_fraction`` of requests are
    **monitoring** re-reads (``kind="monitoring"``) of a previously
    seen patient: same scan content, but they bypass the result cache
    (the DAG's intermediate-artifact fast path serves them instead).
    Under the ``epi`` pattern the monitoring probability ramps with the
    wave phase from :func:`seir_arrivals`; elsewhere it is flat.  The
    random stream is untouched when ``monitor_fraction`` is 0, so
    existing seeded workloads are bit-identical to before.

    ``monitor_slo`` attaches a distinct (typically laxer) SLO to
    monitoring re-reads — the diagnosis-surge and monitoring-tail
    workloads have different latency contracts.  ``quantify_fraction``
    of the remaining diagnosis traffic instead asks for **lesion
    quantification** (``kind="quantify"``): a fresh lesion-bearing scan
    scored for percent-of-lung involvement, with the registry's
    quantify SLO unless ``quantify_slo`` overrides it.  As with
    ``monitor_fraction``, the random stream is untouched when the
    fraction is 0, so existing seeded workloads are bit-identical to
    before.  ``cases`` / ``horizon_s`` drive the ``wave`` / ``epi``
    patterns from a custom epidemic curve (a region's own SEIR
    trajectory); ``id_base`` offsets request ids so multi-region
    workloads stay globally unique.
    """
    if pattern not in ARRIVAL_PATTERNS:
        raise ValueError(f"unknown arrival pattern {pattern!r}; "
                         f"valid patterns: {ARRIVAL_PATTERNS}")
    if not 0.0 <= monitor_fraction <= 1.0:
        raise ValueError("monitor_fraction must be in [0, 1]")
    if not 0.0 <= quantify_fraction <= 1.0:
        raise ValueError("quantify_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    phase = None
    if pattern == "epi":
        arrivals, phase = seir_arrivals(n, rate_per_s, rng,
                                        cases=cases, horizon_s=horizon_s)
    elif pattern == "wave":
        arrivals = epidemic_wave_arrivals(n, rate_per_s, rng,
                                          cases=cases, horizon_s=horizon_s)
    else:
        arrivals = {
            "poisson": poisson_arrivals,
            "burst": burst_arrivals,
        }[pattern](n, rate_per_s, rng)
    slo = slo or SLO()
    requests: List[ScanRequest] = []
    for i, t in enumerate(arrivals):
        kind = "diagnosis"
        if monitor_fraction and requests:
            # Monitoring load ∝ already-diagnosed pool: ramp with the
            # wave phase under ``epi`` (mean ≈ monitor_fraction since
            # E[2·F] = 1), flat elsewhere.
            p_mon = (min(1.0, 2.0 * monitor_fraction * float(phase[i]))
                     if phase is not None else monitor_fraction)
            if rng.random() < p_mon:
                kind = "monitoring"
        if (kind == "diagnosis" and quantify_fraction
                and rng.random() < quantify_fraction):
            # Severity scoring is ordered for a fresh (lesion-bearing)
            # scan, never as a cached re-read.
            kind = "quantify"
        if kind == "monitoring":
            ref = requests[int(rng.integers(len(requests)))]
            scan_seed, covid = ref.seed, ref.covid
        elif kind == "quantify":
            scan_seed = int(rng.integers(2**31))
            covid = True
        elif requests and rng.random() < dup_fraction:
            ref = requests[int(rng.integers(len(requests)))]
            scan_seed, covid = ref.seed, ref.covid
        else:
            scan_seed = int(rng.integers(2**31))
            covid = bool(rng.random() < covid_prevalence)
        if kind == "monitoring" and monitor_slo is not None:
            req_slo = monitor_slo
        elif kind == "quantify":
            req_slo = (quantify_slo if quantify_slo is not None
                       else get_workload("quantify").slo)
        else:
            req_slo = slo
        requests.append(ScanRequest(
            request_id=id_base + i, arrival_s=float(t), seed=scan_seed,
            size=size, slices=slices, covid=covid, slo=req_slo, kind=kind,
        ))
    return requests


# ---------------------------------------------------------------------------
# The one arrival-construction path shared by CLI and benches
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ArrivalConfig:
    """Declarative workload description → :func:`arrivals_from_config`.

    The single source of truth for building request streams: the CLI's
    ``serve`` subcommand (:meth:`from_args`) and every ``repro bench``
    scenario construct an ``ArrivalConfig`` and call the same factory,
    so arrival semantics (``--arrivals epi`` and friends) cannot drift
    between entry points.  Field names match :func:`make_workload`.
    """

    n: int = 200
    rate_per_s: float = 8.0
    pattern: str = "poisson"
    seed: int = 0
    dup_fraction: float = 0.3
    monitor_fraction: float = 0.0
    quantify_fraction: float = 0.0
    size: int = 32
    slices: int = 16
    covid_prevalence: float = 0.4
    slo: Optional[SLO] = None
    monitor_slo: Optional[SLO] = None
    quantify_slo: Optional[SLO] = None
    id_base: int = 0

    def __post_init__(self):
        if self.pattern not in ARRIVAL_PATTERNS:
            raise ValueError(f"unknown arrival pattern {self.pattern!r}; "
                             f"valid patterns: {ARRIVAL_PATTERNS}")

    @classmethod
    def from_args(cls, args) -> "ArrivalConfig":
        """Build from the CLI ``serve`` namespace (shared flag names)."""
        return cls(n=args.requests, rate_per_s=args.rate,
                   pattern=args.pattern, seed=args.seed,
                   dup_fraction=args.dup_fraction,
                   monitor_fraction=args.monitor_fraction,
                   quantify_fraction=getattr(args, "quantify_fraction", 0.0))


def arrivals_from_config(config: ArrivalConfig,
                         cases: Optional[np.ndarray] = None,
                         horizon_s: Optional[float] = None,
                         ) -> List[ScanRequest]:
    """Materialize the request stream an :class:`ArrivalConfig` describes.

    ``cases`` / ``horizon_s`` ride alongside the config (they are bulky
    runtime arrays, not declarative knobs): a per-region SEIR curve for
    the ``wave``/``epi`` patterns and the simulated horizon to compress
    it into.
    """
    return make_workload(
        config.n, rate_per_s=config.rate_per_s, pattern=config.pattern,
        seed=config.seed, dup_fraction=config.dup_fraction,
        size=config.size, slices=config.slices,
        covid_prevalence=config.covid_prevalence, slo=config.slo,
        monitor_fraction=config.monitor_fraction,
        monitor_slo=config.monitor_slo,
        quantify_fraction=config.quantify_fraction,
        quantify_slo=config.quantify_slo, cases=cases, horizon_s=horizon_s,
        id_base=config.id_base,
    )
