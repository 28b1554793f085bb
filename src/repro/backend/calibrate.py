"""Calibrate the hetero perf model from *measured* kernel execution.

The analytic :class:`repro.hetero.perfmodel.PerfModel` is calibrated
against the paper's published tables; this module closes the loop with
the machine actually running the code:

1. :func:`calibrate_host` microbenchmarks the six registered kernel ops
   (conv, deconv, maxpool, unpool, leaky-ReLU, batchnorm) through the
   very same :func:`repro.backend.registry.dispatch` layer real
   inference uses, capturing measured wall time plus analytic
   :class:`~repro.backend.counters.OpCounts` per launch,
2. a least-squares fit per op yields :class:`OpCoefficients` —
   ``t = overhead + work · seconds_per_unit`` where ``work`` is FLOPs
   for the compute-bound ops and bytes moved for the bandwidth-bound
   ones (the same split the perf model uses),
3. :class:`CalibratedPerfModel` re-anchors the analytic model's
   absolute scale on those measurements: the host's measured group
   times divided by the model's prediction for the CPU anchor give
   per-group correction factors, which scale every device's predicted
   group times.  Cross-device *ratios* (the Table 4/5 heterogeneity)
   are preserved; absolute times now track this host.

The serving scheduler consumes the result via
:meth:`repro.serve.scheduler.ServiceTimeModel.calibrated`, so
perf-aware placement decisions run on measured service times.
"""

from __future__ import annotations

import os
import platform
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.backend.counters import OpCounts
from repro.backend.registry import dispatch, trace_dispatches
from repro.hetero.device import DEVICES
from repro.hetero.perfmodel import (
    DDNET_16X16,
    PerfModel,
    PlatformPrediction,
    table5_groups,
)

#: Kernel *kind* (dispatch vocabulary) → registered op carrying its
#: coefficients.  The naive deconvolution maps onto the refactored
#: op's fit: the host only executes the refactored formulation.
KIND_TO_OP = {
    "convolution": "conv",
    "deconvolution": "deconv",
    "deconvolution_naive": "deconv",
    "pooling": "maxpool",
    "unpooling": "unpool",
    "leaky_relu": "leaky_relu",
    "relu": "leaky_relu",
    "batchnorm": "batchnorm",
}

#: Work unit per op: FLOPs for the compute-bound kernels, bytes moved
#: for the bandwidth-bound ones (mirrors the perf model's split).
OP_UNITS = {
    "conv": "flops",
    "deconv": "flops",
    "maxpool": "bytes",
    "unpool": "bytes",
    "leaky_relu": "bytes",
    "batchnorm": "bytes",
}

#: The analytic model's CPU row, used as the re-anchoring reference.
DEFAULT_ANCHOR = "Intel Xeon Gold 6128 CPU"

_TINY_RATE = 1e-18


@dataclass
class OpCoefficients:
    """Fitted service-time line for one op: ``t = overhead + work·rate``.

    ``backend`` records which kernel backend the samples were measured
    under — coefficients from different backends describe *different
    code* and must never be mixed in one calibration (enforced by
    :class:`KernelCalibration`).
    """

    op: str
    kind: str
    unit: str                # "flops" | "bytes"
    seconds_per_unit: float
    overhead_s: float
    samples: int
    backend: str = "reference"

    def work(self, counts: OpCounts) -> float:
        return float(counts.flops if self.unit == "flops" else counts.bytes_moved)

    def predict(self, counts: OpCounts) -> float:
        return self.overhead_s + self.work(counts) * self.seconds_per_unit

    def to_dict(self) -> Dict:
        return {
            "op": self.op, "kind": self.kind, "unit": self.unit,
            "seconds_per_unit": self.seconds_per_unit,
            "overhead_s": self.overhead_s, "samples": self.samples,
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "OpCoefficients":
        return cls(op=d["op"], kind=d["kind"], unit=d["unit"],
                   seconds_per_unit=float(d["seconds_per_unit"]),
                   overhead_s=float(d["overhead_s"]), samples=int(d["samples"]),
                   backend=str(d.get("backend", "reference")))


@dataclass
class KernelCalibration:
    """Per-op fitted coefficients plus host/backend provenance.

    A calibration is only meaningful for a single backend: a forward
    predicted from ``fast`` conv coefficients but ``reference`` pool
    coefficients describes a configuration that never executes.  The
    constructor therefore refuses coefficients whose ``backend`` tag
    disagrees with the calibration's.
    """

    host: str
    backend: str
    coefficients: Dict[str, OpCoefficients] = field(default_factory=dict)

    def __post_init__(self) -> None:
        mixed = sorted({c.backend for c in self.coefficients.values()}
                       - {self.backend})
        if mixed:
            raise ValueError(
                f"mixed-backend calibration: calibration is for backend "
                f"{self.backend!r} but has coefficients measured under "
                f"{mixed}; re-run calibrate_host per backend instead of "
                f"merging samples")

    def kind_time(self, kind: str, counts: OpCounts) -> float:
        return self._kind_coefficients(kind).predict(counts)

    def _kind_coefficients(self, kind: str) -> OpCoefficients:
        op = KIND_TO_OP.get(kind)
        if op is None:
            raise KeyError(f"unknown kernel kind {kind!r}")
        coeff = self.coefficients.get(op)
        if coeff is None:
            raise KeyError(
                f"no calibration for op {op!r}; have {sorted(self.coefficients)}")
        return coeff

    def group_times(self, launches: Mapping[str, int],
                    totals: Mapping[str, OpCounts]) -> Dict[str, float]:
        """Predicted host seconds per Table 5 group for a forward.

        ``launches[kind]`` launches of each kernel kind do
        ``totals[kind]`` work between them: each pays its op's
        overhead once, and the work is priced at its rate.
        """
        times = {}
        for kind, n in launches.items():
            coeff = self._kind_coefficients(kind)
            times[kind] = (n * coeff.overhead_s
                           + coeff.work(totals[kind]) * coeff.seconds_per_unit)
        return table5_groups(times, 0.0)

    def to_dict(self) -> Dict:
        return {
            "host": self.host,
            "backend": self.backend,
            "coefficients": {op: c.to_dict() for op, c in self.coefficients.items()},
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "KernelCalibration":
        return cls(host=d["host"], backend=d["backend"],
                   coefficients={op: OpCoefficients.from_dict(c)
                                 for op, c in d["coefficients"].items()})


# ---------------------------------------------------------------------------
# Microbenchmark: measure the six ops through the dispatch layer
# ---------------------------------------------------------------------------
class _Recorder:
    """Dispatch sink collecting ``(kind, counts, time)`` per launch."""

    def __init__(self):
        self.rows: List[Tuple[str, OpCounts, float]] = []

    def record(self, kind: str, site: str, counts: OpCounts, time_s: float) -> None:
        self.rows.append((kind, counts, time_s))


def _bench_workloads(size: int, rng: np.random.Generator):
    """One dispatch call per op at the given spatial size."""
    c = 8
    x = rng.standard_normal((1, c, size, size))
    w = rng.standard_normal((c, c, 3, 3))
    mean = rng.standard_normal(c)
    var = rng.uniform(0.5, 2.0, c)
    gamma = rng.standard_normal(c)
    beta = rng.standard_normal(c)
    return {
        "conv": lambda: dispatch("conv", x, w, None, 1, 1,
                                 want_cols=False, site="bench:conv"),
        "deconv": lambda: dispatch("deconv", x, w, x.shape, (1, 1), (1, 1),
                                   site="bench:deconv"),
        "maxpool": lambda: dispatch("maxpool", x, 2, 2, 0,
                                    want_indices=False, site="bench:maxpool"),
        "unpool": lambda: dispatch("unpool", x, 2, site="bench:unpool"),
        "leaky_relu": lambda: dispatch("leaky_relu", x, 0.01,
                                       site="bench:leaky_relu"),
        "batchnorm": lambda: dispatch("batchnorm", x, mean, var, gamma, beta,
                                      1e-5, site="bench:batchnorm"),
    }


def _fit_line(samples: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """Least-squares ``t = overhead + rate·work`` with sane clamps."""
    work = np.array([s[0] for s in samples], dtype=float)
    times = np.array([s[1] for s in samples], dtype=float)
    if len(samples) == 1 or np.ptp(work) == 0:
        w = max(float(work[0]), 1.0)
        return max(float(times[0]) / w, _TINY_RATE), 0.0
    rate, overhead = np.polyfit(work, times, 1)
    # A noisy microbench can fit a negative slope or intercept; clamp to
    # the physically meaningful region.
    rate = max(float(rate), _TINY_RATE)
    overhead = max(float(overhead), 0.0)
    if overhead == 0.0 and rate == _TINY_RATE:
        rate = max(float(np.max(times) / np.max(work)), _TINY_RATE)
    return rate, overhead


def calibrate_host(
    sizes: Sequence[int] = (32, 64, 96),
    repeats: int = 3,
    warmup: int = 1,
    backend: Optional[str] = None,
    seed: int = 0,
) -> KernelCalibration:
    """Fit per-op service-time coefficients from a host microbenchmark.

    Every sample is taken through :func:`dispatch` with a recording
    sink, i.e. through the identical code path (and measurement hook)
    real inference uses.  When ``backend`` is given, the whole
    microbenchmark runs under :func:`use_backend` so the samples measure
    that backend's kernels; the resulting coefficients carry the backend
    tag either way.  ``repeats`` medians smooth scheduler noise;
    ``sizes`` should span enough work to separate slope from intercept.
    """
    from repro.backend.registry import get_backend, use_backend

    rng = np.random.default_rng(seed)
    samples: Dict[str, List[Tuple[float, float]]] = {op: [] for op in OP_UNITS}
    kinds: Dict[str, str] = {}
    with use_backend(backend or get_backend()):
        measured_backend = get_backend()
        for size in sizes:
            workloads = _bench_workloads(int(size), rng)
            for op, call in workloads.items():
                times: List[float] = []
                counts = OpCounts()
                kind = op
                for i in range(warmup + repeats):
                    rec = _Recorder()
                    with trace_dispatches(rec):
                        call()
                    kind, counts, t = rec.rows[-1]
                    if i >= warmup:
                        times.append(t)
                kinds[op] = kind
                unit = OP_UNITS[op]
                work = float(counts.flops if unit == "flops" else counts.bytes_moved)
                samples[op].append((work, statistics.median(times)))
    coefficients = {}
    for op, rows in samples.items():
        rate, overhead = _fit_line(rows)
        coefficients[op] = OpCoefficients(
            op=op, kind=kinds[op], unit=OP_UNITS[op],
            seconds_per_unit=rate, overhead_s=overhead, samples=len(rows),
            backend=measured_backend)
    host = f"{platform.node() or 'unknown'} ({platform.machine()}, {os.cpu_count()} cpus)"
    return KernelCalibration(
        host=host, backend=measured_backend, coefficients=coefficients)


# ---------------------------------------------------------------------------
# The calibrated perf model
# ---------------------------------------------------------------------------
class CalibratedPerfModel(PerfModel):
    """The analytic perf model re-anchored on measured host execution.

    ``corrections[group]`` is the host's measured time for the
    reference DDnet chunk's group divided by the analytic model's
    prediction for ``anchor`` (the Table 5 CPU row by default).  Every
    prediction's group times are scaled by these factors, so
    cross-device ratios stay exactly as calibrated from the paper while
    absolute magnitudes follow the measured machine.
    """

    def __init__(
        self,
        kernel_calibration: KernelCalibration,
        anchor: str = DEFAULT_ANCHOR,
    ):
        super().__init__()
        if anchor not in DEVICES:
            raise KeyError(f"unknown anchor device {anchor!r}")
        self.kernel_calibration = kernel_calibration
        self.anchor = anchor
        anchor_pred = super().predict(DEVICES[anchor])
        measured = kernel_calibration.group_times(
            {kind: n for kind, (n, _) in DDNET_16X16.items()}, self.totals)
        self.corrections: Dict[str, float] = {
            "convolution": measured["convolution"] / anchor_pred.convolution_s,
            "deconvolution": measured["deconvolution"] / anchor_pred.deconvolution_s,
            "other": measured["other"] / anchor_pred.other_s,
        }

    @classmethod
    def from_host(cls, anchor: str = DEFAULT_ANCHOR,
                  **calibrate_kwargs) -> "CalibratedPerfModel":
        """Microbenchmark this host and build the calibrated model."""
        return cls(calibrate_host(**calibrate_kwargs), anchor=anchor)

    def predict(self, device, config=None, totals=None) -> PlatformPrediction:
        p = super().predict(device, config, totals)
        return PlatformPrediction(
            p.device, p.config,
            p.convolution_s * self.corrections["convolution"],
            p.deconvolution_s * self.corrections["deconvolution"],
            p.other_s * self.corrections["other"],
            p.reconfig_s,
        )
