"""The three benchmark workloads.

Each workload builds its inputs from the seed at construction (that is
set-up), runs one operation per :meth:`run` call, checks every output in
:meth:`check` and, once the timed window is over, compares the recorded
outputs against an independent oracle in :meth:`verify`.  All three are
closed loops with one client: the next operation starts when the
previous one has returned.  Why each workload exists is written down in
``README.md`` next to this file.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

import numpy as np


class Workload:
    """Interface shared by the workloads (see the module docstring)."""

    name = ""
    #: Operations per repeating input pattern (scans or serving modes);
    #: a run always times a whole number of cycles.
    cycle = 1
    #: Untimed operations run at the end of set-up to fill lazy caches.
    warmup_ops = 1
    #: Kernels of the host-speed calibration rounds (``hostspeed.py``).
    calibration = ("interpreter", "blas", "fft", "memory")

    def run(self, i):
        raise NotImplementedError

    def units(self, out) -> int:
        """Work items one operation completed (for ``throughput_per_s``)."""
        return 1

    def check(self, i, out):
        """Errors found in operation ``i``'s output (empty when correct)."""
        raise NotImplementedError

    def verify(self):
        """Oracle pass after the timed window: ``{op index: error}``."""
        return {}

    def latency(self, times):
        """``latency_p50_s`` from ``{op index: seconds}``."""
        return statistics.median(times.values())

    def layer_counts(self):
        """Per-operation counters for the traced run, ``{name: (value, unit)}``."""
        return {}


class DiagnoseLowDose(Workload):
    """Low-dose CT simulation followed by a full diagnosis, per scan."""

    name = "diagnose_lowdose"
    cycle = 2  # COVID-positive scan, then healthy scan
    #: Photons per ray: 1% of the paper's 1e6 full-dose blank scan.
    BLANK_SCAN = 1.0e4
    SLICES = 16

    def __init__(self, seed, tiny=False):
        from repro.ct import hu_to_mu, paper_geometry
        from repro.data.phantom3d import chest_volume
        from repro.models.ahnet import AHNet3D
        from repro.models.ddnet import DDnet
        from repro.models.densenet3d import DenseNet3D
        from repro.pipeline import (
            ClassificationAI,
            ComputeCovid19Plus,
            EnhancementAI,
            SegmentationAI,
        )

        size = 32 if tiny else 64
        rng = np.random.default_rng(seed)
        self.scans_mu = [hu_to_mu(chest_volume(size, self.SLICES, covid=covid, rng=rng))
                         for covid in (True, False)]
        self.noise_seeds = [int(s) for s in rng.integers(2**31, size=self.cycle)]
        # The repository's reduced-scale convention: geometry scaled from
        # the paper's 512 px, and a ~350 mm chest whatever the grid size.
        self.geometry = paper_geometry(scale=size / 512.0)
        self.pixel_size = 350.0 / size
        self.framework = ComputeCovid19Plus(
            enhancement=EnhancementAI(DDnet(rng=rng)),
            segmentation=SegmentationAI("ahnet", AHNet3D(rng=rng)),
            classification=ClassificationAI(DenseNet3D(rng=rng)),
            backend="fast",
        )
        # scan index -> (low-dose HU scan, probability) of its first run
        self.first = {}
        self.ops = defaultdict(list)

    def run(self, i):
        from repro.ct import mu_to_hu
        from repro.data import preparation

        k = i % self.cycle
        _, low_mu = preparation.simulate_low_dose_volume(
            self.scans_mu[k], self.geometry, blank_scan=self.BLANK_SCAN,
            pixel_size=self.pixel_size, seed=self.noise_seeds[k], workers=1)
        scan = mu_to_hu(low_mu)
        return scan, self.framework.diagnose(scan)

    def check(self, i, out):
        scan, result = out
        p = result.probability
        errors = []
        if not (np.isfinite(p) and 0.0 <= p <= 1.0):
            errors.append(f"probability {p!r} is not in [0, 1]")
        if result.lung_mask.shape != scan.shape:
            errors.append(f"mask shape {result.lung_mask.shape} != scan {scan.shape}")
        k = i % self.cycle
        self.ops[k].append(i)
        if k not in self.first:
            self.first[k] = (scan, p)
        elif not (np.array_equal(scan, self.first[k][0]) and p == self.first[k][1]):
            errors.append("differs from the first run of the same seeded scan")
        return errors

    def verify(self):
        """Re-diagnose each recorded scan on ``reference``; the ``fast``
        probability must agree within the fast backend's parity tier."""
        from repro.backend.precision import allclose_ulp

        failed = {}
        self.framework.to_backend("reference")
        try:
            for k, (scan, p) in self.first.items():
                ref = self.framework.diagnose(scan).probability
                if not allclose_ulp(np.array([p]), np.array([ref])):
                    for i in self.ops[k]:
                        failed[i] = f"probability {p!r} != reference {ref!r}"
        finally:
            self.framework.to_backend("fast")
        return failed


class TrainEnhance(Workload):
    """One DDnet optimizer step (Eq. 1 loss, Adam) per operation."""

    name = "train_enhance"
    PAIRS = 8
    #: Leading steps the oracle replays on a second backend.
    REPLAY = 4

    def __init__(self, seed, tiny=False):
        from repro.data.datasets import make_enhancement_pairs
        from repro.pipeline import EnhancementAI

        size = 32 if tiny else 64
        self.seed = seed
        self.lows, self.fulls = make_enhancement_pairs(
            self.PAIRS, size=size, physics=False, rng=np.random.default_rng(seed))
        self.enhancer = EnhancementAI(rng=np.random.default_rng([seed, 1]))
        self.losses = {}

    def _dataset(self, i):
        from repro.data.datasets import EnhancementDataset

        k = i % self.PAIRS
        return EnhancementDataset(self.lows[k:k + 1], self.fulls[k:k + 1])

    def run(self, i):
        return self._step(self.enhancer, i)

    def _step(self, enhancer, i):
        return enhancer.train(self._dataset(i), epochs=1, seed=i).train_loss[-1]

    def check(self, i, out):
        self.losses[i] = out
        if not (np.isfinite(out) and out > 0.0):
            return [f"loss {out!r} is not a positive finite number"]
        return []

    def verify(self):
        """Replay the first steps from the same initial weights on the
        ``fast`` backend; each loss must agree within its parity tier."""
        from repro.backend.precision import allclose_ulp
        from repro.pipeline import EnhancementAI

        replica = EnhancementAI(rng=np.random.default_rng([self.seed, 1]))
        replica.to_backend("fast")
        failed = {}
        for i in sorted(self.losses)[:self.REPLAY]:
            ref = self._step(replica, i)
            if not allclose_ulp(np.array([self.losses[i]]), np.array([ref])):
                failed[i] = f"loss {self.losses[i]!r} != replayed {ref!r}"
        return failed


class ServeMixed(Workload):
    """One serving-engine run over a fixed seeded request stream."""

    name = "serve_mixed"
    MODES = ("staged", "dag")
    cycle = len(MODES)
    warmup_ops = len(MODES)  # the first dag run imports repro.dag
    #: Serving is interpreted Python with no numeric compute.
    calibration = ("interpreter",)
    #: Just above where the mixed fleet starts to shed (about 12 req/s
    #: with this mix), so shedding sits beside fresh work; the stream
    #: length is fixed because per-request cost grows with it (the
    #: telemetry bus keeps every event).
    RATE = 13.0
    REQUESTS = 2000
    KINDS = ("diagnosis", "monitoring", "quantify")
    #: Target shares of the whole stream.  ``make_workload`` draws them in
    #: turn: monitoring first, quantify from what is still a diagnosis,
    #: duplicates from the diagnoses left after that.
    MONITOR_SHARE, QUANTIFY_SHARE, DUP_SHARE = 0.3, 0.1, 0.3
    #: Summary fields that must repeat exactly across runs of one mode.
    FINGERPRINT = ("completed", "shed_queue_full", "shed_timeout", "shed_fault",
                   "cache_hits", "retries", "latency_p50_s", "latency_p99_s",
                   "makespan_s")

    def __init__(self, seed, tiny=False):
        from repro.resilience import FaultConfig, ResilienceConfig, RetryPolicy
        from repro.serve import make_workload

        n = 200 if tiny else self.REQUESTS
        diagnoses = 1.0 - self.MONITOR_SHARE
        self.requests = make_workload(
            n, rate_per_s=self.RATE, seed=seed,
            monitor_fraction=self.MONITOR_SHARE,
            quantify_fraction=self.QUANTIFY_SHARE / diagnoses,
            dup_fraction=self.DUP_SHARE / (diagnoses - self.QUANTIFY_SHARE))
        self.ids = {r.request_id for r in self.requests}
        self.resilience = ResilienceConfig(faults=FaultConfig(seed=seed),
                                           retry=RetryPolicy())
        self.first = {}
        self.totals = Counter()
        self.runs = Counter()

    def run(self, i):
        from repro.serve import ServingEngine

        engine = ServingEngine(mode=self.MODES[i % self.cycle],
                               resilience=self.resilience, workloads=self.KINDS)
        report = engine.run(self.requests)
        return report, report.summary()

    def units(self, out):
        return len(self.requests)

    def check(self, i, out):
        report, summary = out
        n = len(self.requests)
        errors = []
        if len(report.completed) + len(report.shed) != n or summary["requests"] != n:
            errors.append(f"admission not conserved: {len(report.completed)} completed"
                          f" + {len(report.shed)} shed != {n} requests")
        terminal = Counter(e.payload["request"] for e in report.events
                           if e.kind in ("request_done", "shed"))
        if set(terminal) != self.ids or set(terminal.values()) != {1}:
            errors.append("not exactly one terminal event per request")
        mode = self.MODES[i % self.cycle]
        fingerprint = tuple(summary[key] for key in self.FINGERPRINT)
        if self.first.setdefault(mode, fingerprint) != fingerprint:
            errors.append(f"{mode} run differs from the first {mode} run")
        self._count(mode, report, summary)
        return errors

    def _count(self, mode, report, summary):
        n = summary["requests"]
        self.runs[mode] += 1
        t = self.totals
        t["requests"] += n
        t["events"] += len(report.events)
        t["cache_hits"] += summary["cache_hits"]
        t["shed"] += n - summary["completed"]
        t["batches"] += sum(summary["device_batches"].values())
        t["batched_requests"] += sum(summary["device_requests"].values())
        t["retries"] += summary["retries"]
        t["slo_met"] += summary["completed"] - summary["slo_violations"]
        if mode == "dag":
            art = summary["artifact_cache"]
            t["artifact_hits"] += art["hits"]
            t["artifact_lookups"] += art["hits"] + art["misses"]
            t["model_swaps"] += summary["model_swaps"]

    def latency(self, times):
        # Staged and dag runs differ by ~30% in wall time, so the median
        # of the pooled runs would sit on the gap between the two
        # clusters; the mean of the per-mode medians is the steady form.
        return statistics.fmean(
            statistics.median(t for i, t in times.items() if i % self.cycle == m)
            for m in range(self.cycle))

    def layer_counts(self):
        t = self.totals
        runs = max(sum(self.runs.values()), 1)
        dag_runs = max(self.runs["dag"], 1)
        requests = max(t["requests"], 1)
        return {
            "telemetry.events_per_request": (t["events"] / requests, "count"),
            "serve.requests": (t["requests"] / runs, "count"),
            "serve.result_cache_hit_ratio": (t["cache_hits"] / requests, "ratio"),
            "serve.shed_ratio": (t["shed"] / requests, "ratio"),
            "serve.sim_slo_attainment": (t["slo_met"] / requests, "ratio"),
            "serve.batches": (t["batches"] / runs, "count"),
            "serve.mean_batch_size": (t["batched_requests"] / max(t["batches"], 1),
                                      "count"),
            "resilience.retries": (t["retries"] / runs, "count"),
            "dag.artifact_lookups": (t["artifact_lookups"] / dag_runs, "count"),
            "dag.artifact_hit_ratio": (t["artifact_hits"] / max(t["artifact_lookups"], 1),
                                       "ratio"),
            "dag.model_swaps": (t["model_swaps"] / dag_runs, "count"),
        }


WORKLOADS = {w.name: w for w in (DiagnoseLowDose, TrainEnhance, ServeMixed)}

