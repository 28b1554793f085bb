"""Command-line interface.

``python -m repro.cli <command>`` exposes the framework without writing
code:

- ``diagnose``  — generate (or load) a scan and run the Fig. 4 pipeline,
- ``simulate``  — produce §3.1.2 low/full-dose training pairs (.npz),
- ``tables``    — print the Table 4/5/7 performance-model reproductions,
- ``epidemic``  — run the Fig. 2 variant-wave scenario,
- ``inventory`` — print the Table 1 data-source registry,
- ``serve``     — simulate serving a diagnosis-request stream over the
  Table 4 device fleet with dynamic batching (``repro.serve``);
  ``--mode dag`` (or ``--dag``) serves the pipeline as a stage graph
  with model residency and an intermediate-artifact cache
  (``repro.dag``), ``--arrivals epi`` draws arrivals from the SEIR
  epidemic curve, ``--monitor-fraction`` mixes in monitoring re-reads,
  ``--quantify-fraction`` mixes in lesion-quantification requests (the
  workload registry's third kind), and ``--trace-out`` exports the
  run's telemetry events as JSONL,
- ``train``     — simulate elastic DDP training on the event spine
  (``repro.distributed``): rank crashes with shrink/regrow membership,
  stragglers with backup-rank mitigation, top-k gradient compression;
  ``--trace-out`` exports the training events as JSONL,
- ``sweep``     — the ranks × fault-profile × compression grid in one
  consolidated JSON artifact (``SWEEP_training.json``),
- ``trace``     — work with exported traces: ``trace summary FILE``
  recomputes the serving summary (bit-identical latency percentiles,
  throughput, shed counts) from the events alone; multi-region fleet
  traces render per-region blocks plus the fleet block, and training
  traces (including combined train-then-serve runs) render the
  membership/loss/comm accounting from :func:`repro.distributed.train_block`,
- ``bench``     — performance harnesses: ``bench hotpaths`` times the
  ``repro.parallel`` hot paths (dataset simulation, batch scoring,
  float32 inference) and writes ``BENCH_hotpaths.json``;
  ``bench kernels`` times every registered kernel op on the selected
  backends (``--backends reference,fast``), re-proves each
  backend's parity tier, and writes ``BENCH_kernels.json``;
  ``bench dag`` runs the monolithic-vs-stage-pipelined serving
  comparison (cold and warm monitoring caches, cross-mode functional
  parity) and writes ``BENCH_dag.json``; ``bench pandemic`` drives a
  full epidemic wave through a 3-region fleet (isolated vs spillover,
  static vs autoscaled, capacity-planning table) and writes
  ``BENCH_pandemic.json``; ``bench training`` runs the elastic-DDP
  chaos benchmark (scaling ladder, crash/straggler/compression arms,
  combined train+serve trace) and writes ``BENCH_training.json``;
  ``bench scenarios`` sweeps scanner variations (dose, geometry,
  electronics) through the CT chain, gates lesion-quantification error
  against phantom ground truth plus per-kind serving parity, and
  writes ``BENCH_scenarios.json``.

``diagnose --backend fast`` runs the whole pipeline on the FFT kernel
backend; ``serve --backend fast --calibrated`` microbenchmarks this
host's kernels *under that backend* first and schedules on the
measured (calibrated, backend-specific) service-time model.

``simulate`` and ``serve`` accept ``--workers N`` to fan work across
``N`` processes over shared memory; results are bit-identical to
serial for every worker count.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np


def _cmd_diagnose(args) -> int:
    from repro.data import chest_volume
    from repro.pipeline import ComputeCovid19Plus

    try:
        framework = ComputeCovid19Plus(use_enhancement=not args.no_enhancement,
                                       threshold=args.threshold,
                                       backend=args.backend)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.input:
        volume = np.load(args.input)
        if hasattr(volume, "files"):  # npz archive
            volume = volume[volume.files[0]]
    else:
        volume = chest_volume(args.size, args.slices, covid=args.covid,
                              rng=np.random.default_rng(args.seed))
        print(f"generated a synthetic {'COVID-positive' if args.covid else 'healthy'} "
              f"scan ({args.slices}x{args.size}x{args.size})")
    result = framework.diagnose(volume)
    print(f"P(COVID-19) = {result.probability:.4f}  (threshold {result.threshold})")
    print(f"verdict: {result.label}")
    print(f"lung mask fraction: {result.lung_mask.mean():.3f}")
    print("note: default-constructed (untrained) AI tools; train via the "
          "repro.pipeline API for meaningful probabilities")
    return 0


def _cmd_simulate(args) -> int:
    from repro.data import make_enhancement_pairs

    lows, fulls = make_enhancement_pairs(
        args.count, size=args.size, blank_scan=args.blank_scan,
        rng=np.random.default_rng(args.seed), workers=args.workers,
    )
    np.savez_compressed(args.output, low_dose=lows, full_dose=fulls)
    print(f"wrote {args.count} pairs ({args.size}x{args.size}, "
          f"blank scan {args.blank_scan:g} photons/ray) to {args.output}")
    return 0


def _cmd_tables(args) -> int:
    from repro.hetero import PerfModel
    from repro.report import format_table

    pm = PerfModel()
    t4 = pm.table4()
    rows = [{"Platform": n,
             "PyTorch (s)": None if r["pytorch"] is None else round(r["pytorch"], 2),
             "OpenCL (s)": round(r["opencl"], 2)} for n, r in t4.items()]
    print(format_table(rows, title="Table 4 — inference runtimes (model)"))
    t5 = pm.table5()
    rows = [{"Platform": n, **{k: round(v, 3) for k, v in r.items()}}
            for n, r in t5.items()]
    print()
    print(format_table(rows, title="Table 5 — kernel times (model)"))
    t7 = pm.table7()
    rows = [{"Platform": n, **{k: round(v, 2) for k, v in r.items()}}
            for n, r in t7.items()]
    print()
    print(format_table(rows, title="Table 7 — optimization ladder (model)"))
    return 0


def _cmd_epidemic(args) -> int:
    from repro.epi import uk_delta_wave_scenario
    from repro.report import ascii_plot

    out = uk_delta_wave_scenario().run(args.days)
    cases = out["cases_per_million"]
    print(ascii_plot({"cases/million": np.maximum(cases, 0.5)},
                     width=72, height=14, logy=True,
                     title="Fig. 2 — simulated cases per million"))
    print(f"final Delta share: {out['variant_share:Delta'][-1] * 100:.1f}%")
    return 0


def _build_resilience(args):
    """Translate the serve subcommand's fault flags into a config."""
    import math

    from repro.resilience import (
        DegradeConfig,
        FaultConfig,
        ResilienceConfig,
        RetryPolicy,
    )

    want_faults = args.faults or args.mttf is not None
    if not (want_faults or args.degrade):
        return None
    faults = None
    if want_faults:
        faults = FaultConfig(
            seed=args.fault_seed if args.fault_seed is not None else args.seed,
            mttf_s=args.mttf if args.mttf is not None else math.inf,
        )
    return ResilienceConfig(
        faults=faults,
        retry=None if args.no_failover else RetryPolicy(),
        degrade=DegradeConfig() if args.degrade else None,
    )


def _print_kind_block(summary) -> None:
    """Per-workload-kind lines shared by ``serve`` and ``trace summary``
    (both read the same bit-identical ``kinds`` block)."""
    kinds = summary.get("kinds", {})
    if len(kinds) < 2:
        return  # single-kind streams add nothing over the totals above
    for name, block in kinds.items():
        print(f"  kind {name:11s}: {block['completed']} completed, "
              f"{block['shed']} shed, "
              f"p50 {block['latency_p50_s']:.3f}  "
              f"p95 {block['latency_p95_s']:.3f}  "
              f"p99 {block['latency_p99_s']:.3f} s, "
              f"SLO attainment {block['slo_attainment']:.1%}")


def _print_stage_block(summary) -> None:
    """Per-stage lines shared by ``serve`` and ``trace summary`` (both
    read the same bit-identical stage counters; swaps, skips and
    route-arounds are zero outside DAG mode)."""
    stages = ", ".join(f"{k}={v}" for k, v in
                       summary["stage_completions"].items()) or "none"
    print(f"  stages    : stage batches {stages}; "
          f"{summary['artifact_entries']} artifact fast-path entries "
          f"({summary['stages_skipped']} stages skipped); "
          f"{summary['model_swaps']} model swaps "
          f"({summary['model_evictions']} evictions)")
    if summary["stage_degraded_requests"]:
        print(f"  stages    : {summary['stage_degraded_requests']} "
              "requests routed around a failed skippable stage")


def _cmd_serve(args) -> int:
    import json

    from repro.serve import BatchPolicy, ServingEngine, make_workload

    try:
        requests = make_workload(
            args.requests, rate_per_s=args.rate, pattern=args.pattern,
            seed=args.seed, dup_fraction=args.dup_fraction,
            monitor_fraction=args.monitor_fraction,
            quantify_fraction=args.quantify_fraction,
        )
        resilience = _build_resilience(args)
        service_model = None
        if args.calibrated:
            from repro.serve.scheduler import ServiceTimeModel

            backend_note = f" ({args.backend} backend)" if args.backend else ""
            print(f"calibrating kernel service times on this host{backend_note} ...")
            service_model = ServiceTimeModel.calibrated(backend=args.backend)
        engine = ServingEngine(
            fleet=args.fleet, policy=args.policy,
            backend=args.backend,
            batch_policy=BatchPolicy(max_batch=args.max_batch,
                                     max_wait_s=args.max_wait),
            queue_capacity=args.queue_capacity,
            verify_batches=args.verify_batches,
            verify_workers=args.workers,
            resilience=resilience,
            service_model=service_model,
            mode=args.mode,
            artifact_cache_mb=args.artifact_cache_mb,
            # The engine serves the registry's default kinds; mixing in
            # quantification requests needs the third chain routed too.
            workloads=(("diagnosis", "monitoring", "quantify")
                       if args.quantify_fraction > 0 else None),
        )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = engine.run(requests)
    summary = report.summary()
    print(f"served {summary['completed']}/{summary['requests']} requests "
          f"({args.pattern} arrivals @ {args.rate:g}/s, policy {args.policy}, "
          f"fleet {args.fleet})")
    print(f"  throughput: {summary['throughput_rps']:.3f} req/s over "
          f"{summary['makespan_s']:.2f} s")
    print(f"  latency   : p50 {summary['latency_p50_s']:.3f}  "
          f"p95 {summary['latency_p95_s']:.3f}  "
          f"p99 {summary['latency_p99_s']:.3f} s")
    print(f"  shed      : {summary['shed_queue_full']} queue-full, "
          f"{summary['shed_timeout']} timed out, "
          f"{summary['shed_fault']} faulted; "
          f"{summary['slo_violations']} SLO violations")
    _print_kind_block(summary)
    print(f"  queue     : mean depth {summary['queue_mean_depth']:.2f}, "
          f"max {summary['queue_max_depth']}")
    print(f"  cache     : hit rate {summary['cache_hit_rate']:.1%} "
          f"({summary['cache_hits']} hits, "
          f"{summary['cache_evictions']} evictions, "
          f"{summary['cache_resident_bytes']} bytes resident)")
    if "artifact_cache" in summary:
        art = summary["artifact_cache"]
        print(f"  artifacts : hit rate {art['hit_rate']:.1%} "
              f"({art['hits']} hits, {art['misses']} misses, "
              f"{art['evictions']} evictions, "
              f"{art['resident_bytes']} bytes resident)")
    _print_stage_block(summary)
    for name, util in summary["device_utilization"].items():
        print(f"  {name:32s} util {util:6.1%}  "
              f"batches {summary['device_batches'][name]}")
    if resilience is not None:
        events = ", ".join(f"{k}={v}" for k, v in
                           sorted(summary["fault_events"].items())) or "none"
        print(f"  faults    : {events}; {summary['retries']} retries "
              f"({summary['retries_gave_up']} gave up)")
        down = {n: a for n, a in summary["device_availability"].items() if a < 1.0}
        if down:
            print("  crashed   : " + ", ".join(
                f"{n} (avail {a:.1%})" for n, a in down.items()))
        if summary["degrade_switches"]:
            print(f"  degraded  : {summary['degraded_completed']} requests served "
                  f"without enhancement "
                  f"({summary['degrade_switches']} mode switches)")
    if summary["verified_batches"]:
        print(f"  functionally verified {summary['verified_batches']} batch(es) "
              "via diagnose_batch")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2)
        print(f"wrote JSON summary to {args.json}")
    if args.trace_out:
        from repro.telemetry import export_jsonl

        export_jsonl(args.trace_out, report.events)
        print(f"wrote {len(report.events)} telemetry events to "
              f"{args.trace_out}")
    return 0


def _print_fleet_trace(events) -> dict:
    from repro.serve.metrics import summarize_fleet_trace

    summary = summarize_fleet_trace(events)
    fleet = summary["fleet"]
    print(f"{len(events)} events across {len(summary['regions'])} regions "
          f"({', '.join(fleet['regions'])}); makespan "
          f"{fleet['makespan_s']:.2f} s")
    for name, region in summary["regions"].items():
        print(f"  {name:10s}: {region['completed']}/{region['requests']} "
              f"completed, p99 {region['latency_p99_s']:.3f} s, "
              f"{region['slo_violations']} SLO violations, "
              f"shed {region['shed_queue_full']}+{region['shed_timeout']}"
              f"+{region['shed_fault']} (queue/timeout/fault)")
    print(f"  spillover : {fleet['spillover']} requests, "
          f"{fleet['wan_bytes']} WAN bytes "
          f"({fleet['artifact_replication_bytes']} artifact replication)")
    print(f"  scaling   : {fleet['devices_provisioned']} provisioned, "
          f"{fleet['devices_decommissioned']} decommissioned; peak "
          + ", ".join(f"{k}={v}" for k, v in fleet["peak_devices"].items()))
    print(f"  cost      : ${fleet['cost_total_usd']:.4f} total ("
          + ", ".join(f"{k}=${v:.4f}" for k, v in fleet["cost_usd"].items())
          + ")")
    return summary


def _print_train_trace(events) -> dict:
    from repro.distributed.runtime import train_block

    s = train_block(events)
    print(f"training trace: {s['world_size']} ranks x {s['epochs']} epochs "
          f"({'elastic' if s['elastic'] else 'fixed ring'}, "
          f"compression {s['compression']})")
    loss = "-" if s["final_loss"] is None else f"{s['final_loss']:.5f}"
    print(f"  progress  : {s['steps']} steps, {s['completed_epochs']} epochs"
          f" in {s['sim_time_s']:.2f} simulated s, final loss {loss}"
          + (" — ABORTED" if s["aborted"] else ""))
    print(f"  membership: crashes {s['rank_crashes']}, "
          f"{s['shrinks']} shrinks, {s['regrows']} regrows, "
          f"final active {s['final_active']}")
    print(f"  comm      : {s['comm_s']:.3f}s, {s['wire_bytes']} wire bytes "
          f"({s['compression_saving']:.1%} saved); "
          f"{s['dropped_gradients']} gradients dropped")
    return s


def _cmd_trace(args) -> int:
    from repro.distributed.runtime import is_train_trace
    from repro.serve.metrics import is_fleet_trace, summarize_trace
    from repro.telemetry import load_jsonl

    try:
        events = load_jsonl(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    train_summary = None
    if is_train_trace(events):
        # A combined train-then-serve trace prints both blocks.
        train_summary = _print_train_trace(events)
        if not any(e.kind == "arrival" for e in events):
            if args.json:
                import json

                with open(args.json, "w") as fh:
                    json.dump(train_summary, fh, indent=2)
                print(f"wrote JSON summary to {args.json}")
            return 0
    if is_fleet_trace(events):
        summary = _print_fleet_trace(events)
        if args.json:
            import json

            with open(args.json, "w") as fh:
                json.dump(summary, fh, indent=2)
            print(f"wrote JSON summary to {args.json}")
        return 0
    summary = summarize_trace(events)
    print(f"{len(events)} events: {summary['completed']}/"
          f"{summary['requests']} requests completed")
    print(f"  throughput: {summary['throughput_rps']:.3f} req/s over "
          f"{summary['makespan_s']:.2f} s")
    print(f"  latency   : p50 {summary['latency_p50_s']:.3f}  "
          f"p95 {summary['latency_p95_s']:.3f}  "
          f"p99 {summary['latency_p99_s']:.3f} s")
    print(f"  shed      : {summary['shed_queue_full']} queue-full, "
          f"{summary['shed_timeout']} timed out, "
          f"{summary['shed_fault']} faulted; "
          f"{summary['slo_violations']} SLO violations")
    _print_kind_block(summary)
    print(f"  cache     : {summary['cache_hits']} hits")
    _print_stage_block(summary)
    if summary["fault_events"] or summary["retries"]:
        faults = ", ".join(f"{k}={v}" for k, v in
                           sorted(summary["fault_events"].items())) or "none"
        print(f"  faults    : {faults}; {summary['retries']} retries")
    if args.json:
        import json

        if train_summary is not None:
            summary = {"train": train_summary, "serve": summary}
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2)
        print(f"wrote JSON summary to {args.json}")
    return 0


def _cmd_train(args) -> int:
    from repro.distributed.bench import run_training_cell

    report = run_training_cell(
        args.ranks, args.faults, args.compress,
        epochs=args.epochs, local_batch=args.local_batch,
        backup_ranks=args.backup_ranks, elastic=not args.no_elastic,
        seed=args.seed, regrow=args.regrow_after, crashes=args.crashes,
        straggler_rate=args.straggler_rate,
        straggler_factor=args.straggler_factor)
    s = report.summary()
    print(f"train: {s['world_size']} ranks x {s['epochs']} epochs "
          f"(local batch {s['local_batch']}, "
          f"{'elastic' if s['elastic'] else 'fixed ring'}, "
          f"compression {s['compression']}, "
          f"backup ranks {s['backup_ranks']})")
    print(f"  progress  : {s['steps']} steps, {s['completed_epochs']} epochs"
          f" in {s['sim_time_s']:.2f} simulated s"
          + (" — ABORTED" if s["aborted"] else ""))
    loss = "-" if s["final_loss"] is None else f"{s['final_loss']:.5f}"
    mean = "-" if s["mean_loss"] is None else f"{s['mean_loss']:.5f}"
    print(f"  loss      : final {loss} (mean {mean})")
    print(f"  membership: crashes {s['rank_crashes']}, "
          f"{s['shrinks']} shrinks, {s['regrows']} regrows, "
          f"final active {s['final_active']}")
    print(f"  stragglers: {s['straggler_steps']} slow steps, "
          f"{s['dropped_gradients']} gradients dropped by backup ranks")
    print(f"  comm      : {s['comm_s']:.3f}s, {s['wire_bytes']} wire bytes "
          f"({s['dense_bytes']} dense, "
          f"{s['compression_saving']:.1%} saved)")
    if args.trace_out:
        from repro.telemetry import export_jsonl

        export_jsonl(args.trace_out, report.events)
        print(f"wrote {len(report.events)} events to {args.trace_out} "
              f"(replay with `repro trace summary {args.trace_out}`)")
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(s, fh, indent=2)
        print(f"wrote JSON summary to {args.json}")
    return 1 if s["aborted"] else 0


def _cmd_sweep(args) -> int:
    from repro.benchrunner import finish_bench
    from repro.sweep import format_sweep_summary, run_training_sweep

    ranks = None
    if args.ranks:
        try:
            ranks = tuple(int(r) for r in args.ranks.split(","))
        except ValueError:
            print(f"error: --ranks must be comma-separated integers, "
                  f"got {args.ranks!r}", file=sys.stderr)
            return 2
    payload = run_training_sweep(
        quick=args.quick, seed=args.seed, ranks=ranks,
        profiles=args.profiles.split(",") if args.profiles else None,
        compressions=args.compress.split(",") if args.compress else None)
    return finish_bench(
        payload, args.out, format_sweep_summary, gate_key="gates_ok",
        failure_msg="GATE FAILURE: a sweep cell aborted or determinism broke")


def _cmd_bench_hotpaths(args) -> int:
    from repro.benchrunner import finish_bench
    from repro.parallel import format_bench_summary, run_hotpath_bench

    try:
        workers = tuple(int(w) for w in args.workers.split(","))
    except ValueError:
        print(f"error: --workers must be comma-separated integers, "
              f"got {args.workers!r}", file=sys.stderr)
        return 2
    payload = run_hotpath_bench(quick=args.quick, workers=workers,
                                repeats=args.repeats)
    return finish_bench(
        payload, args.out, format_bench_summary,
        failure_msg="PARITY FAILURE: parallel results diverge from serial")


def _cmd_bench_kernels(args) -> int:
    from repro.backend.kernel_bench import format_kernel_summary, run_kernel_bench
    from repro.benchrunner import finish_bench

    backends = ([b.strip() for b in args.backends.split(",") if b.strip()]
                if args.backends else None)
    payload = run_kernel_bench(quick=args.quick, repeats=args.repeats,
                               size=args.size,
                               with_calibration=not args.no_calibration,
                               backends=backends)
    return finish_bench(
        payload, args.out, format_kernel_summary,
        failure_msg="PARITY FAILURE: a backend diverges beyond its tier")


def _cmd_bench_dag(args) -> int:
    from repro.benchrunner import finish_bench
    from repro.dag.bench import format_dag_summary, run_dag_bench

    payload = run_dag_bench(quick=args.quick)
    return finish_bench(
        payload, args.out, format_dag_summary, gate_key="gates_ok",
        failure_msg="GATE FAILURE: parity broken or DAG claims not met")


def _cmd_bench_pandemic(args) -> int:
    from repro.benchrunner import finish_bench
    from repro.fleet.bench import format_pandemic_summary, run_pandemic_bench

    payload = run_pandemic_bench(quick=args.quick, seed=args.seed)
    return finish_bench(
        payload, args.out, format_pandemic_summary, gate_key="gates_ok",
        failure_msg="GATE FAILURE: a pandemic-fleet claim is not met")


def _cmd_bench_scenarios(args) -> int:
    from repro.benchrunner import finish_bench
    from repro.scenarios import format_scenarios_summary, run_scenarios_bench

    payload = run_scenarios_bench(quick=args.quick)
    return finish_bench(
        payload, args.out, format_scenarios_summary, gate_key="gates_ok",
        failure_msg="GATE FAILURE: quantification error, degradation "
                    "sweep, or per-kind parity gate failed")


def _cmd_bench_training(args) -> int:
    from repro.benchrunner import finish_bench
    from repro.distributed.bench import (
        format_training_summary,
        run_training_bench,
    )

    payload = run_training_bench(quick=args.quick, seed=args.seed)
    return finish_bench(
        payload, args.out, format_training_summary, gate_key="gates_ok",
        failure_msg="GATE FAILURE: an elastic-training claim is not met")


def _cmd_inventory(args) -> int:
    from repro.data import data_source_table
    from repro.report import format_table

    print(format_table(data_source_table(), title="Table 1 — data sources"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ComputeCOVID19+ reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diagnose", help="run the diagnosis pipeline on a scan")
    p.add_argument("--input", help=".npy/.npz HU volume (D,H,W); omit to synthesize")
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--slices", type=int, default=16)
    p.add_argument("--covid", action="store_true", help="synthesize a positive scan")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--no-enhancement", action="store_true")
    p.add_argument("--backend", default=None,
                   help="kernel backend for every tensor op "
                        "(reference, fast)")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("simulate", help="generate low/full-dose training pairs")
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--blank-scan", type=float, default=1e4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default="pairs.npz")
    p.add_argument("--workers", type=int, default=1,
                   help="processes for the simulation fan-out "
                        "(bit-identical to serial)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("tables", help="print the performance-model tables")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("epidemic", help="run the Fig. 2 scenario")
    p.add_argument("--days", type=int, default=240)
    p.set_defaults(func=_cmd_epidemic)

    p = sub.add_parser("inventory", help="print the Table 1 registry")
    p.set_defaults(func=_cmd_inventory)

    from repro.serve.engine import SERVE_MODES
    from repro.serve.request import ARRIVAL_PATTERNS
    from repro.serve.scheduler import FLEET_PRESETS, SCHEDULING_POLICIES

    p = sub.add_parser("serve", help="simulate serving a request stream "
                                     "over the device fleet")
    p.add_argument("--requests", type=int, default=200,
                   help="workload size (number of diagnosis requests)")
    p.add_argument("--rate", type=float, default=8.0,
                   help="mean arrival rate, requests/s")
    p.add_argument("--pattern", "--arrivals", dest="pattern",
                   choices=ARRIVAL_PATTERNS, default="poisson",
                   help="arrival process (epi = SEIR epidemic curve)")
    p.add_argument("--policy", choices=SCHEDULING_POLICIES, default="perf-aware")
    p.add_argument("--mode", choices=SERVE_MODES, default="staged",
                   help="staged per-stage batching, monolithic fused "
                        "pipeline, or dag stage-graph serving")
    p.add_argument("--dag", action="store_const", const="dag", dest="mode",
                   help="shorthand for --mode dag")
    p.add_argument("--monitor-fraction", type=float, default=0.0,
                   help="fraction of requests that are monitoring re-reads "
                        "of an earlier patient (bypass the result cache)")
    p.add_argument("--quantify-fraction", type=float, default=0.0,
                   help="fraction of requests that are lesion-quantification "
                        "jobs (percent-of-lung involvement; own SLO class)")
    p.add_argument("--artifact-cache-mb", type=float, default=4096.0,
                   help="DAG mode: intermediate-artifact cache capacity")
    p.add_argument("--fleet", default="mixed",
                   help=f"preset ({', '.join(FLEET_PRESETS)}) or "
                        "comma-separated device names")
    p.add_argument("--max-batch", type=int, default=4)
    p.add_argument("--max-wait", type=float, default=0.25,
                   help="dynamic-batching max wait, seconds")
    p.add_argument("--queue-capacity", type=int, default=64)
    p.add_argument("--dup-fraction", type=float, default=0.3,
                   help="fraction of repeat scans (cache exercise)")
    p.add_argument("--verify-batches", type=int, default=0,
                   help="functionally execute this many served batches")
    p.add_argument("--workers", type=int, default=1,
                   help="processes for data-parallel batch verification "
                        "(diagnose_batch fan-out)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--faults", action="store_true",
                   help="enable seeded fault injection (transient kernel "
                        "failures, stragglers, FPGA reconfiguration stalls)")
    p.add_argument("--mttf", type=float, default=None,
                   help="mean time to device crash, seconds (implies --faults; "
                        "omit for no crashes)")
    p.add_argument("--fault-seed", type=int, default=None,
                   help="fault stream seed (default: --seed)")
    p.add_argument("--no-failover", action="store_true",
                   help="disable retry/failover: first failure sheds the batch")
    p.add_argument("--degrade", action="store_true",
                   help="enable graceful degradation (skip Enhancement AI "
                        "under queue/latency pressure)")
    p.add_argument("--calibrated", action="store_true",
                   help="microbenchmark this host's kernels first (under "
                        "--backend when given) and run the scheduler on "
                        "the calibrated perf model")
    p.add_argument("--backend", default=None,
                   help="kernel backend for verification batches and "
                        "calibration (reference, fast)")
    p.add_argument("--json", help="also write the summary to this JSON file")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="export the run's telemetry events as JSONL "
                        "(replay with `repro trace summary FILE`)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("train", help="simulate elastic DDP training on the "
                                     "event spine (faults, stragglers, "
                                     "compression)")
    p.add_argument("--ranks", type=int, default=8,
                   help="ring size (training replicas)")
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--local-batch", type=int, default=1,
                   help="images per rank per step")
    p.add_argument("--faults", choices=("none", "crash", "straggler",
                                        "chaos"), default="none",
                   help="fault profile (chaos = crashes + stragglers)")
    p.add_argument("--crashes", type=int, default=2,
                   help="scripted mid-epoch rank crashes (crash/chaos)")
    p.add_argument("--regrow-after", type=float, default=None, metavar="S",
                   help="crashed ranks rejoin after S simulated seconds "
                        "(default: never)")
    p.add_argument("--straggler-rate", type=float, default=None,
                   help="per-(rank, step) straggle probability")
    p.add_argument("--straggler-factor", type=float, default=None,
                   help="compute-time multiplier for a straggling step")
    p.add_argument("--backup-ranks", type=int, default=0,
                   help="never wait for the N slowest ranks (Chen et al.)")
    p.add_argument("--compress", default="none",
                   help="gradient compression: none or topk:<ratio>")
    p.add_argument("--no-elastic", action="store_true",
                   help="fixed ring: any rank crash aborts the run "
                        "(exit code 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", help="also write the summary to this JSON file")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="export the run's telemetry events as JSONL "
                        "(replay with `repro trace summary FILE`)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sweep", help="grid over ranks x fault profile x "
                                     "compression; writes one consolidated "
                                     "JSON artifact")
    from repro.benchrunner import add_bench_arguments as _aba

    _aba(p, "SWEEP_training.json", seed=True,
         quick_help="smaller grid for CI smoke runs")
    p.add_argument("--ranks", default=None,
                   help="comma-separated ring sizes (default: 2,4,8,16)")
    p.add_argument("--profiles", default=None,
                   help="comma-separated fault profiles "
                        "(default: none,crash,straggler)")
    p.add_argument("--compress", default=None,
                   help="comma-separated compression specs "
                        "(default: none,topk:0.1)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("trace", help="work with exported telemetry traces")
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    ps = trace_sub.add_parser(
        "summary", help="recompute the serving summary from a JSONL trace")
    ps.add_argument("file", help="trace written by `repro serve --trace-out`")
    ps.add_argument("--json", help="also write the summary to this JSON file")
    ps.set_defaults(func=_cmd_trace)

    from repro.benchrunner import add_bench_arguments

    p = sub.add_parser("bench", help="performance harnesses")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    pb = bench_sub.add_parser(
        "hotpaths", help="time the repro.parallel hot paths and write "
                         "BENCH_hotpaths.json")
    add_bench_arguments(pb, "BENCH_hotpaths.json",
                        quick_help="small problem sizes for CI smoke runs")
    pb.add_argument("--repeats", type=int, default=None,
                    help="timing repeats per configuration (default: 3, quick: 2)")
    pb.add_argument("--workers", default="1,2,4",
                    help="comma-separated worker counts to sweep")
    pb.set_defaults(func=_cmd_bench_hotpaths)
    pk = bench_sub.add_parser(
        "kernels", help="time every registered kernel op on the selected "
                        "backends, check per-backend parity tiers, and "
                        "write BENCH_kernels.json")
    add_bench_arguments(pk, "BENCH_kernels.json")
    pk.add_argument("--repeats", type=int, default=None,
                    help="timing rounds per op (default: 25, quick: 3)")
    pk.add_argument("--size", type=int, default=None,
                    help="spatial workload size (default: 64, quick: 24)")
    pk.add_argument("--no-calibration", action="store_true",
                    help="skip embedding the per-backend calibration fits")
    pk.add_argument("--backends", type=str, default=None,
                    help="comma-separated backends to bench (default: all "
                         "registered; reference is always included)")
    pk.set_defaults(func=_cmd_bench_kernels)
    pd = bench_sub.add_parser(
        "dag", help="monolithic vs stage-pipelined serving (cold/warm "
                    "monitoring cache), check cross-mode functional "
                    "parity, and write BENCH_dag.json")
    add_bench_arguments(pd, "BENCH_dag.json",
                        quick_help="smaller parity workload for CI smoke runs")
    pd.set_defaults(func=_cmd_bench_dag)
    pp = bench_sub.add_parser(
        "pandemic", help="full epidemic wave over a 3-region fleet: "
                         "isolated vs spillover, static vs autoscaled, "
                         "capacity table; writes BENCH_pandemic.json")
    add_bench_arguments(pp, "BENCH_pandemic.json", seed=True,
                        quick_help="smaller waves for CI smoke runs")
    pp.set_defaults(func=_cmd_bench_pandemic)
    pt = bench_sub.add_parser(
        "training", help="elastic DDP under chaos: rank-scaling ladder, "
                         "crash/straggler/compression arms, combined "
                         "train+serve trace; writes BENCH_training.json")
    add_bench_arguments(pt, "BENCH_training.json", seed=True,
                        quick_help="shorter ladder for CI smoke runs")
    pt.set_defaults(func=_cmd_bench_training)
    psc = bench_sub.add_parser(
        "scenarios", help="scanner-variation stress sweep (dose, sparse "
                          "views, electronics) plus mixed diagnosis/"
                          "monitoring/quantify serving with per-kind SLO "
                          "and trace parity; writes BENCH_scenarios.json")
    add_bench_arguments(psc, "BENCH_scenarios.json",
                        quick_help="fewer phantoms/requests for CI smoke runs")
    psc.set_defaults(func=_cmd_bench_scenarios)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
