"""Tests of the benchmark itself: tiny smoke runs and its correctness checks.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from hostspeed import KERNELS  # noqa: E402
from tracer import SELF_TIME_METRICS  # noqa: E402
from worker import normalised  # noqa: E402
from workloads import WORKLOADS, DiagnoseLowDose, ServeMixed, TrainEnhance  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

#: Layers each workload must enter (their self time is positive).
ENTERED = {
    "diagnose_lowdose": ("ct.project_s", "ct.noise_s", "ct.fbp_s", "data.simulate_s",
                         "pipeline.enhance_s", "pipeline.segment_s",
                         "pipeline.classify_s", "backend.conv_s", "backend.deconv_s"),
    "train_enhance": ("nn.forward_s", "nn.loss_s", "tensor.backward_s", "nn.optim_s",
                      "backend.conv_s", "backend.conv_weight_grad_s"),
    "serve_mixed": ("serve.staged_run_s", "serve.dag_run_s", "des.loop_s",
                    "serve.collect_s", "telemetry.events_per_request"),
}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_end_to_end(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in declared.items():  # printed by name with the unit
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in proc.stdout.splitlines())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_traced(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    # Self times plus unattributed time partition the operation's wall time.
    # The sum holds by construction; a span or dispatch counted twice
    # shows up as a negative self time instead.
    assert math.isclose(sum(metrics[m] for m in SELF_TIME_METRICS),
                        metrics["trace.op_wall_s"], rel_tol=1e-9)
    for name in SELF_TIME_METRICS:
        assert metrics[name] >= -1e-6, name
    for name in ENTERED[workload]:
        assert metrics[name] > 0, name
    # Kernels are shared; every other layer belongs to one workload.
    for other, names in ENTERED.items():
        if other != workload:
            assert not any(metrics[n] for n in names if not n.startswith("backend."))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "serve_mixed", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_diagnosis_checks_trip_on_corrupted_outputs():
    workload = DiagnoseLowDose(3, tiny=True)
    assert workload.check(0, workload.run(0)) == []
    # In range, so only the reference-backend oracle can catch it.
    scan, result = workload.run(1)
    result.probability = min(result.probability * 1.001 + 1e-6, 1.0)
    assert workload.check(1, (scan, result)) == []
    assert set(workload.verify()) == {1}
    # A repeat of seeded scan 0.
    scan, result = workload.run(2)
    result.probability = float("nan")
    errors = workload.check(2, (scan, result))
    assert any("[0, 1]" in e for e in errors)
    assert any("differs" in e for e in errors)


def test_training_check_trips_on_a_corrupted_loss():
    workload = TrainEnhance(3, tiny=True)
    for i in range(3):
        loss = workload.run(i)
        assert workload.check(i, loss * (1.0 + 1e-6) if i == 2 else loss) == []
    assert set(workload.verify()) == {2}
    assert workload.check(3, float("inf"))


def test_serving_checks_trip_on_corrupted_outputs():
    workload = ServeMixed(3, tiny=True)
    report, summary = workload.run(0)
    assert workload.check(0, (report, summary)) == []
    dropped = next(i for i, e in enumerate(report.events) if e.kind == "request_done")
    del report.events[dropped]
    report.completed.pop()
    errors = workload.check(0, (report, summary))
    assert any("conserved" in e for e in errors)
    assert any("terminal" in e for e in errors)
    report, summary = workload.run(2)
    summary["cache_hits"] += 1
    assert any("differs" in e for e in workload.check(2, (report, summary)))


def test_serving_latency_is_the_mean_of_per_mode_medians():
    times = {2: 1.0, 3: 10.0, 4: 2.0, 5: 20.0, 6: 3.0, 7: 30.0}
    assert ServeMixed(3, tiny=True).latency(times) == pytest.approx((2.0 + 20.0) / 2)


def test_normalisation_cancels_the_host_speed():
    workload = ServeMixed(3, tiny=True)
    times = {2: 0.5, 3: 0.7, 4: 0.6, 5: 0.9}
    units = dict.fromkeys(times, 200)
    reference_s = KERNELS["interpreter"][1]
    rounds = {i: [reference_s, reference_s * 1.2] for i in times}
    throughput, latency, wall = normalised(workload, times, units, rounds)
    assert wall["host_speed"] == pytest.approx(1 / 1.1)
    assert throughput == pytest.approx(800 / 2.7 * 1.1)
    assert latency == pytest.approx((0.55 + 0.8) / 2 / 1.1)
    # The same work on a host twice as slow reads the same.
    slow = normalised(workload, {i: 2 * t for i, t in times.items()}, units,
                      {i: [2 * r for r in block] for i, block in rounds.items()})
    assert slow[:2] == pytest.approx((throughput, latency))
    assert slow[2]["throughput_per_s"] == pytest.approx(wall["throughput_per_s"] / 2)
    # Each operation is scaled by the rounds around it: the slow
    # operation 5 ran while the host was slow.
    rounds[5] = [2 * r for r in rounds[5]]
    assert normalised(workload, times, units, rounds)[1] == pytest.approx(
        (0.55 + (0.7 + 0.9 / 1.5) / 2) / 2 / 1.1)
