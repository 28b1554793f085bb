#!/usr/bin/env python
"""Re-run the cheap full benchmark payloads and diff them with the committed ones.

``BENCH_dag.json``, ``BENCH_training.json``, ``BENCH_pandemic.json`` and
``BENCH_scenarios.json`` record no wall-clock time (their clocks are
simulated), so a fresh full run must reproduce every field of the
committed file except its ``host`` record.

Usage::

    python benchmarks/perf/check_payloads.py

Prints each drifted field and exits 1 when any payload has drifted
(regenerate it with its script, and say what moved); about 15 s.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

#: committed payload -> the script that writes it
PAYLOADS = {
    "BENCH_dag.json": "benchmarks/bench_serving_dag.py",
    "BENCH_training.json": "benchmarks/bench_training_chaos.py",
    "BENCH_pandemic.json": "benchmarks/bench_pandemic.py",
    "BENCH_scenarios.json": "benchmarks/bench_scenarios.py",
}


def main() -> int:
    from repro.benchrunner import payload_drift

    drifted = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, script in PAYLOADS.items():
            out = os.path.join(tmp, name)
            subprocess.run([sys.executable, os.path.join(REPO_ROOT, script),
                            "--out", out], check=True, stdout=subprocess.DEVNULL)
            with open(os.path.join(REPO_ROOT, name)) as fh:
                committed = json.load(fh)
            with open(out) as fh:
                fresh = json.load(fh)
            lines = payload_drift(committed, fresh)
            print(f"{name}: {'unchanged' if not lines else f'{len(lines)} fields drifted'}")
            for line in lines:
                print(f"  {line}")
            drifted += bool(lines)
    return 1 if drifted else 0


if __name__ == "__main__":
    raise SystemExit(main())
