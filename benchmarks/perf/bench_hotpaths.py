#!/usr/bin/env python
"""Hot-path perf-regression harness (standalone, not a pytest bench).

Times the two inference hot paths — data-parallel ``score_batch``
(serial vs. a worker sweep) and float32 inference against float64 —
and writes ``BENCH_hotpaths.json`` at the repo root.  Exits nonzero when any parity check fails (parallel
not bit-identical to serial, or float32 drifting past tolerance);
speedups are *reported*, never gated, because they depend on
``host.cpu_count``.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_hotpaths.py [--quick]
        [--out PATH] [--repeats N] [--workers 1,2,4]

Also exposed as ``repro bench hotpaths``.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_hotpaths.json")


def main(argv=None) -> int:
    from repro.benchrunner import finish_bench, make_bench_parser

    parser = make_bench_parser(__doc__.splitlines()[0], DEFAULT_OUT)
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per configuration (default: 3, quick: 2)")
    parser.add_argument("--workers", default="1,2,4",
                        help="comma-separated worker counts to sweep")
    args = parser.parse_args(argv)

    from repro.parallel import format_bench_summary, run_hotpath_bench

    workers = tuple(int(w) for w in args.workers.split(","))
    payload = run_hotpath_bench(quick=args.quick, workers=workers,
                                repeats=args.repeats)
    return finish_bench(
        payload, args.out, format_bench_summary,
        failure_msg="PARITY FAILURE: parallel results diverge from serial")


if __name__ == "__main__":
    raise SystemExit(main())
