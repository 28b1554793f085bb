#!/usr/bin/env python
"""Kernel-backend perf harness (standalone, not a pytest bench).

Times every op registered in the :mod:`repro.backend` kernel registry
on the selected backends (interleaved round by round, medians after
warmup), re-proves the ``fast`` backend's ulp parity tier against
``reference``, fits the host's per-op service-time coefficients per backend
(:mod:`repro.backend.calibrate`), and writes ``BENCH_kernels.json`` at
the repo root.  Exits nonzero when any parity tier is violated;
speedups are *reported*, never gated, because they depend on the
host's BLAS and core count.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_kernels.py [--quick]
        [--out PATH] [--repeats N] [--size N] [--no-calibration]
        [--backends reference,fast]

Also exposed as ``repro bench kernels``.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_kernels.json")


def main(argv=None) -> int:
    from repro.benchrunner import finish_bench, make_bench_parser

    parser = make_bench_parser(__doc__.splitlines()[0], DEFAULT_OUT)
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing rounds per op (default: 25, quick: 3)")
    parser.add_argument("--size", type=int, default=None,
                        help="spatial workload size (default: 64, quick: 24)")
    parser.add_argument("--no-calibration", action="store_true",
                        help="skip embedding the per-backend calibration fits")
    parser.add_argument("--backends", type=str, default=None,
                        help="comma-separated backends to bench "
                             "(default: all registered; reference is "
                             "always included as the baseline)")
    args = parser.parse_args(argv)

    from repro.backend.kernel_bench import format_kernel_summary, run_kernel_bench

    backends = ([b.strip() for b in args.backends.split(",") if b.strip()]
                if args.backends else None)
    payload = run_kernel_bench(quick=args.quick, repeats=args.repeats,
                               size=args.size,
                               with_calibration=not args.no_calibration,
                               backends=backends)
    return finish_bench(
        payload, args.out, format_kernel_summary,
        failure_msg="PARITY FAILURE: a backend diverges beyond its tier")


if __name__ == "__main__":
    raise SystemExit(main())
