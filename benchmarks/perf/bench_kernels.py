#!/usr/bin/env python
"""Kernel-backend perf harness (standalone, not a pytest bench).

Times every op registered in the :mod:`repro.backend` kernel registry
on the selected backends (median-of-k after warmup), re-proves the
``fast`` backend's ulp parity tier against ``reference``, runs the
reduced-precision int8 enhancement arm against its quality floors,
fits the host's per-op service-time coefficients per backend
(:mod:`repro.backend.calibrate`), and writes ``BENCH_kernels.json`` at
the repo root.  Exits nonzero when any parity tier or precision floor
is violated; speedups are *reported*, never gated, because they depend
on the host's BLAS and core count.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_kernels.py [--quick]
        [--out PATH] [--repeats N] [--size N] [--no-calibration]
        [--no-precision] [--backends reference,fast]

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
                        help="timing repeats per op (default: 3, quick: 2)")
    parser.add_argument("--size", type=int, default=None,
                        help="spatial workload size (default: 64, quick: 24)")
    parser.add_argument("--no-calibration", action="store_true",
                        help="skip embedding the per-backend calibration fits")
    parser.add_argument("--no-precision", action="store_true",
                        help="skip the reduced-precision int8 arm")
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
                               with_precision=not args.no_precision,
                               backends=backends)
    return finish_bench(
        payload, args.out, format_kernel_summary, gate_key="gate_ok",
        failure_msg="PARITY/PRECISION FAILURE: a backend diverges beyond "
                    "its tier or a reduced-precision floor is violated")


if __name__ == "__main__":
    raise SystemExit(main())
