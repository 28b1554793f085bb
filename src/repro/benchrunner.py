"""Shared plumbing for the ``repro bench *`` harnesses.

Every benchmark — hotpaths, kernels, dag, pandemic — follows the same
contract: ``--quick``/``--out`` flags, a JSON payload written with
:func:`repro.parallel.write_bench_json`, a one-screen human summary on
stdout, a nonzero exit when the payload's gate flag is false, and the
same ``"host"`` record.  This module is that contract, so the CLI
subcommands and the standalone ``benchmarks/`` scripts stop
re-implementing it.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
from typing import Callable, Dict, Optional

__all__ = ["add_bench_arguments", "make_bench_parser", "finish_bench",
           "host_info"]


def add_bench_arguments(parser, default_out: str,
                        seed: bool = False,
                        quick_help: str = "small workload for CI smoke runs",
                        ) -> None:
    """Attach the flags every bench shares (``--quick``/``--out``)."""
    parser.add_argument("--quick", action="store_true", help=quick_help)
    parser.add_argument(
        "--out", default=default_out,
        help=f"output JSON path (default: {default_out})")
    if seed:
        parser.add_argument(
            "--seed", type=int, default=0,
            help="workload seed offset (default: 0, the gated scenario)")


def make_bench_parser(description: str, default_out: str,
                      seed: bool = False) -> argparse.ArgumentParser:
    """Parser for a standalone ``benchmarks/`` script."""
    parser = argparse.ArgumentParser(description=description)
    add_bench_arguments(parser, default_out, seed=seed)
    return parser


def host_info() -> Dict[str, object]:
    """The ``"host"`` record every bench payload carries."""
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def finish_bench(payload: Dict[str, object], out: str,
                 formatter: Callable[[Dict[str, object]], str],
                 gate_key: str = "parity_ok",
                 failure_msg: Optional[str] = None) -> int:
    """Write the JSON artifact, print the summary, gate the exit code."""
    from repro.parallel import write_bench_json

    write_bench_json(out, payload)
    print(formatter(payload))
    print(f"wrote {out}")
    if not payload[gate_key]:
        print(failure_msg or f"GATE FAILURE: {gate_key} is false",
              file=sys.stderr)
        return 1
    return 0
