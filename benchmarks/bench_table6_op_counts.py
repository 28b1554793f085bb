"""Table 6 — global loads/stores/FLOPs per kernel (512×512×32 input).

Two layers of evidence: the analytic counter formulas reproduce every
published Table 6 number, and each kernel's own dispatch counts the
same operations when it actually executes (at reduced size, where the
formulas are evaluated at the same reduced size — the counting is size-
exact, not asymptotic).
"""

from types import SimpleNamespace

import numpy as np

from conftest import save_text
from repro.backend.counters import (
    PAPER_TABLE6_MILLIONS,
    batchnorm_counts,
    conv_counts,
    leaky_relu_counts,
    pool_counts,
    unpool_counts,
)
from repro.backend.registry import dispatch, trace_dispatches
from repro.hetero import table6_counts
from repro.report import format_table


def _dispatch_counts(op, *args, **kwargs):
    """Kind and Table 6 counts of one dispatch of ``op``."""
    rows = []
    sink = SimpleNamespace(
        record=lambda kind, site, counts, time_s: rows.append((kind, counts)))
    with trace_dispatches(sink):
        dispatch(op, *args, **kwargs)
    (row,) = rows
    return row


def test_table6_op_counts(benchmark, results_dir):
    counts = benchmark(table6_counts)
    rows = []
    for kernel, c in counts.items():
        paper = PAPER_TABLE6_MILLIONS[kernel]
        got = c.in_millions()
        rows.append({
            "Kernel": kernel,
            "Loads (10^6)": round(got[0], 1), "Paper loads": paper[0],
            "Stores (10^6)": round(got[1], 1), "Paper stores": paper[1],
            "FLOPs (10^6)": round(got[2], 1), "Paper FLOPs": paper[2],
        })
    text = format_table(rows, title="Table 6 — Memory/FLOP counts per kernel (512x512x32, 5x5 filters)")
    save_text(results_dir, "table6_op_counts.txt", text)
    for kernel, c in counts.items():
        paper = PAPER_TABLE6_MILLIONS[kernel]
        got = c.in_millions()
        assert abs(got[0] - paper[0]) <= 0.1
        assert abs(got[1] - paper[1]) <= 0.1
        assert abs(got[2] - paper[2]) <= 0.2

    # Each kernel's dispatch counts what it was modelled to.
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 4, 32, 32))
    w = rng.normal(size=(8, 4, 5, 5))
    assert _dispatch_counts("conv", x, w, None, 1, 2, want_cols=False) == (
        "convolution", conv_counts(32, 32, 8, 4, 5))
    wd = rng.normal(size=(4, 8, 5, 5))
    assert _dispatch_counts("deconv", x, wd, (1, 8, 32, 32), (1, 1), (2, 2)) == (
        "deconvolution", conv_counts(32, 32, 8, 4, 5))
    assert _dispatch_counts("maxpool", x, 3, 2, 1, want_indices=False) == (
        "pooling", pool_counts(16, 16, 4, 3))
    assert _dispatch_counts("unpool", x, 2) == ("unpooling", unpool_counts(64, 64, 4))
    assert _dispatch_counts("leaky_relu", x, 0.01) == (
        "leaky_relu", leaky_relu_counts(x.size))
    mean, var = rng.normal(size=4), rng.uniform(0.5, 2.0, size=4)
    assert _dispatch_counts("batchnorm", x, mean, var, np.ones(4), np.zeros(4), 1e-5) == (
        "batchnorm", batchnorm_counts(x.size))
