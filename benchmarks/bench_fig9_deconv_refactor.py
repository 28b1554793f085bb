"""Figure 9 — deconvolution refactoring (scatter → gather).

A *measured* experiment, not a model: times the literal Fig. 9a scatter
deconvolution against the Fig. 9b inverse-coefficient-mapping gather on
identical inputs (each the median of several repeats), checks that the
outputs agree to 1e-9, and reports the measured difference, the speedup
and the traffic reduction — the mechanism behind Table 7's REF column.
The shape (2 → 4 channels, stride 1) is one where the refactored kernel
runs the gather form; see :func:`repro.tensor.ops_conv.conv_nd_input_grad`.
"""

import statistics
import time

import numpy as np

from conftest import save_text
from repro.hetero import deconv_nd_naive_kernel, deconv_nd_refactored_kernel
from repro.report import format_table

REPEATS = 7


def _median_time(fn, *args):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def test_fig9_deconvolution_refactoring(benchmark, results_dir):
    # Few channels + large spatial extent: the regime where the
    # per-input-site scatter loop (and its read-modify-write traffic)
    # dominates, as on the paper's GPUs.
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 2, 96, 96))
    w = rng.normal(size=(2, 4, 5, 5))

    refactored = benchmark(deconv_nd_refactored_kernel, x, w, 1, 2)

    naive = deconv_nd_naive_kernel(x, w, 1, 2)
    naive_time = _median_time(deconv_nd_naive_kernel, x, w, 1, 2)
    ref_time = _median_time(deconv_nd_refactored_kernel, x, w, 1, 2)

    max_diff = float(np.abs(naive.output - refactored.output).max())
    assert np.allclose(naive.output, refactored.output, atol=1e-9)

    rows = [
        {"Kernel": "Fig. 9a scatter (naive)",
         "Wall time (ms)": round(naive_time * 1e3, 2),
         "Global stores": naive.counts.stores,
         "Global loads": naive.counts.loads},
        {"Kernel": "Fig. 9b gather (refactored)",
         "Wall time (ms)": round(ref_time * 1e3, 2),
         "Global stores": refactored.counts.stores,
         "Global loads": refactored.counts.loads},
    ]
    speedup = naive_time / max(ref_time, 1e-9)
    store_reduction = naive.counts.stores / refactored.counts.stores
    title = ("Fig. 9 — Deconvolution refactoring "
             f"(measured, 96x96x2 -> 4ch, 5x5, median of {REPEATS})")
    text = format_table(rows, title=title)
    text += (
        f"\n\nMeasured speedup: {speedup:.1f}x   "
        f"store-traffic reduction: {store_reduction:.0f}x   "
        f"max abs difference: {max_diff:.1e}"
        f"\n(Paper Table 7: REF is worth 4-900x depending on platform.)"
    )
    save_text(results_dir, "fig9_deconv_refactor.txt", text)

    assert speedup > 1.5
    assert store_reduction > 20
