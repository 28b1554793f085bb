"""Table 6 — global loads/stores/FLOPs per kernel (512×512×32 input).

Two layers of evidence: the analytic counter formulas reproduce every
published Table 6 number, and the *instrumented kernels* measure the
same counts when actually executed (at reduced size, where the
formulas are evaluated at the same reduced size — the counting is size-
exact, not asymptotic).
"""

import numpy as np

from conftest import save_text
from repro.hetero import (
    conv2d_kernel,
    deconv2d_refactored_kernel,
    kernel_op_counts,
    table6_counts,
)
from repro.backend.counters import PAPER_TABLE6_MILLIONS
from repro.hetero.kernels import leaky_relu_kernel, maxpool_kernel, unpool_bilinear_kernel
from repro.report import format_table


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

    # Instrumented kernels report the same counts they were modelled to.
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 4, 32, 32))
    w = rng.normal(size=(8, 4, 5, 5))
    res = conv2d_kernel(x, w, padding=2)
    assert res.counts == kernel_op_counts("convolution", out_h=32, out_w=32,
                                          out_ch=8, in_ch=4, k=5, batch=1)
    wd = rng.normal(size=(4, 8, 5, 5))
    res_d = deconv2d_refactored_kernel(x, wd, padding=2)
    assert res_d.counts == kernel_op_counts("deconvolution", out_h=32, out_w=32,
                                            out_ch=8, in_ch=4, k=5, batch=1)
    res_p = maxpool_kernel(x, 3, 2, 1)
    assert res_p.counts == kernel_op_counts("pooling", out_h=16, out_w=16, ch=4, k=3, batch=1)
    res_u = unpool_bilinear_kernel(x, 2)
    assert res_u.counts == kernel_op_counts("unpooling", out_h=64, out_w=64, ch=4, batch=1)
    res_r = leaky_relu_kernel(x)
    assert res_r.counts == kernel_op_counts("leaky_relu", numel=x.size)
