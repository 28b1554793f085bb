"""Table 5 — event-based kernel times of the optimized OpenCL kernels.

Model-predicted convolution / deconvolution / other kernel times per
platform, plus the paper's §5.1.3 structural claims: deconvolution is
the most expensive kernel on CPU/GPU, and vectorization flips that on
the FPGA.
"""

from conftest import save_text
from repro.hetero import DEVICES, ddnet_totals
from repro.hetero.perfmodel import PAPER_TABLE5
from repro.report import format_table


def test_table5_kernel_times(benchmark, results_dir, perf_model):
    result = benchmark(perf_model.table5)
    rows = []
    for name in DEVICES:
        r, p = result[name], PAPER_TABLE5[name]
        rows.append({
            "Platform": name,
            "Conv model (s)": round(r["convolution"], 3),
            "Conv paper (s)": p["convolution"],
            "Deconv model (s)": round(r["deconvolution"], 3),
            "Deconv paper (s)": p["deconvolution"],
            "Other model (s)": round(r["other"], 3),
            "Other paper (s)": p["other"],
        })
    totals = ddnet_totals(512, 32)
    text = format_table(rows, title="Table 5 — Optimized kernel times (512x512x32 DDnet inference)")
    text += (
        f"\n\nWhole-network op totals (DDnet's own forward): "
        f"conv {totals['convolution'].flops / 1e9:.0f} GFLOP, "
        f"deconv {totals['deconvolution'].flops / 1e9:.0f} GFLOP, "
        f"other {totals['other'].bytes_moved / 1e9:.1f} GB"
    )
    save_text(results_dir, "table5_kernel_times.txt", text)

    for name, r in result.items():
        for group, t in r.items():
            paper = PAPER_TABLE5[name][group]
            assert abs(t - paper) / paper < 0.05, (name, group)
        if "FPGA" in name:
            assert r["convolution"] > r["deconvolution"]  # §5.1.3 flip
        else:
            assert r["deconvolution"] > r["convolution"]
