#!/usr/bin/env python3
"""Paper-width DDnet inference: measured NumPy vs modelled OpenCL.

Runs the *full-width* DDnet (base 16 channels, growth 16, 4 dense
blocks, 5×5 kernels — exactly Table 2, 564k parameters) on a real
chest slice at 128×128, through the instrumented kernel layer with an
OpenCL-style command queue, then:

- checks that the forward launches the paper's 37 convolutions and 8
  deconvolutions, as the performance model's count table says,
- compares this machine's measured wall-clock against the calibrated
  model's predictions for the six Table 4 platforms at the same
  workload,
- extrapolates to the paper's 512×512×32 reference chunk.

Run:  python examples/paper_scale_inference.py   (~1 s)
"""

import time

import numpy as np

from repro.ct.hounsfield import normalize_unit
from repro.data.phantom import ChestPhantomConfig, chest_slice
from repro.hetero import (
    DDNET_16X16,
    DEVICES,
    INTEL_XEON_6128,
    InferenceEngine,
    OptimizationConfig,
    PerfModel,
    ddnet_totals,
)
from repro.models import DDnet
from repro.report import format_table

SIZE = 128


def main():
    print(f"Building the full Table 2 DDnet (base 16, growth 16, 4 blocks)...")
    net = DDnet(rng=np.random.default_rng(0)).eval()
    convs, deconvs = DDNET_16X16["convolution"][0], DDNET_16X16["deconvolution"][0]
    if (convs, deconvs) != (37, 8):
        raise SystemExit(f"count table has {convs} + {deconvs} layers, not 37 + 8")
    print(f"  {convs} convolution + {deconvs} deconvolution layers, "
          f"{net.num_parameters():,} parameters")

    image = normalize_unit(chest_slice(ChestPhantomConfig(size=SIZE),
                                       np.random.default_rng(1)))[None, None]
    perf = PerfModel()
    engine = InferenceEngine(net, INTEL_XEON_6128, perf_model=perf)

    print(f"\nExecuting one {SIZE}x{SIZE} slice through the instrumented kernels...")
    t0 = time.perf_counter()
    out, trace, queue = engine.run_with_queue(image)
    wall = time.perf_counter() - t0
    counts = trace.group_counts()
    gflop = (counts["convolution"].flops + counts["deconvolution"].flops) / 1e9
    kinds = [launch["kind"] for launch in trace.launches]
    if (kinds.count("convolution"), kinds.count("deconvolution")) != (convs, deconvs):
        raise SystemExit("the forward's launches disagree with the count table")
    print(f"  output shape {out.shape}, {len(trace.launches)} kernel launches, "
          f"{gflop:.1f} GFLOP")
    print(f"  measured NumPy wall-clock: {wall:.2f}s "
          f"({gflop / wall:.1f} GFLOP/s on this interpreter)")
    by_group = queue.kernel_time_by_prefix()
    print(f"  modelled Xeon OpenCL time for the same schedule: "
          f"{queue.profile()['kernel']:.4f}s "
          f"(conv {by_group.get('convolution', 0):.4f}s, "
          f"deconv {by_group.get('deconvolution', 0):.4f}s)")

    # Model predictions for this workload and for the paper's reference.
    totals_here = ddnet_totals(SIZE, 1)
    totals_paper = ddnet_totals(512, 32)
    rows = []
    for name, device in DEVICES.items():
        cfg = (OptimizationConfig.fpga_full() if device.device_type == "fpga"
               else OptimizationConfig.ref_pf_lu())
        here = perf.predict(device, cfg, totals=totals_here).total_s
        paper = perf.predict(device, cfg, totals=totals_paper).total_s
        rows.append({
            "Platform": name,
            f"{SIZE}x{SIZE}x1 (s)": f"{here:.4f}",
            "512x512x32 (s)": f"{paper:.2f}",
        })
    print()
    print(format_table(rows, title="Modelled OpenCL inference times (Table 4 workload rightmost)"))
    ratio = totals_paper["convolution"].flops / totals_here["convolution"].flops
    print(f"\nThe paper's reference chunk is {ratio:.0f}x this example's arithmetic.")


if __name__ == "__main__":
    main()
