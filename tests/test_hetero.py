"""Tests for the heterogeneous inference substrate (Tables 4-7, Figs. 9-10)."""

import numpy as np
import pytest

from repro.backend.counters import PAPER_TABLE6_MILLIONS
from repro.hetero import (
    DEVICES,
    INTEL_ARRIA10,
    INTEL_XEON_6128,
    NVIDIA_T4,
    NVIDIA_V100,
    FpgaResourceModel,
    InferenceEngine,
    OptimizationConfig,
    PerfModel,
    conv2d_kernel,
    ddnet_kernel_schedule,
    deconv2d_naive_kernel,
    deconv2d_refactored_kernel,
    kernel_op_counts,
    schedule_totals,
    table6_counts,
)
from repro.hetero.device import get_device
from repro.hetero.fpga import ReconfigurationSchedule
from repro.hetero.kernels import (
    batchnorm_kernel,
    conv3d_kernel,
    deconv3d_naive_kernel,
    deconv3d_refactored_kernel,
    leaky_relu_kernel,
    maxpool_kernel,
    unpool_bilinear_kernel,
)
from repro.hetero.perfmodel import PAPER_TABLE4, PAPER_TABLE5, PAPER_TABLE7
from repro.models import DDnet
from repro.tensor import Tensor, no_grad
from repro.tensor import functional as F


class TestDevices:
    def test_table4_specs(self):
        v100 = DEVICES["Nvidia V100 GPU"]
        assert v100.cores == 5120 and v100.bandwidth_gb_s == 900 and v100.frequency_mhz == 1380
        fpga = DEVICES["Intel Arria 10 GX 1150 FPGA"]
        assert fpga.cores == 2 and not fpga.pytorch_supported

    def test_six_platforms(self):
        assert len(DEVICES) == 6

    def test_lookup_by_substring(self):
        assert get_device("V100").name == "Nvidia V100 GPU"
        with pytest.raises(KeyError):
            get_device("Nvidia")  # ambiguous

    def test_pytorch_support_flags(self):
        unsupported = [d.name for d in DEVICES.values() if not d.pytorch_supported]
        assert set(unsupported) == {"AMD Radeon Vega Frontier GPU", "Intel Arria 10 GX 1150 FPGA"}


class TestCounters:
    def test_table6_reproduced_exactly(self):
        """Every Table 6 entry must match within rounding (0.1M)."""
        ours = table6_counts()
        for kernel, (loads, stores, flops) in PAPER_TABLE6_MILLIONS.items():
            got = ours[kernel].in_millions()
            assert abs(got[0] - loads) <= 0.1, kernel
            assert abs(got[1] - stores) <= 0.1, kernel
            assert abs(got[2] - flops) <= 0.2, kernel

    def test_conv_deconv_symmetric(self):
        t6 = table6_counts()
        assert t6["Convolution"] == t6["Deconvolution"]

    def test_naive_deconv_more_traffic(self):
        opt = kernel_op_counts("deconvolution", out_h=16, out_w=16, out_ch=4, in_ch=4, k=3)
        naive = kernel_op_counts("deconvolution_naive", in_h=16, in_w=16, in_ch=4, out_ch=4, k=3)
        assert naive.loads + naive.stores > opt.loads + opt.stores
        assert naive.flops == opt.flops  # same math, different traffic

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            kernel_op_counts("fft", numel=10)


class TestKernels:
    def test_naive_equals_refactored(self, rng):
        """Fig. 9: the two deconvolution formulations agree exactly."""
        x = rng.normal(size=(2, 3, 7, 7))
        w = rng.normal(size=(3, 4, 5, 5))
        for stride, padding in [(1, 2), (1, 0), (2, 1)]:
            a = deconv2d_naive_kernel(x, w, stride, padding)
            b = deconv2d_refactored_kernel(x, w, stride, padding)
            assert np.allclose(a.output, b.output, atol=1e-10), (stride, padding)

    def test_refactored_fewer_memory_ops(self, rng):
        x = rng.normal(size=(1, 2, 8, 8))
        w = rng.normal(size=(2, 2, 5, 5))
        a = deconv2d_naive_kernel(x, w)
        b = deconv2d_refactored_kernel(x, w)
        assert a.counts.stores > b.counts.stores * 10

    def test_conv_kernel_matches_autograd(self, rng):
        x = rng.normal(size=(1, 2, 9, 9))
        w = rng.normal(size=(3, 2, 3, 3))
        res = conv2d_kernel(x, w, stride=2, padding=1)
        ref = F.conv2d(Tensor(x), Tensor(w), stride=2, padding=1).data
        assert np.allclose(res.output, ref)

    def test_maxpool_kernel(self, rng):
        x = rng.normal(size=(1, 2, 8, 8))
        res = maxpool_kernel(x, 2, 2, 0)
        ref = F.max_pool_nd(Tensor(x), 2, 2).data
        assert np.allclose(res.output, ref)

    def test_unpool_kernel(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        res = unpool_bilinear_kernel(x, 2)
        ref = F.upsample_bilinear(Tensor(x), 2).data
        assert np.allclose(res.output, ref)

    def test_batchnorm_kernel(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        mean, var = rng.normal(size=3), rng.uniform(0.5, 2, size=3)
        g, b = rng.normal(size=3), rng.normal(size=3)
        res = batchnorm_kernel(x, mean, var, g, b)
        gt, bt = Tensor(g), Tensor(b)
        ref = F.batch_norm(Tensor(x), gt, bt, mean, var, training=False).data
        assert np.allclose(res.output, ref)

    def test_leaky_relu_kernel(self, rng):
        x = rng.normal(size=(4, 4))
        res = leaky_relu_kernel(x, 0.1)
        assert np.allclose(res.output, np.where(x > 0, x, 0.1 * x))

    def test_channel_validation(self, rng):
        with pytest.raises(ValueError):
            deconv2d_naive_kernel(np.zeros((1, 3, 4, 4)), np.zeros((2, 2, 3, 3)))

    def test_naive_equals_refactored_3d(self, rng):
        """Fig. 9 extended to volumes: scatter and gather forms agree."""
        x = rng.normal(size=(2, 2, 3, 4, 4))
        w = rng.normal(size=(2, 3, 3, 3, 3))
        for stride, padding in [(1, 0), (1, 1), (2, 1)]:
            a = deconv3d_naive_kernel(x, w, stride, padding)
            b = deconv3d_refactored_kernel(x, w, stride, padding)
            assert a.output.shape == b.output.shape, (stride, padding)
            assert np.allclose(a.output, b.output, atol=1e-10), (stride, padding)

    def test_refactored_3d_matches_input_grad(self, rng):
        """The 3D gather deconv IS the registered conv input-gradient."""
        from repro.tensor.ops_conv import conv_nd_input_grad

        x = rng.normal(size=(1, 2, 3, 4, 4))
        w = rng.normal(size=(2, 3, 3, 3, 3))
        # Stride 2 runs the scatter form; stride 1 with F <= C the gather.
        for stride, padding in [(2, 1), (1, 1)]:
            res = deconv3d_refactored_kernel(x, w, stride, padding)
            out_shape = (1, 3) + tuple(
                (s - 1) * stride + 3 - 2 * padding for s in x.shape[2:])
            ref = conv_nd_input_grad(x, w, out_shape, stride, padding)
            assert np.array_equal(res.output, ref), (stride, padding)

    def test_refactored_fewer_memory_ops_3d(self, rng):
        """Table 6's store asymmetry carries over to the 3D kernels."""
        x = rng.normal(size=(1, 2, 4, 4, 4))
        w = rng.normal(size=(2, 2, 3, 3, 3))
        a = deconv3d_naive_kernel(x, w)
        b = deconv3d_refactored_kernel(x, w)
        assert a.counts.stores > b.counts.stores * 10

    def test_3d_wrappers_validate_rank(self):
        with pytest.raises(ValueError):
            conv3d_kernel(np.zeros((1, 2, 4, 4)), np.zeros((2, 2, 3, 3)))
        with pytest.raises(ValueError):
            deconv3d_naive_kernel(np.zeros((1, 2, 4, 4)), np.zeros((2, 2, 3, 3)))


class TestSchedule:
    def test_paper_kernel_counts_in_schedule(self):
        invs = ddnet_kernel_schedule()
        convs = sum(1 for i in invs if i.kind == "convolution")
        deconvs = sum(1 for i in invs if i.kind.startswith("deconvolution"))
        assert convs == 37
        assert deconvs == 8

    def test_naive_flag_switches_kind(self):
        invs = ddnet_kernel_schedule(naive_deconv=True)
        assert all(i.kind != "deconvolution" for i in invs)
        assert sum(1 for i in invs if i.kind == "deconvolution_naive") == 8

    def test_totals_grouping(self):
        totals = schedule_totals(ddnet_kernel_schedule())
        assert totals["convolution"].flops > 0
        assert totals["other"].flops >= 0
        # §5.1.3: convolution does more work than deconvolution (the
        # paper quotes ~1.87×; the exact Table 2 shapes give ~1.13×).
        ratio = totals["convolution"].flops / totals["deconvolution"].flops
        assert 1.0 < ratio < 2.6

    def test_input_size_validation(self):
        with pytest.raises(ValueError):
            ddnet_kernel_schedule(input_size=100)

    def test_batch_scales_counts(self):
        t1 = schedule_totals(ddnet_kernel_schedule(batch=1))
        t2 = schedule_totals(ddnet_kernel_schedule(batch=2))
        assert t2["convolution"].flops == 2 * t1["convolution"].flops


class TestPerfModel:
    @pytest.fixture(scope="class")
    def pm(self):
        return PerfModel()

    def test_table5_within_tolerance(self, pm):
        for name, row in pm.table5().items():
            for group, t in row.items():
                paper = PAPER_TABLE5[name][group]
                assert abs(t - paper) / paper < 0.05, (name, group)

    def test_table7_within_tolerance(self, pm):
        for name, row in pm.table7().items():
            for cfg, t in row.items():
                paper = PAPER_TABLE7[name][cfg]
                assert abs(t - paper) / paper < 0.10, (name, cfg)

    def test_table4_within_tolerance(self, pm):
        for name, row in pm.table4().items():
            for impl, t in row.items():
                paper = PAPER_TABLE4[name][impl]
                if paper is None:
                    assert t is None
                else:
                    assert abs(t - paper) / paper < 0.10, (name, impl)

    def test_v100_fastest(self, pm):
        """§5.1.3: V100 wins; ordering tracks bandwidth among GPUs."""
        t4 = pm.table4()
        opencl = {n: r["opencl"] for n, r in t4.items()}
        assert min(opencl, key=opencl.get) == "Nvidia V100 GPU"
        assert opencl["Nvidia V100 GPU"] < opencl["Nvidia P100 GPU"] < opencl["Nvidia T4 GPU"]

    def test_opencl_beats_pytorch(self, pm):
        """§5.1.3: OpenCL ≥2× faster than PyTorch on every platform."""
        for name, row in pm.table4().items():
            if row["pytorch"] is not None:
                assert row["pytorch"] / row["opencl"] >= 2.0, name

    def test_refactoring_dominates_ladder(self, pm):
        """Table 7: REF is by far the largest step on GPUs."""
        for name, row in pm.table7().items():
            gain_ref = row["baseline"] / row["ref"]
            gain_rest = row["ref"] / row["ref_pf_lu"]
            assert gain_ref > gain_rest, name

    def test_deconv_dominates_cpu_serial(self, pm):
        """§5.1.3: deconvolution is the most expensive optimized kernel
        on CPU and GPU (but not on the vectorized FPGA)."""
        t5 = pm.table5()
        for name in t5:
            if "FPGA" in name:
                continue
            assert t5[name]["deconvolution"] > t5[name]["convolution"], name

    def test_fpga_conv_more_expensive_after_vectorization(self, pm):
        t5 = pm.table5()["Intel Arria 10 GX 1150 FPGA"]
        assert t5["convolution"] > t5["deconvolution"]

    def test_fpga_requires_reconfig_for_extras(self, pm):
        cfg = OptimizationConfig(refactor_deconv=True, prefetch=True, loop_unroll=True,
                                 vectorize=True)
        with pytest.raises(ValueError):
            pm.predict(INTEL_ARRIA10, cfg)

    def test_fpga_opts_rejected_elsewhere(self, pm):
        with pytest.raises(ValueError):
            pm.predict(NVIDIA_V100, OptimizationConfig.fpga_full())

    def test_smaller_workload_scales_down(self, pm):
        small = ddnet_kernel_schedule(input_size=256, batch=8)
        p_small = pm.predict(NVIDIA_V100, schedule=small)
        p_ref = pm.predict(NVIDIA_V100)
        assert p_small.total_s < p_ref.total_s / 4

    def test_predict_batch1_pins_table5_calibration(self, pm):
        """Regression: batch=1 at the reference shape must reproduce the
        Table 5 calibration predictions exactly (the serving layer's
        batch-parameterized query is the same model, not a new one)."""
        for name, device in DEVICES.items():
            base = pm.predict(device)
            batched = pm.predict_batch(device, batch=1)
            assert batched.convolution_s == pytest.approx(base.convolution_s, rel=1e-12)
            assert batched.deconvolution_s == pytest.approx(base.deconvolution_s, rel=1e-12)
            assert batched.other_s == pytest.approx(base.other_s, rel=1e-12)

    def test_predict_batch_scales_linearly(self, pm):
        """The kernel schedule is linear in batch, so service time is too
        — the amortization the serving batcher exploits is in launch
        overheads and queueing, not in the roofline itself."""
        t1 = pm.predict_batch(NVIDIA_V100, batch=1).total_s
        t4 = pm.predict_batch(NVIDIA_V100, batch=4).total_s
        assert t4 == pytest.approx(4 * t1, rel=1e-6)

    def test_predict_batch_rejects_bad_batch(self, pm):
        with pytest.raises(ValueError):
            pm.predict_batch(NVIDIA_V100, batch=0)


class TestFpga:
    def test_ladder_fits_single_bitstream(self):
        assert FpgaResourceModel().fits_single_bitstream(OptimizationConfig.ref_pf_lu())

    def test_full_opts_overflow(self):
        """§4.2.3: simultaneous optimizations exceed the fabric."""
        assert not FpgaResourceModel().fits_single_bitstream(OptimizationConfig.fpga_full())

    def test_split_bitstreams_fit(self):
        rm = FpgaResourceModel()
        full = OptimizationConfig.fpga_full()
        assert rm.bitstream_usage(["convolution", "other"], full).fits()
        assert rm.bitstream_usage(["deconvolution", "other"], full).fits()

    def test_reconfig_schedule_chooses_split_when_worth_it(self):
        rm = FpgaResourceModel()
        sched = ReconfigurationSchedule.plan(
            conv_time_s=9.82, deconv_time_s=2.84, other_time_s=3.99,
            single_bitstream_time_s=65.83, resource_model=rm,
            config=OptimizationConfig.fpga_full(),
        )
        assert sched.num_reconfigurations >= 1
        assert sched.total_time_s < 65.83

    def test_reconfig_schedule_prefers_shared_when_cheap(self):
        rm = FpgaResourceModel()
        sched = ReconfigurationSchedule.plan(
            conv_time_s=1.0, deconv_time_s=1.0, other_time_s=1.0,
            single_bitstream_time_s=3.0, resource_model=rm,
            config=OptimizationConfig.ref_pf_lu(),
        )
        assert sched.num_reconfigurations == 0

    def test_unknown_kernel_kind(self):
        with pytest.raises(KeyError):
            FpgaResourceModel().kernel_usage("fft", OptimizationConfig.baseline())

    def test_utilization_fractions(self):
        u = FpgaResourceModel().bitstream_usage(
            ["convolution"], OptimizationConfig.baseline()
        ).utilization()
        assert all(0.0 < v < 1.0 for v in u.values())


class TestInferenceEngine:
    @pytest.fixture(scope="class")
    def net(self):
        net = DDnet(base_channels=4, growth=4, num_blocks=2, layers_per_block=2,
                    dense_kernel=3, deconv_kernel=3, rng=np.random.default_rng(0))
        return net.eval()

    def test_functional_equivalence(self, net, rng):
        """Engine output must equal the autograd model's output exactly."""
        x = rng.random((1, 1, 16, 16))
        with no_grad():
            ref = net(Tensor(x)).data
        out, _ = InferenceEngine(net, NVIDIA_V100).run(x)
        assert np.allclose(out, ref, atol=1e-12)

    def test_naive_config_same_output(self, net, rng):
        x = rng.random((1, 1, 16, 16))
        a, _ = InferenceEngine(net, NVIDIA_V100).run(x)
        b, _ = InferenceEngine(net, INTEL_XEON_6128, OptimizationConfig.baseline()).run(x)
        assert np.allclose(a, b, atol=1e-12)

    def test_trace_counts_match_schedule(self, net, rng):
        x = rng.random((1, 1, 16, 16))
        _, trace = InferenceEngine(net, NVIDIA_V100).run(x)
        expected = schedule_totals(ddnet_kernel_schedule(
            input_size=16, batch=1, base_channels=4, growth=4,
            num_blocks=2, layers_per_block=2, dense_kernel=3, deconv_kernel=3,
        ))
        got = trace.group_counts()
        assert got["convolution"].flops == expected["convolution"].flops
        assert got["deconvolution"].flops == expected["deconvolution"].flops

    def test_modelled_time_grows_with_workload(self, net, rng):
        eng = InferenceEngine(net, INTEL_XEON_6128)
        _, small = eng.run(rng.random((1, 1, 16, 16)))
        _, large = eng.run(rng.random((2, 1, 32, 32)))
        # 8x the arithmetic; launch overhead keeps the ratio below 8.
        assert large.modelled_time_s > small.modelled_time_s

    def test_slower_device_charges_more_compute_time(self, net, rng):
        """Per-flop the Xeon is far slower than the V100; compare with
        launch overheads excluded (at toy sizes launches dominate)."""
        x = rng.random((1, 1, 16, 16))
        _, fast = InferenceEngine(net, NVIDIA_V100).run(x)
        _, slow = InferenceEngine(net, INTEL_XEON_6128).run(x)
        overhead_fast = len(fast.launches) * NVIDIA_V100.launch_overhead_us * 1e-6
        overhead_slow = len(slow.launches) * INTEL_XEON_6128.launch_overhead_us * 1e-6
        assert (slow.modelled_time_s - overhead_slow) > (fast.modelled_time_s - overhead_fast)

    def test_naive_slower_than_refactored(self, net, rng):
        x = rng.random((1, 1, 16, 16))
        _, opt = InferenceEngine(net, NVIDIA_T4).run(x)
        _, naive = InferenceEngine(net, NVIDIA_T4, OptimizationConfig.baseline()).run(x)
        assert naive.modelled_time_s > opt.modelled_time_s

    def test_ddnet_without_shortcuts_runs_its_fused_decoder(self, rng):
        """The decoder without global shortcuts is one fused
        ``unpool_deconv`` dispatch per stage, charged as a deconvolution
        at the fused counts (the deconv plus its un-pool)."""
        from repro.backend.counters import conv_counts_nd, unpool_counts_nd

        net = DDnet(base_channels=4, growth=4, num_blocks=2, layers_per_block=2,
                    dense_kernel=3, deconv_kernel=3, global_shortcuts=False,
                    rng=np.random.default_rng(0)).eval()
        x = rng.random((1, 1, 16, 16))
        with no_grad():
            ref = net(Tensor(x)).data
        out, trace = InferenceEngine(net, NVIDIA_V100).run(x)
        assert np.array_equal(out, ref)
        fused = [e.payload for e in trace.events()
                 if e.payload["site"].startswith("deconvs_a.")
                 and e.payload["op"] == "deconvolution"]
        assert [p["site"] for p in fused] == ["deconvs_a.0", "deconvs_a.1"]
        assert "unpooling" not in trace.counts
        for p, size in zip(fused, (8, 16)):
            assert p["counts"] == (
                conv_counts_nd((size, size), 8, 4, (3, 3))
                + unpool_counts_nd((size, size), 4))


def _engine_nets():
    """The two DDnet sizes (and inputs) the trace pin runs."""
    return (
        (DDnet(base_channels=4, growth=4, num_blocks=2, layers_per_block=2,
               dense_kernel=3, deconv_kernel=3,
               rng=np.random.default_rng(0)).eval(),
         np.random.default_rng(1).random((1, 1, 16, 16))),
        (DDnet(base_channels=8, growth=8, num_blocks=3, layers_per_block=2,
               dense_kernel=5, deconv_kernel=5,
               rng=np.random.default_rng(0)).eval(),
         np.random.default_rng(1).random((2, 1, 32, 32))),
    )


class TestInferenceEngineTrace:
    # sha256 over every launch's (kind, loads, stores, flops,
    # time_s.hex()) and every run's modelled_time_s.hex(), for both
    # nets x 6 devices x (Table 7 ladder + FPGA-full).  Recorded from
    # the hand-written DDnet schedule the engine ran before it priced
    # the model's own dispatches; the sites are left out (they became
    # module paths), the output bits too (BLAS-dependent).
    TRACE_PIN = "c54ce8a229569876a79f8cf812bfb844577ba640116185e5fe0f051ab140800f"

    def test_launch_trace_pin(self):
        import hashlib

        configs = OptimizationConfig.table7_ladder() + [OptimizationConfig.fpga_full()]
        pm = PerfModel()
        digest = hashlib.sha256()
        runs = 0
        for net, x in _engine_nets():
            with no_grad():
                ref = net(Tensor(x)).data
            for device in DEVICES.values():
                for cfg in configs:
                    out, trace = InferenceEngine(net, device, cfg, pm).run(x)
                    assert np.array_equal(out, ref)
                    for e in trace.events():
                        p, c = e.payload, e.payload["counts"]
                        digest.update(f"{p['op']},{c.loads},{c.stores},{c.flops},"
                                      f"{p['time_s'].hex()};".encode())
                    digest.update(trace.modelled_time_s.hex().encode())
                    runs += 1
        assert runs == 60
        assert digest.hexdigest() == self.TRACE_PIN

    def test_naive_arm_charges_the_schedules_scatter_counts(self):
        for (net, x), (size, batch) in zip(_engine_nets(), ((16, 1), (32, 2))):
            _, trace = InferenceEngine(
                net, INTEL_XEON_6128, OptimizationConfig.baseline()).run(x)
            dense_kernel = net.blocks[0].layers[0].conv2.kernel_size
            expected = schedule_totals(ddnet_kernel_schedule(
                input_size=size, batch=batch, base_channels=net.base_channels,
                growth=net.growth, num_blocks=net.num_blocks,
                layers_per_block=net.layers_per_block, dense_kernel=dense_kernel,
                deconv_kernel=net.deconvs_a[0].deconv.kernel_size,
                naive_deconv=True))["deconvolution"]
            got = trace.group_counts()["deconvolution"]
            assert (got.loads, got.stores, got.flops) == (
                expected.loads, expected.stores, expected.flops)
            assert "deconvolution" not in trace.counts

    def test_sites_are_module_paths_and_repeat(self):
        net, x = _engine_nets()[0]
        names = {name for name, _ in net.named_modules()}
        engine = InferenceEngine(net, NVIDIA_V100)
        first = [launch["site"] for launch in engine.run(x)[1].launches]
        second = [launch["site"] for launch in engine.run(x)[1].launches]
        assert first == second
        assert set(first) <= names
        assert {"stem.conv", "blocks.0.layers.1.conv2", "deconvs_b.0.deconv",
                "head"} <= set(first)

    def test_fault_mid_forward_restores_dispatch_state(self):
        from repro.backend.registry import calling_module, trace_dispatches
        from repro.resilience.faults import KernelFault

        class Sink:
            def __init__(self):
                self.sites = []

            def record(self, kind, site, counts, time_s):
                self.sites.append(site)

        def hook(kind, site, time_s):
            if site == "blocks.0.layers.1.conv2":  # four modules deep
                raise KernelFault(site)
            return time_s

        net, x = _engine_nets()[0]
        outer = Sink()
        with trace_dispatches(outer):
            with pytest.raises(KernelFault):
                InferenceEngine(net, NVIDIA_V100, fault_hook=hook).run(x)
            assert calling_module() is None
            F.relu(Tensor(x))
        # The outer sink is back, and still sees op names as sites.
        assert outer.sites == ["relu"]
