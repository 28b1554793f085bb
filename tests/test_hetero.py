"""Tests for the heterogeneous inference substrate (Tables 4-7, Figs. 9-10)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.backend.counters import (
    PAPER_TABLE6_MILLIONS,
    batchnorm_counts,
    conv_counts_nd,
    deconv_naive_counts_nd,
    leaky_relu_counts,
    pool_counts_nd,
    unpool_counts_nd,
)
from repro.backend.registry import dispatch, trace_dispatches
from repro.hetero import (
    DDNET_16X16,
    DEVICES,
    INTEL_ARRIA10,
    INTEL_XEON_6128,
    NVIDIA_T4,
    NVIDIA_V100,
    FpgaResourceModel,
    InferenceEngine,
    OptimizationConfig,
    PerfModel,
    ddnet_totals,
    deconv_nd_naive_kernel,
    deconv_nd_refactored_kernel,
    table6_counts,
)
from repro.hetero.device import get_device
from repro.hetero.fpga import ReconfigurationSchedule
from repro.hetero.perfmodel import PAPER_TABLE4, PAPER_TABLE5, PAPER_TABLE7
from repro.models import DDnet
from repro.tensor import Tensor, no_grad
from repro.tensor import functional as F


def _dispatched(op, *args, **kwargs):
    """Run one dispatch of ``op``; returns (result, kind, counts)."""
    rows = []
    sink = SimpleNamespace(
        record=lambda kind, site, counts, time_s: rows.append((kind, counts)))
    with trace_dispatches(sink):
        result = dispatch(op, *args, **kwargs)
    (kind, counts), = rows
    return result, kind, counts


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
        opt = conv_counts_nd((16, 16), 4, 4, 3)
        naive = deconv_naive_counts_nd((16, 16), 4, 4, 3)
        assert naive.loads + naive.stores > opt.loads + opt.stores
        assert naive.flops == opt.flops  # same math, different traffic


class TestKernels:
    def test_naive_equals_refactored(self, rng):
        """Fig. 9: the two deconvolution formulations agree exactly."""
        x = rng.normal(size=(2, 3, 7, 7))
        w = rng.normal(size=(3, 4, 5, 5))
        for stride, padding in [(1, 2), (1, 0), (2, 1)]:
            a = deconv_nd_naive_kernel(x, w, stride, padding)
            b = deconv_nd_refactored_kernel(x, w, stride, padding)
            assert np.allclose(a.output, b.output, atol=1e-10), (stride, padding)

    def test_refactored_fewer_memory_ops(self, rng):
        x = rng.normal(size=(1, 2, 8, 8))
        w = rng.normal(size=(2, 2, 5, 5))
        a = deconv_nd_naive_kernel(x, w)
        b = deconv_nd_refactored_kernel(x, w)
        assert a.counts.stores > b.counts.stores * 10

    # Every other Table 6 kernel counts itself in its own dispatch.
    def test_conv_kernel_matches_autograd(self, rng):
        x = rng.normal(size=(1, 2, 9, 9))
        w = rng.normal(size=(3, 2, 3, 3))
        (out, _, _), kind, counts = _dispatched("conv", x, w, None, 2, 1,
                                                want_cols=False)
        ref = F.conv2d(Tensor(x), Tensor(w), stride=2, padding=1).data
        assert np.allclose(out, ref)
        assert (kind, counts) == ("convolution", conv_counts_nd((5, 5), 3, 2, 3))

    def test_maxpool_kernel(self, rng):
        x = rng.normal(size=(1, 2, 8, 8))
        (out, _, _), kind, counts = _dispatched("maxpool", x, 2, 2, 0,
                                                want_indices=False)
        ref = F.max_pool_nd(Tensor(x), 2, 2).data
        assert np.allclose(out, ref)
        assert (kind, counts) == ("pooling", pool_counts_nd((4, 4), 2, 2))

    def test_unpool_kernel(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        out, kind, counts = _dispatched("unpool", x, 2)
        ref = F.upsample_bilinear(Tensor(x), 2).data
        assert np.allclose(out, ref)
        assert (kind, counts) == ("unpooling", unpool_counts_nd((8, 8), 2))

    def test_batchnorm_kernel(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        mean, var = rng.normal(size=3), rng.uniform(0.5, 2, size=3)
        g, b = rng.normal(size=3), rng.normal(size=3)
        (out, _, _), kind, counts = _dispatched("batchnorm", x, mean, var, g, b, 1e-5)
        gt, bt = Tensor(g), Tensor(b)
        ref = F.batch_norm(Tensor(x), gt, bt, mean, var, training=False).data
        assert np.allclose(out, ref)
        assert (kind, counts) == ("batchnorm", batchnorm_counts(x.size))

    def test_leaky_relu_kernel(self, rng):
        x = rng.normal(size=(4, 4))
        out, kind, counts = _dispatched("leaky_relu", x, 0.1)
        assert np.allclose(out, np.where(x > 0, x, 0.1 * x))
        assert (kind, counts) == ("leaky_relu", leaky_relu_counts(x.size))

    def test_channel_validation(self, rng):
        with pytest.raises(ValueError):
            deconv_nd_naive_kernel(np.zeros((1, 3, 4, 4)), np.zeros((2, 2, 3, 3)))

    def test_naive_equals_refactored_3d(self, rng):
        """Fig. 9 extended to volumes: scatter and gather forms agree."""
        x = rng.normal(size=(2, 2, 3, 4, 4))
        w = rng.normal(size=(2, 3, 3, 3, 3))
        for stride, padding in [(1, 0), (1, 1), (2, 1)]:
            a = deconv_nd_naive_kernel(x, w, stride, padding)
            b = deconv_nd_refactored_kernel(x, w, stride, padding)
            assert a.output.shape == b.output.shape, (stride, padding)
            assert np.allclose(a.output, b.output, atol=1e-10), (stride, padding)

    def test_refactored_3d_matches_input_grad(self, rng):
        """The 3D gather deconv IS the registered conv input-gradient."""
        from repro.tensor.ops_conv import conv_nd_input_grad

        x = rng.normal(size=(1, 2, 3, 4, 4))
        w = rng.normal(size=(2, 3, 3, 3, 3))
        # Stride 2 runs the scatter form; stride 1 with F <= C the gather.
        for stride, padding in [(2, 1), (1, 1)]:
            res = deconv_nd_refactored_kernel(x, w, stride, padding)
            out_shape = (1, 3) + tuple(
                (s - 1) * stride + 3 - 2 * padding for s in x.shape[2:])
            ref = conv_nd_input_grad(x, w, out_shape, stride, padding)
            assert np.array_equal(res.output, ref), (stride, padding)

    def test_refactored_fewer_memory_ops_3d(self, rng):
        """Table 6's store asymmetry carries over to the 3D kernels."""
        x = rng.normal(size=(1, 2, 4, 4, 4))
        w = rng.normal(size=(2, 2, 3, 3, 3))
        a = deconv_nd_naive_kernel(x, w)
        b = deconv_nd_refactored_kernel(x, w)
        assert a.counts.stores > b.counts.stores * 10


@pytest.fixture(scope="module")
def ddnet():
    """The default (paper-width) DDnet whose forward the perf model prices."""
    return DDnet().eval()


class TestSchedule:
    """DDnet's kernel counts as the perf model stores them (``DDNET_16X16``)."""

    def test_table_is_ddnets_own_forward(self, ddnet):
        """Re-trace the model: the stored table must be its forward, and
        a larger shape exactly the table scaled by slices × area."""
        for size, batch in ((16, 1), (32, 2)):
            _, trace = InferenceEngine(ddnet, NVIDIA_V100).run(
                np.zeros((batch, 1, size, size)))
            launches = {}
            for launch in trace.launches:
                launches[launch["kind"]] = launches.get(launch["kind"], 0) + 1
            assert launches == {k: n for k, (n, _) in DDNET_16X16.items()}
            totals = ddnet_totals(size, batch)
            assert trace.counts == {k: totals[k] for k in DDNET_16X16}

    def test_paper_kernel_counts_in_schedule(self, ddnet):
        """Table 2: 37 convolutions and 8 deconvolutions per forward."""
        assert DDNET_16X16["convolution"][0] == 37
        assert DDNET_16X16["deconvolution"][0] == 8
        assert ddnet.conv_layer_count() == (37, 8)

    def test_naive_flag_switches_kind(self, ddnet):
        _, trace = InferenceEngine(ddnet, NVIDIA_V100, OptimizationConfig.baseline()).run(
            np.zeros((1, 1, 16, 16)))
        kinds = [launch["kind"] for launch in trace.launches]
        assert "deconvolution" not in kinds
        assert kinds.count("deconvolution_naive") == 8

    def test_totals_grouping(self):
        totals = ddnet_totals(512, 32)
        assert totals["convolution"].flops > 0
        assert totals["other"] == (totals["pooling"] + totals["unpooling"]
                                   + totals["leaky_relu"] + totals["batchnorm"])
        # §5.1.3: convolution does more work than deconvolution (the
        # paper quotes ~1.87×; the exact Table 2 shapes give ~1.13×).
        ratio = totals["convolution"].flops / totals["deconvolution"].flops
        assert 1.0 < ratio < 2.6

    def test_input_size_validation(self):
        with pytest.raises(ValueError, match="divide by 16"):
            ddnet_totals(100, 1)

    def test_batch_scales_counts(self):
        t1, t3 = ddnet_totals(512, 1), ddnet_totals(512, 3)
        assert set(t1) == set(t3)
        for key in t1:
            assert t3[key] == t1[key].scaled(3), key


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
        p_small = pm.predict(NVIDIA_V100, totals=ddnet_totals(256, 8))
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
        """DDnet's counts are linear in batch, so service time is too
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

    def test_trace_counts_match_schedule(self, ddnet, rng):
        """The default DDnet's trace, grouped as Table 5, is the perf
        model's count table at the same shape."""
        _, trace = InferenceEngine(ddnet, NVIDIA_V100).run(rng.random((1, 1, 32, 32)))
        totals = ddnet_totals(32, 1)
        assert trace.group_counts() == {
            g: totals[g] for g in ("convolution", "deconvolution", "other")}

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
    # nets x 6 devices x (Table 7 ladder + FPGA-full); the sites are
    # left out, the output bits too (BLAS-dependent).
    TRACE_PIN = "2dd4eafbe6a50b9c1d5c81c6b147e0c86d956f33fa64ae90af9394fad8ca2f36"

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

    def test_naive_arm_charges_the_schedules_scatter_counts(self, monkeypatch):
        """The Fig. 9a arm charges each deconvolution Table 6's scatter
        counts at the input that layer really received."""
        from repro import nn

        for net, x in _engine_nets():
            inputs = {}
            for name, m in net.named_modules():
                if isinstance(m, nn.ConvTranspose2d):
                    def seen(h, name=name, forward=m.forward):
                        inputs[name] = h.shape
                        return forward(h)
                    monkeypatch.setattr(m, "forward", seen)
            _, trace = InferenceEngine(
                net, INTEL_XEON_6128, OptimizationConfig.baseline()).run(x)
            naive = {e.payload["site"]: e.payload["counts"] for e in trace.events()
                     if e.payload["op"] == "deconvolution_naive"}
            assert len(naive) == 2 * net.num_blocks
            assert set(naive) == set(inputs)
            modules = dict(net.named_modules())
            for site, counts in naive.items():
                w = modules[site].weight.data
                shape = inputs[site]
                assert counts == deconv_naive_counts_nd(
                    shape[2:], shape[1], w.shape[1], w.shape[2:], batch=shape[0]), site
            assert "deconvolution" not in trace.counts
            monkeypatch.undo()

    def test_trace_reads_its_own_events(self, monkeypatch):
        """On a bus shared by many runs, a trace reads its own launches:
        no scan of the bus, and the same view as on a private bus."""
        from repro.telemetry import EventBus

        net, x = _engine_nets()[0]
        shared = InferenceEngine(net, NVIDIA_V100, bus=EventBus())
        for _ in range(20):
            shared.run(x)
        _, last = shared.run(x)
        _, alone = InferenceEngine(net, NVIDIA_V100).run(x)

        def no_scan(*args, **kwargs):
            raise AssertionError("ExecutionTrace scanned the bus")

        monkeypatch.setattr(EventBus, "of_kind", no_scan)
        assert len(shared.bus.events) > 21 * len(alone.launches)
        assert last.launches == alone.launches
        assert last.counts == alone.counts
        assert last.group_counts() == alone.group_counts()
        assert last.modelled_time_s == alone.modelled_time_s
        assert [e.payload["trace"] for e in last.events()] == (
            [last.trace_id] * len(alone.launches))

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
