"""Tests for the kernel-dispatch registry, backends, and calibration.

Covers the contract every backend must honor: registration semantics,
tiered parity with ``reference`` across shapes / strides /
dimensionalities / dtypes, dispatch-level telemetry, per-module backend
selection, cache invalidation, and the measured-execution calibration
loop that feeds the serving scheduler.
"""

import numpy as np
import pytest

import repro.nn as nn
from repro.backend.calibrate import (
    KIND_TO_OP,
    OP_UNITS,
    CalibratedPerfModel,
    KernelCalibration,
    OpCoefficients,
    calibrate_host,
)
from repro.backend.counters import OpCounts, unpool_counts_nd
from repro.backend.registry import (
    REGISTRY,
    dispatch,
    known_backends,
    known_ops,
    set_default_backend,
    trace_dispatches,
    use_backend,
)
from repro.tensor import Tensor, no_grad

ALL_OPS = (
    "avgpool", "batchnorm", "conv", "conv_batch", "conv_bias_act",
    "conv_weight_grad", "deconv", "dequantize_linear", "leaky_relu",
    "maxpool", "quantize_linear", "relu", "unpool", "unpool_deconv",
)

ALL_BACKENDS = ("fast", "reference")

OP_KINDS = {
    "conv": "convolution", "deconv": "deconvolution",
    "conv_weight_grad": "convolution", "conv_bias_act": "convolution",
    "conv_batch": "convolution", "unpool_deconv": "deconvolution",
    "maxpool": "pooling", "avgpool": "pooling", "unpool": "unpooling",
    "leaky_relu": "leaky_relu", "relu": "relu", "batchnorm": "batchnorm",
    "quantize_linear": "quantize", "dequantize_linear": "dequantize",
}


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def _assert_same(a, b):
    """Bit-identical comparison over ndarray / tuple-of-ndarray results."""
    if isinstance(a, np.ndarray):
        assert b.dtype == a.dtype
        assert np.array_equal(a, b)
        return
    assert type(a) is type(b) and len(a) == len(b)
    for x, y in zip(a, b):
        if isinstance(x, np.ndarray):
            assert y.dtype == x.dtype
            assert np.array_equal(x, y)
        else:
            assert x == y


def _assert_parity(backend, reference, candidate, context=""):
    """Tier-aware parity: bit for ``reference``, ulp tolerance for ``fast``."""
    from repro.backend.precision import assert_tier, tier_for

    assert_tier(tier_for(backend), reference, candidate,
                context=f"{backend} {context}".strip())


class TestRegistry:
    def test_all_ops_registered(self):
        assert tuple(known_ops()) == ALL_OPS

    def test_all_backends_for_every_op(self):
        assert known_backends() == ["fast", "reference"]
        for op in known_ops():
            assert known_backends(op) == list(ALL_BACKENDS), op

    def test_fast_fallbacks_are_declared_and_registered(self):
        from repro.backend.fast import FALLBACK_OPS
        from repro.backend.lint import lint_registry_coverage

        assert lint_registry_coverage() == []
        for op, fallback in FALLBACK_OPS.items():
            assert op in known_ops()
            assert fallback in known_backends(op)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            REGISTRY.register("conv", "reference", lambda: None)

    def test_kind_change_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            REGISTRY.register("conv", "other", lambda: None, kind="pooling")

    def test_unknown_op_and_backend(self):
        with pytest.raises(KeyError, match="unknown op"):
            dispatch("nope", 1)
        with pytest.raises(KeyError, match="no 'cuda' backend"):
            dispatch("conv", 1, backend="cuda")

    def test_backend_selection_precedence(self, rng):
        # thread default < use_backend scope < explicit argument.  A
        # 5x5 no_grad conv on ``fast`` leaves an FFT filter transform in
        # the cache and ``reference`` leaves none, which witnesses the
        # backend that really ran.
        from repro.backend.fast import clear_fft_cache, fft_cache_size

        x = rng.normal(size=(1, 2, 8, 8))
        w = rng.normal(size=(2, 2, 5, 5))

        def ran_fast(**kwargs):
            clear_fft_cache()
            with no_grad():
                dispatch("conv", x, w, None, 1, 2, want_cols=False, **kwargs)
            return fft_cache_size() == 1

        try:
            set_default_backend("fast")
            assert ran_fast()
            with use_backend("reference"):
                assert not ran_fast()
                assert ran_fast(backend="fast")
            with use_backend("fast"):
                assert not ran_fast(backend="reference")
        finally:
            set_default_backend(None)
            clear_fft_cache()

    def test_set_default_backend_validates(self):
        with pytest.raises(ValueError, match="unknown backend"):
            set_default_backend("cuda")
        set_default_backend(None)

    def test_use_backend_restores_previous(self, rng):
        from repro.backend.registry import get_backend
        assert get_backend() == "reference"
        with use_backend("fast"):
            assert get_backend() == "fast"
            with use_backend(None):
                assert get_backend() == "reference"
            assert get_backend() == "fast"
        assert get_backend() == "reference"


class TestBackendParity:
    """``fast`` must agree with ``reference`` for every op within the
    dtype-aware ulp tolerance."""

    # (x_shape, w_shape, stride, padding): odd spatial sizes, stride >
    # 1, 5×5 FFT-eligible kernels, and 3D volumes all covered.
    CONV_CASES = [
        ((2, 3, 7, 5), (4, 3, 3, 3), 1, 1),
        ((1, 2, 9, 9), (3, 2, 3, 3), 2, 1),
        ((1, 3, 8, 8), (2, 3, 5, 5), 1, 2),
        ((1, 2, 5, 4, 3), (2, 2, 3, 3, 3), 1, 1),
        ((1, 3, 6, 5, 4), (2, 3, 2, 2, 2), 2, 0),
    ]

    BACKENDS = ("fast",)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("case", CONV_CASES)
    def test_conv_family(self, rng, case, dtype, backend):
        x_shape, w_shape, stride, padding = case
        x = rng.normal(size=x_shape).astype(dtype)
        w = rng.normal(size=w_shape).astype(dtype)
        bias = rng.normal(size=w_shape[0]).astype(dtype)

        ref = dispatch("conv", x, w, bias, stride, padding,
                       want_cols=True, backend="reference")
        cand = dispatch("conv", x, w, bias, stride, padding,
                        want_cols=True, backend=backend)
        _assert_parity(backend, ref, cand, "conv")

        g, cols2 = ref[0], ref[1]
        _assert_parity(
            backend,
            dispatch("deconv", g, w, x.shape, stride, padding,
                     backend="reference"),
            dispatch("deconv", g, w, x.shape, stride, padding,
                     backend=backend), "deconv")
        _assert_parity(
            backend,
            dispatch("conv_weight_grad", cols2, g, w.shape,
                     backend="reference"),
            dispatch("conv_weight_grad", cols2, g, w.shape,
                     backend=backend), "conv_weight_grad")
        _assert_parity(
            backend,
            dispatch("conv_bias_act", x, w, bias, stride, padding, 0.01,
                     backend="reference"),
            dispatch("conv_bias_act", x, w, bias, stride, padding, 0.01,
                     backend=backend), "conv_bias_act")

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(2, 3, 7, 5), (1, 2, 6, 6),
                                       (1, 2, 4, 5, 6)])
    def test_pointwise_and_pooling(self, rng, shape, dtype, backend):
        x = rng.normal(size=shape).astype(dtype)
        c = shape[1]
        mean = rng.normal(size=c).astype(dtype)
        var = rng.uniform(0.5, 2.0, c).astype(dtype)
        gamma = rng.normal(size=c).astype(dtype)
        beta = rng.normal(size=c).astype(dtype)
        calls = [
            ("maxpool", (x, 2, 2, 0), {"want_indices": True}),
            ("maxpool", (x, 3, 2, 1), {"want_indices": False}),
            ("avgpool", (x, 2, 2, 0), {}),
            ("unpool", (x, 2), {}),
            ("leaky_relu", (x, 0.01), {}),
            ("relu", (x,), {}),
            ("batchnorm", (x, mean, var, gamma, beta, 1e-5), {}),
        ]
        for op, args, kwargs in calls:
            _assert_parity(
                backend,
                dispatch(op, *args, backend="reference", **kwargs),
                dispatch(op, *args, backend=backend, **kwargs), op)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fused_ops_parity(self, rng, backend):
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(3, 4, 5, 5))
        y_shape = (2, 4, 12, 12)
        _assert_parity(
            backend,
            dispatch("unpool_deconv", x, w, y_shape, 2, (1, 1), (2, 2),
                     backend="reference"),
            dispatch("unpool_deconv", x, w, y_shape, 2, (1, 1), (2, 2),
                     backend=backend), "unpool_deconv")
        scans = [rng.normal(size=(3, 6, 6)) for _ in range(3)]
        wc = rng.normal(size=(4, 3, 5, 5))
        bias = rng.normal(size=4)
        for slope in (None, 0.01):
            _assert_parity(
                backend,
                dispatch("conv_batch", scans, wc, bias, 1, 2, slope,
                         backend="reference"),
                dispatch("conv_batch", scans, wc, bias, 1, 2, slope,
                         backend=backend), "conv_batch")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_quantize_ops_parity(self, rng, backend):
        w = rng.normal(size=(4, 3, 5, 5))
        q_ref, s_ref = dispatch("quantize_linear", w, 0, backend="reference")
        _assert_parity(
            backend, (q_ref, s_ref),
            dispatch("quantize_linear", w, 0, backend=backend),
            "quantize_linear")
        _assert_parity(
            backend,
            dispatch("dequantize_linear", q_ref, s_ref, np.float32,
                     backend="reference"),
            dispatch("dequantize_linear", q_ref, s_ref, np.float32,
                     backend=backend), "dequantize_linear")

    def test_fused_conv_bias_act_matches_composition(self, rng):
        x = rng.normal(size=(1, 2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        bias = rng.normal(size=3)
        conv = dispatch("conv", x, w, bias, 1, 1, want_cols=False,
                        backend="reference")[0]
        expected = np.where(conv > 0, conv, 0.01 * conv)
        for backend in known_backends():
            fused = dispatch("conv_bias_act", x, w, bias, 1, 1, 0.01,
                             backend=backend)
            _assert_parity(backend, expected, fused,
                           "conv_bias_act composition")


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    class TestParityProperty:
        """Property-based parity: random shapes/strides/kernels hold the
        ``fast`` backend's ulp tier (kernels up to 5×5 so the FFT path is
        sampled, not just the reference fallback)."""

        @given(
            n=st.integers(1, 2), c=st.integers(1, 3), f=st.integers(1, 3),
            h=st.integers(3, 11), wdt=st.integers(3, 11),
            k=st.integers(1, 5), stride=st.integers(1, 2),
            padding=st.integers(0, 2), seed=st.integers(0, 2**16),
            f32=st.booleans(),
        )
        @settings(max_examples=40, deadline=None)
        def test_conv_and_deconv_parity(self, n, c, f, h, wdt, k, stride,
                                        padding, seed, f32):
            backend = "fast"
            rng = np.random.default_rng(seed)
            dtype = np.float32 if f32 else np.float64
            x = rng.normal(size=(n, c, h, wdt)).astype(dtype)
            w = rng.normal(size=(f, c, k, k)).astype(dtype)
            if h + 2 * padding < k or wdt + 2 * padding < k:
                return
            ref = dispatch("conv", x, w, None, stride, padding,
                           want_cols=False, backend="reference")
            cand = dispatch("conv", x, w, None, stride, padding,
                            want_cols=False, backend=backend)
            _assert_parity(backend, ref[0], cand[0], "conv")
            g = ref[0]
            _assert_parity(
                backend,
                dispatch("deconv", g, w, x.shape, stride, padding,
                         backend="reference"),
                dispatch("deconv", g, w, x.shape, stride, padding,
                         backend=backend), "deconv")
except ImportError:  # pragma: no cover - hypothesis is in the dev extra
    pass


class TestTelemetry:
    def test_dispatch_records_kind_site_counts_time(self, rng):
        class Sink:
            def __init__(self):
                self.rows = []

            def record(self, kind, site, counts, time_s):
                self.rows.append((kind, site, counts, time_s))

        x = rng.normal(size=(1, 2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        sink = Sink()
        with trace_dispatches(sink):
            dispatch("conv", x, w, None, 1, 1, want_cols=False,
                     site="layer1/conv")
            dispatch("relu", x)
        assert len(sink.rows) == 2
        kind, site, counts, time_s = sink.rows[0]
        assert kind == "convolution" and site == "layer1/conv"
        assert counts.flops > 0 and counts.stores == 3 * 6 * 6
        assert time_s >= 0.0
        assert sink.rows[1][0] == "relu"
        assert sink.rows[1][1] == "relu"  # site defaults to the op name

    def test_no_sink_no_overhead_path(self, rng):
        # Outside trace_dispatches the sink is None; dispatch must not
        # record anywhere (smoke: just runs).
        x = rng.normal(size=(2, 2))
        out = dispatch("relu", x)
        assert np.array_equal(out, np.where(x > 0, x, 0.0))

    def test_kernel_kinds_cover_calibration_map(self):
        for op in known_ops():
            assert OP_KINDS[op] == REGISTRY._specs[op].kind
        for kind, op in KIND_TO_OP.items():
            assert op in OP_UNITS


class TestModuleBackend:
    def test_to_backend_propagates_and_validates(self):
        net = nn.Sequential(nn.Conv2d(1, 2, 3), nn.ReLU(),
                            nn.Sequential(nn.Conv2d(2, 1, 3)))
        assert net.backend is None
        net.to_backend("fast")
        assert all(m.backend == "fast" for m in net.modules())
        net.to_backend(None)
        assert all(m.backend is None for m in net.modules())
        with pytest.raises(ValueError, match="unknown backend"):
            net.to_backend("cuda")

    def test_model_forward_identical_across_backends(self, rng):
        from repro.models import DDnet

        model = DDnet(base_channels=4, growth=2, num_blocks=2,
                      layers_per_block=2).eval()
        x = Tensor(rng.normal(size=(1, 1, 16, 16)))
        with no_grad():
            ref = model(x).data
            model.to_backend("fast")
            fast = model(x).data
        _assert_parity("fast", ref, fast, "DDnet forward")

    def test_pipeline_backend_threads_through(self, rng):
        from repro.pipeline import ComputeCovid19Plus

        fw = ComputeCovid19Plus(backend="fast")
        assert fw.enhancement.model.backend == "fast"
        assert fw.classification.model.backend == "fast"


class TestCounters3d:
    def test_unpool_3d_per_output_costs(self):
        # Trilinear: 2^3 = 8 corner loads, 2^(3+2) - 2 = 30 FLOPs per
        # output element (the N-d generalization of Table 6's 4 / 14).
        c = unpool_counts_nd((4, 4, 4), ch=2, batch=1)
        outs = 4 * 4 * 4 * 2
        assert c.loads == 8 * outs
        assert c.stores == outs
        assert c.flops == 30 * outs


def _synthetic_calibration(rate: float = 1e-9, overhead: float = 0.0,
                           backend: str = "reference",
                           deconv_rate: float = None) -> KernelCalibration:
    coeffs = {
        op: OpCoefficients(op=op, kind=OP_KINDS[op], unit=unit,
                           seconds_per_unit=(deconv_rate
                                             if op == "deconv"
                                             and deconv_rate is not None
                                             else rate),
                           overhead_s=overhead, samples=3, backend=backend)
        for op, unit in OP_UNITS.items()
    }
    return KernelCalibration(host="test-host", backend=backend,
                             coefficients=coeffs)


class TestCalibration:
    def test_calibrate_host_fits_every_op(self):
        cal = calibrate_host(sizes=(8, 16), repeats=1, warmup=0)
        assert set(cal.coefficients) == set(OP_UNITS)
        for op, coeff in cal.coefficients.items():
            assert coeff.seconds_per_unit > 0, op
            assert coeff.overhead_s >= 0, op
            assert coeff.samples == 2
            assert coeff.unit == OP_UNITS[op]
            assert coeff.backend == "reference"
        assert cal.backend == "reference"

    @pytest.mark.parametrize("backend", ["fast"])
    def test_calibrate_host_runs_under_requested_backend(self, backend):
        cal = calibrate_host(sizes=(8,), repeats=1, warmup=0,
                             backend=backend)
        assert cal.backend == backend
        assert all(c.backend == backend for c in cal.coefficients.values())
        # And the samples were actually measured under that backend:
        # the workloads run inside use_backend, so the thread default
        # outside is untouched.
        from repro.backend.registry import get_backend
        assert get_backend() == "reference"

    def test_mixed_backend_calibration_refused(self):
        cal = _synthetic_calibration(backend="fast")
        coeffs = dict(cal.coefficients)
        coeffs["conv"] = OpCoefficients(
            op="conv", kind="convolution", unit="flops",
            seconds_per_unit=1e-9, overhead_s=0.0, samples=3,
            backend="reference")
        with pytest.raises(ValueError, match="mixed-backend"):
            KernelCalibration(host="test-host", backend="fast",
                              coefficients=coeffs)
        with pytest.raises(ValueError, match="mixed-backend"):
            KernelCalibration.from_dict(
                {"host": "h", "backend": "fast",
                 "coefficients": {op: c.to_dict()
                                  for op, c in coeffs.items()}})

    def test_coefficients_dict_defaults_backend_for_old_payloads(self):
        d = {"op": "conv", "kind": "convolution", "unit": "flops",
             "seconds_per_unit": 1e-9, "overhead_s": 0.0, "samples": 3}
        assert OpCoefficients.from_dict(d).backend == "reference"

    def test_coefficients_predict_monotone_in_work(self):
        coeff = OpCoefficients(op="conv", kind="convolution", unit="flops",
                               seconds_per_unit=1e-9, overhead_s=1e-5,
                               samples=3)
        small = OpCounts(loads=10, stores=5, flops=1000)
        big = OpCounts(loads=10, stores=5, flops=100000)
        assert coeff.predict(big) > coeff.predict(small) > 0

    def test_calibration_round_trips_through_dict(self):
        cal = _synthetic_calibration(rate=2e-9, overhead=1e-6)
        back = KernelCalibration.from_dict(cal.to_dict())
        assert back.host == cal.host and back.backend == cal.backend
        for op in cal.coefficients:
            assert back.coefficients[op] == cal.coefficients[op]

    def test_kind_time_maps_schedule_vocabulary(self):
        cal = _synthetic_calibration()
        counts = OpCounts(loads=100, stores=10, flops=1000)
        # Both deconv spellings resolve to the deconv coefficients.
        assert (cal.kind_time("deconvolution", counts)
                == cal.kind_time("deconvolution_naive", counts))
        with pytest.raises(KeyError, match="unknown kernel kind"):
            cal.kind_time("fft", counts)

    def test_group_times_cover_reference_schedule(self):
        from repro.hetero.schedule import ddnet_kernel_schedule

        cal = _synthetic_calibration()
        groups = cal.group_times(ddnet_kernel_schedule())
        assert set(groups) == {"convolution", "deconvolution", "other"}
        assert all(v > 0 for v in groups.values())


class TestCalibratedPerfModel:
    def test_ratios_preserved_absolute_rescaled(self):
        from repro.hetero import DEVICES, PerfModel

        base = PerfModel()
        cal_model = CalibratedPerfModel(_synthetic_calibration())
        p100, t4 = DEVICES["Nvidia P100 GPU"], DEVICES["Nvidia T4 GPU"]
        for part in ("convolution_s", "deconvolution_s", "other_s"):
            base_ratio = (getattr(base.predict(p100), part)
                          / getattr(base.predict(t4), part))
            cal_ratio = (getattr(cal_model.predict(p100), part)
                         / getattr(cal_model.predict(t4), part))
            assert cal_ratio == pytest.approx(base_ratio, rel=1e-12)
        # Every group scales by its correction factor exactly.
        for part, group in (("convolution_s", "convolution"),
                            ("deconvolution_s", "deconvolution"),
                            ("other_s", "other")):
            assert getattr(cal_model.predict(p100), part) == pytest.approx(
                getattr(base.predict(p100), part)
                * cal_model.corrections[group])

    def test_unknown_anchor_rejected(self):
        with pytest.raises(KeyError, match="unknown anchor"):
            CalibratedPerfModel(_synthetic_calibration(), anchor="TPU v9")

    def test_placement_flips_with_calibrated_deconv_cost(self):
        """Perf-aware placement changes when measurement disagrees with
        the analytic model.

        Analytically (Table 5) the P100 beats the T4 on a DDnet batch
        (0.249 s vs 0.292 s per chunk).  If this host's measured
        execution shows deconvolution 5x more expensive than the
        anchor's analytic split — everything else matching — the T4's
        smaller deconv share makes it the better pick, and the
        scheduler built on the calibrated model must flip to it.
        """
        from repro.hetero.device import DEVICES
        from repro.serve.batcher import Batch
        from repro.serve.scheduler import FleetScheduler, ServiceTimeModel

        fleet = [DEVICES["Nvidia P100 GPU"], DEVICES["Nvidia T4 GPU"]]
        batch = Batch(batch_id=0, stage="enhance", requests=[object()],
                      formed_s=0.0)

        analytic = FleetScheduler(fleet, policy="perf-aware",
                                  service_model=ServiceTimeModel())
        assert analytic.pick(batch, now=0.0).spec.name == "Nvidia P100 GPU"

        cal_model = CalibratedPerfModel(_synthetic_calibration())
        cal_model.corrections = {"convolution": 1.0, "deconvolution": 5.0,
                                 "other": 1.0}
        calibrated = FleetScheduler(
            fleet, policy="perf-aware",
            service_model=ServiceTimeModel(perf_model=cal_model))
        assert calibrated.pick(batch, now=0.0).spec.name == "Nvidia T4 GPU"

    def test_placement_flips_between_backend_calibrations(self):
        """Re-calibrating under ``fast`` changes perf-aware placement.

        The fast backend's FFT deconvolution collapses the measured
        deconv cost; a host whose ``reference`` calibration shows expensive
        deconvolution picks the T4 (smaller deconv share), while the
        same host re-calibrated under ``fast`` (deconv back in line
        with conv) flips the perf-aware scheduler back to the P100.
        """
        from repro.hetero.device import DEVICES
        from repro.serve.batcher import Batch
        from repro.serve.scheduler import FleetScheduler, ServiceTimeModel

        fleet = [DEVICES["Nvidia P100 GPU"], DEVICES["Nvidia T4 GPU"]]
        batch = Batch(batch_id=0, stage="enhance", requests=[object()],
                      formed_s=0.0)

        def pick(cal):
            model = CalibratedPerfModel(cal)
            sched = FleetScheduler(
                fleet, policy="perf-aware",
                service_model=ServiceTimeModel(perf_model=model))
            return sched.pick(batch, now=0.0).spec.name

        ref_cal = _synthetic_calibration(backend="reference",
                                         deconv_rate=20e-9)
        fast_cal = _synthetic_calibration(backend="fast")
        assert pick(ref_cal) == "Nvidia T4 GPU"
        assert pick(fast_cal) == "Nvidia P100 GPU"

    def test_service_time_model_calibrated_integration(self):
        from repro.serve.scheduler import STAGES, ServiceTimeModel

        cal = _synthetic_calibration()
        stm = ServiceTimeModel.calibrated(kernel_calibration=cal)
        assert isinstance(stm.perf_model, CalibratedPerfModel)
        from repro.hetero.device import DEVICES
        v100 = DEVICES["Nvidia V100 GPU"]
        for stage in STAGES:
            assert stm.batch_time(v100, stage, 1) > 0

    def test_service_time_model_calibrates_under_backend(self):
        from repro.serve.scheduler import ServiceTimeModel

        stm = ServiceTimeModel.calibrated(sizes=(8,), repeats=1, warmup=0,
                                          backend="fast")
        assert stm.perf_model.kernel_calibration.backend == "fast"


class TestKernelLint:
    def test_violation_waiver_and_allowlist(self):
        from repro.backend.lint import lint_source

        bad = "import numpy as np\ny = np.matmul(a, b)\n"
        assert len(lint_source(bad)) == 1
        waived = "import numpy as np\ny = np.matmul(a, b)  # kernel-lint: allow\n"
        assert lint_source(waived) == []
        above = ("import numpy as np\n"
                 "# kernel-lint: allow\n"
                 "y = np.matmul(a, b)\n")
        assert lint_source(above) == []
        ok = ("import numpy as np\n"
              "x = np.zeros((2, 2), dtype=np.float32)\n"
              "r = np.random.default_rng(0).normal(size=3)\n"
              "s = np.stack([x, x])\n")
        assert lint_source(ok) == []
        from_imp = "from numpy import einsum\n"
        assert len(lint_source(from_imp)) == 1

    def test_linted_tree_is_clean(self):
        from pathlib import Path

        from repro.backend.lint import lint_paths

        import repro
        src_root = Path(repro.__file__).resolve().parents[1]
        assert lint_paths(src_root) == []


class TestKernelBench:
    def test_quick_payload_schema_and_parity(self):
        from repro.backend.kernel_bench import (
            format_kernel_summary,
            run_kernel_bench,
        )

        payload = run_kernel_bench(quick=True, repeats=1, size=12,
                                   with_calibration=False,
                                   with_precision=False)
        assert payload["bench"] == "kernels" and payload["schema"] == 3
        assert payload["backends"] == ["reference", "fast"]
        assert set(payload["ops"]) == set(known_ops())
        assert payload["parity_ok"] is True and payload["gate_ok"] is True
        for op, entry in payload["ops"].items():
            for backend in payload["backends"]:
                assert entry[backend]["median_s"] >= 0
                if backend != "reference":
                    parity = entry["parity"][backend]
                    assert parity["ok"] is True, (op, backend)
                    assert parity["tier"] == "ulp"
            assert set(entry["speedups"]) == {"fast"}
            assert payload["speedup_matrix"][op] == entry["speedups"]
        assert payload["host"]["cpu_count"] >= 1
        summary = format_kernel_summary(payload)
        assert "parity_ok=True" in summary and "gate_ok=True" in summary

    def test_backend_selection_and_validation(self):
        from repro.backend.kernel_bench import run_kernel_bench

        payload = run_kernel_bench(quick=True, repeats=1, size=12,
                                   with_calibration=False,
                                   with_precision=False,
                                   backends=["reference"])
        # The baseline is benched once; fast is left out.
        assert payload["backends"] == ["reference"]
        for entry in payload["ops"].values():
            assert "fast" not in entry and entry["speedups"] == {}
        with pytest.raises(ValueError, match="unknown backends"):
            run_kernel_bench(quick=True, backends=["cuda"])

    def test_payload_embeds_per_backend_calibrations(self):
        from repro.backend.kernel_bench import run_kernel_bench

        payload = run_kernel_bench(quick=True, repeats=1, size=12,
                                   with_calibration=True,
                                   with_precision=False,
                                   backends=["fast"])
        assert set(payload["calibrations"]) == {"reference", "fast"}
        for backend, blob in payload["calibrations"].items():
            cal = KernelCalibration.from_dict(blob)
            assert cal.backend == backend
            assert set(cal.coefficients) == set(OP_UNITS)

    def test_precision_arm_meets_floors(self):
        from repro.backend.kernel_bench import run_kernel_bench

        payload = run_kernel_bench(quick=True, repeats=1, size=12,
                                   with_calibration=False,
                                   with_precision=True,
                                   backends=["fast"])
        arm = payload["precision"]
        assert set(arm["modes"]) == {"int8"}
        m = arm["modes"]["int8"]
        assert m["ok"] is True, m["metrics"]
        assert set(m["floor_checks"]) == {"ms_ssim", "psnr_db"}
        assert m["quantized_params"] > 0
        assert payload["precision_ok"] is True and payload["gate_ok"] is True
