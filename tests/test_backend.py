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
    calling_module,
    dispatch,
    get_backend,
    known_backends,
    known_ops,
    set_default_backend,
    trace_dispatches,
    use_backend,
)
from repro.tensor import Tensor, no_grad

ALL_OPS = (
    "avgpool", "batchnorm", "conv", "conv_weight_grad", "deconv",
    "leaky_relu", "maxpool", "relu", "unpool", "unpool_deconv",
)

ALL_BACKENDS = ("fast", "reference")

OP_KINDS = {
    "conv": "convolution", "deconv": "deconvolution",
    "conv_weight_grad": "convolution", "unpool_deconv": "deconvolution",
    "maxpool": "pooling", "avgpool": "pooling", "unpool": "unpooling",
    "leaky_relu": "leaky_relu", "relu": "relu", "batchnorm": "batchnorm",
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
        with no_grad():   # under autograd fast's deconv is reference's
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
            # Under no_grad, as inference runs: autograd sends every
            # deconvolution to reference.
            with no_grad():
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

    def test_gather_deconv_counts_are_the_equivalent_conv(self, rng):
        """Table 6: a stride-1 gather deconv is counted as the stride-1
        conv it runs — output x, F input channels, the same kernel."""
        from repro.backend.counters import conv_counts_nd

        class Sink:
            def __init__(self):
                self.counts = []

            def record(self, kind, site, counts, time_s):
                self.counts.append(counts)

        g = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(3, 5, 5, 5))  # F = 3 <= C = 5: the gather
        x_shape = (2, 5, 8, 8)
        gp = np.pad(g, [(0, 0), (0, 0), (2, 2), (2, 2)])
        sink = Sink()
        with trace_dispatches(sink):
            dispatch("deconv", g, w, x_shape, 1, 2, backend="reference")
            dispatch("conv", gp, w[:, :, ::-1, ::-1].swapaxes(0, 1), None, 1, 0,
                     want_cols=False, backend="reference")
        deconv, conv = sink.counts
        assert deconv == conv == conv_counts_nd((8, 8), 5, 3, (5, 5), batch=2)

    def test_no_sink_no_overhead_path(self, rng):
        # Outside trace_dispatches the sink is None; dispatch must not
        # record anywhere (smoke: just runs).
        x = rng.normal(size=(2, 2))
        out = dispatch("relu", x)
        assert np.array_equal(out, np.where(x > 0, x, 0.0))

    def test_module_call_records_the_calling_module_only_under_a_sink(self, rng):
        # While a sink listens, a dispatch can ask which module's call
        # it ran in: the innermost one, restored on return and on raise.
        # Without a sink nothing is recorded; the sink's ``site`` stays
        # the op name either way.
        from repro.tensor import functional as F

        seen = []

        class Probe(nn.Module):
            def __init__(self, fail=False):
                super().__init__()
                self.fail = fail

            def forward(self, x):
                seen.append(calling_module())
                out = F.relu(x)
                if self.fail:
                    raise RuntimeError("forward failed")
                return out

        class Outer(nn.Module):
            def __init__(self, inner):
                super().__init__()
                self.inner = inner

            def forward(self, x):
                out = self.inner(x)
                seen.append(calling_module())
                return out

        class Sink:
            def __init__(self):
                self.rows = []

            def record(self, kind, site, counts, time_s):
                self.rows.append((site, calling_module()))

        x = Tensor(rng.normal(size=(1, 1, 4, 4)))
        net = Outer(Probe())
        net(x)
        assert seen == [None, None]
        assert calling_module() is None
        seen.clear()
        sink = Sink()
        with trace_dispatches(sink):
            net(x)
            assert seen == [net.inner, net]
            assert sink.rows == [("relu", net.inner)]
            assert calling_module() is None
            with pytest.raises(RuntimeError, match="forward failed"):
                Outer(Probe(fail=True))(x)
            assert calling_module() is None

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

    def test_call_scopes_forward_and_backward_keeps_it(self, rng, monkeypatch):
        # ``F.*`` in a forward runs on the module's backend, the thread's
        # backend is restored on return, and ``loss.backward()`` (outside
        # every module scope) dispatches on the backend its forward ran on.
        from repro.tensor import functional as F

        class Net(nn.Module):
            def __init__(self):
                super().__init__()
                self.w = nn.Parameter(rng.normal(size=(2, 1, 3, 3)))

            def forward(self, x):
                return F.leaky_relu(F.conv2d(x, self.w, padding=1))

        seen = _record_dispatches(monkeypatch)
        net = Net().to_backend("fast")
        with use_backend("reference"):
            out = net(Tensor(rng.normal(size=(1, 1, 6, 6)), requires_grad=True))
            assert get_backend() == "reference"
        out.sum().backward()
        assert [(op, b) for op, b, _ in seen] == [
            ("conv", "fast"), ("leaky_relu", "fast"),
            ("deconv", "fast"), ("conv_weight_grad", "fast")]


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
        from repro.hetero.perfmodel import DDNET_16X16, ddnet_totals

        cal = _synthetic_calibration(overhead=1e-6)
        launches = {kind: n for kind, (n, _) in DDNET_16X16.items()}
        groups = cal.group_times(launches, ddnet_totals(512, 32))
        assert set(groups) == {"convolution", "deconvolution", "other"}
        assert all(v > 0 for v in groups.values())
        # Launches share the work; each pays its op's overhead once.
        a = OpCounts(loads=100, stores=10, flops=1000)
        b = OpCounts(loads=300, stores=30, flops=5000)
        two = cal.group_times({"convolution": 2, "pooling": 2},
                              {"convolution": a + b, "pooling": a + b})
        assert two["convolution"] == pytest.approx(
            cal.kind_time("convolution", a) + cal.kind_time("convolution", b), rel=1e-12)
        assert two["other"] == pytest.approx(
            cal.kind_time("pooling", a) + cal.kind_time("pooling", b), rel=1e-12)
        assert two["deconvolution"] == 0.0


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


class TestSharedScheduleTotals:
    """``predict_batch`` reads per-shape DDnet totals built once per
    process; it must still agree bit for bit with pricing the same
    counts through ``predict``, and no caller can change what it
    shares."""

    @pytest.fixture(params=["analytic", "calibrated"])
    def model(self, request):
        from repro.hetero import PerfModel

        if request.param == "analytic":
            return PerfModel()
        cal_model = CalibratedPerfModel(_synthetic_calibration())
        cal_model.corrections = {"convolution": 1.5, "deconvolution": 5.0,
                                 "other": 0.75}
        return cal_model

    def test_predict_batch_matches_predict_on_the_schedule(self, model):
        from repro.hetero import DEVICES
        from repro.hetero.optimizations import OptimizationConfig
        from repro.hetero.perfmodel import ddnet_totals

        slices = 4
        for device in DEVICES.values():
            cfg = (OptimizationConfig.fpga_full()
                   if device.device_type == "fpga" else None)
            for input_size in (64, 512):
                one_slice = ddnet_totals(input_size, 1)
                for b in (1, 3, 8):
                    got = model.predict_batch(device, b, cfg, input_size, slices)
                    want = model.predict(device, cfg, totals={
                        k: c.scaled(b * slices) for k, c in one_slice.items()})
                    assert got == want, (device.name, input_size, b)

    def test_callers_cannot_change_the_next_prediction(self, model):
        from dataclasses import FrozenInstanceError

        from repro.hetero import NVIDIA_T4
        from repro.hetero.perfmodel import ddnet_totals

        first = model.predict_batch(NVIDIA_T4, 2, input_size=64)
        want = (first.convolution_s, first.deconvolution_s, first.other_s)
        first.convolution_s = first.deconvolution_s = first.other_s = 0.0
        totals = ddnet_totals(64, 64)
        with pytest.raises(TypeError):
            totals["convolution"] = OpCounts()
        with pytest.raises(FrozenInstanceError):
            totals["convolution"].flops = 0
        again = model.predict_batch(NVIDIA_T4, 2, input_size=64)
        assert (again.convolution_s, again.deconvolution_s,
                again.other_s) == want


class TestKernelLint:
    def test_backend_keyword_rejected(self):
        # Model and layer code leaves backend selection to Module.__call__.
        from repro.backend.lint import lint_source

        bad = ("from repro.tensor import functional as F\n"
               "def forward(self, x):\n"
               "    return F.conv3d(x, self.w, backend=self.backend)\n")
        violations = lint_source(bad, "repro/models/m.py")
        assert len(violations) == 1 and "`backend=`" in str(violations[0])
        assert lint_source("y = net.to_backend('fast')\n") == []

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
                                   with_calibration=False)
        assert payload["bench"] == "kernels" and payload["schema"] == 7
        assert payload["backends"] == ["reference", "fast"]
        extra = {"maxpool_inference": "maxpool", "conv_pointwise": "conv",
                 "conv_stem": "conv"}
        assert set(payload["ops"]) == set(known_ops()) | set(extra)
        assert {op: e["params"]["op"] for op, e in payload["ops"].items()} == {
            **{op: op for op in known_ops()}, **extra}
        # The two conv shapes fast routes off the FFT, at DDnet's sizes.
        assert payload["ops"]["conv_pointwise"]["params"]["weight"] == [64, 64, 1, 1]
        assert payload["ops"]["conv_stem"]["params"]["input"] == [8, 1, 64, 64]
        # The training pool and the pool every diagnosis takes.
        assert payload["ops"]["maxpool"]["params"]["want_indices"] is True
        inference = payload["ops"]["maxpool_inference"]["params"]
        assert inference["want_indices"] is False and inference["window"] == [3, 2, 1]
        assert payload["parity_ok"] is True
        assert not {"precision", "precision_ok", "gate_ok"} & set(payload)
        for op, entry in payload["ops"].items():
            for backend in payload["backends"]:
                assert entry[backend]["median_s"] >= 0
                if backend != "reference":
                    parity = entry["parity"][backend]
                    assert parity["ok"] is True, (op, backend)
                    assert parity["tier"] == "ulp"
            assert set(entry["speedups"]) == {"fast"}
            lo, hi = entry["speedup_spread"]["fast"]
            assert lo <= entry["speedups"]["fast"] <= hi
            assert payload["speedup_matrix"][op] == entry["speedups"]
        assert payload["host"]["cpu_count"] >= 1
        summary = format_kernel_summary(payload)
        assert "parity_ok=True" in summary

    def test_backend_selection_and_validation(self):
        from repro.backend.kernel_bench import run_kernel_bench

        payload = run_kernel_bench(quick=True, repeats=1, size=12,
                                   with_calibration=False,
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
                                   backends=["fast"])
        assert set(payload["calibrations"]) == {"reference", "fast"}
        for backend, blob in payload["calibrations"].items():
            cal = KernelCalibration.from_dict(blob)
            assert cal.backend == backend
            assert set(cal.coefficients) == set(OP_UNITS)


def _record_dispatches(monkeypatch):
    """Record ``(op, backend, float dtypes of its arrays)`` per dispatch."""
    seen = []
    resolve = REGISTRY.resolve

    def recording_resolve(op, backend):
        spec, fn = resolve(op, backend)

        def run(*args, **kwargs):
            arrays = [a for a in (*args, *kwargs.values())
                      if isinstance(a, np.ndarray) and a.dtype.kind == "f"]
            seen.append((op, backend, {a.dtype for a in arrays}))
            return fn(*args, **kwargs)

        return spec, run

    monkeypatch.setattr(REGISTRY, "resolve", recording_resolve)
    return seen


class _SiteSink:
    """Dispatch sink that keeps only the site of every dispatch."""

    def __init__(self):
        self.sites = set()

    def record(self, kind, site, counts, time_s):
        self.sites.add(site)


class TestEveryOpHasACaller:
    def test_models_dispatch_exactly_the_registered_ops(self, rng):
        # A registered op that no model dispatches is dead code with a
        # parity grid and a bench workload to maintain: the pipeline, a
        # training step and the fused decoder pair must between them
        # reach every op, and nothing outside the registry.
        from repro.data.datasets import EnhancementDataset
        from repro.data.phantom3d import chest_volume
        from repro.models.ahnet import AHNet3D
        from repro.models.ddnet import DDnet
        from repro.models.densenet3d import DenseNet3D
        from repro.pipeline import (
            ClassificationAI,
            ComputeCovid19Plus,
            EnhancementAI,
            SegmentationAI,
        )

        def tiny_ddnet(**kwargs):
            return DDnet(base_channels=2, growth=2, num_blocks=2,
                         layers_per_block=1, rng=np.random.default_rng(0),
                         **kwargs)

        # Two MS-SSIM scales: the loss's downsampling is the avgpool caller.
        enhancer = EnhancementAI(model=tiny_ddnet(), msssim_levels=2,
                                 msssim_window=5)
        framework = ComputeCovid19Plus(
            enhancement=enhancer,
            segmentation=SegmentationAI("ahnet", AHNet3D(base=2, rng=rng)),
            classification=ClassificationAI(DenseNet3D(
                block_layers=(1, 1, 1, 1), growth=2, init_features=2,
                rng=rng)),
        )
        scan = chest_volume(16, 16, covid=True, rng=rng)
        pairs = rng.uniform(0.0, 1.0, (2, 1, 16, 16))
        sink = _SiteSink()
        with trace_dispatches(sink):
            for backend in ("reference", "fast"):
                framework.to_backend(backend)
                framework.diagnose(scan)
            framework.to_backend(None)
            # The framework cast DDnet to float32; training runs in float64.
            enhancer.to_dtype(np.float64)
            enhancer.train(EnhancementDataset(pairs[:1], pairs[1:]), epochs=1)
            with no_grad():
                tiny_ddnet(global_shortcuts=False)(Tensor(pairs[:1]))
        assert sink.sites == set(known_ops())

    def test_fast_float32_diagnosis_runs_every_op_on_fast_at_float32(
            self, rng, monkeypatch):
        # A layer whose op drops its module's backend, or a stage input
        # built at float64, shows up here as a dispatch that resolves off
        # ``fast`` or receives a float64 array.
        from repro.data.phantom3d import chest_volume
        from repro.models.ahnet import AHNet3D
        from repro.models.ddnet import DDnet
        from repro.models.densenet3d import DenseNet3D
        from repro.pipeline import (
            ClassificationAI,
            ComputeCovid19Plus,
            EnhancementAI,
            SegmentationAI,
        )

        framework = ComputeCovid19Plus(
            enhancement=EnhancementAI(model=DDnet(
                base_channels=2, growth=2, num_blocks=2, layers_per_block=1,
                rng=rng)),
            segmentation=SegmentationAI("ahnet", AHNet3D(base=2, rng=rng)),
            classification=ClassificationAI(DenseNet3D(
                block_layers=(1, 1, 1, 1), growth=2, init_features=2,
                rng=rng)),
            backend="fast",
        )
        scan = chest_volume(16, 16, covid=True, rng=rng)
        seen = _record_dispatches(monkeypatch)
        framework.diagnose(scan)
        assert {op for op, _, _ in seen} >= {"conv", "leaky_relu", "batchnorm"}
        assert [(op, b) for op, b, _ in seen if b != "fast"] == []
        assert [op for op, _, dtypes in seen
                if dtypes != {np.dtype(np.float32)}] == []

    def test_moco_embed_runs_every_op_on_the_encoder_backend(
            self, rng, monkeypatch):
        # ``Classifier2D.features`` is an entry point besides ``forward``:
        # MoCo embeds through it, so the encoder's own pooling and
        # activation calls must resolve on the encoder's backend too.
        from repro.models import Classifier2D
        from repro.models.moco import MoCoLite

        moco = MoCoLite(encoder=Classifier2D(base=4, growth=4, rng=rng))
        moco.encoder_q.to_backend("fast")
        seen = _record_dispatches(monkeypatch)
        moco.embed(rng.uniform(0.0, 1.0, (2, 1, 16, 16)))
        assert {op for op, _, _ in seen} >= {"conv", "maxpool", "leaky_relu"}
        assert [(op, b) for op, b, _ in seen if b != "fast"] == []
