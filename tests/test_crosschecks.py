"""Cross-module consistency checks and late-added API tests."""

import numpy as np
import pytest

from repro.ct import paper_geometry, simulate_dose_fraction_pair
from repro.distributed import ClusterSpec, TrainingTimeModel
from repro.hetero import InferenceEngine, NVIDIA_V100, PerfModel
from repro.models import DDnet, ddnet_layer_table
from repro.tensor import Tensor, no_grad
from repro.tensor import functional as F


def disk(n=32, value=0.02):
    ys, xs = np.mgrid[0:n, 0:n]
    return np.where(np.hypot(xs - n / 2 + 0.5, ys - n / 2 + 0.5) < n * 0.3, value, 0.0)


class TestDoseFractionPair:
    def test_quarter_dose_noisier(self):
        img = disk()
        geo = paper_geometry(0.1)
        full, quarter = simulate_dose_fraction_pair(
            img, geo, full_blank_scan=5e3, dose_fraction=0.25,
            pixel_size=10.0, rng=np.random.default_rng(0),
        )
        assert np.abs(quarter - img).mean() > np.abs(full - img).mean()

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            simulate_dose_fraction_pair(disk(), paper_geometry(0.1), dose_fraction=0.0)

    def test_fraction_one_statistically_equal(self):
        img = disk()
        geo = paper_geometry(0.1)
        full, frac = simulate_dose_fraction_pair(
            img, geo, full_blank_scan=5e3, dose_fraction=1.0,
            pixel_size=10.0, rng=np.random.default_rng(1),
        )
        # Same dose: error magnitudes comparable (independent noise draws).
        e1, e2 = np.abs(full - img).mean(), np.abs(frac - img).mean()
        assert 0.5 < e1 / e2 < 2.0


class TestSymbolicTableMatchesRealShapes:
    def test_layer_table_consistent_with_forward(self):
        """The symbolic Table 2 trace must agree with real tensor shapes."""
        size = 32
        net = DDnet(rng=np.random.default_rng(0)).eval()
        rows = {r["layer"]: r["output_size"] for r in ddnet_layer_table(size, net)}

        shapes = {}
        with no_grad():
            x = Tensor(np.zeros((1, 1, size, size)))
            stem = net.stem(x)
            shapes["Convolution 1"] = stem.shape
            h = stem
            for i, (block, transition, pool) in enumerate(
                zip(net.blocks, net.transitions, net.pools)
            ):
                h = pool(h)
                shapes[f"Pooling {i + 1}"] = h.shape
                h = block(h)
                shapes[f"Dense Block {i + 1}"] = h.shape
                h = transition(h)
                shapes[f"Convolution {i + 2}"] = h.shape
        for layer, shape in shapes.items():
            expect = f"{shape[2]}x{shape[3]}x{shape[1]}"
            assert rows[layer] == expect, (layer, rows[layer], expect)


class TestMultiGpuCluster:
    def test_gpus_per_node_increase_world_size(self):
        c = ClusterSpec(num_nodes=2, gpus_per_node=4)
        assert c.world_size == 8

    def test_more_gpus_faster_at_fixed_batch(self):
        m = TrainingTimeModel()
        single = m.estimate(ClusterSpec(4, gpus_per_node=1), 16, 50)
        dual = m.estimate(ClusterSpec(4, gpus_per_node=4), 16, 50)
        assert dual.total_time_s < single.total_time_s


class TestDtypeHandling:
    def test_float32_ops_preserve_dtype(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32), dtype=np.float32)
        b = Tensor(np.ones((2, 2), dtype=np.float32), dtype=np.float32)
        assert (a + b).dtype == np.float32
        assert (a @ b).dtype == np.float32

    def test_default_promotes_to_float64(self):
        assert Tensor(np.ones(2, dtype=np.float32)).dtype == np.float64
        assert Tensor([1, 2]).dtype.kind == "i"

    def test_int_inputs_to_conv_rejected_gracefully(self):
        x = Tensor(np.ones((1, 1, 4, 4)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = F.conv2d(x, w, padding=1)
        assert out.dtype.kind == "f"


class TestEngineVsPerfModelConsistency:
    def test_trace_time_matches_model_prediction(self):
        """The engine's time for the default DDnet, less launch
        overheads, is the PerfModel's prediction for the same shape in
        every Table 5 group: one description of DDnet, priced twice."""
        from repro.hetero.perfmodel import ddnet_totals, table5_groups

        pm = PerfModel()
        _, trace = InferenceEngine(DDnet(), NVIDIA_V100, perf_model=pm).run(
            np.zeros((1, 1, 16, 16)))
        pred = pm.predict(NVIDIA_V100, totals=ddnet_totals(16, 1))
        overhead = NVIDIA_V100.launch_overhead_us * 1e-6
        per_kind = {}
        for launch in trace.launches:
            per_kind[launch["kind"]] = (per_kind.get(launch["kind"], 0.0)
                                        + launch["time_s"] - overhead)
        got = table5_groups(per_kind, 0.0)
        assert got["convolution"] == pytest.approx(pred.convolution_s, rel=1e-12)
        assert got["deconvolution"] == pytest.approx(pred.deconvolution_s, rel=1e-12)
        assert got["other"] == pytest.approx(pred.other_s, rel=1e-12)
