"""Property-based tests (hypothesis) on core invariants across modules."""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.backend.counters import OpCounts, conv_counts, pool_counts
from repro.ct import hu_to_mu, mu_to_hu, siddon_raycast
from repro.ct.geometry import ParallelBeamGeometry
from repro.metrics import ConfusionMatrix, auc_roc, confusion_matrix, mse, psnr
from repro.nn.data import DistributedSampler, TensorDataset
from repro.serve.metrics import LatencyStats
from repro.telemetry import percentile
from repro.tensor import Tensor, functional as F

finite = st.floats(-1e3, 1e3, allow_nan=False)


class TestTensorProperties:
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 5)),
                      elements=finite))
    def test_add_zero_identity(self, arr):
        out = Tensor(arr) + Tensor(np.zeros_like(arr))
        assert np.array_equal(out.data, arr)

    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 5)),
                      elements=finite))
    def test_mul_distributes_over_add(self, arr):
        a, b = Tensor(arr), Tensor(arr[::-1].copy().reshape(arr.shape))
        lhs = (a + b) * 2.0
        rhs = a * 2.0 + b * 2.0
        assert np.allclose(lhs.data, rhs.data)

    @given(hnp.arrays(np.float64, st.tuples(st.integers(2, 6), st.integers(2, 6)),
                      elements=finite))
    def test_softmax_invariant_to_shift(self, arr):
        a = F.softmax(Tensor(arr), axis=1)
        b = F.softmax(Tensor(arr + 100.0), axis=1)
        assert np.allclose(a.data, b.data, atol=1e-10)

    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 3),
                                            st.integers(4, 8), st.integers(4, 8)),
                      elements=finite))
    def test_conv_with_identity_kernel(self, arr):
        """1×1 kernel of ones over one channel reproduces channel sums."""
        x = Tensor(arr)
        c = arr.shape[1]
        w = Tensor(np.ones((1, c, 1, 1)))
        out = F.conv2d(x, w)
        assert np.allclose(out.data[:, 0], arr.sum(axis=1))

    @given(st.integers(1, 4), st.integers(2, 5))
    def test_upsample_then_avgpool_identity_on_constants(self, c, n):
        x = Tensor(np.full((1, c, n, n), 2.5))
        up = F.upsample_bilinear(x, 2)
        down = F.avg_pool_nd(up, 2, 2)
        assert np.allclose(down.data, 2.5)


class TestCTProperties:
    @given(hnp.arrays(np.float64, st.tuples(st.integers(4, 10), st.integers(4, 10)),
                      elements=st.floats(0, 1)))
    def test_siddon_superposition(self, img):
        """A(x + y) = A(x) + A(y): the projector is linear."""
        other = np.roll(img, 1, axis=0)
        starts = np.array([[-50.0, 0.3], [-50.0, -1.7]])
        ends = np.array([[50.0, 0.4], [50.0, 2.2]])
        lhs = siddon_raycast(img + other, starts, ends)
        rhs = siddon_raycast(img, starts, ends) + siddon_raycast(other, starts, ends)
        assert np.allclose(lhs, rhs, rtol=1e-9)

    @given(st.floats(-1000, 2000))
    def test_hu_mu_roundtrip(self, hu):
        assume(hu >= -1000)  # hu_to_mu floors at zero attenuation
        back = mu_to_hu(hu_to_mu(np.array([hu])))[0]
        assert np.isclose(back, hu, atol=1e-8)

    @given(st.integers(4, 60), st.integers(3, 41))
    def test_geometry_angles_evenly_spaced(self, views, dets):
        g = ParallelBeamGeometry(num_views=views, num_detectors=dets)
        diffs = np.diff(g.angles)
        assert np.allclose(diffs, diffs[0])

    @given(hnp.arrays(np.float64, st.tuples(st.integers(2, 6), st.integers(2, 6)),
                      elements=st.floats(0, 1)))
    def test_mse_nonnegative_and_symmetric(self, a):
        b = a[::-1].copy().reshape(a.shape)
        assert mse(a, b) >= 0.0
        assert np.isclose(mse(a, b), mse(b, a))

    @given(hnp.arrays(np.float64, st.tuples(st.integers(2, 6), st.integers(2, 6)),
                      elements=st.floats(0, 1)), st.floats(0.01, 0.3))
    def test_psnr_scaling_with_noise(self, a, eps):
        noisy_small = a + eps * 0.1
        noisy_big = a + eps
        assert psnr(a, noisy_small) >= psnr(a, noisy_big)


class TestMetricsProperties:
    @given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30), st.integers(0, 30))
    def test_confusion_rates_bounded(self, tp, fp, fn, tn):
        assume(tp + fp + fn + tn > 0)
        cm = ConfusionMatrix(tp, fp, fn, tn)
        assert 0.0 <= cm.accuracy <= 1.0
        assert 0.0 <= cm.sensitivity <= 1.0
        assert 0.0 <= cm.specificity <= 1.0
        assert np.isclose(cm.specificity + cm.fpr, 1.0) or (cm.fp + cm.tn == 0)

    @given(st.lists(st.booleans(), min_size=4, max_size=40))
    def test_confusion_from_predictions_consistent(self, bits):
        labels = np.array(bits, dtype=int)
        assume(0 < labels.sum() < len(labels))
        preds = 1 - labels  # maximally wrong
        cm = confusion_matrix(labels, preds)
        assert cm.accuracy == 0.0
        assert cm.tp == 0 and cm.tn == 0

    @given(st.integers(2, 20))
    def test_auc_of_labels_as_scores_is_one(self, n):
        labels = np.array([0, 1] * n)
        assert auc_roc(labels, labels.astype(float)) == 1.0

    @given(st.integers(2, 20), st.floats(0.1, 10.0))
    def test_auc_complement_symmetry(self, n, scale):
        rng = np.random.default_rng(n)
        labels = np.array([0, 1] * n)
        scores = rng.random(2 * n) * scale
        assert np.isclose(auc_roc(labels, scores) + auc_roc(labels, -scores), 1.0)


class TestCounterProperties:
    @given(st.integers(1, 64), st.integers(1, 64), st.integers(1, 8),
           st.integers(1, 8), st.sampled_from([1, 3, 5]))
    def test_conv_counts_scale_linearly_in_batch(self, h, w, co, ci, k):
        one = conv_counts(h, w, co, ci, k, batch=1)
        four = conv_counts(h, w, co, ci, k, batch=4)
        assert four.loads == 4 * one.loads
        assert four.stores == 4 * one.stores
        assert four.flops == 4 * one.flops

    @given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100))
    def test_opcounts_monoid(self, a, b, c):
        x = OpCounts(a, b, c)
        zero = OpCounts()
        assert x + zero == x
        assert (x + x).loads == 2 * a
        assert x.scaled(3).flops == 3 * c

    @given(st.integers(1, 32), st.integers(1, 16), st.sampled_from([2, 3]))
    def test_pool_counts_no_flops(self, size, ch, k):
        assert pool_counts(size, size, ch, k).flops == 0


class TestPercentileProperties:
    """The repo-wide nearest-rank percentile IS numpy's inverted_cdf."""

    samples = st.lists(st.floats(-1e6, 1e6, allow_nan=False,
                                 allow_infinity=False),
                       min_size=1, max_size=200)

    @given(samples, st.floats(0, 100, allow_nan=False))
    def test_matches_numpy_inverted_cdf(self, values, q):
        expected = float(np.percentile(values, q, method="inverted_cdf"))
        assert percentile(values, q) == expected

    @given(samples)
    def test_q0_and_q100_are_min_and_max(self, values):
        assert percentile(values, 0) == min(values)
        assert percentile(values, 100) == max(values)
        assert percentile(values, 0) == float(
            np.percentile(values, 0, method="inverted_cdf"))
        assert percentile(values, 100) == float(
            np.percentile(values, 100, method="inverted_cdf"))

    @given(st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
           st.floats(0, 100, allow_nan=False))
    def test_singleton_always_returns_the_element(self, x, q):
        assert percentile([x], q) == x

    @given(st.floats(-1e3, 1e3, allow_nan=False), st.integers(2, 50),
           st.floats(0, 100, allow_nan=False))
    def test_duplicates_collapse(self, x, n, q):
        assert percentile([x] * n, q) == x

    @given(samples, st.floats(0, 100, allow_nan=False))
    def test_result_is_an_observed_sample(self, values, q):
        """Nearest-rank never interpolates: the result is in the data."""
        assert percentile(values, q) in values

    def test_empty_latency_stats_pinned_to_nan(self):
        """LatencyStats.from_latencies([]) is all-NaN with count 0."""
        stats = LatencyStats.from_latencies([])
        assert stats.count == 0
        for field in ("mean_s", "p50_s", "p95_s", "p99_s", "max_s"):
            assert np.isnan(getattr(stats, field)), field


class TestSamplerProperties:
    @given(st.integers(2, 40), st.integers(1, 6))
    def test_sampler_partitions_cover(self, n, world):
        assume(world <= n)
        ds = TensorDataset(np.arange(n).reshape(n, 1))
        seen = []
        lengths = set()
        for rank in range(world):
            s = DistributedSampler(ds, world, rank, shuffle=False)
            idx = list(iter(s))
            lengths.add(len(idx))
            seen.extend(idx)
        assert len(lengths) == 1                     # equal shards
        assert set(seen) == set(range(n))            # full coverage

    @given(st.integers(2, 30), st.integers(0, 5))
    def test_sampler_deterministic_per_epoch(self, n, epoch):
        ds = TensorDataset(np.arange(n).reshape(n, 1))
        s1 = DistributedSampler(ds, 2, 0, shuffle=True, seed=9)
        s2 = DistributedSampler(ds, 2, 0, shuffle=True, seed=9)
        s1.set_epoch(epoch)
        s2.set_epoch(epoch)
        assert list(iter(s1)) == list(iter(s2))
