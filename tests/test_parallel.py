"""Tests for repro.parallel: chunking, shm transport, seeding, and the
bit-identical serial/parallel contract on every wired hot path."""

import numpy as np
import pytest

from repro.backend.precision import allclose_ulp
from repro.ct.fbp import ramp_filter_1d
from repro.ct.geometry import paper_geometry
from repro.data import chest_volume, make_enhancement_pairs
from repro.data.preparation import (
    add_circular_boundary,
    prepare_scan,
    simulate_dose_fraction_volume,
    simulate_low_dose_volume,
)
from repro.parallel import (
    chunk_indices,
    derive_item_seeds,
    parallel_map,
    resolve_workers,
    run_hotpath_bench,
    shm_scope,
    spawn_rngs,
    spawn_seeds,
)
from repro.pipeline import ComputeCovid19Plus
from repro.telemetry import EventBus, spans_from_events

WORKER_COUNTS = (1, 2, 4)


def _square(x):
    return x * x


def _volumes(n=3, size=16, num_slices=16):
    return [
        chest_volume(size, num_slices, covid=bool(i % 2),
                     rng=np.random.default_rng(40 + i))
        for i in range(n)
    ]


class TestChunkIndices:
    def test_concatenation_is_range(self):
        for n in (0, 1, 5, 16, 17):
            for k in (1, 2, 3, 8, 32):
                ranges = chunk_indices(n, k)
                assert [i for r in ranges for i in r] == list(range(n))

    def test_balanced_and_nonempty(self):
        ranges = chunk_indices(10, 4)
        sizes = [len(r) for r in ranges]
        assert sizes == [3, 3, 2, 2]
        assert all(sizes)

    def test_more_chunks_than_items(self):
        assert [len(r) for r in chunk_indices(2, 8)] == [1, 1]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            chunk_indices(-1, 2)
        with pytest.raises(ValueError):
            chunk_indices(4, 0)


class TestResolveWorkers:
    def test_none_means_all_cores(self):
        assert resolve_workers(None) >= 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_workers(0)


class TestSeeding:
    def test_spawn_seeds_deterministic(self):
        a = spawn_seeds(7, 5)
        b = spawn_seeds(7, 5)
        for sa, sb in zip(a, b):
            assert sa.generate_state(4).tolist() == sb.generate_state(4).tolist()

    def test_spawn_rngs_independent_streams(self):
        draws = [r.random(3) for r in spawn_rngs(0, 4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.allclose(draws[i], draws[j])

    def test_derive_item_seeds_matches_serial_loop(self):
        seeds = derive_item_seeds(np.random.default_rng(9), 6)
        rng = np.random.default_rng(9)
        assert seeds == [int(rng.integers(0, 2**31)) for _ in range(6)]


class TestShmArray:
    def test_round_trip(self):
        data = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        with shm_scope() as scope:
            handle = scope.share(data)
            np.testing.assert_array_equal(handle.asarray(), data)
            handle.asarray()[0, 0, 0] = -1.0
            assert handle.copy()[0, 0, 0] == -1.0

    def test_pickle_carries_handle_not_data(self):
        import pickle

        with shm_scope() as scope:
            handle = scope.share(np.zeros((64, 64)))
            blob = pickle.dumps(handle)
            assert len(blob) < 1024  # handle only, never the 32 KiB payload
            clone = pickle.loads(blob)
            clone.asarray()[5, 5] = 3.0
            assert handle.asarray()[5, 5] == 3.0
            clone.close()

    def test_scope_unlinks_on_exit(self):
        with shm_scope() as scope:
            handle = scope.create((4,), np.float64)
            name = handle.name
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestParallelMap:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_order_preserved(self, workers):
        items = list(range(11))
        assert parallel_map(_square, items, workers=workers) == [i * i for i in items]

    def test_empty_and_singleton(self):
        assert parallel_map(_square, [], workers=4) == []
        assert parallel_map(_square, [3], workers=4) == [9]

    @pytest.mark.parametrize("workers", (1, 2))
    def test_emits_chunk_spans(self, workers):
        bus = EventBus()
        parallel_map(_square, list(range(8)), workers=workers, bus=bus)
        spans = spans_from_events(bus.events)
        chunk_spans = [s for s in spans if s.name == "parallel_chunk"]
        wrapper = [s for s in spans if s.name == "parallel_map"]
        assert len(wrapper) == 1
        assert wrapper[0].attrs["items"] == 8
        assert sum(s.attrs["chunk_size"] for s in chunk_spans) == 8
        assert all(s.attrs["workers"] == workers for s in chunk_spans)

    def test_shared_memory_writes_visible(self):
        from functools import partial

        from tests._parallel_helpers import write_index

        with shm_scope() as scope:
            out = scope.create((8,), np.float64)
            parallel_map(partial(write_index, out=out), range(8), workers=2)
            np.testing.assert_array_equal(out.copy(), np.arange(8.0))


class TestDatasetSimulationParity:
    @pytest.mark.parametrize("physics", (False, True))
    def test_bit_identical_across_worker_counts(self, physics):
        ref = make_enhancement_pairs(4, size=16, physics=physics,
                                     rng=np.random.default_rng(7), workers=1)
        for w in WORKER_COUNTS[1:]:
            lows, fulls = make_enhancement_pairs(
                4, size=16, physics=physics,
                rng=np.random.default_rng(7), workers=w)
            np.testing.assert_array_equal(ref[0], lows)
            np.testing.assert_array_equal(ref[1], fulls)

    def test_simulate_low_dose_volume_parity(self):
        volume = np.clip(chest_volume(16, 4, rng=np.random.default_rng(2)),
                         0, None) / 10000.0
        geometry = paper_geometry(scale=0.05)
        ref = simulate_low_dose_volume(volume, geometry, seed=5, workers=1)
        for w in WORKER_COUNTS[1:]:
            full, low = simulate_low_dose_volume(volume, geometry, seed=5, workers=w)
            np.testing.assert_array_equal(ref[0], full)
            np.testing.assert_array_equal(ref[1], low)
        assert not np.array_equal(ref[0], ref[1])  # noise actually applied

    def test_simulate_dose_fraction_volume_parity(self):
        volume = np.clip(chest_volume(16, 3, rng=np.random.default_rng(8)),
                         0, None) / 10000.0
        geometry = paper_geometry(scale=0.05)
        ref = simulate_dose_fraction_volume(volume, geometry, seed=1, workers=1)
        full, frac = simulate_dose_fraction_volume(volume, geometry, seed=1,
                                                   workers=4)
        np.testing.assert_array_equal(ref[0], full)
        np.testing.assert_array_equal(ref[1], frac)
        # the fractional-dose arm is strictly noisier than the full-dose arm
        assert frac.std() != full.std()

    def test_simulate_low_dose_volume_validates_shape(self):
        geometry = paper_geometry(scale=0.05)
        with pytest.raises(ValueError):
            simulate_low_dose_volume(np.zeros((16, 16)), geometry)
        with pytest.raises(ValueError):
            simulate_low_dose_volume(np.zeros((2, 16, 8)), geometry)

    def test_prepare_scan_parity(self):
        rng = np.random.default_rng(3)
        volume = np.stack([
            add_circular_boundary(rng.normal(0, 200, size=(24, 24)))
            for _ in range(6)
        ])
        ref = prepare_scan(volume, min_slices=1, workers=1)
        for w in WORKER_COUNTS[1:]:
            np.testing.assert_array_equal(
                ref, prepare_scan(volume, min_slices=1, workers=w))


class TestBatchInferenceParity:
    def test_score_batch_bit_identical(self):
        framework = ComputeCovid19Plus()
        volumes = _volumes()
        ref = framework.score_batch(volumes)
        for w in WORKER_COUNTS[1:]:
            np.testing.assert_array_equal(
                ref, framework.score_batch(volumes, workers=w))

    def test_diagnose_batch_parallel_matches_per_scan(self):
        framework = ComputeCovid19Plus()
        volumes = _volumes()
        per_scan = [framework.diagnose(v) for v in volumes]
        par = framework.diagnose_batch(volumes, workers=2)
        for a, b in zip(per_scan, par):
            assert a.probability == b.probability
            assert a.probability.dtype == b.probability.dtype
            assert a.prediction == b.prediction
            np.testing.assert_array_equal(a.segmented_volume, b.segmented_volume)
            np.testing.assert_array_equal(a.lung_mask, b.lung_mask)

    def test_diagnose_batch_parallel_close_to_stacked_serial(self):
        framework = ComputeCovid19Plus()
        volumes = _volumes()
        serial = framework.diagnose_batch(volumes)
        par = framework.diagnose_batch(volumes, workers=2)
        # Stacked and per-scan forwards hand BLAS different row counts,
        # and its float32 sums then differ by a few ulps: compare at the
        # ulp tier of the probabilities' dtype, which must also match.
        assert allclose_ulp(np.array([r.probability for r in serial]),
                            np.array([r.probability for r in par]))

    def test_fanout_emits_spans_on_shared_bus(self):
        framework = ComputeCovid19Plus()
        bus = EventBus()
        framework.score_batch(_volumes(2), workers=2, bus=bus)
        spans = spans_from_events(bus.events)
        assert any(s.name == "parallel_map" and s.source == "repro.pipeline.batch"
                   for s in spans)


class TestNoGradConvFastPath:
    def test_no_grad_conv_records_no_parents(self):
        from repro.tensor import no_grad
        from repro.tensor.ops_conv import conv_nd
        from repro.tensor.tensor import Tensor

        x = Tensor(np.random.default_rng(0).normal(size=(1, 2, 8, 8)))
        w = Tensor(np.random.default_rng(1).normal(size=(3, 2, 3, 3)),
                   requires_grad=True)
        with no_grad():
            out = conv_nd(x, w)
        assert out._parents == ()
        assert not out.requires_grad

    def test_forward_drops_im2col_buffer_when_unwanted(self):
        from repro.tensor.ops_conv import conv_nd_forward

        x = np.random.default_rng(0).normal(size=(1, 2, 8, 8))
        w = np.random.default_rng(1).normal(size=(3, 2, 3, 3))
        out_keep, cols, _ = conv_nd_forward(x, w, None, 1, 0, want_cols=True)
        out_drop, dropped, _ = conv_nd_forward(x, w, None, 1, 0, want_cols=False)
        assert cols is not None and dropped is None
        np.testing.assert_array_equal(out_keep, out_drop)

    def test_grad_path_still_produces_weight_grads(self):
        from repro.tensor.ops_conv import conv_nd
        from repro.tensor.tensor import Tensor

        x = Tensor(np.random.default_rng(0).normal(size=(1, 2, 6, 6)))
        w = Tensor(np.random.default_rng(1).normal(size=(2, 2, 3, 3)),
                   requires_grad=True)
        conv_nd(x, w).sum().backward()
        assert w.grad is not None and np.any(w.grad)


class TestFloat32FastPath:
    def test_state_dict_round_trip_preserves_float32(self):
        from repro.models import DenseNet3D

        model = DenseNet3D(block_layers=(1, 1, 1, 1), growth=4, init_features=4,
                           rng=np.random.default_rng(0))
        model.to_dtype(np.float32)
        state = model.state_dict()
        clone = DenseNet3D(block_layers=(1, 1, 1, 1), growth=4, init_features=4,
                           rng=np.random.default_rng(1))
        clone.load_state_dict(state)
        assert clone.dtype == np.float32
        for name, p in clone.named_parameters():
            assert p.data.dtype == np.float32, name

    def test_float32_probability_close_to_float64(self):
        from repro.pipeline import ClassificationAI, EnhancementAI

        volume = chest_volume(16, 16, rng=np.random.default_rng(4))
        enhancement, classification = EnhancementAI(), ClassificationAI()
        weights = [t.model.state_dict() for t in (enhancement, classification)]
        framework = ComputeCovid19Plus(enhancement=enhancement,
                                       classification=classification)
        # Back to the float64 weights the constructor rounded to float32.
        for tool, state in zip((enhancement, classification), weights):
            tool.model.load_state_dict(state)
        p64 = framework.diagnose(volume).probability
        framework.to_dtype(np.float32)
        p32 = framework.diagnose(volume).probability
        assert (p64.dtype, p32.dtype) == (np.float64, np.float32)
        assert abs(p64 - p32) < 1e-4

    def test_to_dtype_rejects_non_float(self):
        from repro.models import DenseNet3D

        model = DenseNet3D(block_layers=(1, 1, 1, 1), growth=4, init_features=4)
        with pytest.raises(TypeError):
            model.to_dtype(np.int32)


class TestRampFilterCache:
    def test_cached_calls_return_same_object(self):
        a = ramp_filter_1d(32, 1.0, "hann")
        b = ramp_filter_1d(32, 1.0, "hann")
        assert a is b
        assert not a.flags.writeable

    def test_distinct_keys_distinct_filters(self):
        assert not np.array_equal(ramp_filter_1d(32, 1.0, "hann"),
                                  ramp_filter_1d(32, 1.0, "ramp"))


class TestHotpathBench:
    def test_quick_bench_schema_and_parity(self):
        payload = run_hotpath_bench(quick=True, workers=(1, 2), repeats=1)
        assert payload["parity_ok"]
        assert payload["host"]["cpu_count"] >= 1
        sim = payload["paths"]["dataset_simulation"]
        assert sim["workers"]["2"]["bit_identical_to_serial"]
        assert sim["serial"]["median_s"] > 0
        fp32 = payload["paths"]["float32_inference"]
        assert fp32["prob_delta"] < 1e-4
