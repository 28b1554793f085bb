"""Tests for the three AI tools and the assembled framework."""

import numpy as np
import pytest

import repro.nn as nn
from repro.data import chest_volume, make_enhancement_pairs
from repro.data.datasets import ClassificationDataset, EnhancementDataset
from repro.models import DDnet, DenseNet3D
from repro.pipeline import (
    ClassificationAI,
    ComputeCovid19Plus,
    EnhancementAI,
    SegmentationAI,
    Trainer,
    threshold_lung_mask,
)


def tiny_ddnet(seed=0):
    return DDnet(base_channels=4, growth=4, num_blocks=2, layers_per_block=2,
                 dense_kernel=3, deconv_kernel=3, init_std=None,
                 rng=np.random.default_rng(seed))


def tiny_densenet(seed=0):
    return DenseNet3D(block_layers=(1, 1, 1, 1), growth=4, init_features=4,
                      rng=np.random.default_rng(seed))


class TestTrainer:
    def test_records_history(self, rng):
        model = nn.Sequential(nn.Linear(4, 1))
        ds = nn.TensorDataset(rng.normal(size=(8, 4)), rng.normal(size=(8, 1)))
        opt = nn.Adam(model.parameters(), lr=1e-2)
        trainer = Trainer(model, opt, nn.MSELoss())
        hist = trainer.fit(nn.DataLoader(ds, batch_size=4), epochs=3)
        assert hist.epochs == 3
        assert len(hist.lr) == 3

    def test_validation_loss_tracked(self, rng):
        model = nn.Sequential(nn.Linear(4, 1))
        ds = nn.TensorDataset(rng.normal(size=(8, 4)), rng.normal(size=(8, 1)))
        opt = nn.Adam(model.parameters(), lr=1e-2)
        hist = Trainer(model, opt, nn.MSELoss()).fit(
            nn.DataLoader(ds, batch_size=4), epochs=2, val_loader=nn.DataLoader(ds, batch_size=4)
        )
        assert len(hist.val_loss) == 2

    def test_scheduler_steps_each_epoch(self, rng):
        model = nn.Sequential(nn.Linear(2, 1))
        ds = nn.TensorDataset(rng.normal(size=(4, 2)), rng.normal(size=(4, 1)))
        opt = nn.Adam(model.parameters(), lr=1e-3)
        sched = nn.ExponentialLR(opt, gamma=0.8)
        Trainer(model, opt, nn.MSELoss(), sched).fit(nn.DataLoader(ds, batch_size=2), epochs=3)
        assert np.isclose(opt.lr, 1e-3 * 0.8**3)

    def test_zero_epochs_rejected(self, rng):
        model = nn.Sequential(nn.Linear(2, 1))
        ds = nn.TensorDataset(rng.normal(size=(2, 2)), rng.normal(size=(2, 1)))
        opt = nn.Adam(model.parameters(), lr=1e-3)
        with pytest.raises(ValueError):
            Trainer(model, opt, nn.MSELoss()).fit(nn.DataLoader(ds), epochs=0)

    def test_linear_regression_converges(self, rng):
        model = nn.Sequential(nn.Linear(3, 1))
        w_true = np.array([[1.0], [-2.0], [0.5]])
        x = rng.normal(size=(32, 3))
        y = x @ w_true
        ds = nn.TensorDataset(x, y)
        opt = nn.Adam(model.parameters(), lr=5e-2)
        hist = Trainer(model, opt, nn.MSELoss()).fit(nn.DataLoader(ds, batch_size=8), epochs=30)
        assert hist.train_loss[-1] < hist.train_loss[0] * 0.05


class TestEnhancementAI:
    def test_training_reduces_composite_loss(self, rng):
        lows, fulls = make_enhancement_pairs(6, size=16, physics=False,
                                             blank_scan=300.0, rng=rng)
        ds = EnhancementDataset(lows, fulls)
        ai = EnhancementAI(model=tiny_ddnet(), lr=3e-3, msssim_levels=1, msssim_window=5)
        hist = ai.train(ds, epochs=6, batch_size=2)
        assert hist.improved()

    def test_enhance_slice_shape_and_range(self, rng):
        ai = EnhancementAI(model=tiny_ddnet(), msssim_levels=1, msssim_window=5)
        out = ai.enhance_slice(rng.random((16, 16)))
        assert out.shape == (16, 16)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_enhance_volume_chunked(self, rng):
        ai = EnhancementAI(model=tiny_ddnet(), msssim_levels=1, msssim_window=5)
        vol = rng.random((5, 16, 16))
        out = ai.enhance_volume(vol, chunk=2)
        assert out.shape == vol.shape

    def test_shape_validation(self, rng):
        ai = EnhancementAI(model=tiny_ddnet())
        with pytest.raises(ValueError):
            ai.enhance_slice(rng.random((4, 16, 16)))
        with pytest.raises(ValueError):
            ai.enhance_volume(rng.random((16, 16)))

    def test_save_load_roundtrip(self, rng, tmp_path):
        ai = EnhancementAI(model=tiny_ddnet(1))
        path = str(tmp_path / "ddnet.npz")
        ai.save(path)
        ai2 = EnhancementAI(model=tiny_ddnet(2))
        ai2.load(path)
        x = rng.random((16, 16))
        assert np.allclose(ai.enhance_slice(x), ai2.enhance_slice(x))


class TestSegmentationAI:
    def test_threshold_mask_finds_lungs(self, rng):
        vol = chest_volume(48, 8, rng=rng)
        mask = threshold_lung_mask(vol)
        assert 0.03 < mask.mean() < 0.5
        # Everything the mask keeps must be lung-dark or a filled lesion.
        assert (vol[mask] < 200).all()

    def test_mask_excludes_exterior_air(self, rng):
        vol = chest_volume(48, 8, rng=rng)
        mask = threshold_lung_mask(vol)
        assert not mask[:, 0, :].any()      # image border is outside air
        assert not mask[:, :, 0].any()

    def test_lesions_survive_masking(self):
        vol, lesions = chest_volume(48, 8, covid=True, num_lesions=2,
                                    rng=np.random.default_rng(3), return_lesion_mask=True)
        seg = SegmentationAI()
        segmented, mask = seg.apply(vol)
        # Most lesion voxels stay in the lung field after hole filling.
        kept = (lesions & mask).sum() / lesions.sum()
        assert kept > 0.5

    def test_apply_background_is_air(self, rng):
        vol = chest_volume(32, 8, rng=rng)
        segmented, mask = SegmentationAI().apply(vol)
        assert np.all(segmented[~mask] == -1000.0)
        assert np.array_equal(segmented[mask], vol[mask])

    def test_ahnet_backend_requires_model(self):
        with pytest.raises(ValueError):
            SegmentationAI(backend="ahnet")
        with pytest.raises(ValueError):
            SegmentationAI(backend="unet")

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            threshold_lung_mask(rng.normal(size=(8, 8)))


class TestClassificationAI:
    def test_training_separates_classes(self):
        ds = ClassificationDataset.generate(4, 4, size=16, num_slices=16,
                                            rng=np.random.default_rng(0))
        ai = ClassificationAI(model=tiny_densenet(), lr=3e-3)
        hist = ai.train(ds, epochs=8, batch_size=4)
        assert hist.improved()

    def test_predict_proba_range(self, rng):
        ai = ClassificationAI(model=tiny_densenet())
        vol = chest_volume(16, 16, rng=rng)
        p = ai.predict_proba(vol)
        assert 0.0 < p < 1.0

    def test_predict_threshold(self, rng):
        ai = ClassificationAI(model=tiny_densenet())
        vol = chest_volume(16, 16, rng=rng)
        p = ai.predict_proba(vol)
        assert ai.predict(vol, threshold=p - 0.01) == 1
        assert ai.predict(vol, threshold=p + 0.01) == 0

    def test_shape_validation(self, rng):
        ai = ClassificationAI(model=tiny_densenet())
        with pytest.raises(ValueError):
            ai.predict_proba(rng.normal(size=(16, 16)))


class TestFramework:
    @pytest.fixture(scope="class")
    def framework(self):
        return ComputeCovid19Plus(
            enhancement=EnhancementAI(model=tiny_ddnet(), msssim_levels=1, msssim_window=5),
            classification=ClassificationAI(model=tiny_densenet()),
            use_enhancement=True,
        )

    def test_diagnose_returns_result(self, framework, rng):
        vol = chest_volume(16, 16, covid=True, rng=rng)
        res = framework.diagnose(vol)
        assert 0.0 <= res.probability <= 1.0
        assert res.prediction in (0, 1)
        assert res.enhanced
        assert res.lung_mask.shape == vol.shape
        assert "COVID-19" in res.label

    def test_enhancement_stage_toggles(self, rng):
        vol = chest_volume(16, 16, rng=np.random.default_rng(1))
        with_enh = ComputeCovid19Plus(
            enhancement=EnhancementAI(model=tiny_ddnet(5), msssim_levels=1, msssim_window=5),
            classification=ClassificationAI(model=tiny_densenet()),
            use_enhancement=True,
        )
        without = ComputeCovid19Plus(
            classification=with_enh.classification, use_enhancement=False,
        )
        r1, r2 = with_enh.diagnose(vol), without.diagnose(vol)
        assert r1.enhanced and not r2.enhanced

    def test_diagnose_batch_matches_diagnose(self, framework):
        vols = [chest_volume(16, 16, covid=bool(i % 2), rng=np.random.default_rng(50 + i))
                for i in range(3)]
        batch = framework.diagnose_batch(vols)
        singles = [framework.diagnose(v) for v in vols]
        assert len(batch) == 3
        for b, s in zip(batch, singles):
            assert b.probability == pytest.approx(s.probability, abs=1e-9)
            assert b.probability.dtype == s.probability.dtype == np.float32
            assert b.prediction == s.prediction
            assert b.enhanced == s.enhanced
            np.testing.assert_array_equal(b.lung_mask, s.lung_mask)

    def test_diagnose_batch_mixed_depths(self, framework):
        vols = [chest_volume(16, 16, rng=np.random.default_rng(60)),
                chest_volume(16, 32, rng=np.random.default_rng(61))]
        results = framework.diagnose_batch(vols)
        for r, v in zip(results, vols):
            assert r.segmented_volume.shape == v.shape
            assert 0.0 <= r.probability <= 1.0

    def test_diagnose_batch_validation(self, framework, rng):
        assert framework.diagnose_batch([]) == []
        with pytest.raises(ValueError):
            framework.diagnose_batch([rng.normal(size=(16, 16))])
        with pytest.raises(ValueError):
            framework.diagnose_batch([chest_volume(16, 16, rng=rng),
                                      chest_volume(32, 16, rng=rng)])

    def test_score_batch(self, framework, rng):
        vols = [chest_volume(16, 16, covid=bool(i % 2), rng=np.random.default_rng(i))
                for i in range(3)]
        scores = framework.score_batch(vols)
        assert scores.shape == (3,)

    def test_calibrate_threshold(self, framework):
        vols = [chest_volume(16, 16, covid=bool(i % 2), rng=np.random.default_rng(10 + i))
                for i in range(4)]
        labels = [i % 2 for i in range(4)]
        t = framework.calibrate_threshold(vols, labels)
        assert 0.0 <= t <= 1.0
        assert framework.threshold == t

    def test_shape_validation(self, framework, rng):
        with pytest.raises(ValueError):
            framework.diagnose(rng.normal(size=(16, 16)))

    def test_hu_roundtrip_through_enhancement(self, framework, rng):
        vol = chest_volume(16, 16, rng=rng)
        out = framework.enhance_volume_hu(vol)
        assert out.shape == vol.shape
        # Output stays within the display window used for normalization.
        assert out.min() >= -1400.0 - 1e-6
        assert out.max() <= 200.0 + 1e-6


def _seeded_stages(seed=0):
    """Tiny float64 stage tools (AH-Net segmentation), same weights per seed."""
    from repro.models.ahnet import AHNet3D

    rng = np.random.default_rng(seed)
    return dict(
        enhancement=EnhancementAI(DDnet(base_channels=4, growth=4, num_blocks=2,
                                        layers_per_block=2, rng=rng)),
        segmentation=SegmentationAI("ahnet", AHNet3D(base=2, rng=rng)),
        classification=ClassificationAI(DenseNet3D(
            block_layers=(1, 1, 1, 1), growth=4, init_features=4, rng=rng)))


def _seeded_framework(seed=0, **kwargs):
    """A tiny framework: the seeded stages, cast to float32."""
    return ComputeCovid19Plus(**_seeded_stages(seed), **kwargs)


def _float64_framework(seed=0, **kwargs):
    """The seeded framework in float64 with its weights as initialised.

    ``to_dtype(np.float64)`` after construction would only widen weights
    the constructor has already rounded to float32; loading the original
    state dicts restores the unrounded values (and their dtype).
    """
    stages = _seeded_stages(seed)
    models = (stages["enhancement"].model, stages["segmentation"].ahnet,
              stages["classification"].model)
    states = [m.state_dict() for m in models]
    framework = ComputeCovid19Plus(**stages, **kwargs)
    for model, state in zip(models, states):
        model.load_state_dict(state)
    return framework


class TestFloat32Inference:
    """The framework infers in float32; training stays float64."""

    def test_construction_casts_every_stage(self):
        framework = _seeded_framework()
        assert framework.enhancement.model.dtype == np.float32
        assert framework.segmentation.ahnet.dtype == np.float32
        assert framework.classification.model.dtype == np.float32
        assert framework.to_dtype(np.float64).classification.model.dtype == np.float64

    def test_every_path_returns_the_model_dtype(self):
        framework = _seeded_framework()
        vols = [chest_volume(16, 16, covid=bool(i % 2), rng=np.random.default_rng(70 + i))
                for i in range(2)]
        assert framework.diagnose(vols[0]).probability.dtype == np.float32
        assert framework.score_batch(vols).dtype == np.float32
        segmented = [framework.segmentation.apply(v)[0] for v in vols]
        assert framework.classification.predict_proba_batch(segmented).dtype == np.float32
        assert framework.classification.predict_proba_batch([]).dtype == np.float32
        assert framework.to_dtype(np.float64).diagnose(vols[0]).probability.dtype == np.float64

    def test_accuracy_floors_against_float64(self):
        from repro.ct.hounsfield import LUNG_WINDOW
        from repro.metrics.image import psnr

        vol = chest_volume(32, 16, covid=True, rng=np.random.default_rng(7))
        f32 = _seeded_framework(backend="fast")
        f64 = _float64_framework(backend="fast")
        assert f64.enhancement.model.dtype == f64.segmentation.ahnet.dtype == np.float64
        assert f64.classification.model.dtype == np.float64
        window = LUNG_WINDOW[1] - LUNG_WINDOW[0]
        assert psnr(f32.enhance_volume_hu(vol), f64.enhance_volume_hu(vol),
                    data_range=window) >= 100.0
        r32, r64 = f32.diagnose(vol), f64.diagnose(vol)
        assert abs(r32.probability - r64.probability) <= 1e-6
        np.testing.assert_array_equal(r32.lung_mask, r64.lung_mask)

    def test_fast_matches_reference_at_the_float32_tier(self):
        # The perfbench diagnose_lowdose oracle, on the default framework.
        from repro.backend.precision import allclose_ulp

        vol = chest_volume(32, 16, covid=True, rng=np.random.default_rng(7))
        framework = ComputeCovid19Plus(backend="fast")
        fast = framework.diagnose(vol).probability
        ref = framework.to_backend("reference").diagnose(vol).probability
        assert allclose_ulp(np.array([fast]), np.array([ref]))

    def test_sharing_float32_stages_keeps_the_fft_cache(self):
        from repro.backend.fast import fft_cache_size

        framework = _seeded_framework(backend="fast")
        framework.diagnose(chest_volume(16, 16, rng=np.random.default_rng(3)))
        filled = fft_cache_size()
        assert filled > 0
        ComputeCovid19Plus(enhancement=framework.enhancement,
                           segmentation=framework.segmentation,
                           classification=framework.classification,
                           use_enhancement=False)
        assert fft_cache_size() == filled

    def test_load_keeps_the_framework_dtype(self, tmp_path):
        prefix = str(tmp_path / "fw")
        _seeded_framework(1).to_dtype(np.float64).save(prefix)
        fresh = _seeded_framework(2)
        fresh.load(prefix)
        assert fresh.enhancement.model.dtype == np.float32
        assert fresh.classification.model.dtype == np.float32

    def test_enhancement_training_refuses_float32(self):
        enhancer = _seeded_framework().enhancement
        pairs = np.random.default_rng(0).uniform(0.0, 1.0, (2, 1, 16, 16))
        dataset = EnhancementDataset(pairs[:1], pairs[1:])
        with pytest.raises(ValueError, match=r"to_dtype\(np\.float64\)"):
            enhancer.train(dataset, epochs=1)
        enhancer.to_dtype(np.float64).train(dataset, epochs=1)

    def test_classification_training_refuses_float32(self):
        classifier = _seeded_framework().classification
        vols = np.stack([chest_volume(16, 16, rng=np.random.default_rng(i))
                         for i in range(2)])[:, None] / 1000.0
        dataset = ClassificationDataset(vols, np.array([0, 1]))
        with pytest.raises(ValueError, match=r"to_dtype\(np\.float64\)"):
            classifier.train(dataset, epochs=1)
        classifier.to_dtype(np.float64).train(dataset, epochs=1)
