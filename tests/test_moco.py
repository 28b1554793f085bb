"""Tests for momentum-contrastive pretraining (He et al. baseline)."""

import numpy as np
import pytest

from repro.data.lesions import add_lesion
from repro.data.phantom import ChestPhantomConfig, chest_slice
from repro.models import Classifier2D
from repro.models.moco import MoCoLite, _l2_normalize
from repro.tensor import Tensor


def make_slices(n, covid_frac, seed, size=32):
    srng = np.random.default_rng(seed)
    out, labels = [], []
    for _ in range(n):
        r = np.random.default_rng(srng.integers(2**31))
        img, masks = chest_slice(ChestPhantomConfig(size=size, vessel_count=6), r,
                                 return_masks=True)
        lab = int(r.random() < covid_frac)
        if lab:
            img = add_lesion(img, masks["lungs"], "ggo", rng=r)
        out.append(img / 1000.0)
        labels.append(lab)
    return np.stack(out)[:, None], np.array(labels)


def small_encoder():
    return Classifier2D(base=6, growth=6, rng=np.random.default_rng(0))


class TestMechanics:
    def test_l2_normalize_unit_rows(self, rng):
        x = Tensor(rng.normal(size=(4, 6)))
        out = _l2_normalize(x)
        assert np.allclose((out.data**2).sum(axis=1), 1.0)

    def test_key_branch_starts_synced(self):
        moco = MoCoLite(encoder=small_encoder())
        q = moco.encoder_q.state_dict()
        k = moco.encoder_k.state_dict()
        for name in q:
            assert np.array_equal(q[name], k[name]), name

    def test_momentum_update_moves_toward_query(self):
        moco = MoCoLite(encoder=small_encoder(), momentum=0.5)
        # Perturb the query branch, then one momentum step.
        for p in moco.encoder_q.parameters():
            p.data += 1.0
        before = moco.encoder_k.parameters()[0].data.copy()
        target = moco.encoder_q.parameters()[0].data
        moco._momentum_update()
        after = moco.encoder_k.parameters()[0].data
        assert np.allclose(after, 0.5 * before + 0.5 * target)

    def test_momentum_update_drops_fast_filter_transforms(self, rng):
        from repro.backend.fast import clear_fft_cache, fft_cache_size
        from repro.backend.registry import dispatch
        from repro.tensor import no_grad

        moco = MoCoLite(encoder=small_encoder(), momentum=0.5)
        clear_fft_cache()
        with no_grad():
            dispatch("conv", rng.normal(size=(1, 2, 8, 8)),
                     rng.normal(size=(2, 2, 5, 5)), None, 1, 2,
                     want_cols=False, backend="fast")
        assert fft_cache_size() == 1
        moco._momentum_update()  # key-branch weights change in place
        assert fft_cache_size() == 0

    def test_queue_wraps_fifo(self, rng):
        moco = MoCoLite(encoder=small_encoder(), queue_size=4, proj_dim=8)
        keys = rng.normal(size=(6, 8))
        moco._enqueue(keys)
        assert moco._queue_ptr == 2
        assert np.array_equal(moco.queue[0], keys[4])
        assert np.array_equal(moco.queue[3], keys[3])

    def test_contrastive_loss_finite_and_positive(self):
        moco = MoCoLite(encoder=small_encoder(), rng=np.random.default_rng(1))
        slices, _ = make_slices(4, 0.5, 0)
        loss, keys = moco.contrastive_loss(slices)
        assert np.isfinite(loss.item()) and loss.item() > 0
        assert keys.shape == (4, 8)
        assert np.allclose((keys**2).sum(axis=1), 1.0)

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            MoCoLite(encoder=small_encoder(), momentum=1.0)
        with pytest.raises(ValueError):
            MoCoLite(encoder=small_encoder(), queue_size=0)


class TestPretraining:
    @pytest.fixture(scope="class")
    def pretrained(self):
        unlabeled, _ = make_slices(64, 0.0, 1)
        moco = MoCoLite(encoder=small_encoder(), queue_size=16,
                        rng=np.random.default_rng(1))
        losses = moco.pretrain(unlabeled, epochs=6, batch_size=8, lr=5e-4)
        return moco, losses, unlabeled

    def test_loss_stays_bounded(self, pretrained):
        _, losses, _ = pretrained
        # InfoNCE over 1 positive + 16 negatives: uniform scoring gives
        # ln(17) ≈ 2.83; training must hold the loss at or below that
        # (collapse modes shoot well above it).
        assert all(np.isfinite(losses))
        assert losses[-1] < np.log(17) + 0.3

    def test_positive_pairs_align_after_warmup(self):
        """Two augmented views of one slice must embed closer than views
        of different slices.  Asserted on the warmed-up (frozen-BN,
        feature-centered) embedding, which is deterministic; at this toy
        scale subsequent InfoNCE steps maintain rather than enlarge the
        gap (see the module docstring's scale caveat)."""
        unlabeled, _ = make_slices(64, 0.0, 1)
        moco = MoCoLite(encoder=small_encoder(), queue_size=16,
                        rng=np.random.default_rng(1))
        moco.warmup_batchnorm(unlabeled[:32])
        slices = unlabeled[:16]
        from repro.tensor import no_grad

        gaps = []
        for _ in range(6):
            with no_grad():
                q = moco._embed_q(np.stack([moco.augment(s) for s in slices])).data
            k = moco._embed_k(np.stack([moco.augment(s) for s in slices]))
            sim = q @ k.T
            gaps.append(np.diag(sim).mean() - sim[~np.eye(len(sim), dtype=bool)].mean())
        assert np.mean(gaps) > 0.02

    def test_linear_probe_outputs_probabilities(self, pretrained):
        moco, _, _ = pretrained
        xtr, ytr = make_slices(12, 0.5, 2)
        xte, yte = make_slices(8, 0.5, 3)
        scores = moco.linear_probe(xtr, ytr, xte, epochs=20)
        assert scores.shape == (8,)
        assert np.all((scores > 0) & (scores < 1))

    def test_embeddings_shape(self, pretrained):
        moco, _, _ = pretrained
        x, _ = make_slices(3, 0.5, 4)
        feats = moco.embed(x)
        assert feats.shape == (3, moco.encoder_q.feature_dim)
