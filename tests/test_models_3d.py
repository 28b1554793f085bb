"""Tests for the 3D networks (DenseNet3D, AHNet3D) and 2D baselines."""

import numpy as np
import pytest

import repro.nn as nn
from repro.models import AHNet3D, Classifier2D, DenseNet3D, SliceClassifier, UNet2D
from repro.models.baselines import central_slice_selector
from repro.tensor import Tensor, no_grad


class TestDenseNet3D:
    def test_forward_shape(self, rng):
        net = DenseNet3D(rng=rng)
        out = net(Tensor(rng.normal(size=(2, 1, 16, 16, 16))))
        assert out.shape == (2, 1)

    def test_probability_range(self, rng):
        net = DenseNet3D(rng=rng)
        p = net.predict_proba(Tensor(rng.normal(size=(3, 1, 16, 16, 16))))
        assert p.shape == (3,)
        assert np.all((p.data > 0) & (p.data < 1))

    def test_four_blocks_default(self):
        assert len(DenseNet3D().blocks) == 4  # §2.3.2: four dense blocks

    def test_densenet121_configuration(self):
        assert callable(DenseNet3D.densenet121.__func__)  # class method exists
        cfg = DenseNet3D(block_layers=(6, 12, 24, 16), growth=4, init_features=4)
        assert cfg.block_layers == (6, 12, 24, 16)

    def test_input_validation(self, rng):
        net = DenseNet3D(rng=rng)
        with pytest.raises(ValueError):
            net(Tensor(rng.normal(size=(1, 1, 10, 16, 16))))
        with pytest.raises(ValueError):
            net(Tensor(rng.normal(size=(1, 2, 16, 16, 16))))

    def test_learns_synthetic_discrimination(self, rng):
        """Must separate bright-blob volumes from flat ones quickly."""
        net = DenseNet3D(block_layers=(1, 1, 1, 1), growth=4, init_features=4,
                         rng=np.random.default_rng(0))
        n = 8
        x = rng.normal(0, 0.1, size=(n, 1, 16, 16, 16))
        y = np.zeros(n)
        x[: n // 2, :, 6:10, 6:10, 6:10] += 2.0
        y[: n // 2] = 1.0
        loss_fn = nn.BCEWithLogitsLoss()
        opt = nn.Adam(net.parameters(), lr=3e-3)
        for _ in range(15):
            opt.zero_grad()
            logits = net.train()(Tensor(x))
            loss = loss_fn(logits.reshape(n), Tensor(y))
            loss.backward()
            opt.step()
        net.eval()
        with no_grad():
            p = net.predict_proba(Tensor(x)).data
        assert p[: n // 2].mean() > p[n // 2 :].mean() + 0.2


class TestAHNet3D:
    def test_forward_shape(self, rng):
        net = AHNet3D(base=2, depth=1, rng=rng)
        out = net(Tensor(rng.normal(size=(1, 1, 8, 8, 8))))
        assert out.shape == (1, 1, 8, 8, 8)

    def test_anisotropic_kernel_structure(self):
        """Kernels have their true (1, k, k) / (k, 1, 1) shapes, holding
        the Kaiming draws in the order the generator produced them."""
        from repro.nn import init

        net = AHNet3D(base=2, depth=1, rng=np.random.default_rng(0))
        conv = net.enc[0]
        assert conv.w_inplane.data.shape == (2, 1, 1, 3, 3)
        assert conv.w_through.data.shape == (2, 2, 3, 1, 1)
        draws = np.random.default_rng(0)
        np.testing.assert_array_equal(
            conv.w_inplane.data[:, :, 0], init.kaiming_normal((2, 1, 3, 3), rng=draws))
        np.testing.assert_array_equal(
            conv.w_through.data[:, :, :, 0, 0], init.kaiming_normal((2, 2, 3), rng=draws))
        # A checkpoint with the old zero-padded cubic kernels is refused.
        cubic = net.state_dict()
        cubic["enc.0.w_inplane"] = np.zeros((2, 1, 3, 3, 3))
        with pytest.raises(ValueError, match="shape mismatch"):
            net.load_state_dict(cubic)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_true_shape_forward_matches_zero_padded_cubes(self, rng, dtype, monkeypatch):
        """Same weights, embedded in zero-padded k×k×k cubes and run
        through ``F.conv3d``: the output agrees within the ulp tier."""
        from repro.backend.precision import allclose_ulp
        from repro.models.ahnet import _AnisotropicConv
        from repro.tensor import functional as F

        net = AHNet3D(base=2, depth=2, rng=rng).to_dtype(dtype).eval()
        x = Tensor(rng.normal(size=(1, 1, 8, 8, 8)), dtype=dtype)
        with no_grad():
            true_shape = net(x).data

        def cubic_forward(self, h):
            k, c = self.k, self.k // 2
            w_in = np.zeros(self.w_inplane.shape[:2] + (k, k, k), dtype=dtype)
            w_in[:, :, c] = self.w_inplane.data[:, :, 0]
            w_tp = np.zeros(self.w_through.shape[:2] + (k, k, k), dtype=dtype)
            w_tp[:, :, :, c, c] = self.w_through.data[:, :, :, 0, 0]
            h = F.conv3d(h, Tensor(w_in, dtype=dtype), padding=c)
            h = F.conv3d(h, Tensor(w_tp, dtype=dtype), padding=c)
            return F.leaky_relu(self.bn(h))

        monkeypatch.setattr(_AnisotropicConv, "forward", cubic_forward)
        with no_grad():
            cubic = net(x).data
        assert allclose_ulp(cubic, true_shape)

    def test_num_parameters_counts_true_kernels(self):
        # The zero-padded cubic kernels held 20,053 parameters.
        assert AHNet3D(rng=np.random.default_rng(0)).num_parameters() == 9037

    def test_predict_mask_binary(self, rng):
        net = AHNet3D(base=2, depth=1, rng=rng)
        mask = net.predict_mask(rng.normal(size=(8, 8, 8)))
        assert mask.dtype == bool

    def test_learns_foreground(self, rng):
        """Distillation smoke test: fit a simple bright-region mask."""
        net = AHNet3D(base=2, depth=1, rng=np.random.default_rng(1))
        x = rng.normal(0, 0.1, size=(4, 1, 8, 8, 8))
        target = np.zeros_like(x)
        x[:, :, 2:6, 2:6, 2:6] += 2.0
        target[:, :, 2:6, 2:6, 2:6] = 1.0
        loss_fn = nn.BCEWithLogitsLoss()
        opt = nn.Adam(net.parameters(), lr=5e-2)
        first = None
        for _ in range(20):
            opt.zero_grad()
            out = net.train()(Tensor(x))
            loss = loss_fn(out, Tensor(target))
            loss.backward()
            opt.step()
            first = first if first is not None else loss.item()
        assert loss.item() < first * 0.7

    def test_input_validation(self, rng):
        net = AHNet3D(base=2, depth=2, rng=rng)
        with pytest.raises(ValueError):
            net(Tensor(rng.normal(size=(1, 1, 6, 8, 8))))


class TestUNet2D:
    def test_shapes(self, rng):
        net = UNet2D(base=4, depth=2, rng=rng)
        out = net(Tensor(rng.normal(size=(1, 1, 16, 16))))
        assert out.shape == (1, 1, 16, 16)

    def test_residual_mode_near_identity_needs_training(self, rng):
        net = UNet2D(base=4, depth=2, residual=True, rng=rng)
        x = rng.random((1, 1, 16, 16))
        with no_grad():
            out = net.eval()(Tensor(x))
        assert out.shape == (1, 1, 16, 16)

    def test_divisibility_check(self, rng):
        net = UNet2D(base=4, depth=3, rng=rng)
        with pytest.raises(ValueError):
            net(Tensor(rng.normal(size=(1, 1, 12, 12))))


class TestBaselines:
    def test_classifier2d_output(self, rng):
        net = Classifier2D(rng=rng)
        out = net(Tensor(rng.normal(size=(5, 1, 16, 16))))
        assert out.shape == (5, 1)
        p = net.predict_proba(Tensor(rng.normal(size=(5, 1, 16, 16))))
        assert np.all((p.data > 0) & (p.data < 1))

    def test_slice_classifier_pooling_modes(self, rng):
        model = Classifier2D(rng=rng)
        vol = rng.normal(size=(6, 16, 16))
        p_max = SliceClassifier(model, pooling="max").predict_proba(vol)
        p_mean = SliceClassifier(model, pooling="mean").predict_proba(vol)
        assert 0.0 <= p_mean <= p_max <= 1.0

    def test_slice_selector(self):
        sel = central_slice_selector(0.5)
        keep = sel(np.zeros((10, 4, 4)))
        assert keep.sum() < 10
        assert keep[5]
        assert not keep[0]

    def test_slice_classifier_with_selector(self, rng):
        model = Classifier2D(rng=rng)
        sc = SliceClassifier(model, slice_selector=central_slice_selector(0.3))
        p = sc.predict_proba(rng.normal(size=(8, 16, 16)))
        assert 0.0 <= p <= 1.0

    def test_invalid_pooling(self, rng):
        with pytest.raises(ValueError):
            SliceClassifier(Classifier2D(rng=rng), pooling="median")

    def test_volume_shape_check(self, rng):
        sc = SliceClassifier(Classifier2D(rng=rng))
        with pytest.raises(ValueError):
            sc.predict_proba(rng.normal(size=(4, 1, 8, 8)))
