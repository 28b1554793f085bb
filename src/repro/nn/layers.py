"""2D layers (plus Linear / Dropout / activations as modules)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


class Conv2d(Module):
    """2D convolution, weights ``(out, in, k, k)``.

    ``init_std`` selects the paper's Gaussian(0, 0.01) scheme when set;
    otherwise Kaiming-normal is used.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        init_std: Optional[float] = 0.01,
        rng=None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        w = init.gaussian(shape, std=init_std, rng=rng) if init_std else init.kaiming_normal(shape, rng=rng)
        self.weight = Parameter(w, name="weight")
        self.bias = Parameter(np.zeros(out_channels), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride,
                        padding=self.padding)

    def __repr__(self):
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
            f"s={self.stride}, p={self.padding})"
        )


class ConvTranspose2d(Module):
    """2D transposed convolution ("deconvolution"), weights ``(in, out, k, k)``."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        output_padding: int = 0,
        bias: bool = True,
        init_std: Optional[float] = 0.01,
        rng=None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.output_padding = output_padding
        shape = (in_channels, out_channels, kernel_size, kernel_size)
        w = init.gaussian(shape, std=init_std, rng=rng) if init_std else init.kaiming_normal(shape, rng=rng)
        self.weight = Parameter(w, name="weight")
        self.bias = Parameter(np.zeros(out_channels), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv_transpose2d(
            x, self.weight, self.bias,
            stride=self.stride, padding=self.padding, output_padding=self.output_padding,
        )

    def __repr__(self):
        return (
            f"ConvTranspose2d({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, p={self.padding})"
        )


class Linear(Module):
    """Fully connected layer, weights ``(out, in)``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng=rng), name="weight")
        self.bias = Parameter(np.zeros(out_features), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self):
        return f"Linear({self.in_features}, {self.out_features})"


class _BatchNormNd(Module):
    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features), name="weight")
        self.bias = Parameter(np.zeros(num_features), name="bias")
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm(
            x, self.weight, self.bias,
            running_mean=self.running_mean, running_var=self.running_var,
            training=self.training, momentum=self.momentum, eps=self.eps,
        )

    def __repr__(self):
        return f"{type(self).__name__}({self.num_features})"


class BatchNorm1d(_BatchNormNd):
    """Batch norm over (N, C) or (N, C, L)."""


class BatchNorm2d(_BatchNormNd):
    """Batch norm over (N, C, H, W)."""


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool_nd(x, self.kernel_size, self.stride, self.padding)

    def __repr__(self):
        return f"MaxPool2d(k={self.kernel_size}, s={self.stride}, p={self.padding})"


class AvgPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool_nd(x, self.kernel_size, self.stride, self.padding)


class UpsampleBilinear2d(Module):
    """DDnet un-pooling: scale-2 (by default) bilinear interpolation."""

    def __init__(self, scale: int = 2):
        super().__init__()
        self.scale = scale

    def forward(self, x: Tensor) -> Tensor:
        return F.upsample_bilinear(x, self.scale)

    def __repr__(self):
        return f"UpsampleBilinear2d(scale={self.scale})"


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.01):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return F.leaky_relu(x, self.negative_slope)

    def __repr__(self):
        return f"LeakyReLU({self.negative_slope})"


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.sigmoid(x)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class Dropout(Module):
    """Inverted dropout; inactive in eval mode."""

    def __init__(self, p: float = 0.5, rng=None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1); got {p}")
        self.p = p
        self._rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        mask = (self._rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * Tensor(mask)

    def __repr__(self):
        return f"Dropout(p={self.p})"
