"""Neural-network library built on :mod:`repro.tensor`.

Mirrors the subset of ``torch.nn`` / ``torch.optim`` / ``torch.utils.data``
that the paper's training recipes use (§3): modules and parameters,
2D/3D layers, Gaussian weight initialization, the composite
MSE + MS-SSIM loss (Eq. 1), binary cross-entropy (Eq. 2), the Adam
optimizer, exponential learning-rate decay, data loaders with
distributed sampling, and the §3.3.1 augmentation transforms.
"""

from repro.nn.module import Module, Parameter, Sequential, ModuleList, backend_scoped
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    ConvTranspose2d,
    Dropout,
    Identity,
    LeakyReLU,
    Linear,
    MaxPool2d,
    ReLU,
    Sigmoid,
    UpsampleBilinear2d,
)
from repro.nn.layers3d import (
    BatchNorm3d,
    Conv3d,
    GlobalAvgPool,
    MaxPool3d,
    UpsampleTrilinear3d,
)
from repro.nn.losses import BCELoss, BCEWithLogitsLoss, CompositeLoss, L1Loss, MSELoss, MSSSIMLoss
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.lr_scheduler import ExponentialLR, LRScheduler, StepLR
from repro.nn.data import DataLoader, Dataset, DistributedSampler, TensorDataset
from repro.nn import init
from repro.nn import augment

__all__ = [
    "Module", "Parameter", "Sequential", "ModuleList", "backend_scoped",
    "Conv2d", "ConvTranspose2d", "Linear", "BatchNorm2d",
    "MaxPool2d", "UpsampleBilinear2d", "LeakyReLU", "ReLU",
    "Sigmoid", "Dropout", "Identity",
    "Conv3d", "BatchNorm3d", "MaxPool3d",
    "GlobalAvgPool", "UpsampleTrilinear3d",
    "MSELoss", "L1Loss", "BCELoss", "BCEWithLogitsLoss", "MSSSIMLoss",
    "CompositeLoss",
    "Optimizer", "Adam", "SGD",
    "LRScheduler", "ExponentialLR", "StepLR",
    "Dataset", "TensorDataset", "DataLoader", "DistributedSampler",
    "init", "augment",
]
