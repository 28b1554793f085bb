"""Functional façade over the autograd ops (mirrors ``torch.nn.functional``).

Importing a single module gives user code and the layer classes one
stable namespace for every differentiable operation in the engine.
"""

from repro.tensor.ops_basic import (
    abs,  # noqa: A004
    add,
    clip,
    concat,
    div,
    exp,
    getitem,
    log,
    matmul,
    max,  # noqa: A004
    mean,
    min,  # noqa: A004
    mul,
    neg,
    pad,
    pow,  # noqa: A004
    reshape,
    sqrt,
    stack,
    sub,
    sum,  # noqa: A004
    transpose,
    where,
)
from repro.tensor.ops_activation import (
    leaky_relu,
    log_softmax,
    relu,
    sigmoid,
    softmax,
    tanh,
)
from repro.tensor.ops_conv import (
    conv2d,
    conv3d,
    conv_nd,
    conv_transpose2d,
    conv_transpose3d,
    conv_transpose_nd,
)
from repro.tensor.ops_pool import (
    avg_pool_nd,
    global_avg_pool,
    max_pool_nd,
    upsample_bilinear,
    upsample_nearest,
)
from repro.tensor.ops_norm import batch_norm
from repro.tensor.ops_fused import fused_unpool_deconv

__all__ = [
    "add", "sub", "mul", "div", "neg", "pow", "exp", "log", "sqrt", "abs",
    "clip", "matmul", "sum", "mean", "max", "min", "reshape", "transpose",
    "getitem", "concat", "stack", "pad", "where",
    "relu", "leaky_relu", "sigmoid", "tanh", "softmax", "log_softmax",
    "conv2d", "conv3d", "conv_nd", "conv_transpose2d", "conv_transpose3d",
    "conv_transpose_nd",
    "max_pool_nd", "avg_pool_nd", "global_avg_pool",
    "upsample_bilinear", "upsample_nearest", "batch_norm",
    "fused_unpool_deconv",
]
