"""Analytic global-memory and FLOP counters (paper Table 6), N-dimensional.

The paper instruments each OpenCL kernel with counters; these formulas
reproduce its published counts exactly for the 512×512×32 reference
input with 5×5 filters.  Counting conventions (reverse-engineered from
Table 6 and validated against it in the test suite):

- convolution/deconvolution: one input load and one weight load per
  multiply-accumulate; multiply and add counted separately
  (``loads = flops = 2·MACs``); one store per output element,
- pooling: ``∏kernel`` loads per output, comparisons not counted as FLOPs,
- bilinear un-pooling: ``2^nd`` loads and ``2^(nd+2) - 2`` FLOPs per
  output element (4 loads / 14 FLOPs in 2D, the Table 6 values; 8 / 30
  for the trilinear 3D case),
- Leaky-ReLU: 1 load, 1 store, 1 FLOP per element,
- batch norm: 5 loads and 5 FLOPs per element (x, mean, var, γ, β).

Every registered kernel counts its own dispatch with these formulas,
so a :func:`repro.backend.registry.trace_dispatches` sink sees the
Table 6 counts of whatever a model runs; the hetero performance model
prices the counts of DDnet's own forward.  This module lives under
:mod:`repro.backend` (not :mod:`repro.hetero`) because it is a leaf
both the kernel-dispatch registry and the hetero simulation import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple, Union

IntOrTuple = Union[int, Sequence[int]]


@dataclass(frozen=True)
class OpCounts:
    """Global loads/stores and floating-point operation counts."""

    loads: int = 0
    stores: int = 0
    flops: int = 0

    def __add__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(self.loads + other.loads, self.stores + other.stores,
                        self.flops + other.flops)

    def scaled(self, factor: int) -> "OpCounts":
        return OpCounts(self.loads * factor, self.stores * factor, self.flops * factor)

    @property
    def bytes_moved(self) -> int:
        """Total global traffic in bytes (fp32)."""
        return 4 * (self.loads + self.stores)

    def in_millions(self) -> Tuple[float, float, float]:
        return (self.loads / 1e6, self.stores / 1e6, self.flops / 1e6)


def _prod(values: Sequence[int]) -> int:
    out = 1
    for v in values:
        out *= int(v)
    return out


def _kernel_elems(kernel: IntOrTuple, nd: int) -> int:
    if isinstance(kernel, (tuple, list)):
        if len(kernel) != nd:
            raise ValueError(f"kernel {kernel!r} does not match {nd} spatial dims")
        return _prod(kernel)
    return int(kernel) ** nd


# ---------------------------------------------------------------------------
# N-dimensional counters (the general forms; 2D wrappers follow)
# ---------------------------------------------------------------------------
def conv_counts_nd(out_spatial: Sequence[int], out_ch: int, in_ch: int,
                   kernel: IntOrTuple, batch: int = 1) -> OpCounts:
    """Convolution (and refactored deconvolution — identical counts)."""
    outs = batch * _prod(out_spatial) * out_ch
    macs = outs * in_ch * _kernel_elems(kernel, len(out_spatial))
    return OpCounts(loads=2 * macs, stores=outs, flops=2 * macs)


def deconv_naive_counts_nd(in_spatial: Sequence[int], in_ch: int, out_ch: int,
                           kernel: IntOrTuple, batch: int = 1) -> OpCounts:
    """Naive scatter deconvolution (Fig. 9a), any dimensionality.

    Every input element multiplies the full filter and *accumulates
    into global memory*: each partial sum costs a load-modify-store of
    the output in addition to the input/weight loads.
    """
    macs = (batch * _prod(in_spatial) * in_ch * out_ch
            * _kernel_elems(kernel, len(in_spatial)))
    return OpCounts(loads=3 * macs, stores=macs, flops=2 * macs)


def pool_counts_nd(out_spatial: Sequence[int], ch: int, kernel: IntOrTuple,
                   batch: int = 1) -> OpCounts:
    outs = batch * _prod(out_spatial) * ch
    return OpCounts(loads=outs * _kernel_elems(kernel, len(out_spatial)),
                    stores=outs, flops=0)


def unpool_counts_nd(out_spatial: Sequence[int], ch: int, batch: int = 1) -> OpCounts:
    """Separable-linear un-pooling: ``2^nd`` corner loads per output.

    The FLOP count generalizes Table 6's 14-per-output 2D convention as
    ``2^(nd+2) - 2`` (weight computation + lerps): 6 in 1D, 14 in 2D,
    30 for the trilinear 3D case.
    """
    nd = len(out_spatial)
    outs = batch * _prod(out_spatial) * ch
    return OpCounts(loads=(2 ** nd) * outs, stores=outs,
                    flops=(2 ** (nd + 2) - 2) * outs)


def leaky_relu_counts(numel: int) -> OpCounts:
    return OpCounts(loads=numel, stores=numel, flops=numel)


def batchnorm_counts(numel: int) -> OpCounts:
    return OpCounts(loads=5 * numel, stores=numel, flops=5 * numel)


# ---------------------------------------------------------------------------
# 2D wrappers (the original Table 6 signatures, kept verbatim)
# ---------------------------------------------------------------------------
def conv_counts(out_h: int, out_w: int, out_ch: int, in_ch: int, k: int,
                batch: int = 1) -> OpCounts:
    """Convolution (and refactored deconvolution — identical counts)."""
    return conv_counts_nd((out_h, out_w), out_ch, in_ch, k, batch=batch)


def pool_counts(out_h: int, out_w: int, ch: int, k: int, batch: int = 1) -> OpCounts:
    return pool_counts_nd((out_h, out_w), ch, k, batch=batch)


def unpool_counts(out_h: int, out_w: int, ch: int, batch: int = 1) -> OpCounts:
    return unpool_counts_nd((out_h, out_w), ch, batch=batch)


def table6_counts() -> Dict[str, OpCounts]:
    """The exact Table 6 reference configuration.

    "Input of size 512×512×32" with 5×5 conv/deconv filters and 32
    feature maps; pooling/un-pooling change resolution by 2×.
    """
    s, ch, k = 512, 32, 5
    return {
        "Convolution": conv_counts(s, s, ch, ch, k),
        "Deconvolution": conv_counts(s, s, ch, ch, k),
        "Pooling": pool_counts(s // 2, s // 2, ch, 3),
        "Un-pooling": unpool_counts(s * 2, s * 2, ch),
        "Leaky-ReLU": leaky_relu_counts(s * s * ch),
        "Batch Normalization": batchnorm_counts(s * s * ch),
    }


#: The published Table 6 values (in units of 10^6 operations).
PAPER_TABLE6_MILLIONS = {
    "Convolution": (13421.7, 8.4, 13421.7),
    "Deconvolution": (13421.7, 8.4, 13421.7),
    "Pooling": (18.9, 2.1, 0.0),
    "Un-pooling": (134.3, 33.5, 469.7),
    "Leaky-ReLU": (8.4, 8.4, 8.4),
    "Batch Normalization": (41.9, 8.4, 41.9),
}
