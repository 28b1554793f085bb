"""DDnet kernel schedule: every invocation with shapes and counts.

Enumerates the exact sequence of kernel launches a DDnet inference
performs (Table 2 architecture), so whole-network totals per kernel
type — the quantities behind Tables 5 and 7 — derive mechanically from
the architecture instead of being typed in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.backend.counters import OpCounts, kernel_op_counts


@dataclass(frozen=True)
class KernelInvocation:
    """One kernel launch: kind, textual site, shapes, and op counts."""

    kind: str
    site: str
    counts: OpCounts


def _conv(site: str, size: int, out_ch: int, in_ch: int, k: int, batch: int) -> List[KernelInvocation]:
    """conv + batchnorm + leaky-relu triple at one site."""
    conv = KernelInvocation(
        "convolution", site,
        kernel_op_counts("convolution", out_h=size, out_w=size, out_ch=out_ch,
                         in_ch=in_ch, k=k, batch=batch),
    )
    numel = batch * size * size * out_ch
    bn = KernelInvocation("batchnorm", site + ":bn", kernel_op_counts("batchnorm", numel=numel))
    act = KernelInvocation("leaky_relu", site + ":act", kernel_op_counts("leaky_relu", numel=numel))
    return [conv, bn, act]


def _deconv(site: str, size: int, out_ch: int, in_ch: int, k: int, batch: int,
            naive: bool, with_act: bool = True) -> List[KernelInvocation]:
    kind = "deconvolution_naive" if naive else "deconvolution"
    if naive:
        counts = kernel_op_counts(kind, in_h=size, in_w=size, in_ch=in_ch,
                                  out_ch=out_ch, k=k, batch=batch)
    else:
        counts = kernel_op_counts("deconvolution", out_h=size, out_w=size,
                                  out_ch=out_ch, in_ch=in_ch, k=k, batch=batch)
    invs = [KernelInvocation(kind, site, counts)]
    if with_act:
        numel = batch * size * size * out_ch
        invs.append(KernelInvocation("batchnorm", site + ":bn",
                                     kernel_op_counts("batchnorm", numel=numel)))
        invs.append(KernelInvocation("leaky_relu", site + ":act",
                                     kernel_op_counts("leaky_relu", numel=numel)))
    return invs


def ddnet_kernel_schedule(
    input_size: int = 512,
    batch: int = 32,
    base_channels: int = 16,
    growth: int = 16,
    num_blocks: int = 4,
    layers_per_block: int = 4,
    dense_kernel: int = 5,
    deconv_kernel: int = 5,
    bottleneck_factor: int = 4,
    naive_deconv: bool = False,
) -> List[KernelInvocation]:
    """Enumerate every kernel launch of one DDnet inference.

    ``batch`` is the number of slices processed together (the paper's
    reference workload is a 512×512×32 chunk).  ``naive_deconv``
    switches the deconvolution sites to the unrefactored Fig. 9a kernel
    for the Table 7 baseline column.
    """
    if input_size % (2**num_blocks):
        raise ValueError(f"input size must divide by {2**num_blocks}")
    invs: List[KernelInvocation] = []
    size = input_size
    dense_out = base_channels + layers_per_block * growth
    mid = bottleneck_factor * growth

    invs += _conv("stem", size, base_channels, 1, 7, batch)
    for b in range(num_blocks):
        size //= 2
        invs.append(KernelInvocation(
            "pooling", f"pool{b + 1}",
            kernel_op_counts("pooling", out_h=size, out_w=size, ch=base_channels,
                             k=3, batch=batch),
        ))
        ch = base_channels
        for l in range(layers_per_block):
            invs += _conv(f"db{b + 1}.l{l + 1}.1x1", size, mid, ch, 1, batch)
            invs += _conv(f"db{b + 1}.l{l + 1}.{dense_kernel}x{dense_kernel}",
                          size, growth, mid, dense_kernel, batch)
            ch += growth
        invs += _conv(f"transition{b + 1}", size, base_channels, dense_out, 1, batch)

    for s in range(num_blocks):
        size *= 2
        invs.append(KernelInvocation(
            "unpooling", f"unpool{s + 1}",
            kernel_op_counts("unpooling", out_h=size, out_w=size,
                             ch=base_channels, batch=batch),
        ))
        in_ch = 2 * base_channels  # un-pooled maps + 16-channel shortcut
        invs += _deconv(f"deconv{s + 1}a", size, 2 * base_channels, in_ch,
                        deconv_kernel, batch, naive_deconv)
        if s < num_blocks - 1:
            invs += _deconv(f"deconv{s + 1}b", size, base_channels,
                            2 * base_channels, 1, batch, naive_deconv)
        else:
            invs += _deconv("head", size, 1, 2 * base_channels, 1, batch,
                            naive_deconv, with_act=False)
    return invs


#: Kernel kinds grouped the way Table 5 reports them.
TABLE5_GROUPS = {
    "convolution": ("convolution",),
    "deconvolution": ("deconvolution", "deconvolution_naive"),
    "other": ("pooling", "unpooling", "leaky_relu", "batchnorm"),
}


def schedule_totals(invocations: List[KernelInvocation]) -> Dict[str, OpCounts]:
    """Aggregate counts per Table 5 kernel group (plus per raw kind)."""
    totals: Dict[str, OpCounts] = {}
    for inv in invocations:
        totals[inv.kind] = totals.get(inv.kind, OpCounts()) + inv.counts
    for group, kinds in TABLE5_GROUPS.items():
        acc = OpCounts()
        for k in kinds:
            acc = acc + totals.get(k, OpCounts())
        totals[group] = acc
    return totals
