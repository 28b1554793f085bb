"""Host-speed calibration: fixed kernels that use none of the program.

On a shared virtual machine the same code and inputs can run up to twice
as slowly, because neighbouring tenants take the physical core's shared
resources.  Each vCPU switches between fast and slow states every few
seconds, and the mix drifts over tens of minutes.  The guest sees no
steal time and no hardware counters, and its CPU time equals wall time.
Calibration rounds run between the benchmark's operations, on the same
vCPU, so they see the same host.  Dividing an operation's time by the
round time measured beside it cancels the host's speed; multiplying by
the round's reference time puts the result back into seconds on the
reference host.

The kernels stand for the kinds of work the workloads do: interpreted
Python with dict updates (the serving engine), a BLAS matrix product
chain (the im2col convolutions), an FFT round trip (the ``fast``
backend's convolutions and the FBP ramp filter) and in-place passes over
an array larger than L2 (memory traffic).  A workload names the kernels
its rounds run.  They depend only on Python and NumPy, so a change to
the program cannot move them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.random((192, 192))
_VOLUME = _RNG.random((16, 64, 64))
_LARGE = np.ones(1_000_000)


def _interpreter():
    total, table = 0, {}
    for i in range(60_000):
        total += i * i
        table[i & 255] = total
    return total


def _blas():
    product = _MATRIX
    for _ in range(12):
        product = _MATRIX @ product
        product /= product.max()


def _fft():
    for _ in range(4):
        np.fft.irfftn(np.fft.rfftn(_VOLUME), _VOLUME.shape, axes=(0, 1, 2))


def _memory():
    for _ in range(10):
        np.negative(_LARGE, out=_LARGE)


#: Kernel -> its mean seconds on the reference host, a 2-vCPU Intel Xeon
#: VM (2.0 GHz), Python 3.11, NumPy 2.4, one BLAS thread.
KERNELS = {
    "interpreter": (_interpreter, 0.0075),
    "blas": (_blas, 0.0050),
    "fft": (_fft, 0.0085),
    "memory": (_memory, 0.0047),
}
ALL = tuple(KERNELS)


def round_s(kernels):
    """Run one round of ``kernels``; returns its wall seconds."""
    t0 = time.perf_counter()
    for name in kernels:
        KERNELS[name][0]()
    return time.perf_counter() - t0


def run_for(seconds, kernels):
    """Round times of rounds run until ``seconds`` have passed (at least
    one).  A first, unrecorded round reloads the kernels' data into the
    caches, so the recorded rounds do not depend on how much the
    preceding work evicted."""
    rounds = []
    spent = round_s(kernels)
    while spent < seconds or not rounds:
        rounds.append(round_s(kernels))
        spent += rounds[-1]
    return rounds


def speed(rounds, kernels):
    """Host speed relative to the reference host (>1 is faster).

    The mean, not the median: the host switches between fast and slow
    states, and the median of the rounds would jump between the two
    where the mean follows their mix, as the operations' times do.
    """
    return sum(KERNELS[name][1] for name in kernels) / statistics.fmean(rounds)
