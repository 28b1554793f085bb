"""Deterministic per-item RNG seeding.

The invariant: **an item's random stream depends on the item alone**,
not on how many items are made, how they are batched, or which
process computes them.  The volume simulations of :mod:`repro.data`
give each slice its own stream this way, so a volume's slice equals
the single-slice simulation bit for bit.

The scheme is the one :class:`numpy.random.SeedSequence` was designed
for: a root sequence spawns one independent child per *work item*.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

__all__ = ["spawn_seeds", "derive_item_seeds"]

SeedLike = Union[int, np.random.SeedSequence]


def _as_seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(int(seed))


def spawn_seeds(seed: SeedLike, n: int) -> List[np.random.SeedSequence]:
    """``n`` independent child sequences of ``seed``, one per work item."""
    if n < 0:
        raise ValueError(f"n must be >= 0; got {n}")
    return _as_seed_sequence(seed).spawn(n)


def derive_item_seeds(rng: np.random.Generator, n: int) -> Sequence[int]:
    """Draw ``n`` integer seeds from ``rng`` exactly as a serial loop would.

    For code that historically drew one seed per loop iteration from a
    caller-supplied generator (``rng.integers(0, 2**31)``), drawing the
    whole list up front consumes the identical stream — so pre-existing
    serial outputs are preserved *and* each item draws from its own
    seed alone.
    """
    return [int(rng.integers(0, 2**31)) for _ in range(n)]
