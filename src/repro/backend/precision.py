"""Accuracy-parity tiers: what each backend is allowed to change.

Every backend carries an *explicit, documented* tolerance contract —
nothing degrades silently.  The two tiers (also tabulated in
docs/backends.md):

- **bit** (``reference``): the baseline itself — byte-equal outputs
  under the same floating-point evaluation order.  Enforced with
  :func:`numpy.array_equal` plus a dtype check; the ``fast`` backend's
  reference fallbacks are held to it in the tests.
- **ulp** (``fast`` at f32/f64): algorithmically different evaluation
  (FFT-domain convolution) but the same precision class — results must
  agree within a small dtype-aware relative tolerance
  (:data:`ULP_RTOL`), a few ulps of headroom over a single rounding.

:func:`meets_tier` is the one predicate both the tests
(:func:`assert_tier`) and ``repro bench kernels`` gate on.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

__all__ = [
    "BACKEND_TIERS",
    "ULP_RTOL",
    "allclose_ulp",
    "assert_tier",
    "bit_identical",
    "meets_tier",
    "tier_for",
]

#: Parity tier per backend, relative to ``reference`` at equal dtype.
BACKEND_TIERS: Dict[str, str] = {
    "reference": "bit",
    "fast": "ulp",
}

#: Relative tolerance per dtype for the ulp tier.  float64 FFT conv
#: agrees with im2col to ~1e-13 in practice; these bounds leave two to
#: three orders of magnitude of headroom while still catching any
#: genuine algorithm bug (which shows up at 1e-2 or worse).
ULP_RTOL: Dict[str, float] = {
    "float64": 1e-9,
    "float32": 1e-4,
}

def tier_for(backend: str) -> str:
    """The parity tier a backend is held to (unknown backends: ulp)."""
    return BACKEND_TIERS.get(backend, "ulp")


def _as_arrays(result) -> List[np.ndarray]:
    """Flatten a kernel result into its comparable ndarray parts."""
    if isinstance(result, np.ndarray):
        return [result]
    out: List[np.ndarray] = []
    if isinstance(result, tuple):
        for part in result:
            if isinstance(part, np.ndarray):
                out.append(part)
    return out


def bit_identical(a, b) -> bool:
    """Bit-tier check: equal dtypes, byte-equal values, NaNs aligned."""
    xs, ys = _as_arrays(a), _as_arrays(b)
    if len(xs) != len(ys):
        return False
    return all(x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True)
               for x, y in zip(xs, ys))


def allclose_ulp(a, b) -> bool:
    """Ulp-tier check: dtype-aware relative tolerance, dtypes preserved.

    The tolerance class is the reference result's dtype
    (:data:`ULP_RTOL`), and the candidate must *produce* that dtype: an
    op that silently widens float32 to float64 fails here even if the
    values agree.
    """
    xs, ys = _as_arrays(a), _as_arrays(b)
    if len(xs) != len(ys):
        return False
    for x, y in zip(xs, ys):
        if x.dtype != y.dtype:
            return False
        rtol = ULP_RTOL.get(x.dtype.name, ULP_RTOL["float64"])
        scale = float(np.max(np.abs(x))) if x.size else 0.0
        if not np.allclose(np.asarray(x, dtype=np.float64),
                           np.asarray(y, dtype=np.float64),
                           rtol=rtol, atol=rtol * max(scale, 1e-30)):
            return False
    return True


def meets_tier(tier: str, reference, candidate) -> bool:
    """Whether ``candidate`` agrees with ``reference`` at ``tier``."""
    if tier == "bit":
        return bit_identical(reference, candidate)
    if tier == "ulp":
        return allclose_ulp(reference, candidate)
    raise ValueError(f"unknown parity tier {tier!r}")


def assert_tier(tier: str, reference, candidate, context: str = "") -> None:
    """Raise ``AssertionError`` unless ``candidate`` meets ``tier``."""
    if not meets_tier(tier, reference, candidate):
        raise AssertionError(
            f"parity violation at tier {tier!r}{': ' + context if context else ''}")

