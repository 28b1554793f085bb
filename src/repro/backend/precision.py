"""Accuracy-parity tiers: what each backend/dtype is allowed to change.

Every backend and reduced-precision mode carries an *explicit,
documented* tolerance contract — nothing degrades silently.  The tiers
(also tabulated in docs/backends.md):

- **bit** (``reference``): the baseline itself — byte-equal outputs
  under the same floating-point evaluation order.  Enforced with
  :func:`numpy.array_equal` plus a dtype check; the ``fast`` backend's
  reference fallbacks are held to it in the tests.
- **ulp** (``fast`` at f32/f64): algorithmically different evaluation
  (FFT-domain convolution) but the same precision class — results must
  agree within a small dtype-aware relative tolerance
  (:data:`ULP_RTOL`), a few ulps of headroom over a single rounding.
- **metric floors** (int8): reduced precision *does* change the output
  image; the contract moves up a level to the paper's quality metrics
  — enhanced-image MS-SSIM and PSNR against the f64 reference output
  must stay above :data:`PRECISION_FLOORS` (Fig. 8 / Table 8
  vocabulary).  The kernel bench and the accuracy-parity tests gate on
  these floors, so a quantization regression fails CI instead of
  shipping a subtly worse enhancement arm.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

__all__ = [
    "BACKEND_TIERS",
    "PRECISION_FLOORS",
    "ULP_RTOL",
    "allclose_ulp",
    "assert_tier",
    "bit_identical",
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

#: Quality floors for the reduced-precision (int8) inference mode,
#: measured on the enhancement output against the float64 reference arm.
#: ``accuracy_drop`` bounds the classification-arm disagreement rate
#: (fraction of diagnoses that flip vs the f64 pipeline).
PRECISION_FLOORS: Dict[str, Dict[str, float]] = {
    "int8": {"ms_ssim": 0.98, "psnr_db": 30.0, "accuracy_drop": 0.05},
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


def allclose_ulp(a, b, dtype=None) -> bool:
    """Ulp-tier check: dtype-aware relative tolerance, dtypes preserved.

    ``dtype`` overrides the tolerance class (defaults to the reference
    result's dtype); the candidate must still *produce* the reference's
    dtype — an op that silently widens float32 to float64 fails here
    even if the values agree.
    """
    xs, ys = _as_arrays(a), _as_arrays(b)
    if len(xs) != len(ys):
        return False
    for x, y in zip(xs, ys):
        if x.dtype != y.dtype:
            return False
        key = np.dtype(dtype).name if dtype is not None else x.dtype.name
        rtol = ULP_RTOL.get(key, ULP_RTOL["float64"])
        scale = float(np.max(np.abs(x))) if x.size else 0.0
        if not np.allclose(np.asarray(x, dtype=np.float64),
                           np.asarray(y, dtype=np.float64),
                           rtol=rtol, atol=rtol * max(scale, 1e-30)):
            return False
    return True


def assert_tier(tier: str, reference, candidate, context: str = "") -> None:
    """Raise ``AssertionError`` unless ``candidate`` meets ``tier``."""
    if tier == "bit":
        ok = bit_identical(reference, candidate)
    elif tier == "ulp":
        ok = allclose_ulp(reference, candidate)
    else:
        raise ValueError(f"unknown parity tier {tier!r}")
    if not ok:
        raise AssertionError(
            f"parity violation at tier {tier!r}{': ' + context if context else ''}")


def ms_ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Multi-scale SSIM between two single-channel images in [0, 1]-ish.

    Thin wrapper over :mod:`repro.metrics.image` so the bench and the
    floor tests speak the exact Fig. 8 vocabulary; the scale count
    adapts to the image size (5 levels needs ≥176 px, test/bench
    workloads are smaller).
    """
    from repro.metrics.image import ms_ssim as _ms_ssim

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    window = 11
    side = min(a.shape)
    levels = 1
    while levels < 5 and side // (2 ** levels) >= window:
        levels += 1
    return float(_ms_ssim(a, b, levels=levels, window_size=window))


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    from repro.metrics.image import psnr as _psnr

    return float(_psnr(np.asarray(a, dtype=np.float64),
                       np.asarray(b, dtype=np.float64)))


def check_floors(mode: str, metrics: Dict[str, float]) -> Dict[str, bool]:
    """Compare measured quality metrics against a mode's floors.

    Returns per-metric pass flags; unknown modes have no floors and
    pass vacuously (callers gate on ``all(...)``).
    """
    floors = PRECISION_FLOORS.get(mode, {})
    out: Dict[str, bool] = {}
    if "ms_ssim" in floors and "ms_ssim" in metrics:
        out["ms_ssim"] = metrics["ms_ssim"] >= floors["ms_ssim"]
    if "psnr_db" in floors and "psnr_db" in metrics:
        out["psnr_db"] = metrics["psnr_db"] >= floors["psnr_db"]
    if "accuracy_drop" in floors and "accuracy_drop" in metrics:
        out["accuracy_drop"] = metrics["accuracy_drop"] <= floors["accuracy_drop"]
    return out
