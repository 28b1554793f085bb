"""Per-layer int8 weight quantization with dequant-on-dispatch.

The reduced-precision serving mode from ROADMAP item 2: weights are
stored as symmetric int8 plus a per-output-channel float32 scale
(4.5× smaller than float64 checkpoints) and reconstructed lazily the
first time a kernel needs them.  Everything numeric routes through the
``quantize_linear`` / ``dequantize_linear`` registry ops
(:mod:`repro.tensor.ops_quant`) — this module contains *no* direct
NumPy compute (the backend lint keeps it that way), so quantization is
visible in kernel telemetry and re-implementable per backend.

Pieces:

- :class:`QuantizedParameter` — a :class:`~repro.nn.module.Parameter`
  whose float view is materialized on first ``.data`` access via a
  ``dequantize_linear`` dispatch and cached in the tensor's storage
  slot.  :func:`repro.backend.registry.clear_kernel_caches` (the hook
  ``Module.load_state_dict``/``to_dtype`` already call) drops the
  cached float array, so the next dispatch re-dequantizes — the cache
  discipline is identical to the fast FFT filter cache.  Assigning ``.data`` directly *de-quantizes* the parameter
  (the int8 payload is discarded): an optimizer step or state-dict
  load wins over stale quantized bytes, never the reverse.
- :func:`quantize_module` — in-place: replaces every eligible weight
  (float, ndim ≥ 2; biases and batch-norm vectors stay float) with a
  :class:`QuantizedParameter`.
- :func:`quantize_state_dict` / :func:`dequantize_state_dict` — the
  checkpoint-level transform, plus :func:`save_quantized` /
  :func:`load_quantized` for ``.npz`` round-trips that preserve the
  recorded float dtype (a float32 model comes back float32 — loading
  never silently promotes to float64).
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Tuple

import numpy as np

from repro.backend.registry import REGISTRY, clear_kernel_caches, dispatch
from repro.nn.module import Module, Parameter
from repro.tensor.tensor import Tensor

__all__ = [
    "QuantizedParameter",
    "dequantize_state_dict",
    "load_quantized",
    "quantize_module",
    "quantize_state_dict",
    "quantized_parameter_count",
    "save_quantized",
]

#: Weights need ndim ≥ this to be quantized; 1-d parameters (biases,
#: batch-norm gains) are tiny and precision-critical, so they stay float.
MIN_QUANTIZE_NDIM = 2

# The Tensor storage slot, used directly so the subclass can override
# ``data`` as a lazy property while reusing the same storage.
_RAW_DATA = Tensor.__dict__["data"]

#: Live quantized parameters whose cached float views the registry's
#: cache-clearer hook must drop.
_LIVE_QUANTIZED: "weakref.WeakSet[QuantizedParameter]" = weakref.WeakSet()


def _drop_dequant_caches() -> None:
    for p in list(_LIVE_QUANTIZED):
        p._drop_cache()


REGISTRY.register_cache_clearer(_drop_dequant_caches)


class QuantizedParameter(Parameter):
    """A parameter stored as int8 + scale, de-quantized on dispatch.

    ``.data`` reads trigger (and cache) a ``dequantize_linear``
    dispatch at :attr:`dequant_dtype`; ``.data`` writes discard the
    quantized payload and fall back to plain float storage.  Gradients
    are disabled — quantized inference never backpropagates.
    """

    def __init__(self, q, scale, dtype=np.float32, axis: int = 0,
                 name: str = "", backend: Optional[str] = None):
        dtype = np.dtype(dtype)
        if dtype.kind != "f":
            raise TypeError(f"dequant dtype must be float; got {dtype}")
        Tensor.__init__(self, np.zeros((), dtype=dtype), requires_grad=False,
                        dtype=dtype, name=name)
        self._q = np.asarray(q, dtype=np.int8)
        self._scale = np.asarray(scale, dtype=np.float32)
        self._axis = int(axis)
        self._dequant_dtype = dtype
        self._backend = backend
        _RAW_DATA.__set__(self, None)
        _LIVE_QUANTIZED.add(self)

    # -- lazy float view -------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        arr = _RAW_DATA.__get__(self, type(self))
        q = getattr(self, "_q", None)
        if q is None:
            return arr
        if arr is None or arr.dtype != self._dequant_dtype:
            arr = dispatch("dequantize_linear", q, self._scale,
                           self._dequant_dtype, backend=self._backend)
            _RAW_DATA.__set__(self, arr)
        return arr

    @data.setter
    def data(self, value) -> None:
        _RAW_DATA.__set__(self, np.asarray(value))
        if getattr(self, "_q", None) is not None:
            # A direct write (optimizer step, state-dict load) wins:
            # drop the quantized payload rather than let a later cache
            # clear resurrect stale weights.
            self._q = None
            self._scale = None

    def _drop_cache(self) -> None:
        if getattr(self, "_q", None) is not None:
            _RAW_DATA.__set__(self, None)

    # -- introspection ---------------------------------------------------
    @property
    def is_quantized(self) -> bool:
        return getattr(self, "_q", None) is not None

    @property
    def dequant_dtype(self) -> np.dtype:
        return self._dequant_dtype

    @property
    def quantized(self) -> Tuple[np.ndarray, np.ndarray]:
        """The raw ``(q, scale)`` payload (int8, float32)."""
        if self._q is None:
            raise ValueError("parameter has been de-quantized")
        return self._q, self._scale

    def has_cached_dequant(self) -> bool:
        """Whether the float view is currently materialized."""
        return _RAW_DATA.__get__(self, type(self)) is not None

    def retarget_dtype(self, dtype) -> None:
        """Change the dequantization target dtype (``Module.to_dtype``).

        For a still-quantized parameter this is free — the cached float
        view is dropped and the next dispatch reconstructs at the new
        width from the *original* int8 payload (no accumulated
        round-off from cast chains).
        """
        dtype = np.dtype(dtype)
        if dtype.kind != "f":
            raise TypeError(f"dequant dtype must be float; got {dtype}")
        if getattr(self, "_q", None) is not None:
            self._dequant_dtype = dtype
            _RAW_DATA.__set__(self, None)
        else:
            _RAW_DATA.__set__(
                self, np.ascontiguousarray(self.data, dtype=dtype))


# ---------------------------------------------------------------------------
# Module-level quantization
# ---------------------------------------------------------------------------
def _eligible(arr: np.ndarray) -> bool:
    return arr.dtype.kind == "f" and arr.ndim >= MIN_QUANTIZE_NDIM


def quantize_module(module: Module, axis: int = 0,
                    backend: Optional[str] = None) -> int:
    """Quantize every eligible weight of ``module`` in place.

    Returns the number of parameters converted.  Biases, batch-norm
    parameters, and anything below :data:`MIN_QUANTIZE_NDIM` dimensions
    stay float.  Idempotent: already-quantized parameters are skipped.
    """
    converted = 0
    for mod in module.modules():
        for name, p in list(mod._parameters.items()):
            if isinstance(p, QuantizedParameter) or not _eligible(p.data):
                continue
            q, scale = dispatch("quantize_linear", p.data, axis,
                                backend=backend)
            qp = QuantizedParameter(q, scale, dtype=p.data.dtype, axis=axis,
                                    name=p.name, backend=backend)
            mod._parameters[name] = qp
            object.__setattr__(mod, name, qp)
            converted += 1
    clear_kernel_caches()
    return converted


def quantized_parameter_count(module: Module) -> int:
    """How many of the module's parameters are quantized."""
    return sum(1 for p in module.parameters()
               if isinstance(p, QuantizedParameter) and p.is_quantized)


# ---------------------------------------------------------------------------
# Checkpoint-level quantization
# ---------------------------------------------------------------------------
def quantize_state_dict(state: Dict[str, np.ndarray], axis: int = 0,
                        backend: Optional[str] = None) -> Dict[str, Dict]:
    """Quantize a state dict's eligible entries.

    Returns ``{name: {"q", "scale", "dtype"}}`` for quantized entries
    and ``{name: {"raw"}}`` for everything kept verbatim; the recorded
    ``dtype`` string is what :func:`dequantize_state_dict` restores, so
    reduced-precision checkpoints keep their width.
    """
    out: Dict[str, Dict] = {}
    for name, arr in state.items():
        if _eligible(arr):
            q, scale = dispatch("quantize_linear", arr, axis, backend=backend)
            out[name] = {"q": q, "scale": scale, "dtype": arr.dtype.str}
        else:
            out[name] = {"raw": arr}
    return out


def dequantize_state_dict(qstate: Dict[str, Dict],
                          backend: Optional[str] = None
                          ) -> Dict[str, np.ndarray]:
    """Reconstruct a float state dict at each entry's recorded dtype."""
    state: Dict[str, np.ndarray] = {}
    for name, entry in qstate.items():
        if "raw" in entry:
            state[name] = entry["raw"]
        else:
            state[name] = dispatch("dequantize_linear", entry["q"],
                                   entry["scale"], np.dtype(entry["dtype"]),
                                   backend=backend)
    return state


def save_quantized(module_or_state, path: str, axis: int = 0,
                   backend: Optional[str] = None) -> None:
    """Quantize and serialize to ``.npz`` (int8 + float32 scales).

    Accepts a module or a plain state dict.  Already-quantized modules
    serialize their existing int8 payloads — saving never round-trips
    through float.
    """
    arrays: Dict[str, np.ndarray] = {}
    if isinstance(module_or_state, Module):
        qstate: Dict[str, Dict] = {}
        for name, p in module_or_state.named_parameters():
            if isinstance(p, QuantizedParameter) and p.is_quantized:
                q, scale = p.quantized
                qstate[name] = {"q": q, "scale": scale,
                                "dtype": p.dequant_dtype.str}
            elif _eligible(p.data):
                q, scale = dispatch("quantize_linear", p.data, axis,
                                    backend=backend)
                qstate[name] = {"q": q, "scale": scale,
                                "dtype": p.data.dtype.str}
            else:
                qstate[name] = {"raw": p.data}
        for name, b in module_or_state.named_buffers():
            qstate[name] = {"raw": b}
    else:
        qstate = quantize_state_dict(module_or_state, axis=axis,
                                     backend=backend)
    for name, entry in qstate.items():
        key = name.replace(".", "/")
        if "raw" in entry:
            arrays[f"raw::{key}"] = entry["raw"]
        else:
            arrays[f"q::{key}"] = entry["q"]
            arrays[f"scale::{key}"] = entry["scale"]
            arrays[f"dtype::{key}"] = np.asarray(entry["dtype"])
    np.savez_compressed(path, **arrays)


def load_quantized_state(path: str) -> Dict[str, Dict]:
    """Read a :func:`save_quantized` file back into entry form."""
    qstate: Dict[str, Dict] = {}
    with np.load(path) as data:
        for key in data.files:
            tag, _, enc = key.partition("::")
            name = enc.replace("/", ".")
            entry = qstate.setdefault(name, {})
            if tag == "raw":
                entry["raw"] = data[key]
            elif tag == "q":
                entry["q"] = data[key]
            elif tag == "scale":
                entry["scale"] = data[key]
            elif tag == "dtype":
                entry["dtype"] = str(data[key])
    return qstate


def load_quantized(module: Module, path: str,
                   backend: Optional[str] = None) -> Module:
    """Load a quantized checkpoint, installing lazy quantized weights.

    Quantized entries become :class:`QuantizedParameter` slots that
    de-quantize on first dispatch at their recorded dtype; raw entries
    load like a normal state dict (adopting the stored float width —
    never promoting).
    """
    slots: Dict[str, Tuple[Module, str]] = {}
    for mod_name, mod in module.named_modules():
        for p_name in mod._parameters:
            full = f"{mod_name}.{p_name}" if mod_name else p_name
            slots[full] = (mod, p_name)
    qstate = load_quantized_state(path)
    raw = {name: entry["raw"] for name, entry in qstate.items()
           if "raw" in entry}
    quantized = {name: entry for name, entry in qstate.items()
                 if "raw" not in entry}
    unknown = set(quantized) - set(slots)
    if unknown:
        raise KeyError(f"quantized entries with no parameter: {sorted(unknown)}")
    # Raw entries (buffers, biases) go through the normal loader, which
    # adopts checkpoint dtypes and clears kernel caches.
    module.load_state_dict(raw, strict=False)
    for name, entry in quantized.items():
        mod, p_name = slots[name]
        qp = QuantizedParameter(entry["q"], entry["scale"],
                                dtype=np.dtype(entry["dtype"]), name=p_name,
                                backend=backend)
        mod._parameters[p_name] = qp
        object.__setattr__(mod, p_name, qp)
    clear_kernel_caches()
    return module
