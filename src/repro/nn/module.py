"""Module/Parameter system: the ``torch.nn.Module`` equivalent.

Modules own named :class:`Parameter` tensors and named buffers (plain
NumPy arrays such as batch-norm running statistics), discover child
modules through attribute assignment, and support recursive iteration,
train/eval mode switching, and state-dict save/load.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.backend.registry import _state as _dispatch_state
from repro.tensor.tensor import Tensor


def _clear_kernel_caches() -> None:
    # Weight arrays were replaced/cast: any backend cache keyed on them
    # (the fast FFT filter cache) must drop its entries.
    from repro.backend.registry import clear_kernel_caches

    clear_kernel_caches()


def _in_backend_scope(module, fn, /, *args, **kwargs):
    # The module's backend scopes every dispatch of ``fn``, including
    # ``F.*`` calls in model code; a module without one inherits the
    # caller's.  ``to_backend`` validated the name.  While a dispatch
    # sink listens, the module is also the innermost one being called
    # (``repro.backend.registry.calling_module``).
    backend = module.__dict__.get("_backend")
    traced = getattr(_dispatch_state, "sink", None) is not None
    if backend is None and not traced:
        return fn(*args, **kwargs)
    previous = (getattr(_dispatch_state, "backend", None),
                getattr(_dispatch_state, "module", None))
    if backend is not None:
        _dispatch_state.backend = backend
    if traced:
        _dispatch_state.module = module
    try:
        return fn(*args, **kwargs)
    finally:
        _dispatch_state.backend, _dispatch_state.module = previous


def backend_scoped(method):
    """Give a module method other than ``forward`` the module's backend.

    Calling a module scopes its ``forward`` to the module's backend;
    a second entry point (say ``features``) called directly would run
    on the caller's.  Decorating it applies the same scope as
    :meth:`Module.__call__`.
    """

    @functools.wraps(method)
    def scoped(self, *args, **kwargs):
        return _in_backend_scope(self, method, self, *args, **kwargs)

    return scoped


class Parameter(Tensor):
    """A tensor registered as a trainable module parameter.

    Unlike a raw :class:`Tensor`, a parameter built from a float array
    keeps that array's dtype: a ``float32`` checkpoint must not be
    silently re-promoted to ``float64`` on reconstruction (the
    inference fast path depends on the model staying ``float32``).
    """

    def __init__(self, data, name: str = ""):
        arr = data.data if isinstance(data, Tensor) else np.asarray(data)
        dtype = arr.dtype if getattr(arr.dtype, "kind", "") == "f" else None
        super().__init__(data, requires_grad=True, dtype=dtype, name=name)


class Module:
    """Base class for all network components.

    Subclasses implement :meth:`forward`; calling the module invokes it.
    Attribute assignment automatically registers parameters, buffers
    (via :meth:`register_buffer`), and child modules.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # -- registration ---------------------------------------------------
    def __setattr__(self, name: str, value):
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, array: np.ndarray) -> None:
        """Register non-trainable state saved with the module."""
        self._buffers[name] = array
        object.__setattr__(self, name, array)

    # -- forward --------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return _in_backend_scope(self, self.forward, *args, **kwargs)

    # -- traversal ------------------------------------------------------
    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix, self
        for name, child in self._modules.items():
            sub = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(sub)

    def modules(self) -> Iterator["Module"]:
        for _, m in self.named_modules():
            yield m

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for mod_name, mod in self.named_modules(prefix):
            for p_name, p in mod._parameters.items():
                yield (f"{mod_name}.{p_name}" if mod_name else p_name), p

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for mod_name, mod in self.named_modules(prefix):
            for b_name, b in mod._buffers.items():
                yield (f"{mod_name}.{b_name}" if mod_name else b_name), b

    def num_parameters(self) -> int:
        """Total trainable scalar count."""
        return sum(p.data.size for p in self.parameters())

    # -- dtype -----------------------------------------------------------
    @property
    def dtype(self) -> np.dtype:
        """Floating dtype of the model (first parameter; float64 if none)."""
        for p in self.parameters():
            return p.data.dtype
        return np.dtype(np.float64)

    def to_dtype(self, dtype) -> "Module":
        """Cast every parameter and float buffer to ``dtype`` in place.

        ``model.to_dtype(np.float32)`` is the inference fast path: with
        every op dtype-preserving, a float32 model halves the working
        set of the convolution stack.  Integer/bool buffers are left
        untouched.  A cast parameter drops its pending gradient (its
        dtype would no longer match).  Casting to the dtype the model
        already has changes nothing and keeps the kernel caches.
        """
        dtype = np.dtype(dtype)
        if dtype.kind != "f":
            raise TypeError(f"to_dtype expects a float dtype; got {dtype}")
        changed = False
        for m in self.modules():
            for p in m._parameters.values():
                if p.data.dtype != dtype:
                    p.data = np.ascontiguousarray(p.data, dtype=dtype)
                    p.grad = None
                    changed = True
            for name, b in m._buffers.items():
                if b.dtype.kind == "f" and b.dtype != dtype:
                    cast = np.ascontiguousarray(b, dtype=dtype)
                    m._buffers[name] = cast
                    object.__setattr__(m, name, cast)
                    changed = True
        if changed:
            _clear_kernel_caches()
        return self

    # -- kernel backend ---------------------------------------------------
    @property
    def backend(self) -> Optional[str]:
        """Kernel backend this module dispatches on (None = thread default)."""
        return getattr(self, "_backend", None)

    def to_backend(self, backend: Optional[str]) -> "Module":
        """Select the kernel backend for this module and all children.

        ``backend`` names a registered backend (``"reference"``,
        ``"fast"``); ``None`` reverts to the thread-scoped default
        (see :func:`repro.backend.registry.use_backend`).  Calling the
        module selects its backend for the whole of ``forward``.
        """
        if backend is not None:
            from repro.backend.registry import known_backends

            if backend not in known_backends():
                raise ValueError(
                    f"unknown backend {backend!r}; known: {known_backends()}")
        for m in self.modules():
            object.__setattr__(m, "_backend", backend)
        return self

    # -- mode / grads ----------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for m in self.modules():
            object.__setattr__(m, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- state dict -------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat mapping of parameter and buffer names to array copies."""
        state: Dict[str, np.ndarray] = {}
        for name, p in self.named_parameters():
            state[name] = p.data.copy()
        for name, b in self.named_buffers():
            state[name] = b.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        own_params = dict(self.named_parameters())
        own_buffers = dict(self.named_buffers())
        missing = (set(own_params) | set(own_buffers)) - set(state)
        unexpected = set(state) - (set(own_params) | set(own_buffers))
        if strict and (missing or unexpected):
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        buffer_slots: Dict[str, Tuple["Module", str]] = {}
        for mod_name, mod in self.named_modules():
            for b_name in mod._buffers:
                full = f"{mod_name}.{b_name}" if mod_name else b_name
                buffer_slots[full] = (mod, b_name)
        for name, arr in state.items():
            if name in own_params:
                p = own_params[name]
                if p.data.shape != arr.shape:
                    raise ValueError(f"shape mismatch for {name}: {p.data.shape} vs {arr.shape}")
                if arr.dtype.kind == "f" and arr.dtype != p.data.dtype:
                    # Adopt the checkpoint's float dtype: loading a
                    # float32 state into a freshly built (float64)
                    # model must yield a float32 model, not silently
                    # promote the weights back.
                    p.data = np.ascontiguousarray(arr, dtype=arr.dtype)
                    p.grad = None
                else:
                    p.data[...] = arr
            elif name in own_buffers:
                b = own_buffers[name]
                if (arr.dtype.kind == "f" and b.dtype.kind == "f"
                        and arr.dtype != b.dtype):
                    mod, b_name = buffer_slots[name]
                    cast = np.ascontiguousarray(arr, dtype=arr.dtype)
                    mod._buffers[b_name] = cast
                    object.__setattr__(mod, b_name, cast)
                else:
                    b[...] = arr
        _clear_kernel_caches()

    def save(self, path: str) -> None:
        """Serialize the state dict to an ``.npz`` file."""
        np.savez_compressed(path, **{k.replace(".", "/"): v for k, v in self.state_dict().items()})

    def load(self, path: str) -> None:
        with np.load(path) as data:
            self.load_state_dict({k.replace("/", "."): data[k] for k in data.files})

    def __repr__(self) -> str:
        children = ", ".join(self._modules)
        return f"{type(self).__name__}({children})"


class Sequential(Module):
    """Chain modules in order; forward output feeds the next input."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            self._modules[str(i)] = layer

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]


class ModuleList(Module):
    """A list of child modules that registers each for traversal."""

    def __init__(self, modules: Optional[List[Module]] = None):
        super().__init__()
        self._list: List[Module] = []
        for m in modules or []:
            self.append(m)

    def append(self, module: Module) -> "ModuleList":
        self._modules[str(len(self._list))] = module
        self._list.append(module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._list)

    def __len__(self) -> int:
        return len(self._list)

    def __getitem__(self, idx: int) -> Module:
        return self._list[idx]
