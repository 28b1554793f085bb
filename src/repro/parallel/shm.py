"""Shared-memory ndarray transport for multiprocess fan-out.

The paper's serving story (§4) moves 512×512×32 CT chunks between
devices; the Python analogue of "don't copy the volume" is POSIX shared
memory.  A :class:`ShmArray` is a *picklable handle* — ``(name, shape,
dtype)`` — to an ndarray living in a ``multiprocessing.shared_memory``
segment.  The handle crosses the process boundary through the task
pipe (a few dozen bytes); the array itself never does.  Workers attach
with :meth:`ShmArray.asarray` and read or write the segment in place,
so both fan-out inputs (scan volumes) and gathered outputs (segmented
volumes, lung masks) move at memory speed rather than pickle speed.

Ownership protocol: the creating process is the owner and must call
:meth:`ShmArray.unlink` (or use :func:`shm_scope`) when the fan-out
completes; workers only :meth:`ShmArray.close` their attachment —
``multiprocessing.Pool`` workers do this automatically when the
handle is garbage collected.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["ShmArray", "shm_scope"]


class ShmArray:
    """Picklable handle to an ndarray stored in shared memory.

    Only ``name``, ``shape`` and ``dtype`` travel through pickle; the
    attached :class:`~multiprocessing.shared_memory.SharedMemory`
    object is per-process state and is re-opened lazily on first
    :meth:`asarray` in each process.
    """

    def __init__(self, name: str, shape: Tuple[int, ...], dtype: str):
        self.name = name
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self._shm: Optional[shared_memory.SharedMemory] = None

    # -- pickling: the handle travels, the attachment does not ----------
    def __getstate__(self):
        return {"name": self.name, "shape": self.shape, "dtype": self.dtype.str}

    def __setstate__(self, state):
        self.__init__(state["name"], state["shape"], state["dtype"])

    def __repr__(self) -> str:
        return f"ShmArray({self.name!r}, shape={self.shape}, dtype={self.dtype})"

    # -- construction ----------------------------------------------------
    @classmethod
    def create(cls, shape: Tuple[int, ...], dtype) -> "ShmArray":
        """Allocate a zero-filled shared segment of the given layout."""
        dtype = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape, dtype=np.int64)) * dtype.itemsize)
        shm = shared_memory.SharedMemory(create=True, size=nbytes)
        handle = cls(shm.name, tuple(shape), dtype.str)
        handle._shm = shm
        handle.asarray()[...] = 0
        return handle

    @classmethod
    def from_array(cls, array: np.ndarray) -> "ShmArray":
        """Copy ``array`` into a fresh shared segment (one copy, ever)."""
        array = np.ascontiguousarray(array)
        handle = cls.create(array.shape, array.dtype)
        handle.asarray()[...] = array
        return handle

    # -- access ----------------------------------------------------------
    def asarray(self) -> np.ndarray:
        """Zero-copy ndarray view over the segment (attaching if needed)."""
        if self._shm is None:
            self._shm = shared_memory.SharedMemory(name=self.name)
        return np.ndarray(self.shape, dtype=self.dtype, buffer=self._shm.buf)

    def copy(self) -> np.ndarray:
        """Private (heap) copy of the current contents."""
        return self.asarray().copy()

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Drop this process's attachment (segment persists)."""
        if self._shm is not None:
            self._shm.close()
            self._shm = None

    def unlink(self) -> None:
        """Destroy the segment (owner side; implies :meth:`close`)."""
        if self._shm is None:
            try:
                self._shm = shared_memory.SharedMemory(name=self.name)
            except FileNotFoundError:
                return
        shm, self._shm = self._shm, None
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass  # already unlinked by another owner


class shm_scope:
    """Context manager that owns and reclaims shared segments.

    ``with shm_scope() as scope:`` — segments created through
    ``scope.create`` / ``scope.share`` are unlinked on exit, normal or
    exceptional, so a crashed fan-out cannot leak ``/dev/shm`` space.
    """

    def __init__(self):
        self._handles: List[ShmArray] = []

    def create(self, shape: Tuple[int, ...], dtype) -> ShmArray:
        handle = ShmArray.create(shape, dtype)
        self._handles.append(handle)
        return handle

    def share(self, array: np.ndarray) -> ShmArray:
        handle = ShmArray.from_array(array)
        self._handles.append(handle)
        return handle

    def __enter__(self) -> "shm_scope":
        return self

    def __exit__(self, *exc) -> None:
        for handle in self._handles:
            handle.unlink()
        self._handles.clear()
