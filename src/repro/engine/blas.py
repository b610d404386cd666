"""Process-wide BLAS thread count, set through the OpenBLAS numpy loaded.

Every process that runs numpy GEMMs keeps its own OpenBLAS thread pool,
sized to the whole machine.  A process pool of N workers beside a busy
parent therefore runs up to (N + 1) x cores BLAS threads, and OpenBLAS's
idle threads busy-wait on cores the other processes need.  The engine's
policy (see :func:`repro.engine.executor._init_worker` and
``SolveServer._ensure_pool``) caps each pool worker at one thread and a
parent that serves beside its pool at the cores its workers leave free.

The count is changed at run time with stdlib :mod:`ctypes` against the
OpenBLAS shared object numpy already mapped (found in ``/proc/self/maps``
on Linux), so it works in forked and spawned workers alike and needs no
extra dependency.  Where no OpenBLAS (or none of the known symbol
spellings) is found, both functions do nothing and read ``None``.

The thread count does not change results: OpenBLAS splits a GEMM's
output, not its summed dimension, between threads.  Policy forwards and
gradients are bit-identical at 1 and 2 threads, and
``tests/test_determinism.py`` checks served == offline with the serving
process capped and the reference not.
"""

from __future__ import annotations

import ctypes
import functools
import os
from typing import Callable, NamedTuple, Optional

import numpy  # noqa: F401  (maps the OpenBLAS shared object into the process)

#: Setter spellings across OpenBLAS builds: plain, 64-bit-integer
#: (``openblas64_``), and the prefixed ``scipy-openblas`` wheels numpy ships.
SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
)


class BlasLibrary(NamedTuple):
    path: str
    set_threads: Callable[[int], None]
    get_threads: Callable[[], int]


def _mapped_openblas() -> list:
    """Paths of the OpenBLAS shared objects mapped into this process."""
    try:
        with open("/proc/self/maps") as handle:
            lines = handle.readlines()
    except OSError:
        return []
    paths = []
    for line in lines:
        fields = line.split(None, 5)
        if len(fields) < 6:
            continue
        path = fields[5].strip()
        if "openblas" in os.path.basename(path).lower() and path not in paths:
            paths.append(path)
    return paths


@functools.lru_cache(maxsize=None)
def _library() -> Optional[BlasLibrary]:
    """The loaded OpenBLAS and its thread setter/getter, or ``None``."""
    for path in _mapped_openblas():
        try:
            # RTLD_NOLOAD: a handle on the copy numpy mapped, never a new one.
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for setter in SETTERS:
            getter = setter.replace("_set_", "_get_")
            if hasattr(lib, setter) and hasattr(lib, getter):
                set_fn, get_fn = getattr(lib, setter), getattr(lib, getter)
                set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                return BlasLibrary(path, set_fn, get_fn)
    return None


def blas_library() -> Optional[str]:
    """Path of the OpenBLAS whose threads this module controls, or ``None``."""
    lib = _library()
    return None if lib is None else lib.path


def blas_threads() -> Optional[int]:
    """This process's BLAS thread count, or ``None`` without OpenBLAS."""
    lib = _library()
    return None if lib is None else int(lib.get_threads())


def set_blas_threads(n: int) -> Optional[int]:
    """Set this process's BLAS thread count; returns the previous count.

    A no-op returning ``None`` when no OpenBLAS is found.
    """
    lib = _library()
    if lib is None:
        return None
    previous = int(lib.get_threads())
    lib.set_threads(max(1, int(n)))
    return previous
