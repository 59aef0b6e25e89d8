"""Thread count of the OpenBLAS that numpy loaded, set through the
library's own symbols.

OpenBLAS splits a product over its threads in ways that change the
last bits of the result, so a computation that must give the same bytes
on any machine runs with a fixed thread count.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# threads of training, so its bytes do not depend on the core count, and of
# split evaluation, so its forked workers do not each start one per core
BLAS_THREADS = 1

# (query, setter) pairs: the scipy-openblas wheels prefix their symbols
_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
            ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"))


@functools.cache
def _openblas():
    """(get, set) thread functions of numpy's bundled OpenBLAS, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


def can_set_threads() -> bool:
    return _openblas() is not None


@contextmanager
def threads(n: int):
    """Run the block with OpenBLAS on n threads, then restore the old
    count.  Without an OpenBLAS symbol the block runs unchanged."""
    lib = _openblas()
    if lib is None:
        yield
        return
    get, put = lib
    old = get()
    put(n)
    try:
        yield
    finally:
        put(old)
