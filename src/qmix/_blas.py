"""The BLAS thread policy.  Importing qmix sets each OpenBLAS bundled with
numpy (``eigh``, ``matmul``) and scipy (``expm``) to one thread: most of
qmix's kernels work on d x d matrices or d^2 x d^2 superoperators with
d <= 16, where a BLAS thread pool costs more than it gains and the bits of
some results follow the thread count.  A kernel on a matrix of more than
`WIDE_ROWS` rows runs inside `blas_threads_for`, on the thread count the
library started with (``OPENBLAS_NUM_THREADS`` or the number of cores).  A
build with no bundled OpenBLAS (MKL, Accelerate) is left as it is."""

import ctypes
from contextlib import contextmanager
from pathlib import Path

import numpy
import scipy.linalg  # loads scipy's OpenBLAS, so the handles below are the ones in use

WIDE_ROWS = 256  # kernels on more rows than this (superoperators of d > 16) use the start thread count

_SUFFIXES = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
             "openblas_{}_num_threads")


def _bundled_openblas():
    """(set, get, start thread count) of each OpenBLAS in ``<pkg>.libs``."""
    libs = []
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for name in _SUFFIXES:
                setter = getattr(handle, name.format("set"), None)
                getter = getattr(handle, name.format("get"), None)
                if setter is not None and getter is not None:
                    getter.restype = ctypes.c_int
                    libs.append((setter, getter, getter()))
                    break
    return libs


_LIBS = _bundled_openblas()
for _set, _, _ in _LIBS:
    _set(1)


@contextmanager
def blas_threads_for(rows: int):
    """Run the block on each library's start thread count when its kernel
    works on a matrix of more than `WIDE_ROWS` rows; restore the counts after."""
    if rows <= WIDE_ROWS:
        yield
        return
    before = [get() for _, get, _ in _LIBS]
    for set_, _, start in _LIBS:
        set_(start)
    try:
        yield
    finally:
        for (set_, _, _), n in zip(_LIBS, before):
            set_(n)
