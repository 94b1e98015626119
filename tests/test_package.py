import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qmix

MODULES = ["qmix"] + sorted(m.name for m in pkgutil.iter_modules(qmix.__path__, "qmix."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []


THREAD_PROBE = """
import hashlib
import numpy as np
from qmix._blas import _LIBS, WIDE_ROWS, blas_threads_for
from qmix.dirichlet_gap import spectral_gap
from qmix.generators import random_lindblad


def counts():
    return [get() for _, get, _ in _LIBS]


g = random_lindblad(16, np.random.default_rng(3))
print(hashlib.sha256(g.schrodinger_propagator(1.0).tobytes()).hexdigest())
print(repr(spectral_gap(g).lam))
threads = [counts()]
with blas_threads_for(WIDE_ROWS):
    threads.append(counts())
with blas_threads_for(WIDE_ROWS + 1):
    threads.append(counts())
threads.append(counts())
print(threads)
"""


def test_results_do_not_depend_on_the_blas_thread_count():
    """Importing qmix sets the bundled OpenBLAS to one thread, so a d = 16 run
    with OPENBLAS_NUM_THREADS=2 computes the bits of a one-thread run; only a
    kernel on more than WIDE_ROWS rows runs on the library's start count."""
    if not qmix._blas._LIBS:
        pytest.skip("no bundled OpenBLAS: qmix leaves the BLAS thread count as it is")
    src = Path(qmix.__file__).resolve().parent.parent
    results = []
    for threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        res = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        *bits, counts = res.stdout.splitlines()
        results.append(bits)
        counts = [set(c) for c in ast.literal_eval(counts)]
        assert counts[0] <= {1} and counts[1] <= {1} and counts[3] <= {1}, counts
        assert counts[2] <= {threads}, counts
    assert results[0] == results[1]
