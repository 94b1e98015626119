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
import hashlib, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import qmix
from run import _openblas_threads
from qmix._blas import WIDE_ROWS, blas_threads_for
from qmix.dirichlet_gap import spectral_gap
from qmix.generators import random_lindblad

g = random_lindblad(16, np.random.default_rng(3))
print(hashlib.sha256(g.schrodinger_propagator(1.0).tobytes()).hexdigest())
print(repr(spectral_gap(g).lam))
threads = [_openblas_threads()]
with blas_threads_for(WIDE_ROWS):
    threads.append(_openblas_threads())
with blas_threads_for(WIDE_ROWS + 1):
    threads.append(_openblas_threads())
threads.append(_openblas_threads())
print(threads)
"""


def test_results_do_not_depend_on_the_blas_thread_count():
    """Importing qmix sets the bundled OpenBLAS to one thread, so a d = 16 run
    with OPENBLAS_NUM_THREADS=2 computes the bits of a one-thread run; only a
    kernel on more than WIDE_ROWS rows runs on the library's start count."""
    src = Path(qmix.__file__).resolve().parent.parent
    bench = src.parent / "bench"
    results = []
    for threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        res = subprocess.run([sys.executable, "-c", THREAD_PROBE, str(bench)], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        *bits, counts = res.stdout.splitlines()
        results.append(bits)
        counts = [set((c or {}).values()) for c in ast.literal_eval(counts)]
        assert counts[0] <= {1} and counts[1] <= {1} and counts[3] <= {1}, counts
        assert counts[2] <= {threads}, counts
    assert results[0] == results[1]
