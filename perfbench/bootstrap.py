"""Imported first by every benchmark entry point, before numpy.

Caps the BLAS/OpenMP thread pools at one thread (all load comes from one
single-threaded process) and puts the checkout's `src` first on sys.path, so
the package under test is the one beside this directory, not an installed one.
"""
import os
import sys
from pathlib import Path

THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_CAPS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
