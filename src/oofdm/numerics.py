"""Shared numerical primitives: frame-length check, Gaussian tail functions, seeded sampling.

Transform convention used throughout the package (numpy's default, used by
the engine's rfft/irfft calls): the forward DFT carries no normalization and
the inverse carries 1/N, so for a length-N real frame

    sum_n x(n)^2 = (1/N) sum_k |X(k)|^2,

i.e. average powers satisfy P{X} = N * P{x}. All power bookkeeping in the
clipping-noise model and the SER expressions relies on this convention.
"""
from __future__ import annotations

import numpy as np
from scipy import special


def _check_length(n: int):
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"frame length must be a power of two >= 8, got {n}")


def qfunc(x):
    """Gaussian tail Q(x) = P(N(0,1) > x) = erfc(x/sqrt(2))/2."""
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def qfunc_inv(p):
    """Inverse of qfunc on (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("qfunc_inv requires 0 < p < 1")
    out = -special.ndtri(p)
    return float(out) if out.ndim == 0 else out


def spawn_seeds(seed, count: int):
    """Derive `count` independent child seeds from a master seed.

    Batch b of a Monte Carlo run always uses child b, so results do not
    depend on how batches are scheduled across workers.
    """
    return np.random.SeedSequence(seed).spawn(count)
