"""Shared numerical primitives: fixed-convention FFT, Gaussian tail functions, seeded sampling.

Transform convention used throughout the package: the forward DFT carries no
normalization and the inverse carries 1/N, so for a length-N real frame

    sum_n x(n)^2 = (1/N) sum_k |X(k)|^2,

i.e. average powers satisfy P{X} = N * P{x}. All power bookkeeping in the
clipping-noise model and the SER expressions relies on this convention.
"""
from __future__ import annotations

import numpy as np
from scipy import special

# Relative imaginary residue above this after an inverse transform of a
# supposedly Hermitian spectrum indicates a bookkeeping bug upstream.
IMAG_RESIDUE_TOL = 1e-9


def _check_length(n: int):
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"frame length must be a power of two >= 8, got {n}")


def fft(x):
    """Forward DFT (unnormalized) along the last axis."""
    x = np.asarray(x)
    _check_length(x.shape[-1])
    return np.fft.fft(x)


def ifft(X):
    """Inverse DFT (1/N normalization) along the last axis."""
    X = np.asarray(X)
    _check_length(X.shape[-1])
    return np.fft.ifft(X)


def real_ifft(X):
    """Inverse DFT of a Hermitian-symmetric spectrum, returning the real frame.

    Raises if the imaginary residue exceeds IMAG_RESIDUE_TOL relative to the
    frame amplitude (guards Hermitian bookkeeping bugs).
    """
    x = ifft(X)
    scale = np.max(np.abs(x.real))
    if scale == 0.0:
        scale = 1.0
    residue = np.max(np.abs(x.imag)) / scale
    if residue > IMAG_RESIDUE_TOL:
        raise ValueError(f"spectrum is not Hermitian: imaginary residue {residue:.3e}")
    return x.real


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


def make_rng(seed):
    """Named RNG constructor; accepts an int seed, SeedSequence, or Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_seeds(seed, count: int):
    """Derive `count` independent child seeds from a master seed.

    Batch b of a Monte Carlo run always uses child b, so results do not
    depend on how batches are scheduled across workers.
    """
    return np.random.SeedSequence(seed).spawn(count)


def gaussian_frame(seed, variance: float, n: int):
    """Length-n i.i.d. zero-mean Gaussian frame with the given variance."""
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    rng = make_rng(seed)
    if variance == 0.0:
        return np.zeros(n)
    return rng.normal(0.0, np.sqrt(variance), size=n)
