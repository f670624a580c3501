"""Test helper: full-length Hermitian spectra built from independent loads."""

import numpy as np


def hermitian_embed(values, bins, n):
    """Place independent complex loads on `bins` (all < n/2) and mirror them.

    values: (..., len(bins)) complex loads; returns a (..., n) spectrum with
    X(n-k) = conj(X(k)) so the inverse transform is real.
    """
    values = np.asarray(values, dtype=complex)
    bins = np.asarray(bins, dtype=int)
    if bins.size and (bins.min() < 1 or bins.max() >= n // 2):
        raise ValueError("independent bins must lie in [1, n/2)")
    X = np.zeros(values.shape[:-1] + (n,), dtype=complex)
    X[..., bins] = values
    X[..., n - bins] = np.conj(values)
    return X
