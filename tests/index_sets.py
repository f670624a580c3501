"""Test oracle: the data bins of each scheme's layers, by explicit formula."""

import numpy as np


def effective_reference(scheme, j, n):
    """Data-bearing subcarriers of layer j, both Hermitian mirrors; never 0 or N/2."""
    k = np.arange(1, n)
    if scheme == "aco" or (scheme in ("ado", "haco", "laco") and j == 1):
        return k[k % 2 == 1]
    if scheme in ("dco", "pam"):
        return k[k != n // 2]
    if scheme in ("ado", "haco"):  # j == 2: even subcarriers
        return k[(k % 2 == 0) & (k != n // 2)]
    step = 2 ** (j - 1)  # laco, j >= 2: k = 2^(j-1) * odd
    return step * np.arange(1, n // step, 2)
