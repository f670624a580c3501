"""Tests for the Hermitian-spectrum test helper."""

import numpy as np
import pytest

from hermitian import hermitian_embed


def test_hermitian_embed_rejects_out_of_range_bins():
    with pytest.raises(ValueError):
        hermitian_embed(np.ones(1, dtype=complex), [32], 64)
    with pytest.raises(ValueError):
        hermitian_embed(np.ones(1, dtype=complex), [0], 64)
