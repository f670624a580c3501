"""Whole-batch transmit and receive for the tests: `transmit` draws and modulates a
batch in one call, and `receive` detects a batch without overwriting it."""

import numpy as np

from oofdm.multilayer import _detect, draw_symbols, modulate


def transmit(config, rng, frames: int):
    """Draw random symbols for every layer and superpose the layer signals."""
    return modulate(config, draw_symbols(config, rng, frames))


def receive(y, config) -> list:
    """Iterative layer-by-layer detection of an equalized frame batch: the
    detected symbol indices (F, n_j) of each layer. `y` is left unchanged."""
    return _detect(np.atleast_2d(np.asarray(y, dtype=float)).copy(), config)
