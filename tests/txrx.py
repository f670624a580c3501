"""Whole-batch transmit and receive for the tests: `transmit` draws and modulates a
batch in one call, and `receive` detects a batch without overwriting it."""

from typing import NamedTuple

import numpy as np

from oofdm.multilayer import _detect, draw_symbols, modulate


class Sent(NamedTuple):
    """A transmitted batch: the (F, N) frames and the per-layer (F, n_j) symbol indices."""
    x: np.ndarray
    sym_idx: list


def transmit(config, rng, frames: int) -> Sent:
    """Draw random symbols for every layer and superpose the layer signals."""
    sym_idx = draw_symbols(config, rng, frames)
    return Sent(modulate(config, sym_idx), sym_idx)


def receive(y, config) -> list:
    """Iterative layer-by-layer detection of an equalized frame batch: the
    detected symbol indices (F, n_j) of each layer. `y` is left unchanged."""
    return _detect(np.atleast_2d(np.asarray(y, dtype=float)).copy(), config)
