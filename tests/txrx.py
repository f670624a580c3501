"""Whole-batch transmit and a waveform receiver for the tests: `transmit` draws and
modulates a batch in one call, `receive` detects the layers of received frames in time,
the oracle of the engine's bin-domain receiver `multilayer._detect`, and `noise_frames`
turns a selective channel's noise spectrum into the frames it adds."""

from typing import NamedTuple

import numpy as np

from oofdm.constellation import quantize
from oofdm.multilayer import _synthesize, draw_symbols, modulate


class Sent(NamedTuple):
    """A transmitted batch: the (F, N) frames and the per-layer (F, n_j) symbol indices."""
    x: np.ndarray
    sym_idx: list


def transmit(config, rng, frames: int) -> Sent:
    """Draw random symbols for every layer and superpose the layer signals."""
    sym_idx = draw_symbols(config, rng, frames)
    return Sent(modulate(config, sym_idx), sym_idx)


def noise_frames(config, v, rng=None):
    """Inverse FFT of the noise spectrum `v` (F, n_loaded, 2) scattered onto the loaded bins,
    with Gaussian noise of per-axis std 20 on every other bin if `rng` is given."""
    half = np.zeros((len(v), config.n // 2 + 1), dtype=complex)
    if rng is not None:
        half[:] = 20.0 * (rng.standard_normal(half.shape) + 1j * rng.standard_normal(half.shape))
        half[:, [0, -1]] = half[:, [0, -1]].real  # real DC and Nyquist bins
    half[:, config.loaded_bins] = v[..., 0] + 1j * v[..., 1]
    return np.fft.irfft(half, config.n)


def observations(spectrum, tables):
    """The layer's bins of `spectrum` in the quantizer's level units, Y/(sqrt(P_s) d_min) plus
    the centre (m_i - 1)/2 + i (m_q - 1)/2, as float (re, im) pairs (F, n_j, 2)."""
    level = np.multiply(spectrum[:, tables.cols], tables.scale, order="C") + tables.centre
    return level.view(float).reshape(len(spectrum), -1, 2)


def receive(y, config) -> list:
    """Iterative layer-by-layer detection of an equalized frame batch: the detected symbol
    indices (F, n_j) of each layer. The residual, folded onto each layer's period, has its
    real FFT taken, and the layer's bins are detected; but for the last layer, L times the
    layer remodulated and clipped is then subtracted. `y` is left unchanged."""
    resid = np.atleast_2d(np.asarray(y, dtype=float)).copy()
    n, frames, det_idx = config.n, resid.shape[0], []
    for spec in config.layers:
        tab, L = spec.tables, spec.fold
        if resid.shape[-1] > n // L:
            resid = resid.reshape(frames, -1, n // L).sum(axis=1)
        obs = observations(np.fft.rfft(resid), tab)
        det_idx.append(quantize(obs, tab.top, tab.m_q))
        if len(det_idx) == len(config.layers):
            break  # nothing reads the last layer's residual
        x_hat = _synthesize(spec, det_idx[-1], n)
        np.maximum(x_hat, 0.0, out=x_hat)  # zero-clipped: only the last layer may be DCO
        resid -= x_hat if L == 1 else L * x_hat  # resid holds the sum of L periods
    return det_idx
