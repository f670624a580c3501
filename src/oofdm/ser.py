"""Closed-form symbol-error-rate evaluation for the multi-layer schemes.

Two modes: "rcn_aware" feeds each layer the worst-case total noise (channel
noise plus accumulated residual-clipping-noise bounds from earlier layers);
"rcn_unaware" uses the channel noise alone. `grid_ser` prices each bin on the grid
its layer's detection tables decide on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import grid_ser
from .multilayer import SchemeConfig
from .rcn import noise_map, worst_case_noise

MODES = ("rcn_aware", "rcn_unaware")


@dataclass
class SerReport:
    layer_ser: list            # per layer, per independent bin
    overall: float


def evaluate_ser(config: SchemeConfig, p_v, mode: str = "rcn_aware", rims: int = 3) -> SerReport:
    """Average symbol error probability over all loaded subcarriers.

    p_v: per-bin post-equalization noise power (length N). Every layer is
    evaluated at its effective power P_s(k) against the per-bin noise, all
    layers' bins in one `grid_ser` call.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    noise = worst_case_noise(config, p_v, rims).p_z if mode == "rcn_aware" else noise_map(config, p_v)
    if not config.layers:
        return SerReport([], 0.0)
    d = np.concatenate([spec.tables.d_min * np.sqrt(spec.power) for spec in config.layers])
    m = np.concatenate([spec.tables.top for spec in config.layers]) + 1.0
    ser = grid_ser(d, m[:, 0], m[:, 1], noise[config.loaded_bins])
    layer_ser = np.split(ser, np.cumsum([spec.bins.size for spec in config.layers])[:-1])
    total = 0.0
    for p in layer_ser:  # in layer order
        total += 2.0 * float(np.sum(p))
    return SerReport(layer_ser, total / config.n_loaded)
