"""Closed-form symbol-error-rate evaluation for the multi-layer schemes.

Two modes: "rcn_aware" feeds each layer the worst-case total noise (channel
noise plus accumulated residual-clipping-noise bounds from earlier layers);
"rcn_unaware" uses the channel noise alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import ser_pam, ser_qam
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
    evaluated at its effective power P_s(k) against the per-bin noise.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    p_v = noise_map(config, p_v)
    noise = worst_case_noise(config, p_v, rims).p_z if mode == "rcn_aware" else p_v
    # one SER call for every QAM layer's bins; only the last layer may be PAM
    qam = [spec for spec in config.layers if spec.kind != "pam"]
    layer_ser = []
    if qam:
        M, power, bins = (np.concatenate([getattr(spec, a) for spec in qam]) for a in ("M", "power", "bins"))
        layer_ser = np.split(ser_qam(M, power, noise[bins]), np.cumsum([spec.bins.size for spec in qam])[:-1])
    layer_ser += [ser_pam(spec.M, spec.power, noise[spec.bins]) for spec in config.layers[len(qam):]]
    total = 0.0
    for p in layer_ser:  # in layer order
        total += 2.0 * float(np.sum(p))
    n_prime = config.n_loaded
    return SerReport(layer_ser, total / n_prime if n_prime else 0.0)
