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
from .rcn import worst_case_noise

MODES = ("rcn_aware", "rcn_unaware")


@dataclass
class SerReport:
    layer_ser: list            # per layer, per independent bin
    overall: float
    approximate_orders: tuple  # non-square QAM orders evaluated with the square formula


def evaluate_ser(config: SchemeConfig, p_v, mode: str = "rcn_aware", rims: int = 3) -> SerReport:
    """Average symbol error probability over all loaded subcarriers.

    p_v: per-bin post-equalization noise power (length N). Every layer is
    evaluated at its effective power P_s(k) against the per-bin noise.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    p_v = np.asarray(p_v, dtype=float)
    noise = worst_case_noise(config, p_v, rims).p_z if mode == "rcn_aware" else p_v
    layer_ser = []
    total = 0.0
    approx = set()
    for spec in config.layers:
        sigma2 = noise[spec.bins]
        if spec.kind == "pam":
            p = ser_pam(spec.M, spec.power, sigma2)
        else:
            p = ser_qam(spec.M, spec.power, sigma2)
            approx |= {int(m) for m in np.unique(spec.M) if int(np.log2(m)) % 2}
        layer_ser.append(p)
        total += 2.0 * float(np.sum(p))
    n_prime = config.n_loaded
    return SerReport(layer_ser, total / n_prime if n_prime else 0.0, tuple(sorted(approx)))
