"""Worst-case residual-clipping-noise (RCN) power model.

For layer t the detection-error power on its subcarriers bounds the clipping
noise left after subtracting the reconstructed layer. Two equivalent scales
are used:

* per-bin frequency-domain bound on P{Delta_t(k)} for k in the affected set:
  P_t = (1/|K_t|) * sum_{k in K_t} f(d_t(k), P{Z_{t-1}(k)}, M_t(k)),
* time-domain bound on P{delta_t}: |K_t| * P_t / N^2,

where f is the rim-model detection-error power and d_t(k) the minimum
distance of the constellation at the layer's effective power P_s(k).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import detection_error_power, min_distance
from .modems import affected_subcarriers
from .multilayer import SchemeConfig


@dataclass
class NoiseProfile:
    """Worst-case per-subcarrier total noise and per-layer RCN powers."""
    p_z: np.ndarray              # (N,) total noise power per bin
    bin_powers: np.ndarray       # (J,) per-layer frequency-domain RCN bound
    delta_powers: np.ndarray     # (J,) per-layer time-domain RCN bound


def worst_case_noise(config: SchemeConfig, p_v, rims: int = 3) -> NoiseProfile:
    """Iterate the worst-case total-noise bound layer by layer.

    p_v: per-bin post-equalization noise power (length N). A layer's number
    t comes from its bins, not its list position: 2^(t-1) is the largest
    power of two dividing all of them, so a pruned configuration keeps its
    layers' numbers. Layer t's bound spreads over |K_t| = N/2^t subcarriers,
    and its RCN is added to its affected subcarriers (nonzero multiples of
    2^t, excluding N/2), which contain the subcarriers of all later layers.
    """
    n = config.n
    p_v = np.asarray(p_v, dtype=float)
    if p_v.shape != (n,):
        raise ValueError("noise map length does not match the frame length")
    p_z = p_v.copy()
    bin_powers = np.zeros(len(config.layers))
    delta_powers = np.zeros(len(config.layers))
    for i, spec in enumerate(config.layers):
        if spec.kind != "aco":
            # the rim model covers QAM-loaded zero-clipped layers; a DCO or
            # PAM layer is last in its scheme so its residue feeds nothing
            continue
        L = spec.fold  # 2^(t-1)
        k_t = n // (2 * L)
        f = detection_error_power(min_distance(spec.M, spec.power), p_z[spec.bins], spec.M, rims)
        bin_powers[i] = 2.0 * float(np.sum(f)) / k_t  # both Hermitian mirrors
        delta_powers[i] = bin_powers[i] * k_t / n ** 2
        if bin_powers[i] > 0.0:
            p_z[affected_subcarriers(L.bit_length(), n)] += bin_powers[i]
    return NoiseProfile(p_z, bin_powers, delta_powers)
