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

from .constellation import _neighbor_table, _rim_power, min_distance
from .modems import affected_subcarriers
from .multilayer import SchemeConfig


@dataclass
class NoiseProfile:
    """Worst-case per-subcarrier total noise and per-layer RCN powers."""
    p_z: np.ndarray              # (N,) total noise power per bin
    bin_powers: np.ndarray       # (J,) per-layer frequency-domain RCN bound
    delta_powers: np.ndarray     # (J,) per-layer time-domain RCN bound


def noise_map(config: SchemeConfig, p_v) -> np.ndarray:
    """p_v as floats, checked: one non-negative power per bin of the frame."""
    p_v = np.asarray(p_v, dtype=float)
    if p_v.shape != (config.n,):
        raise ValueError("noise map length does not match the frame length")
    if not np.all(p_v >= 0.0):
        raise ValueError("noise map must be non-negative, without NaN")
    return p_v


def worst_case_noise(config: SchemeConfig, p_v, rims: int = 3) -> NoiseProfile:
    """Iterate the worst-case total-noise bound layer by layer.

    p_v: per-bin post-equalization noise power (length N). A layer's number
    t comes from its bins, not its list position: 2^(t-1) is the largest
    power of two dividing all of them, so a pruned configuration keeps its
    layers' numbers. Layer t's bound spreads over |K_t| = N/2^t subcarriers,
    and its RCN is added to its affected subcarriers (nonzero multiples of
    2^t, excluding N/2), which contain the subcarriers of all later layers.
    Only zero-clipped layers are modeled (a DCO or PAM layer is last and feeds
    nothing), each by one rim-kernel call against the noise earlier layers
    left, on minimum distances and neighbor counts formed once for all bins.
    """
    n = config.n
    p_z = noise_map(config, p_v).copy()
    bin_powers, delta_powers = np.zeros((2, len(config.layers)))
    aco = [spec for spec in config.layers if spec.kind == "aco"]
    if not aco:
        return NoiseProfile(p_z, bin_powers, delta_powers)
    M = np.concatenate([spec.M for spec in aco])
    d = min_distance(M, np.concatenate([spec.power for spec in aco]))
    counts = _neighbor_table(M)
    bounds = np.cumsum([0] + [spec.bins.size for spec in aco])
    for i, (spec, lo, hi) in enumerate(zip(aco, bounds, bounds[1:])):
        L = spec.fold  # 2^(t-1)
        k_t = n // (2 * L)
        f = _rim_power(d[lo:hi], p_z[spec.bins], counts[..., lo:hi], rims)
        bin_powers[i] = 2.0 * float(np.sum(f)) / k_t  # both Hermitian mirrors
        delta_powers[i] = bin_powers[i] * k_t / n ** 2
        p_z[affected_subcarriers(L.bit_length(), n)] += bin_powers[i]
    return NoiseProfile(p_z, bin_powers, delta_powers)
