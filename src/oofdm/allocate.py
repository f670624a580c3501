"""SER-controlled bit loading and power allocation for layered ACO-OFDM.

The allocator alternates water-filling over the active subcarrier set with an
SNR-gap bit-loading floor, then refreshes the per-subcarrier worst-case noise
(channel noise plus accumulated residual-clipping-noise bounds from lower
layers) and repeats until the noise vector stops changing. The "rcn_unaware"
baseline keeps the noise fixed at the channel noise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelProfile
from .modems import _loadable
from .multilayer import SchemeConfig
from .numerics import qfunc_inv
from .rcn import worst_case_noise
from .ser import MODES

MAX_ITERS = 50  # outer iterations before `allocate` gives up on convergence


def snr_gap(p_e: float) -> float:
    """SNR gap Gamma(p_e) = (1/3) * [Qinv(p_e/4)]^2 for square-QAM loading."""
    if not 0.0 < p_e < 1.0:
        raise ValueError("target symbol error rate must be in (0, 1)")
    return float(qfunc_inv(p_e / 4.0)) ** 2 / 3.0


def waterfill(q, phi, budget: float) -> np.ndarray:
    """Maximize sum over phi of log(1 + P_s(k)/q(k)) subject to
    sum P_s <= budget, q(k) being the noise-to-gain ratio P_z(k)/|H(k)|^2.

    Exact KKT solution P_s(k) = max(0, mu - q(k)) with the water level mu
    found by sorting. Returns a full-length array, zero off phi.
    """
    if not 0 < budget < np.inf:  # an overflowing N^2 * P_eff is inf
        raise ValueError(f"power budget must be positive and finite, got {budget:g}")
    phi = np.asarray(phi, dtype=int)
    if phi.size == 0:
        raise ValueError("active subcarrier set is empty")
    q = np.asarray(q, dtype=float)
    qs = np.sort(q[phi])
    prefix = np.cumsum(qs)
    # with the m cheapest subcarriers active, mu = (budget + sum q)/m
    m_all = np.arange(1, len(qs) + 1)
    mu_all = (budget + prefix) / m_all
    valid = mu_all > qs  # water above the worst active subcarrier
    m = int(np.max(m_all[valid], initial=1))  # mu >= q_min: the cheapest bin is always active
    mu = mu_all[m - 1]
    p = np.zeros_like(q)
    p[phi] = np.maximum(0.0, mu - q[phi])
    return p


@dataclass
class AllocationResult:
    bits: np.ndarray          # (N,) loaded bits per subcarrier
    powers: np.ndarray        # (N,) effective power per subcarrier
    noise: np.ndarray         # (N,) final worst-case total noise (post-eq)
    iterations: int
    converged: bool
    history: list             # per-iteration dicts: total_bits, phi_size (+ noise_change if aware)
    mode: str

    @property
    def total_bits(self) -> int:
        return int(self.bits.sum())

    @property
    def loaded(self) -> np.ndarray:
        return np.flatnonzero(self.bits > 0)


def allocate(channel: ChannelProfile, p_eff: float, p_e: float,
             mode: str = "rcn_aware", rims: int = 3, max_bits: int = 8) -> AllocationResult:
    """Iterative bit and power allocation at effective-power budget N^2*p_eff.

    Noise bookkeeping is post-equalization throughout: the per-bin channel
    noise is N/|H(k)|^2 and the rate uses P_s(k)/P_z(k) directly, so the
    water-filling runs on P_z itself. Stops once the noise map converges, or after MAX_ITERS
    iterations; `history` holds each iteration's total bits, active-set size and noise change.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    n = channel.n
    gamma_gap = snr_gap(p_e)
    p_v = channel.bin_noise_power()
    budget = n ** 2 * float(p_eff)  # a Python float overflows to inf silently
    loadable, _ = _loadable(n)

    p_z = p_v.copy()
    history = []
    for iterations in range(1, MAX_ITERS + 1):
        phi = loadable
        while True:
            powers = waterfill(p_z, phi, budget)
            with np.errstate(over="ignore"):  # a huge gain overflows the rate to inf, clamped below
                rate = np.log2(1.0 + powers[phi] / (gamma_gap * p_z[phi]))
            b = np.floor(np.minimum(rate, max_bits)).astype(np.int64)
            bits = np.zeros(n, dtype=np.int64)
            bits[phi] = b
            if np.all(b > 0) or not np.any(b > 0):
                break
            phi = phi[b > 0]
        powers[bits == 0] = 0.0
        history.append({"total_bits": int(bits.sum()), "phi_size": len(phi)})
        if mode == "rcn_unaware":
            converged = True
            break
        loading = SchemeConfig.from_allocation(n, bits, powers)
        p_z_new = worst_case_noise(loading, p_v, rims).p_z
        # noise_change: the noise map's summed squared change over its mean square;
        # the loop has converged once it is at most 1e-3
        change, total = float(np.sum((p_z_new - p_z) ** 2)), float(np.sum(p_z ** 2))
        history[-1]["noise_change"] = change * n / total
        converged = change <= 1e-3 * total / n
        p_z = p_z_new
        if converged:
            break
    return AllocationResult(bits, powers, p_z, iterations, converged, history, mode)

