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


def snr_gap(p_e: float) -> float:
    """SNR gap Gamma(p_e) = (1/3) * [Qinv(p_e/4)]^2 for square-QAM loading."""
    if not 0.0 < p_e < 1.0:
        raise ValueError("target symbol error rate must be in (0, 1)")
    return float(qfunc_inv(p_e / 4.0)) ** 2 / 3.0


def waterfill(h, p_z, phi, budget: float) -> np.ndarray:
    """Maximize sum over phi of log(1 + |H(k)|^2 P_s(k)/P_z(k)) subject to
    sum P_s <= budget.

    Exact KKT solution P_s(k) = max(0, mu - P_z(k)/|H(k)|^2) with the water
    level mu found by sorting. Returns a full-length array, zero off phi.
    """
    if budget <= 0:
        raise ValueError("power budget must be positive")
    phi = np.asarray(phi, dtype=int)
    if phi.size == 0:
        raise ValueError("active subcarrier set is empty")
    h = np.asarray(h, dtype=float)
    p_z = np.asarray(p_z, dtype=float)
    q = p_z[phi] / h[phi] ** 2
    order = np.argsort(q)
    qs = q[order]
    prefix = np.cumsum(qs)
    # with the m cheapest subcarriers active, mu = (budget + sum q)/m
    m_all = np.arange(1, len(qs) + 1)
    mu_all = (budget + prefix) / m_all
    valid = mu_all > qs  # water above the worst active subcarrier
    m = int(np.max(m_all[valid]))
    mu = mu_all[m - 1]
    p = np.zeros_like(h)
    p[phi] = np.maximum(0.0, mu - q)
    return p


@dataclass
class AllocationResult:
    bits: np.ndarray          # (N,) loaded bits per subcarrier
    powers: np.ndarray        # (N,) effective power per subcarrier
    noise: np.ndarray         # (N,) final worst-case total noise (post-eq)
    iterations: int
    converged: bool
    history: list             # per-iteration dicts: bits, powers, total_bits, phi_size
    mode: str

    @property
    def total_bits(self) -> int:
        return int(self.bits.sum())

    @property
    def loaded(self) -> np.ndarray:
        return np.flatnonzero(self.bits > 0)


def allocate(channel: ChannelProfile, p_eff: float, p_e: float,
             mode: str = "rcn_aware", rims: int = 3, eps_conv: float | None = None,
             max_iters: int = 50, max_bits: int = 8) -> AllocationResult:
    """Iterative bit and power allocation at effective-power budget N^2*p_eff.

    Noise bookkeeping is post-equalization throughout: the per-bin channel
    noise is N*Pv/|H(k)|^2 and the rate uses P_s(k)/P_z(k) directly, so the
    water-filling is called with unit gains.
    """
    if mode not in ("rcn_aware", "rcn_unaware"):
        raise ValueError("mode must be rcn_aware or rcn_unaware")
    n = channel.n
    gamma_gap = snr_gap(p_e)
    p_v = channel.bin_noise_power()
    budget = n ** 2 * p_eff
    loadable, _ = _loadable(n)

    p_z = p_v.copy()
    history = []
    converged = False
    iterations = 0
    bits = np.zeros(n, dtype=np.int64)
    powers = np.zeros(n)
    for _ in range(max_iters):
        iterations += 1
        phi = loadable.copy()
        while True:
            powers = waterfill(np.ones(n), p_z, phi, budget)
            rate = np.log2(1.0 + powers[phi] / (gamma_gap * p_z[phi]))
            b = np.minimum(np.floor(rate).astype(np.int64), max_bits)
            bits = np.zeros(n, dtype=np.int64)
            bits[phi] = b
            if np.all(b > 0) or not np.any(b > 0):
                break
            phi = phi[b > 0]
        powers[bits == 0] = 0.0
        history.append({"bits": bits.copy(), "powers": powers.copy(),
                        "total_bits": int(bits.sum()), "phi_size": len(phi)})
        if mode == "rcn_unaware":
            converged = True
            break
        loading = SchemeConfig.from_allocation(n, bits, powers)
        p_z_new = worst_case_noise(loading, p_v, rims).p_z
        eps = eps_conv if eps_conv is not None else 1e-3 * float(np.sum(p_z ** 2)) / n
        delta = float(np.sum((p_z_new - p_z) ** 2))
        p_z = p_z_new
        if delta <= eps:
            converged = True
            break
    return AllocationResult(bits, powers, p_z, iterations, converged, history, mode)

