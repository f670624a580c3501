"""Optical OFDM primitives: effective/affected subcarrier index sets, the
layer index of a subcarrier, zero clipping, and closed-form power relations
between electrical, optical, and effective power. Every scheme, single-layer
ACO/DCO/PAM-DMT included, is transmitted by `multilayer.transmit`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import _check_length

SINGLE_LAYER_SCHEMES = ("aco", "dco", "pam")


def _validate_layer(scheme: str, j: int, n: int):
    _check_length(n)
    if scheme == "laco":
        j_max = int(np.log2(n // 2))
        if not 1 <= j <= j_max:
            raise ValueError(f"laco layer {j} out of range 1..{j_max} for N={n}")
    elif scheme in ("ado", "haco"):
        if j not in (1, 2):
            raise ValueError(f"{scheme} has layers 1 and 2, got {j}")
    elif scheme in SINGLE_LAYER_SCHEMES:
        if j != 1:
            raise ValueError(f"{scheme} is single-layer, got layer {j}")
    else:
        raise ValueError(f"unknown scheme {scheme!r}")


def effective_subcarriers(scheme: str, j: int, n: int) -> np.ndarray:
    """Data-bearing subcarrier indices of layer j; never contains 0 or N/2."""
    scheme = scheme.lower()
    _validate_layer(scheme, j, n)
    k = np.arange(1, n)
    if scheme in ("aco",) or (scheme in ("ado", "haco", "laco") and j == 1):
        return k[k % 2 == 1]
    if scheme in ("dco", "pam"):
        return k[k != n // 2]
    if scheme in ("ado", "haco"):  # j == 2: even subcarriers
        return k[(k % 2 == 0) & (k != n // 2)]
    # laco, j >= 2: k = 2^(j-1) * odd
    step = 2 ** (j - 1)
    return step * np.arange(1, n // step, 2)


def affected_subcarriers(t: int, n: int) -> np.ndarray:
    """Subcarriers receiving residual clipping noise from layer t: nonzero
    multiples of 2^t below N, excluding N/2."""
    _check_length(n)
    if t < 1 or 2 ** t >= n:
        raise ValueError(f"layer {t} out of range for N={n}")
    k = np.arange(2 ** t, n, 2 ** t)
    return k[k != n // 2]


def layer_index(k, n: int):
    """Layer containing subcarrier k in the layered decomposition: the bit
    length of the lowest set bit of k (one plus its trailing zero bits)."""
    k = np.asarray(k, dtype=np.int64)
    if np.any(k <= 0) or np.any(k >= n) or np.any(k == n // 2):
        raise ValueError("subcarrier outside the loadable range")
    j = np.frexp(k & -k)[1].astype(np.int64)  # 2^(j-1) = 0.5 * 2^j
    return j if j.ndim else int(j)


def clip(s):
    """Zero-clipping (s)+ = (s + |s|)/2."""
    return np.maximum(np.asarray(s), 0.0)


@dataclass(frozen=True)
class PowerTriple:
    """Electrical, optical, and effective power of a transmitted signal."""
    p_elec: float
    p_opt: float
    p_eff: float


def laco_ratios(layers: int):
    """(P_elec/P_eff, P_opt^2/P_eff) for layered ACO with per-layer amplitude
    ratios 2^((J-i)/2), i.e. equal per-subcarrier effective power."""
    r = np.sqrt(2.0) ** layers
    c = 2.0 / ((3.0 - 2.0 * np.sqrt(2.0)) * np.pi) * (r - 1.0) / (r + 1.0)
    return 2.0 - 2.0 / np.pi + c, c


def power_relations(scheme: str, p_eff: float, layers: int | None = None) -> PowerTriple:
    """Closed-form power relations assuming equal per-subcarrier effective
    power (asymptotic in N)."""
    scheme = scheme.lower()
    if scheme in ("aco", "pam"):
        return PowerTriple(2.0 * p_eff, np.sqrt(2.0 * p_eff / np.pi), p_eff)
    if scheme == "dco":
        return PowerTriple(10.0 * p_eff, 3.0 * np.sqrt(p_eff), p_eff)
    if scheme == "ado":
        p_elec = (6.0 + 6.0 / np.sqrt(2.0 * np.pi)) * p_eff
        p_opt = (1.0 / np.sqrt(np.pi) + 3.0 / np.sqrt(2.0)) * np.sqrt(p_eff)
        return PowerTriple(p_elec, p_opt, p_eff)
    if scheme == "haco":
        return PowerTriple((2.0 + 2.0 / np.pi) * p_eff, 2.0 / np.sqrt(np.pi) * np.sqrt(p_eff), p_eff)
    if scheme == "laco":
        if layers is None:
            raise ValueError("laco power relations need the layer count")
        re, ro = laco_ratios(layers)
        return PowerTriple(re * p_eff, np.sqrt(ro * p_eff), p_eff)
    raise ValueError(f"unknown scheme {scheme!r}")
