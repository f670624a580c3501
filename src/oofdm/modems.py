"""Optical OFDM primitives: the loadable and affected subcarrier index sets, the
layer index of a subcarrier, and closed-form power relations between
electrical, optical, and effective power. Every scheme, single-layer
ACO/DCO/PAM-DMT included, is transmitted by `multilayer.modulate`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import _check_length

# clipping behavior per layer of each fixed-depth scheme (LACO: "aco" per layer)
LAYER_KINDS = {"ado": ("aco", "dco"), "haco": ("aco", "pam"),
               "aco": ("aco",), "dco": ("dco",), "pam": ("pam",)}


def laco_layers(n: int) -> int:
    """Layer count of full layered ACO: every layer a length-N frame holds."""
    _check_length(n)
    return int(np.log2(n // 2))


def layer_kinds(scheme: str, n: int, layers: int | None = None) -> tuple:
    """Clipping behavior of each layer of a scheme; LACO has `layers` layers,
    at most and by default every layer a length-N frame holds. A fixed-depth
    scheme takes no layer count but its own."""
    _check_length(n)  # a fixed-depth scheme's kinds do not depend on N, but no frame has N = 4
    scheme = scheme.lower()
    if scheme == "laco":
        if layers is not None and not 1 <= layers <= laco_layers(n):
            raise ValueError(f"laco needs 1 to {laco_layers(n)} layers for N={n}, got {layers}")
        return ("aco",) * (laco_layers(n) if layers is None else layers)
    if scheme not in LAYER_KINDS:
        raise ValueError(f"unknown scheme {scheme!r}")
    kinds = LAYER_KINDS[scheme]
    if layers not in (None, len(kinds)):
        raise ValueError(f"{scheme} has {len(kinds)} layer{'s' * (len(kinds) > 1)}, got {layers}")
    return kinds


@lru_cache(maxsize=None)
def _loadable(n: int):
    """Read-only loadable bins 1..N-1 without N/2, and the layer index of each;
    cached, as the allocator asks for every layer's index sets per iteration."""
    _check_length(n)
    k = np.arange(1, n)
    k = k[k != n // 2]
    t = layer_index(k, n)
    k.flags.writeable = t.flags.writeable = False
    return k, t


@lru_cache(maxsize=None)
def affected_subcarriers(t: int, n: int) -> np.ndarray:
    """Subcarriers receiving residual clipping noise from layer t: nonzero
    multiples of 2^t below N, excluding N/2; cached and read-only."""
    k, layer = _loadable(n)
    if not 1 <= t <= laco_layers(n):
        raise ValueError(f"layer {t} out of range for N={n}")
    k = k[layer > t]
    k.flags.writeable = False
    return k


def layer_index(k, n: int):
    """Layer containing subcarrier k in the layered decomposition: the bit
    length of the lowest set bit of k (one plus its trailing zero bits)."""
    k = np.asarray(k, dtype=np.int64)
    if np.any(k <= 0) or np.any(k >= n) or np.any(k == n // 2):
        raise ValueError("subcarrier outside the loadable range")
    j = np.frexp(k & -k)[1].astype(np.int64)  # 2^(j-1) = 0.5 * 2^j
    return j if j.ndim else int(j)


@dataclass(frozen=True)
class PowerPair:
    """Electrical and optical power of a transmitted signal."""
    p_elec: float
    p_opt: float


def laco_ratios(layers: int):
    """(P_elec/P_eff, P_opt^2/P_eff) for layered ACO with per-layer amplitude
    ratios 2^((J-i)/2), i.e. equal per-subcarrier effective power."""
    r = np.sqrt(2.0) ** layers
    c = 2.0 / ((3.0 - 2.0 * np.sqrt(2.0)) * np.pi) * (r - 1.0) / (r + 1.0)
    return 2.0 - 2.0 / np.pi + c, c


def power_relations(scheme: str, p_eff: float, layers: int | None = None) -> PowerPair:
    """Closed-form power relations assuming equal per-subcarrier effective
    power (asymptotic in N)."""
    if not 0 < p_eff < np.inf:
        raise ValueError(f"effective power must be positive and finite, got {p_eff:g}")
    scheme = scheme.lower()
    with np.errstate(over="ignore"):  # a huge p_eff overflows to inf, rejected below
        if scheme in ("aco", "pam"):
            p_elec, p_opt = 2.0 * p_eff, np.sqrt(2.0 * p_eff / np.pi)
        elif scheme == "dco":
            p_elec, p_opt = 10.0 * p_eff, 3.0 * np.sqrt(p_eff)
        elif scheme == "ado":
            p_elec = (6.0 + 6.0 / np.sqrt(2.0 * np.pi)) * p_eff
            p_opt = (1.0 / np.sqrt(np.pi) + 3.0 / np.sqrt(2.0)) * np.sqrt(p_eff)
        elif scheme == "haco":
            p_elec, p_opt = (2.0 + 2.0 / np.pi) * p_eff, 2.0 / np.sqrt(np.pi) * np.sqrt(p_eff)
        elif scheme == "laco":
            if layers is None:
                raise ValueError("laco power relations need the layer count")
            re, ro = laco_ratios(layers)
            p_elec, p_opt = re * p_eff, np.sqrt(ro * p_eff)
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
    if not np.isfinite(p_elec) or not np.isfinite(p_opt):
        raise ValueError(f"effective power {p_eff:g} overflows the {scheme} power relations")
    return PowerPair(p_elec, p_opt)
