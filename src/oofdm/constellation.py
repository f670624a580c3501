"""Unit-power QAM/PAM alphabets (`unit_alphabet`, built once per kind and order),
the per-axis ML detector `quantize`, its symbol error rate `grid_ser` (exact on
every m_i x m_q grid, PAM the m_i = 1 one, as the axes err independently), and
the rim-based detection-error power model.

The rim model approximates E{|x - xhat|^2} for ML detection of M-QAM in
complex AWGN from the neighbors in the first three rims around the sent point.
It is separable: d_min^2 (E_I S_Q + E_Q S_I), where on each axis S = sum A(w)
and E = sum w^2 A(w) over w = -3..3. A(w) = cells[|w|] max(m - |w|, 0) / m is
the chance of landing w decision cells off times the share of the axis's m
levels that have a level there, so (m_i, m_q) from `_grid` covers square and
rectangular grids, and a PAM axis (m = 1), alike. On grids of 32 points or
fewer, fewer rims can give more power at low d/sigma: rim 1 credits an axis's
whole tail to the nearest level, which rim 2 partly moves to levels a small
grid lacks. `_rim_power` evaluates the model with one Q-function call, once per
`detection_error_power` call and once per layer of the RCN chain.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import qfunc

def _axis_levels(m: int):
    # odd-integer levels -(m-1), ..., (m-1)
    return 2.0 * np.arange(m) - (m - 1)


@dataclass(frozen=True)
class Constellation:
    """One unit-power alphabet: an m_i x m_q QAM grid, or purely imaginary 1 x M
    PAM. Point index order is row-major over (I level, Q level); `points` is read-only."""
    points: np.ndarray
    d_min: float
    m_i: int
    m_q: int


@lru_cache(maxsize=None)
def _grid(kind: str, M: int) -> tuple:
    """(m_i, m_q) of the order-M = 2^b grid on a layer of `kind`: PAM is 1 x M,
    any other kind 2^ceil(b/2) x 2^floor(b/2) QAM."""
    if M < 2 or M & (M - 1):
        raise ValueError(f"constellation order must be a power of two >= 2, got {M}")
    b = int(M).bit_length() - 1
    return (1, M) if kind == "pam" else (2 ** ((b + 1) // 2), 2 ** (b // 2))


@lru_cache(maxsize=None)
def unit_alphabet(kind: str, M: int) -> Constellation:
    """The unit-power alphabet of order M on a layer of `kind`, built once per process."""
    m_i, m_q = _grid(kind, M)
    scale = np.sqrt(3.0 / (m_i ** 2 + m_q ** 2 - 2))
    points = (_axis_levels(m_i)[:, None] + 1j * _axis_levels(m_q)[None, :]).ravel() * scale
    points.flags.writeable = False
    return Constellation(points, 2.0 * scale, m_i, m_q)


def quantize(pairs, d_min, top, m_q):
    """Per-axis ML decisions on float (re, im) pairs (..., 2), overwriting them:
    level x / d_min + top / 2 (bit for bit (x / (d_min/2) + top) / 2), rounded
    into [0, top], top = (m_i - 1, m_q - 1); returns the index i * m_q + q.
    The parameters broadcast against `pairs`, so one call detects bins of
    different orders; a PAM alphabet is the m_i = 1 grid.
    """
    pairs /= d_min
    pairs += np.multiply(top, 0.5)
    np.rint(pairs, out=pairs)
    np.maximum(pairs, 0.0, out=pairs)  # np.clip with array bounds is twice as slow
    np.minimum(pairs, top, out=pairs)
    return (pairs[..., 0] * m_q + pairs[..., 1]).astype(np.int64)


def min_distance(M, power):
    """d = sqrt(6 * power / (M - 1)); exact for square QAM grids. Broadcasts."""
    M = np.asarray(M)
    if np.any(M < 2):
        raise ValueError("constellation order must be >= 2")
    return np.sqrt(6.0 * np.asarray(power, dtype=float) / (M - 1))


def grid_ser(d, m_i, m_q, sigma2):
    """Symbol error rate of per-axis ML detection on an m_i x m_q grid of minimum
    distance d in complex AWGN of power sigma2 (zero for zero noise), broadcast: each
    axis errs with p = 2(1 - 1/m) Q(d / sqrt(2 sigma2)) (variance sigma2/2 against the
    half distance), the symbol with p_I + p_Q - p_I p_Q. PAM is the m_i = 1 grid.
    """
    with np.errstate(divide="ignore"):  # zero noise (+ 0.0 turns -0.0 into 0.0): Q(inf) = 0
        q = qfunc(d / np.sqrt(2.0 * np.asarray(sigma2, dtype=float) + 0.0))
    p_i, p_q = (2.0 * (1.0 - 1.0 / m) * q for m in (m_i, m_q))
    return p_i + p_q - p_i * p_q


@lru_cache(maxsize=None)
def avg_neighbor_counts(M: int) -> np.ndarray:
    """The rim model's table for the M-QAM grid, read-only and (2, 3): row 0 the
    I axis, row 1 the Q axis, column w - 1 the average number of levels w = 1,
    2, 3 cells away from a level of that axis, 2 max(m - w, 0) / m."""
    m = np.array(_grid("qam", M), dtype=float)[:, None]
    counts = 2.0 * np.maximum(m - np.arange(1.0, 4.0), 0.0) / m
    counts.flags.writeable = False
    return counts


def _neighbor_table(M) -> np.ndarray:
    """The (2, 3, n) table of `avg_neighbor_counts` for each of the n orders in M."""
    orders, which = np.unique(M, return_inverse=True)
    return np.stack([avg_neighbor_counts(m) for m in orders], axis=-1).take(which, axis=-1)


_TAIL_STEPS = np.array([[1.0], [3.0], [5.0]])  # p_a, p_b, p_c lie beyond (1, 3, 5) d/2
_CELL_WEIGHTS = np.array([[[1.0], [1.0], [1.0]], [[1.0], [4.0], [9.0]]])[:, None]  # S: 1, E: w^2


def _rim_power(d, sigma2, counts, rims: int):
    """`detection_error_power` of n bins: d and sigma2 (n,), counts their (2, 3, n)
    neighbor table. One Q-function call gives every tail, and each axis sums its
    cell terms as (t1 + t2) + t3, the order of a sum() from 0."""
    if rims not in (1, 2, 3):
        raise ValueError("rims must be 1, 2 or 3")
    live = sigma2 != 0.0
    # a subnormal sigma2 can halve to zero; the clamp keeps its tails at zero
    sigma_axis = np.sqrt(np.maximum(np.where(live, sigma2, 1.0) / 2.0, np.finfo(float).smallest_subnormal))
    tails = np.zeros((4, d.size))
    tails[:rims] = qfunc(_TAIL_STEPS[:rims] * d / (2.0 * sigma_axis))
    cells = tails[:3] - tails[1:]  # w = 1, 2, 3
    t = _CELL_WEIGHTS * cells * counts  # (S or E, I or Q axis, w, n)
    s, e = (t[:, :, 0] + t[:, :, 1]) + t[:, :, 2]
    p = e * (1.0 - 2.0 * tails[0] + s)[::-1]  # E_I S_Q and E_Q S_I
    return np.where(live, d ** 2 * (p[0] + p[1]), 0.0)


def detection_error_power(d_min, sigma2, M, rims: int = 3):
    """Rim-model approximation of E{|x - xhat|^2} for ML detection of M-QAM with minimum
    distance d_min in complex AWGN of power sigma2 (zero for zero noise), broadcast over
    d_min, sigma2 and M: d_min^2 (E_I S_Q + E_Q S_I) from each axis's tails p_a, p_b, p_c
    beyond d/2, 3d/2, 5d/2 (variance sigma2/2); rims=1 zeroes p_b and p_c, rims=2 p_c."""
    sigma2 = np.asarray(sigma2, dtype=float)
    if not np.all(sigma2 >= 0.0):
        raise ValueError("noise power must be positive")
    d_min, sigma2, M = np.broadcast_arrays(np.asarray(d_min, dtype=float), sigma2, M)
    return _rim_power(d_min.ravel(), sigma2.ravel(), _neighbor_table(M.ravel()), rims).reshape(M.shape)[()]
