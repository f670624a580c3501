"""Unit-power QAM/PAM alphabets (`unit_alphabet`, built once per kind and order),
the per-axis ML detector `quantize`, and two statistics of its decision cells:
the symbol error rate `grid_ser` (exact on every m_i x m_q grid, PAM the m_i = 1
one, as the axes err independently) and the rim-based detection-error power.

Both read one per-axis kernel: `_tails` gives T_w = Q((2w - 1) d / (2 sigma_axis)),
the chance of landing w or more cells off to a given side, and `_neighbors` the
average number of levels w cells away, 2 max(m - w, 0) / m. An axis errs with
`_neighbors`(m, 1) T_1. The rim model approximates E{|x - xhat|^2} from the
neighbors in the first three rims around the sent point. It is separable:
d_min^2 (E_I S_Q + E_Q S_I), where on each axis S = sum A(w) and E = sum w^2 A(w)
over w = -3..3, and A(w) = (T_|w| - T_(|w|+1)) `_neighbors`(m, |w|) / 2. With
(m_i, m_q) from `_grid` this covers square and rectangular grids, and a PAM axis
(m = 1), alike. On grids of 32 points or fewer, fewer rims can give more power
at low d/sigma: rim 1 credits an axis's whole tail to the nearest level, which
rim 2 partly moves to levels a small grid lacks. `_rim_power` evaluates the model
with one Q-function call, once per layer of the RCN chain.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import qfunc

@dataclass(frozen=True)
class Constellation:
    """One unit-power alphabet: an m_i x m_q QAM grid, or purely imaginary 1 x M PAM, and each
    point's levels i + 1j q in `quantize`'s units, row-major over (i, q); both read-only."""
    points: np.ndarray
    levels: np.ndarray
    d_min: float
    m_i: int
    m_q: int


def _grid(kind: str, M) -> tuple:
    """(m_i, m_q) of the order-M = 2^b grid on a layer of `kind`, broadcast over orders M:
    PAM is 1 x M, any other kind 2^ceil(b/2) x 2^floor(b/2) QAM."""
    M = np.asarray(M)
    bad = (M < 2) | (M & (M - 1) != 0)
    if np.any(bad):
        raise ValueError(f"constellation order must be a power of two >= 2, got {M[bad][0]}")
    m_q = 2 ** ((np.frexp(M)[1] - 1) // 2)  # 2^floor(b/2)
    return (np.ones_like(M), M) if kind == "pam" else (M // m_q, m_q)


@lru_cache(maxsize=None)
def unit_alphabet(kind: str, M: int) -> Constellation:
    """The unit-power alphabet of order M on a layer of `kind`, built once per process."""
    m_i, m_q = map(int, _grid(kind, M))
    scale = np.sqrt(3.0 / (m_i ** 2 + m_q ** 2 - 2))
    i, q = np.divmod(np.arange(M, dtype=float), m_q)
    points = ((2.0 * i - (m_i - 1)) + 1j * (2.0 * q - (m_q - 1))) * scale  # odd integers, scaled
    levels = i + 1j * q
    points.flags.writeable = levels.flags.writeable = False
    return Constellation(points, levels, 2.0 * scale, m_i, m_q)


def quantize(levels, top, m_q):
    """Per-axis ML decisions on float (re, im) pairs (..., 2) in level units, x / d_min + top / 2
    for an observation x of a unit-power alphabet, overwriting them: each is rounded into [0, top],
    top = (m_i - 1, m_q - 1); returns the index i * m_q + q. The parameters broadcast against
    `levels`, so one call detects bins of different orders; a PAM alphabet is the m_i = 1 grid.
    """
    np.rint(levels, out=levels)
    np.maximum(levels, 0.0, out=levels)  # np.clip with array bounds is twice as slow
    np.minimum(levels, top, out=levels)
    return (levels[..., 0] * m_q + levels[..., 1]).astype(np.int64)


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
    q = _tails(d, np.asarray(sigma2, dtype=float), 1.0)
    p_i, p_q = (_neighbors(m, 1.0) * q for m in (m_i, m_q))
    return p_i + p_q - p_i * p_q


def _tails(d, sigma2, w):
    """Q((2w - 1) d / (2 sigma_axis)) from one Q-function call, broadcast: the chance that one
    axis (sigma_axis^2 = sigma2 / 2) lands w or more decision cells off to a given side, zero
    for zero noise. A subnormal sigma2 can halve to zero; the clamp keeps its tails at zero."""
    sigma_axis = np.sqrt(np.maximum(sigma2 / 2.0, np.finfo(float).smallest_subnormal))
    return np.where(sigma2 != 0.0, qfunc((2.0 * w - 1.0) * d / (2.0 * sigma_axis)), 0.0)


def _neighbors(m, w):
    """2 max(m - w, 0) / m, broadcast: the average number of levels w cells away from a
    level of an axis of m levels."""
    return 2.0 * np.maximum(m - w, 0.0) / m


_CELLS = np.array([[1.0], [2.0], [3.0]])  # the rim model's w = 1, 2, 3 cells off
_CELL_WEIGHTS = np.array([_CELLS ** 0, _CELLS ** 2])[:, None]  # S: 1, E: w^2


def avg_neighbor_counts(M: int) -> np.ndarray:
    """The rim model's (2, 3) weights of the M-QAM grid: row 0 the I axis, row 1 the
    Q axis, column w - 1 the `_neighbors` of that axis at w = 1, 2, 3."""
    return _neighbors(np.array(_grid("qam", M), dtype=float)[:, None], _CELLS.T)


def _rim_power(d, sigma2, weights, rims: int):
    """The rim model's detection-error power of n bins: d and sigma2 (n,), weights the
    (2, 3, n) `_neighbors` of each bin's (m_i, m_q) at w = 1, 2, 3. One `_tails` call gives
    T_1..T_rims, the tails past them zero so that cell `rims` takes its whole tail, and each
    axis sums its cell terms as (t1 + t2) + t3, the order of a sum() from 0."""
    if rims not in (1, 2, 3):
        raise ValueError("rims must be 1, 2 or 3")
    tails = np.zeros((4, d.size))
    tails[:rims] = _tails(d, sigma2, _CELLS[:rims])
    cells = tails[:3] - tails[1:]  # w = 1, 2, 3
    t = _CELL_WEIGHTS * cells * weights  # (S or E, I or Q axis, w, n)
    s, e = (t[:, :, 0] + t[:, :, 1]) + t[:, :, 2]
    p = e * (1.0 - 2.0 * tails[0] + s)[::-1]  # E_I S_Q and E_Q S_I
    return d ** 2 * (p[0] + p[1])
