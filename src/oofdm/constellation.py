"""Unit-power QAM/PAM alphabets (`unit_alphabet`, built once per kind and order),
the per-axis ML detector `quantize`, closed-form SER, and the rim-based
detection-error power model.

The rim model approximates E{|x - xhat|^2} for ML detection of M-QAM in
complex AWGN by summing contributions of neighbors in the first three
concentric rings around the transmitted point. One offset table, _RIM_OFFSET,
defines the rim positions; their distances, hit probabilities (products of
per-axis decision-cell chances) and neighbor counts (from the grid shape) derive from it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import qfunc

# Axis offsets (a, b), a >= b, in d_min units of each rim position; label
# digits: one = rim 1, two = rim 2, three = rim 3.
_RIM_OFFSET = {1: (1, 0), 2: (1, 1), 10: (2, 0), 11: (2, 1), 12: (2, 2),
               100: (3, 0), 101: (3, 1), 102: (3, 2), 103: (3, 3)}
RIM_POSITIONS = tuple(_RIM_OFFSET)
RIM_DIST2 = {pos: a * a + b * b for pos, (a, b) in _RIM_OFFSET.items()}  # in d_min^2 units


def _axis_levels(m: int):
    # odd-integer levels -(m-1), ..., (m-1)
    return 2.0 * np.arange(m) - (m - 1)


@dataclass(frozen=True)
class Constellation:
    """One unit-power alphabet: an m_i x m_q QAM grid, or purely imaginary 1 x M
    PAM. Point index order is row-major over (I level, Q level); `points` is read-only."""
    M: int
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
    return Constellation(M, points, 2.0 * scale, m_i, m_q)


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


def ser_qam(M, eps, sigma2):
    """Symbol error rate of square M-QAM with average power eps in complex
    AWGN of power sigma2: 4a*Q(arg)*(1 - a*Q(arg)), a = (sqrt(M)-1)/sqrt(M).

    Approximate for rectangular (odd log2 M) grids.
    """
    a = (np.sqrt(M) - 1.0) / np.sqrt(M)
    q = qfunc(np.sqrt(3.0 * np.asarray(eps, dtype=float) / ((M - 1) * np.asarray(sigma2, dtype=float))))
    return 4.0 * a * q * (1.0 - a * q)


def ser_pam(M, eps, sigma2):
    """Symbol error rate of M-PAM with average power eps when only one axis of
    a complex AWGN of power sigma2 acts on the decision (per-axis variance
    sigma2/2): 2(M-1)/M * Q(sqrt(6 eps / ((M^2-1) sigma2))).
    """
    arg = np.sqrt(6.0 * np.asarray(eps, dtype=float) / ((M ** 2 - 1) * np.asarray(sigma2, dtype=float)))
    return 2.0 * (M - 1.0) / M * qfunc(arg)


def rim_probabilities(d_min, sigma2, rims: int = 3):
    """Per-position hit probabilities for the first three rims.

    p_a, p_b, p_c are the tail probabilities of one noise axis (variance
    sigma2/2) exceeding d/2, 3d/2, 5d/2. With rims=1, p_b = p_c = 0; with
    rims=2, p_c = 0, which zeroes the corresponding outer-rim positions.
    Position (a, b) is hit with probability cells[a] * cells[b], cells[w]
    being the chance that one axis lands w decision cells off to a given side.
    Broadcasts over d_min and sigma2.
    """
    sigma2 = np.asarray(sigma2, dtype=float)
    if np.any(sigma2 <= 0):
        raise ValueError("noise power must be positive")
    if rims not in (1, 2, 3):
        raise ValueError("rims must be 1, 2 or 3")
    d_min = np.asarray(d_min, dtype=float)
    # a subnormal sigma2 can halve to zero; the clamp keeps its tails at zero
    sigma_axis = np.sqrt(np.maximum(sigma2 / 2.0, np.finfo(float).smallest_subnormal))
    p_a, p_b, p_c = (qfunc(w * d_min / (2.0 * sigma_axis)) if w < 2 * rims
                     else np.zeros(np.broadcast(d_min, sigma_axis).shape) for w in (1.0, 3.0, 5.0))
    cells = (1.0 - 2.0 * p_a, p_a - p_b, p_b - p_c, p_c)
    p = {pos: cells[a] * cells[b] for pos, (a, b) in _RIM_OFFSET.items()}
    return {"p_a": p_a, "p_b": p_b, "p_c": p_c, "positions": p}


@lru_cache(maxsize=None)
def _neighbor_counts(M: int) -> tuple:
    """Average neighbor count of each rim position (RIM_POSITIONS order): a
    shift of (x, y) level steps fits max(m_i - |x|, 0) * max(m_q - |y|, 0)
    times on the grid, summed over the sign and axis arrangements of (a, b)."""
    m_i, m_q = _grid("qam", M)
    counts = []
    for a, b in _RIM_OFFSET.values():
        shifts = {(sx * u, sy * v) for u, v in ((a, b), (b, a)) for sx in (1, -1) for sy in (1, -1)}
        counts.append(sum(max(m_i - abs(x), 0) * max(m_q - abs(y), 0) for x, y in shifts) / M)
    return tuple(counts)


def avg_neighbor_counts(M: int) -> dict:
    """Average neighbor counts on the M-QAM grid, keyed by rim position."""
    return dict(zip(RIM_POSITIONS, _neighbor_counts(M)))


def detection_error_power(d_min, sigma2, M, rims: int = 3):
    """Rim-model approximation of E{|x - xhat|^2} for ML detection of M-QAM
    with minimum distance d_min in complex AWGN of power sigma2 (zero for
    zero noise). Broadcasts over d_min, sigma2 and M.
    """
    orders, which = np.unique(M, return_inverse=True)
    table = np.array([_neighbor_counts(m) for m in orders]).reshape(-1, len(RIM_POSITIONS))
    counts = table[which.reshape(np.shape(M))]  # (..., position)
    sigma2 = np.asarray(sigma2, dtype=float)
    live = sigma2 != 0.0
    probs = rim_probabilities(d_min, np.where(live, sigma2, 1.0), rims)["positions"]
    d2 = np.asarray(d_min, dtype=float) ** 2
    total = sum(d2 * RIM_DIST2[pos] * probs[pos] * counts[..., i]
                for i, pos in enumerate(RIM_POSITIONS))
    return np.where(live, total, 0.0)[()]
