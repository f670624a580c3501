"""QAM/PAM constellation geometry, per-axis ML detection, closed-form SER, and
the rim-based detection-error power model.

The rim model approximates E{|x - xhat|^2} for ML detection of M-QAM in
complex AWGN by summing contributions of neighbors in the first three
concentric rings around the transmitted point.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import qfunc

# Rim position labels: one digit = rim 1, two digits = rim 2, three = rim 3.
RIM_POSITIONS = (1, 2, 10, 11, 12, 100, 101, 102, 103)
# Squared distance of each position in units of d_min^2.
RIM_DIST2 = {1: 1, 2: 2, 10: 4, 11: 5, 12: 8, 100: 9, 101: 10, 102: 13, 103: 18}
# Axis offsets (in d_min units) realizing each position in the grid.
_RIM_OFFSET = {1: (1, 0), 2: (1, 1), 10: (2, 0), 11: (2, 1), 12: (2, 2),
               100: (3, 0), 101: (3, 1), 102: (3, 2), 103: (3, 3)}


def _axis_levels(m: int):
    # odd-integer levels -(m-1), ..., (m-1)
    return 2.0 * np.arange(m) - (m - 1)


@dataclass(frozen=True)
class Constellation:
    """Immutable symbol alphabet scaled to the average power it was built with.

    QAM uses a rectangular grid (square when log2(M) is even); PAM loads are
    purely imaginary. Point index order is row-major over (I level, Q level).
    """
    kind: str
    M: int
    points: np.ndarray
    d_min: float
    m_i: int
    m_q: int

    @classmethod
    def qam(cls, M: int, power: float) -> "Constellation":
        if M < 2 or (M & (M - 1)) != 0:
            raise ValueError(f"QAM order must be a power of two >= 2, got {M}")
        b = int(round(np.log2(M)))
        m_i = 2 ** ((b + 1) // 2)
        m_q = 2 ** (b // 2)
        li = _axis_levels(m_i)
        lq = _axis_levels(m_q)
        grid = (li[:, None] + 1j * lq[None, :]).ravel()
        unit_power = (m_i ** 2 - 1 + m_q ** 2 - 1) / 3.0
        scale = np.sqrt(power / unit_power)
        return cls("qam", M, grid * scale, 2.0 * scale, m_i, m_q)

    @classmethod
    def pam(cls, M: int, power: float) -> "Constellation":
        if M < 2 or (M & (M - 1)) != 0:
            raise ValueError(f"PAM order must be a power of two >= 2, got {M}")
        levels = _axis_levels(M)
        scale = np.sqrt(3.0 * power / (M ** 2 - 1))
        return cls("pam", M, 1j * levels * scale, 2.0 * scale, 1, M)

    def detect(self, obs):
        """ML detection via per-axis quantization (exact for rectangular grids).

        Returns integer indices into `points`.
        """
        pairs = np.array(obs, dtype=complex)[..., None].view(float)
        return quantize(pairs, self.d_min, (self.m_i - 1, self.m_q - 1), self.m_q)


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
    Broadcasts over d_min and sigma2.
    """
    sigma2 = np.asarray(sigma2, dtype=float)
    if np.any(sigma2 <= 0):
        raise ValueError("noise power must be positive")
    if rims not in (1, 2, 3):
        raise ValueError("rims must be 1, 2 or 3")
    d_min = np.asarray(d_min, dtype=float)
    sigma_axis = np.sqrt(sigma2 / 2.0)
    p_a = qfunc(d_min / (2.0 * sigma_axis))
    p_b = qfunc(3.0 * d_min / (2.0 * sigma_axis)) if rims >= 2 else np.zeros_like(p_a)
    p_c = qfunc(5.0 * d_min / (2.0 * sigma_axis)) if rims >= 3 else np.zeros_like(p_a)
    # np.square: ** 2 on a float64 scalar calls pow(), one ulp off the array path
    p = {
        1: (p_a - p_b) * (1.0 - 2.0 * p_a),
        2: np.square(p_a - p_b),
        10: (p_b - p_c) * (1.0 - 2.0 * p_a),
        11: (p_b - p_c) * (p_a - p_b),
        12: np.square(p_b - p_c),
        100: p_c * (1.0 - 2.0 * p_a),
        101: p_c * (p_a - p_b),
        102: p_c * (p_b - p_c),
        103: np.square(p_c),
    }
    return {"p_a": p_a, "p_b": p_b, "p_c": p_c, "positions": p}


@lru_cache(maxsize=None)
def _neighbor_counts(M: int) -> tuple:
    """Average neighbor count of each rim position (RIM_POSITIONS order)."""
    c = Constellation.qam(M, float(M))  # any power; geometry only
    li = _axis_levels(c.m_i)
    lq = _axis_levels(c.m_q)
    occupied = {(int(a), int(b)) for a in li for b in lq}
    counts = []
    for pos in RIM_POSITIONS:
        da, db = _RIM_OFFSET[pos]
        # all sign/axis arrangements of the offset (da, db) in d_min units
        offsets = {(sa * 2 * da, sb * 2 * db) for sa in (1, -1) for sb in (1, -1)}
        offsets |= {(sa * 2 * db, sb * 2 * da) for sa in (1, -1) for sb in (1, -1)}
        total = sum((a + oa, b + ob) in occupied for a, b in occupied for oa, ob in offsets)
        counts.append(total / M)
    return tuple(counts)


def avg_neighbor_counts(M: int) -> dict:
    """Brute-force enumeration of average neighbor counts on the M-QAM grid,
    keyed by rim position."""
    return dict(zip(RIM_POSITIONS, _neighbor_counts(M)))


def detection_error_power(d_min, sigma2, M, rims: int = 3):
    """Rim-model approximation of E{|x - xhat|^2} for ML detection of M-QAM
    with minimum distance d_min in complex AWGN of power sigma2 (zero for
    zero noise). Broadcasts over d_min, sigma2 and M.
    """
    M = np.asarray(M)
    bits = np.round(np.log2(M)).astype(np.int64)
    if np.any(M < 2) or np.any(2 ** bits != M):
        raise ValueError("QAM order must be a power of two >= 2")
    sigma2 = np.asarray(sigma2, dtype=float)
    live = sigma2 != 0.0
    probs = rim_probabilities(d_min, np.where(live, sigma2, 1.0), rims)["positions"]
    table = np.array([_neighbor_counts(2 ** b) for b in range(1, bits.max(initial=1) + 1)])
    counts = table[bits - 1]  # (..., position)
    d2 = np.asarray(d_min, dtype=float) ** 2
    total = sum(d2 * RIM_DIST2[pos] * probs[pos] * counts[..., i]
                for i, pos in enumerate(RIM_POSITIONS))
    return np.where(live, total, 0.0)[()]
