"""Test oracles for the rim model of the detection-error power.

`nine_position_power` is the paper's formulation: a sum over the nine rim
positions (a, b) of d^2 (a^2 + b^2) times the position's hit probability and
its average neighbor count, the counts enumerated on the alphabet's points.
`exact_error_power` is the untruncated per-axis model: every offset, and the
edge levels' decision cells with their full tails. `worst_case_noise_oracle`
and `ser_oracle` run the noise chain and the SER model one layer at a time,
each layer through the public `detection_error_power` or the per-axis SER of
its bins' alphabets.
"""

from functools import lru_cache

import numpy as np
from scipy.special import erfc

from oofdm.constellation import detection_error_power, min_distance, unit_alphabet
from oofdm.modems import affected_subcarriers

# Axis offsets (a, b), a >= b, in d_min units: rim r holds the positions with a = r.
RIM_OFFSETS = ((1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3))


def tail(x):
    """Gaussian upper tail Q(x)."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


@lru_cache(maxsize=None)
def neighbor_counts(M):
    """Average number of M-QAM points at offset (a, b) from a point, in any
    sign and axis arrangement, by enumeration. The nine squared distances
    a^2 + b^2 are distinct, so they identify the positions."""
    c = unit_alphabet("qam", M)
    pts = c.points / c.d_min  # grid with unit spacing
    dist2 = np.round(np.abs(pts[:, None] - pts[None, :]) ** 2).astype(int)
    return {(a, b): np.count_nonzero(dist2 == a * a + b * b) / M for a, b in RIM_OFFSETS}


def nine_position_power(d, sigma2, M, rims):
    """Rim-model E|x - xhat|^2 of one bin, summed position by position.
    Position (a, b) is hit with probability cells[a] * cells[b], cells[w]
    being the chance that one axis (variance sigma2/2) lands w decision cells
    off to a given side; rims < 3 zeroes the outer tails."""
    if sigma2 == 0.0:
        return 0.0
    s = np.sqrt(max(sigma2 / 2.0, np.finfo(float).smallest_subnormal))
    p_a, p_b, p_c = (float(tail(w * d / (2.0 * s))) if w < 2 * rims else 0.0 for w in (1, 3, 5))
    cells = (1.0 - 2.0 * p_a, p_a - p_b, p_b - p_c, p_c)
    counts = neighbor_counts(M)
    return sum(d ** 2 * (a * a + b * b) * (cells[a] * cells[b]) * counts[a, b]
               for a, b in RIM_OFFSETS)


def exact_error_power(d, sigma2, M):
    """Untruncated E|x - xhat|^2 of ML detection on the M-QAM grid: d^2 (E_I + E_Q),
    E the mean over sent levels i of sum_j (j - i)^2 P(j | i) on one axis.
    A cell that does not hold the sent level lies on one side of it, so its
    probability is the difference of two upper tails, Q(near) - Q(far): the
    form 1 - Q - (1 - Q) cancels at high SNR."""
    c = unit_alphabet("qam", M)
    s = np.sqrt(sigma2 / 2.0)
    total = 0.0
    for m in c.m_i, c.m_q:
        j = np.arange(m)
        off = (j[None, :] - j[:, None]).astype(float)
        lo = np.abs(np.where(j == 0, -np.inf, off - 0.5)) * d / s
        hi = np.abs(np.where(j == m - 1, np.inf, off + 0.5)) * d / s
        p = tail(np.minimum(lo, hi)) - tail(np.maximum(lo, hi))
        total += np.sum(off ** 2 * p) / m
    return d ** 2 * total


def worst_case_noise_oracle(config, p_v, rims):
    """(p_z, bin_powers, delta_powers) of the worst-case noise chain: per
    zero-clipped layer, the layer's detection-error powers against the noise
    so far, their sum as the layer's bound, and that bound added onto the
    layer's affected subcarriers."""
    n = config.n
    p_z = np.asarray(p_v, dtype=float).copy()
    bin_powers, delta_powers = np.zeros(len(config.layers)), np.zeros(len(config.layers))
    for i, spec in enumerate(config.layers):
        if spec.kind != "aco":
            continue
        k_t = n // (2 * spec.fold)
        f = detection_error_power(min_distance(spec.M, spec.power), p_z[spec.bins], spec.M, rims)
        bin_powers[i] = 2.0 * float(np.sum(f)) / k_t
        delta_powers[i] = bin_powers[i] * k_t / n ** 2
        if bin_powers[i] > 0.0:
            p_z[affected_subcarriers(spec.fold.bit_length(), n)] += bin_powers[i]
    return p_z, bin_powers, delta_powers


def ser_oracle(config, p_v, mode, rims):
    """(layer_ser, overall) of the SER model, one layer at a time: on each axis of a
    bin's m_i x m_q alphabet, at minimum distance d = d_min sqrt(P_s), an error
    with p = 2(1 - 1/m) Q(d / sqrt(2 sigma2)), and a symbol error unless neither
    axis errs, p_I + p_Q - p_I p_Q."""
    noise = worst_case_noise_oracle(config, p_v, rims)[0] if mode == "rcn_aware" else p_v
    layer_ser, total = [], 0.0
    for spec in config.layers:
        grids = [unit_alphabet(spec.kind, int(M)) for M in spec.M]
        d = np.array([c.d_min for c in grids]) * np.sqrt(spec.power)
        with np.errstate(divide="ignore"):  # zero noise: Q(inf) = 0
            q = tail(d / np.sqrt(2.0 * noise[spec.bins]))
        p_i, p_q = (2.0 * (1.0 - 1.0 / np.array([getattr(c, m) for c in grids])) * q
                    for m in ("m_i", "m_q"))
        layer_ser.append(p_i + p_q - p_i * p_q)
        total += 2.0 * float(np.sum(layer_ser[-1]))
    return layer_ser, total / config.n_loaded if config.n_loaded else 0.0
