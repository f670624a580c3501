"""Tests for constellation geometry, SER closed forms, and the rim model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oofdm.constellation import (RIM_DIST2, RIM_POSITIONS, _neighbor_counts, avg_neighbor_counts,
                                 detection_error_power, min_distance, quantize,
                                 rim_probabilities, ser_pam, ser_qam, unit_alphabet)
from oofdm.multilayer import LayerSpec

# frozen Monte Carlo oracles (ML detection, 10^6 trials, seed 20240817):
# 16-QAM at eps/sigma2 = 100: empirical SER and its standard error
SER_QAM16_SNR100_MC = 1.6e-5
SER_QAM16_SNR100_SE = 4.0e-6
# 16-QAM detection-error power E|x - xhat|^2 at d_min = 2, sigma2 = 1
# (i.e. sigma2 = eps/10), 2*10^6 trials
DET_ERR_POWER_MC = 0.945666


def ml_detect(observation, points):
    """Brute-force nearest-point detection; ties broken by lowest index.

    Returns (index, point value). Vectorized over `observation`.
    """
    obs = np.asarray(observation, dtype=complex)
    d2 = np.abs(obs[..., None] - points) ** 2
    idx = np.argmin(d2, axis=-1)
    return idx, points[idx]


def detect(obs, c):
    """Indices of the engine's per-axis decisions on observations `obs` of alphabet `c`."""
    pairs = np.array(obs, dtype=complex)[..., None].view(float)
    return quantize(pairs, c.d_min, (c.m_i - 1, c.m_q - 1), c.m_q)


def test_qam_power_and_geometry():
    for M in (4, 16, 64, 256):
        c = unit_alphabet("qam", M)
        assert len(c.points) == M
        assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0)
        assert np.sum(c.points) == pytest.approx(0.0, abs=1e-12)
        assert not c.points.flags.writeable


def test_min_distance_matches_pairwise_enumeration():
    # nearest-neighbor distance of a generated 16-QAM set equals the closed form
    c = unit_alphabet("qam", 16)
    d = np.abs(c.points[:, None] - c.points[None, :])
    d[d == 0] = np.inf
    assert abs(d.min() - min_distance(16, 1.0)) < 1e-12
    assert abs(d.min() - c.d_min) < 1e-12


def test_rectangular_qam_geometry():
    c = unit_alphabet("qam", 8)
    assert (c.m_i, c.m_q) == (4, 2)
    assert c.m_i != c.m_q
    square = unit_alphabet("qam", 16)
    assert square.m_i == square.m_q


def test_pam_points_are_imaginary():
    c = unit_alphabet("pam", 4)
    assert (c.m_i, c.m_q) == (1, 4)
    assert np.max(np.abs(c.points.real)) == 0.0
    assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0)


@pytest.mark.parametrize("M", [0, 1, 3, 6, -4])
def test_unit_alphabet_rejects_orders_off_the_grid(M):
    with pytest.raises(ValueError, match="power of two >= 2"):
        unit_alphabet("qam", M)


def test_detect_agrees_with_brute_force_ml():
    rng = np.random.default_rng(11)
    for kind, M in (("qam", 16), ("qam", 8), ("pam", 4)):
        c = unit_alphabet(kind, M)
        obs = c.points[rng.integers(0, M, 2000)] + 0.3 * (
            rng.standard_normal(2000) + 1j * rng.standard_normal(2000))
        idx_bf, _ = ml_detect(obs, c.points)
        np.testing.assert_array_equal(detect(obs, c), idx_bf)


ALPHABETS = ([("qam", 2 ** b) for b in range(1, 9)]
             + [("pam", 2 ** b) for b in range(1, 5)])


@pytest.mark.parametrize("kind,M", ALPHABETS)
@settings(max_examples=40, deadline=None)
@given(st.floats(1e-3, 1e3),
       st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), min_size=1,
                max_size=40))
def test_detect_is_brute_force_ml(kind, M, power, coords):
    # observations of an alphabet sent at `power`, up to twice its extent, so the
    # outer decision regions are hit too; the receiver scales them by 1/sqrt(power)
    # before detection. Ties (a measure-zero set) may go either way
    c = unit_alphabet(kind, M)
    points = np.sqrt(power) * c.points
    obs = np.sqrt(power) * np.array([re + 1j * im for re, im in coords])
    det = detect(obs / np.sqrt(power), c)
    idx_bf, _ = ml_detect(obs, points)
    d2 = np.abs(obs[:, None] - points) ** 2
    best = d2.min(axis=1)
    tol = 1e-9 * power
    np.testing.assert_array_less(d2[np.arange(len(obs)), det], best + tol)
    unique = np.sum(d2 <= best[:, None] + tol, axis=1) == 1
    np.testing.assert_array_equal(det[unique], idx_bf[unique])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["aco", "pam"]), st.data())
def test_layer_detector_is_brute_force_ml_per_bin(kind, data):
    # one layer mixing every order of its kind (QAM 2..256, PAM 2..16) in
    # random bin order; observations up to twice the unit-power extent
    orders = [2 ** b for b in range(1, 9 if kind == "aco" else 5)]
    M = np.array(data.draw(st.permutations(orders + data.draw(
        st.lists(st.sampled_from(orders), max_size=8)))))
    spec = LayerSpec(kind, 2 * np.arange(len(M)) + 1, M, np.ones(len(M)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    obs = rng.uniform(-2.0, 2.0, (50, len(M))) + 1j * rng.uniform(-2.0, 2.0, (50, len(M)))
    tables = spec.tables
    det = quantize(obs.copy()[..., None].view(float), tables.d_min, tables.top, tables.m_q)
    for b, order in enumerate(M):
        c = unit_alphabet(kind, int(order))
        np.testing.assert_array_equal(det[:, b], detect(obs[:, b], c))
        idx_bf, _ = ml_detect(obs[:, b], c.points)
        d2 = np.abs(obs[:, b, None] - c.points) ** 2
        unique = np.sum(d2 <= d2.min(axis=1, keepdims=True) + 1e-9, axis=1) == 1
        np.testing.assert_array_equal(det[unique, b], idx_bf[unique])


def test_detect_roundtrip_noiseless():
    c = unit_alphabet("qam", 64)
    np.testing.assert_array_equal(detect(c.points, c), np.arange(64))


def test_ser_qam_against_mc_oracle():
    # complex noise power sigma2, eps/sigma2 = 100
    assert abs(ser_qam(16, 100.0, 1.0) - SER_QAM16_SNR100_MC) <= 3 * SER_QAM16_SNR100_SE


def test_ser_qam_against_inline_mc():
    # 10^5 noisy 16-QAM observations at a moderate operating point
    rng = np.random.default_rng(5)
    c = unit_alphabet("qam", 16)
    sigma2 = 0.5
    nobs = 10 ** 5
    idx = rng.integers(0, 16, nobs)
    noise = np.sqrt(sigma2 / 2) * (rng.standard_normal(nobs)
                                   + 1j * rng.standard_normal(nobs))
    obs = np.sqrt(10.0) * c.points[idx] + noise  # sent at power 10
    p_hat = np.mean(detect(obs / np.sqrt(10.0), c) != idx)
    se = np.sqrt(p_hat * (1 - p_hat) / nobs)
    assert abs(ser_qam(16, 10.0, sigma2) - p_hat) <= 3 * se


def test_ser_pam_against_mc_oracle():
    # at eps/sigma2 = 200 a 10^6-trial MC run saw zero errors; the closed form
    # must stay below the rule-of-three upper bound 3/10^6
    assert ser_pam(4, 200.0, 1.0) <= 3e-6


def test_ser_pam_against_inline_mc():
    rng = np.random.default_rng(6)
    c = unit_alphabet("pam", 4)
    sigma2 = 1.0
    nobs = 10 ** 5
    idx = rng.integers(0, 4, nobs)
    noise = np.sqrt(sigma2 / 2) * (rng.standard_normal(nobs)
                                   + 1j * rng.standard_normal(nobs))
    obs = np.sqrt(5.0) * c.points[idx] + noise  # sent at power 5
    p_hat = np.mean(detect(obs / np.sqrt(5.0), c) != idx)
    se = np.sqrt(p_hat * (1 - p_hat) / nobs)
    assert abs(ser_pam(4, 5.0, sigma2) - p_hat) <= 3 * se


def _brute_force_counts(M):
    # independent re-enumeration of the average neighbor counts
    c = unit_alphabet("qam", M)
    pts = c.points / (c.d_min / 2.0)  # odd-integer grid
    counts = {pos: 0.0 for pos in RIM_POSITIONS}
    for p in pts:
        d2 = np.round(np.abs(pts - p) ** 2 / 4.0).astype(int)
        for pos, dist2 in RIM_DIST2.items():
            counts[pos] += np.count_nonzero(d2 == dist2)
    return {pos: v / M for pos, v in counts.items()}


@pytest.mark.parametrize("M", [2 ** b for b in range(1, 9)])
def test_avg_neighbor_counts_match_enumeration(M):
    counts = avg_neighbor_counts(M)
    oracle = _brute_force_counts(M)
    for pos in RIM_POSITIONS:
        assert counts[pos] == pytest.approx(oracle[pos], abs=1e-12)


def test_avg_neighbor_counts_known_values():
    c4 = avg_neighbor_counts(4)
    assert c4[1] == 2.0 and c4[2] == 1.0
    assert all(c4[pos] == 0.0 for pos in RIM_POSITIONS if pos not in (1, 2))
    c16 = avg_neighbor_counts(16)
    assert c16[1] == 3.0 and c16[2] == 2.25


def test_rim_probabilities_truncation():
    full = rim_probabilities(2.0, 1.0, rims=3)
    assert full["p_a"] > full["p_b"] > full["p_c"] > 0
    two = rim_probabilities(2.0, 1.0, rims=2)
    assert two["p_c"] == 0.0
    assert all(two["positions"][pos] == 0.0 for pos in (100, 101, 102, 103))
    one = rim_probabilities(2.0, 1.0, rims=1)
    assert one["p_b"] == 0.0 and one["p_c"] == 0.0
    assert one["positions"][1] == pytest.approx(one["p_a"] * (1 - 2 * one["p_a"]))
    with pytest.raises(ValueError):
        rim_probabilities(2.0, 1.0, rims=4)
    with pytest.raises(ValueError):
        rim_probabilities(2.0, 0.0)


def test_rim_distances():
    assert RIM_POSITIONS == (1, 2, 10, 11, 12, 100, 101, 102, 103)
    assert RIM_DIST2 == {1: 1, 2: 2, 10: 4, 11: 5, 12: 8, 100: 9, 101: 10, 102: 13, 103: 18}


@pytest.mark.parametrize("rims", [1, 2, 3])
def test_rim_probabilities_are_products_of_axis_cells(rims):
    # position (a, b) is hit when one axis lands a cells away and the other b
    d = np.array([0.5, 2.0, 4.0])
    r = rim_probabilities(d, np.array([1.0, 0.3, 2.0]), rims=rims)
    p_a, p_b, p_c = r["p_a"], r["p_b"], r["p_c"]
    expected = {
        1: (p_a - p_b) * (1.0 - 2.0 * p_a),
        2: (p_a - p_b) * (p_a - p_b),
        10: (p_b - p_c) * (1.0 - 2.0 * p_a),
        11: (p_b - p_c) * (p_a - p_b),
        12: (p_b - p_c) * (p_b - p_c),
        100: p_c * (1.0 - 2.0 * p_a),
        101: p_c * (p_a - p_b),
        102: p_c * (p_b - p_c),
        103: p_c * p_c,
    }
    assert set(r["positions"]) == set(RIM_POSITIONS) == set(expected)
    for pos in RIM_POSITIONS:
        assert np.all(r["positions"][pos] == expected[pos]), pos
    assert np.all(p_b == 0.0) == (rims < 2) and np.all(p_c == 0.0) == (rims < 3)


def test_detection_error_power_against_mc_oracle():
    est = detection_error_power(2.0, 1.0, 16, rims=3)
    assert abs(est - DET_ERR_POWER_MC) / DET_ERR_POWER_MC < 0.05


def test_detection_error_power_monotone_in_rims():
    vals = [detection_error_power(2.0, 1.0, 16, rims=r) for r in (1, 2, 3)]
    assert vals[0] <= vals[1] <= vals[2]


def test_detection_error_power_zero_noise():
    assert detection_error_power(2.0, 0.0, 16) == 0.0


@pytest.mark.parametrize("M", [0, 3])
def test_detection_error_power_rejects_orders_off_the_grid(M):
    # the same check and message as unit_alphabet; order 0 used to reach log2(0)
    with pytest.raises(ValueError, match=f"constellation order must be a power of two >= 2, got {M}"):
        detection_error_power(2.0, 1.0, np.array([16, M]))


def test_rim_model_caches_no_alphabet():
    # the neighbor counts need the grid shape only, never the points of an order
    _neighbor_counts.cache_clear()
    before = unit_alphabet.cache_info().currsize
    detection_error_power(1e-3, 1e-6, np.array([4, 2 ** 12]))
    assert unit_alphabet.cache_info().currsize == before
