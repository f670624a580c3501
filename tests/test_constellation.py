"""Tests for constellation geometry, SER closed forms, and the rim model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oofdm.constellation import (RIM_DIST2, RIM_POSITIONS, Constellation,
                                 avg_neighbor_counts, detection_error_power,
                                 min_distance, quantize, rim_probabilities,
                                 ser_pam, ser_qam)
from oofdm.multilayer import LayerSpec

# frozen Monte Carlo oracles (ML detection, 10^6 trials, seed 20240817):
# 16-QAM at eps/sigma2 = 100: empirical SER and its standard error
SER_QAM16_SNR100_MC = 1.6e-5
SER_QAM16_SNR100_SE = 4.0e-6
# 16-QAM detection-error power E|x - xhat|^2 at d_min = 2, sigma2 = 1
# (i.e. sigma2 = eps/10), 2*10^6 trials
DET_ERR_POWER_MC = 0.945666


def ml_detect(observation, constellation: Constellation):
    """Brute-force nearest-point detection; ties broken by lowest index.

    Returns (index, point value). Vectorized over `observation`.
    """
    obs = np.asarray(observation, dtype=complex)
    d2 = np.abs(obs[..., None] - constellation.points) ** 2
    idx = np.argmin(d2, axis=-1)
    return idx, constellation.points[idx]


def test_qam_power_and_geometry():
    for M in (4, 16, 64, 256):
        c = Constellation.qam(M, 3.7)
        assert len(c.points) == M
        assert np.mean(np.abs(c.points) ** 2) == pytest.approx(3.7)
        assert np.sum(c.points) == pytest.approx(0.0, abs=1e-12)


def test_min_distance_matches_pairwise_enumeration():
    # nearest-neighbor distance of a generated 16-QAM set equals the closed form
    c = Constellation.qam(16, 5.0)
    d = np.abs(c.points[:, None] - c.points[None, :])
    d[d == 0] = np.inf
    assert abs(d.min() - min_distance(16, 5.0)) < 1e-12
    assert abs(d.min() - c.d_min) < 1e-12


def test_rectangular_qam_geometry():
    c = Constellation.qam(8, 1.0)
    assert (c.m_i, c.m_q) == (4, 2)
    assert c.m_i != c.m_q
    square = Constellation.qam(16, 1.0)
    assert square.m_i == square.m_q


def test_pam_points_are_imaginary():
    c = Constellation.pam(4, 2.0)
    assert np.max(np.abs(c.points.real)) == 0.0
    assert np.mean(np.abs(c.points) ** 2) == pytest.approx(2.0)


def test_detect_agrees_with_brute_force_ml():
    rng = np.random.default_rng(11)
    for maker, M in ((Constellation.qam, 16), (Constellation.qam, 8),
                     (Constellation.pam, 4)):
        c = maker(M, 1.0)
        obs = c.points[rng.integers(0, M, 2000)] + 0.3 * (
            rng.standard_normal(2000) + 1j * rng.standard_normal(2000))
        idx_bf, _ = ml_detect(obs, c)
        np.testing.assert_array_equal(c.detect(obs), idx_bf)


ALPHABETS = ([(Constellation.qam, 2 ** b) for b in range(1, 9)]
             + [(Constellation.pam, 2 ** b) for b in range(1, 5)])


@pytest.mark.parametrize("maker,M", ALPHABETS, ids=lambda a: getattr(a, "__name__", a))
@settings(max_examples=40, deadline=None)
@given(st.floats(1e-3, 1e3),
       st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), min_size=1,
                max_size=40))
def test_detect_is_brute_force_ml(maker, M, power, coords):
    # observations up to twice the unit-power extent, so the outer decision
    # regions are hit too; ties (a measure-zero set) may go either way
    c = maker(M, power)
    obs = np.sqrt(power) * np.array([re + 1j * im for re, im in coords])
    det = c.detect(obs)
    idx_bf, _ = ml_detect(obs, c)
    d2 = np.abs(obs[:, None] - c.points) ** 2
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
    make = Constellation.pam if kind == "pam" else Constellation.qam
    for b, order in enumerate(M):
        c = make(int(order), 1.0)
        np.testing.assert_array_equal(det[:, b], c.detect(obs[:, b]))
        idx_bf, _ = ml_detect(obs[:, b], c)
        d2 = np.abs(obs[:, b, None] - c.points) ** 2
        unique = np.sum(d2 <= d2.min(axis=1, keepdims=True) + 1e-9, axis=1) == 1
        np.testing.assert_array_equal(det[unique, b], idx_bf[unique])


def test_detect_roundtrip_noiseless():
    c = Constellation.qam(64, 1.0)
    np.testing.assert_array_equal(c.detect(c.points), np.arange(64))


def test_ser_qam_against_mc_oracle():
    # complex noise power sigma2, eps/sigma2 = 100
    assert abs(ser_qam(16, 100.0, 1.0) - SER_QAM16_SNR100_MC) <= 3 * SER_QAM16_SNR100_SE


def test_ser_qam_against_inline_mc():
    # 10^5 noisy 16-QAM observations at a moderate operating point
    rng = np.random.default_rng(5)
    c = Constellation.qam(16, 10.0)
    sigma2 = 0.5
    nobs = 10 ** 5
    idx = rng.integers(0, 16, nobs)
    noise = np.sqrt(sigma2 / 2) * (rng.standard_normal(nobs)
                                   + 1j * rng.standard_normal(nobs))
    p_hat = np.mean(c.detect(c.points[idx] + noise) != idx)
    se = np.sqrt(p_hat * (1 - p_hat) / nobs)
    assert abs(ser_qam(16, 10.0, sigma2) - p_hat) <= 3 * se


def test_ser_pam_against_mc_oracle():
    # at eps/sigma2 = 200 a 10^6-trial MC run saw zero errors; the closed form
    # must stay below the rule-of-three upper bound 3/10^6
    assert ser_pam(4, 200.0, 1.0) <= 3e-6


def test_ser_pam_against_inline_mc():
    rng = np.random.default_rng(6)
    c = Constellation.pam(4, 5.0)
    sigma2 = 1.0
    nobs = 10 ** 5
    idx = rng.integers(0, 4, nobs)
    noise = np.sqrt(sigma2 / 2) * (rng.standard_normal(nobs)
                                   + 1j * rng.standard_normal(nobs))
    p_hat = np.mean(c.detect(c.points[idx] + noise) != idx)
    se = np.sqrt(p_hat * (1 - p_hat) / nobs)
    assert abs(ser_pam(4, 5.0, sigma2) - p_hat) <= 3 * se


def _brute_force_counts(M):
    # independent re-enumeration of the average neighbor counts
    c = Constellation.qam(M, float(M))
    pts = c.points / (c.d_min / 2.0)  # odd-integer grid
    counts = {pos: 0.0 for pos in RIM_POSITIONS}
    for p in pts:
        d2 = np.round(np.abs(pts - p) ** 2 / 4.0).astype(int)
        for pos, dist2 in RIM_DIST2.items():
            counts[pos] += np.count_nonzero(d2 == dist2)
    return {pos: v / M for pos, v in counts.items()}


@pytest.mark.parametrize("M", [4, 16, 64])
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


def test_detection_error_power_against_mc_oracle():
    est = detection_error_power(2.0, 1.0, 16, rims=3)
    assert abs(est - DET_ERR_POWER_MC) / DET_ERR_POWER_MC < 0.05


def test_detection_error_power_monotone_in_rims():
    vals = [detection_error_power(2.0, 1.0, 16, rims=r) for r in (1, 2, 3)]
    assert vals[0] <= vals[1] <= vals[2]


def test_detection_error_power_zero_noise():
    assert detection_error_power(2.0, 0.0, 16) == 0.0
