"""Tests for constellation geometry, SER closed forms, and the rim model."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oofdm.constellation import (avg_neighbor_counts, detection_error_power, min_distance,
                                 quantize, ser_pam, ser_qam, unit_alphabet)
from oofdm.multilayer import LayerSpec
from oofdm.numerics import qfunc
from rim_oracle import exact_error_power, nine_position_power

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


@pytest.mark.parametrize("M", [2 ** b for b in range(1, 9)])
def test_avg_neighbor_counts_match_enumeration(M):
    # per axis, the average number of levels w = 1, 2, 3 steps from a level of the alphabet
    c = unit_alphabet("qam", M)
    for axis, coord in enumerate((c.points.real, c.points.imag)):
        levels = np.unique(np.round(coord / c.d_min, 9))
        steps = np.abs(levels[:, None] - levels[None, :])
        expected = [np.count_nonzero(np.isclose(steps, w)) / len(levels) for w in (1, 2, 3)]
        np.testing.assert_allclose(avg_neighbor_counts(M)[axis], expected, rtol=0, atol=1e-12)


def test_avg_neighbor_counts_known_values():
    np.testing.assert_array_equal(avg_neighbor_counts(4), [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    np.testing.assert_array_equal(avg_neighbor_counts(8), [[1.5, 1.0, 0.5], [1.0, 0.0, 0.0]])
    assert not avg_neighbor_counts(16).flags.writeable


def test_rim_truncation_and_rims_check():
    # one rim credits an axis's whole tail p_a to the next level: on the 2 x 2
    # grid the error power is d^2 * 2 p_a (1 - p_a); d = 2, sigma2 = 2
    p_a = qfunc(1.0)
    assert detection_error_power(2.0, 2.0, 4, rims=1) == pytest.approx(8.0 * p_a * (1.0 - p_a), rel=1e-14)
    with pytest.raises(ValueError, match="rims must be 1, 2 or 3"):
        detection_error_power(2.0, 1.0, 16, rims=4)


@pytest.mark.parametrize("rims", [1, 2, 3])
def test_kernel_matches_nine_position_sum(rims):
    # every QAM order the allocator can emit, square and rectangular, over
    # d / sigma from 0.01 to 30 at two noise powers
    ratio = np.geomspace(0.01, 30.0, 25)
    for sigma2 in (1e-3, 10.0):
        d = ratio * np.sqrt(sigma2)
        for M in (2 ** b for b in range(1, 11)):
            ref = [nine_position_power(x, sigma2, M, rims) for x in d]
            np.testing.assert_allclose(detection_error_power(d, sigma2, M, rims), ref,
                                       rtol=1e-14, atol=0.0, err_msg=f"M = {M}")


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10), st.floats(-2.0, 1.5), st.floats(-6.0, 6.0))
def test_three_rims_bound_the_untruncated_model(bits, log_ratio, log_sigma2):
    # the rims drop the edge levels' outer tails and every offset beyond 3,
    # all of them positive terms; log_ratio is log10(d / sigma)
    sigma2 = 10.0 ** log_sigma2
    d = 10.0 ** log_ratio * np.sqrt(sigma2)
    M = 2 ** bits
    assert detection_error_power(d, sigma2, M) <= exact_error_power(d, sigma2, M) * (1 + 1e-14)


# d / sigma (sigma^2 the complex noise power) from which each small grid has
# rim-1 <= rim-2 <= rim-3, with a margin over the measured crossover. Below
# it, the tail that fewer rims credit to a nearer level outweighs the farther
# levels one more rim adds, which a small grid mostly lacks: rim-1 > rim-2 for
# M <= 8, rim-2 > rim-3 for M = 16 and 32. Orders from 64 up hold everywhere.
RIM_ORDER_FROM = {2: 4.3, 4: 4.3, 8: 0.7, 16: 0.6, 32: 0.05}


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10), st.floats(-4.0, 2.0), st.floats(-6.0, 6.0))
def test_more_rims_give_more_error_power(bits, log_ratio, log_sigma2):
    M = 2 ** bits
    assume(10.0 ** log_ratio >= RIM_ORDER_FROM.get(M, 0.0))
    sigma2 = 10.0 ** log_sigma2
    d = 10.0 ** log_ratio * np.sqrt(sigma2)
    one, two, three = (detection_error_power(d, sigma2, M, r) for r in (1, 2, 3))
    assert one <= two * (1 + 1e-14) and two <= three * (1 + 1e-14)


def test_rim_count_inversion_on_a_small_grid():
    # 4-QAM at d / sigma = 2: one rim gives more than two
    one, two = (detection_error_power(2.0, 1.0, 4, r) for r in (1, 2))
    assert one == pytest.approx(0.579711, abs=1e-6) and two == pytest.approx(0.579622, abs=1e-6)


def test_detection_error_power_against_mc_oracle():
    est = detection_error_power(2.0, 1.0, 16, rims=3)
    assert abs(est - DET_ERR_POWER_MC) / DET_ERR_POWER_MC < 0.05


def test_detection_error_power_monotone_in_rims():
    vals = [detection_error_power(2.0, 1.0, 16, rims=r) for r in (1, 2, 3)]
    assert vals[0] <= vals[1] <= vals[2]


def test_detection_error_power_zero_noise():
    assert detection_error_power(2.0, 0.0, 16) == 0.0


@pytest.mark.parametrize("bad", [np.nan, -1.0])
def test_detection_error_power_rejects_nan_or_negative_noise(bad):
    # NaN passed the old sigma2 <= 0 check and came out as NaN
    with pytest.raises(ValueError, match="noise power must be positive"):
        detection_error_power(2.0, np.array([1.0, bad]), 16)


@pytest.mark.parametrize("M", [0, 3])
def test_detection_error_power_rejects_orders_off_the_grid(M):
    # the same check and message as unit_alphabet; order 0 used to reach log2(0)
    with pytest.raises(ValueError, match=f"constellation order must be a power of two >= 2, got {M}"):
        detection_error_power(2.0, 1.0, np.array([16, M]))


def test_rim_model_caches_no_alphabet():
    # the neighbor counts need the grid shape only, never the points of an order
    avg_neighbor_counts.cache_clear()
    before = unit_alphabet.cache_info().currsize
    detection_error_power(1e-3, 1e-6, np.array([4, 2 ** 12]))
    assert unit_alphabet.cache_info().currsize == before
