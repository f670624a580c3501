"""Tests for SNR-gap bit loading, water-filling, and the iterative allocator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oofdm.allocate import allocate, snr_gap, waterfill
from oofdm.channel import ChannelProfile
from oofdm.modems import layer_index
from oofdm.multilayer import SchemeConfig
from oofdm.rcn import worst_case_noise

N = 1024


def test_snr_gap_reference_points():
    # Q^-1(0.3173/4) ~ 1.410 and Q^-1(1e-2/4) ~ 2.807
    assert snr_gap(0.3173) == pytest.approx(0.663, abs=0.002)
    assert snr_gap(1e-2) == pytest.approx(2.627, abs=0.002)


def test_snr_gap_domain():
    for p in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            snr_gap(p)


def test_waterfill_two_carrier_closed_form():
    # q = {1, 3}, budget 4: water level mu = 4 -> powers {3, 1}
    p = waterfill(np.ones(4), np.array([0.0, 1.0, 3.0, 0.0]),
                  np.array([1, 2]), 4.0)
    np.testing.assert_allclose(p, [0.0, 3.0, 1.0, 0.0])


def test_waterfill_drops_expensive_carriers():
    p = waterfill(np.ones(3), np.array([1.0, 100.0, 1.0]),
                  np.arange(3), 2.0)
    assert p[1] == 0.0
    assert np.sum(p) == pytest.approx(2.0)


def _waterfill_bisection(q, budget, iters=200):
    lo, hi = 0.0, budget + float(np.max(q))
    for _ in range(iters):
        mu = 0.5 * (lo + hi)
        if np.sum(np.maximum(0.0, mu - q)) > budget:
            hi = mu
        else:
            lo = mu
    mu = 0.5 * (lo + hi)
    return np.maximum(0.0, mu - q)


def test_waterfill_matches_bisection_oracle():
    rng = np.random.default_rng(9)
    for trial in range(5):
        n = 64
        q = rng.uniform(0.1, 10.0, n)
        budget = rng.uniform(1.0, 100.0)
        p = waterfill(np.ones(n), q, np.arange(n), budget)
        p_ref = _waterfill_bisection(q, budget)
        obj = np.sum(np.log1p(p / q))
        obj_ref = np.sum(np.log1p(p_ref / q))
        assert abs(obj - obj_ref) <= 1e-8
        assert np.sum(p) == pytest.approx(budget)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0.5, 2.0), st.floats(0.1, 10.0), st.booleans()),
                min_size=1, max_size=64),
       st.floats(10.0, 1e4))
def test_waterfill_kkt_and_budget(carriers, budget):
    # KKT: every active carrier is filled to one water level mu (p + q = mu),
    # every inactive one has q >= mu, and the whole budget is spent
    h, p_z, on = (np.array(col) for col in zip(*carriers))
    phi = np.flatnonzero(on)
    if phi.size == 0:
        phi = np.arange(len(h))
    p = waterfill(h, p_z, phi, budget)
    q = p_z / h ** 2
    assert np.all(p[np.setdiff1d(np.arange(len(h)), phi)] == 0.0)
    assert abs(p.sum() - budget) <= 1e-12 * budget
    active = phi[p[phi] > 0.0]
    mu = (p + q)[active]
    assert active.size > 0 and np.ptp(mu) <= 1e-12 * mu.max()
    inactive = np.setdiff1d(phi, active)
    assert np.all(q[inactive] >= mu.max() * (1.0 - 1e-12))


def test_waterfill_validation():
    with pytest.raises(ValueError):
        waterfill(np.ones(4), np.ones(4), np.array([1]), 0.0)
    with pytest.raises(ValueError):
        waterfill(np.ones(4), np.ones(4), np.array([], dtype=int), 1.0)


def test_flat_unaware_allocation_is_uniform():
    res = allocate(ChannelProfile.flat(N), 10.0 ** 1.8, 1e-2, mode="rcn_unaware")
    assert res.iterations == 1 and res.converged
    loaded_bits = res.bits[res.loaded]
    assert len(np.unique(loaded_bits)) == 1
    assert len(res.loaded) == N - 2  # all but DC and N/2
    assert np.sum(res.powers) == pytest.approx(N ** 2 * 10.0 ** 1.8)


def test_aware_allocation_converges_and_loads_fewer_bits():
    channel = ChannelProfile.exponential(N)
    p_eff = 10.0 ** 2.2
    aware = allocate(channel, p_eff, 1e-2, mode="rcn_aware")
    unaware = allocate(channel, p_eff, 1e-2, mode="rcn_unaware")
    assert aware.converged and aware.iterations <= 10
    assert aware.total_bits <= unaware.total_bits
    # the clipping-noise floor is visible in the final noise vector
    assert np.any(aware.noise > channel.bin_noise_power())


def test_aware_noise_grows_with_layer_depth():
    channel = ChannelProfile.flat(N)
    res = allocate(channel, 10.0 ** 2.2, 1e-2, mode="rcn_aware")
    loaded = res.loaded
    j = layer_index(loaded, N)
    mean_by_layer = [np.mean(res.noise[loaded[j == t]]) for t in (1, 2, 3)]
    assert mean_by_layer[0] < mean_by_layer[1] < mean_by_layer[2]


def test_unloaded_bins_carry_no_power():
    res = allocate(ChannelProfile.exponential(N), 10.0, 1e-2, mode="rcn_aware")
    assert np.all(res.powers[res.bits == 0] == 0.0)
    assert res.bits[0] == 0 and res.bits[N // 2] == 0
    assert np.all(res.bits <= 8)


def test_history_records_each_iteration():
    res = allocate(ChannelProfile.exponential(N), 10.0 ** 2.2, 1e-2,
                   mode="rcn_aware")
    assert len(res.history) == res.iterations
    assert res.history[-1]["total_bits"] == res.total_bits


def test_mode_validation():
    with pytest.raises(ValueError):
        allocate(ChannelProfile.flat(N), 1.0, 1e-2, mode="genie")


def test_aware_noise_is_the_ser_model_noise_with_layer_1_emptied():
    # odd subcarriers (LACO layer 1) nearly cut off, so nothing loads there;
    # the allocator's noise map is the one the SER model evaluates
    h = np.ones(N)
    h[1::2] = 1e-4
    channel = ChannelProfile(N, 1.0, h)
    res = allocate(channel, 10.0 ** 1.4, 1e-2)
    assert res.converged and not np.any(res.bits[1::2]) and res.total_bits > 0
    cfg = SchemeConfig.from_allocation(N, res.bits, res.powers)
    np.testing.assert_array_equal(res.noise, worst_case_noise(cfg, channel.bin_noise_power()).p_z)
