"""Tests for the worst-case residual-clipping-noise power model."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import oofdm.constellation as constellation
from oofdm.channel import ChannelProfile
from oofdm.constellation import min_distance
from oofdm.modems import affected_subcarriers, layer_index
from oofdm.multilayer import SchemeConfig
from oofdm.numerics import qfunc
from oofdm.rcn import worst_case_noise
from oofdm.ser import MODES, evaluate_ser
from rim_oracle import nine_position_power, rim_power, ser_oracle, worst_case_noise_oracle

N = 1024

# reference data, 64-QAM layered ACO, flat channel, unit noise power:
# time-domain worst-case clipping-noise power of layer 1 (3 rims) and the
# 1-/2-rim variants, indexed by effective SNR in dB
LAYER1_3RIMS = {0: 0.192746, 10: 0.455389, 20: 0.241588}
LAYER1_1RIM_0DB = 0.061810
LAYER1_2RIMS_0DB = 0.143771
LAYER3_3RIMS_10DB = 0.276659
ALL_LAYERS_3RIMS_0DB = [0.192746, 0.107427, 0.057798, 0.030432,
                        0.015805, 0.008135, 0.004161, 0.002119]
ALL_LAYERS_3RIMS_20DB = [0.241588, 0.302054, 0.373781, 0.372337,
                         0.318939, 0.254955, 0.186512, 0.122529]


def _profile(gamma_eff_db, rims=3):
    cfg = SchemeConfig.uniform("laco", N, 64, 10.0 ** (gamma_eff_db / 10.0), layers=9)
    return worst_case_noise(cfg, np.full(N, float(N)), rims=rims)


@pytest.mark.parametrize("gamma,ref", sorted(LAYER1_3RIMS.items()))
def test_layer1_worst_case_power(gamma, ref):
    est = _profile(gamma).delta_powers[0]
    assert abs(est - ref) / ref < 0.05


def test_rim_count_ordering_at_low_snr():
    vals = [_profile(0, rims=r).delta_powers[0] for r in (1, 2, 3)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[0] == pytest.approx(LAYER1_1RIM_0DB, rel=0.05)
    assert vals[1] == pytest.approx(LAYER1_2RIMS_0DB, rel=0.05)


def test_layer3_worst_case_power():
    est = _profile(10).delta_powers[2]
    assert est == pytest.approx(LAYER3_3RIMS_10DB, rel=0.05)


@pytest.mark.parametrize("gamma,refs", [(0, ALL_LAYERS_3RIMS_0DB),
                                        (20, ALL_LAYERS_3RIMS_20DB)])
def test_all_layer_profile(gamma, refs):
    est = _profile(gamma).delta_powers[: len(refs)]
    np.testing.assert_allclose(est, refs, rtol=0.05)


def test_delta_and_bin_powers_are_consistent():
    prof = _profile(10)
    for t in range(1, 10):
        k_t = N // 2 ** t
        assert prof.delta_powers[t - 1] == pytest.approx(
            prof.bin_powers[t - 1] * k_t / N ** 2)


def test_noise_accumulates_on_affected_bins_only():
    prof = _profile(10)
    p_v = np.full(N, float(N))
    # layer-1 noise appears exactly on the even non-(0, N/2) bins
    extra = prof.p_z - p_v
    b1 = affected_subcarriers(1, N)
    assert np.all(extra[b1] > 0)
    odd = np.arange(1, N, 2)
    np.testing.assert_array_equal(extra[odd], 0.0)
    assert extra[0] == 0.0 and extra[N // 2] == 0.0
    # deeper bins accumulate more layers of noise
    assert extra[4] > extra[2]
    assert extra[256] > extra[4]


def test_layer_number_comes_from_the_bins():
    # the allocator can empty LACO layer 1, leaving layer 2 first in the list:
    # its RCN still lands on multiples of 4 only, bounded over |K_2| = N/4
    full = SchemeConfig.uniform("laco", N, 64, 10.0, layers=9)
    cfg = SchemeConfig(N, full.layers[1:])
    p_v = np.full(N, float(N))
    prof = worst_case_noise(cfg, p_v)
    extra = prof.p_z - p_v
    np.testing.assert_array_equal(extra[2::4], 0.0)
    assert np.all(extra[affected_subcarriers(2, N)] > 0)
    spec = cfg.layers[0]
    f = rim_power(min_distance(spec.M, spec.power), p_v[spec.bins], spec.M)
    assert prof.bin_powers[0] == pytest.approx(2.0 * np.sum(f) / (N // 4))
    assert prof.delta_powers[0] == pytest.approx(prof.bin_powers[0] / (4 * N))


def test_chain_uses_accumulated_noise():
    # layer 2 sees channel noise plus the layer-1 bound, so its bound exceeds
    # the value computed from channel noise alone at high SNR
    prof = _profile(20)
    cfg = SchemeConfig.uniform("laco", N, 64, 100.0, layers=9)
    alone = worst_case_noise(SchemeConfig(N, cfg.layers[1:2]), np.full(N, float(N)))
    assert prof.bin_powers[1] > alone.bin_powers[0]


def _layer_error_power(M, power, noise_power, rims=3):
    # per-bin detection-error power of a layer at effective power P_s(k) and total noise P_z(k)
    return rim_power(min_distance(M, power), noise_power, M, rims)


def test_layer_error_power_matches_scalar_evaluation():
    vals = _layer_error_power(np.array([16, 64]), np.array([2.0, 2.0]), np.array([1.0, 2.0]))
    ref = [_layer_error_power(16, 2.0, 1.0), _layer_error_power(64, 2.0, 2.0)]
    np.testing.assert_allclose(vals, ref)


def _scalar_error_power(M, power, noise_power, rims):
    # reference: the paper's nine-position rim sum for one bin
    return nine_position_power(float(np.sqrt(6.0 * power / (M - 1))), noise_power, int(M), rims)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 8), st.floats(2.5e-4, 2.5e3), st.floats(0.0, 1e4)),
                min_size=1, max_size=24),
       st.integers(1, 3))
@example([(3, 8410.710036957444 / 4, 2519.462286844841)], 2)  # scalar ** 2 was one ulp off
@example([(1, 1.0, 5e-324)], 1)  # a subnormal noise power halved to zero
@example([(8, 1.219, 1.011e-5)], 3)  # a subnormal result, 9.2e-13 off the oracle's
def test_layer_error_power_is_elementwise(triples, rims):
    bits, power, noise = (np.array(col) for col in zip(*triples))
    M = 2 ** bits
    vals = _layer_error_power(M, power, noise, rims)
    alone = [_layer_error_power(m, ps, pz, rims) for m, ps, pz in zip(M, power, noise)]
    np.testing.assert_array_equal(vals, alone)
    # the two formulations round tails below the normal range differently, so
    # the oracle holds only where the result clears that range by 2^53
    ref = np.array([_scalar_error_power(m, ps, pz, rims) for m, ps, pz in zip(M, power, noise)])
    normal = np.abs(ref) >= np.finfo(float).tiny * 2.0 ** 53
    np.testing.assert_allclose(vals[normal], ref[normal], rtol=1e-14, atol=0.0)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.floats(1e-300, 1e300), st.floats(1e-300, 1e300), st.integers(1, 3))
def test_error_power_scales_exactly_with_power_and_noise(bits, power, noise, rims):
    # loading at 4 P_s against 4 P_z quadruples the error power bit for bit, so
    # the effective-power unit changes no output. A rim term below the normal
    # range rounds coarser than four times it would, which can move a result
    # just above that range, so the result must clear it by 2^53.
    ref = _layer_error_power(2 ** bits, power, noise, rims)
    assume(np.isfinite(4.0 * ref) and abs(ref) >= np.finfo(float).tiny * 2.0 ** 53)
    assert _layer_error_power(2 ** bits, 4.0 * power, 4.0 * noise, rims) == 4.0 * ref


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([16, 64, 256]), st.data())
def test_noise_grows_with_layer_depth(n, data):
    # random pruned LACO loading, some layers emptied, on a flat channel
    bits = data.draw(arrays(np.int64, n, elements=st.integers(0, 8)))
    powers = data.draw(arrays(float, n, elements=st.floats(1.0, 1e4)))
    emptied = data.draw(st.sets(st.integers(1, int(np.log2(n // 2)))))
    k = np.arange(1, n // 2)
    bits[k[np.isin(layer_index(k, n), list(emptied))]] = 0
    p_v = np.full(n, data.draw(st.floats(1.0, 1e3)))
    cfg = SchemeConfig.from_allocation(n, bits, powers)
    p_z = worst_case_noise(cfg, p_v).p_z
    loaded = [p_z[spec.bins] for spec in cfg.layers]  # ascending layer depth
    for shallow, deep in zip(loaded, loaded[1:]):
        assert deep.min() >= shallow.max()


def _assert_chain_matches_oracle(cfg, p_v, rims):
    prof = worst_case_noise(cfg, p_v, rims)
    for got, want in zip((prof.p_z, prof.bin_powers, prof.delta_powers),
                         worst_case_noise_oracle(cfg, p_v, rims)):
        assert np.array_equal(got, want)
    for mode in MODES:
        report = evaluate_ser(cfg, p_v, mode, rims)
        layer_ser, overall = ser_oracle(cfg, p_v, mode, rims)
        assert len(report.layer_ser) == len(layer_ser)
        assert all(np.array_equal(got, want) for got, want in zip(report.layer_ser, layer_ser))
        assert report.overall == overall


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2 ** b for b in range(4, 11)]), st.integers(1, 3), st.data())
def test_chain_equals_the_per_layer_oracle_on_pruned_loadings(n, rims, data):
    # the stacked chain and SER model against one rim-kernel or SER
    # formula call per layer, bit for bit, on a random pruned LACO loading
    bits = data.draw(arrays(np.int64, n, elements=st.integers(0, 8)))
    powers = data.draw(arrays(float, n, elements=st.floats(1e-2, 1e4)))
    emptied = data.draw(st.sets(st.integers(1, int(np.log2(n // 2)))))
    k = np.arange(1, n // 2)
    bits[k[np.isin(layer_index(k, n), list(emptied))]] = 0
    p_v = data.draw(arrays(float, n, elements=st.just(0.0) | st.floats(1e-3, 1e3)))  # zero: Q(inf)
    _assert_chain_matches_oracle(SchemeConfig.from_allocation(n, bits, powers), p_v, rims)


@pytest.mark.parametrize("scheme", ["laco", "ado", "haco", "aco", "dco", "pam"])
@settings(max_examples=15, deadline=None)
@given(n=st.sampled_from([16, 256, 1024]), bits=st.integers(1, 8), snr_db=st.floats(0.0, 30.0),
       selective=st.booleans(), rims=st.integers(1, 3))
def test_chain_equals_the_per_layer_oracle_on_uniform_schemes(scheme, n, bits, snr_db, selective, rims):
    cfg = SchemeConfig.uniform(scheme, n, 2 ** bits, 10.0 ** (snr_db / 10.0))
    channel = ChannelProfile.exponential(n) if selective else ChannelProfile.flat(n)
    _assert_chain_matches_oracle(cfg, channel.bin_noise_power(), rims)


@pytest.fixture
def qfunc_calls(monkeypatch):
    """The arguments of every Q-function call the model makes."""
    calls = []

    def counted(x):
        calls.append(x)
        return qfunc(x)
    monkeypatch.setattr(constellation, "qfunc", counted)
    return calls


def _pruned_allocation():
    bits = np.zeros(N, dtype=np.int64)
    bits[1::4] = 2  # half of layer 1; layer 2 stays empty
    bits[4::8] = 6  # layer 3
    bits[8::16] = 3  # layer 4
    return SchemeConfig.from_allocation(N, bits, np.full(N, 50.0))


@pytest.mark.parametrize("rims", [1, 2, 3])
@pytest.mark.parametrize("cfg", [SchemeConfig.uniform("laco", N, 16, 100.0),
                                 SchemeConfig.uniform("ado", N, 16, 100.0),
                                 SchemeConfig.uniform("haco", N, 16, 100.0),
                                 SchemeConfig.uniform("pam", N, 16, 100.0),
                                 _pruned_allocation()],
                         ids=["laco", "ado", "haco", "pam", "pruned"])
def test_one_q_function_call_per_layer(qfunc_calls, cfg, rims):
    # the chain evaluates each zero-clipped layer's tails in one call, and the
    # unaware SER model every layer's bins, QAM and PAM, in one call
    p_v = ChannelProfile.exponential(N).bin_noise_power()
    worst_case_noise(cfg, p_v, rims)
    assert len(qfunc_calls) == sum(spec.kind == "aco" for spec in cfg.layers)
    qfunc_calls.clear()
    evaluate_ser(cfg, p_v, "rcn_unaware", rims)
    assert len(qfunc_calls) == 1


def test_worst_case_noise_skips_non_qam_layers():
    cfg = SchemeConfig.uniform("haco", N, 16, 10.0)
    prof = worst_case_noise(cfg, np.full(N, float(N)))
    assert prof.bin_powers[0] > 0.0
    assert prof.bin_powers[1] == 0.0  # PAM layer is last; residue feeds nothing


def test_worst_case_noise_validates_length():
    cfg = SchemeConfig.uniform("laco", N, 16, 1.0, layers=3)
    with pytest.raises(ValueError):
        worst_case_noise(cfg, np.ones(N // 2))


@pytest.mark.parametrize("bad", [np.nan, -1.0])
def test_worst_case_noise_rejects_nan_or_negative_noise(bad):
    # a NaN used to reach the bounds as NaN
    cfg = SchemeConfig.uniform("laco", N, 16, 1.0, layers=3)
    p_v = np.ones(N)
    p_v[2] = bad
    with pytest.raises(ValueError, match="noise map must be non-negative"):
        worst_case_noise(cfg, p_v)
