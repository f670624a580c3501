"""Tests for the multi-layer transmitters and the iterative receiver."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hermitian import hermitian_embed
from layer_signals import layer_loads, layer_signals
from oofdm.allocate import allocate
from oofdm.channel import ChannelProfile
from oofdm.constellation import unit_alphabet
from oofdm.modems import effective_subcarriers, laco_layers, layer_index
from oofdm.multilayer import (LayerSpec, SchemeConfig, _observations, draw_symbols,
                               layer_frames, layer_noise, modulate, receive, transmit)

N = 1024


def test_uniform_config_laco():
    cfg = SchemeConfig.uniform("laco", N, 64, 10.0, layers=9)
    assert len(cfg.layers) == 9
    assert cfg.n_loaded == 1022
    # equal per-subcarrier effective power on every layer: eps = N^2 p_eff / N'
    eps = N ** 2 * 10.0 / 1022
    for spec in cfg.layers:
        assert spec.kind == "aco"
        np.testing.assert_allclose(spec.power, eps)
    assert len(cfg.layers[0].bins) == 256  # independent odd bins below N/2


def test_uniform_config_ado_and_haco():
    ado = SchemeConfig.uniform("ado", N, 16, 1.0)
    assert [sp.kind for sp in ado.layers] == ["aco", "dco"]
    eps = N ** 2 * 1.0 / 1022
    np.testing.assert_allclose(ado.layers[0].power, eps)
    np.testing.assert_allclose(ado.layers[1].power, eps)  # whatever the clipping
    haco = SchemeConfig.uniform("haco", N, [16, 4], 1.0)
    assert [sp.kind for sp in haco.layers] == ["aco", "pam"]
    assert np.all(haco.layers[1].M == 4)


@pytest.mark.parametrize("scheme,bins,power", [("aco", N // 4, 4.0 * N ** 2 / (N // 2)),
                                                ("pam", N // 2 - 1, 4.0 * N ** 2 / (N - 2)),
                                                ("dco", N // 2 - 1, N ** 2 / (N - 2))])
def test_uniform_config_single_layer(scheme, bins, power):
    # `power` is the symbol power sent per bin: the tables load a zero-clipped
    # layer at four times its effective power
    cfg = SchemeConfig.uniform(scheme, N, 16, 1.0, layers=5)  # layer count ignored
    (spec,) = cfg.layers
    assert spec.kind == scheme and len(spec.bins) == bins
    np.testing.assert_allclose(spec.power, power / (1.0 if scheme == "dco" else 4.0))
    np.testing.assert_allclose((spec.tables.amp * spec.fold) ** 2, power)


def test_uniform_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig.uniform("qam", N, 16, 1.0)
    with pytest.raises(ValueError):
        SchemeConfig.uniform("laco", N, [16, 16], 1.0, layers=3)


@pytest.mark.parametrize("order", [3, 6, 1, 0])
def test_config_rejects_orders_off_the_grid(order):
    with pytest.raises(ValueError, match="power of two >= 2"):
        SchemeConfig.uniform("aco", 64, order, 10.0)
    aco, dco = SchemeConfig.uniform("ado", 64, 16, 10.0).layers
    mixed = LayerSpec("dco", dco.bins, np.where(dco.bins == 6, order, 16), dco.power)
    with pytest.raises(ValueError, match=f"got {order}"):
        SchemeConfig("ado", 64, [aco, mixed])


def test_config_rejects_decreasing_fold_factors():
    laco = SchemeConfig.uniform("laco", N, 16, 1.0, layers=3)
    SchemeConfig("laco", N, [laco.layers[0], laco.layers[2]])  # a pruned, nested config
    with pytest.raises(ValueError, match="nested"):
        SchemeConfig("laco", N, [laco.layers[1], laco.layers[0]])
    ado = SchemeConfig.uniform("ado", N, 16, 1.0)
    with pytest.raises(ValueError, match="nested"):
        SchemeConfig("ado", N, ado.layers[::-1])


def test_layer_alphabets_are_built_once():
    bits = np.full(N, 2)
    bits[3::4] = 3  # layer 1 mixes 4-QAM and 8-QAM
    unit_alphabet.cache_clear()
    cfg = SchemeConfig.from_allocation(N, bits, np.ones(N))
    spec = cfg.layers[0]
    tables = spec.tables
    assert spec.tables is tables
    assert unit_alphabet.cache_info().misses == 2  # the 4-QAM and 8-QAM alphabets
    unit = [unit_alphabet(spec.kind, m).points for m in (4, 8)]
    np.testing.assert_array_equal(tables.alphabet, np.concatenate(unit))
    np.testing.assert_array_equal(tables.offset, np.where(spec.M == 8, 4, 0))
    # layers 2..9 reuse layer 1's 4-QAM, and a second transmit and receive builds no alphabet
    for _ in range(2):
        tx = transmit(cfg, np.random.default_rng(0), 2)
        receive(tx.x, cfg)
        assert unit_alphabet.cache_info().misses == 2
    # nor does a second config with the same orders
    other = SchemeConfig.from_allocation(N, bits, np.full(N, 2.0))
    for sp in other.layers:
        sp.tables
    assert unit_alphabet.cache_info().misses == 2


@pytest.mark.parametrize("scheme", ["laco", "ado", "haco"])
def test_observations_equal_scaled_spectrum_exactly(scheme):
    # one real multiply of the (re, im) pairs by 1/sqrt(P_s) is exactly the
    # complex scaling Y / sqrt(P_s), on every kind of layer
    rng = np.random.default_rng(12)
    cfg = SchemeConfig.uniform(scheme, N, 16, 3.0, 9 if scheme == "laco" else None)
    for spec in cfg.layers:
        power = spec.power * rng.uniform(0.1, 10.0, spec.power.shape)
        spec = LayerSpec(spec.kind, spec.bins, spec.M, power)
        Y = np.fft.rfft(rng.standard_normal((5, N // spec.fold)))
        ref = Y[:, spec.bins // spec.fold] / np.sqrt(power)
        obs = _observations(Y, spec.tables)
        assert np.array_equal(obs[..., 0], ref.real) and np.array_equal(obs[..., 1], ref.imag)


def test_config_without_layers_has_nothing_to_transmit():
    cfg = SchemeConfig.from_allocation(N, np.zeros(N, dtype=int), np.zeros(N))
    assert cfg.layers == []
    with pytest.raises(ValueError, match="nothing to transmit"):
        transmit(cfg, np.random.default_rng(0), 4)


def test_transmit_signal_is_nonnegative_with_expected_power():
    from oofdm.modems import power_relations
    cfg = SchemeConfig.uniform("laco", N, 16, 2.0, layers=4)
    tx = transmit(cfg, np.random.default_rng(0), 200)
    assert np.all(tx.x >= 0.0)
    # mean electrical power approaches the closed-form relation
    p_elec = np.mean(tx.x ** 2)
    assert p_elec == pytest.approx(power_relations("laco", 2.0, 4).p_elec, rel=0.05)


@pytest.mark.parametrize("scheme,M,layers", [("laco", 16, 9), ("ado", 16, None),
                                             ("haco", [16, 4], None)])
def test_noiseless_roundtrip(scheme, M, layers):
    # receive(y, cfg) alone: the DCO or PAM layer is last and never
    # remodulated, so the DCO layer of ADO is detected without its bias
    cfg = SchemeConfig.uniform(scheme, N, M, 5.0, layers=layers)
    tx = transmit(cfg, np.random.default_rng(1), 8)
    det_idx = receive(tx.x, cfg)
    assert len(det_idx) == len(cfg.layers)
    for det, sent in zip(det_idx, tx.sym_idx):
        np.testing.assert_array_equal(det, sent)


def test_noiseless_residual_vanishes():
    cfg = SchemeConfig.uniform("laco", N, 16, 5.0, layers=9)
    tx = transmit(cfg, np.random.default_rng(2), 4)
    det_idx = receive(tx.x, cfg)
    _, _, y_resid = layer_signals(tx.x, cfg, tx, det_idx)
    assert np.max(np.abs(y_resid[-1])) < 1e-8 * np.max(tx.x)
    assert np.max(layer_noise(cfg, tx, det_idx)[0]) < 1e-18


def test_delta_bounded_by_half_error():
    # |delta_t(n)| <= |e_t(n)|/2 on every frame of a noisy run
    cfg = SchemeConfig.uniform("laco", N, 64, 10.0, layers=9)
    rng = np.random.default_rng(3)
    tx = transmit(cfg, rng, 20)
    y = tx.x + rng.standard_normal(tx.x.shape)
    e, delta, _ = layer_signals(y, cfg, tx, receive(y, cfg))
    for j, spec in enumerate(cfg.layers):
        if spec.kind != "aco":
            continue
        assert np.all(np.abs(delta[j]) <= 0.5 * np.abs(e[j]) + 1e-12)


def decompose_residual(y, truth, e, delta, j):
    """Split the residual after removing layers 1..j into its three parts.

    Returns (noise, err, rcn) with noise = y - x the channel noise,
    err = -(1/2) sum_{t<=j} e_t, and rcn = sum_{t<=j} delta_t, satisfying
    y_j - sum_{t>j} x_t = noise + err + rcn exactly.
    """
    noise = np.atleast_2d(y) - truth.x
    err = -0.5 * sum(e[: j])
    rcn = sum(delta[: j])
    return noise, err, rcn


def test_residual_decomposition_is_exact():
    # after removing layers 1..j: y - sum_{t>j} x_t = noise - e/2 + delta
    cfg = SchemeConfig.uniform("laco", N, 16, 8.0, layers=9)
    rng = np.random.default_rng(4)
    tx = transmit(cfg, rng, 6)
    y = tx.x + rng.standard_normal(tx.x.shape)
    e, delta, y_resid = layer_signals(y, cfg, tx, receive(y, cfg))
    _, x_layers = layer_frames(cfg, tx.sym_idx)
    for j in (1, 3, 9):
        noise, err, rcn = decompose_residual(y, tx, e, delta, j)
        remaining = sum(x_layers[j:]) if j < 9 else 0.0
        np.testing.assert_allclose(y_resid[j - 1] - remaining,
                                   noise + err + rcn, atol=1e-9)


def test_residual_decomposition_exact_for_dco_layer():
    cfg = SchemeConfig.uniform("ado", N, 16, 8.0)
    rng = np.random.default_rng(5)
    tx = transmit(cfg, rng, 6)
    y = tx.x + rng.standard_normal(tx.x.shape)
    e, delta, y_resid = layer_signals(y, cfg, tx, receive(y, cfg))
    noise, err, rcn = decompose_residual(y, tx, e, delta, 2)
    np.testing.assert_allclose(y_resid[1], noise + err + rcn, atol=1e-9)


@pytest.mark.parametrize("kind", ["dco", "pam"])
def test_dco_or_pam_layer_before_an_aco_layer_is_rejected(kind):
    # the periods nest (odd bins, then twice odd ones), but the DCO or PAM layer is first
    def layer(kind, bins):
        return LayerSpec(kind, bins, np.full(bins.shape, 16), np.ones(bins.shape))
    odd, twice_odd = np.arange(1, N // 2, 2), np.arange(2, N // 2, 4)
    SchemeConfig("laco", N, [layer("aco", odd), layer("aco", twice_odd)])
    with pytest.raises(ValueError, match="only the last layer"):
        SchemeConfig("ado", N, [layer(kind, odd), layer("aco", twice_odd)])


def test_from_allocation_roundtrip():
    bits = np.zeros(N, dtype=int)
    powers = np.zeros(N)
    bits[[1, 3, 2, 4]] = [2, 4, 2, 6]
    powers[[1, 3, 2, 4]] = [10.0, 20.0, 5.0, 7.0]
    cfg = SchemeConfig.from_allocation(N, bits, powers)
    assert [sp.kind for sp in cfg.layers] == ["aco", "aco", "aco"]
    np.testing.assert_array_equal(cfg.layers[0].bins, [1, 3])
    np.testing.assert_array_equal(cfg.layers[0].M, [4, 16])
    np.testing.assert_allclose(cfg.layers[0].power, [10.0, 20.0])
    np.testing.assert_array_equal(cfg.layers[2].bins, [4])
    tx = transmit(cfg, np.random.default_rng(7), 3)
    for det, sent in zip(receive(tx.x, cfg), tx.sym_idx):
        np.testing.assert_array_equal(det, sent)


def _from_allocation_oracle(n, bits, powers):
    """(bins, M, power) of each nonempty layer, built as `from_allocation` once did:
    one `effective_subcarriers` call per LACO layer."""
    layers = []
    for j in range(1, laco_layers(n) + 1):
        ks = effective_subcarriers("laco", j, n)
        indep = ks[(ks < n // 2) & (bits[ks] > 0)]
        if len(indep):
            layers.append((indep, 2 ** bits[indep].astype(np.int64), powers[indep]))
    return layers


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2 ** b for b in range(3, 11)]), st.data())
def test_from_allocation_equals_the_per_layer_construction(n, data):
    # random loadings, some layers left empty
    bits = data.draw(arrays(np.int64, n, elements=st.integers(0, 8)))
    powers = data.draw(arrays(float, n, elements=st.floats(1e-2, 1e4)))
    emptied = data.draw(st.sets(st.integers(1, laco_layers(n))))
    k = np.arange(1, n // 2)
    bits[k[np.isin(layer_index(k, n), list(emptied))]] = 0
    cfg = SchemeConfig.from_allocation(n, bits, powers)
    want = _from_allocation_oracle(n, bits, powers)
    assert len(cfg.layers) == len(want)
    for spec, (bins, M, power) in zip(cfg.layers, want):
        assert spec.kind == "aco"
        assert np.array_equal(spec.bins, bins)
        assert np.array_equal(spec.M, M)
        assert np.array_equal(spec.power, power)


# Every uniform scheme at N = 16..1024 and the RCN-aware allocations on the
# exponential channel at 6..26 dB: configs whose layers all have equally spaced bins
SLICED = ([(scheme, n) for scheme in ("laco", "ado", "haco", "aco", "dco", "pam")
           for n in (2 ** b for b in range(4, 11))]
          + [("allocation", snr) for snr in (6, 10, 14, 18, 22, 26)])


def _sliced_config(name, arg):
    if name == "allocation":
        res = allocate(ChannelProfile.exponential(N), 10.0 ** (arg / 10.0), 1e-2, mode="rcn_aware")
        return SchemeConfig.from_allocation(N, res.bits, res.powers)
    return SchemeConfig.uniform(name, arg, 16, 10.0)


def _index_array_twin(cfg):
    """`cfg` with every layer's columns indexed by the bins // L array instead."""
    twins = []
    for spec in cfg.layers:
        twin = LayerSpec(spec.kind, spec.bins, spec.M, spec.power)
        twin.__dict__["tables"] = replace(spec.tables, cols=spec.bins // spec.fold)  # the cached property
        twins.append(twin)
    return SchemeConfig(cfg.scheme, cfg.n, twins)


@pytest.mark.parametrize("name,arg", SLICED)
def test_equally_spaced_layers_index_their_columns_by_a_slice(name, arg):
    cfg = _sliced_config(name, arg)
    for spec in cfg.layers:
        cols = spec.tables.cols
        assert isinstance(cols, slice)
        assert np.array_equal(np.arange(cfg.n)[cols], spec.bins // spec.fold)


@pytest.mark.parametrize("name,arg", SLICED)
def test_sliced_columns_equal_the_index_array_bit_for_bit(name, arg):
    cfg = _sliced_config(name, arg)
    twin = _index_array_twin(cfg)
    assert all(isinstance(sp.tables.cols, np.ndarray) for sp in twin.layers)
    sym_idx = draw_symbols(cfg, np.random.default_rng(3), 6)
    tx, tx_twin = modulate(cfg, sym_idx), modulate(twin, sym_idx)
    assert np.array_equal(tx.x, tx_twin.x)
    y = tx.x + 0.3 * np.std(tx.x) * np.random.default_rng(4).standard_normal(tx.x.shape)
    det_idx, det_twin = receive(y, cfg), receive(y, twin)
    assert all(np.array_equal(a, b) for a, b in zip(det_idx, det_twin))
    probe_bin = cfg.n // 4 + 1
    for a, b in zip(layer_noise(cfg, tx, det_idx, probe_bin), layer_noise(twin, tx, det_idx, probe_bin)):
        assert np.array_equal(a, b)


def test_notched_layer_keeps_an_index_array_and_round_trips():
    bits = np.full(N, 4)
    bits[[5, 7, 9]] = 0  # a notch in layer 1: its bins are no longer equally spaced
    cfg = SchemeConfig.from_allocation(N, bits, np.full(N, 50.0))
    first = cfg.layers[0]
    assert isinstance(first.tables.cols, np.ndarray)
    assert np.array_equal(first.tables.cols, first.bins)
    assert all(isinstance(sp.tables.cols, slice) for sp in cfg.layers[1:])
    tx = transmit(cfg, np.random.default_rng(9), 3)
    for det, sent in zip(receive(tx.x, cfg), tx.sym_idx):
        np.testing.assert_array_equal(det, sent)


def test_receive_leaves_its_input_unchanged():
    cfg = SchemeConfig.uniform("laco", N, 16, 10.0, layers=9)
    tx = transmit(cfg, np.random.default_rng(10), 4)
    y = tx.x + np.random.default_rng(11).standard_normal(tx.x.shape)
    sent = y.copy()
    receive(y, cfg)
    assert np.array_equal(y, sent)


def test_probe_matches_fft_of_delta():
    cfg = SchemeConfig.uniform("laco", N, 64, 10.0, layers=4)
    rng = np.random.default_rng(8)
    tx = transmit(cfg, rng, 3)
    y = tx.x + rng.standard_normal(tx.x.shape)
    det_idx = receive(y, cfg)
    _, delta, _ = layer_signals(y, cfg, tx, det_idx)
    probe = layer_noise(cfg, tx, det_idx, probe_bin=256)[2]
    np.testing.assert_allclose(probe, np.fft.fft(delta)[..., 256], atol=1e-8)


# Property tests of the folded layer transforms run at a short frame length.
N_PROP = 256
ORDERS = (2, 4, 8, 16, 64)


def _pruned_layer(data, kind, candidates):
    """Allocator-style layer: a nonempty subset of `candidates` with random
    orders and per-bin powers (frames of order one)."""
    bins = np.array(sorted(data.draw(st.sets(st.sampled_from(candidates), min_size=1))))
    orders = data.draw(st.lists(st.sampled_from(ORDERS), min_size=len(bins),
                                max_size=len(bins)))
    scale = data.draw(st.lists(st.floats(0.5, 2.0), min_size=len(bins),
                               max_size=len(bins)))
    return LayerSpec(kind, bins, np.array(orders, dtype=np.int64),
                     N_PROP * np.array(scale))


def _check_folded_frames_and_noiseless_detection(cfg):
    tx = transmit(cfg, np.random.default_rng(0), 4)
    for spec, idx, s in zip(cfg.layers, tx.sym_idx, layer_frames(cfg, tx.sym_idx, tx.bias)[0]):
        ref = np.fft.ifft(hermitian_embed(layer_loads(spec, idx), spec.bins, cfg.n))
        np.testing.assert_allclose(s, ref.real, rtol=0, atol=1e-12)
    for spec, det, sent in zip(cfg.layers, receive(tx.x, cfg), tx.sym_idx):
        assert np.array_equal(det, sent), f"{spec.kind} layer on bins {spec.bins}"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_folded_laco_layers_match_full_transform(data):
    # any nonempty subset of layers, each pruned to a subset of its bins
    layers = data.draw(st.sets(st.integers(1, 7), min_size=1))
    specs = []
    for j in sorted(layers):
        ks = effective_subcarriers("laco", j, N_PROP)
        specs.append(_pruned_layer(data, "aco", ks[ks < N_PROP // 2].tolist()))
    _check_folded_frames_and_noiseless_detection(SchemeConfig("laco", N_PROP, specs))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_folded_hybrid_layer_with_larger_period_factor(data):
    # the second (even-bin) layer keeps only multiples of 2^p, p >= 2, so its
    # common power of two exceeds the 2 of an unpruned ADO/HACO layer
    kind = data.draw(st.sampled_from(("dco", "pam")))
    step = 2 ** data.draw(st.integers(2, 5))
    odd = list(range(1, N_PROP // 2, 2))
    even = list(range(step, N_PROP // 2, step))
    specs = [_pruned_layer(data, "aco", odd), _pruned_layer(data, kind, even)]
    scheme = "ado" if kind == "dco" else "haco"
    _check_folded_frames_and_noiseless_detection(SchemeConfig(scheme, N_PROP, specs))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([("laco", 7), ("laco", 3), ("ado", None), ("haco", None),
                        ("aco", None), ("dco", None), ("pam", None)]),
       st.integers(2, 24), st.data())
def test_modulate_over_row_splits_equals_transmit(scheme_layers, frames, data):
    # frames are modulated row by row, so any split of one draw sends the
    # same bits as transmitting the whole batch
    cfg = SchemeConfig.uniform(scheme_layers[0], N_PROP, 16, 10.0, scheme_layers[1])
    whole = transmit(cfg, np.random.default_rng(frames), frames)
    sym_idx = draw_symbols(cfg, np.random.default_rng(frames), frames)
    cuts = sorted(data.draw(st.sets(st.integers(1, frames - 1))))
    parts = [modulate(cfg, [idx[lo:hi] for idx in sym_idx])
             for lo, hi in zip([0] + cuts, cuts + [frames])]
    np.testing.assert_array_equal(np.concatenate([p.x for p in parts]), whole.x)
    for j in range(len(cfg.layers)):
        got = np.concatenate([p.sym_idx[j] for p in parts])
        np.testing.assert_array_equal(got, whole.sym_idx[j])
    if whole.bias is not None:
        np.testing.assert_array_equal(np.concatenate([p.bias for p in parts]), whole.bias)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["haco", "aco", "dco", "pam", "allocation"]), st.integers(0, 2 ** 32 - 1),
       st.floats(0.05, 1.0), st.integers(0, N_PROP - 1))
def test_layer_noise_on_one_period_equals_full_length_oracle(scheme, seed, sigma, probe_bin):
    # the per-period delta and error powers and probe equal those of the full-length
    # frames of the oracle bit for bit, for a PAM layer, the single-layer schemes,
    # and an allocation whose odd bins are empty, so that its first layer has period N/2
    rng = np.random.default_rng(seed)
    if scheme == "allocation":
        bits = rng.integers(0, 7, N_PROP)
        bits[1::2] = 0
        bits[2] = 4
        cfg = SchemeConfig.from_allocation(N_PROP, bits, N_PROP * rng.uniform(0.5, 2.0, N_PROP))
        assert cfg.layers[0].fold == 2
    else:
        cfg = SchemeConfig.uniform(scheme, N_PROP, 16, 1.0)
    tx = transmit(cfg, rng, 6)
    y = tx.x + sigma * rng.standard_normal(tx.x.shape)
    det_idx = receive(y, cfg)
    _, delta, _ = layer_signals(y, cfg, tx, det_idx)  # asserts the delta and error powers
    ph = np.exp(-2j * np.pi * probe_bin * np.arange(N_PROP) / N_PROP)
    probe = layer_noise(cfg, tx, det_idx, probe_bin)[2]
    np.testing.assert_array_equal(probe, [d @ ph for d in delta])
