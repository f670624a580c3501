"""Tests for the multi-layer transmitters and the iterative receiver."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hermitian import hermitian_embed
from index_sets import effective_reference
from layer_signals import assert_layer_noise_close, layer_frames, layer_loads, layer_signals
from oofdm.allocate import allocate
from oofdm.channel import ChannelProfile, post_eq_noise
from oofdm.constellation import quantize, unit_alphabet
from oofdm.modems import laco_layers, layer_index
from oofdm.multilayer import (LayerSpec, SchemeConfig, _decide, _detect, _pair, _synthesize, draw_symbols,
                              layer_noise, modulate)
from txrx import noise_frames, observations, receive, transmit

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
    haco = SchemeConfig.uniform("haco", N, 4, 1.0)
    assert [sp.kind for sp in haco.layers] == ["aco", "pam"]
    assert np.all(haco.layers[1].M == 4)


@pytest.mark.parametrize("scheme,bins,power", [("aco", N // 4, 4.0 * N ** 2 / (N // 2)),
                                                ("pam", N // 2 - 1, 4.0 * N ** 2 / (N - 2)),
                                                ("dco", N // 2 - 1, N ** 2 / (N - 2))])
def test_uniform_config_single_layer(scheme, bins, power):
    # `power` is the symbol power sent per bin: the tables load a zero-clipped
    # layer at four times its effective power
    cfg = SchemeConfig.uniform(scheme, N, 16, 1.0)
    (spec,) = cfg.layers
    assert spec.kind == scheme and len(spec.bins) == bins
    np.testing.assert_allclose(spec.power, power / (1.0 if scheme == "dco" else 4.0))
    np.testing.assert_allclose((spec.tables.amp * spec.fold) ** 2, power)


def test_uniform_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig.uniform("qam", N, 16, 1.0)
    # a fixed-depth scheme takes its own layer count and no other
    for scheme, depth in (("aco", 1), ("dco", 1), ("pam", 1), ("ado", 2), ("haco", 2)):
        assert len(SchemeConfig.uniform(scheme, 64, 16, 1.0, depth).layers) == depth
        for layers in (0, depth + 1, 5):
            with pytest.raises(ValueError, match=f"{scheme} has {depth} layers?, got {layers}"):
                SchemeConfig.uniform(scheme, 64, 16, 1.0, layers)


@pytest.mark.parametrize("order", [3, 6, 1, 0])
def test_config_rejects_orders_off_the_grid(order):
    with pytest.raises(ValueError, match="power of two >= 2"):
        SchemeConfig.uniform("aco", 64, order, 10.0)
    aco, dco = SchemeConfig.uniform("ado", 64, 16, 10.0).layers
    mixed = LayerSpec("dco", dco.bins, np.where(dco.bins == 6, order, 16), dco.power)
    with pytest.raises(ValueError, match=f"got {order}"):
        SchemeConfig(64, [aco, mixed])


@pytest.mark.parametrize("bins", [[], [0, 1], [1, 32], [1, 40]], ids=["none", "dc", "nyquist", "mirror"])
def test_config_rejects_a_layer_without_bins_in_the_half_spectrum(bins):
    bins = np.array(bins, dtype=np.int64)
    spec = LayerSpec("aco", bins, np.full(bins.shape, 16), np.ones(bins.shape))
    with pytest.raises(ValueError, match=r"independent bins in \[1, n/2\)"):
        SchemeConfig(64, [spec])


def test_config_rejects_decreasing_fold_factors():
    laco = SchemeConfig.uniform("laco", N, 16, 1.0, layers=3)
    SchemeConfig(N, [laco.layers[0], laco.layers[2]])  # a pruned, nested config
    with pytest.raises(ValueError, match="nested"):
        SchemeConfig(N, [laco.layers[1], laco.layers[0]])
    ado = SchemeConfig.uniform("ado", N, 16, 1.0)
    with pytest.raises(ValueError, match="nested"):
        SchemeConfig(N, ado.layers[::-1])


def test_config_rejects_equal_fold_factors_and_even_multiples_on_an_aco_layer():
    # the receiver reads an ACO layer's clipping residue only at multiples of twice its L
    def layer(kind, bins):
        return LayerSpec(kind, np.array(bins), np.full(len(bins), 16), np.ones(len(bins)))
    with pytest.raises(ValueError, match=r"nested: fold factors \[1, 1\] do not increase"):
        SchemeConfig(64, [layer("aco", [1, 3]), layer("aco", [5, 7])])
    with pytest.raises(ValueError, match="odd multiples of its fold factor only"):
        SchemeConfig(64, [layer("aco", [1, 2])])
    with pytest.raises(ValueError, match="odd multiples of its fold factor only"):
        SchemeConfig(64, [layer("aco", [1, 3]), layer("aco", [2, 4])])
    SchemeConfig(64, [layer("aco", [1, 3]), layer("pam", [2, 4])])  # any bins on the last layer


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
    # the waveform oracle's observations are exactly the layer's bins of Y scaled by
    # 1/(sqrt(P_s) d_min) and shifted by top/2, the quantizer's level units, on every kind
    # of layer; the receiver's, which add the sent symbols in level units, decide alike
    rng = np.random.default_rng(12)
    cfg = SchemeConfig.uniform(scheme, N, 16, 3.0, 9 if scheme == "laco" else None)
    for spec in cfg.layers:
        power = spec.power * rng.uniform(0.1, 10.0, spec.power.shape)
        spec = LayerSpec(spec.kind, spec.bins, spec.M, power)
        tab = spec.tables
        d_min = np.array([unit_alphabet(spec.kind, int(m)).d_min for m in spec.M])
        assert np.array_equal(tab.scale, 1.0 / np.sqrt(power) / d_min)
        Y = np.fft.rfft(rng.standard_normal((5, N // spec.fold)))
        ref = Y[:, spec.bins // spec.fold] * tab.scale + 0.5 * (tab.top[:, 0] + 1j * tab.top[:, 1])
        obs = observations(Y, tab)
        assert np.array_equal(obs[..., 0], ref.real) and np.array_equal(obs[..., 1], ref.imag)
        assert np.array_equal(_decide(Y, tab, None), quantize(obs, tab.top, tab.m_q))
        sent = (rng.random(ref.shape) * spec.M).astype(np.int64)
        pairs = (ref + tab.alphabet[sent + tab.offset] / d_min).view(float).reshape(obs.shape)
        assert np.array_equal(_decide(Y, tab, sent), quantize(pairs, tab.top, tab.m_q))


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
                                             ("haco", 4, None)])
def test_noiseless_roundtrip(scheme, M, layers):
    # receive(y, cfg) alone: the DCO or PAM layer is last and never
    # remodulated, so the DCO layer of ADO is detected without its bias
    cfg = SchemeConfig.uniform(scheme, N, M, 5.0, layers=layers)
    tx = transmit(cfg, np.random.default_rng(1), 8)
    det_idx = receive(tx.x, cfg)
    assert len(det_idx) == len(cfg.layers)
    for det, sent in zip(det_idx, tx.sym_idx):
        np.testing.assert_array_equal(det, sent)


class _TopDraw:
    """A generator whose every uniform draw is the largest float below 1."""
    def random(self, shape):
        return np.full(shape, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("scheme", ["aco", "pam"])
@pytest.mark.parametrize("M", [2 ** b for b in range(1, 9)])
def test_largest_draw_maps_to_the_last_index(scheme, M):
    # random() < 1 and a power-of-two order keep draw * M below M: no index to clamp
    cfg = SchemeConfig.uniform(scheme, 64, M, 1.0)
    (idx,) = draw_symbols(cfg, _TopDraw(), 3)
    assert np.all(idx == M - 1)


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512, 1024])
def test_modulate_is_the_layer_order_sum_of_the_clipped_frames(n):
    # later layers are added through a periods view, down to a period of 4 samples
    cfg = SchemeConfig.uniform("laco", n, 16, 10.0, layers=laco_layers(n))
    sym_idx = draw_symbols(cfg, np.random.default_rng(n), 5)
    _, x_layers = layer_frames(cfg, sym_idx)
    x = x_layers[0]
    for x_j in x_layers[1:]:
        x = x + x_j
    assert np.array_equal(modulate(cfg, sym_idx), x)


def test_noiseless_residual_vanishes():
    cfg = SchemeConfig.uniform("laco", N, 16, 5.0, layers=9)
    tx = transmit(cfg, np.random.default_rng(2), 4)
    det_idx = receive(tx.x, cfg)
    _, _, y_resid = layer_signals(tx.x, cfg, tx, det_idx)
    assert np.max(np.abs(y_resid[-1])) < 1e-8 * np.max(tx.x)
    assert np.max(layer_noise(cfg, tx.sym_idx, det_idx)[0]) < 1e-18


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
    SchemeConfig(N, [layer("aco", odd), layer("aco", twice_odd)])
    with pytest.raises(ValueError, match="only the last layer"):
        SchemeConfig(N, [layer(kind, odd), layer("aco", twice_odd)])


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
    one index set per LACO layer, from the explicit formula."""
    layers = []
    for j in range(1, laco_layers(n) + 1):
        ks = effective_reference("laco", j, n)
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
    """`cfg` with every layer's columns, and the columns of `_pair`'s half-period transform,
    indexed by index arrays instead."""
    twins = []
    for spec in cfg.layers:
        twin, tab = LayerSpec(spec.kind, spec.bins, spec.M, spec.power), spec.tables
        half = np.arange(cfg.n // (2 * spec.fold))
        twin.__dict__["tables"] = replace(tab, cols=spec.bins // spec.fold, pos=half[tab.pos],
                                          neg=half[tab.neg])  # the cached property
        twins.append(twin)
    return SchemeConfig(cfg.n, twins)


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
    assert all(isinstance(getattr(sp.tables, a), np.ndarray)
               for sp in twin.layers for a in ("cols", "pos", "neg"))
    sym_idx = draw_symbols(cfg, np.random.default_rng(3), 6)
    x = modulate(cfg, sym_idx)
    assert np.array_equal(x, modulate(twin, sym_idx))
    y = x + 0.3 * np.std(x) * np.random.default_rng(4).standard_normal(x.shape)
    det_idx, det_twin = receive(y, cfg), receive(y, twin)
    assert all(np.array_equal(a, b) for a, b in zip(det_idx, det_twin))
    v = y - x
    det_bins, det_twin = _detect(cfg, sym_idx, v.copy())[0], _detect(twin, sym_idx, v.copy())[0]
    assert all(np.array_equal(a, b) for a, b in zip(det_bins, det_twin))
    if all(sp.kind == "aco" for sp in cfg.layers):  # layer_noise measures ACO layers only
        probe_bin = cfg.n // 4
        for a, b in zip(layer_noise(cfg, sym_idx, det_idx, probe_bin),
                        layer_noise(twin, sym_idx, det_idx, probe_bin)):
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
    probe = layer_noise(cfg, tx.sym_idx, det_idx, probe_bin=256)[2]
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
    for spec, idx, s in zip(cfg.layers, tx.sym_idx, layer_frames(cfg, tx.sym_idx)[0]):
        ref = np.fft.ifft(hermitian_embed(layer_loads(spec, idx), spec.bins, cfg.n))
        np.testing.assert_allclose(s, ref.real, rtol=0, atol=1e-12)
    for det_idx in (receive(tx.x, cfg), _detect(cfg, tx.sym_idx, np.zeros(tx.x.shape))[0]):
        for spec, det, sent in zip(cfg.layers, det_idx, tx.sym_idx):
            assert np.array_equal(det, sent), f"{spec.kind} layer on bins {spec.bins}"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_folded_laco_layers_match_full_transform(data):
    # any nonempty subset of layers, each pruned to a subset of its bins
    layers = data.draw(st.sets(st.integers(1, 7), min_size=1))
    specs = []
    for j in sorted(layers):
        ks = effective_reference("laco", j, N_PROP)
        specs.append(_pruned_layer(data, "aco", ks[ks < N_PROP // 2].tolist()))
    _check_folded_frames_and_noiseless_detection(SchemeConfig(N_PROP, specs))


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
    _check_folded_frames_and_noiseless_detection(SchemeConfig(N_PROP, specs))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([("laco", 7), ("laco", 3), ("ado", None), ("haco", None),
                        ("aco", None), ("dco", None), ("pam", None)]),
       st.integers(2, 24), st.data())
def test_modulate_over_row_splits_equals_transmit(scheme_layers, frames, data):
    # frames are modulated row by row, a DCO layer clipped at each row's own
    # bias, so any split of one draw sends the same frames as the whole batch
    cfg = SchemeConfig.uniform(scheme_layers[0], N_PROP, 16, 10.0, scheme_layers[1])
    whole = transmit(cfg, np.random.default_rng(frames), frames)
    cuts = sorted(data.draw(st.sets(st.integers(1, frames - 1))))
    parts = [modulate(cfg, [idx[lo:hi] for idx in whole.sym_idx])
             for lo, hi in zip([0] + cuts, cuts + [frames])]
    np.testing.assert_array_equal(np.concatenate(parts), whole.x)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["aco", "laco", "allocation"]), st.integers(0, 2 ** 32 - 1),
       st.floats(0.05, 1.0), st.integers(0, N_PROP - 1))
def test_layer_noise_on_one_period_equals_full_length_oracle(scheme, seed, sigma, probe_bin):
    # the half-period delta and error powers and probe equal those of the full-length frames
    # of the oracle to rounding, for the single-layer ACO scheme, every LACO layer, and an
    # allocation whose odd bins are empty, so that its first layer has period N/2; a row
    # without a detection error reads exactly 0, and so does the probe of a layer whose 2L
    # does not divide the probe bin
    rng = np.random.default_rng(seed)
    if scheme == "allocation":
        bits = rng.integers(0, 7, N_PROP)
        bits[1::2] = 0
        bits[2] = 4
        cfg = SchemeConfig.from_allocation(N_PROP, bits, N_PROP * rng.uniform(0.5, 2.0, N_PROP))
        assert cfg.layers[0].fold == 2
    else:
        layers = laco_layers(N_PROP) if scheme == "laco" else None
        cfg = SchemeConfig.uniform(scheme, N_PROP, 16, 1.0, layers)
    tx = transmit(cfg, rng, 6)
    y = tx.x + sigma * rng.standard_normal(tx.x.shape)
    det_idx = receive(y, cfg)
    e, delta, _ = layer_signals(y, cfg, tx, det_idx)  # checks the delta and error powers
    ph = np.exp(-2j * np.pi * probe_bin * np.arange(N_PROP) / N_PROP)
    got = layer_noise(cfg, tx.sym_idx, det_idx, probe_bin)
    want = [[np.mean(x ** 2, axis=-1) for x in signal] for signal in (delta, e)] + [[d @ ph for d in delta]]
    assert_layer_noise_close(got, want, N_PROP)
    for spec, sent, det, *noise in zip(cfg.layers, tx.sym_idx, det_idx, *got):
        clean = np.all(det == sent, axis=1)
        assert all(np.all(a[clean] == 0.0) for a in noise)
        assert probe_bin % (2 * spec.fold) == 0 or np.all(noise[2] == 0.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(4, 10), st.booleans(), st.floats(0.02, 1.0), st.integers(0, 2 ** 32 - 1))
def test_packed_residue_equals_the_synthesized_half_period(log_n, uniform, density, seed):
    # the pair of an ACO layer that the receiver's residue and `layer_noise` read, from one
    # complex inverse FFT of half a period, is L (s + i s_hat) of the two synthesized periods
    # on their first half: on every uniform LACO layer down to period 4, and on pruned
    # allocation layers, whose columns are index arrays or single bins as often as slices
    n, rng = 2 ** log_n, np.random.default_rng(seed)
    if uniform:
        cfg = SchemeConfig.uniform("laco", n, int(rng.choice([4, 16, 64])), 1.0, laco_layers(n))
    else:
        bits = rng.integers(1, 9, n) * (rng.random(n) < density)
        bits[rng.integers(1, n // 2)] = 1 + rng.integers(8)
        cfg = SchemeConfig.from_allocation(n, bits, n * rng.uniform(0.5, 2.0, n))
    sent, det = draw_symbols(cfg, rng, 4), draw_symbols(cfg, rng, 4)
    for spec, s_idx, d_idx in zip(cfg.layers, sent, det):
        s, s_hat = _synthesize(spec, s_idx, n), _synthesize(spec, d_idx, n)
        half = n // (2 * spec.fold)
        want = s[:, :half] + 1j * s_hat[:, :half]
        got = _pair(spec, s_idx, d_idx, n)
        assert got.shape == want.shape
        np.testing.assert_allclose(got / spec.fold, want, rtol=0, atol=1e-13 * np.abs(s).max())


ORACLE_SCHEMES = ([("laco", j) for j in range(1, 10)]
                  + [(name, None) for name in ("aco", "dco", "pam", "ado", "haco", "allocation")])


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(ORACLE_SCHEMES), st.sampled_from([64, 256, 1024]), st.sampled_from([4, 16, 64]),
       st.floats(-10.0, 45.0), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_receiver_decides_as_the_waveform_oracle(scheme_layers, n, M, gamma_db, selective, seed):
    # run_point's bin-domain receiver, given the sent indices and the noise as drawn, returns
    # the waveform oracle's decisions on x + v bit for bit, from SNRs at which every row errs
    # to error-free ones; a selective channel's frames are the inverse FFT of its V
    scheme, layers = scheme_layers
    rng = np.random.default_rng(seed)
    p_eff = 10.0 ** (gamma_db / 10.0)
    if scheme == "allocation":  # pruned, with every order from 2 to 256 and uneven powers
        bits = rng.integers(0, 9, n) * (rng.random(n) < 0.7)
        bits[1] = 1
        cfg = SchemeConfig.from_allocation(n, bits, n * p_eff * rng.uniform(0.5, 2.0, n))
    else:
        cfg = SchemeConfig.uniform(scheme, n, M, p_eff, layers and min(layers, laco_layers(n)))
    profile = ChannelProfile.exponential(n) if selective else ChannelProfile.flat(n)
    tx = transmit(cfg, rng, 16)
    v = post_eq_noise(profile, rng, 16, cfg.loaded_bins)
    want = receive(tx.x + (noise_frames(cfg, v) if selective else v), cfg)
    for got, ref in zip(_detect(cfg, tx.sym_idx, v)[0], want):
        np.testing.assert_array_equal(got, ref)
