"""Tests for subcarrier index sets, single-layer clipping through the one
transmitter, and power relations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oofdm.modems import (affected_subcarriers, effective_subcarriers, layer_index,
                          laco_ratios, power_relations)
from oofdm.multilayer import SchemeConfig, layer_frames, transmit

N = 1024


def _single_layer(scheme):
    """20 frames of a one-layer scheme as `transmit` sends them, with their
    pre-clipping and clipped layer frames."""
    cfg = SchemeConfig.uniform(scheme, N, 16, 10.0)
    seed = {"aco": 1, "pam": 3, "dco": 4}[scheme]
    tx = transmit(cfg, np.random.default_rng(seed), 20)
    (s,), (x,) = layer_frames(cfg, tx.sym_idx, tx.bias)
    return tx, s, x


def test_effective_subcarriers_layer_one_is_odd():
    ks = effective_subcarriers("laco", 1, N)
    assert np.all(ks % 2 == 1)
    assert len(ks) == N // 2
    np.testing.assert_array_equal(ks, effective_subcarriers("aco", 1, N))


def test_effective_subcarriers_sizes_halve():
    for j in range(1, 10):
        assert len(effective_subcarriers("laco", j, N)) == N // 2 ** j


def test_effective_subcarriers_structure():
    # layer j loads k = 2^(j-1) * odd
    for j in (2, 5, 9):
        ks = effective_subcarriers("laco", j, N)
        assert np.all(ks % 2 ** (j - 1) == 0)
        assert np.all((ks // 2 ** (j - 1)) % 2 == 1)


def test_second_layer_sets():
    ks = effective_subcarriers("ado", 2, N)
    assert np.all(ks % 2 == 0)
    assert 0 not in ks and N // 2 not in ks
    assert len(ks) == N // 2 - 2
    np.testing.assert_array_equal(ks, effective_subcarriers("haco", 2, N))
    dc = effective_subcarriers("dco", 1, N)
    assert len(dc) == N - 2


def test_effective_subcarriers_validation():
    with pytest.raises(ValueError):
        effective_subcarriers("laco", 10, N)  # log2(N/2) = 9
    with pytest.raises(ValueError):
        effective_subcarriers("ado", 3, N)
    with pytest.raises(ValueError):
        effective_subcarriers("bogus", 1, N)


def test_affected_subcarriers():
    for t in (1, 3, 8):
        bt = affected_subcarriers(t, N)
        assert np.all(bt % 2 ** t == 0)
        assert N // 2 not in bt and 0 not in bt
        # the affected set plus {0, N/2} has the size of the layer's own set
        assert len(bt) + 2 == len(effective_subcarriers("laco", t, N))
        # it contains every later layer's subcarriers
        later = effective_subcarriers("laco", t + 1, N)
        assert np.all(np.isin(later, bt))
        # built once per (t, N), as the noise chain adds onto it once per layer
        assert affected_subcarriers(t, N) is bt and not bt.flags.writeable


def _effective_reference(scheme, j, n):
    """Explicit per-scheme formula for the data bins of layer j."""
    k = np.arange(1, n)
    if scheme == "aco" or (scheme in ("ado", "haco", "laco") and j == 1):
        return k[k % 2 == 1]
    if scheme in ("dco", "pam"):
        return k[k != n // 2]
    if scheme in ("ado", "haco"):  # j == 2: even subcarriers
        return k[(k % 2 == 0) & (k != n // 2)]
    step = 2 ** (j - 1)  # laco, j >= 2: k = 2^(j-1) * odd
    return step * np.arange(1, n // step, 2)


def _affected_reference(t, n):
    """Explicit formula: nonzero multiples of 2^t below N, without N/2."""
    k = np.arange(2 ** t, n, 2 ** t)
    return k[k != n // 2]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(("aco", "dco", "pam", "ado", "haco", "laco")), st.integers(3, 12))
def test_index_sets_match_explicit_formulas(scheme, log_n):
    n = 2 ** log_n
    layers = {"laco": log_n - 1, "ado": 2, "haco": 2}.get(scheme, 1)
    for j in range(1, layers + 1):
        got, want = effective_subcarriers(scheme, j, n), _effective_reference(scheme, j, n)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    for j in (0, layers + 1):
        with pytest.raises(ValueError, match="out of range"):
            effective_subcarriers(scheme, j, n)
    for t in range(1, log_n):
        got, want = affected_subcarriers(t, n), _affected_reference(t, n)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    for t in (0, log_n):
        with pytest.raises(ValueError, match="out of range"):
            affected_subcarriers(t, n)


def test_layer_index():
    assert layer_index(1, N) == 1
    assert layer_index(6, N) == 2
    assert layer_index(256, N) == 9
    ks = np.array([1, 2, 3, 4, 12, 768])
    np.testing.assert_array_equal(layer_index(ks, N), [1, 2, 1, 3, 3, 9])
    for j in range(1, 10):
        assert np.all(layer_index(effective_subcarriers("laco", j, N), N) == j)
    with pytest.raises(ValueError):
        layer_index(0, N)
    with pytest.raises(ValueError):
        layer_index(N // 2, N)


@pytest.mark.parametrize("scheme", ["aco", "pam", "dco"])
def test_single_layer_transmit(scheme):
    # the sent frame is the clipped pre-clip frame, which loads only the
    # scheme's effective subcarriers
    tx, s, x = _single_layer(scheme)
    shift = 0.0 if tx.bias is None else tx.bias[:, None]
    np.testing.assert_array_equal(tx.x, np.maximum(s + shift, 0.0))
    np.testing.assert_array_equal(tx.x, x)
    assert np.all(tx.x >= 0.0)
    S = np.fft.fft(s)
    off = np.setdiff1d(np.arange(N), effective_subcarriers(scheme, 1, N))
    assert np.max(np.abs(S[:, off])) < 1e-12 * np.max(np.abs(S))


def test_aco_clipping_noise_on_even_bins():
    _, s, x = _single_layer("aco")
    # clipping halves the odd-bin content and moves the rest to even bins
    D = np.fft.fft(x - s / 2.0)
    odd = np.arange(1, N, 2)
    assert np.max(np.abs(D[:, odd])) < 1e-12 * np.max(np.abs(D))


def test_aco_antisymmetry_before_clipping():
    s = _single_layer("aco")[1]
    np.testing.assert_allclose(s[:, : N // 2], -s[:, N // 2:], atol=1e-12 * np.max(np.abs(s)))


def test_pam_clipping_noise_is_real_in_frequency():
    _, s, x = _single_layer("pam")
    # purely imaginary loads give an odd frame: s(n) = -s((N - n) mod N)
    np.testing.assert_allclose(s, -np.roll(s[:, ::-1], 1, axis=-1),
                               atol=1e-12 * np.max(np.abs(s)))
    D = np.fft.fft(x - s / 2.0)
    assert np.max(np.abs(D.imag)) < 1e-12 * np.max(np.abs(D))


def test_dco_bias_and_clip_rate():
    tx, s, _ = _single_layer("dco")
    np.testing.assert_allclose(tx.bias, 3.0 * np.std(s, axis=-1), rtol=1e-12)
    clip_rate = np.mean(s + tx.bias[:, None] < 0.0)
    assert clip_rate < 0.002  # 3-sigma bias leaves a small residual clip rate
    assert np.all(tx.x >= 0.0)


def test_power_relations_closed_forms():
    aco = power_relations("aco", 1.0)
    assert aco.p_elec == pytest.approx(2.0)
    assert aco.p_opt == pytest.approx(np.sqrt(2.0 / np.pi))
    dco = power_relations("dco", 1.0)
    assert dco.p_elec == pytest.approx(10.0)
    assert dco.p_opt == pytest.approx(3.0)
    pam = power_relations("pam", 1.0)
    assert pam.p_elec == pytest.approx(2.0)
    ado = power_relations("ado", 1.0)
    assert ado.p_elec == pytest.approx(6.0 + 6.0 / np.sqrt(2.0 * np.pi))
    assert ado.p_opt == pytest.approx(1.0 / np.sqrt(np.pi) + 3.0 / np.sqrt(2.0))
    haco = power_relations("haco", 1.0)
    assert haco.p_elec == pytest.approx(2.0 + 2.0 / np.pi)
    assert haco.p_opt == pytest.approx(2.0 / np.sqrt(np.pi))


def test_laco_power_relations():
    # J = 9 with equal per-subcarrier effective power
    laco = power_relations("laco", 1.0, layers=9)
    assert laco.p_elec == pytest.approx(4.7598, abs=5e-4)
    assert laco.p_opt == pytest.approx(1.84293, abs=5e-5)
    re, ro = laco_ratios(9)
    assert laco.p_elec == pytest.approx(re)
    # the electrical ratio grows toward its J -> inf limit
    assert power_relations("laco", 1.0, layers=2).p_elec < laco.p_elec
    with pytest.raises(ValueError):
        power_relations("laco", 1.0)


def test_power_relations_scale_linearly():
    t1 = power_relations("haco", 1.0)
    t4 = power_relations("haco", 4.0)
    assert t4.p_elec == pytest.approx(4.0 * t1.p_elec)
    assert t4.p_opt == pytest.approx(2.0 * t1.p_opt)
