"""Tests for closed-form SER evaluation with and without clipping-noise
awareness."""

import numpy as np
import pytest

from oofdm.channel import gamma_to_p_eff
from oofdm.multilayer import SchemeConfig
from oofdm.ser import evaluate_ser

N = 1024
P_V = np.full(N, float(N))  # flat channel, unit noise power

# reference data (16-QAM / 16-PAM, flat channel, electrical SNR in dB)
LACO_20DB_AWARE = 0.173386
LACO_20DB_UNAWARE = 0.060825
LACO_20DB_SIM = 0.166472
ADO_24DB_SIM = 0.032317
HACO_30DB_SIM = 0.00125225


def _config(scheme, gamma_db, layers=None):
    p_eff = gamma_to_p_eff(scheme, gamma_db, 1.0, layers)
    return SchemeConfig.uniform(scheme, N, 16, p_eff, layers)


def test_laco_aware_matches_reference():
    report = evaluate_ser(_config("laco", 20.0, 9), P_V, "rcn_aware")
    assert report.overall == pytest.approx(LACO_20DB_AWARE, rel=0.05)


def test_laco_unaware_matches_reference():
    report = evaluate_ser(_config("laco", 20.0, 9), P_V, "rcn_unaware")
    assert report.overall == pytest.approx(LACO_20DB_UNAWARE, rel=0.05)


def test_unaware_underestimates_at_high_snr():
    aware = evaluate_ser(_config("laco", 20.0, 9), P_V, "rcn_aware").overall
    unaware = evaluate_ser(_config("laco", 20.0, 9), P_V, "rcn_unaware").overall
    assert aware >= 2.0 * unaware


def test_ado_aware_tracks_simulation_reference():
    report = evaluate_ser(_config("ado", 24.0), P_V, "rcn_aware")
    assert report.overall == pytest.approx(ADO_24DB_SIM, rel=0.05)


def test_haco_aware_tracks_simulation_reference():
    report = evaluate_ser(_config("haco", 30.0), P_V, "rcn_aware")
    assert report.overall == pytest.approx(HACO_30DB_SIM, rel=0.10)


def test_layer_ser_increases_with_layer_depth_when_aware():
    # deeper layers accumulate more clipping noise at fixed per-bin power
    report = evaluate_ser(_config("laco", 20.0, 9), P_V, "rcn_aware")
    per_layer = [float(np.mean(p)) for p in report.layer_ser]
    assert per_layer[1] > per_layer[0]
    # in the unaware evaluation every layer looks identical
    flat = evaluate_ser(_config("laco", 20.0, 9), P_V, "rcn_unaware")
    vals = [float(np.mean(p)) for p in flat.layer_ser]
    np.testing.assert_allclose(vals, vals[0], rtol=1e-12)


def test_overall_is_loaded_average():
    report = evaluate_ser(_config("laco", 20.0, 9), P_V, "rcn_unaware")
    total = sum(2.0 * float(np.sum(p)) for p in report.layer_ser)
    assert report.overall == pytest.approx(total / 1022)


def test_approximate_orders_flagged():
    cfg = SchemeConfig.uniform("laco", N, [16, 8, 2], 10.0, layers=3)
    report = evaluate_ser(cfg, P_V, "rcn_unaware")
    assert report.approximate_orders == (2, 8)
    clean = evaluate_ser(_config("laco", 20.0, 9), P_V, "rcn_unaware")
    assert clean.approximate_orders == ()


def test_mode_validation():
    with pytest.raises(ValueError):
        evaluate_ser(_config("laco", 20.0, 9), P_V, "oracle")


def test_ser_decreases_with_snr():
    vals = [evaluate_ser(_config("laco", g, 9), P_V, "rcn_aware").overall
            for g in (10.0, 16.0, 22.0, 28.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("mode", ["rcn_aware", "rcn_unaware"])
@pytest.mark.parametrize("bad", [np.nan, -1.0])
def test_noise_map_must_be_non_negative(mode, bad):
    # a NaN used to give a NaN SER; a negative power, a sqrt warning and NaN
    p_v = P_V.copy()
    p_v[3] = bad
    with pytest.raises(ValueError, match="noise map must be non-negative"):
        evaluate_ser(_config("laco", 20.0, 9), p_v, mode)


@pytest.mark.parametrize("mode", ["rcn_aware", "rcn_unaware"])
@pytest.mark.parametrize("scheme,layers", [("laco", 3), ("haco", None)])
def test_zero_noise_on_a_loaded_bin_gives_zero_ser(mode, scheme, layers):
    # Q(inf) = 0; a zero noise power used to warn "divide by zero" on its way there.
    # Bin 1 is on the first layer; in rcn_unaware mode bin 2 reaches the HACO PAM layer
    n = 64
    p_v = np.full(n, float(n))
    p_v[[1, 2]] = 0.0
    cfg = SchemeConfig.uniform(scheme, n, 16, gamma_to_p_eff(scheme, 20.0, 1.0, layers), layers)
    report = evaluate_ser(cfg, p_v, mode)
    assert report.layer_ser[0][0] == 0.0
    if mode == "rcn_unaware":
        assert report.layer_ser[1][0] == 0.0
    assert 0.0 < report.overall < evaluate_ser(cfg, np.full(n, float(n)), mode).overall
