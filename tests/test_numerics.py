"""Tests for the shared numerical primitives."""

import numpy as np
import pytest

from layer_signals import layer_frames, layer_loads
from oofdm.modems import affected_subcarriers
from oofdm.multilayer import SchemeConfig
from oofdm.numerics import qfunc, qfunc_inv
from txrx import transmit

# frozen oracle: numeric integration of the standard normal tail to 1e-6
Q_AT_1_2816 = 0.09999150009767514
# frozen oracle: bisection of the tail integral against p = 0.0025
QINV_AT_0_0025 = 2.8070337683438034


def test_qfunc_matches_tail_integration_oracle():
    assert qfunc(1.2816) == pytest.approx(Q_AT_1_2816, abs=1e-9)


def test_qfunc_basic_identities():
    assert qfunc(0.0) == pytest.approx(0.5)
    x = np.array([-2.0, -0.5, 0.7, 3.1])
    np.testing.assert_allclose(qfunc(x) + qfunc(-x), 1.0, atol=1e-14)


def test_qfunc_inv_matches_bisection_oracle():
    assert qfunc_inv(0.0025) == pytest.approx(QINV_AT_0_0025, abs=1e-9)


def test_qfunc_inv_roundtrip():
    for p in (1e-6, 1e-3, 0.1, 0.5, 0.9):
        assert qfunc(qfunc_inv(p)) == pytest.approx(p, rel=1e-10)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
def test_qfunc_inv_domain(p):
    with pytest.raises(ValueError):
        qfunc_inv(p)


def test_fft_parseval():
    # forward unnormalized, inverse 1/N: a transmitted frame's DFT carries
    # its loads unscaled, and sum x^2 = (1/N) sum |X|^2
    cfg = SchemeConfig.uniform("aco", 256, 16, 1.0)
    tx = transmit(cfg, np.random.default_rng(7), 1)
    s = layer_frames(cfg, tx.sym_idx)[0][0][0]
    X = np.fft.fft(s)
    bins = cfg.layers[0].bins
    loads = layer_loads(cfg.layers[0], tx.sym_idx[0])[0]
    np.testing.assert_allclose(X[bins], loads, atol=1e-9)
    np.testing.assert_allclose(X[256 - bins], np.conj(loads), atol=1e-9)
    assert np.sum(s ** 2) == pytest.approx(np.sum(np.abs(X) ** 2) / 256)


@pytest.mark.parametrize("n", [7, 12, 4, 0])
def test_fft_rejects_bad_length(n):
    # N is the length of every layer transform; the subcarrier index sets
    # every config is built from reject an N that is not a power of two >= 8
    with pytest.raises(ValueError):
        SchemeConfig.uniform("aco", n, 4, 1.0)
    with pytest.raises(ValueError):
        affected_subcarriers(1, n)
