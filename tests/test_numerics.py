"""Tests for the shared numerical primitives."""

import numpy as np
import pytest

from hermitian import hermitian_embed
from oofdm.numerics import (IMAG_RESIDUE_TOL, fft, gaussian_frame, ifft, qfunc,
                            qfunc_inv, real_ifft, spawn_seeds)

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
    # forward unnormalized, inverse 1/N: sum x^2 = (1/N) sum |X|^2
    rng = np.random.default_rng(7)
    x = rng.standard_normal(256)
    X = fft(x)
    assert np.sum(x ** 2) == pytest.approx(np.sum(np.abs(X) ** 2) / 256)
    np.testing.assert_allclose(ifft(X).real, x, atol=1e-12)


@pytest.mark.parametrize("n", [7, 12, 4, 0])
def test_fft_rejects_bad_length(n):
    with pytest.raises(ValueError):
        fft(np.zeros(max(n, 1)) if n else np.zeros(1))


def test_real_ifft_accepts_hermitian_spectrum():
    rng = np.random.default_rng(3)
    n = 64
    loads = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    X = hermitian_embed(loads, np.arange(1, 11), n)
    x = real_ifft(X)
    assert x.dtype == float
    np.testing.assert_allclose(np.fft.fft(x), X, atol=1e-12)


def test_real_ifft_rejects_non_hermitian():
    X = np.zeros(64, dtype=complex)
    X[3] = 1.0 + 1.0j  # no mirror at bin 61
    with pytest.raises(ValueError):
        real_ifft(X)


def test_imag_residue_tolerance_is_tight():
    assert IMAG_RESIDUE_TOL <= 1e-9


def test_gaussian_frame_variance():
    # statistical check: sample variance within 1% at N = 2^20
    x = gaussian_frame(12345, 1.0, 2 ** 20)
    assert np.var(x) == pytest.approx(1.0, rel=0.01)
    assert np.all(gaussian_frame(0, 0.0, 16) == 0.0)
    with pytest.raises(ValueError):
        gaussian_frame(0, -1.0, 16)


def test_spawn_seeds_deterministic_and_independent():
    a = [np.random.default_rng(s).random() for s in spawn_seeds(42, 4)]
    b = [np.random.default_rng(s).random() for s in spawn_seeds(42, 4)]
    assert a == b
    assert len(set(a)) == 4
