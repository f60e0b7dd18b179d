"""Contract tests for the complex log-gamma primitive."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spectral_ssmp.special import gauss_legendre, log_gamma, log_gamma_ratio


def _grid():
    a = np.array([0.25, 0.5, 1.0, 2.0, 5.5])
    xi = np.linspace(-40.0, 40.0, 41)
    return (a[:, None] + 1j * xi[None, :]).ravel()


def test_recurrence_residual():
    z = _grid()
    res = np.abs(np.exp(log_gamma(z + 1) - log_gamma(z)) / z - 1.0)
    assert res.max() <= 1e-12


def test_reflection_residual():
    # Gamma(z) Gamma(1-z) = pi / sin(pi z), checked in log space away from
    # the real axis where sin is benign
    xi = np.linspace(0.3, 20.0, 25)
    z = 0.3 + 1j * xi
    lhs = log_gamma(z) + log_gamma(1.0 - z)
    rhs = np.log(np.pi / np.sin(np.pi * z))
    assert np.abs(np.exp(lhs - rhs) - 1.0).max() <= 1e-12


def test_known_values():
    assert_allclose(np.exp(log_gamma(0.5 + 0j)).real, np.sqrt(np.pi),
                    rtol=1e-14)
    assert_allclose(np.exp(log_gamma(5.0 + 0j)).real, 24.0, rtol=1e-14)


def test_gauss_legendre_exactness():
    x, w = gauss_legendre(8)
    # degree-15 polynomial integrated exactly on [0, 1]
    for k in range(16):
        assert_allclose(np.sum(w * x ** k), 1.0 / (k + 1), rtol=1e-13)


def test_gauss_legendre_is_shared_and_read_only():
    x, w = gauss_legendre(6)
    assert gauss_legendre(6)[0] is x and gauss_legendre(6)[1] is w
    for arr in (x, w):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_log_gamma_ratio_matches_mpmath():
    # the series side (|x| >= 10) keeps the few ulp that the difference of
    # two log-gamma values of size |x| log|x| loses; the near side is that
    # difference
    mpmath = pytest.importorskip("mpmath")
    for a in (0.3, 0.7, 1.0, 3.5):
        x = np.concatenate([a * (32.5 + 1j * np.geomspace(0.1, 1750.0, 25)),
                            1.0 + a * (0.5 - 1j * np.geomspace(0.1, 1750.0, 25)),
                            [0.5, 9.0 + 1j, 10.0 * max(1.0, a) + 0j, 40.0j]])
        with mpmath.workdps(30):
            ref = np.array([complex(mpmath.loggamma(mpmath.mpc(v) + a)
                                    - mpmath.loggamma(mpmath.mpc(v)))
                            for v in x])
        got = log_gamma_ratio(x, a)
        assert got.shape == x.shape
        err = np.abs(np.exp(got - ref) - 1.0)
        assert err.max() <= 1e-14, (a, err.max())
    assert complex(log_gamma_ratio(2.0, 1.0)) == pytest.approx(np.log(2.0))
