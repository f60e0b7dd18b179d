"""Contract tests for the gamma-family primitives, against mpmath."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import spectral_ssmp
from spectral_ssmp.errors import DomainError
from spectral_ssmp.special import (
    gauss_legendre,
    log_gamma,
    log_gamma_long,
    log_gamma_ratio,
)

# the EIGEN_GRID horizon: the largest |Im z| the library evaluates at
HORIZON = 1718.0


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


def test_gauss_legendre_is_leggauss():
    # exact on monomials up to degree 2n - 1, and numpy's own rule to 2 ulp
    for n in range(1, 41):
        x, w = gauss_legendre(n)
        for k in range(2 * n):
            assert abs(np.sum(w * x ** k) - 1.0 / (k + 1)) <= 4e-15, (n, k)
        rx, rw = np.polynomial.legendre.leggauss(n)
        assert np.all(np.abs(x - 0.5 * (rx + 1.0))
                      <= 2.0 * np.spacing(np.maximum(x, 0.5)))
        assert np.all(np.abs(w - 0.5 * rw) <= 2.0 * np.spacing(w))


def test_gauss_legendre_is_shared_and_read_only():
    x, w = gauss_legendre(6)
    assert gauss_legendre(6)[0] is x and gauss_legendre(6)[1] is w
    for arr in (x, w):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_log_gamma_ratio_matches_mpmath():
    # the series side (|x| >= 10) keeps the few ulp that the difference of
    # two log-gamma values of size |x| log|x| loses; the near side shifts x
    # onto the series side by the ratio recurrence
    mpmath = pytest.importorskip("mpmath")
    for a in (0.3, 0.7, 1.0):
        x = np.concatenate([a * (32.5 + 1j * np.geomspace(0.1, 1750.0, 25)),
                            1.0 + a * (0.5 - 1j * np.geomspace(0.1, 1750.0, 25)),
                            [0.5, 9.0 + 1j, 10.0 + 0j, 40.0j]])
        with mpmath.workdps(30):
            ref = np.array([complex(mpmath.loggamma(mpmath.mpc(v) + a)
                                    - mpmath.loggamma(mpmath.mpc(v)))
                            for v in x])
        got = log_gamma_ratio(x, a)
        assert got.shape == x.shape
        err = np.abs(np.exp(got - ref) - 1.0)
        assert err.max() <= 1e-14, (a, err.max())
        # and on the branch of the difference itself, not 2 pi i away
        assert np.abs(got - ref).max() <= 1e-12, (a, np.abs(got - ref).max())
    assert complex(log_gamma_ratio(2.0, 1.0)) == pytest.approx(np.log(2.0))


def _served_grid():
    """Re z in (0, 50], |Im z| <= HORIZON, dense around |z| = 8 where the
    shift hands over to the Stirling series."""
    re = np.array([1e-3, 0.1, 0.5, 1.0, 2.5, 5.0, 7.9, 8.1, 20.0, 50.0])
    im = np.geomspace(1e-3, HORIZON, 24)
    z = (re[:, None] + 1j * np.concatenate([-im, [0.0], im])[None, :]).ravel()
    ring = 8.0 * np.exp(1j * np.linspace(-0.5 * np.pi, 0.5 * np.pi, 41))
    return np.concatenate([z, ring * (1.0 - 1e-12), ring * (1.0 + 1e-12)])


def test_log_gamma_matches_mpmath_over_the_served_range():
    mpmath = pytest.importorskip("mpmath")
    z = _served_grid()
    with mpmath.workdps(30):
        ref = np.array([complex(mpmath.loggamma(mpmath.mpc(v))) for v in z])
    err = np.abs(log_gamma(z) - ref) / np.maximum(1.0, np.abs(ref))
    assert err.max() <= 1e-14, err.max()


def test_log_gamma_ratio_near_side_matches_mpmath():
    # the recurrence side |x| < 10, Re x >= 0, sampled densely
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    for a in (0.3, 0.7, 1.0):
        r = 10.0
        x = rng.uniform(0.0, r, 400) + 1j * rng.uniform(-r, r, 400)
        x = np.concatenate([x[np.abs(x) < r], [1e-3, 1e-3j, r * (1 - 1e-12)]])
        with mpmath.workdps(30):
            ref = np.array([complex(mpmath.loggamma(mpmath.mpc(v) + a)
                                    - mpmath.loggamma(mpmath.mpc(v)))
                            for v in x])
        got = log_gamma_ratio(x, a)
        err = np.abs(np.exp(got - ref) - 1.0)
        assert err.max() <= 1e-14, (a, err.max())
        assert np.abs(got - ref).max() <= 1e-13, (a, np.abs(got - ref).max())
        # the Bernstein-gamma evaluator sums log phi over many points, so
        # a rounding bias shared by the points would add up there
        bias = np.mean(got - ref)
        assert max(abs(bias.real), abs(bias.imag)) <= 1e-16, (a, bias)


def test_real_inputs_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    x = np.array([1e-3, 0.25, 1.0, 1.4616321449683622, 2.5, 7.99, 8.0, 30.0,
                  171.5, 4000.0])
    with mpmath.workdps(30):
        ref_ratio = np.array([float(mpmath.loggamma(mpmath.mpf(v) + 0.7)
                                    - mpmath.loggamma(mpmath.mpf(v)))
                              for v in x])
    err = np.abs(log_gamma_ratio(x, 0.7) - ref_ratio) / np.maximum(
        1.0, np.abs(ref_ratio))
    assert err.max() <= 1e-15
    # a 0-d array a is accepted as a float
    assert np.array_equal(log_gamma_ratio(x, np.array(0.7)),
                          log_gamma_ratio(x, 0.7))


def test_long_double_log_gamma_matches_mpmath():
    # within a few extended-precision ulp of the value, on both sides of
    # the shift at 16 and across the Wright denominators' range
    mpmath = pytest.importorskip("mpmath")
    x = np.array([1e-8, 0.1, 0.3, 1.0, 1.3, 2.0, 2.5, 7.3, 15.99, 16.0,
                  16.01, 40.5, 1000.25, 4000.0, 1e6], dtype=np.longdouble)
    got = log_gamma_long(x)
    assert got.dtype == np.longdouble and got.shape == x.shape
    eps = float(np.finfo(np.longdouble).eps)
    with mpmath.workdps(40):
        for v, g in zip(x, got):
            ref = mpmath.loggamma(mpmath.mpf(str(v)))
            err = abs(mpmath.mpf(str(g)) - ref)
            assert err <= 64 * eps * max(1, abs(ref)), (v, float(err))
    # each point's value is the same whatever its company
    assert np.array_equal(log_gamma_long(x[::-1]), got[::-1])
    for bad in (0.0, -1.5, np.nan):
        with pytest.raises(DomainError):
            log_gamma_long(np.array([2.0, bad]))


def test_log_gamma_of_conjugate_is_conjugate_bit_for_bit():
    z = _served_grid()
    assert np.array_equal(log_gamma(np.conj(z)), np.conj(log_gamma(z)))


def test_one_point_calls_are_bit_identical_to_array_calls():
    # a point's bits do not depend on its company: NumPy 2.4 rounds an
    # in-place complex product on a one-element array, and a sum along the
    # axis of one column, another way than on longer arrays (7 log_gamma
    # mismatches and 1 of log_gamma_ratio over these points before)
    rng = np.random.default_rng(0)
    z = 0.5 + 1j * rng.uniform(-1700.0, 1700.0, 4000)
    one = np.array([log_gamma(z[i:i + 1])[0] for i in range(z.size)])
    assert np.array_equal(log_gamma(z), one)
    x = rng.uniform(0.0, 3.0, 4000) + 1j * rng.uniform(-300.0, 300.0, 4000)
    for a in (0.3, 0.7, 1.0):
        one = np.array([log_gamma_ratio(x[i:i + 1], a)[0]
                        for i in range(x.size)])
        assert np.array_equal(log_gamma_ratio(x, a), one), a


def test_domains_are_enforced():
    with pytest.raises(DomainError):
        log_gamma(np.array([-0.5 + 1j]))
    # the ratio serves the closed-form indices, 0 < a <= 1
    for a in (0.0, -0.5, 1.5, 3.5, np.nan, np.inf):
        with pytest.raises(DomainError):
            log_gamma_ratio(np.array([2.0 + 1j]), a)


# A None entry in sys.modules makes any import of that module raise
# ImportError.  bgamma on a gamma-ratio factor and the Lambda multiplier of
# the gamma pair reach log_gamma, log_gamma_ratio and the import of cli;
# evolve and generator-check reach the semigroup module; evolve_tensor with
# a shear resamples the grid, and generator_ido on atoms plus a tabulated
# density walks every branch of the integro-differential form.
_NO_SCIPY = """
import json, sys
sys.modules["scipy"] = None
import numpy as np
from spectral_ssmp import cli
from spectral_ssmp.bernstein import DensityMeasure
from spectral_ssmp.exponents import (Exponent, LevyQuadruplet, SignedMeasure,
                                     WienerHopfPair)
from spectral_ssmp.families import make_bernstein
from spectral_ssmp.semigroup import (EvolutionPlan, TensorPlan, evolve_tensor,
                                     generator_ido, generator_pdo)
from spectral_ssmp.transform import GridFunction, GridSpec, h_fixture
minus, pair, out = sys.argv[1:]
code = max(cli.run(["bgamma", "--phi", minus, "--points", "21",
                    "--out", out + "/w.csv"]),
           cli.run(["multiplier", "--pair", pair, "--kind", "Lambda",
                    "--grid=-20:40:512", "--out", out + "/m.csv"]),
           cli.run(["evolve", "--pair", pair, "--t", "0.5", "--f", "h:1:1",
                    "--grid=-20:40:512", "--out", out + "/e.csv"]),
           cli.run(["generator-check", "--quadruplet", '{"sigma2": 1.0}',
                    "--grid=-10:30:2048", "--out", out + "/g.csv"]))
spec = GridSpec(-20.0, 40.0, 512)
drift = make_bernstein("drift", d=1.0)
plan = EvolutionPlan(WienerHopfPair(drift, drift), spec)
shear = TensorPlan((plan, plan), matrix_m=np.array([[1.0, 0.01], [0.0, 1.0]]))
h = h_fixture(spec, 1.0, 1.0).values
tensor = evolve_tensor(shear, 0.5, np.outer(h, h))
y = np.geomspace(1e-4, 100.0, 121)
dens = DensityMeasure(tuple(y), tuple(y ** -1.5 * np.exp(-y)), 0.5, 1.5)
q = LevyQuadruplet(sigma2=0.5, mu=SignedMeasure(
    atoms=((1.0, 0.5), (-2.0, 0.25)), density_pos=dens))
gspec = GridSpec(-10.0, 30.0, 2048)
fn = lambda x: np.exp(-x ** 2)
pdo = generator_pdo(Exponent(quadruplet=q), GridFunction(gspec, fn(gspec.x)))
gap = np.abs(pdo.values - generator_ido(q, fn, gspec).values)[2:-2].max()
print(json.dumps({"tensor_finite": bool(np.all(np.isfinite(tensor))),
                  "generator_gap": float(gap)}))
sys.exit(code)
"""


def test_cli_runs_without_scipy(tmp_path):
    minus = {"family": "gamma-ratio-minus", "alpha": 0.3, "rho": 1.0}
    pair = {"plus": {"family": "gamma-ratio-plus", "alpha_tilde": 0.7},
            "minus": minus}
    src = os.path.dirname(os.path.dirname(spectral_ssmp.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, json.dumps(minus), json.dumps(pair),
         str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    for name in ("w.csv", "m.csv", "e.csv", "g.csv"):
        rows = np.genfromtxt(tmp_path / name, delimiter=",", names=True,
                             dtype=None, encoding="ascii")
        assert rows.size > 0
        for col in rows.dtype.names:
            if rows[col].dtype.kind == "f":
                assert np.all(np.isfinite(rows[col])), (name, col)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["tensor_finite"]
    assert report["generator_gap"] <= 1e-6


# numpy.ma and numpy.polynomial cost a few ms each to import; np.unique,
# np.union1d and np.median load the first, leggauss the second
_NO_MA = """
import sys
from spectral_ssmp import cli
pair, out = sys.argv[1:]
code = max(cli.run(["multiplier", "--pair", pair, "--grid=-20:40:512",
                    "--out", out + "/m.csv"]),
           cli.run(["classify", "--pair", pair]))
loaded = sorted(m for m in sys.modules
                if m.split(".")[:2] in (["numpy", "ma"], ["numpy", "polynomial"]))
sys.exit(f"loaded {loaded}" if loaded else code)
"""


def test_cli_loads_neither_numpy_ma_nor_numpy_polynomial(tmp_path):
    pair = {"plus": {"family": "gamma-ratio-plus", "alpha_tilde": 0.7},
            "minus": {"family": "gamma-ratio-minus", "alpha": 0.3,
                      "rho": 1.0}}
    src = os.path.dirname(os.path.dirname(spectral_ssmp.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_MA, json.dumps(pair), str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
