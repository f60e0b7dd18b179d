"""Monte Carlo oracle: Levy increments and the Lamperti block estimator."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spectral_ssmp import lamperti
from spectral_ssmp.bernstein import DensityMeasure
from spectral_ssmp.errors import ConfigError, DomainError
from spectral_ssmp.exponents import Exponent, LevyQuadruplet, SignedMeasure
from spectral_ssmp.lamperti import SimConfig, mc_expectation

Q_BM = LevyQuadruplet(sigma2=1.0)
Q_DRIFT = LevyQuadruplet(b=2.0)
Q_BESQ4 = LevyQuadruplet(sigma2=1.0, b=1.0)  # the pair (id, u+1)


def test_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(dt=0.1)  # above the 1e-2 cap
    with pytest.raises(ConfigError):
        SimConfig(jump_eps=2.0)  # outside the compensated zone
    with pytest.raises(ConfigError):
        SimConfig(n_paths=0)
    # non-finite sizes and a non-integer path count
    for bad in ({"dt": np.nan}, {"dt": np.inf}, {"jump_eps": np.nan},
                {"jump_eps": np.inf}, {"t_max": np.nan}, {"t_max": np.inf},
                {"n_paths": 2.5}, {"n_paths": 100.0}):
        with pytest.raises(ConfigError):
            SimConfig(**bad)


def test_mc_rejects_non_finite_x_and_t():
    e = Exponent(quadruplet=Q_BM)
    cfg = SimConfig(n_paths=10)
    for x, t in ((np.nan, 0.5), (np.inf, 0.5), (1.0, np.nan), (1.0, np.inf),
                 (1.0, -np.inf)):
        with pytest.raises(DomainError):
            mc_expectation(e, lambda r: r, x, t, cfg)


def test_seed_must_lie_in_the_uint64_range():
    # a seed outside [0, 2**64) would alias one inside under a 64-bit mask;
    # both ends of the range key a generator
    for bad in (-1, 1 << 64, 1.5):
        with pytest.raises(ConfigError):
            SimConfig(seed=bad)
    for seed in (0, (1 << 64) - 1):
        est = mc_expectation(Exponent(quadruplet=Q_DRIFT), lambda r: r, 1.5,
                             0.75, SimConfig(n_paths=4, seed=seed))
        assert est.mean == pytest.approx(3.0, abs=1e-12)


def _terminal_values(q, T, dt, n_paths, seed):
    """Z_T of n_paths paths from lamperti._increments, drawn on blocks of
    the estimator's shape (budget // n_paths steps by n_paths paths)."""
    model = lamperti._build_jump_model(q, SimConfig(dt=dt))
    rng = lamperti._generator(seed)
    steps = int(round(T / dt))
    block = np.empty((max(1, lamperti._BLOCK_BUDGET // n_paths), n_paths))
    finals = np.zeros(n_paths)
    for start in range(0, steps, block.shape[0]):
        rows = block[:steps - start]
        lamperti._increments(model, rng, rows)
        finals += rows.sum(axis=0)
    return finals


def test_brownian_terminal_variance():
    # psi(xi) = xi^2 means Var Z_T = 2 T
    T = 1.0
    finals = _terminal_values(Q_BM, T, 1e-3, 10_000, seed=11)
    var = finals.var(ddof=1)
    stderr = 2.0 * T * np.sqrt(2.0 / finals.size)
    assert abs(var - 2.0 * T) <= 3.0 * stderr
    assert abs(finals.mean()) <= 3.0 * np.sqrt(2.0 * T / finals.size)


def test_drift_path_deterministic():
    # row s of a drift-only block holds Z = b s dt after its prefix sums
    model = lamperti._build_jump_model(Q_DRIFT, SimConfig(dt=1e-3))
    zs = np.zeros((1001, 256))
    lamperti._increments(model, lamperti._generator(0), zs[1:])
    lamperti._prefix_sums(zs)
    times = 1e-3 * np.arange(1001)
    assert np.max(np.abs(zs - 2.0 * times[:, None])) <= 1e-12


def test_compound_poisson_jump_count():
    lam = 3.0
    q = LevyQuadruplet(mu=SignedMeasure(atoms=((1.0, lam),)))
    T = 1.0
    # Z_T = N_T - lam T (unit jumps at |y| <= 1 are compensated), so the
    # Poisson count is Z_T + lam T
    counts = _terminal_values(q, T, 1e-3, 10_000, seed=5) + lam * T
    stderr = np.sqrt(lam * T / counts.size)
    assert abs(counts.mean() - lam * T) <= 3.0 * stderr
    assert abs(counts.var(ddof=1) - lam * T) <= 5.0 * stderr


def _density_below_eps_table(atoms=()):
    # density y^{-1.9} tabulated on [2, 4], extended by the declared tails
    # y^{-1.9} below 2 and 4^{3.1} y^{-5} above 4
    ys = np.geomspace(2.0, 4.0, 8)
    dens = DensityMeasure(tuple(ys), tuple(ys ** -1.9), 0.9, 4.0)
    return LevyQuadruplet(mu=SignedMeasure(atoms=atoms, density_pos=dens))


def test_density_jumps_below_table_are_simulated():
    # with jump_eps = 1e-3 the analytic head on [eps, 2) lies above eps:
    # its jumps are simulated, so the simulated jump rate is nu([eps, inf))
    # plus the mass of the atoms at or above eps
    eps = 1e-3
    for atoms in ((), ((5.0, 0.5), (5e-4, 2.0))):
        model = lamperti._build_jump_model(_density_below_eps_table(atoms),
                                           SimConfig(jump_eps=eps))
        sizes = model.jump_sizes
        rates = model.jump_rate * model.jump_probs
        assert sizes.min() >= eps
        head = (eps ** -0.9 - 2.0 ** -0.9) / 0.9
        body = (2.0 ** -0.9 - 4.0 ** -0.9) / 0.9
        tail = 4.0 ** 3.1 * 4.0 ** -4 / 4.0
        big = sum(m for y, m in atoms if abs(y) >= eps)
        assert np.isclose(rates.sum(), head + body + tail + big, rtol=1e-9)
        assert np.isclose(rates[sizes < 2.0].sum(), head, rtol=1e-9)
        # jumps below eps: variance integral_0^eps y^2 nu(dy)
        small = sum(m * y * y for y, m in atoms if abs(y) < eps)
        assert np.isclose(model.gauss_std_rate ** 2,
                          eps ** 1.1 / 1.1 + small, rtol=1e-12)


def test_density_jumps_below_table_keep_their_moments():
    atoms = LevyQuadruplet(mu=SignedMeasure(
        atoms=((1.5, 1.0), (-0.4, 1.0), (5e-4, 2.0))))
    # E Z_1 = integral_{y>1} y nu(dy), Var Z_1 = integral y^2 nu(dy); the
    # atoms lie two above jump_eps = 1e-3 and one below it
    for q, mean_rate, var_rate in (
            (_density_below_eps_table(),
             (4.0 ** 0.1 - 1.0) / 0.1 + 4.0 ** 0.1 / 3.0,
             4.0 ** 1.1 / 1.1 + 4.0 ** 1.1 / 2.0),
            (atoms, 1.5, 2.41 + 5e-7)):
        finals = _terminal_values(q, 1.0, 1e-3, 4000, seed=4)
        mean = finals.mean()
        var = finals.var(ddof=1)
        mean_se = finals.std(ddof=1) / np.sqrt(finals.size)
        var_se = ((finals - mean) ** 2).std(ddof=1) / np.sqrt(finals.size)
        assert abs(mean - mean_rate) <= 4.0 * mean_se
        assert abs(var - var_rate) <= 4.0 * var_se


def test_mc_t0_exact():
    cfg = SimConfig(dt=1e-3, n_paths=100, seed=0)
    est = mc_expectation(Exponent(quadruplet=Q_BM), lambda r: r ** 2, 1.7,
                         0.0, cfg)
    assert est.mean == pytest.approx(1.7 ** 2)
    assert est.stderr == 0.0


def test_mc_drift_only_machine_exact():
    cfg = SimConfig(dt=1e-3, n_paths=64, seed=0)
    est = mc_expectation(Exponent(quadruplet=Q_DRIFT), lambda r: r, 1.5,
                         0.75, cfg)
    assert est.mean == pytest.approx(3.0, abs=1e-12)
    assert est.stderr <= 1e-12
    assert est.absorbed_fraction == 0.0


def test_time_change_drift_closed_form():
    # Z_s = b s: the clock and its inverse are exact, X_t = x + b t
    cfg = SimConfig(dt=1e-3, n_paths=1, seed=0)
    for x, t in ((1.0, 0.5), (0.5, 1.0), (2.0, 3.0)):
        est = mc_expectation(Exponent(quadruplet=Q_DRIFT), lambda r: r, x,
                             t, cfg)
        assert est.mean == pytest.approx(x + 2.0 * t, rel=1e-13)


def test_mc_brownian_linear_mean_growth():
    # the generator applied to the identity is constant 1: E X_t = x + t
    cfg = SimConfig(dt=1e-3, n_paths=20_000, seed=7)
    est = mc_expectation(Exponent(quadruplet=Q_BM), lambda r: r, 1.0, 0.5,
                         cfg)
    assert abs(est.mean - 1.5) <= 3.0 * est.stderr + 0.01
    assert est.absorbed_fraction == 0.0


def test_mc_seed_determinism():
    cfg = SimConfig(dt=5e-3, n_paths=4000, seed=123)
    e1 = mc_expectation(Exponent(quadruplet=Q_BM), lambda r: r, 1.0, 0.3, cfg)
    e2 = mc_expectation(Exponent(quadruplet=Q_BM), lambda r: r, 1.0, 0.3, cfg)
    assert e1 == e2  # bit-for-bit


def test_mc_stderr_scaling():
    base = SimConfig(dt=5e-3, n_paths=4000, seed=21)
    quad = SimConfig(dt=5e-3, n_paths=16000, seed=21)
    e1 = mc_expectation(Exponent(quadruplet=Q_BM), lambda r: r, 1.0, 0.3, base)
    e2 = mc_expectation(Exponent(quadruplet=Q_BM), lambda r: r, 1.0, 0.3, quad)
    ratio = e2.stderr / e1.stderr
    assert abs(ratio - 0.5) <= 0.125


def test_mc_requires_quadruplet():
    from spectral_ssmp.families import make_bernstein
    from spectral_ssmp.exponents import WienerHopfPair
    pid = make_bernstein("drift", d=1.0)
    e = Exponent(pair=WienerHopfPair(pid, pid))
    with pytest.raises(DomainError):
        mc_expectation(e, lambda r: r, 1.0, 0.5, SimConfig())


def test_mc_unresolved_fraction_reported():
    cfg = SimConfig(dt=1e-3, n_paths=2000, seed=17, t_max=0.6)
    est = mc_expectation(Exponent(quadruplet=Q_BM), lambda r: r, 1.0, 0.5,
                         cfg)
    assert est.unresolved_fraction > 0.0
    assert est.unresolved_fraction == (
        (cfg.n_paths - est.n_effective) / cfg.n_paths)


def test_mc_killing_across_blocks(monkeypatch):
    # drift b with killing at rate q: Z_s = b s reaches the clock target
    # t/x at s* = log(1 + b t / x) / b, and a path is absorbed iff its
    # killing time falls before s*, which the crossing step solves exactly
    kill, b, x, t = 1.0, 1.0, 1.0, 1.0
    cfg = SimConfig(dt=1e-3, n_paths=20_000, seed=31)
    e = Exponent(quadruplet=LevyQuadruplet(psi0=kill, b=b))
    est = mc_expectation(e, lambda r: r, x, t, cfg)
    p = 1.0 - np.exp(-kill * np.log1p(b * t / x) / b)
    assert est.n_effective == cfg.n_paths
    stderr = np.sqrt(p * (1.0 - p) / cfg.n_paths)
    assert abs(est.absorbed_fraction - p) <= 4.0 * stderr + kill * cfg.dt
    # the only randomness is the killing times, drawn before any block, so
    # stepping one step per block must give the same estimate bit for bit
    monkeypatch.setattr(lamperti, "_BLOCK_BUDGET", 1)
    assert mc_expectation(e, lambda r: r, x, t, cfg) == est


def test_mc_killing_is_resolved_on_the_crossing_step():
    # the crossing s* = log(1.03) = 0.0296 lies in the third step of
    # dt = 1e-2; a path survives iff its killing time exceeds s*, so
    # E f(X_t) = P(survival) = exp(-psi0 s*) for f = 1; letting every
    # crossing on the killing step win would read 0.36 here
    psi0, b, x, t = 50.0, 1.0, 1.0, 0.03
    e = Exponent(quadruplet=LevyQuadruplet(psi0=psi0, b=b))
    est = mc_expectation(e, np.ones_like, x, t,
                         SimConfig(dt=1e-2, n_paths=20_000, seed=1))
    exact = np.exp(-psi0 * np.log1p(b * t / x) / b)
    assert est.n_effective == 20_000
    assert abs(est.mean - exact) <= 4.0 * est.stderr


def test_mc_builds_one_generator(monkeypatch):
    made = []
    sfc64 = np.random.SFC64

    def counting(*args, **kwargs):
        made.append(1)
        return sfc64(*args, **kwargs)

    monkeypatch.setattr(np.random, "SFC64", counting)
    cfg = SimConfig(dt=1e-3, n_paths=200, seed=3, t_max=1.0)
    est = mc_expectation(Exponent(quadruplet=Q_BM), lambda r: r, 1.0, 0.5,
                         cfg)
    assert est.unresolved_fraction > 0.0  # the live tail runs to t_max
    assert len(made) == 1


def test_block_steps_allocate_no_block_sized_array():
    # an array the size of a block, allocated and freed per block, is mapped
    # and page-faulted afresh whenever it lies above the allocator's mmap
    # threshold: the increments and the clock work in the block's buffers,
    # with and without jumps
    import tracemalloc
    atoms = SignedMeasure(atoms=((1.0, 2.0),))
    for q in (LevyQuadruplet(sigma2=1.0, mu=atoms), Q_BM):
        model = lamperti._build_jump_model(q, SimConfig(dt=1e-3))
        zs = np.zeros((65, 4096))
        acc, work = np.empty((64, 4096)), np.empty((64, 4096))
        # the first call's lazy set-up (about 1 MB) is not a block's work
        lamperti._increments(model, lamperti._generator(2), zs[1:])
        assert zs.shape[1] >= lamperti._ROW_SUM_MIN_WIDTH  # row-wise sums
        tracemalloc.start()
        try:
            lamperti._increments(model, lamperti._generator(3), zs[1:])
            lamperti._clock_ratios(zs[1:], acc, work)
            lamperti._prefix_sums(zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < acc.nbytes / 4
        # the same draws again: the raw increments
        d = np.empty_like(acc)
        lamperti._increments(model, lamperti._generator(3), d)
        assert_allclose(acc, np.expm1(d) / d, rtol=1e-12)


def _reference_ratios(d):
    """(e^d - 1)/d elementwise, 1 + d/2 where |d| <= 1e-12."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(np.abs(d) <= 1e-12, 1.0 + d / 2, np.expm1(d) / d)


def test_gaussian_block_ratio_repairs_tiny_increments():
    model = lamperti._build_jump_model(LevyQuadruplet(sigma2=1.0),
                                       SimConfig(dt=1e-3))
    d = np.empty((50, 300))
    lamperti._increments(model, lamperti._generator(4), d)
    tiny = [0.0, 1e-12, -1e-12, 3e-13, -7e-16, 1.1e-12]
    d.flat[[5, 700, 701, 4000, 9000, 14999]] = tiny
    got = np.empty_like(d)
    # as in the block loop, whose error state lets 0 / 0 pass
    with np.errstate(all="ignore"):
        lamperti._clock_ratios(d, got, np.empty_like(d))
    assert got.tobytes() == _reference_ratios(d).tobytes()
    assert got.flat[5] == 1.0


def test_increments_jump_counts_are_poisson_per_step():
    # unit jumps at rate 500 over dt = 1e-3: each step's count is
    # Poisson(0.5), and the compensator shifts every increment by -0.5
    q = LevyQuadruplet(mu=SignedMeasure(atoms=((1.0, 500.0),)))
    model = lamperti._build_jump_model(q, SimConfig(dt=1e-3))
    assert model.gauss_std_rate == 0.0 and model.drift == -500.0
    out = np.empty((400, 500))
    lamperti._increments(model, lamperti._generator(8), out)
    counts = np.rint(out + 0.5)
    assert np.array_equal(counts, out + 0.5)
    lam, n = 0.5, counts.size
    assert abs(counts.mean() - lam) <= 4.0 * np.sqrt(lam / n)
    # Var of the sample variance: (mu_4 - sigma^4) / n, mu_4 = lam (1 + 3 lam)
    assert abs(counts.var(ddof=1) - lam) <= 4.0 * np.sqrt(
        (lam * (1.0 + 3.0 * lam) - lam ** 2) / n)
    for got, p in ((np.mean(counts == 0), np.exp(-lam)),
                   (np.mean(counts == 1), lam * np.exp(-lam)),
                   (np.mean(counts >= 2), 1.0 - (1.0 + lam) * np.exp(-lam))):
        assert abs(got - p) <= 4.0 * np.sqrt(p * (1.0 - p) / n)


class _CountingRng:
    """A generator that records the size argument of every poisson call."""

    def __init__(self, rng):
        self._rng = rng
        self.poisson_sizes = []

    def poisson(self, lam, size=None):
        assert np.ndim(lam) == 0
        self.poisson_sizes.append(size)
        return self._rng.poisson(lam, size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_mc_draws_one_jump_count_per_block(monkeypatch):
    rngs, blocks = [], []
    generator, increments = lamperti._generator, lamperti._increments

    def counting_generator(seed):
        rngs.append(_CountingRng(generator(seed)))
        return rngs[-1]

    def counting_increments(*args):
        blocks.append(args[-1])
        return increments(*args)

    monkeypatch.setattr(lamperti, "_generator", counting_generator)
    monkeypatch.setattr(lamperti, "_increments", counting_increments)
    q = LevyQuadruplet(sigma2=1.0,
                       mu=SignedMeasure(atoms=((1.5, 1.0), (-0.4, 1.0))))
    cfg = SimConfig(dt=1e-3, n_paths=2000, seed=13)
    mc_expectation(Exponent(quadruplet=q), lambda r: r, 1.0, 0.5, cfg)
    assert len(rngs) == 1 and len(blocks) > 1
    # one scalar count per block, whatever its b x m path-steps
    assert rngs[0].poisson_sizes == [None] * len(blocks)


def test_density_remainder_mass_is_not_a_jump():
    # the mass beyond the last node of stable_density_table(0.5) (rem, a
    # rate of 1.8e-10) is left out: the table holds each node once, with
    # its own weight, and no jump reaches past the last node
    from spectral_ssmp.bernstein import _measure_rule
    from spectral_ssmp.families import stable_density_table
    tab = stable_density_table(0.5)
    dens = DensityMeasure(tuple(tab["y"]), tuple(tab["density"]), 0.5, 0.5)
    rule = _measure_rule(dens)
    assert rule.rem > 1e-10
    cfg = SimConfig()
    model = lamperti._build_jump_model(
        LevyQuadruplet(mu=SignedMeasure(density_pos=dens)), cfg)
    head, head_wts = rule.head_nodes(cfg.jump_eps)
    keep = rule.nodes >= cfg.jump_eps
    assert np.max(model.jump_sizes) <= rule.nodes[-1]
    assert np.count_nonzero(model.jump_sizes == rule.nodes[-1]) == 1
    assert model.jump_rate == pytest.approx(
        rule.weights[keep].sum() + head_wts[head >= cfg.jump_eps].sum(),
        rel=1e-13)


def test_jump_free_increments_are_the_scaled_normals():
    model = lamperti._build_jump_model(LevyQuadruplet(b=0.7, sigma2=1.3),
                                       SimConfig(dt=2e-3))
    assert model.jump_rate == 0.0
    out = np.empty((7, 300))
    lamperti._increments(model, lamperti._generator(5), out)
    twin = lamperti._generator(5)
    dt = model.dt
    scale = model.gauss_std_rate * np.sqrt(dt)
    want = model.drift * dt + scale * twin.standard_normal(out.shape)
    assert np.array_equal(out, want)


def _table_on_uniforms(entries, seed):
    """Atoms whose CDF knots below 1 are the first entries - 1 uniforms in
    [1/2, 1) that generator `seed` draws, so its draws fall on knots.
    Those uniforms are multiples of 2^-53 in [1/2, 1): their gaps, partial
    sums and total are exact, and the knots are the uniforms themselves."""
    u = lamperti._generator(seed).random(64)
    knots = np.sort(u[u >= 0.5][:entries - 1])
    masses = np.diff(knots, prepend=0.0, append=1.0)
    sizes = np.linspace(-0.9, 1.7, entries)
    return LevyQuadruplet(mu=SignedMeasure(
        atoms=tuple((float(y), float(m)) for y, m in zip(sizes, masses))))


def _stable_table_quadruplet():
    from spectral_ssmp.families import stable_density_table
    tab = stable_density_table(0.5)
    return LevyQuadruplet(mu=SignedMeasure(density_pos=DensityMeasure(
        tuple(tab["y"]), tuple(tab["density"]), 0.5, 0.5)))


@pytest.mark.parametrize("entries", [
    1, 2, lamperti._SHORT_TABLE, lamperti._SHORT_TABLE + 1, None,
], ids=["1", "2", "cut", "past-cut", "stable-table"])
def test_jump_draws_are_rng_choice_draws(entries):
    # one uniform per size through the CDF that Generator.choice builds (the
    # cumulated probabilities over their last partial sum), counting the
    # knots at or below it; the atom tables put their knots on uniforms of
    # the stream, where side="left" or a strict comparison picks the entry
    # below
    seed = 31
    q = (_stable_table_quadruplet() if entries is None
         else _table_on_uniforms(entries, seed))
    model = lamperti._build_jump_model(q, SimConfig())
    p = model.jump_probs
    cdf = np.cumsum(p)
    assert model.jump_cdf.tobytes() == (cdf / cdf[-1]).tobytes()
    long_table = entries is None or entries > lamperti._SHORT_TABLE
    assert (model.jump_cdf.size > lamperti._SHORT_TABLE) == long_table
    rng, twin = lamperti._generator(seed), lamperti._generator(seed)
    got = rng.random((3, 700))
    if entries is not None:
        assert np.count_nonzero(np.isin(got, model.jump_cdf)) == entries - 1
    lamperti._jump_sizes(model, got)
    want = twin.choice(model.jump_sizes, (3, 700), p=p)
    assert got.tobytes() == want.tobytes()
    assert rng.random() == twin.random()


def _reference_batch_estimate(q, f, x, t, cfg):
    """The block loop with np.cumsum, the clock computed elementwise and
    the crossing count taken over every path of the block, on the
    estimate's generator; a path that crosses and is killed in one step
    survives iff it crosses first."""
    model = lamperti._build_jump_model(q, cfg)
    n, dt, target = cfg.n_paths, cfg.dt, t / x
    rng = lamperti._generator(cfg.seed)
    kt = (rng.exponential(1.0 / model.kill_rate, n)
          if model.kill_rate > 0 else np.full(n, np.inf))
    values = np.zeros(n)
    resolved = np.zeros(n, dtype=bool)
    absorbed = np.zeros(n, dtype=bool)
    idx, z, acc = np.arange(n), np.zeros(n), np.zeros(n)
    max_steps = int(np.ceil(cfg.t_max / dt))
    step = 0
    while idx.size and step < max_steps:
        m = idx.size
        b = min(max_steps - step, max(1, lamperti._BLOCK_BUDGET // m))
        # d holds the raw increments, the clock's slope on each step
        d = np.empty((b, m))
        lamperti._increments(model, rng, d)
        zs = np.cumsum(np.vstack([z, d]), axis=0)
        accs = np.empty((b + 1, m))
        accs[0] = acc
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            accs[1:] = dt * np.exp(zs[:-1]) * _reference_ratios(d)
        np.cumsum(accs, axis=0, out=accs)
        cs = np.count_nonzero(accs[1:] < target, axis=0)
        crossed = cs < b
        ks = np.searchsorted((step + np.arange(1, b + 1)) * dt, kt)
        wins = crossed & (cs <= ks)
        r = np.flatnonzero(wins)
        s = cs[r]
        z0, z1 = zs[s, r], zs[s + 1, r]
        delta = lamperti._invert_segment(z0, (z1 - z0) / dt,
                                         target - accs[s, r])
        first = (step + s) * dt + delta < kt[r]
        wins[r[~first]] = False
        values[idx[r[first]]] = f(
            x * np.exp(z0[first] + (z1[first] - z0[first])
                       * (delta[first] / dt)))
        killed = (ks < b) & ~wins
        done = wins | killed
        resolved[idx[done]] = True
        absorbed[idx[killed]] = True
        live = ~done
        idx, z, acc, kt = idx[live], zs[-1, live], accs[-1, live], kt[live]
        step += b
    return values, resolved, absorbed


@pytest.mark.parametrize("budget", [1 << 16, 777])
@pytest.mark.parametrize("q, t_max", [
    (Q_BM, 4.0),
    (LevyQuadruplet(psi0=2.0, b=1.0, sigma2=1.0), 4.0),
    (LevyQuadruplet(sigma2=1.0,
                    mu=SignedMeasure(atoms=((1.5, 1.0), (-0.4, 1.0)))), 4.0),
    (LevyQuadruplet(psi0=2.0, sigma2=1.0,
                    mu=SignedMeasure(atoms=((1.5, 1.0), (-0.4, 1.0)))), 4.0),
    (LevyQuadruplet(psi0=2.0, b=1.0, sigma2=1.0), 0.3),
], ids=["brownian", "killed", "atoms", "atoms-killed", "killed-horizon"])
def test_block_loop_matches_the_reference_loop(monkeypatch, q, t_max,
                                               budget):
    # row-wise prefix sums, the jump scatter, and a crossing count and
    # killing bookkeeping on the paths that resolve change no bit of an
    # estimate; at t_max = 0.3 many paths run out of steps
    monkeypatch.setattr(lamperti, "_BLOCK_BUDGET", budget)
    widths = []
    prefix_sums = lamperti._prefix_sums

    def recording(a):
        widths.append(a.shape[1])
        prefix_sums(a)

    monkeypatch.setattr(lamperti, "_prefix_sums", recording)
    f = lambda r: r * r * np.exp(-r)
    cfg = SimConfig(dt=1e-3, n_paths=3000, seed=19, t_max=t_max)
    got = lamperti._estimate(lamperti._build_jump_model(q, cfg), f, 0.8,
                             0.4, cfg)
    want = _reference_batch_estimate(q, f, 0.8, 0.4, cfg)
    assert max(widths) >= lamperti._ROW_SUM_MIN_WIDTH
    if t_max < 1.0:
        # the horizon, not the crossings, ends the last block: its paths
        # are still too many for the np.cumsum branch
        assert 1000 < np.count_nonzero(~want[1]) and want[2].any()
    else:
        # both the row-wise and the np.cumsum branch ran
        assert min(widths) < lamperti._ROW_SUM_MIN_WIDTH
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("q, dim, x, seed", [
    pytest.param(Q_BM, 2, 1.0, 1, id="1.0-1"),
    pytest.param(Q_BM, 2, 2.0, 2, id="2.0-2"),
    pytest.param(Q_BESQ4, 4, 1.0, 1, id="besq4-1.0-1"),
    pytest.param(Q_BESQ4, 4, 2.0, 2, id="besq4-2.0-2"),
])
def test_mc_brownian_law_matches_exact_squared_bessel_draws(q, dim, x, seed):
    # psi(xi) = xi^2, the pair (id, id), is the Lamperti image of BESQ^2 run
    # at time t/2, and psi(xi) = xi^2 - i xi, the pair (id, u+1), that of
    # BESQ^4: X_t = (t/2) chi'^2_dim(2x/t) exactly (Revuz-Yor, ch. XI)
    t = 0.5
    f = lambda r: r * r * np.exp(-r)
    sup_f = 4.0 * np.exp(-2.0)
    est = mc_expectation(Exponent(quadruplet=q), f, x, t,
                         SimConfig(dt=1e-3, n_paths=20_000, seed=seed))
    rng = np.random.default_rng(seed)
    exact = f(0.5 * t * rng.noncentral_chisquare(dim, 2.0 * x / t, 10 ** 6))
    exact_se = exact.std(ddof=1) / np.sqrt(exact.size)
    bound = (5.0 * np.hypot(est.stderr, exact_se)
             + est.unresolved_fraction * sup_f)
    assert abs(est.mean - exact.mean()) <= bound


# ---------------------------------------------------------------------------
# the exact segment rows of Gaussian-free models
# ---------------------------------------------------------------------------

ATOMS = ((1.5, 1.0), (-0.4, 1.0))


def _psi_at_minus_i(atoms):
    """psi(-i) of the atoms (y, m): E e^{Z_s} = e^{-s psi(-i)}, so
    E_x X_t = x - psi(-i) t (Dynkin)."""
    return sum(m * (1.0 - np.exp(y) + (y if abs(y) <= 1.0 else 0.0))
               for y, m in atoms)


@pytest.mark.parametrize("q", [
    LevyQuadruplet(mu=SignedMeasure(atoms=ATOMS)),
    LevyQuadruplet(psi0=2.0, mu=SignedMeasure(atoms=ATOMS)),
    LevyQuadruplet(psi0=0.5, b=1.0),
], ids=["atoms", "atoms-killed", "drift-killed"])
def test_gaussian_free_estimate_does_not_depend_on_dt(q):
    # Z is linear between jumps, so the clock and its inverse are exact on
    # each segment and dt takes no part
    e = Exponent(quadruplet=q)
    f = lambda r: r * np.exp(-r)
    coarse, fine = (mc_expectation(e, f, 1.2, 0.6,
                                   SimConfig(dt=dt, n_paths=3000, seed=29))
                    for dt in (1e-2, 1e-3))
    assert coarse == fine


def test_unit_jumps_at_rate_500_have_the_exact_mean():
    # unit jumps at rate 500 and their compensator: E_x X_t = x - psi(-i) t
    # = 18.957 at x = 1, t = 0.05; steps of dt = 1e-3 hold a jump in 39% of
    # them, and the stepped clock read 16.23 +- 0.13 on this seed
    atoms = ((1.0, 500.0),)
    e = Exponent(quadruplet=LevyQuadruplet(mu=SignedMeasure(atoms=atoms)))
    est = mc_expectation(e, lambda r: r, 1.0, 0.05,
                         SimConfig(n_paths=20_000, seed=41))
    exact = 1.0 - _psi_at_minus_i(atoms) * 0.05
    assert exact == pytest.approx(18.957, abs=1e-3)
    assert abs(est.mean - exact) <= 4.0 * est.stderr


@pytest.mark.parametrize("x", [0.7, 1.6])
def test_atoms_have_the_exact_mean_at_100k_paths(x):
    e = Exponent(quadruplet=LevyQuadruplet(mu=SignedMeasure(atoms=ATOMS)))
    t = 0.5 * x
    est = mc_expectation(e, lambda r: r, x, t,
                         SimConfig(n_paths=100_000, seed=43))
    assert est.unresolved_fraction == 0.0
    assert abs(est.mean - (x - _psi_at_minus_i(ATOMS) * t)) <= 4.0 * est.stderr


class _RecordingRng:
    """A generator that records the name of every draw method called."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self._rng, name)


class _NoChoiceRng(_RecordingRng):
    """A recording generator whose choice raises."""

    def choice(self, *args, **kwargs):
        raise AssertionError("the estimate called Generator.choice")


@pytest.mark.parametrize("q", [
    LevyQuadruplet(mu=SignedMeasure(atoms=ATOMS)),
    LevyQuadruplet(mu=SignedMeasure(atoms=tuple(
        (y, 1.0) for y in np.linspace(-0.9, 1.7, lamperti._SHORT_TABLE + 1)))),
    LevyQuadruplet(sigma2=1.0, mu=SignedMeasure(atoms=ATOMS)),
    _density_below_eps_table(),
], ids=["segments-short", "segments-long", "steps-short", "steps-long"])
def test_estimate_never_calls_generator_choice(monkeypatch, q):
    # both row laws draw their sizes as uniforms, through the short and the
    # long table's mapping
    rngs = []
    generator = lamperti._generator

    def no_choice(seed):
        rngs.append(_NoChoiceRng(generator(seed)))
        return rngs[-1]

    monkeypatch.setattr(lamperti, "_generator", no_choice)
    cfg = SimConfig(n_paths=500, seed=11, t_max=4.0)
    est = mc_expectation(Exponent(quadruplet=q), lambda r: r, 1.0, 0.5, cfg)
    assert np.isfinite(est.mean) and est.n_effective > 0
    assert len(rngs) == 1 and "random" in rngs[0].calls


@pytest.mark.parametrize("psi0, calls", [(0.0, []), (0.7, ["exponential"])])
def test_drift_only_estimate_draws_nothing_after_the_killing_times(
        monkeypatch, psi0, calls):
    rngs = []
    generator = lamperti._generator

    def recording(seed):
        rngs.append(_RecordingRng(generator(seed)))
        return rngs[-1]

    shapes = []
    prefix_sums = lamperti._prefix_sums

    def recording_sums(a):
        shapes.append(a.shape)
        prefix_sums(a)

    monkeypatch.setattr(lamperti, "_generator", recording)
    monkeypatch.setattr(lamperti, "_prefix_sums", recording_sums)
    e = Exponent(quadruplet=LevyQuadruplet(psi0=psi0, b=2.0))
    est = mc_expectation(e, lambda r: r, 1.5, 0.75,
                         SimConfig(n_paths=64, seed=5))
    assert [r.calls for r in rngs] == [calls]
    assert est.unresolved_fraction == 0.0
    # one segment per path, to t_max: the sums of its time, Z and clock
    assert shapes == [(2, 64)] * 3


def test_killing_is_decided_at_the_exact_crossing_time():
    # Z_s = s crosses the target 0.5 at s* = log 1.5: a path is absorbed iff
    # its killing time, the generator's first draw, comes before s*
    n = 200_000
    cfg = SimConfig(n_paths=n, seed=37)
    q = LevyQuadruplet(psi0=2.0, b=1.0)
    values, resolved, absorbed = lamperti._estimate(
        lamperti._build_jump_model(q, cfg), np.ones_like, 1.0, 0.5, cfg)
    kt = lamperti._generator(cfg.seed).exponential(0.5, n)
    assert resolved.all()
    assert np.array_equal(absorbed, kt < np.log(1.5))
    assert np.array_equal(values, (~absorbed).astype(float))


@pytest.mark.parametrize("sigma2, psi0, t_max, n", [
    (0.0, 0.05, 20.0, 20_000),
    (1e-6, 0.5, 2.0, 2000),
], ids=["segments", "steps"])
def test_paths_that_cannot_cross_are_killed_or_unresolved_by_t_max(
        sigma2, psi0, t_max, n):
    # Z_s = -s (plus a faint Gaussian part, which makes the model stepped)
    # keeps the clock below 1, short of the target 2: a path is absorbed
    # iff it is killed before t_max, and unresolved otherwise
    e = Exponent(quadruplet=LevyQuadruplet(psi0=psi0, b=-1.0, sigma2=sigma2))
    est = mc_expectation(e, lambda r: r, 1.0, 2.0,
                         SimConfig(n_paths=n, seed=47, t_max=t_max))
    p = np.exp(-psi0 * t_max)
    assert est.absorbed_fraction == 1.0 and est.mean == 0.0
    assert abs(est.unresolved_fraction - p) <= 4.0 * np.sqrt(p * (1 - p) / n)
    # without killing no path resolves
    q = LevyQuadruplet(b=-1.0, sigma2=sigma2)
    with pytest.raises(ConfigError):
        mc_expectation(Exponent(quadruplet=q), lambda r: r, 1.0, 2.0,
                       SimConfig(n_paths=10, t_max=5.0))


def _reference_segment_estimate(q, f, x, t, cfg):
    """The segment simulator's rounds, with the same draws, walked path by
    path and segment by segment: a path stops at its first crossing, at a
    killing time within its segments, or at t_max."""
    model = lamperti._build_jump_model(q, cfg)
    n, b, t_max, target = cfg.n_paths, model.drift, cfg.t_max, t / x
    rng = lamperti._generator(cfg.seed)
    kt = (rng.exponential(1.0 / model.kill_rate, n)
          if model.kill_rate > 0 else np.full(n, np.inf))
    values = np.zeros(n)
    resolved = np.zeros(n, dtype=bool)
    absorbed = np.zeros(n, dtype=bool)
    state = {i: (0.0, 0.0, 0.0) for i in range(n)}  # time, Z and A
    rows = 1
    while state:
        live = sorted(state)
        rows = min(rows, max(1, lamperti._BLOCK_BUDGET // len(live)))
        if model.jump_rate > 0:
            taus = rng.standard_exponential((rows, len(live)))
            taus *= 1.0 / model.jump_rate
            jumps = rng.choice(model.jump_sizes, size=taus.shape,
                               p=model.jump_probs)
        else:
            taus = np.full((1, len(live)), np.inf)
            jumps = np.zeros_like(taus)
        taus = np.minimum(taus, t_max)
        ratios = _reference_ratios(b * taus)
        for j, i in enumerate(live):
            s, z, a = state.pop(i)
            for k in range(rows):
                tau = taus[k, j]
                a_end = a + ratios[k, j] * tau * np.exp(z)
                if not a_end < target:
                    rem = (target - a) * np.exp(-z)
                    delta = rem if abs(b) < 1e-12 else np.log1p(b * rem) / b
                    if kt[i] < s + delta:
                        absorbed[i] = resolved[i] = kt[i] <= t_max
                    elif s + delta <= t_max:
                        values[i] = f(x * np.exp(z + b * delta))
                        resolved[i] = True
                    break
                s += tau
                if kt[i] <= min(s, t_max):
                    absorbed[i] = resolved[i] = True
                    break
                if s >= t_max:
                    break
                z, a = z + (b * tau + jumps[k, j]), a_end
            else:
                state[i] = (s, z, a)
        rows *= 2
    return values, resolved, absorbed


@pytest.mark.parametrize("budget", [1 << 16, 777])
@pytest.mark.parametrize("q, t_max, t, unresolved", [
    (LevyQuadruplet(mu=SignedMeasure(atoms=ATOMS)), 4.0, 0.4, False),
    (LevyQuadruplet(psi0=2.0, mu=SignedMeasure(atoms=ATOMS)), 4.0, 0.4,
     False),
    (LevyQuadruplet(psi0=0.3, mu=SignedMeasure(atoms=((-0.3, 3.0),
                                                      (0.2, 1.0)))),
     1.5, 0.4, True),
    (LevyQuadruplet(psi0=0.5, b=-1.0), 3.0, 1.2, True),
    (LevyQuadruplet(psi0=1.0, b=1.0, mu=SignedMeasure(atoms=((0.1, 1.0),))),
     0.3, 0.4, True),
], ids=["atoms", "atoms-killed", "killed-downward-atoms",
        "killed-falling-drift", "killed-past-t-max"])
def test_segment_rounds_match_the_path_by_path_loop(monkeypatch, q, t_max, t,
                                                    unresolved, budget):
    # the downward atoms leave paths unresolved at t_max, some of them
    # crossing or killed on a segment that reaches past it, the falling
    # drift never reaches the target, and in the last case every path
    # crosses after t_max: their paths are killed or unresolved
    monkeypatch.setattr(lamperti, "_BLOCK_BUDGET", budget)
    f = lambda r: r * r * np.exp(-r)
    cfg = SimConfig(n_paths=3000, seed=23, t_max=t_max)
    got = lamperti._estimate(lamperti._build_jump_model(q, cfg), f, 0.8, t,
                             cfg)
    values, resolved, absorbed = _reference_segment_estimate(q, f, 0.8, t,
                                                             cfg)
    assert np.array_equal(got[1], resolved)
    assert np.array_equal(got[2], absorbed)
    assert_allclose(got[0], values, rtol=1e-12, atol=0.0)
    assert absorbed.any() == (q.psi0 > 0)
    assert (not resolved.all()) == unresolved
