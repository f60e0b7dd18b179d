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
    # threshold: the increments and the clock work in the block's buffers
    import tracemalloc
    q = LevyQuadruplet(sigma2=1.0, mu=SignedMeasure(atoms=((1.0, 2.0),)))
    model = lamperti._build_jump_model(q, SimConfig(dt=1e-3))
    zs = np.zeros((65, 4096))
    acc, work = np.empty((64, 4096)), np.empty((64, 4096))
    # the first call's lazy set-up (about 1 MB) is not a block's work
    lamperti._increments(model, lamperti._generator(2), zs[1:])
    assert zs.shape[1] >= lamperti._ROW_SUM_MIN_WIDTH  # the row-wise sums
    tracemalloc.start()
    try:
        lamperti._increments(model, lamperti._generator(3), zs[1:])
        lamperti._prefix_sums(zs)
        lamperti._segment_clock(zs[:-1], zs[1:], 1e-3, acc, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < acc.nbytes / 4
    d = np.diff(zs, axis=0)
    assert_allclose(acc, 1e-3 * np.exp(zs[:-1]) * np.expm1(d) / d,
                    rtol=1e-12)


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
    q = LevyQuadruplet(mu=SignedMeasure(atoms=((1.5, 1.0), (-0.4, 1.0))))
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


def _reference_batch_estimate(q, f, x, t, cfg):
    """The block loop with np.cumsum and the crossing count taken over
    every path of the block, on the estimate's generator; a path that
    crosses and is killed in one step survives iff it crosses first."""
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
        zs = np.empty((b + 1, m))
        zs[0] = z
        lamperti._increments(model, rng, zs[1:])
        np.cumsum(zs, axis=0, out=zs)
        accs = np.empty((b + 1, m))
        accs[0] = acc
        lamperti._segment_clock(zs[:-1], zs[1:], dt, accs[1:],
                                np.empty((b, m)))
        np.cumsum(accs, axis=0, out=accs)
        cs = np.count_nonzero(accs[1:] < target, axis=0)
        crossed = cs < b
        ks = np.searchsorted((step + np.arange(1, b + 1)) * dt, kt)
        wins = crossed & (cs <= ks)
        r = np.flatnonzero(wins)
        s = cs[r]
        z0, z1 = zs[s, r], zs[s + 1, r]
        delta = lamperti._invert_segment(z0, z1, dt, target - accs[s, r])
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
@pytest.mark.parametrize("q", [
    Q_BM,
    LevyQuadruplet(psi0=2.0, b=1.0, sigma2=1.0),
    LevyQuadruplet(mu=SignedMeasure(atoms=((1.5, 1.0), (-0.4, 1.0)))),
], ids=["brownian", "killed", "atoms"])
def test_block_loop_matches_the_reference_loop(monkeypatch, q, budget):
    # row-wise prefix sums and a crossing count over the crossed paths alone
    # change no bit of an estimate
    monkeypatch.setattr(lamperti, "_BLOCK_BUDGET", budget)
    widths = []
    prefix_sums = lamperti._prefix_sums

    def recording(a):
        widths.append(a.shape[1])
        prefix_sums(a)

    monkeypatch.setattr(lamperti, "_prefix_sums", recording)
    f = lambda r: r * r * np.exp(-r)
    cfg = SimConfig(dt=1e-3, n_paths=3000, seed=19, t_max=4.0)
    got = lamperti._batch_estimate(q, f, 0.8, 0.4, cfg)
    want = _reference_batch_estimate(q, f, 0.8, 0.4, cfg)
    # both the row-wise and the np.cumsum branch ran
    assert min(widths) < lamperti._ROW_SUM_MIN_WIDTH <= max(widths)
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

