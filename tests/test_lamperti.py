"""Monte Carlo oracle: Levy increments and the Lamperti block estimator."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import ive

from spectral_ssmp import lamperti
from spectral_ssmp.bernstein import DensityMeasure
from spectral_ssmp.errors import DomainError
from spectral_ssmp.exponents import Exponent, LevyQuadruplet, SignedMeasure
from spectral_ssmp.lamperti import MCEstimate, SimConfig, mc_expectation

Q_BM = LevyQuadruplet(sigma2=1.0)
Q_DRIFT = LevyQuadruplet(b=2.0)
Q_BESQ4 = LevyQuadruplet(sigma2=1.0, b=1.0)  # the pair (id, u+1)


def test_config_validation():
    with pytest.raises(DomainError):
        SimConfig(dt=0.1)  # above the 1e-2 cap
    with pytest.raises(DomainError):
        SimConfig(jump_eps=2.0)  # outside the compensated zone
    with pytest.raises(DomainError):
        SimConfig(n_paths=0)
    # non-finite sizes and a non-integer path count
    for bad in ({"dt": np.nan}, {"dt": np.inf}, {"jump_eps": np.nan},
                {"jump_eps": np.inf}, {"t_max": np.nan}, {"t_max": np.inf},
                {"n_paths": 2.5}, {"n_paths": 100.0}):
        with pytest.raises(DomainError):
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
        with pytest.raises(DomainError):
            SimConfig(seed=bad)
    for seed in (0, (1 << 64) - 1):
        est = mc_expectation(Exponent(quadruplet=Q_DRIFT), lambda r: r, 1.5,
                             0.75, SimConfig(n_paths=4, seed=seed))
        assert est.mean == pytest.approx(3.0, abs=1e-12)


def _cap(model, cfg):
    """A row's cap: dt with a Gaussian part, t_max without."""
    return cfg.dt if model.gauss_std_rate > 0 else cfg.t_max


def _reference_rows(model, rng, cap, shape):
    """Rows of the row law drawn plainly, in the estimate's draw order:
    lengths (with jumps), continuous increments and end jumps, the sizes
    from Generator.choice.  A row ends at its next jump or at its cap, and
    a row that reached its cap has no jump."""
    b, std, rate = model.drift, model.gauss_std_rate, model.jump_rate
    h = (np.minimum(rng.standard_exponential(shape) * (1.0 / rate), cap)
         if rate > 0 else np.full(shape, cap))
    if std > 0:
        c = rng.standard_normal(shape) * (std * np.sqrt(h))
        if b:
            c = c + b * h
    else:
        c = h * b
    jumps = np.zeros(shape)
    if rate > 0:
        jumps = rng.choice(model.jump_sizes, shape, p=model.jump_probs)
        jumps[h >= cap] = 0.0
    return h, c, jumps


def _stopped_values(q, T, n_paths, seed, dt=1e-3):
    """tau, the end of each path's first row at or past T, and Z_tau, for
    n_paths paths of `_reference_rows`.  tau is a stopping time, so Wald's
    identities give E Z_tau = m E tau and E (Z_tau - m tau)^2 = v E tau for
    the Levy process's mean m and variance v per unit time."""
    cfg = SimConfig(dt=dt)
    model = lamperti._build_jump_model(q, cfg)
    rng = lamperti._generator(seed)
    s, z = np.zeros(n_paths), np.zeros(n_paths)
    tau, z_tau = np.full(n_paths, np.nan), np.full(n_paths, np.nan)
    cols = np.arange(n_paths)
    while np.isnan(tau).any():
        h, c, jumps = _reference_rows(model, rng, _cap(model, cfg),
                                      (100, n_paths))
        ts = s + np.cumsum(h, axis=0)
        zs = z + np.cumsum(c + jumps, axis=0)
        past = ts >= T
        first = past.argmax(axis=0)
        new = np.isnan(tau) & past.any(axis=0)
        tau[new], z_tau[new] = ts[first, cols][new], zs[first, cols][new]
        s, z = ts[-1], zs[-1]
    return tau, z_tau


def test_brownian_terminal_variance():
    # psi(xi) = xi^2 means Var Z_T = 2 T, so E Z_tau^2 = 2 E tau
    tau, z = _stopped_values(Q_BM, 1.0, 10_000, seed=11)
    assert np.all((tau >= 1.0) & (tau <= 1.0 + 2e-3))
    sq = z ** 2 - 2.0 * tau
    assert abs(sq.mean()) <= 3.0 * sq.std(ddof=1) / np.sqrt(z.size)
    assert abs(z.mean()) <= 3.0 * np.sqrt(2.0 * tau.mean() / z.size)


def test_drift_path_deterministic(monkeypatch):
    # a drift-only model takes one row per path, to t_max: Z = b t_max at
    # its end, the clock e^{b t_max} - 1 over b, and the time t_max
    sums = []
    prefix_sums = lamperti._prefix_sums

    def recording(a):
        prefix_sums(a)
        sums.append(a.copy())

    monkeypatch.setattr(lamperti, "_prefix_sums", recording)
    cfg = SimConfig(n_paths=256, seed=0)
    lamperti._estimate(lamperti._build_jump_model(Q_DRIFT, cfg), lambda r: r,
                       1.0, 0.5, cfg)
    zs, accs, ts = sums
    assert np.array_equal(zs, np.outer([0.0, 2.0 * cfg.t_max], np.ones(256)))
    assert np.array_equal(ts, np.outer([0.0, cfg.t_max], np.ones(256)))
    assert_allclose(accs[1], np.expm1(2.0 * cfg.t_max) / 2.0, rtol=1e-14)


def test_compound_poisson_jump_count():
    lam = 3.0
    q = LevyQuadruplet(mu=SignedMeasure(atoms=((1.0, lam),)))
    T = 1.0
    # Z = N - lam s (unit jumps at |y| <= 1 are compensated), and a
    # Gaussian-free row ends at a jump: tau is the first jump after T, so
    # N_tau - 1 = N_T is the Poisson count
    tau, z = _stopped_values(q, T, 10_000, seed=5)
    counts = z + lam * tau - 1.0
    assert_allclose(counts, np.rint(counts), atol=1e-9)
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
        # at the stopping time tau, the first row end at or past 1
        tau, z = _stopped_values(q, 1.0, 4000, seed=4)
        centred = z - mean_rate * tau
        sq = centred ** 2 - var_rate * tau
        mean_se = centred.std(ddof=1) / np.sqrt(z.size)
        var_se = sq.std(ddof=1) / np.sqrt(z.size)
        assert abs(centred.mean()) <= 4.0 * mean_se
        assert abs(sq.mean()) <= 4.0 * var_se


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
    # killing time falls before s*, which the crossing row solves exactly
    kill, b, x, t = 1.0, 1.0, 1.0, 1.0
    cfg = SimConfig(dt=1e-3, n_paths=20_000, seed=31)
    e = Exponent(quadruplet=LevyQuadruplet(psi0=kill, b=b))
    est = mc_expectation(e, lambda r: r, x, t, cfg)
    p = 1.0 - np.exp(-kill * np.log1p(b * t / x) / b)
    assert est.n_effective == cfg.n_paths
    stderr = np.sqrt(p * (1.0 - p) / cfg.n_paths)
    assert abs(est.absorbed_fraction - p) <= 4.0 * stderr + kill * cfg.dt
    # the only randomness is the killing times, drawn before any block, so
    # one row per block must give the same estimate bit for bit
    monkeypatch.setattr(lamperti, "_BLOCK_BUDGET", 1)
    assert mc_expectation(e, lambda r: r, x, t, cfg) == est


def test_mc_killing_is_resolved_on_the_crossing_step():
    # the crossing s* = log(1.03) = 0.0296 lies in the third dt = 1e-2 of
    # Levy time; a path survives iff its killing time exceeds s*, so
    # E f(X_t) = P(survival) = exp(-psi0 s*) for f = 1; letting every
    # crossing within the killing dt win would read 0.36 here
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
    # threshold: the rows, the clock, the mask of the rows that end at a
    # jump and the indices of their table entries work in buffers
    # allocated once per estimate, with and without jumps, and a block's
    # temporaries stay below a quarter of a block
    import tracemalloc
    atoms = SignedMeasure(atoms=((1.0, 2.0),))
    # small steps at a high rate keep a Gaussian-free path below the target
    # over thousands of rows; three entries take the comparison loop
    steps = SignedMeasure(atoms=((0.01, 1e4), (-0.01, 1e4), (0.02, 1e3)))
    n = 1024
    cfg = SimConfig(n_paths=n, seed=3, t_max=0.1)
    block = lamperti._BLOCK_BUDGET * 8
    assert n >= lamperti._ROW_SUM_MIN_WIDTH  # row-wise sums
    # float64 buffers, and with jumps an intp one and a bool one of twice
    # the length
    for q, buffers in ((LevyQuadruplet(sigma2=1.0, mu=atoms), 6 + 2 / 8),
                       (LevyQuadruplet(mu=steps), 5 + 2 / 8),
                       (Q_BM, 4)):
        model = lamperti._build_jump_model(q, cfg)
        # the first call's lazy set-up is not a block's work
        lamperti._estimate(model, np.ones_like, 1.0, 5.0, cfg)
        tracemalloc.start()
        try:
            _, resolved, _ = lamperti._estimate(model, np.ones_like, 1.0,
                                                5.0, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # no path reaches the target by t_max: every block is n paths wide
        assert not resolved.any()
        once = buffers * (lamperti._BLOCK_BUDGET + n) * 8
        assert peak < once + block / 4


def _reference_ratios(d):
    """(e^d - 1)/d elementwise, 1 + d/2 where |d| <= 1e-12."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(np.abs(d) <= 1e-12, 1.0 + d / 2, np.expm1(d) / d)


def test_gaussian_block_ratio_repairs_tiny_increments():
    model = lamperti._build_jump_model(LevyQuadruplet(sigma2=1.0),
                                       SimConfig(dt=1e-3))
    d = lamperti._generator(4).standard_normal((50, 300))
    d *= model.gauss_std_rate * np.sqrt(1e-3)
    tiny = [0.0, 1e-12, -1e-12, 3e-13, -7e-16, 1.1e-12]
    d.flat[[5, 700, 701, 4000, 9000, 14999]] = tiny
    got = np.empty_like(d)
    # as in the block loop, whose error state lets 0 / 0 pass
    with np.errstate(all="ignore"):
        lamperti._clock_ratios(d, got, np.empty_like(d))
    assert got.tobytes() == _reference_ratios(d).tobytes()
    assert got.flat[5] == 1.0


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


def test_jump_free_increments_are_the_scaled_normals(monkeypatch):
    # without jumps or killing the first draws are the first block's
    # normals, and its rows have the cap's length dt
    blocks = []
    clock_ratios = lamperti._clock_ratios

    def recording(d, out, work):
        blocks.append(d.copy())
        clock_ratios(d, out, work)

    monkeypatch.setattr(lamperti, "_clock_ratios", recording)
    cfg = SimConfig(dt=2e-3, n_paths=300, seed=5)
    model = lamperti._build_jump_model(LevyQuadruplet(b=0.7, sigma2=1.3), cfg)
    assert model.jump_rate == 0.0
    lamperti._estimate(model, lambda r: r, 1.0, 0.5, cfg)
    out = blocks[0]
    twin = lamperti._generator(5)
    scale = model.gauss_std_rate * np.sqrt(cfg.dt)
    want = model.drift * cfg.dt + scale * twin.standard_normal(out.shape)
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
    flat = got.reshape(-1)
    lamperti._jump_sizes(model, flat, np.empty(flat.size, dtype=np.intp),
                         np.empty(flat.size, dtype=bool))
    want = twin.choice(model.jump_sizes, (3, 700), p=p)
    assert got.tobytes() == want.tobytes()
    assert rng.random() == twin.random()


def _reference_estimate(q, f, x, t, cfg):
    """The block loop written plainly, on the estimate's generator: the
    rows of `_reference_rows` for every live path, each path's cap taken
    at its block's start (dt e^{-z/2} below Z = 0, at most t_max, with a
    Gaussian part), np.cumsum, the clock computed elementwise, and each
    path's first row that reaches the target found among all its rows.  A
    path that crossed wins iff its killing time does not come before its
    crossing and the crossing is within the horizon t_max, and is absorbed
    iff it is killed first within the horizon; one that has not crossed is
    absorbed iff it is killed by the end of its rows and the horizon, and
    unresolved once its rows reach the horizon."""
    model = lamperti._build_jump_model(q, cfg)
    n, target, horizon = cfg.n_paths, t / x, cfg.t_max
    b, gauss = model.drift, model.gauss_std_rate > 0
    rng = lamperti._generator(cfg.seed)
    kt = (rng.exponential(1.0 / model.kill_rate, n)
          if model.kill_rate > 0 else np.full(n, np.inf))
    values = np.zeros(n)
    resolved = np.zeros(n, dtype=bool)
    absorbed = np.zeros(n, dtype=bool)
    idx, s, z, acc = np.arange(n), np.zeros(n), np.zeros(n), np.zeros(n)
    rows = 1
    while idx.size:
        m = idx.size
        cap = (np.minimum(cfg.dt * np.maximum(
            1.0, np.exp(-lamperti._CAP_POWER * z)), cfg.t_max)
               if gauss else cfg.t_max)
        rows = min(rows, max(1, lamperti._BLOCK_BUDGET // m))
        if np.max(cap) > cfg.dt and gauss:
            rows = min(rows, lamperti._LONG_CAP_ROWS)
        h, c, jumps = _reference_rows(model, rng, cap, (rows, m))
        zs = np.cumsum(np.vstack([z, c + jumps]), axis=0)
        ts = np.cumsum(np.vstack([s, h]), axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            accs = np.cumsum(np.vstack(
                [acc, _reference_ratios(c) * (np.exp(zs[:-1]) * h)]), axis=0)
        reached = ~(accs[1:] < target)
        r = np.flatnonzero(reached.any(axis=0))
        k = reached[:, r].argmax(axis=0)
        z0, t0, rem = zs[k, r], ts[k, r], target - accs[k, r]
        if gauss:
            # the row's continuous part: its increment less its end jump
            dz = zs[k + 1, r] - z0 - jumps[k, r]
            hk = ts[k + 1, r] - t0
            slope = dz / hk
        else:
            slope = np.full(r.size, b)
        flat = np.abs(slope) < 1e-12
        with np.errstate(over="ignore", invalid="ignore"):
            delta = np.where(flat, rem * np.exp(-z0), np.log1p(
                np.where(flat, 0.0, slope) * rem * np.exp(-z0))
                / np.where(flat, 1.0, slope))
        z_cross = z0 + (dz * (delta / hk) if gauss else b * delta)
        crossing = t0 + delta
        end = ts[-1]
        killed = (kt <= np.minimum(end, horizon)) & ~reached.any(axis=0)
        done = killed | (end >= horizon)
        first = kt[r] < crossing
        killed[r] = first & (kt[r] <= horizon)
        done[r] = True
        won = ~first & (crossing <= horizon)
        with np.errstate(over="ignore"):
            values[idx[r[won]]] = f(x * np.exp(z_cross[won]))
        resolved[idx[r[won]]] = True
        resolved[idx[killed]] = absorbed[idx[killed]] = True
        live = ~done
        idx, s, z, acc, kt = (a[live] for a in (idx, end, zs[-1], accs[-1],
                                                  kt))
        rows *= 2
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
    (_density_below_eps_table(), 4.0),
], ids=["brownian", "killed", "atoms", "atoms-killed", "killed-horizon",
        "density"])
def test_block_loop_matches_the_reference_loop(monkeypatch, q, t_max,
                                               budget):
    # row-wise prefix sums, buffers reused across blocks, and a crossing
    # count and killing bookkeeping on the paths that resolve change no
    # bit of an estimate, with and without jumps; at t_max = 0.3 many
    # paths run out of rows.  The density's 250 entries take searchsorted,
    # and its jumps below jump_eps a variance-matched Gaussian
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
    want = _reference_estimate(q, f, 0.8, 0.4, cfg)
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


@pytest.mark.parametrize("b, dim", [(0.0, 2), (0.5, 3)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rows_sized_by_the_clock_keep_the_squared_bessel_law(b, dim, seed):
    # ACC-10's configuration: sigma2 = 1 and b >= 0 is the Lamperti image of
    # BESQ^{2 + 2b} run at time t/2, X_t = (t/2) chi'^2_{2+2b}(2x/t)
    t = 0.5
    f = lambda r: r * r * np.exp(-r)
    sup_f = 4.0 * np.exp(-2.0)
    q = LevyQuadruplet(sigma2=1.0, b=b)
    est = mc_expectation(Exponent(quadruplet=q), f, 1.0, t,
                         SimConfig(dt=1e-3, n_paths=100_000, seed=seed))
    rng = np.random.default_rng(seed)
    exact = f(0.5 * t * rng.noncentral_chisquare(dim, 2.0 / t, 10 ** 6))
    exact_se = exact.std(ddof=1) / np.sqrt(exact.size)
    bound = (3.0 * np.hypot(est.stderr, exact_se)
             + est.unresolved_fraction * sup_f)
    assert abs(est.mean - exact.mean()) <= bound


def _killed_besq_value(f, dim, x, t):
    """E_x[f(X_t); t < T_0] for X = BESQ^dim run at time t/2 and killed at
    0, dim < 2, by quadrature of its kernel (1/2s) (y/x)^{nu/2}
    e^{-(x+y)/2s} I_{-nu}(sqrt(xy)/s), nu = dim/2 - 1 and s = t/2
    (Revuz-Yor, ch. XI)."""
    s, nu = 0.5 * t, 0.5 * dim - 1.0

    def density(y):
        arg = np.sqrt(x * y) / s
        return (0.5 / s * (y / x) ** (0.5 * nu) * ive(-nu, arg)
                * np.exp(arg - (x + y) / (2.0 * s)))

    return quad(lambda y: f(y) * density(y), 0.0, np.inf, epsabs=1e-12)[0]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_paths_that_reach_zero_count_zero(seed):
    # sigma2 = 1, b = -1/2 is the Lamperti image of BESQ^1 run at time t/2:
    # Z drifts to -inf, so X reaches 0 at the finite time x A_inf, and a
    # path with A_inf < t/x never reaches the clock target.  It counts 0,
    # as the semigroup killed at 0 does; leaving the unresolved paths out
    # of the mean read 14 to 17 stderr high on these seeds
    t = 0.5
    f = lambda r: r * r * np.exp(-r)
    exact = _killed_besq_value(f, 1.0, 1.0, t)
    assert exact == pytest.approx(0.30356, abs=1e-5)
    q = LevyQuadruplet(sigma2=1.0, b=-0.5)
    est = mc_expectation(Exponent(quadruplet=q), f, 1.0, t,
                         SimConfig(dt=1e-3, n_paths=40_000, seed=seed))
    assert est.unresolved_fraction > 0.03
    assert abs(est.mean - exact) <= 4.0 * est.stderr


def test_brownian_rows_are_sized_by_the_clock(monkeypatch):
    # a row that starts a block at Z = z < 0 has the length dt e^{-z/2} (at
    # most t_max), and one that starts it at Z >= 0 the length dt; rows of
    # dt everywhere drew 11422668 path-rows for this estimate
    increments, starts = [], []
    clock_ratios, prefix_sums = lamperti._clock_ratios, lamperti._prefix_sums

    def recording_ratios(d, out, work):
        increments.append(d.copy())
        clock_ratios(d, out, work)

    def recording_sums(a):
        if len(starts) < len(increments):   # the block's Z comes first
            starts.append(a[0].copy())
        prefix_sums(a)

    monkeypatch.setattr(lamperti, "_clock_ratios", recording_ratios)
    monkeypatch.setattr(lamperti, "_prefix_sums", recording_sums)
    cfg = SimConfig(dt=1e-3, n_paths=10_000, seed=1)
    model = lamperti._build_jump_model(Q_BM, cfg)
    lamperti._estimate(model, lambda r: r, 1.0, 0.5, cfg)
    assert sum(d.size for d in increments) <= 0.6 * 11422668
    # without jumps, drift or killing the only draws are the normals, and a
    # row's increment is its normal times std sqrt(h)
    twin = lamperti._generator(cfg.seed)
    std = model.gauss_std_rate
    below = 0
    for d, z in zip(increments, starts):
        normals = twin.standard_normal(d.shape)
        low = z < 0.0
        below += np.count_nonzero(low)
        assert np.array_equal(d[:, ~low], normals[:, ~low] * (std * np.sqrt(
            cfg.dt)))
        h = np.minimum(cfg.dt * np.exp(-0.5 * z[low]), cfg.t_max)
        assert_allclose(d[:, low], normals[:, low] * (std * np.sqrt(h)),
                        rtol=1e-13)
    assert below > 0


# ---------------------------------------------------------------------------
# Gaussian-free models: exact rows between jumps
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
    # each row and dt takes no part
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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_zero_slope_rows_have_the_exact_mean(monkeypatch, seed):
    # atoms at +-0.5 of mass 1 compensate each other, so Z is constant
    # between jumps and each row's clock is inverted by its zero-slope form:
    # E_x X_t = x - psi(-i) t = 1.12763 at x = 1, t = 0.5
    slopes = []
    invert_row = lamperti._invert_row

    def recording(z0, c, remainder):
        slopes.append(c)
        return invert_row(z0, c, remainder)

    monkeypatch.setattr(lamperti, "_invert_row", recording)
    atoms = ((0.5, 1.0), (-0.5, 1.0))
    e = Exponent(quadruplet=LevyQuadruplet(mu=SignedMeasure(atoms=atoms)))
    est = mc_expectation(e, lambda r: r, 1.0, 0.5,
                         SimConfig(n_paths=20_000, seed=seed))
    exact = 1.0 - _psi_at_minus_i(atoms) * 0.5
    assert exact == pytest.approx(1.12763, abs=1e-5)
    assert slopes and all(np.all(c == 0.0) for c in slopes)
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
    # with and without a Gaussian part, the sizes are drawn as uniforms,
    # through the short and the long table's mapping
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
    # one row per path, to t_max: the sums of its Z, clock and times
    assert shapes == [(2, 64)] * 3


@pytest.mark.parametrize("q, calls", [
    (LevyQuadruplet(sigma2=1.0, mu=SignedMeasure(atoms=ATOMS)),
     ["standard_exponential", "standard_normal", "random"]),
    (LevyQuadruplet(mu=SignedMeasure(atoms=ATOMS)),
     ["standard_exponential", "random"]),
    (Q_BM, ["standard_normal"]),
], ids=["mixed", "gaussian-free", "jump-free"])
def test_each_block_draws_waiting_times_normals_then_uniforms(monkeypatch, q,
                                                               calls):
    # one row law: per block, the waiting times (with jumps), the normals
    # (with a Gaussian part) and the uniforms of the end jumps (with jumps)
    rngs = []
    generator = lamperti._generator

    def recording(seed):
        rngs.append(_RecordingRng(generator(seed)))
        return rngs[-1]

    monkeypatch.setattr(lamperti, "_generator", recording)
    cfg = SimConfig(n_paths=2000, seed=13)
    mc_expectation(Exponent(quadruplet=q), lambda r: r, 1.0, 0.5, cfg)
    drawn = rngs[0].calls
    assert len(rngs) == 1 and len(drawn) > len(calls)
    assert drawn == calls * (len(drawn) // len(calls))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mixed_model_has_the_exact_mean(seed):
    # sigma2 = 1, b = 20 and unit jumps at rate 500: E_x X_t = x - psi(-i) t
    # = 20.007 at x = 1, t = 0.05; a jump must end its row, since folding
    # it into the increment of a dt step reads 27-29 stderr low here
    atoms = ((1.0, 500.0),)
    q = LevyQuadruplet(sigma2=1.0, b=20.0, mu=SignedMeasure(atoms=atoms))
    est = mc_expectation(Exponent(quadruplet=q), lambda r: r, 1.0, 0.05,
                         SimConfig(n_paths=40_000, seed=seed))
    exact = 1.0 - (_psi_at_minus_i(atoms) - 1.0 - 20.0) * 0.05
    assert exact == pytest.approx(20.007, abs=1e-3)
    assert est.unresolved_fraction == 0.0
    assert abs(est.mean - exact) <= 4.0 * est.stderr


# mean and stderr of E_1[X^2 e^-X] at t = 0.5 over all 5000 paths, as
# float.hex: the Gaussian-free models keep their bytes
GOLDEN = [
    ("bm", 7, "0x1.64bbba24ed674p-2", "0x1.40576331ab0e7p-9"),
    ("bm", 8, "0x1.63a062497b300p-2", "0x1.40943c1fb64c7p-9"),
    ("killed-bm", 7, "0x1.6b6a8c5ad20a5p-3", "0x1.9ad24d09f5d84p-9"),
    ("killed-bm", 8, "0x1.72e2c982310c9p-3", "0x1.9e87f50a1be24p-9"),
    ("atoms", 7, "0x1.45566d1d071ccp-2", "0x1.d57575a5bf45bp-10"),
    ("atoms", 8, "0x1.47940fe30b3cap-2", "0x1.ce2116e8e452bp-10"),
    ("killed-atoms", 7, "0x1.1c18ee97df282p-3", "0x1.467158b4872adp-9"),
    ("killed-atoms", 8, "0x1.19aa405a042e0p-3", "0x1.448055c84d0b5p-9"),
    ("drift", 7, "0x1.152aaa3bf81cdp-1", "0x1.cf74b274b4fa0p-60"),
    ("drift", 8, "0x1.152aaa3bf81cdp-1", "0x1.cf74b274b4fa0p-60"),
    ("unit-jumps", 7, "0x1.b27522650e3d5p-7", "0x1.01fc10e311d9ep-10"),
    ("unit-jumps", 8, "0x1.0d713cdbd3ea5p-6", "0x1.20a649a32e09dp-10"),
]
GOLDEN_MODELS = {
    "bm": Q_BM,
    "killed-bm": LevyQuadruplet(psi0=2.0, b=1.0, sigma2=1.0),
    "atoms": LevyQuadruplet(mu=SignedMeasure(atoms=ATOMS)),
    "killed-atoms": LevyQuadruplet(psi0=2.0, mu=SignedMeasure(atoms=ATOMS)),
    "drift": Q_DRIFT,
    "unit-jumps": LevyQuadruplet(mu=SignedMeasure(atoms=((1.0, 500.0),))),
}


@pytest.mark.parametrize("name, seed, mean, stderr", GOLDEN,
                         ids=[f"{g[0]}-{g[1]}" for g in GOLDEN])
def test_estimates_keep_their_bytes(name, seed, mean, stderr):
    est = mc_expectation(Exponent(quadruplet=GOLDEN_MODELS[name]),
                         lambda r: r * r * np.exp(-r), 1.0, 0.5,
                         SimConfig(n_paths=5000, seed=seed))
    assert (est.mean.hex(), est.stderr.hex()) == (mean, stderr)


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
    # Z_s = -s (plus a faint Gaussian part, which caps the rows at dt)
    # keeps the clock below 1, short of the target 2: a path is absorbed
    # iff it is killed before t_max, and unresolved otherwise
    e = Exponent(quadruplet=LevyQuadruplet(psi0=psi0, b=-1.0, sigma2=sigma2))
    est = mc_expectation(e, lambda r: r, 1.0, 2.0,
                         SimConfig(n_paths=n, seed=47, t_max=t_max))
    p = np.exp(-psi0 * t_max)
    assert est.absorbed_fraction == 1.0 and est.mean == 0.0
    assert abs(est.unresolved_fraction - p) <= 4.0 * np.sqrt(p * (1 - p) / n)
    # without killing no path resolves: X reaches 0 at T_0 = 1 < t, so the
    # killed semigroup is 0, and every path counts 0 as unresolved
    q = LevyQuadruplet(b=-1.0, sigma2=sigma2)
    est = mc_expectation(Exponent(quadruplet=q), lambda r: r, 1.0, 2.0,
                         SimConfig(n_paths=10, t_max=5.0))
    assert est == MCEstimate(mean=0.0, stderr=0.0, n_effective=0,
                             absorbed_fraction=0.0, unresolved_fraction=1.0)


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
    # crossing or killed on a row that reaches past it, the falling
    # drift never reaches the target, and in the last case every path
    # crosses after t_max: their paths are killed or unresolved
    monkeypatch.setattr(lamperti, "_BLOCK_BUDGET", budget)
    f = lambda r: r * r * np.exp(-r)
    cfg = SimConfig(n_paths=3000, seed=23, t_max=t_max)
    got = lamperti._estimate(lamperti._build_jump_model(q, cfg), f, 0.8, t,
                             cfg)
    values, resolved, absorbed = _reference_estimate(q, f, 0.8, t, cfg)
    for a, b in zip(got, (values, resolved, absorbed)):
        assert a.tobytes() == b.tobytes()
    assert absorbed.any() == (q.psi0 > 0)
    assert (not resolved.all()) == unresolved
