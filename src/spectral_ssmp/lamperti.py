"""Monte Carlo oracle through the Lamperti time change.

The positive self-similar process started at x > 0 is

    X_t(x) = x exp(Z_{phi(t/x)}),   phi(v) = inf{s : A(s) > v},
    A(s) = integral_0^s e^{Z_r} dr,

for the Levy process Z with exponent psi, killed at an exponential time of
rate psi(0): a path is killed iff its killing time comes before phi(t/x),
the Levy time of its crossing.  Every jump above jump_eps is drawn from one
compound-Poisson table of the atoms and the density nodes.

One block loop simulates every model row by row; only the law of a row
depends on the model.  Without a Gaussian part (drift, atoms and killing:
finitely many jumps) a row is an inter-jump segment, on which Z is linear,
so the paths are exact and dt is not used.  With one (sigma2 > 0, or jumps
below jump_eps replaced by a variance-matched Gaussian) a row is an Euler
step of dt: exact Gaussian increments, the step's jumps folded into its
increment, and Z linear on the step as the clock sees it.  Either way a row
of length h that starts at Z = z and gains c along its slope adds
h e^z (e^c - 1)/c to the clock, and phi is inverted exactly on the
crossing row.

Randomness comes from one SFC64 generator per estimate, keyed by a
SeedSequence of (seed, 0).  It draws first the killing times of all paths,
then, block after block, B rows per live path:

- segments: B waiting times, then B uniforms for the sizes (nothing
  without jumps), with B = 1 in the first block, doubling each block up to
  a fixed budget of draws per block;
- steps: B set by the live-path count and the same budget; a block draws
  its Gaussian parts, then one total jump count for all its path-steps,
  then the path-step of each jump and the uniform of its size, so its
  jumps cost one add per path-step plus two draws per jump.

The numbers a path receives therefore depend on which other paths are
still live, and changing n_paths changes every path; identical
(seed, config) inputs reproduce identical estimates bit for bit.  A
jump's size is its uniform mapped through the table's CDF, built once per
model; Generator.choice(jump_sizes, p=jump_probs) maps the same uniforms
through the same CDF, so the sizes are its draws bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError
from .exponents import Exponent, LevyQuadruplet

__all__ = ["SimConfig", "MCEstimate", "mc_expectation"]


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo settings.  dt, the Euler step of the Levy clock, serves
    only models with a Gaussian part; Gaussian-free models are exact."""

    dt: float = 1e-3
    jump_eps: float = 1e-3
    n_paths: int = 10_000
    seed: int = 0
    t_max: float = 64.0

    def __post_init__(self):
        if not 0.0 < self.dt <= 1e-2:
            raise ConfigError("dt must lie in (0, 1e-2]")
        if not 0.0 < self.jump_eps <= 1.0:
            raise ConfigError("jump_eps must lie in (0, 1]: the small-jump "
                              "surrogate must stay inside the compensated zone")
        if (not isinstance(self.n_paths, (int, np.integer))
                or self.n_paths < 1):
            raise ConfigError("n_paths must be a positive integer")
        if not 0.0 < self.t_max < np.inf:
            raise ConfigError("t_max must be positive and finite")
        if (not isinstance(self.seed, (int, np.integer))
                or not 0 <= int(self.seed) < 1 << 64):
            raise ConfigError("seed must be an integer in [0, 2**64)")


@dataclass(frozen=True)
class MCEstimate:
    """An estimate of E_x[f(X_t)] and how its paths ended.

    mean and stderr are taken over the n_effective resolved paths, the
    absorbed ones counting 0.  absorbed_fraction is the share of the
    resolved paths that were absorbed (killed before their crossing);
    unresolved_fraction is the share of all n_paths that neither crossed
    nor were absorbed by the horizon, and are left out of the mean.
    """

    mean: float
    stderr: float
    n_effective: int
    absorbed_fraction: float
    unresolved_fraction: float


# ---------------------------------------------------------------------------
# jump bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _JumpModel:
    """Per-row ingredients derived from a quadruplet, dt and jump_eps.

    Every jump of size >= jump_eps (atoms, density nodes, the density heads
    above jump_eps and the remainder masses) is one entry of a single
    compound-Poisson table: jumps arrive at jump_rate and take jump_sizes
    with jump_probs.  jump_cdf is the table's CDF as Generator.choice builds
    it, the cumulated jump_probs over their last partial sum, so its last
    knot is 1 (empty without jumps); `_jump_sizes` draws through it.
    """

    dt: float
    drift: float          # b plus compensator adjustments, per unit time
    gauss_std_rate: float  # std of the Gaussian part per sqrt(dt)
    jump_sizes: np.ndarray
    jump_probs: np.ndarray
    jump_cdf: np.ndarray
    jump_rate: float
    kill_rate: float


def _build_jump_model(q: LevyQuadruplet, cfg: SimConfig) -> _JumpModel:
    eps = cfg.jump_eps
    sizes, weights, sides = q.mu.discretized()
    var_rate = 2.0 * q.sigma2
    for sign, rule in sides:
        # the head's jumps at or above eps are simulated from its own nodes,
        # those below eps enter the Gaussian by their variance; the
        # remainder mass beyond the last node is left out (see mc_expectation)
        head, head_wts = rule.head_nodes(eps)
        sizes = np.concatenate([sizes, sign * head])
        weights = np.concatenate([weights, head_wts])
        var_rate += rule.moment(min(eps, rule.y_min))
    small = np.abs(sizes) < eps
    var_rate += float(np.sum(sizes[small] ** 2 * weights[small]))
    sizes, weights = sizes[~small], weights[~small]
    rate = float(np.sum(weights))
    # compensator of the simulated jumps of size <= 1
    comp = float(np.sum(np.where(np.abs(sizes) <= 1.0, sizes, 0.0) * weights))
    drift = float(q.b - comp)
    probs = weights / rate if rate > 0 else weights
    cdf = np.cumsum(probs)
    if cdf.size:
        cdf /= cdf[-1]
    return _JumpModel(
        dt=cfg.dt,
        drift=drift,
        gauss_std_rate=float(np.sqrt(var_rate)),
        jump_sizes=sizes,
        jump_probs=probs,
        jump_cdf=cdf,
        jump_rate=rate,
        kill_rate=float(q.psi0),
    )


def _generator(seed):
    """The estimate's generator: SFC64 keyed by a SeedSequence of (seed, 0)."""
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence([seed, 0])))


# Tables of at most this many entries map a uniform to its entry by one
# comparison per CDF knot, longer ones by np.searchsorted.  A knot's pass
# costs about 2.5 us per call and under 1 ns per draw, searchsorted about
# 2 us and 10-40 ns per draw.  Over the thousands of draws of a block of
# segments, comparisons win beyond 24 entries (at 20000 draws: 31 against
# 205 us at 2 entries, 68 against 417 us at 8); over the hundred-odd jumps
# of a block of steps searchsorted wins from 2 entries on, but up to 8
# entries comparisons still cost less than Generator.choice (20 against
# 23 us at 64 draws).  One 2-core x86-64 machine, NumPy 2.4.
_SHORT_TABLE = 8


def _jump_sizes(model: _JumpModel, u):
    """Turn the uniforms `u` in place into jump sizes: a uniform takes the
    entry whose index is the number of CDF knots at or below it.

    Generator.choice(jump_sizes, p=jump_probs) draws one rng.random per
    size and maps it through the same CDF with searchsorted(side="right"),
    so these are its sizes bit for bit, from the same uniforms.
    """
    cdf = model.jump_cdf
    if cdf.size > _SHORT_TABLE:
        idx = cdf.searchsorted(u, side="right")
    else:
        # the last knot is 1, above every uniform: one entry maps to 0
        idx = u >= cdf[0]
        for knot in cdf[1:-1]:
            idx = np.add(idx, u >= knot, dtype=np.uint8)
    # the indices are in range; mode="clip" spares take a buffered copy
    model.jump_sizes.take(idx, out=u, mode="clip")


def _increments(model: _JumpModel, rng, out):
    """Fill `out` with increments of Z over steps of length model.dt.

    Draw order: Gaussian part, then one total jump count for all of `out`,
    its cells (uniform over the row-major cells of `out`) and the uniforms
    of its sizes.
    Given their total, independent Poisson(jump_rate dt) counts per cell
    are multinomial with equal cell probabilities, so the per-cell counts
    have the per-step Poisson law; the work is one add per cell and one
    draw per jump.  `out` must be C-contiguous.
    """
    dt = model.dt
    if model.gauss_std_rate > 0:
        rng.standard_normal(out=out)
        out *= model.gauss_std_rate * np.sqrt(dt)
        if model.drift:     # adding 0.0 would change only a -0.0, and no
            out += model.drift * dt     # later sum or ratio tells it from 0.0
    else:
        out.fill(model.drift * dt)
    if model.jump_rate > 0:
        total = rng.poisson(model.jump_rate * dt * out.size)
        if total:
            cells = rng.integers(0, out.size, total)
            sizes = rng.random(total)
            _jump_sizes(model, sizes)
            # each hit cell gains the sum of its sizes, in draw order; a
            # bincount over all cells would allocate a block-sized array
            hit, which = np.unique(cells, return_inverse=True)
            out.flat[hit] += np.bincount(which, weights=sizes)


# ---------------------------------------------------------------------------
# the clock A and its inverse on one step or segment
# ---------------------------------------------------------------------------

# the ratio (e^d - 1)/d is 1 + d/2 + O(d^2): below this |d| it is taken as
# 1 + d/2, which also covers d = 0
_TINY_STEP = 1e-12


def _ratios(d):
    """(e^d - 1)/d of each increment in the 1-D array `d`, a new array."""
    r = np.expm1(d) / d
    small = np.abs(d) <= _TINY_STEP
    r[small] = 1.0 + 0.5 * d[small]
    return r


def _clock_ratios(d, out, work):
    """Write into `out` the clock ratio (e^d - 1)/d of each increment in
    `d`: a step or segment of length h that starts at Z = z and gains d
    adds h e^z times its ratio to the clock.

    `d`, `out` and the scratch array `work` are C-contiguous arrays of one
    shape, and no other array of that size is allocated unless some
    |d| <= _TINY_STEP.  Call it under np.errstate(all="ignore"): d = 0
    divides 0 by 0 before its ratio is repaired.
    """
    np.expm1(d, out=out)
    out /= d
    if np.abs(d, out=work).min() <= _TINY_STEP:
        small = np.flatnonzero(work <= _TINY_STEP)
        out.flat[small] = _ratios(d.flat[small])


def _invert_segment(z0, c, remainder):
    """Time after a segment's start, where Z = z0 and Z has slope c, at
    which the running clock gains `remainder`; exact for linear Z.  The
    slope c is one scalar for all segments, or an array of z0's shape."""
    if not isinstance(c, np.ndarray):
        if abs(c) < 1e-12:
            return remainder * np.exp(-z0)
        return np.log1p(c * remainder * np.exp(-z0)) / c
    small = np.abs(c) < 1e-12
    return np.where(
        small,
        remainder * np.exp(-z0),
        np.log1p(np.where(small, 0.0, c) * remainder * np.exp(-z0))
        / np.where(small, 1.0, c))


# ---------------------------------------------------------------------------
# batch estimation
# ---------------------------------------------------------------------------

# path-steps drawn per block; keeps a block's arrays at about 0.5 MiB
_BLOCK_BUDGET = 1 << 16

# Blocks at least this many paths wide take their prefix sums row by row.
# np.cumsum along axis 0 walks the strided axis one column at a time, at
# 3.5-4.5 ns per element whatever the width; one np.add per row costs about
# 0.5 us plus 0.4 ns per element.  With _BLOCK_BUDGET path-steps per block
# the row loop measured 3.8-4.4 ns per element at 128 paths, 2.6-3.1 at 192,
# 2.1-2.3 at 256 and 1.1 at 1000 (one 2-core x86-64 machine, NumPy 2.4).
_ROW_SUM_MIN_WIDTH = 192


def _prefix_sums(a):
    """Prefix sums of the 2-D array `a` along its first axis, in place;
    bit for bit those of np.cumsum(a, axis=0), since both add each column
    in row order."""
    if a.shape[1] < _ROW_SUM_MIN_WIDTH:
        np.cumsum(a, axis=0, out=a)
        return
    prev = a[0]
    for row in a[1:]:
        np.add(prev, row, out=row)
        prev = row


def _estimate(model: _JumpModel, f: Callable, x: float, t: float,
              cfg: SimConfig):
    """Vectorized over the live paths and over blocks of B rows each.

    The row laws: a model with a Gaussian part takes dt steps from
    `_increments`, their jumps folded into the increments, row k ending at
    (step + k) dt, and B = min(steps left, budget // m) for m live paths;
    a Gaussian-free model takes inter-jump segments, each an
    Exp(jump_rate) waiting time capped at t_max (t_max without jumps) of
    slope b = model.drift with its jump at its end, and B = 1 in the first
    block, doubling up to budget // m, since a block of one segment per
    path costs a block's overhead per jump.  Prefix sums give the time, Z
    and the clock A of every live path after k rows.

    One rule resolves every path, against the horizon max_steps dt for
    steps and t_max for segments.  A path that crossed the target t/x wins
    iff its killing time does not come before its crossing and the
    crossing is within the horizon, and is absorbed iff its killing time
    comes first and is within the horizon; a path that has not crossed is
    absorbed iff its killing time is at most the end of its rows and the
    horizon.  A path is done once it is absorbed, has crossed, or its rows
    reach the horizon; a done path that neither won nor was absorbed is
    unresolved.  So a tie of the killing and crossing times lets the path
    win, and a crossing time that is not a number leaves it unresolved.
    Draws past a path's resolution are discarded, and the live set is
    compacted once per block.  f is applied once, after the loop, to X at
    the crossings of the paths that won.

    Z, A, the segments' times and the clock's scratch (which also takes
    the segments' jump sizes) live in buffers allocated once: an array of a block's size, allocated and freed per
    block, is mapped and page-faulted afresh whenever it lies above the
    allocator's mmap threshold (glibc: 128 KiB until a larger block is
    freed), so the estimate's speed would depend on what the process freed
    before it (by 15-40% on the benchmark's mc-oracle cases).
    """
    n, dt, t_max, target = cfg.n_paths, cfg.dt, cfg.t_max, t / x
    stepped, b = model.gauss_std_rate > 0, model.drift
    max_steps = int(np.ceil(t_max / dt))
    horizon = max_steps * dt if stepped else t_max
    rng = _generator(cfg.seed)
    kt = (rng.exponential(1.0 / model.kill_rate, n) if model.kill_rate > 0
          else np.full(n, np.inf))
    zc = np.empty(n)            # Z at the crossing of the paths that won
    resolved = np.zeros(n, dtype=bool)
    absorbed = np.zeros(n, dtype=bool)
    idx = np.arange(n)          # original indices of the live paths
    s, z, acc = np.zeros(n), np.zeros(n), np.zeros(n)
    # (rows + 1) m <= max(budget, m) + m in every block
    tbuf, zbuf, abuf, work = (np.empty(max(_BLOCK_BUDGET, n) + n)
                              for _ in range(4))
    step, rows = 0, 1
    # a zero increment divides 0 by 0 before its ratio is repaired, and e^Z
    # may overflow on paths far above the target
    with np.errstate(all="ignore"):
        while idx.size:
            m = idx.size
            # steps: the steps left; segments: twice the last block's rows
            rows = min(max_steps - step if stepped else rows,
                       max(1, _BLOCK_BUDGET // m))
            ts, zs, accs = (buf[:(rows + 1) * m].reshape(rows + 1, m)
                            for buf in (tbuf, zbuf, abuf))
            ez = work[:rows * m].reshape(rows, m)
            zs[0], accs[0] = z, acc
            # rows 1.. of zs get the continuous increments c, whose clock
            # ratios are taken before the segments' jumps and the prefix sums
            if stepped:
                _increments(model, rng, zs[1:])
                # one row of times, shared by the live paths
                h, ts = dt, (step + np.arange(rows + 1)) * dt
            else:
                ts[0], h = s, ts[1:]
                if model.jump_rate > 0:
                    rng.standard_exponential(out=h)
                    h *= 1.0 / model.jump_rate
                    np.minimum(h, t_max, out=h)
                else:
                    h.fill(t_max)
                np.multiply(h, b, out=zs[1:])
            _clock_ratios(zs[1:], accs[1:], ez)
            if not stepped and model.jump_rate > 0:
                # the next draws after the waiting times: each segment's jump
                rng.random(out=ez)
                _jump_sizes(model, ez)
                zs[1:] += ez
            _prefix_sums(zs)
            np.exp(zs[:-1], out=ez)
            ez *= h
            accs[1:] *= ez
            _prefix_sums(accs)
            if not stepped:
                _prefix_sums(ts)
            # A is nondecreasing: a path crossed in this block iff its last
            # row is not below the target (a NaN clock counts), on the row
            # that starts at its last row below the target, at flat index
            # `at` of the block's arrays
            r = (~(accs[-1] < target)).nonzero()[0]
            k = (accs[1:].take(r, axis=1) < target).sum(axis=0)
            at = k * m + r
            z0 = zs.take(at)
            if stepped:     # the crossing step's slope is its increment / dt
                dz = zs.take(at + m) - z0
                t0, slope = ts[k], dz / dt
            else:
                t0, slope = ts.take(at), b
            delta = _invert_segment(z0, slope, target - accs.take(at))
            crossing = t0 + delta
            end = ts[-1]
            killed = kt <= np.minimum(end, horizon)
            done = killed | (end >= horizon)
            killed_first = kt[r] < crossing
            killed[r] = killed_first & (kt[r] <= horizon)
            done[r] = True
            won = ~killed_first & (crossing <= horizon)
            winners = idx[r[won]]
            zc[winners] = z0[won] + (dz[won] * (delta[won] / dt) if stepped
                                     else b * delta[won])
            resolved[winners] = True
            gone = idx[killed]
            resolved[gone] = absorbed[gone] = True
            live = (~done).nonzero()[0]
            idx, kt, z, acc = (a[live] for a in (idx, kt, zs[-1], accs[-1]))
            s = end if stepped else end[live]
            step += rows
            rows *= 2
    # f sees the winners once, outside the loop's error state
    values = np.zeros(n)
    won = resolved & ~absorbed
    values[won] = f(x * np.exp(zc[won]))
    return values, resolved, absorbed


def mc_expectation(e: Exponent, f: Callable, x: float, t: float,
                   cfg: SimConfig) -> MCEstimate:
    """Monte Carlo estimate of E_x[f(X_t)] with absorbed paths counting 0.

    x must be positive and t nonnegative, both finite.  f acts on the
    positive-scale variable X directly (compose with log outside if the
    observable lives on the log scale).  A path is absorbed iff its killing
    time comes before phi(t/x), the Levy time of its crossing.  A model
    without a Gaussian part (drift, atoms, killing) is simulated exactly,
    segment by segment between its jumps, and cfg.dt is not used.  A model
    with one is stepped by cfg.dt, and its crossing is solved on the
    crossing step under the clock's linear interpolation of Z.  Paths that
    never reach the clock target before t_max are excluded from the mean
    and counted in unresolved_fraction (of n_paths; n_effective counts the
    rest).  Excluding them biases the mean
    by at most unresolved_fraction * sup|f| for f of one sign, twice that
    otherwise.  The paths also leave out the jumps beyond a tabulated
    density's last node, at rate `rem` per unit of Levy time on each side
    (1.8e-10 for `stable_density_table(0.5)`); a path takes one before
    t_max with probability at most rem * t_max, which bounds the bias they
    add in the same way.  The stderr includes neither bias.
    """
    if e.quadruplet is None:
        raise DomainError("the oracle needs a quadruplet representation")
    if not 0.0 < x < np.inf:
        raise DomainError("x must be positive and finite")
    if not 0.0 <= t < np.inf:
        raise DomainError("t must be nonnegative and finite")
    if t == 0.0:
        return MCEstimate(mean=float(f(x)), stderr=0.0,
                          n_effective=cfg.n_paths, absorbed_fraction=0.0,
                          unresolved_fraction=0.0)
    model = _build_jump_model(e.quadruplet, cfg)
    values, resolved, absorbed = _estimate(model, f, x, t, cfg)
    n_eff = int(resolved.sum())
    if n_eff == 0:
        raise ConfigError("no path reached the clock target; raise t_max")
    vals = values[resolved]
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(n_eff)) if n_eff > 1 else 0.0
    return MCEstimate(mean=mean, stderr=stderr, n_effective=n_eff,
                      absorbed_fraction=float(absorbed.sum() / max(1, n_eff)),
                      unresolved_fraction=(cfg.n_paths - n_eff) / cfg.n_paths)
