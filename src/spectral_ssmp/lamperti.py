"""Monte Carlo oracle through the Lamperti time change.

The positive self-similar process started at x > 0 is

    X_t(x) = x exp(Z_{phi(t/x)}),   phi(v) = inf{s : A(s) > v},
    A(s) = integral_0^s e^{Z_r} dr,

for the Levy process Z with exponent psi, killed at an exponential time of
rate psi(0): a path is killed iff its killing time comes before phi(t/x),
the Levy time of its crossing.  Every jump above jump_eps is drawn from one
compound-Poisson table of the atoms and the density nodes.  Two simulators
serve the two kinds of model.

- Without a Gaussian part (drift, atoms and killing: finitely many jumps),
  Z is linear between jumps, so A and phi are closed forms on each
  inter-jump segment and the paths are exact; dt is not used.
- With one (sigma2 > 0, or jumps below jump_eps replaced by a
  variance-matched Gaussian), an Euler scheme steps the Levy clock by dt:
  exact Gaussian increments, the jumps of a step added at its end, and A
  integrated in closed form on each step under linear interpolation of Z.
  The clock's slope on a step is the step's drawn increment d itself, so
  the step adds dt e^{Z_s} (e^d - 1)/d to the clock, and phi is inverted
  exactly on the crossing step.

Randomness comes from one SFC64 generator per estimate, keyed by a
SeedSequence of (seed, 0).  It draws first the killing times of all paths,
then, round after round, the draws of the paths still live:

- a Gaussian-free model draws, in each round, B waiting times per live
  path and then B jump sizes, with B = 1 in the first round, doubling each
  round up to a fixed budget of draws per round; without jumps it draws
  nothing more;
- a stepped model draws, in each block, B steps per live path, with B set
  by the live-path count and the same budget; each block draws its
  Gaussian parts, then one total jump count for all its path-steps, then
  the path-step and the size of each jump, so its jumps cost one add per
  path-step plus one draw per jump.

The numbers a path receives therefore depend on which other paths are
still live, and changing n_paths changes every path; identical
(seed, config) inputs reproduce identical estimates bit for bit.
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
    """Per-step ingredients derived from a quadruplet, dt and jump_eps.

    Every jump of size >= jump_eps (atoms, density nodes, the density heads
    above jump_eps and the remainder masses) is one entry of a single
    compound-Poisson table: jumps arrive at jump_rate and take jump_sizes
    with jump_probs.
    """

    dt: float
    drift: float          # b plus compensator adjustments, per unit time
    gauss_std_rate: float  # std of the Gaussian part per sqrt(dt)
    jump_sizes: np.ndarray
    jump_probs: np.ndarray
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
    return _JumpModel(
        dt=cfg.dt,
        drift=drift,
        gauss_std_rate=float(np.sqrt(var_rate)),
        jump_sizes=sizes,
        jump_probs=weights / rate if rate > 0 else weights,
        jump_rate=rate,
        kill_rate=float(q.psi0),
    )


def _generator(seed):
    """The estimate's generator: SFC64 keyed by a SeedSequence of (seed, 0)."""
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence([seed, 0])))


_NO_CELLS = np.empty(0, dtype=np.intp)


def _increments(model: _JumpModel, rng, out):
    """Fill `out` with increments of Z over steps of length model.dt.

    Draw order: Gaussian part, then one total jump count for all of `out`,
    its cells (uniform over the row-major cells of `out`) and its sizes.
    Given their total, independent Poisson(jump_rate dt) counts per cell
    are multinomial with equal cell probabilities, so the per-cell counts
    have the per-step Poisson law; the work is one add per cell and one
    draw per jump.  `out` must be C-contiguous.
    """
    dt = model.dt
    if model.gauss_std_rate > 0:
        rng.standard_normal(out=out)
        out *= model.gauss_std_rate * np.sqrt(dt)
        out += model.drift * dt
    else:
        out.fill(model.drift * dt)
    if model.jump_rate > 0:
        total = rng.poisson(model.jump_rate * dt * out.size)
        if total:
            cells = rng.integers(0, out.size, total)
            sizes = rng.choice(model.jump_sizes, size=total,
                               p=model.jump_probs)
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
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
    |d| <= _TINY_STEP.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.expm1(d, out=out)
        out /= d
    if np.abs(d, out=work).min() <= _TINY_STEP:
        small = np.flatnonzero(work <= _TINY_STEP)
        out.flat[small] = _ratios(d.flat[small])


def _invert_segment(z0, c, remainder):
    """Time after a segment's start, where Z = z0 and Z has slope c, at
    which the running clock gains `remainder`; exact for linear Z."""
    small = np.abs(c) < 1e-12
    with np.errstate(over="ignore", invalid="ignore"):
        delta = np.where(
            small,
            remainder * np.exp(-z0),
            np.log1p(np.where(small, 0.0, c) * remainder * np.exp(-z0))
            / np.where(small, 1.0, c))
    return delta


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


def _batch_estimate(model: _JumpModel, f: Callable, x: float, t: float,
                    cfg: SimConfig):
    """Vectorized over paths and over blocks of steps of a model with a
    Gaussian part.

    Each block draws B steps for each of the m live paths, B = budget // m
    (at least 1), builds Z and the clock A by prefix sums, and resolves
    every path at its first crossing A >= t/x or at its killing time,
    whichever comes first; when both fall in one step, the crossing's Levy
    time, solved on that step, decides.  Only the paths that cross in the
    block and, with killing, those whose killing time falls in it are
    looked at, and the live set is compacted only when one of them
    resolved; draws past a path's resolution in its block are discarded.

    Z, A and the clock's scratch live in three buffers allocated once: an
    array of a block's size, allocated and freed per block, is mapped and
    page-faulted afresh whenever it lies above the allocator's mmap
    threshold (glibc: 128 KiB until a larger block is freed), so the
    estimate's speed would depend on what the process freed before it (by
    15-40% on the benchmark's mc-oracle cases).
    """
    n = cfg.n_paths
    dt = cfg.dt
    target = t / x
    rng = _generator(cfg.seed)
    killing = model.kill_rate > 0
    kt = rng.exponential(1.0 / model.kill_rate, n) if killing else None
    values = np.zeros(n)
    resolved = np.zeros(n, dtype=bool)
    absorbed = np.zeros(n, dtype=bool)
    idx = np.arange(n)          # original indices of the live paths
    z = np.zeros(n)
    acc = np.zeros(n)
    killed = _NO_CELLS
    max_steps = int(np.ceil(cfg.t_max / dt))
    # (b + 1) m <= max(budget, m) + m for every block below
    zbuf, abuf, work = (np.empty(max(_BLOCK_BUDGET, n) + n)
                        for _ in range(3))
    step = 0
    while idx.size and step < max_steps:
        m = idx.size
        b = min(max_steps - step, max(1, _BLOCK_BUDGET // m))
        # row s holds Z and A of every live path after s steps of the
        # block; the clock's ratios come from the raw increments, before
        # their prefix sums
        zs = zbuf[:(b + 1) * m].reshape(b + 1, m)
        accs = abuf[:(b + 1) * m].reshape(b + 1, m)
        ez = work[:b * m].reshape(b, m)
        zs[0] = z
        accs[0] = acc
        _increments(model, rng, zs[1:])
        _clock_ratios(zs[1:], accs[1:], ez)
        _prefix_sums(zs)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            np.exp(zs[:-1], out=ez)
            ez *= dt
            accs[1:] *= ez
        _prefix_sums(accs)
        # A is nondecreasing, so a path crossed in this block iff its last
        # row is not below the target (a NaN clock counts, as it would in a
        # count over the whole block), and the steps still below the target
        # come first; only the crossed paths need the count
        r = np.flatnonzero(~(accs[-1] < target))
        s = np.count_nonzero(accs[1:, r] < target, axis=0)
        if killing:
            # paths whose killing time falls in this block; a crossed path
            # killed before its crossing step is not a candidate
            times = (step + np.arange(1, b + 1)) * dt
            killed = np.flatnonzero(kt <= times[-1])
            first = s <= np.searchsorted(times, kt[r])
            r, s = r[first], s[first]
        if r.size:
            z0, z1 = zs[s, r], zs[s + 1, r]
            delta = _invert_segment(z0, (z1 - z0) / dt, target - accs[s, r])
            # a crossed path survives iff its crossing time comes before
            # its killing time (a NaN time counts as before)
            keep = ~((step + s) * dt + delta >= (kt[r] if killing else np.inf))
            r, z0, z1, delta = r[keep], z0[keep], z1[keep], delta[keep]
            values[idx[r]] = f(x * np.exp(z0 + (z1 - z0) * (delta / dt)))
        if r.size or killed.size:
            # a path killed in the block is absorbed unless it won
            absorbed[idx[killed]] = True
            absorbed[idx[r]] = False
            live = np.ones(m, dtype=bool)
            live[killed] = False
            live[r] = False
            resolved[idx[~live]] = True
            idx, z, acc = idx[live], zs[-1, live], accs[-1, live]
            if killing:
                kt = kt[live]
        else:
            z, acc = zs[-1], accs[-1]
        step += b
    return values, resolved, absorbed


def _segment_estimate(model: _JumpModel, f: Callable, x: float, t: float,
                      cfg: SimConfig):
    """Exact paths of a Gaussian-free model, one inter-jump segment per row.

    Z has slope b = model.drift between jumps, so a segment of length tau
    from Z = z adds e^z tau (e^{b tau} - 1)/(b tau) to the clock, and the
    crossing is solved on its segment exactly.  Each round draws, for each
    of the m live paths, B waiting times, then B jump sizes; B = 1 in the
    first round and doubles each round up to max(1, budget // m), since a
    round of one segment per path costs a round's overhead per jump.  A
    segment is at most t_max long, and its jump lands at its end; without
    jumps one segment runs to t_max.  Row k of a round holds the time, Z
    and A of every live path after k segments, by prefix sums.  A path is
    absorbed iff its killing time comes before its crossing and t_max, and
    unresolved if it has neither crossed nor been killed by t_max; so what
    a segment starting past t_max holds changes no outcome, and a path
    leaves at the end of the round in which it passes t_max.
    """
    n, b, t_max, target = cfg.n_paths, model.drift, cfg.t_max, t / x
    rng = _generator(cfg.seed)
    kt = (rng.exponential(1.0 / model.kill_rate, n) if model.kill_rate > 0
          else np.full(n, np.inf))
    values = np.zeros(n)
    resolved = np.zeros(n, dtype=bool)
    absorbed = np.zeros(n, dtype=bool)
    idx = np.arange(n)          # original indices of the live paths
    s, z, acc = np.zeros(n), np.zeros(n), np.zeros(n)
    # (rows + 1) m <= max(budget, m) + m in every round
    tbuf, zbuf, abuf, work = (np.empty(max(_BLOCK_BUDGET, n) + n)
                              for _ in range(4))
    rows = 1
    while idx.size:
        m = idx.size
        rows = min(rows, max(1, _BLOCK_BUDGET // m))
        ts, zs, accs = (buf[:(rows + 1) * m].reshape(rows + 1, m)
                        for buf in (tbuf, zbuf, abuf))
        ez = work[:rows * m].reshape(rows, m)
        ts[0], zs[0], accs[0] = s, z, acc
        if model.jump_rate > 0:
            rng.standard_exponential(out=ts[1:])
            ts[1:] *= 1.0 / model.jump_rate
            np.minimum(ts[1:], t_max, out=ts[1:])
            jumps = rng.choice(model.jump_sizes, size=(rows, m),
                               p=model.jump_probs)
        else:
            ts[1:] = t_max
        # the lengths give the drift and the clock ratios, before the prefix
        # sums turn them into times
        np.multiply(ts[1:], b, out=zs[1:])
        _clock_ratios(zs[1:], accs[1:], ez)
        accs[1:] *= ts[1:]
        _prefix_sums(ts)
        if model.jump_rate > 0:
            zs[1:] += jumps
        _prefix_sums(zs)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            accs[1:] *= np.exp(zs[:-1], out=ez)
        _prefix_sums(accs)
        # A is nondecreasing: a path crossed in this round iff its last row
        # is not below the target (a NaN clock counts), on the segment that
        # starts at its last row below the target
        r = np.flatnonzero(~(accs[-1] < target))
        k = np.count_nonzero(accs[1:, r] < target, axis=0)
        z0 = zs[k, r]
        delta = _invert_segment(z0, b, target - accs[k, r])
        crossing = ts[k, r] + delta
        # a path that did not cross is killed first iff its killing time
        # falls within its segments
        end = ts[-1]
        killed = kt <= np.minimum(end, t_max)
        done = killed | (end >= t_max)
        first = kt[r] < crossing
        killed[r] = first & (kt[r] <= t_max)
        done[r] = True
        won = ~first & (crossing <= t_max)
        values[idx[r[won]]] = f(x * np.exp(z0[won] + b * delta[won]))
        resolved[idx[r[won]]] = True
        resolved[idx[killed]] = True
        absorbed[idx[killed]] = True
        live = np.flatnonzero(~done)
        idx, kt, s, z, acc = (a[live]
                              for a in (idx, kt, end, zs[-1], accs[-1]))
        rows *= 2
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
    estimate = (_batch_estimate if model.gauss_std_rate > 0
                else _segment_estimate)
    values, resolved, absorbed = estimate(model, f, x, t, cfg)
    n_eff = int(resolved.sum())
    if n_eff == 0:
        raise ConfigError("no path reached the clock target; raise t_max")
    vals = values[resolved]
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(n_eff)) if n_eff > 1 else 0.0
    return MCEstimate(mean=mean, stderr=stderr, n_effective=n_eff,
                      absorbed_fraction=float(absorbed.sum() / max(1, n_eff)),
                      unresolved_fraction=(cfg.n_paths - n_eff) / cfg.n_paths)
