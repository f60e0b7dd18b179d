"""Monte Carlo oracle through the Lamperti time change.

Paths of the Levy process Z with exponent psi are simulated by an Euler
scheme on the Levy clock (exact Gaussian increments, every jump above
jump_eps drawn from one compound-Poisson table of the atoms and the
density nodes, a variance-matched Gaussian for the sub-threshold jumps,
and an exponential killing time at rate psi(0)).  The positive self-similar
process started at x > 0 is then

    X_t(x) = x exp(Z_{phi(t/x)}),   phi(v) = inf{s : A(s) > v},
    A(s) = integral_0^s e^{Z_r} dr,

with A integrated in closed form on each step under linear interpolation
of Z (exact for drift-only paths, second order otherwise), and phi
inverted exactly on the crossing step.  A path is killed iff its killing
time comes before phi(t/x), the Levy time of its crossing.

Randomness comes from one SFC64 generator per estimate, keyed by a
SeedSequence of (seed, 0).  It draws first the killing times of all paths,
then, block after block, the increments of the paths still live, B steps
per path per block, with B set by the live-path count and a fixed budget
of path-steps per block; each block draws its Gaussian parts, then
one total jump count for all its path-steps, then the path-step and the
size of each jump, so its jumps cost one add per path-step plus one draw
per jump.  The numbers a path receives therefore depend on which other
paths are still live, and changing n_paths changes every path; identical
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
    return _JumpModel(
        dt=cfg.dt,
        drift=float(q.b - comp),
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
# the clock A and its inverse on one step
# ---------------------------------------------------------------------------

def _segment_clock(z0, z1, dt, out, work):
    """Write into `out` the integral of e^{Z} over each step under linear
    interpolation of Z; z0, z1, `out` and the scratch array `work` are
    arrays of one shape, and no other array of that size is allocated."""
    d = np.subtract(z1, z0, out=work)
    small = np.abs(d, out=out) <= 1e-12
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        ratio = np.expm1(d, out=out)
        ratio /= d
        ratio[small] = 1.0 + 0.5 * d[small]
        ez = np.exp(z0, out=work)
    ez *= dt
    ratio *= ez


def _invert_segment(z0, z1, dt, remainder):
    """Entry time into the segment at which the running clock gains
    `remainder`; exact for linear Z."""
    c = (z1 - z0) / dt
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


def _batch_estimate(q: LevyQuadruplet, f: Callable, x: float, t: float,
                    cfg: SimConfig):
    """Vectorized over paths and over blocks of steps.

    Each block draws B steps for each of the m live paths, B = budget // m
    (at least 1), builds Z and the clock A by prefix sums, and resolves
    every path at its first crossing A >= t/x or at its killing time,
    whichever comes first; when both fall in one step, the crossing's Levy
    time, solved on that step, decides.  The live set is compacted once per
    block; draws past a path's resolution in its block are discarded.
    Z, A and the clock's scratch live in three buffers allocated once: an
    array of a block's size, allocated and freed per block, is mapped and
    page-faulted afresh whenever it lies above the allocator's mmap
    threshold (glibc: 128 KiB until a larger block is freed), so the
    estimate's speed would depend on what the process freed before it (by
    15-40% on the benchmark's mc-oracle cases).
    """
    model = _build_jump_model(q, cfg)
    n = cfg.n_paths
    dt = cfg.dt
    target = t / x
    rng = _generator(cfg.seed)
    kt = (rng.exponential(1.0 / model.kill_rate, n)
          if model.kill_rate > 0 else np.full(n, np.inf))
    values = np.zeros(n)
    resolved = np.zeros(n, dtype=bool)
    absorbed = np.zeros(n, dtype=bool)
    idx = np.arange(n)          # original indices of the live paths
    z = np.zeros(n)
    acc = np.zeros(n)
    max_steps = int(np.ceil(cfg.t_max / dt))
    # (b + 1) m <= max(budget, m) + m for every block below
    zbuf, abuf, work = (np.empty(max(_BLOCK_BUDGET, n) + n)
                        for _ in range(3))
    step = 0
    while idx.size and step < max_steps:
        m = idx.size
        b = min(max_steps - step, max(1, _BLOCK_BUDGET // m))
        # row s holds Z and A of every live path after s steps of the block
        zs = zbuf[:(b + 1) * m].reshape(b + 1, m)
        zs[0] = z
        _increments(model, rng, zs[1:])
        _prefix_sums(zs)
        accs = abuf[:(b + 1) * m].reshape(b + 1, m)
        accs[0] = acc
        _segment_clock(zs[:-1], zs[1:], dt, accs[1:],
                       work[:b * m].reshape(b, m))
        _prefix_sums(accs)
        # A is nondecreasing, so a path crossed in this block iff its last
        # row is not below the target (a NaN clock counts, as it would in a
        # count over the whole block), and the steps still below the target
        # come first; only the crossed paths need the count
        cs = np.full(m, b)
        c = np.flatnonzero(~(accs[-1] < target))
        cs[c] = np.count_nonzero(accs[1:, c] < target, axis=0)
        crossed = cs < b
        # first local step s with kt <= (step + s + 1) dt, b if none
        ks = np.searchsorted((step + np.arange(1, b + 1)) * dt, kt)
        # a path crossed no later than its killing step survives iff its
        # crossing time comes before kt (a NaN time counts as before)
        r = np.flatnonzero(crossed & (cs <= ks))
        s = cs[r]
        z0, z1 = zs[s, r], zs[s + 1, r]
        delta = _invert_segment(z0, z1, dt, target - accs[s, r])
        keep = ~((step + s) * dt + delta >= kt[r])
        r, z0, z1, delta = r[keep], z0[keep], z1[keep], delta[keep]
        if r.size:
            values[idx[r]] = f(x * np.exp(z0 + (z1 - z0) * (delta / dt)))
        wins = np.zeros(m, dtype=bool)
        wins[r] = True
        killed = (ks < b) & ~wins
        done = wins | killed
        resolved[idx[done]] = True
        absorbed[idx[killed]] = True
        live = ~done
        idx, z, acc, kt = idx[live], zs[-1, live], accs[-1, live], kt[live]
        step += b
    return values, resolved, absorbed


def mc_expectation(e: Exponent, f: Callable, x: float, t: float,
                   cfg: SimConfig) -> MCEstimate:
    """Monte Carlo estimate of E_x[f(X_t)] with absorbed paths counting 0.

    x must be positive and t nonnegative, both finite.  f acts on the
    positive-scale variable X directly (compose with log outside if the
    observable lives on the log scale).  A path is absorbed iff its killing
    time comes before phi(t/x), the Levy time of its crossing, solved on
    the crossing step under the clock's linear interpolation of Z (exactly
    for drift-only paths).  Paths that never reach the clock target before
    t_max are excluded from the mean and counted in unresolved_fraction (of
    n_paths; n_effective counts the rest).  Excluding them biases the mean
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
    values, resolved, absorbed = _batch_estimate(e.quadruplet, f, x, t, cfg)
    n_eff = int(resolved.sum())
    if n_eff == 0:
        raise ConfigError("no path reached the clock target; raise t_max")
    vals = values[resolved]
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(n_eff)) if n_eff > 1 else 0.0
    return MCEstimate(mean=mean, stderr=stderr, n_effective=n_eff,
                      absorbed_fraction=float(absorbed.sum() / max(1, n_eff)),
                      unresolved_fraction=(cfg.n_paths - n_eff) / cfg.n_paths)
