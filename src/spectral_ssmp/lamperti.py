"""Monte Carlo oracle through the Lamperti time change.

The positive self-similar process started at x > 0 is

    X_t(x) = x exp(Z_{phi(t/x)}),   phi(v) = inf{s : A(s) > v},
    A(s) = integral_0^s e^{Z_r} dr,

for the Levy process Z with exponent psi, killed at an exponential time of
rate psi(0): a path is killed iff its killing time comes before phi(t/x),
the Levy time of its crossing.  Every jump above jump_eps is drawn from one
compound-Poisson table of the atoms and the density nodes.

One block loop simulates every model row by row, under one row law: a
row ends at the earlier of its next jump, an Exp(jump_rate) waiting time
away, and its path's cap.  The cap is t_max for a model without a Gaussian
part (drift, atoms and killing: finitely many jumps).  A model with one
(sigma2 > 0, or jumps below jump_eps replaced by a variance-matched
Gaussian) sizes a path's rows by the clock they add: at each block start
the cap is dt where Z >= 0 and dt e^{-z/2} where Z = z < 0, at most t_max,
since a row at Z = z adds about h e^z to the clock.
Over its length h a row gains the exact Gaussian increment
std sqrt(h) N + b h, and Z is linear on it as the clock sees it; the row
adds its jump at its end unless it reached its cap.  So every jump comes
at its exact time, and a Gaussian-free model is exact and does not use
dt.  A row of length h that starts at Z = z and gains c along its slope
adds h e^z (e^c - 1)/c to the clock, and phi is inverted exactly on the
crossing row.

A path that has neither crossed nor been absorbed by the horizon t_max
counts 0, as an absorbed one does: when Z drifts to -inf, X reaches 0
before t exactly on the paths whose clock A_inf stays below t/x, which
never cross, so the estimate is the semigroup killed at 0, and the only
bias is that of the paths that would cross after t_max.

Randomness comes from one SFC64 generator per estimate, keyed by a
SeedSequence of (seed, 0).  It draws first the killing times of all paths,
then, block after block, B rows per live path: B waiting times (with
jumps), B normals (with a Gaussian part) and B uniforms for the jump sizes
(with jumps).  Every model takes B = 1 in the first block, doubling each
block up to a fixed budget of draws per block (and to _LONG_CAP_ROWS while
some cap exceeds dt): the short first blocks spare the draws of paths that
resolve early, and the long later ones a block's overhead per row.

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

from .errors import DomainError
from .exponents import Exponent, LevyQuadruplet

__all__ = ["SimConfig", "MCEstimate", "mc_expectation"]


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo settings.  dt, the longest row of Levy time that starts a
    block at Z >= 0, serves only models with a Gaussian part (below Z = 0
    their rows grow as dt e^{-Z/2}); Gaussian-free models are exact."""

    dt: float = 1e-3
    jump_eps: float = 1e-3
    n_paths: int = 10_000
    seed: int = 0
    t_max: float = 64.0

    def __post_init__(self):
        if not 0.0 < self.dt <= 1e-2:
            raise DomainError("dt must lie in (0, 1e-2]")
        if not 0.0 < self.jump_eps <= 1.0:
            raise DomainError("jump_eps must lie in (0, 1]: the small-jump "
                              "surrogate must stay inside the compensated zone")
        if (not isinstance(self.n_paths, (int, np.integer))
                or self.n_paths < 1):
            raise DomainError("n_paths must be a positive integer")
        if not 0.0 < self.t_max < np.inf:
            raise DomainError("t_max must be positive and finite")
        if (not isinstance(self.seed, (int, np.integer))
                or not 0 <= int(self.seed) < 1 << 64):
            raise DomainError("seed must be an integer in [0, 2**64)")


@dataclass(frozen=True)
class MCEstimate:
    """An estimate of E_x[f(X_t)] and how its paths ended.

    mean and stderr are taken over all n_paths, the absorbed and the
    unresolved paths counting 0.  n_effective counts the resolved paths
    (crossed or absorbed); absorbed_fraction is the share of them that were
    absorbed (killed before their crossing), 0 when none resolved;
    unresolved_fraction is the share of all n_paths that neither crossed
    nor were absorbed by the horizon.
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
    """Per-row ingredients derived from a quadruplet and jump_eps.

    Every jump of size >= jump_eps (atoms, density nodes, the density heads
    above jump_eps and the remainder masses) is one entry of a single
    compound-Poisson table: jumps arrive at jump_rate and take jump_sizes
    with jump_probs.  jump_cdf is the table's CDF as Generator.choice builds
    it, the cumulated jump_probs over their last partial sum, so its last
    knot is 1 (empty without jumps); `_jump_sizes` draws through it.
    """

    drift: float          # b plus compensator adjustments, per unit time
    gauss_std_rate: float  # std of the Gaussian part per sqrt(unit time)
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
# 2 us and 10-40 ns per draw.  A block draws one uniform per row: over the
# thousands of a wide block comparisons win up to about 24 entries (at
# 20000 draws: 31 against 205 us at 2 entries, 68 against 417 us at 8);
# over the few dozen of a narrow block searchsorted wins from 2 entries on,
# but up to 8 entries comparisons still cost less than Generator.choice
# (20 against 23 us at 64 draws).  One 2-core x86-64 machine, NumPy 2.4.
_SHORT_TABLE = 8


def _jump_sizes(model: _JumpModel, u, idx, mask):
    """Turn the 1-D uniforms `u` in place into jump sizes: a uniform takes
    the entry whose index is the number of CDF knots at or below it.  The
    intp array `idx` and the bool array `mask`, each at least as long as
    `u`, are a short table's scratch: its indices, and its comparisons with
    each knot past the first.

    Generator.choice(jump_sizes, p=jump_probs) draws one rng.random per
    size and maps it through the same CDF with searchsorted(side="right"),
    so these are its sizes bit for bit, from the same uniforms.
    """
    cdf = model.jump_cdf
    if cdf.size > _SHORT_TABLE:
        idx = cdf.searchsorted(u, side="right")
    else:
        # the last knot is 1, above every uniform: one entry maps to 0.
        # take converts any other index type to intp, a block-sized copy
        idx, mask = idx[:u.size], mask[:u.size]
        np.greater_equal(u, cdf[0], out=idx)
        for knot in cdf[1:-1]:
            np.add(idx, 1, out=idx, where=np.greater_equal(u, knot, out=mask))
    # the indices are in range; mode="clip" spares take a buffered copy
    model.jump_sizes.take(idx, out=u, mode="clip")


# ---------------------------------------------------------------------------
# the clock A and its inverse on one row
# ---------------------------------------------------------------------------

# the ratio (e^d - 1)/d is 1 + d/2 + O(d^2): below this |d| it is taken as
# 1 + d/2, which also covers d = 0
_TINY_INCREMENT = 1e-12


def _clock_ratios(d, out, work):
    """Write into `out` the clock ratio (e^d - 1)/d of each increment in
    `d`: a row of length h that starts at Z = z and gains d adds h e^z
    times its ratio to the clock.

    `d`, `out` and the scratch array `work` are C-contiguous arrays of one
    shape, and no other array of that size is allocated unless some
    |d| <= _TINY_INCREMENT.  Call it under np.errstate(all="ignore"): d = 0
    divides 0 by 0 before its ratio is repaired.
    """
    np.expm1(d, out=out)
    out /= d
    if np.abs(d, out=work).min() <= _TINY_INCREMENT:
        small = np.flatnonzero(work <= _TINY_INCREMENT)
        out.flat[small] = 1.0 + 0.5 * d.flat[small]


def _invert_row(z0, c, remainder):
    """Time after a row's start, where Z = z0 and Z has slope c, at which
    the running clock gains `remainder`; exact for linear Z.  The slope c
    is one scalar for all rows, or an array of z0's shape: one path serves
    both, the zero-slope time remainder e^{-z0} wherever |c| < 1e-12."""
    ez = np.exp(-z0)
    out = remainder * ez
    np.divide(np.log1p(c * remainder * ez), c, out=out,
              where=~(np.abs(c) < 1e-12))
    return out


# ---------------------------------------------------------------------------
# batch estimation
# ---------------------------------------------------------------------------

# path-rows drawn per block; keeps a block's arrays at about 0.5 MiB
_BLOCK_BUDGET = 1 << 16

# Blocks at least this many paths wide take their prefix sums row by row.
# np.cumsum along axis 0 walks the strided axis one column at a time, at
# 3.5-4.5 ns per element whatever the width; one np.add per row costs about
# 0.5 us plus 0.4 ns per element.  With _BLOCK_BUDGET path-rows per block
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


# A model with a Gaussian part caps the rows of a path that starts a block
# at Z = z by dt max(1, e^{-_CAP_POWER z}), and by t_max.  A row of length h
# adds about h e^z to the clock and h^2 e^z sigma^2/12 of interpolation
# error (Glasserman 2004, ch. 6), so below Z = 0 this cap adds no more error
# per unit of Levy time than a dt row at Z = 0, and paths that wander low
# take fewer rows.  For Brownian motion (x = 1, t = 0.5, 10k paths, seeds
# 1-3) power 1/4, 1/2 and 1 drew 6.2M, 5.1M and 4.1M path-rows against
# 11.4M with rows of dt (144, 111 and 87 ms against about 205 ms); power 1
# adds as much error per unit of Levy time at every z below 0 as at 0.
# One 2-core x86-64 machine, NumPy 2.4.
_CAP_POWER = 0.5

# While some live path's cap exceeds dt, a block holds at most this many
# rows: a path keeps its block's cap, so one that rises in a long block
# takes long rows above the Z it started from.  At 16, 64 and 256 rows the
# Brownian estimate above took 118, 111 and 108 ms.
_LONG_CAP_ROWS = 64


def _estimate(model: _JumpModel, f: Callable, x: float, t: float,
              cfg: SimConfig):
    """Vectorized over the live paths and over blocks of B rows each.

    The row law: a row ends at the earlier of its next jump, an
    Exp(jump_rate) waiting time away, and its path's cap, gains
    std sqrt(h) N + b h over its length h, with b = model.drift, and adds
    its jump at its end unless it reached its cap.  Without a Gaussian part
    the cap is t_max; with one each path takes at every block start the
    cap dt max(1, e^{-_CAP_POWER z}), at most t_max, for its Z = z there.
    B is 1 in the first block, doubling each block, at most budget // m
    for m live paths, and at most _LONG_CAP_ROWS while some cap exceeds
    dt.  Prefix sums of the rows' lengths give the time, Z and the clock A
    of every live path after k rows.  On the crossing row Z has the slope
    b without a Gaussian part, and (Z_{k+1} - J_k - Z_k) / h_k with one,
    where J_k is the row's end jump and h_k its length, the difference of
    its times.

    One rule resolves every path, against the horizon t_max.  A path that
    crossed the target t/x wins iff its killing time does not come before
    its crossing and the crossing is within the horizon, and is absorbed
    iff its killing time comes first and is within the horizon; a path
    that has not crossed is absorbed iff its killing time is at most the
    end of its rows and the horizon.  A path is done once it is absorbed,
    has crossed, or its rows reach the horizon; a done path that neither
    won nor was absorbed is unresolved, and its value is 0.  So a tie of
    the killing and crossing times lets the path win, and a crossing time
    that is not a number leaves it unresolved.  Draws past a path's
    resolution are discarded, and the live set is compacted once per
    block.  f is applied once, after the loop, to X at the crossings of
    the paths that won.

    Z, A, the rows' times, the clock's scratch (which also takes the jump
    sizes of a Gaussian-free model), the end jumps of a model with both
    parts, and with jumps the mask of the rows that end at a jump and the
    indices of their table entries live in buffers allocated once: an
    array of a block's size, allocated and freed per block, is mapped and
    page-faulted afresh whenever it lies above the allocator's mmap
    threshold (glibc: 128 KiB until a larger block is freed), so the
    estimate's speed would depend on what the process freed before it (by
    15-40% on the benchmark's mc-oracle cases).
    """
    n, t_max, target = cfg.n_paths, cfg.t_max, t / x
    b, std, jumps = model.drift, model.gauss_std_rate, model.jump_rate > 0
    rng = _generator(cfg.seed)
    kt = (rng.exponential(1.0 / model.kill_rate, n) if model.kill_rate > 0
          else np.full(n, np.inf))
    zc = np.empty(n)            # Z at the crossing of the paths that won
    resolved = np.zeros(n, dtype=bool)
    absorbed = np.zeros(n, dtype=bool)
    idx = np.arange(n)          # original indices of the live paths
    s, z, acc = np.zeros(n), np.zeros(n), np.zeros(n)
    # (rows + 1) m <= max(budget, m) + m in every block
    size = max(_BLOCK_BUDGET, n) + n
    tbuf, zbuf, abuf, work = (np.empty(size) for _ in range(4))
    # a Gaussian row's crossing slope needs its end jump after the sums
    jbuf = np.empty(size) if jumps and std > 0 else work
    # with jumps: the mask of the rows that end at a jump, then a short
    # table's comparisons; and the indices of the table's entries
    hits = np.empty(2 * size, dtype=bool) if jumps else None
    entries = np.empty(size, dtype=np.intp) if jumps else None
    rows, cap, long_caps = 1, t_max, False
    # a zero increment divides 0 by 0 before its ratio is repaired, and e^Z
    # may overflow on paths far above the target
    with np.errstate(all="ignore"):
        while idx.size:
            m = idx.size
            if std > 0:
                cap = np.exp(z * -_CAP_POWER)
                np.maximum(cap, 1.0, out=cap)
                cap *= cfg.dt
                np.minimum(cap, t_max, out=cap)
                long_caps = cap.max() > cfg.dt
            rows = min(rows, max(1, _BLOCK_BUDGET // m))
            if long_caps:
                rows = min(rows, _LONG_CAP_ROWS)
            ts, zs, accs = (buf[:(rows + 1) * m].reshape(rows + 1, m)
                            for buf in (tbuf, zbuf, abuf))
            ez = work[:rows * m].reshape(rows, m)
            ts[0], zs[0], accs[0] = s, z, acc
            # the rows' lengths, read before the times' prefix sums.  A
            # path's cap is spread over its rows by np.copyto first: a ufunc
            # that broadcasts it allocates iteration buffers of its own
            h = ts[1:]
            if jumps:
                rng.standard_exponential(out=h)
                h *= 1.0 / model.jump_rate
                np.copyto(ez, cap)
                hit = np.less(h, ez, out=hits[:rows * m].reshape(rows, m))
                capped = not hit.all()
                if capped:
                    np.minimum(h, ez, out=h)
            else:
                np.copyto(h, cap)
            # rows 1.. of zs get the continuous increments c, whose clock
            # ratios are taken before the jumps and the prefix sums
            c = zs[1:]
            if std > 0:
                rng.standard_normal(out=c)
                np.sqrt(h, out=ez)
                ez *= std
                c *= ez
                if b:       # adding 0.0 would change at most a -0.0
                    c += np.multiply(h, b, out=ez)
            else:
                np.multiply(h, b, out=c)
            _clock_ratios(c, accs[1:], ez)
            if jumps:
                jz = jbuf[:rows * m].reshape(rows, m)
                rng.random(out=jz)
                if capped:  # a row that reached its cap has no jump
                    u = jz[hit]
                    _jump_sizes(model, u, entries, hits[size:])
                    jz.fill(0.0)
                    jz[hit] = u
                else:
                    _jump_sizes(model, jz.reshape(-1), entries, hits[size:])
                c += jz
            _prefix_sums(zs)
            np.exp(zs[:-1], out=ez)
            ez *= h
            accs[1:] *= ez
            _prefix_sums(accs)
            _prefix_sums(ts)
            # A is nondecreasing: a path crossed in this block iff its last
            # row is not below the target (a NaN clock counts), on the row
            # that starts at its last row below the target, at flat index
            # `at` of the block's arrays
            r = (~(accs[-1] < target)).nonzero()[0]
            k = (accs[1:].take(r, axis=1) < target).sum(axis=0)
            at = k * m + r
            z0, t0 = zs.take(at), ts.take(at)
            if std > 0:
                # the crossing row's continuous increment over its length
                dz, hk = zs.take(at + m) - z0, ts.take(at + m) - t0
                if jumps:
                    dz -= jz.take(at)
                slope = dz / hk
            else:
                slope = b
            delta = _invert_row(z0, slope, target - accs.take(at))
            crossing = t0 + delta
            end = ts[-1]
            killed = kt <= np.minimum(end, t_max)
            done = killed | (end >= t_max)
            killed_first = kt[r] < crossing
            killed[r] = killed_first & (kt[r] <= t_max)
            done[r] = True
            won = ~killed_first & (crossing <= t_max)
            winners = idx[r[won]]
            zc[winners] = (z0 + (dz * (delta / hk) if std > 0
                                 else b * delta))[won]
            resolved[winners] = True
            gone = idx[killed]
            resolved[gone] = absorbed[gone] = True
            live = (~done).nonzero()[0]
            idx, kt, s, z, acc = (a[live] for a in (idx, kt, end, zs[-1],
                                                     accs[-1]))
            rows *= 2
    # f sees the winners once, outside the loop's error state
    values = np.zeros(n)
    won = resolved & ~absorbed
    values[won] = f(x * np.exp(zc[won]))
    return values, resolved, absorbed


def mc_expectation(e: Exponent, f: Callable, x: float, t: float,
                   cfg: SimConfig) -> MCEstimate:
    """Monte Carlo estimate of E_x[f(X_t)], a path that does not reach X_t
    (absorbed, or unresolved by t_max) counting 0.

    x must be positive and t nonnegative, both finite.  f acts on the
    positive-scale variable X directly (compose with log outside if the
    observable lives on the log scale).  A path is absorbed iff its killing
    time comes before phi(t/x), the Levy time of its crossing.  Every jump
    comes at its exact time.  A model without a Gaussian part (drift,
    atoms, killing) is simulated exactly, row by row between its jumps,
    and cfg.dt is not used.  A model with one also ends a row at its cap,
    cfg.dt where Z >= 0 at the row's block start and cfg.dt e^{-Z/2} below
    0 (at most t_max), and its crossing is solved on the crossing row under
    the clock's linear interpolation of Z.  A path that neither reaches
    the clock target nor is absorbed by t_max counts 0 and is counted in
    unresolved_fraction (of n_paths; n_effective counts the rest).  When Z
    drifts to -inf, X reaches 0 at the finite time T_0 = x A_inf, and the
    paths that reach 0 before t never reach the target, so counting them 0
    gives the semigroup killed at 0, E_x[f(X_t); t < T_0].  Only the paths
    that would cross after t_max are then miscounted, which biases the
    mean by at most unresolved_fraction * sup|f|, for any f.  The paths
    also leave out the jumps beyond a tabulated density's last node, at
    rate `rem` per unit of Levy time on each side (1.8e-10 for
    `stable_density_table(0.5)`); a path takes one before t_max with
    probability at most rem * t_max, which bounds the bias they add in the
    same way.  The stderr includes neither bias.
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
    n, n_eff = cfg.n_paths, int(resolved.sum())
    stderr = float(np.std(values, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return MCEstimate(mean=float(np.mean(values)), stderr=stderr,
                      n_effective=n_eff,
                      absorbed_fraction=float(absorbed.sum() / max(1, n_eff)),
                      unresolved_fraction=(n - n_eff) / n)
