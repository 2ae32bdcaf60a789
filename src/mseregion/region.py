"""Region membership, segment witnesses, sampling, and user embedding.

A target MSE tuple t is achievable when some allocation p >= 0 with
sum(p) <= P meets eps_k(p) <= t_k for every user (the dominated region).
Membership is decided exactly from the margin s* = min_p max_k (eps_k - t_k).
With MMSE receivers eps_k <= tau_k is SINR_k >= gamma_k = 1/tau_k - 1, and
the least powers meeting SINR targets are the fixed point p*(gamma) of the
standard interference function I_k(p) = gamma_k eps_k / a_kk (Yates, IEEE
JSAC 1995).  So at s* the allocation p*(t + s*) spends the whole budget,
users with t_k + s* < 1 meet t_k + s* exactly, and the others are silent.
`_solve` finds that point by Newton on G(p, s) = [eps(p) - t - s; sum p - P],
whose Jacobian [[J, -1], [1^T, 0]] takes J from the kernel: one kernel call
per round for a whole stack of targets in lockstep, J derived only for the
targets still open, plus one batched (K+1) x (K+1) solve.  Each target
starts at its interference-free allocation, p_k proportional to
(1/t_k - 1)_+ / g_k with g_k = |h_k|^2, scaled onto sum p = P: the powers
that would meet t if no user heard another.  On orthogonal channels that
is p*(t) itself, so at a target on the full-budget face (s* = 0) the start
is the solution.  A two-user target starts at its solution on any
channels: on the face p1 = p, p2 = P - p, eps1 - t1 falls and eps2 - t2
rises in p, so s* is their value where they cross, at the root of one
quadratic in p or at an end where one user is silent
(`boundary._face_crossings`), and its first round closes the bracket up
to the kernel's rounding.  Every iterate tightens a bracket lo <= s* <= margin.
One that spends at most P is a witness of its own max_k (eps_k - t_k),
the reported margin.  One that spends at least P proves s* >= the least
eps_k - t_k of its transmitting users: below that level it is a strict
subsolution (p <= I(p), strictly where p_k > 0), so p* lies above it and
spends more than P.  The verdict is converged when the bracket closes.

`segment_test` applies the membership test along the chord between two
achievable tuples; an interior point that fails membership is a direct
numerical witness that the region is not convex.  Every evaluation runs
on the channel set's triangular factor (`ChannelSet.factor`), so a
segment test shares one QR whatever the antenna count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .boundary import _face_crossings
from .model import ChannelSet, MseTuple, SystemConfig, _channel_set, _mse_terms, mse_tuples
from .simplex import budget_simplex_lattice, lattice_size, sample_budget_simplex
from .tolerances import TOL_MEMBER

__all__ = [
    "MembershipVerdict",
    "SegmentPoint",
    "SegmentReport",
    "RegionSampleSet",
    "GRID_LIMIT",
    "dominated_membership",
    "segment_test",
    "sample_region",
    "embed_inactive_users",
]

# hard cap on grid-mode sample counts; beyond this, use random mode
GRID_LIMIT = 10_000_000

# A membership solve takes at most _MAX_ROUNDS Newton steps per target and
# ends once its bracket on s is within _S_TOL (MSE units: far below
# TOL_MEMBER, a few ulps of 1); the cap leaves it unconverged.  eps_k is
# convex and decreasing in p_k, so a linearised cut overshoots: a step
# leaves a transmitting user at least _SHRINK of its power unless the user
# goes silent.  Up to _NUDGES one-ulp moves carry a new iterate's float sum
# across P (see `_solve`).
_MAX_ROUNDS = 64
_S_TOL = 1e-14
_SHRINK = 0.25
_NUDGES = 8


@dataclass(frozen=True, eq=False)
class MembershipVerdict:
    """Exact margin, its witness and how the solve went.

    `witness_powers` is the best iterate that spends at most P, and
    `margin` its own max_k (eps_k - t_k).  `rounds` counts the Newton
    iterations of this target, one kernel evaluation each.  `converged`
    is True when the proven bracket on s* closed within the round cap.
    """

    target: np.ndarray
    margin: float
    witness_powers: np.ndarray
    dominated: bool
    converged: bool
    rounds: int


@dataclass(frozen=True, eq=False)
class SegmentPoint(MembershipVerdict):
    """The verdict at chord position t."""

    t: float


@dataclass(frozen=True, eq=False)
class SegmentReport:
    endpoint_a: MembershipVerdict
    endpoint_b: MembershipVerdict
    points: list
    nonconvex_witness: bool


@dataclass(frozen=True, eq=False)
class RegionSampleSet:
    """Sampled allocations, one row each, and their MSE tuples on demand.

    Row i's powers are `levels[lattice[i]]`: a grid's `lattice` is its
    integer lattice and its `levels` are arange(resolution + 1) * step,
    with the bits of lattice * step; a random draw's `levels` are its
    S * K powers in row order and its `lattice` numbers them.  Where there
    are fewer levels than power cells, `io.write_region_csv` formats each
    level once and copies its text into the cells.  `mse_rows(lo, hi)`
    evaluates the MSE rows lo..hi - 1; `mses` is the whole table,
    evaluated once.
    """

    lattice: np.ndarray
    levels: np.ndarray
    mse_rows: Callable[[int, int], np.ndarray]

    def __len__(self) -> int:
        return len(self.lattice)

    @property
    def powers(self) -> np.ndarray:
        return self.levels[self.lattice]

    @cached_property
    def mses(self) -> np.ndarray:
        return self.mse_rows(0, len(self))


def _solve(chan: ChannelSet, config: SystemConfig, tgt: np.ndarray) -> list:
    """Verdicts for a (B, K) stack of targets, solved in lockstep.

    Each target starts at p proportional to (1/t_k - 1)_+ / g_k, g_k the
    squared column norms of `chan.factor`, scaled onto sum p = P.  With no
    interference eps_k = sigma^2 / (sigma^2 + p_k g_k), so these powers meet
    t exactly on orthogonal channels, and at a face target they already
    spend P: the start is the solution.  A row where the rule is undefined
    starts at p = P/K: every t_k is 1, or a ratio overflows or underflows
    to zero, or the row sum is not finite and positive.  At K = 2 a row
    starts instead at the full-budget allocation where eps1 - t1 = eps2 -
    t2, or at the end of the face where one user is silent if they do not
    cross (`boundary._face_crossings`): its float sum is P and its
    excesses meet at s*, so its first round closes the bracket up to the
    kernel's rounding.  A row whose crossing is not finite keeps the rule
    above.  Every row starts
    with the all-silent witness (margin max(1 - t)) and lo = -min t (some
    tau_k = 0 is beyond any power).

    A user is held silent, its row replaced by p_k + dp_k = 0, once
    1 - t_k <= lo proves it silent, or while it is at zero power and its
    silent MSE meets the last Newton level.  A step that would take a
    user's power to zero or below silences it if 1 - t_k <= margin;
    otherwise no step leaves a user less than _SHRINK of its power.  The
    iterate is then scaled back to the budget.  Where the float sum of an
    iterate misses P, the next one is nudged to the other side, so that
    both ends of the bracket keep moving once the steps fall below
    rounding.
    """
    budget, (count, k) = config.power_budget, tgt.shape
    verdicts = [None] * count
    rows = np.arange(count)
    lo = -tgt.min(axis=1)
    margin = level = (1.0 - tgt).max(axis=1)
    with np.errstate(all="ignore"):     # a row left non-finite or zero here fails `sound`
        gain = (chan.factor.real ** 2 + chan.factor.imag ** 2).sum(axis=0)
        need = np.where(tgt < 1.0, (1.0 / tgt - 1.0) / gain, 0.0)
        powers = need * (budget / need.sum(axis=1, keepdims=True))
    sound = (np.isfinite(powers) & ((powers > 0.0) | (tgt >= 1.0))).all(axis=1)
    powers[~sound] = budget / k
    if k == 2:
        crossing = _face_crossings(chan.factor, config, tgt)
        exact = np.isfinite(crossing).all(axis=1)
        powers[exact] = crossing[exact]
    witness = np.zeros((count, k))
    rounds = np.zeros(count, int)
    while True:
        eps, derive = _mse_terms(chan.factor, powers, config.noise_variance)
        rounds += 1
        gap, total = eps - tgt, powers.sum(axis=1)
        top = gap.max(axis=1)
        better = (total <= budget) & (top < margin)
        margin = np.where(better, top, margin)
        witness = np.where(better[:, None], powers, witness)
        least = np.where(powers > 0.0, gap, np.inf).min(axis=1)
        lo = np.where(total >= budget, np.maximum(lo, least), lo)
        closed = margin - lo <= _S_TOL
        done = closed | (rounds >= _MAX_ROUNDS)
        for i in np.flatnonzero(done):
            verdicts[rows[i]] = MembershipVerdict(
                target=tgt[i], margin=float(margin[i]), witness_powers=witness[i],
                dominated=bool(margin[i] <= TOL_MEMBER), converged=bool(closed[i]),
                rounds=int(rounds[i]))
        if done.all():
            return verdicts
        keep = ~done
        jac = derive(keep)[2]
        if done.any():
            rows, tgt, lo, margin, level, powers, witness, rounds, gap, total = (
                a[keep] for a in (rows, tgt, lo, margin, level, powers, witness, rounds,
                                  gap, total))
        proven = 1.0 - tgt <= lo[:, None]
        silent = proven | ((powers == 0.0) & (1.0 - tgt <= level[:, None]))
        silent &= proven | ~silent.all(axis=1, keepdims=True)    # someone transmits
        system = np.zeros((rows.size, k + 1, k + 1))
        system[:, :k, :k] = np.where(silent[:, :, None], np.eye(k), jac)
        system[:, :k, k] = np.where(silent, 0.0, -1.0)
        system[:, k, :k] = 1.0
        rhs = np.concatenate([np.where(silent, -powers, -gap), (budget - total)[:, None]], axis=1)
        step = np.linalg.solve(system, rhs[..., None])[..., 0]
        level, trial = step[:, k], powers + step[:, :k]
        quiet = silent | ((trial <= 0.0) & (1.0 - tgt <= margin[:, None]))
        powers = np.where(quiet, 0.0, np.maximum(trial, _SHRINK * powers))
        powers *= budget / powers.sum(axis=1, keepdims=True)
        side = np.sign(total - budget)
        away = np.where(side > 0.0, -np.inf, np.inf)[:, None]
        for _ in range(_NUDGES):
            same = (side != 0.0) & (np.sign(powers.sum(axis=1) - budget) == side)
            if not same.any():
                break
            powers = np.where(same[:, None] & (powers > 0.0), np.nextafter(powers, away), powers)


def _target_stack(chan: ChannelSet, *targets) -> np.ndarray:
    """Validated targets of the channel set's users, one per row."""
    stack = np.array([MseTuple(t).values for t in targets])
    if stack.shape[1] != chan.n_users:
        raise ValueError(f"target has {stack.shape[1]} entries for {chan.n_users} users")
    return stack


def dominated_membership(channels, config: SystemConfig, target) -> MembershipVerdict:
    """Decide whether some feasible allocation meets the target componentwise.

    Reports the exact margin s* = min_p max_k (eps_k - t_k), as attained
    by the witness allocation; the verdict is dominated when that margin
    is at most TOL_MEMBER.
    """
    chan = _channel_set(channels)
    return _solve(chan, config, _target_stack(chan, target))[0]


def segment_test(channels, config: SystemConfig, a, b, steps: int = 9) -> SegmentReport:
    """Membership along the chord between two achievable tuples.

    Both endpoints must be achievable; interior targets at t = i / (steps + 1)
    are formed from them as one array and held to (0, 1].  Any interior
    failure makes the report a nonconvexity witness; all are solved at once.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    vec_a = MseTuple(a).values
    vec_b = MseTuple(b).values
    if vec_a.size != vec_b.size:
        raise ValueError(f"endpoint sizes differ: {vec_a.size} vs {vec_b.size}")
    chan = _channel_set(channels)
    ts = np.arange(1, steps + 1) / (steps + 1)
    chord = (1.0 - ts[:, None]) * vec_a + ts[:, None] * vec_b
    rounded_out = ((chord <= 0.0) | (chord > 1.0)).any(axis=1)
    ends = _target_stack(chan, vec_a, vec_b, *chord[rounded_out][:1])    # rejects such a row
    end_a, end_b, *interior = _solve(chan, config, np.vstack([ends, chord]))
    if not end_a.dominated:
        raise ValueError(f"endpoint a is not achievable (margin {end_a.margin:.3e})")
    if not end_b.dominated:
        raise ValueError(f"endpoint b is not achievable (margin {end_b.margin:.3e})")
    points = [SegmentPoint(**vars(verdict), t=t) for verdict, t in zip(interior, ts.tolist())]
    return SegmentReport(
        endpoint_a=end_a,
        endpoint_b=end_b,
        points=points,
        nonconvex_witness=any(not pt.dominated for pt in points),
    )


def sample_region(channels, config: SystemConfig, resolution: int,
                  mode: str = "grid", seed: int = 0) -> RegionSampleSet:
    """Sample achievable MSE tuples over the power simplex.

    Grid mode enumerates the lattice {p : p = (P/resolution) m, m integer,
    sum(m) <= resolution}, resolution >= 2; random mode draws `resolution`
    >= 1 allocations uniformly from the solid simplex, from the generator
    seeded with the int `seed`.  The set holds the allocations as levels
    and a lattice of indices into them: a grid's resolution + 1 levels,
    fewer than its power cells where K >= 2, or a draw's S * K powers, one
    level per cell.  It evaluates their MSE tuples by row range when they
    are read or written: the sampling itself runs no kernel.  The channels
    are factored here, and a grid is validated here, so a bad resolution
    fails before any work.
    """
    chan = _channel_set(channels)
    k = chan.n_users
    if mode == "grid":
        if resolution < 2:
            raise ValueError(f"resolution must be >= 2, got {resolution}")
        count = lattice_size(k, resolution)
        if count > GRID_LIMIT:
            raise ValueError(
                f"grid of {count} points for {k} users exceeds the "
                f"{GRID_LIMIT} cap; rerun in random mode with an "
                f"explicit sample count"
            )
        lattice = budget_simplex_lattice(k, resolution)
        levels = np.arange(resolution + 1) * (config.power_budget / resolution)
    elif mode == "random":
        if resolution < 1:
            raise ValueError(f"sample count must be >= 1, got {resolution}")
        levels = sample_budget_simplex(np.random.default_rng(seed), k, config.power_budget,
                                       resolution).ravel()
        lattice = np.arange(levels.size).reshape(resolution, k)
    else:
        raise ValueError(f"unknown sampling mode: {mode!r}")
    chan.factor     # its QR is the one LAPACK call: made here, before any writer forks
    return RegionSampleSet(lattice, levels,
                           lambda lo, hi: mse_tuples(chan, levels[lattice[lo:hi]], config))


def embed_inactive_users(channels, extra: int) -> ChannelSet:
    """Append users that replicate the last column of the channel set.

    Silent users cost no power and have unit MSE, so any membership or
    segment outcome for the original users carries over verbatim once
    targets are padded with ones and allocations with zeros.
    """
    if extra < 0:
        raise ValueError(f"extra must be >= 0, got {extra}")
    chan = _channel_set(channels)
    if extra == 0:
        return chan
    tail = np.repeat(chan.entries[:, -1:], extra, axis=1)
    return ChannelSet(np.hstack([chan.entries, tail]))
