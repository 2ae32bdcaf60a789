"""Region membership, segment witnesses, sampling, and user embedding.

A target MSE tuple t is achievable when some allocation p >= 0 with
sum(p) <= P meets eps_k(p) <= t_k for every user (the dominated region).
Membership is decided exactly from the margin s* = min_p max_k (eps_k - t_k).
With MMSE receivers eps_k <= tau_k is SINR_k >= gamma_k = 1/tau_k - 1, and
the least powers meeting SINR targets are the fixed point p*(gamma) of the
standard interference function I_k(p) = gamma_k eps_k / a_kk (Yates, IEEE
JSAC 1995; it does not depend on p_k).  Every allocation meeting the
targets lies above p*, so s* is the root of the decreasing
F(s) = sum p*(gamma(t + s)) - P; users with t_k + s >= 1 stay silent.
`_solve` takes a stack of targets in lockstep, one kernel call per round
for all of them: p* by Newton on p - I(p), s* by a safeguarded Newton on
1/sum p* - 1/P over the bracket (-min t, max(1 - t)).  The witness is p* at
the feasible end of the bracket, so it spends at most P, and the margin is
max_k (eps_k - t_k) at the witness itself.

`segment_test` applies the membership test along the chord between two
achievable tuples; an interior point that fails membership is a direct
numerical witness that the region is not convex.  Every evaluation runs
on the channel set's triangular factor (`ChannelSet.factor`), so a
segment test shares one QR whatever the antenna count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

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

# A membership solve tries at most _MAX_ROUNDS values of s per target and
# _MAX_STEPS Newton steps per p*; either cap leaves it unconverged.  It
# ends once the bracket on s, or the Newton step on s from its feasible
# end, is within _S_TOL (MSE units: far below TOL_MEMBER, a few ulps of 1).
_MAX_ROUNDS = 64
_MAX_STEPS = 32
_S_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class MembershipVerdict:
    """Exact margin, its witness and how the solve went.

    `rounds` counts the values of s tried and `kernel_calls` the kernel
    evaluations of this target.  `converged` is False when the bracket on
    s did not close or an inner solve for p* hit its cap; the margin is
    the witness's own either way.
    """

    target: np.ndarray
    margin: float
    witness_powers: np.ndarray
    dominated: bool
    converged: bool
    rounds: int
    kernel_calls: int


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
    powers: np.ndarray
    mses: np.ndarray
    resolution: int
    mode: str
    seed: Optional[int]


def _newton(gram, eps, tgt, s, powers):
    """Row by row, for the SINR targets of t + s at `powers`: I(p), dp*/ds,
    the Newton step on p - I(p), its size, and whether p + step is >= 0.

    The step solves (1 - M) d = I(p) - p with M[k, j] = gamma_k |a_kj|^2 /
    a_kk^2 (j != k), and dp*/ds = -(1 - M)^{-1} (eps / a) / tau^2 at p*.
    """
    users = np.arange(tgt.shape[1])
    tau = tgt + s[:, None]
    gamma = np.where(tau < 1.0, 1.0 / tau - 1.0, 0.0)
    diag = gram[:, users, users].real
    inv_c = eps / diag
    interf = gamma * inv_c
    coupling = (gram.real ** 2 + gram.imag ** 2) * (gamma / diag ** 2)[:, :, None]
    coupling[:, users, users] = 0.0
    rhs = np.stack([interf - powers, np.where(tau <= 1.0, inv_c / tau ** 2, 0.0)], axis=-1)
    sol = np.linalg.solve(np.eye(users.size) - coupling, rhs)
    trial = np.where(interf > 0.0, powers + sol[..., 0], 0.0)
    valid = np.isfinite(trial).all(axis=1) & (trial >= 0.0).all(axis=1)
    return interf, -sol[..., 1], trial, np.abs(sol[..., 0]).max(axis=1), valid


def _solve(chan: ChannelSet, config: SystemConfig, tgt: np.ndarray) -> list:
    """Verdicts for a (B, K) stack of targets, solved in lockstep.

    A live target holds a bracket lo < s* <= hi, the witness p*(hi), a
    trial s and an iterate p.  p*(hi) is a subsolution (p <= I(p)) below
    hi and p*(lo) a supersolution above lo.  As p - I(p) is convex, a
    nonnegative Newton step lands on a supersolution, from where Newton
    falls monotonically to p*; where it would not, p <- I(p) rises towards
    p*, and a rise past P makes the trial infeasible.  An inner solve stops
    when its step reaches the rounding of p through eps = 1 - p a, or stops
    shrinking; the Gram matrices at p* then start the next trial.
    """
    budget, (count, k) = config.power_budget, tgt.shape
    verdicts = [None] * count
    rows = np.arange(count)
    lo = -tgt.min(axis=1)                        # some tau_k = 0: beyond any power
    hi = (1.0 - tgt).max(axis=1)                 # every tau_k >= 1: all silent
    trial_s, margin = hi.copy(), hi.copy()
    powers, witness = np.zeros((count, k)), np.zeros((count, k))
    sub, failed = np.zeros(count, bool), np.zeros(count, bool)
    prev = np.full(count, np.inf)                # the last inner step taken
    steps, rounds, calls = (np.zeros(count, int) for _ in range(3))
    while rows.size:
        gram, eps, _ = _mse_terms(chan.factor, powers, config.noise_variance)
        calls += 1
        steps += 1
        interf, dpds, trial, step, valid = _newton(gram, eps, tgt, trial_s, powers)
        floor = np.finfo(float).eps * powers.max(axis=1) / eps.min(axis=1)
        found = ~sub & ((step <= floor) | (step >= prev))
        over = sub & ~valid & (interf.sum(axis=1) > budget)
        stuck = ~found & ~over & (steps >= _MAX_STEPS)
        failed |= stuck
        hold = over | stuck                      # trial ends without p*
        closed = np.zeros(rows.size, bool)
        if (found | hold).any():
            ended = found | hold
            total = powers.sum(axis=1)
            feasible = found & (total <= budget)
            lo = np.where(ended & ~feasible, trial_s, lo)
            hi = np.where(feasible, trial_s, hi)
            witness = np.where(feasible[:, None], powers, witness)
            margin = np.where(feasible, (eps - tgt).max(axis=1), margin)
            # Newton on 1/sum p* - 1/P, which stays feasible where it is
            # convex; plain Newton on F from the all-silent start
            with np.errstate(divide="ignore", invalid="ignore"):
                move = np.where(total > 0.0, total * (1.0 - total / budget),
                                budget - total) / dpds.sum(axis=1)
            nxt = trial_s + move
            nxt = np.where(found & (lo < nxt) & (nxt < hi), nxt, 0.5 * (lo + hi))
            closed = ended & ((hi - lo <= _S_TOL) | (feasible & (-move <= _S_TOL)))
            rounds += ended
            trial_s = np.where(ended, nxt, trial_s)
            sub = np.where(ended, feasible | hold, sub)
            powers = np.where(hold[:, None], witness, powers)
            steps = np.where(ended, 0, steps)
            interf, _, trial, step, valid = _newton(gram, eps, tgt, trial_s, powers)
        take = ~hold & valid
        walk = ~hold & sub & ~valid              # fixed-point step from a subsolution
        reset = ~hold & ~sub & ~valid            # supersolution lost: restart at the witness
        powers = np.where(take[:, None], trial, np.where(
            walk[:, None], interf, np.where(reset[:, None], witness, powers)))
        prev = np.where(take, step, np.inf)
        sub = (sub & ~take) | reset
        done = closed | (rounds >= _MAX_ROUNDS)
        for i in np.flatnonzero(done):
            verdicts[rows[i]] = MembershipVerdict(
                target=tgt[i], margin=float(margin[i]), witness_powers=witness[i],
                dominated=bool(margin[i] <= TOL_MEMBER),
                converged=bool(closed[i] and not failed[i]),
                rounds=int(rounds[i]), kernel_calls=int(calls[i]))
        if done.any():
            keep = ~done
            (rows, tgt, lo, hi, trial_s, margin, powers, witness, sub, failed, prev, steps,
             rounds, calls) = (a[keep] for a in (rows, tgt, lo, hi, trial_s, margin, powers,
                                                 witness, sub, failed, prev, steps, rounds, calls))
    return verdicts


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

    Both endpoints must pass the membership test themselves; interior
    points sit at t = i / (steps + 1).  Any interior failure makes the
    report a nonconvexity witness.  The endpoints and the interior points
    are solved as one batch.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    vec_a = MseTuple(a).values
    vec_b = MseTuple(b).values
    if vec_a.size != vec_b.size:
        raise ValueError(f"endpoint sizes differ: {vec_a.size} vs {vec_b.size}")
    chan = _channel_set(channels)
    ts = [i / (steps + 1) for i in range(1, steps + 1)]
    stack = _target_stack(chan, vec_a, vec_b, *[(1.0 - t) * vec_a + t * vec_b for t in ts])
    end_a, end_b, *interior = _solve(chan, config, stack)
    if not end_a.dominated:
        raise ValueError(f"endpoint a is not achievable (margin {end_a.margin:.3e})")
    if not end_b.dominated:
        raise ValueError(f"endpoint b is not achievable (margin {end_b.margin:.3e})")
    points = [SegmentPoint(**vars(verdict), t=t) for verdict, t in zip(interior, ts)]
    return SegmentReport(
        endpoint_a=end_a,
        endpoint_b=end_b,
        points=points,
        nonconvex_witness=any(not pt.dominated for pt in points),
    )


def sample_region(channels, config: SystemConfig, resolution: int,
                  mode: str = "grid", seed: Optional[int] = None) -> RegionSampleSet:
    """Sample achievable MSE tuples over the power simplex.

    Grid mode enumerates the lattice {p : p = (P/resolution) m, m integer,
    sum(m) <= resolution}, resolution >= 2; random mode draws `resolution`
    >= 1 allocations uniformly from the solid simplex.
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
        powers = budget_simplex_lattice(k, resolution) * (config.power_budget / resolution)
    elif mode == "random":
        if resolution < 1:
            raise ValueError(f"sample count must be >= 1, got {resolution}")
        rng = np.random.default_rng(0 if seed is None else seed)
        powers = sample_budget_simplex(rng, k, config.power_budget, resolution)
    else:
        raise ValueError(f"unknown sampling mode: {mode!r}")
    return RegionSampleSet(
        powers=powers,
        mses=mse_tuples(chan, powers, config),
        resolution=resolution,
        mode=mode,
        seed=seed,
    )


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
