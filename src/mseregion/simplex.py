"""Power-simplex utilities: Euclidean projection, uniform sampling,
lattice enumeration, and the projected Newton loop of the weighted
sum-MSE solver, which works on the face {p >= 0, sum(p) = budget}: scaling
p up to the budget lowers every transmitting user's MSE, so every minimum
of a weighted sum-MSE with nonnegative weights lies there.

The loop runs a batch of starts in lockstep rounds of one
`value_and_grad` call each.  A start sends several trial steps of its
Armijo search in the same call: t = 1, 2, 4, 8 on an iteration's first
try, and its next halvings after a rejection, so a round serves every
running start and a start needs fewer rounds than trial steps.
The call returns the values of every trial step and a `derive` closure;
the loop asks it for gradients and Hessians only at the steps it
accepts, the only points a direction is computed from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tolerances import PGD_TOL_REL

__all__ = [
    "project_onto_budget_simplex",
    "sample_budget_simplex",
    "budget_simplex_lattice",
    "lattice_size",
    "PgdResult",
    "PgdBatch",
    "projected_gradient",
]

# Armijo backtracking of `projected_gradient`: a trial step t along the
# direction d gives the candidate c = proj(p + t d), accepted when
# f(c) <= f(p) + _ARMIJO_SLOPE * <grad, c - p>; a rejected step is
# multiplied by _SHRINK, and a step below _MIN_STEP stalls the start.
# Every iteration first tries t = 1 together with the longer steps
# 1 / _RUNG_SCALES (see `projected_gradient`).
_ARMIJO_SLOPE = 1e-4
_SHRINK = 0.5
_MIN_STEP = 1e-18
# Trial steps one round sends for a start whose step was just rejected:
# t, t/2, ..., t/2**(_LADDER - 1), and on an iteration's first try t = 1,
# 2, ..., 2**(_LADDER - 1).  _SHRINK is a power of two, so each rung after
# a rejection is exactly the step that halving one rejection at a time
# would reach.  On four rounds of the benchmark's wsmse-multistart panel
# (seed 5), ladders of 1, 2, 3, 4, 6 and 8 rungs after a rejection made
# 692, 527, 476, 450, 426 and 414 kernel calls on 7944, 8214, 8492, 8804,
# 9446 and 10092 rows, with t = 1 alone on each first try and the
# gradient and Hessian formed at every row.  Eight rounds took 0.81,
# 0.79, 0.81, 0.80 and 0.80 of the one-rung time from 2 rungs on (median
# of 9 interleaved repeats, 2-core VM), so the time is flat there; 4 is
# the shortest ladder under 460 calls, and a longer one only adds rows.
# On the face, with derivatives formed only at accepted steps, first
# tries up to t = 1, 2, 4, 8 and 16 made 367, 279, 262, 251 and 260 calls
# on 5662, 8584, 11755, 15224 and 18695 value rows and 5290, 4408, 4181,
# 4138 and 4107 derived rows: a vertex start's Newton step raises a
# silent user's power only about 1.5-fold.  Their pass times over those
# rounds were 0.84-0.97 of t = 1 alone in the median ratio, but the run
# spread was wider than their differences (9 interleaved repeats, 2-core
# VM), so the top step is the one with the fewest calls, 2**(_LADDER - 1).
_LADDER = 4
_RUNG_SCALES = _SHRINK ** np.arange(_LADDER)
_FIRST_TRY = 1.0 / _RUNG_SCALES
# Projected Newton directions (`_newton_directions`): a user is held at
# zero when the scaled gradient step sends it there and its power is at
# most _ACTIVE_FRACTION of the budget; Hessian eigenvalues are floored at
# _EIGEN_FLOOR times the Hessian's scale.
_ACTIVE_FRACTION = 1e-2
_EIGEN_FLOOR = 1e-10
# Iteration cap of `projected_gradient`; with PGD_TOL_REL it is the fixed
# stopping rule of every weighted sum-MSE solve.
_MAX_ITERS = 5000


def _project_onto_face(rows: np.ndarray, budget: float) -> np.ndarray:
    """Sort-based Euclidean projection of (S, K) rows onto {p >= 0, sum(p) = budget}."""
    srt = np.sort(rows, axis=1)[:, ::-1]
    excess = np.cumsum(srt, axis=1) - budget
    keep = srt - excess / np.arange(1, rows.shape[1] + 1) > 0.0
    rho = rows.shape[1] - 1 - np.argmax(keep[:, ::-1], axis=1)   # last kept index
    tau = excess[np.arange(rows.shape[0]), rho] / (rho + 1.0)
    return np.maximum(rows - tau[:, None], 0.0)


def project_onto_budget_simplex(point, budget: float) -> np.ndarray:
    """Euclidean projection onto {p >= 0, sum(p) <= budget}.

    `point` is one vector or an (S, K) batch projected row by row.  Clips
    negatives, then projects the rows still over budget onto the face.
    """
    vec = np.asarray(point, dtype=np.float64)
    rows = np.atleast_2d(vec)
    out = np.maximum(rows, 0.0)
    over = out.sum(axis=1) > budget
    out[over] = _project_onto_face(rows[over], budget)
    return out if vec.ndim == 2 else out[0]


def sample_budget_simplex(rng: np.random.Generator, k: int, budget: float, count: int) -> np.ndarray:
    """Uniform draws from the solid simplex via exponential spacings.

    k+1 iid exponentials normalized by their total give a Dirichlet(1,..,1)
    point on the k+1 simplex; dropping the last coordinate yields a point
    uniform over {p >= 0, sum(p) <= 1}, scaled by the budget.  Raises
    ValueError where a draw leaves the float64 range, as it can from
    budgets of about 5e307.
    """
    gaps = rng.exponential(size=(count, k + 1))
    with np.errstate(over="ignore"):
        draws = budget * gaps[:, :k] / gaps.sum(axis=1, keepdims=True)
    if not np.isfinite(draws).all():
        raise ValueError(f"power budget {budget:g} is past the float64 range of the simplex draws")
    return draws


def budget_simplex_lattice(k: int, resolution: int) -> np.ndarray:
    """All integer vectors i >= 0 with sum(i) <= resolution, shape (M, k).

    Built one coordinate at a time: each row with slack s spawns rows
    whose next coordinate runs 0..s, so rows come in lexicographic order.
    """
    if k < 1 or resolution < 0:
        raise ValueError(f"bad lattice request k={k} resolution={resolution}")
    grid = np.zeros((1, 0), dtype=np.int64)
    slack = np.array([resolution], dtype=np.int64)
    for _ in range(k):
        counts = slack + 1
        parent = np.repeat(np.arange(slack.size), counts)
        coord = np.arange(parent.size) - (np.cumsum(counts) - counts)[parent]
        grid = np.column_stack([grid[parent], coord])
        slack = slack[parent] - coord
    return grid


def lattice_size(k: int, resolution: int) -> int:
    """Number of lattice points, C(resolution + k, k)."""
    return math.comb(resolution + k, k)


@dataclass(frozen=True, eq=False)
class PgdResult:
    """Outcome of one start: `point` is on the face {p >= 0, sum(p) = budget}.

    `backtracks` counts the rejected trial steps at or below t = 1; a
    first try's longer steps never count.  `stalled` marks a run
    whose backtracking fell below 1e-18 without an accepted step;
    `converged` is then decided by the projected-gradient test at the
    last accepted point.
    """

    point: np.ndarray
    value: float
    gradient: np.ndarray
    iterations: int
    backtracks: int
    converged: bool
    stalled: bool


@dataclass(frozen=True, eq=False)
class PgdBatch:
    """Per-start outcomes of one lockstep run, in start order."""

    results: tuple

    @property
    def iterations(self) -> int:
        """Iterations of the longest-running start."""
        return max(r.iterations for r in self.results)

    @property
    def converged(self) -> bool:
        """Whether every start converged."""
        return all(r.converged for r in self.results)


def _newton_directions(point: np.ndarray, grad: np.ndarray, hess: np.ndarray,
                       budget: float, probe: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Projected Newton directions at (S, K) accepted points, row by row.

    Bertsekas, "Projected Newton methods for optimization problems with
    simple constraints", SIAM J. Control Optim. 1982, adapted to the
    budget face.  The gradient step x = proj(p - grad / s) (`probe`),
    with s = K max|H| (`scale`) bounding the Hessian's spectral radius,
    both formed by the caller, picks the users held at zero (x_k = 0 and
    p_k <= min(_ACTIVE_FRACTION * P, |p - x|)); they get d_k = -p_k.  The
    free users take a Newton step on the face sum(d_free) = 0 plus an
    equal share of P - sum(p_free), which puts p + d on the face.  The
    projected Hessian's eigenvalues are replaced by their absolute values
    floored at _EIGEN_FLOOR * s, so every direction descends on this
    nonconvex objective.
    """
    eye = np.eye(point.shape[1])
    gap = np.linalg.norm(point - probe, axis=1)
    fixed = (probe == 0.0) & (point <= np.minimum(_ACTIVE_FRACTION * budget, gap)[:, None])
    free = (~fixed).astype(np.float64)
    share = 1.0 / np.maximum(free.sum(axis=1), 1.0)
    # orthogonal projector onto the free coordinates within the face
    zmat = free[:, :, None] * eye - share[:, None, None] * free[:, :, None] * free[:, None, :]
    reduced = np.einsum("sil,slm->sim", np.einsum("sij,sjl->sil", zmat, hess), zmat)
    # the complement of zmat's range gets eigenvalue `scale`, so the
    # modified inverse keeps zmat @ grad in the free subspace
    lam, vec = np.linalg.eigh(reduced + scale[:, None, None] * (eye - zmat))
    lam = np.maximum(np.abs(lam), _EIGEN_FLOOR * scale[:, None])
    coeff = np.einsum("sji,sj->si", vec, np.einsum("sjl,sl->sj", zmat, grad)) / lam
    step = -np.einsum("sij,sj->si", zmat, np.einsum("sjl,sl->sj", vec, coeff))
    fill = share * (budget - np.einsum("sk,sk->s", free, point))
    return np.where(fixed, -point, step + fill[:, None])


def projected_gradient(value_and_grad, start, budget: float) -> PgdBatch:
    """Projected Newton descent on the face {p >= 0, sum(p) = budget}, where every
    weighted sum-MSE minimum lies, with the Armijo step rule of the module constants.

    Convergence is declared when the unit projected-gradient norm drops
    below PGD_TOL_REL * (1 + |f|); a start that has not converged after
    _MAX_ITERS iterations stops unconverged.  Both are read at call time.
    A stall of the backtracking below 1e-18 exits with `stalled` set and
    converged determined by the projected-gradient test alone.

    `start` is an (S, K) batch of starts.  `value_and_grad` maps an
    (R, K) array of points to (values, derive): the (R,) values, and a
    callable that maps an integer array of row indices into those points
    to the rows' (M, K) gradients and (M, K, K) Hessians.  The loop
    derives every start and, in each round, only the trial steps it
    accepts.  Each iteration searches along `_newton_directions`.  The
    starts run in lockstep: every row keeps its own step, iteration count
    and backtracking, and each round is one call on the trial steps of
    every running row.  A row on the first try of an iteration sends t =
    1, 2, ..., 2**(_LADDER - 1).  Among those that pass the Armijo test
    it takes the lowest-valued, ties to the smaller step, if its value is
    below the unit step's by more than the stopping tolerance PGD_TOL_REL
    * (1 + |f|), and t = 1 otherwise; near a minimum the longer steps
    cannot beat the Newton step by that much, so the path there is
    Newton's.  If t = 1 fails, the longer steps are dropped.  A row whose
    step was just rejected sends the next _LADDER halvings t, t/2, ...,
    t/2**(_LADDER - 1) at once, none below 1e-18, and takes the first
    that passes.  These are exactly the steps that halving one rejection
    per round would try, and `backtracks` counts the rejected ones, from
    t = 1 down, the same way.  When `value_and_grad` evaluates
    and derives rows independently, a start's result does not depend on
    the batch it ran in; a single start is a batch of one.
    """
    starts = np.asarray(start, dtype=np.float64)
    if starts.ndim != 2:
        raise ValueError(f"starts must be an (S, K) batch, got shape {starts.shape}")
    point = _project_onto_face(starts, budget)
    count, k = point.shape
    value, derive = value_and_grad(point)
    value = np.array(value, dtype=np.float64)
    grad, hess = (np.array(out, dtype=np.float64) for out in derive(np.arange(count)))
    direction = np.zeros_like(point)
    trial = np.zeros(count)                       # step being tried
    iters = np.zeros(count, dtype=np.int64)
    backtracks = np.zeros(count, dtype=np.int64)
    converged = np.zeros(count, dtype=bool)
    stalled = np.zeros(count, dtype=bool)
    running = np.ones(count, dtype=bool)
    fresh = np.ones(count, dtype=bool)            # running rows at an accepted point
    while True:
        top = np.flatnonzero(fresh)
        if top.size:
            fresh[top] = False
            pts, grs, hss = point[top], grad[top], hess[top]
            # one projection serves the convergence test, proj(p - grad),
            # and the Newton probe, proj(p - grad / scale), of every row.  A
            # zero Hessian comes with a flat objective, whose row passes the
            # test: its probe is proj(p - grad), and it is never read
            scale = k * np.abs(hss).max(axis=(1, 2))
            both = _project_onto_face(np.concatenate(
                (pts - grs, pts - grs / np.where(scale > 0.0, scale, 1.0)[:, None])), budget)
            pg = np.linalg.norm(pts - both[:top.size], axis=1)
            done = pg <= PGD_TOL_REL * (1.0 + np.abs(value[top]))
            converged[top] = done
            done |= iters[top] >= _MAX_ITERS
            running[top[done]] = False
            keep = ~done
            go = top[keep]
            iters[go] += 1
            trial[go] = 1.0
            direction[go] = _newton_directions(pts[keep], grs[keep], hss[keep], budget,
                                               both[top.size:][keep], scale[keep])
        rows = np.flatnonzero(running)
        if not rows.size:
            break
        # rung i of a row tries t = _FIRST_TRY[i] on the first try of an
        # iteration, and after a rejection its step times _SHRINK**i, none
        # below _MIN_STEP: the steps halving would try
        first = trial[rows] == 1.0
        steps = trial[rows, None] * _RUNG_SCALES
        steps[first] = _FIRST_TRY
        sent = steps >= _MIN_STEP
        owner, rung = np.nonzero(sent)
        rep = rows[owner]
        base = point[rep]
        cand = _project_onto_face(base + steps[sent][:, None] * direction[rep], budget)
        cand_val, cand_derive = value_and_grad(cand)
        decrease = np.einsum("sk,sk->s", grad[rep], cand - base)
        passed = cand_val <= value[rep] + _ARMIJO_SLOPE * decrease
        # a first try keeps one rung, the lowest-valued passing one, ties to
        # the smaller step and to t = 1 within the stopping tolerance, and
        # none if t = 1 fails; it counts no backtrack, and a failed one
        # leaves the row its unit rung to halve.  A round of backtracking
        # rows alone skips this
        if first.any():
            block = np.flatnonzero(first[owner]).reshape(-1, _LADDER)
            score = np.where(passed[block], cand_val[block], np.inf)
            score[:, 0] -= PGD_TOL_REL * (1.0 + np.abs(value[rows[first]]))
            keep = block[np.arange(block.shape[0]), np.argmin(score, axis=1)]
            unit = passed[block[:, 0]]
            passed[block] = False
            passed[keep] = unit
            rung[block] = 0
            sent[first, 1:] = False
        passed = np.flatnonzero(passed)
        # each row takes its first passing rung, the largest passing step;
        # `owner` ascends, so that is where the owner changes
        owners = owner[passed]
        pick = passed[np.concatenate((owners[:1] >= 0, owners[1:] > owners[:-1]))]
        if pick.size:
            acc = rep[pick]
            point[acc], value[acc] = cand[pick], cand_val[pick]
            grad[acc], hess[acc] = cand_derive(pick)
            fresh[acc] = True
            backtracks[acc] += rung[pick]
        failed = np.ones(rows.size, dtype=bool)
        failed[owner[pick]] = False
        back = rows[failed]
        tried = sent[failed].sum(axis=1)
        backtracks[back] += tried
        trial[back] = steps[failed, tried - 1] * _SHRINK
        stuck = back[trial[back] < _MIN_STEP]
        stalled[stuck] = True
        running[stuck] = False

    return PgdBatch(tuple(
        PgdResult(point[i].copy(), float(value[i]), grad[i].copy(), int(iters[i]),
                  int(backtracks[i]), bool(converged[i]), bool(stalled[i]))
        for i in range(count)
    ))
