"""Region membership, segment witnesses, sampling, and user embedding.

A target MSE tuple t is counted as achievable when some feasible power
allocation p satisfies eps_k(p) <= t_k for every user, i.e. membership is
tested against the dominated (coordinatewise-relaxed) region.  The inner
problem min_p max_k (eps_k(p) - t_k) is nonsmooth, so the solver takes it
in its epigraph form min {s : eps(p) - t <= s, p feasible}, which is
smooth, and runs a sequential quadratic program (SLSQP) on it from each
of the best points of a coarse power lattice, keeping the best true
margin seen at any lattice point or refined point.

`segment_test` applies the membership test along the chord between two
achievable tuples; an interior point that fails membership is a direct
numerical witness that the region is not convex.

The module reduces nothing itself: each entry point passes one
`ChannelSet` to the kernel, which evaluates on its triangular factor
(`ChannelSet.factor`), so a segment test shares one QR and the lattice
and SQP cost do not grow with the antenna count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    ChannelSet,
    MseTuple,
    SystemConfig,
    _channel_set,
    mse_jacobian,
    mse_tuples,
)
from .simplex import (
    budget_simplex_lattice,
    lattice_size,
    project_onto_budget_simplex,
    sample_budget_simplex,
)
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

# Membership evaluates every point of a budget-simplex lattice of
# _COARSE_RESOLUTION steps (coarsened until it holds at most _COARSE_LIMIT
# points), takes the _COARSE_STARTS points of smallest margin and runs one
# SLSQP refinement of the epigraph program from each, capped at
# _SQP_MAX_ITERS iterations.  These values are part of the published
# output contract: changing them changes witness powers and the last
# digits of margins, so they stay pinned here rather than being derived
# from the instance.
_COARSE_LIMIT = 100_000
_COARSE_RESOLUTION = 12
_COARSE_STARTS = 3
_SQP_MAX_ITERS = 200


@dataclass(frozen=True, eq=False)
class MembershipVerdict:
    """Best margin found and how it was found.

    `seed_rank` is the lattice rank (0 = smallest lattice margin) of the
    seed whose point or refinement attained `margin`; `sqp_failures`
    counts the refinements whose SLSQP run did not report success,
    `sqp_iterations` sums their SLSQP iterations and `kernel_calls`
    counts their `mse_jacobian` evaluations.
    """

    target: np.ndarray
    margin: float
    witness_powers: np.ndarray
    dominated: bool
    seed_rank: int
    sqp_failures: int
    sqp_iterations: int
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


def _epigraph_refine(chan: ChannelSet, config: SystemConfig, target: np.ndarray,
                     start: np.ndarray):
    """SQP step on min {s : eps(p) - t <= s} over the power simplex.

    Returns the true margin max_k (eps_k - t_k) at the start, the refined
    allocation re-projected onto the simplex with its true margin,
    whether SLSQP reported success, its iteration count and the number of
    `mse_jacobian` calls.  SLSQP asks for the constraint values and their
    Jacobian at the same iterate, so the last (eps, J) is kept, keyed on
    the powers' bytes, and each point (the start and the projected point
    included) is evaluated once; the cached arrays are only read.
    """
    from scipy.optimize import minimize

    k = chan.n_users
    grad_s = np.zeros(k + 1)
    grad_s[k] = 1.0
    cache = {}
    calls = 0

    def evaluate(x):
        nonlocal calls
        key = x[:k].tobytes()
        if key not in cache:
            calls += 1
            cache.clear()
            cache[key] = mse_jacobian(chan, np.maximum(x[:k], 0.0), config)
        return cache[key]

    def cons_val(x):
        eps, _ = evaluate(x)
        return x[k] - (eps - target)

    def cons_jac(x):
        _, jac = evaluate(x)
        out = np.zeros((k, k + 1))
        out[:, :k] = -jac
        out[:, k] = 1.0
        return out

    def margin(x):
        eps, _ = evaluate(x)
        return float((eps - target).max())

    start_margin = margin(start)
    x0 = np.append(start, start_margin)
    result = minimize(
        lambda x: x[k], x0, jac=lambda x: grad_s, method="SLSQP",
        bounds=[(0.0, None)] * k + [(None, None)],
        constraints=[
            {"type": "ineq", "fun": cons_val, "jac": cons_jac},
            {"type": "ineq",
             "fun": lambda x: config.power_budget - x[:k].sum(),
             "jac": lambda x: np.append(-np.ones(k), 0.0)},
        ],
        options={"maxiter": _SQP_MAX_ITERS, "ftol": 1e-12},
    )
    point = project_onto_budget_simplex(result.x[:k], config.power_budget)
    point_margin = margin(point)
    return start_margin, point, point_margin, bool(result.success), int(result.nit), calls


def _coarse_seeds(chan: ChannelSet, config: SystemConfig, target: np.ndarray):
    """Best lattice points by true margin, best first, as SQP seeds."""
    k = chan.n_users
    res = _COARSE_RESOLUTION
    while res > 1 and lattice_size(k, res) > _COARSE_LIMIT:
        res -= 1
    grid = budget_simplex_lattice(k, res) * (config.power_budget / res)
    margins = (mse_tuples(chan, grid, config) - target).max(axis=1)
    order = np.argsort(margins, kind="stable")[:_COARSE_STARTS]
    return [grid[i] for i in order]


def dominated_membership(channels, config: SystemConfig, target) -> MembershipVerdict:
    """Decide whether some feasible allocation meets the target componentwise.

    Reports the smallest max_k (eps_k - t_k) found and the allocation
    attaining it; the verdict is dominated when that margin is at most
    TOL_MEMBER.
    """
    chan = _channel_set(channels)
    k = chan.n_users
    tgt = MseTuple(target).values
    if tgt.size != k:
        raise ValueError(f"target has {tgt.size} entries for {k} users")

    best_margin = math.inf
    best_point = np.zeros(k)
    best_rank = 0
    failures = iterations = kernel_calls = 0
    for rank, seed in enumerate(_coarse_seeds(chan, config, tgt)):
        seed_margin, refined, refined_margin, success, nit, calls = \
            _epigraph_refine(chan, config, tgt, seed)
        failures += not success
        iterations += nit
        kernel_calls += calls
        for point, margin in ((seed, seed_margin), (refined, refined_margin)):
            if margin < best_margin:
                best_margin, best_point, best_rank = margin, point, rank

    return MembershipVerdict(
        target=tgt,
        margin=best_margin,
        witness_powers=best_point,
        dominated=bool(best_margin <= TOL_MEMBER),
        seed_rank=best_rank,
        sqp_failures=failures,
        sqp_iterations=iterations,
        kernel_calls=kernel_calls,
    )


def segment_test(channels, config: SystemConfig, a, b, steps: int = 9) -> SegmentReport:
    """Membership along the chord between two achievable tuples.

    Both endpoints must pass the membership test themselves; interior
    points sit at t = i / (steps + 1).  Any interior failure makes the
    report a nonconvexity witness.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    vec_a = MseTuple(a).values
    vec_b = MseTuple(b).values
    if vec_a.size != vec_b.size:
        raise ValueError(f"endpoint sizes differ: {vec_a.size} vs {vec_b.size}")
    chan = _channel_set(channels)   # one factor for all the membership tests
    end_a = dominated_membership(chan, config, vec_a)
    if not end_a.dominated:
        raise ValueError(f"endpoint a is not achievable (margin {end_a.margin:.3e})")
    end_b = dominated_membership(chan, config, vec_b)
    if not end_b.dominated:
        raise ValueError(f"endpoint b is not achievable (margin {end_b.margin:.3e})")

    points = []
    for i in range(1, steps + 1):
        t = i / (steps + 1)
        target = (1.0 - t) * vec_a + t * vec_b
        verdict = dominated_membership(chan, config, target)
        points.append(SegmentPoint(**vars(verdict), t=t))
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
