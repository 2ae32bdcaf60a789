"""Weighted sum-MSE minimization over the power simplex.

Solves min_p sum_k w_k eps_k(p) subject to p >= 0, sum(p) <= P with
projected Newton steps on sum(p) = P (see `simplex`), recovers lambda for
the budget and mu_k for nonnegativity, and evaluates the stationarity system

    h_k^H X^{-1} (w_k X - S) X^{-1} h_k = lambda - mu_k,
    p_k mu_k = 0,  lambda (sum(p) - P) = 0,  p, mu, lambda >= 0,

as signed residuals.  The left-hand side equals the negative objective
gradient, so stationarity reads gradient_k = mu_k - lambda.

Every solve is a batch: all starts run as one (S, K) array through a
single lockstep projected Newton loop on one `ChannelSet`, evaluated on
its triangular factor (`ChannelSet.factor`, one QR per set) with the
weights validated once per solve; the module reduces nothing itself.
Each round is one call of `model`'s `_weighted_terms`, which weights the
kernel's one evaluation `_mse_terms` (`weighted_mse_derivatives` is its
all-rows case): the weighted value from the MSEs of every trial step,
then the gradient and Hessian from the Gram matrix and Jacobian that
`_mse_terms` derives only at the steps the round accepts.  Rows
are evaluated independently and weighted with `einsum` reductions, and
the multipliers and residuals of all starts are formed row by row in
one array pass, so a start's certificate is bitwise the same whether it
ran alone or in a batch; a single start is a batch of one.  The
stopping rule is fixed: a start stops when its projected gradient
passes the `PGD_TOL_REL` test or after `simplex._MAX_ITERS` iterations.

The module also ships a reference three-user instance whose weighted
problem has two distinct stationary points; `counterexample_suite`
re-derives every known number for it and runs the segment witness test
that shows the three-user region is not convex.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Optional

import numpy as np

from .model import (
    ChannelSet,
    SystemConfig,
    _channel_set,
    _power_rows,
    _weight_vector,
    _weighted_terms,
    ensure_feasible,
    mse_tuple,
    weighted_mse_gradient,
)
from .region import segment_test
from .simplex import projected_gradient, sample_budget_simplex
from .tolerances import (
    CLUSTER_REL_RADIUS,
    TOL_ACTIVE_REL,
    TOL_KKT,
)

__all__ = [
    "KktResiduals",
    "KktCertificate",
    "CheckResult",
    "CounterexampleReport",
    "kkt_residuals",
    "recover_multipliers",
    "minimize_weighted_sum_mse",
    "enumerate_stationary_points",
    "counterexample_suite",
    "REFERENCE_CHANNELS",
    "REFERENCE_WEIGHTS",
    "REFERENCE_POWER_BUDGET",
    "REFERENCE_NOISE_VARIANCE",
    "REFERENCE_POINTS",
]

# budget considered active when within this relative gap
_TIGHT_REL = 1e-6


@dataclass(frozen=True, eq=False)
class KktResiduals:
    """Signed residuals of the stationarity system, no thresholding."""

    stationarity: np.ndarray          # lhs_k - (lambda - mu_k)
    complementarity: np.ndarray       # p_k mu_k
    budget_slack: float               # P - sum(p)
    budget_complementarity: float     # lambda (sum(p) - P)

    def max_abs(self) -> float:
        return float(max(
            np.abs(self.stationarity).max(),
            np.abs(self.complementarity).max(),
            abs(self.budget_complementarity),
        ))


@dataclass(frozen=True, eq=False)
class KktCertificate:
    """A solver end point with its multipliers and residual replay.

    `backtracks` counts the solver's rejected trial steps at or below
    t = 1, never a first try's longer steps; `stalled` marks a run whose
    Armijo backtracking gave out before the
    projected-gradient test passed (see `projected_gradient`).
    """

    powers: np.ndarray
    lam: float
    mu: np.ndarray
    objective: float
    residuals: KktResiduals
    converged: bool
    iterations: int
    backtracks: int
    stalled: bool


def _residuals(grad: np.ndarray, p: np.ndarray, budget: float, lam, mu: np.ndarray):
    """Signed residual terms row by row for (..., K) gradients and powers
    with (...) lambdas and (..., K) mus: stationarity, complementarity,
    budget slack and budget complementarity."""
    lam = np.asarray(lam)
    total = p.sum(axis=-1)
    return -grad - (lam[..., None] - mu), p * mu, budget - total, lam * (total - budget)


def _multipliers(grad: np.ndarray, p: np.ndarray, budget: float):
    """(lambda, mu) fitted row by row to (..., K) gradients at (..., K) powers."""
    active = p > TOL_ACTIVE_REL * budget
    tight = p.sum(axis=-1) >= budget * (1.0 - _TIGHT_REL)
    top = np.where(active, -grad, -np.inf).max(axis=-1)
    lam = np.where(tight & active.any(axis=-1), np.maximum(0.0, top), 0.0)
    mu = np.where(active, 0.0, np.maximum(0.0, lam[..., None] + grad))
    return lam, mu


def kkt_residuals(channels, config: SystemConfig, weights, powers, lam: float, mu) -> KktResiduals:
    """Evaluate every first-order condition at (p, lambda, mu)."""
    grad = weighted_mse_gradient(channels, powers, config, weights)
    p = _power_rows(powers, grad.size)
    mu_vec = np.asarray(mu, dtype=np.float64).reshape(-1)
    if mu_vec.size != p.size:
        raise ValueError(f"{mu_vec.size} multipliers for {p.size} users")
    stationarity, complementarity, slack, budget_comp = _residuals(
        grad, p, config.power_budget, float(lam), mu_vec)
    return KktResiduals(stationarity, complementarity, float(slack), float(budget_comp))


def recover_multipliers(channels, config: SystemConfig, weights, powers):
    """Best nonnegative multiplier fit at a candidate stationary point.

    lambda = max over active users (p_k > tol_active) of -gradient_k when
    the budget is tight, else 0; mu_k = max(0, lambda + gradient_k) for
    inactive users and 0 for active ones.  At a certificate's powers this
    returns its lam and mu exactly.
    """
    grad = weighted_mse_gradient(channels, powers, config, weights)
    p = _power_rows(powers, grad.size)
    lam, mu = _multipliers(grad, p, config.power_budget)
    return float(lam), mu


def _evaluator(chan: ChannelSet, config: SystemConfig, w: np.ndarray):
    """The solver's `projected_gradient` callback: the two-phase weighted
    kernel on the channels' factor, with weights `w` already validated."""
    mat = chan.factor

    def evaluate(p):
        return _weighted_terms(mat, p, config.noise_variance, w)
    return evaluate


def _solve(chan: ChannelSet, config: SystemConfig, w: np.ndarray, starts: np.ndarray) -> list:
    """One lockstep projected Newton batch from the rows of `starts`; a
    certificate per row.

    The multipliers and residuals are fitted to the gradient the descent
    ended with, which is the gradient at the returned powers, for every
    start in one pass.  `w` holds weights already validated.
    """
    budget = config.power_budget
    runs = projected_gradient(_evaluator(chan, config, w), starts, budget).results
    points = np.array([run.point for run in runs]).reshape(starts.shape)
    grads = np.array([run.gradient for run in runs]).reshape(starts.shape)
    lam, mu = _multipliers(grads, points, budget)
    stationarity, complementarity, slack, budget_comp = _residuals(grads, points, budget, lam, mu)
    passed = ((np.abs(stationarity).max(axis=1) <= TOL_KKT)
              & (np.abs(complementarity).max(axis=1) <= TOL_KKT)
              & (np.abs(budget_comp) <= TOL_KKT * budget))
    return [
        KktCertificate(
            powers=run.point,
            lam=float(lam[i]),
            mu=mu[i],
            objective=run.value,
            residuals=KktResiduals(stationarity[i], complementarity[i],
                                   float(slack[i]), float(budget_comp[i])),
            converged=bool(run.converged and passed[i]),
            iterations=run.iterations,
            backtracks=run.backtracks,
            stalled=run.stalled,
        )
        for i, run in enumerate(runs)
    ]


def minimize_weighted_sum_mse(channels, config: SystemConfig, weights, start):
    """Projected Newton descent from a feasible start projected onto sum(p) = P.

    `start` is one power vector, giving one certificate, or an (S, K)
    batch of them, giving a list with one certificate per row; each is
    bitwise the same as the certificate of that row solved alone.  A
    certificate is marked converged only if the projected-gradient test
    passed and the recovered multipliers satisfy every residual within
    tol_kkt.
    """
    chan = _channel_set(channels)
    w = _weight_vector(weights, chan.n_users)
    starts = np.atleast_2d(_power_rows(start, chan.n_users))
    if starts.ndim != 2:
        raise ValueError(f"start must be one power vector or an (S, K) batch, got {starts.shape}")
    for row in starts:
        ensure_feasible(row, config)
    certs = _solve(chan, config, w, starts)
    return certs if np.ndim(start) == 2 else certs[0]


def _start_points(k: int, budget: float, starts: int, seed: int) -> np.ndarray:
    """`starts` uniform draws on the face sum(p) = budget, its vertices and its centroid."""
    draws = sample_budget_simplex(np.random.default_rng(seed), k - 1, budget, starts)
    return np.vstack([
        np.column_stack([draws, budget - draws.sum(axis=1)]),
        budget * np.eye(k),
        np.full(k, budget / k),
    ])


def enumerate_stationary_points(channels, config: SystemConfig, weights,
                                starts: int = 16, seed: int = 0):
    """Multistart minimization with power-space clustering.

    Start points: `starts` uniform draws from the face sum(p) = P, plus
    its vertices (the single-user corners) and its centroid P/K.  They
    descend together as one lockstep batch, each start with its own
    step size and iteration count.  Certificates within a power distance
    of 1e-3 * P collapse into one cluster represented by the lowest
    objective (ties broken by powers, then iterations), so the clusters do
    not depend on the order of the starts; they are returned sorted by
    objective.
    """
    if starts < 0:
        raise ValueError(f"starts must be >= 0, got {starts}")
    chan = _channel_set(channels)
    k = chan.n_users
    w = _weight_vector(weights, k)
    budget = config.power_budget
    points = _start_points(k, budget, starts, seed)
    certs = _solve(chan, config, w, points)

    certs.sort(key=lambda c: (c.objective, tuple(c.powers), c.iterations))
    clusters: list[KktCertificate] = []
    radius = CLUSTER_REL_RADIUS * budget
    for cert in certs:
        if all(np.linalg.norm(cert.powers - kept.powers) > radius for kept in clusters):
            clusters.append(cert)
    return clusters


# ---------------------------------------------------------------------------
# Reference three-user instance with two stationary points.

REFERENCE_CHANNELS = ChannelSet(np.array([[1, 0, 1], [0, 1, 1]], dtype=np.complex128))
REFERENCE_POWER_BUDGET = 10.0
# the reference numbers below were produced with unit noise variance;
# every emitted report records this assumption as sigma2_assumed
REFERENCE_NOISE_VARIANCE = 1.0
REFERENCE_WEIGHTS = (0.22, 0.54, 0.24)


@dataclass(frozen=True)
class ReferencePoint:
    powers: tuple
    lam: float
    mu: tuple
    objective: float
    objective_tol: float
    mses: tuple


REFERENCE_POINTS = (
    ReferencePoint(powers=(3.6753, 6.3247, 0.0), lam=0.0101, mu=(0.0, 0.0, 0.0266),
                   objective=0.36078, objective_tol=1e-4, mses=(0.2139, 0.1365, 1.0)),
    ReferencePoint(powers=(0.0, 7.0794, 2.9206), lam=0.0115, mu=(0.007, 0.0, 0.0),
                   objective=0.3828, objective_tol=5e-4, mses=(1.0, 0.1977, 0.2335)),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: object
    computed: object
    tolerance: Optional[float]
    passed: bool


@dataclass(frozen=True, eq=False)
class CounterexampleReport:
    clusters: list
    checks: list
    segment: object
    all_passed: bool
    sigma2_assumed: float = REFERENCE_NOISE_VARIANCE


def _check_scalar(name, expected, computed, tol):
    passed = computed is not None and abs(computed - expected) <= tol
    return CheckResult(name, expected, computed, tol, bool(passed))


def _check_vector(name, expected, computed, tol):
    exp = np.asarray(expected, dtype=float)
    if computed is None:
        return CheckResult(name, tuple(exp.tolist()), None, tol, False)
    com = np.asarray(computed, dtype=float)
    passed = com.size == exp.size and float(np.abs(com - exp).max()) <= tol
    return CheckResult(name, tuple(exp.tolist()), tuple(com.tolist()), tol, bool(passed))


def counterexample_suite(starts: int = 64, seed: int = 0) -> CounterexampleReport:
    """Re-derive every known number of the reference instance.

    Multistart enumeration must find exactly the two known stationary
    clusters; powers, objectives, multipliers, residual replays of the
    known variable sets, and MSE triples are each checked against the
    reference values.  The segment test between the two computed MSE
    triples must flag every interior point as not dominated, which is the
    numerical nonconvexity witness.
    """
    config = SystemConfig(noise_variance=REFERENCE_NOISE_VARIANCE,
                          power_budget=REFERENCE_POWER_BUDGET)
    mat = REFERENCE_CHANNELS
    w = np.array(REFERENCE_WEIGHTS)
    clusters = enumerate_stationary_points(mat, config, w, starts=starts, seed=seed)
    checks = [CheckResult("cluster_count", 2, len(clusters), None, len(clusters) == 2)]

    triples = []
    for idx, (ref, cert) in enumerate(zip_longest(REFERENCE_POINTS, clusters[:2]), start=1):
        if cert is None:
            objective = powers = lam = mu = mse = None
        else:
            objective, powers, lam, mu = cert.objective, cert.powers, cert.lam, cert.mu
            mse = mse_tuple(mat, powers, config).values
            triples.append(mse)
        checks.append(_check_scalar(f"objective_{idx}", ref.objective, objective, ref.objective_tol))
        checks.append(_check_vector(f"powers_{idx}", ref.powers, powers, 1e-3))
        checks.append(_check_scalar(f"lambda_{idx}", ref.lam, lam, 1e-3))
        checks.append(_check_vector(f"mu_{idx}", ref.mu, mu, 1e-3))
        checks.append(_check_vector(f"mse_{idx}", ref.mses, mse, 1e-3))
        # replay the reference variable set through the residual evaluator
        ref_res = kkt_residuals(mat, config, w, np.array(ref.powers), ref.lam, np.array(ref.mu))
        checks.append(_check_scalar(f"reference_residuals_{idx}", 0.0, ref_res.max_abs(), 5e-4))

    segment = segment_test(mat, config, *triples, steps=9) if len(triples) == 2 else None
    witness = segment is not None and bool(segment.nonconvex_witness)
    all_interior = segment is not None and all(not pt.dominated for pt in segment.points)
    checks.append(CheckResult("segment_witness", True, witness, None, witness and all_interior))

    return CounterexampleReport(
        clusters=clusters,
        checks=checks,
        segment=segment,
        all_passed=all(c.passed for c in checks),
    )
