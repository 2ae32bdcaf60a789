"""Shared builders and independent oracles for the test suite."""

import csv
import math

import mpmath
import numpy as np
from scipy.optimize import minimize as sp_minimize

from mseregion import (
    ChannelSet,
    RegionSampleSet,
    SystemConfig,
    model,
    mse_jacobian,
    mse_tuples,
    resolvent_grams,
    simplex,
)
from mseregion.simplex import (
    PgdBatch,
    PgdResult,
    budget_simplex_lattice,
)


def random_channels(rng, n_antennas: int, n_users: int) -> ChannelSet:
    mat = rng.standard_normal((n_antennas, n_users)) \
        + 1j * rng.standard_normal((n_antennas, n_users))
    return ChannelSet(mat)


def random_config(rng, sigma2=(0.1, 10.0), power=(1.0, 100.0)) -> SystemConfig:
    return SystemConfig(noise_variance=float(rng.uniform(*sigma2)),
                        power_budget=float(rng.uniform(*power)))


def random_powers(rng, n_users: int, budget: float) -> np.ndarray:
    raw = rng.exponential(size=n_users + 1)
    return budget * raw[:-1] / raw.sum()


def dense_mse(mat, powers, sigma2: float) -> np.ndarray:
    """MSEs through an explicit matrix inverse; shares no code with the library path."""
    mat = np.asarray(mat, dtype=complex)
    powers = np.asarray(powers, dtype=float)
    cov = sigma2 * np.eye(mat.shape[0], dtype=complex)
    for k in range(mat.shape[1]):
        col = mat[:, k]
        cov = cov + powers[k] * np.outer(col, col.conj())
    inv = np.linalg.inv(cov)
    return np.array([
        1.0 - powers[k] * float((mat[:, k].conj() @ inv @ mat[:, k]).real)
        for k in range(mat.shape[1])
    ])


def lower_factor(work) -> np.ndarray:
    """L of a `model._whiten` work array, rows first: its top block's lower
    triangle over the square roots of the pivots, with those roots as its
    real diagonal."""
    n = work.shape[1]
    low = np.tril(np.moveaxis(work[:n], (0, 1), (-2, -1)))
    root = np.sqrt(np.einsum("...ii->...i", low).real)
    low /= root[..., None, :]
    np.einsum("...ii->...i", low)[...] = root
    return low


def second_order_grams(channels, powers, config: SystemConfig):
    """(A, B) of the matrices as given, B[..., i, j] = h_i^H X^{-2} h_j: the
    raw N x N oracle for the X^{-1} and X^{-2} Gram entries.

    A is `resolvent_grams`.  B is the Gram matrix of X^{-1} H =
    L^{-H} L^{-1} H, with L^{-1} H from the kernel's elimination and L^{-H}
    applied by `np.linalg.solve` to `lower_factor`, which keeps it
    Hermitian positive semidefinite up to rounding.  Shapes broadcast as
    in `resolvent_grams`.
    """
    gram = resolvent_grams(channels, powers, config)
    mat = channels.entries if isinstance(channels, ChannelSet) else np.asarray(channels, complex)
    work = model._whiten(mat, model._power_rows(powers, mat.shape[-1]), config.noise_variance)
    half = np.conj(model._rows_first(work[mat.shape[-2]:]))
    inv_h = np.linalg.solve(np.conj(np.swapaxes(lower_factor(work), -1, -2)), half)
    return gram, np.einsum("...ni,...nj->...ij", inv_h.conj(), inv_h)


def two_user_dominated(mat, config: SystemConfig, target) -> bool:
    """Exact two-user membership from the closed-form boundary.

    Spending the whole budget dominates, and with p1 = p, p2 = P - p,
    eps1 falls and eps2 rises in p.  So t is dominated iff eps2(p0) <= t2,
    p0 being the smallest p in [0, P] with eps1(p) <= t1, that is with
    f(p) = t1 Delta(p) - sigma^2 (sigma^2 + (P - p) n2) >= 0, where
    Delta(p) = sigma^4 + sigma^2 (p n1 + (P - p) n2) + p (P - p) d,
    n_k = |h_k|^2 and d the Gram determinant.  f is a concave quadratic
    in p; its smaller root is taken in the form without cancellation.
    """
    mat = np.asarray(mat, dtype=complex)
    gram = mat.conj().T @ mat
    n1, n2 = gram[0, 0].real, gram[1, 1].real
    d = max(float(np.linalg.det(gram).real), 0.0)
    s2, budget = config.noise_variance, config.power_budget
    t1, t2 = (float(v) for v in target)

    def delta(p):
        return s2 ** 2 + s2 * (p * n1 + (budget - p) * n2) + p * (budget - p) * d

    const = (t1 - 1.0) * (s2 ** 2 + s2 * budget * n2)     # f(0)
    if const >= 0.0:
        p0 = 0.0
    elif t1 * delta(budget) < s2 ** 2:                      # f(P) < 0
        return False
    else:
        lead = -t1 * d
        slope = t1 * (s2 * (n1 - n2) + budget * d) + s2 * n2
        root = math.sqrt(max(slope ** 2 - 4.0 * lead * const, 0.0))
        p0 = min(-2.0 * const / (slope + root), budget)
    return s2 * (s2 + p0 * n1) / delta(p0) <= t2


def closed_form_channels(family, rng, n_antennas: int, k: int) -> np.ndarray:
    """Channels of one closed-form family: colinear columns alpha_k h, or
    scaled orthonormal columns."""
    if family == "colinear":
        h = rng.standard_normal(n_antennas) + 1j * rng.standard_normal(n_antennas)
        return np.outer(h, rng.standard_normal(k) + 1j * rng.standard_normal(k))
    basis = np.linalg.qr(rng.standard_normal((n_antennas, n_antennas))
                         + 1j * rng.standard_normal((n_antennas, n_antennas)))[0]
    return basis[:, :k] * rng.uniform(0.5, 2.0, k)


def _decreasing_root(spend, slope, start):
    """Root of a convex, decreasing spend(s) by Newton from `start`, where
    spend > 0.  Each tangent (the right derivative at a kink) lies below the
    curve, so no step passes the root and s increases to it; the steps end
    once they fall below the working precision."""
    s, tol = start, mpmath.mpf(10) ** (5 - mpmath.mp.dps)
    while True:
        step = -spend(s) / slope(s)
        if step <= tol * (1 + abs(s)):
            return s
        s += step


def colinear_membership_margin(gains, target, sigma2: float, budget: float) -> float:
    """Membership margin s* on colinear channels, `gains` g_k = |h_k|^2, in
    50-digit arithmetic.

    With u_k = 1 - eps_k the region is the upward closure of {1 - u : u >= 0,
    sum_k u_k c_k <= P}, c_k = sigma^2 / g_k + P (see
    `colinear_weighted_minimum`), so t + s is achievable when
    sum_k (1 - t_k - s)_+ c_k <= P, and s* is the root of that piecewise
    linear sum.  At s = -min t the user j of least t_j alone adds c_j > P.
    """
    with mpmath.workdps(50):
        s2, pw = mpmath.mpf(sigma2), mpmath.mpf(budget)
        users = [(mpmath.mpf(float(t)), s2 / mpmath.mpf(float(g)) + pw)
                 for t, g in zip(target, gains)]
        root = _decreasing_root(
            lambda s: sum((1 - t - s) * c for t, c in users if 1 - t - s > 0) - pw,
            lambda s: -sum(c for t, c in users if 1 - t - s > 0),
            -min(t for t, _ in users))
        return float(root)


def orthogonal_membership_margin(gains, target, sigma2: float, budget: float) -> float:
    """Membership margin s* on orthogonal channels, `gains` g_k = |h_k|^2,
    in 50-digit arithmetic.

    eps_k = sigma^2 / (sigma^2 + p_k g_k) depends on p_k alone, so the least
    power meeting eps_k <= t_k + s is sigma^2 (1 / (t_k + s) - 1)_+ / g_k, and
    s* is the root of sum_k sigma^2 (1 / (t_k + s) - 1)_+ / g_k = P.  Newton
    starts where the user j of least t_j alone needs 2P.
    """
    with mpmath.workdps(50):
        s2, pw = mpmath.mpf(sigma2), mpmath.mpf(budget)
        users = [(mpmath.mpf(float(t)), s2 / mpmath.mpf(float(g)))
                 for t, g in zip(target, gains)]
        least, scale = min(users)
        root = _decreasing_root(
            lambda s: sum((1 / (t + s) - 1) * c for t, c in users if t + s < 1) - pw,
            lambda s: -sum(c / (t + s) ** 2 for t, c in users if t + s < 1),
            -least + scale / (scale + 2 * pw))
        return float(root)


def colinear_weighted_minimum(gains, weights, sigma2: float, budget: float) -> float:
    """Weighted sum-MSE minimum on colinear channels (h_k = alpha_k h),
    `gains` g_k = |h_k|^2, in 40-digit arithmetic.

    u_k = 1 - eps_k = p_k g_k / (sigma^2 + sum_j p_j g_j) maps the power
    simplex onto {u >= 0, sum_k u_k (sigma^2 / g_k + P) <= P}, where the
    objective sum(w) - sum_k w_k u_k is linear.  Its minimum puts the whole
    budget on one user: sum(w) - max_k w_k P / (sigma^2 / g_k + P).
    """
    with mpmath.workdps(40):
        s2, pw = mpmath.mpf(sigma2), mpmath.mpf(budget)
        w = [mpmath.mpf(float(v)) for v in weights]
        best = max(wk * pw / (s2 / mpmath.mpf(float(g)) + pw) for wk, g in zip(w, gains))
        return float(sum(w) - best)


def orthogonal_weighted_minimum(gains, weights, sigma2: float, budget: float) -> float:
    """Weighted sum-MSE minimum on orthogonal channels, `gains` g_k = |h_k|^2,
    by water-filling in 40-digit arithmetic.

    eps_k = sigma^2 / (sigma^2 + p_k g_k), and stationarity on sum(p) = P
    gives p_k = (sqrt(w_k g_k / (sigma^2 lam)) - 1)_+ sigma^2 / g_k, with lam
    the one root of sum(p) = P.  On the users A that transmit, those with
    w_k g_k > sigma^2 lam, the root is sqrt(lam) = sigma sum_A sqrt(w_k / g_k)
    / (P + sum_A sigma^2 / g_k), and w_k eps_k = sigma sqrt(lam w_k / g_k);
    A is the largest set of the users with the highest w_k g_k whose root
    keeps its weakest user transmitting.
    """
    with mpmath.workdps(40):
        s2, pw = mpmath.mpf(sigma2), mpmath.mpf(budget)
        users = sorted(((mpmath.mpf(float(v)), mpmath.mpf(float(g))) for v, g in zip(weights, gains)),
                       key=lambda user: -user[0] * user[1])
        for count in range(len(users), 0, -1):
            active = users[:count]
            root = (mpmath.sqrt(s2) * sum(mpmath.sqrt(w / g) for w, g in active)
                    / (pw + sum(s2 / g for _, g in active)))
            weakest_w, weakest_g = active[-1]
            if weakest_w * weakest_g > s2 * root ** 2:
                break
        value = sum(mpmath.sqrt(s2) * root * mpmath.sqrt(w / g) for w, g in active)
        return float(value + sum(w for w, _ in users[count:]))


def minimax_margin_oracle(channels, config: SystemConfig, targets, resolution: int = 200):
    """Brute-force margin reference: lattice scan plus SLSQP epigraph refine.

    Returns (refined, raw) margin lists.  The raw value is the pure grid
    minimum of max_k(eps_k - t_k); the refined value polishes the grid
    argmin with an independently formulated constrained program.
    """
    mat = np.asarray(channels, dtype=complex) if not isinstance(channels, ChannelSet) \
        else channels.entries
    k = mat.shape[1]
    grid = budget_simplex_lattice(k, resolution) * (config.power_budget / resolution)
    raw = [np.inf] * len(targets)
    seeds = [None] * len(targets)
    for lo in range(0, grid.shape[0], 200000):
        eps = mse_tuples(mat, grid[lo:lo + 200000], config)
        for j, tgt in enumerate(targets):
            margins = (eps - np.asarray(tgt)).max(axis=1)
            i = int(np.argmin(margins))
            if margins[i] < raw[j]:
                raw[j] = float(margins[i])
                seeds[j] = grid[lo + i].copy()

    top_grad = np.zeros(k + 1)
    top_grad[k] = 1.0
    refined = []
    for tgt, p0 in zip(targets, seeds):
        tgt = np.asarray(tgt, dtype=float)

        def cons_val(x, tgt=tgt):
            eps, _ = mse_jacobian(mat, np.maximum(x[:k], 0.0), config)
            return x[k] - (eps - tgt)

        def cons_jac(x, tgt=tgt):
            _, jac = mse_jacobian(mat, np.maximum(x[:k], 0.0), config)
            out = np.zeros((k, k + 1))
            out[:, :k] = -jac
            out[:, k] = 1.0
            return out

        eps0, _ = mse_jacobian(mat, p0, config)
        x0 = np.append(p0, float((eps0 - tgt).max()))
        result = sp_minimize(
            lambda x: x[k], x0, jac=lambda x: top_grad, method="SLSQP",
            bounds=[(0.0, None)] * k + [(None, None)],
            constraints=[
                {"type": "ineq", "fun": cons_val, "jac": cons_jac},
                {"type": "ineq",
                 "fun": lambda x: config.power_budget - x[:k].sum(),
                 "jac": lambda x: np.append(-np.ones(k), 0.0)},
            ],
            options={"maxiter": 300, "ftol": 1e-14},
        )
        point = np.maximum(result.x[:k], 0.0)
        if point.sum() > config.power_budget:
            point = point * (config.power_budget / point.sum())
        eps, _ = mse_jacobian(mat, point, config)
        refined.append(min(raw[len(refined)], float((eps - tgt).max())))
    return refined, raw


def recursive_lattice(k: int, resolution: int) -> np.ndarray:
    """Reference lattice: lead coordinate 0..resolution, then the rest recursively."""
    if k == 1:
        return np.arange(resolution + 1, dtype=np.int64)[:, None]
    blocks = []
    for lead in range(resolution + 1):
        tail = recursive_lattice(k - 1, resolution - lead)
        blocks.append(np.column_stack([np.full(tail.shape[0], lead, dtype=np.int64), tail]))
    return np.vstack(blocks)


def held_region_set(powers, mses) -> RegionSampleSet:
    """A region sample set of float64 (S, K) `powers` and `mses` as given:
    its levels are the powers in row order, its MSE rows slices of `mses`."""
    levels = np.ravel(powers)
    return RegionSampleSet(np.arange(levels.size).reshape(np.shape(powers)), levels,
                           lambda lo, hi: mses[lo:hi])


def reference_region_csv(path, powers, mses) -> None:
    """Reference region CSV: csv.writer rows of repr(float) cells."""
    k = np.shape(powers)[1]
    header = [f"p_{i}" for i in range(1, k + 1)] + [f"eps_{i}" for i in range(1, k + 1)]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for p_row, e_row in zip(powers, mses):
            writer.writerow([repr(float(v)) for v in p_row] + [repr(float(v)) for v in e_row])


def sequential_projected_gradient(value_and_grad, start, budget: float):
    """Reference projected Newton loop: one trial step per start per round.

    The same iteration as `simplex.projected_gradient` with every trial
    step in a round of its own.  An iteration's first try evaluates t =
    2**(_LADDER - 1), ..., 2, 1 one per round and keeps the lowest-valued
    longer step that passes the Armijo test, ties to the later, smaller
    step.  At t = 1 it takes the kept step if its value is below the unit
    step's by more than PGD_TOL_REL * (1 + |f|), else the unit step; a
    failed unit step drops the kept one and is halved one rejection per
    round.  Each round evaluates the pending candidate of every running
    row and derives every one of them (`value_and_grad` returns values and
    a `derive` callable, as for `projected_gradient`).  Every point is
    projected onto the face {p >= 0, sum(p) = budget}, the convergence
    test and the Newton probe in separate calls.  Returns the `PgdBatch`
    and, per start, the most steps at or below t = 1 it had rejected
    within one iteration.
    """
    point = simplex._project_onto_face(np.asarray(start, dtype=np.float64), budget)
    count, k = point.shape
    value, derive = value_and_grad(point)
    value = np.array(value, dtype=np.float64)
    grad, hess = (np.array(out, dtype=np.float64) for out in derive(np.arange(count)))
    direction = np.zeros_like(point)
    trial = np.zeros(count)
    kept_val = np.full(count, np.inf)               # best longer step of this first try
    kept_point, kept_grad, kept_hess = np.zeros_like(point), np.zeros_like(grad), np.zeros_like(hess)
    iters = np.zeros(count, dtype=np.int64)
    backtracks = np.zeros(count, dtype=np.int64)
    run = np.zeros(count, dtype=np.int64)            # rejections in this iteration
    longest = np.zeros(count, dtype=np.int64)
    converged = np.zeros(count, dtype=bool)
    stalled = np.zeros(count, dtype=bool)
    running = np.ones(count, dtype=bool)
    fresh = np.ones(count, dtype=bool)
    while True:
        top = np.flatnonzero(fresh)
        if top.size:
            fresh[top] = False
            pts, grs = point[top], grad[top]
            pg = np.linalg.norm(pts - simplex._project_onto_face(pts - grs, budget), axis=1)
            done = pg <= simplex.PGD_TOL_REL * (1.0 + np.abs(value[top]))
            converged[top] = done
            done |= iters[top] >= simplex._MAX_ITERS
            running[top[done]] = False
            go = top[~done]
            iters[go] += 1
            trial[go] = 2.0 ** (simplex._LADDER - 1)
            kept_val[go] = np.inf
            run[go] = 0
            scale = k * np.abs(hess[go]).max(axis=(1, 2))
            probe = simplex._project_onto_face(point[go] - grad[go] / scale[:, None], budget)
            direction[go] = simplex._newton_directions(point[go], grad[go], hess[go], budget,
                                                       probe, scale)
        rows = np.flatnonzero(running)
        if not rows.size:
            break
        base = point[rows]
        cand = simplex._project_onto_face(base + trial[rows, None] * direction[rows], budget)
        cand_val, cand_derive = value_and_grad(cand)
        cand_grad, cand_hess = cand_derive(np.arange(rows.size))
        decrease = np.einsum("sk,sk->s", grad[rows], cand - base)
        ok = cand_val <= value[rows] + simplex._ARMIJO_SLOPE * decrease
        longer = trial[rows] > 1.0
        keep = longer & ok & (cand_val <= kept_val[rows])
        kept = rows[keep]
        kept_val[kept], kept_point[kept] = cand_val[keep], cand[keep]
        kept_grad[kept], kept_hess[kept] = cand_grad[keep], cand_hess[keep]
        trial[rows[longer]] *= simplex._SHRINK
        # a step at or below t = 1: the kept step only beats the unit one
        take = ~longer & ok
        gate = simplex.PGD_TOL_REL * (1.0 + np.abs(value[rows]))
        ahead = take & (kept_val[rows] < cand_val - gate)
        acc = rows[take]
        point[acc], value[acc] = cand[take], cand_val[take]
        grad[acc], hess[acc] = cand_grad[take], cand_hess[take]
        far = rows[ahead]
        point[far], value[far] = kept_point[far], kept_val[far]
        grad[far], hess[far] = kept_grad[far], kept_hess[far]
        fresh[acc] = True
        kept_val[rows[~longer]] = np.inf
        back = rows[~longer & ~ok]
        backtracks[back] += 1
        run[back] += 1
        longest[back] = np.maximum(longest[back], run[back])
        trial[back] *= simplex._SHRINK
        stuck = back[trial[back] < 1e-18]
        stalled[stuck] = True
        running[stuck] = False

    batch = PgdBatch(tuple(
        PgdResult(point[i].copy(), float(value[i]), grad[i].copy(), int(iters[i]),
                  int(backtracks[i]), bool(converged[i]), bool(stalled[i]))
        for i in range(count)
    ))
    return batch, longest


def eigen_newton_directions(point, grad, hess, budget: float, probe, scale) -> np.ndarray:
    """Reference projected Newton directions: every row's projected Hessian
    through `np.linalg.eigh`, its eigenvalues replaced by their absolute
    values floored at simplex._EIGEN_FLOOR * scale.

    The former body of `simplex._newton_directions`, kept verbatim, so the
    solver's rows whose shifted Cholesky factor fails are bitwise this.
    """
    eye = np.eye(point.shape[1])
    gap = np.linalg.norm(point - probe, axis=1)
    fixed = (probe == 0.0) & (point <= np.minimum(simplex._ACTIVE_FRACTION * budget, gap)[:, None])
    free = (~fixed).astype(np.float64)
    share = 1.0 / np.maximum(free.sum(axis=1), 1.0)
    # orthogonal projector onto the free coordinates within the face
    zmat = free[:, :, None] * eye - share[:, None, None] * free[:, :, None] * free[:, None, :]
    reduced = np.einsum("sil,slm->sim", np.einsum("sij,sjl->sil", zmat, hess), zmat)
    # the complement of zmat's range gets eigenvalue `scale`, so the
    # modified inverse keeps zmat @ grad in the free subspace
    lam, vec = np.linalg.eigh(reduced + scale[:, None, None] * (eye - zmat))
    lam = np.maximum(np.abs(lam), simplex._EIGEN_FLOOR * scale[:, None])
    coeff = np.einsum("sji,sj->si", vec, np.einsum("sjl,sl->sj", zmat, grad)) / lam
    step = -np.einsum("sij,sj->si", zmat, np.einsum("sjl,sl->sj", vec, coeff))
    fill = share * (budget - np.einsum("sk,sk->s", free, point))
    return np.where(fixed, -point, step + fill[:, None])


def assert_pgd_batches_equal(batch, reference) -> None:
    """Every field of every start bitwise equal, floats compared by their bytes."""
    assert len(batch.results) == len(reference.results)
    for row, ref in zip(batch.results, reference.results):
        assert row.point.tobytes() == ref.point.tobytes()
        assert row.gradient.tobytes() == ref.gradient.tobytes()
        assert np.float64(row.value).tobytes() == np.float64(ref.value).tobytes()
        assert (row.iterations, row.backtracks, row.converged, row.stalled) \
            == (ref.iterations, ref.backtracks, ref.converged, ref.stalled)
