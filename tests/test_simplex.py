"""Simplex geometry: projection, uniform sampling, lattices, and the
projected Newton engine on known convex problems."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mseregion import SystemConfig, WeightVector, kkt, simplex
from mseregion.simplex import (
    budget_simplex_lattice,
    lattice_size,
    project_onto_budget_simplex,
    projected_gradient,
    sample_budget_simplex,
)

from helpers import (
    assert_pgd_batches_equal,
    eigen_newton_directions,
    random_channels,
    recursive_lattice,
    sequential_projected_gradient,
)


def test_projection_frozen_case():
    out = project_onto_budget_simplex(np.array([2.0, -1.0, 0.5]), 1.0)
    np.testing.assert_array_equal(out, [1.0, 0.0, 0.0])


def test_projection_interior_point_unchanged():
    point = np.array([0.2, 0.3, 0.1])
    np.testing.assert_array_equal(project_onto_budget_simplex(point, 1.0), point)


coord = st.floats(min_value=-50.0, max_value=50.0,
                  allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=80)
@given(st.lists(coord, min_size=1, max_size=6),
       st.floats(min_value=0.1, max_value=100.0))
def test_projection_feasible_and_idempotent(values, budget):
    point = np.array(values)
    proj = project_onto_budget_simplex(point, budget)
    assert (proj >= 0.0).all()
    assert proj.sum() <= budget * (1.0 + 1e-12)
    again = project_onto_budget_simplex(proj, budget)
    np.testing.assert_allclose(again, proj, rtol=0.0, atol=1e-12)


def test_projection_is_nearest_feasible_point():
    rng = np.random.default_rng(20)
    for _ in range(40):
        k = int(rng.integers(1, 6))
        budget = float(rng.uniform(0.5, 20.0))
        point = rng.normal(scale=5.0, size=k)
        proj = project_onto_budget_simplex(point, budget)
        base = np.linalg.norm(point - proj)
        others = sample_budget_simplex(rng, k, budget, 50)
        for z in others:
            assert base <= np.linalg.norm(point - z) + 1e-12


def test_sampler_shape_feasibility_determinism():
    draws = sample_budget_simplex(np.random.default_rng(3), 4, 7.0, 25)
    assert draws.shape == (25, 4)
    assert (draws >= 0.0).all()
    assert (draws.sum(axis=1) <= 7.0).all()
    repeat = sample_budget_simplex(np.random.default_rng(3), 4, 7.0, 25)
    np.testing.assert_array_equal(draws, repeat)


def test_lattice_counts_and_contents():
    grid = budget_simplex_lattice(3, 8)
    assert grid.shape == (lattice_size(3, 8), 3)
    assert lattice_size(3, 8) == math.comb(11, 3)
    assert (grid >= 0).all()
    assert (grid.sum(axis=1) <= 8).all()
    # every lattice point appears exactly once
    assert len({tuple(row) for row in grid}) == grid.shape[0]

    line = budget_simplex_lattice(1, 2)
    np.testing.assert_array_equal(line, [[0], [1], [2]])

    with pytest.raises(ValueError):
        budget_simplex_lattice(0, 4)
    with pytest.raises(ValueError):
        budget_simplex_lattice(2, -1)


@pytest.mark.parametrize("k", range(1, 9))
def test_lattice_matches_recursive_reference(k):
    for resolution in (0, 1, 5, 12):
        grid = budget_simplex_lattice(k, resolution)
        assert grid.dtype == np.int64
        np.testing.assert_array_equal(grid, recursive_lattice(k, resolution))


def _identities(p):
    return np.broadcast_to(np.eye(p.shape[1]), (p.shape[0],) + (p.shape[1],) * 2)


def _quad_rows(target):
    def quad(p):
        diff = p - target

        def derive(index):
            return diff[index], _identities(p)[index]
        return 0.5 * np.einsum("sk,sk->s", diff, diff), derive
    return quad


def test_pgd_quadratic_interior_minimum():
    # the minimum on the face sum(p) = 2 of |p - target|^2 / 2 is target
    # plus an equal share of the 1.2 it lacks, inside the face
    target = np.array([0.2, 0.5, 0.1])
    quad = _quad_rows(target)
    start = np.array([[2.0, 0.0, 0.0]])
    result = projected_gradient(quad, start, budget=2.0).results[0]
    assert result.converged
    np.testing.assert_allclose(result.point, target + 0.4, atol=1e-7)
    assert result.value <= quad(start)[0][0]
    with pytest.raises(ValueError, match="batch"):
        projected_gradient(quad, np.zeros(3), budget=2.0)


def test_pgd_quadratic_projected_minimum():
    # unconstrained optimum outside the simplex: solution is its projection
    target = np.array([3.0, 2.0])
    budget = 1.0
    result = projected_gradient(_quad_rows(target), np.array([[0.5, 0.25]]),
                                budget=budget).results[0]
    expected = project_onto_budget_simplex(target, budget)
    assert result.converged
    np.testing.assert_allclose(result.point, expected, atol=1e-6)
    assert (result.point >= 0.0).all()
    assert result.point.sum() <= budget * (1.0 + 1e-12)


def test_pgd_stall_is_reported():
    # f(p) = (x_1 - x_2)^2 / 2 + b.x with x = p - s, from the face vertex
    # s = (0, 1), and the callable returning the negated gradient: every
    # candidate raises f, so backtracking gives out
    s = np.array([0.0, 1.0])
    b = np.array([1.0, -1.0])
    hess = np.array([[1.0, -1.0], [-1.0, 1.0]])

    # this Hessian fills the modified Newton matrix out to 2 I, so the
    # direction from s is exactly (1/2, -1/2), and a candidate's first
    # power is exactly half its step
    steps, sizes, derived = [], [], []

    def wrong_sign(p):
        steps.extend((2.0 * p[:, 0]).tolist())
        sizes.append(p.shape[0])

        def derive(index):
            derived.append(len(index))
            return -(x @ hess + b)[index], np.broadcast_to(hess, (len(index), 2, 2))
        x = p - s
        return 0.5 * (x[:, 0] - x[:, 1]) ** 2 + x @ b, derive

    result = projected_gradient(wrong_sign, s[None, :], budget=1.0).results[0]
    assert result.stalled
    assert not result.converged
    assert result.iterations == 1
    assert result.backtracks == 60       # 2**-60 is the first step below 1e-18
    np.testing.assert_array_equal(result.point, s)
    # the start, the first try's t = 1, 2, 4, 8 (the longer ones projected
    # onto the vertex (1, 0)), then each step halving would try from t =
    # 1/2, once, and none below 1e-18
    rungs = simplex._LADDER
    assert steps == [0.0, 1.0] + [2.0] * (rungs - 1) + [2.0 ** -j for j in range(1, 60)]
    assert min(steps[1:]) >= 1e-18
    # the first try goes in one call; the 59 halvings go _LADDER to a call
    assert sizes == [1, rungs] + [rungs] * (59 // rungs) + [59 % rungs] * (59 % rungs > 0)
    # no step was accepted, so only the start was derived
    assert derived == [1]


def test_pgd_first_try_takes_the_unit_step_on_a_quadratic():
    # on |p - target|^2 / 2 the Newton step t = 1 lands on the face
    # minimum.  Inside the face the longer rungs t = 2, 4, 8 fail the
    # Armijo test; past an edge they project to about the same point, and
    # a value no lower than the unit step's by the stopping tolerance
    # leaves t = 1 taken
    for target, budget, longer_pass in ((np.array([0.2, 0.5, 0.1]), 2.0, False),
                                        (np.array([3.0, 2.0, -1.0]), 1.0, True)):
        quad = _quad_rows(target)
        sizes, values, derived = [], [], []

        def counted(p):
            sizes.append(p.shape[0])
            vals, derive = quad(p)
            values.append(vals)

            def counted_derive(index):
                derived.append(np.asarray(index).tolist())
                return derive(index)
            return vals, counted_derive

        starts = budget * np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0],
                                    [0.3, 0.3, 0.4], [0.5, 0.25, 0.25]])
        batch = projected_gradient(counted, starts, budget)
        assert batch.converged
        assert [(r.iterations, r.backtracks) for r in batch.results] == [(1, 0)] * 4
        # one call on the starts, one on the four rungs of every first try,
        # and each start takes its first rung, t = 1
        rungs = simplex._LADDER
        assert sizes == [4, 4 * rungs]
        assert derived == [[0, 1, 2, 3], list(range(0, 4 * rungs, rungs))]
        trial = values[1].reshape(4, rungs)
        assert (trial[:, 1:] <= trial[:, :1] + simplex.PGD_TOL_REL).any() == longer_pass


def test_pgd_batch_rows_match_single_runs():
    quad_rows = _quad_rows(np.array([0.2, 0.5, 0.1]))
    starts = sample_budget_simplex(np.random.default_rng(9), 3, 2.0, 12)
    batch = projected_gradient(quad_rows, starts, budget=2.0)
    assert batch.converged
    assert batch.iterations == max(r.iterations for r in batch.results)
    for start, row in zip(starts, batch.results):
        alone = projected_gradient(quad_rows, start[None, :], budget=2.0).results[0]
        np.testing.assert_array_equal(row.point, alone.point)
        assert row.value == alone.value
        assert row.iterations == alone.iterations
        assert not row.stalled


def test_projection_batch_rows_match_single_points():
    rng = np.random.default_rng(30)
    for k in (1, 2, 5, 8):
        points = rng.normal(scale=3.0, size=(40, k))
        batch = project_onto_budget_simplex(points, 2.0)
        for point, row in zip(points, batch):
            np.testing.assert_array_equal(row, project_onto_budget_simplex(point, 2.0))


def _wsmse_panel(k: int):
    """Weighted sum-MSE problems with K = k users and the multistart points
    of `kkt`: N in {1, 2, 8, 32} antennas, P/sigma^2 from 0.1 to 1e5.  With
    these seeds every panel of K = 2..8 has a start that rejects more than
    _LADDER steps in one iteration."""
    rng = np.random.default_rng(2021 + k)
    for n in (1, 2, 8, 32):
        for snr in (0.1, 10.0, 1e3, 1e5):
            chan = random_channels(rng, n, k)
            config = SystemConfig(noise_variance=1.0, power_budget=snr)
            weights = WeightVector(rng.uniform(0.05, 1.0, k))
            starts = kkt._start_points(k, snr, 16, int(rng.integers(1000)))
            yield kkt._evaluator(chan, config, weights.weights), starts, snr


@pytest.mark.parametrize("k", range(2, 9))
def test_pgd_ladder_is_bitwise_one_step_per_round(k, monkeypatch):
    # a few N = 32 starts at P/sigma^2 = 0.1 run to the iteration cap; a
    # lower cap, read by both loops at call time, keeps them cheap
    monkeypatch.setattr(simplex, "_MAX_ITERS", 100)
    longest = 0
    for derivatives, starts, budget in _wsmse_panel(k):
        reference, runs = sequential_projected_gradient(derivatives, starts, budget)
        assert_pgd_batches_equal(projected_gradient(derivatives, starts, budget), reference)
        longest = max(longest, int(runs.max()))
    # some start rejected more steps in one iteration than one round sends
    assert longest > simplex._LADDER


def test_pgd_ladder_needs_fewer_rounds():
    rng = np.random.default_rng(2008)
    chan = random_channels(rng, 4, 5)
    config = SystemConfig(noise_variance=1.0, power_budget=18.5)
    weights = WeightVector(rng.uniform(0.05, 1.0, 5))
    starts = kkt._start_points(5, 18.5, 16, 1)
    calls = []
    evaluate = kkt._evaluator(chan, config, weights.weights)

    def derivatives(p):
        calls.append(p.shape[0])
        return evaluate(p)

    batch = projected_gradient(derivatives, starts, 18.5)
    ladder = len(calls)
    calls.clear()
    reference, runs = sequential_projected_gradient(derivatives, starts, 18.5)
    assert_pgd_batches_equal(batch, reference)
    assert runs.max() > simplex._LADDER
    assert ladder < len(calls)


def test_pgd_derives_only_starts_and_accepted_steps():
    rng = np.random.default_rng(2008)
    chan = random_channels(rng, 4, 5)
    config = SystemConfig(noise_variance=1.0, power_budget=18.5)
    weights = WeightVector(rng.uniform(0.05, 1.0, 5))
    starts = kkt._start_points(5, 18.5, 16, 2)
    evaluate = kkt._evaluator(chan, config, weights.weights)
    valued, derived = [], []

    def counted(p):
        valued.append(p.shape[0])
        values, derive = evaluate(p)

        def counted_derive(index):
            derived.append(len(index))
            return derive(index)
        return values, counted_derive

    batch = projected_gradient(counted, starts, 18.5)
    # one derived row per start and per accepted step: every iteration
    # but a stalled one ends in an accepted step
    accepted = sum(r.iterations - r.stalled for r in batch.results)
    assert sum(derived) == len(starts) + accepted == 22 + 160
    # the trial steps: 12 calls on 706 rows, four per first try
    assert (len(valued), sum(valued)) == (12, 706)
    assert sum(derived) < sum(valued)


def _direction_stack(k: int):
    """(point, grad, hess, budget, probe, scale) stacks of one budget each,
    with the mask of the rows that fail the stopping test: the face
    projections of a `_wsmse_panel` instance's starts with their
    derivatives, the probe and scale formed as `projected_gradient` forms
    them, and one constructed interior row, of value 0, whose face
    Hessian has a negative eigenvalue."""
    rng = np.random.default_rng(5300 + k)
    for derivatives, starts, budget in _wsmse_panel(k):
        point = simplex._project_onto_face(starts, budget)
        value, derive = derivatives(point)
        grad, hess = derive(np.arange(len(point)))
        saddle = rng.standard_normal((k, k))
        point = np.vstack((point, np.full(k, budget / k)))
        value = np.append(value, 0.0)
        grad = np.vstack((grad, 1e-3 * rng.standard_normal(k)))
        hess = np.concatenate((hess, [0.1 * (saddle + saddle.T) - np.eye(k)]))
        scale = k * np.abs(hess).max(axis=(1, 2))
        probe = simplex._project_onto_face(point - grad / scale[:, None], budget)
        pg = np.linalg.norm(point - simplex._project_onto_face(point - grad, budget), axis=1)
        moving = pg > simplex.PGD_TOL_REL * (1.0 + np.abs(value))
        yield (point, grad, hess, budget, probe, scale), moving


@pytest.mark.parametrize("k", range(2, 9))
def test_newton_directions_take_cholesky_or_eigen_rows(k):
    panel_paths = {"cholesky": 0, "eigen": 0}
    for (point, grad, hess, budget, probe, scale), moving in _direction_stack(k):
        step = simplex._newton_directions(point, grad, hess, budget, probe, scale)
        oracle = eigen_newton_directions(point, grad, hess, budget, probe, scale)
        for i in range(len(point)):
            alone = simplex._newton_directions(point[i:i + 1], grad[i:i + 1], hess[i:i + 1],
                                               budget, probe[i:i + 1], scale[i:i + 1])
            assert alone.tobytes() == step[i:i + 1].tobytes()
        # a row's path: every eigenvalue of its face matrix above the floor
        free = ~((probe == 0.0) & (point <= np.minimum(simplex._ACTIVE_FRACTION * budget,
                                                       np.linalg.norm(point - probe, axis=1))[:, None]))
        share = 1.0 / np.maximum(free.sum(axis=1), 1)
        zmat = free[:, :, None] * np.eye(k) - share[:, None, None] * free[:, :, None] * free[:, None, :]
        lowest = np.linalg.eigvalsh(zmat @ hess @ zmat + scale[:, None, None] * (np.eye(k) - zmat))[:, 0]
        floor = simplex._EIGEN_FLOOR * scale
        # no row is within rounding of the floor, so its path is certain
        assert (np.abs(lowest - floor) > 1e-13 * scale).all()
        above = lowest > floor
        assert not above[-1]
        panel_paths["cholesky"] += int(above[:-1].sum())
        panel_paths["eigen"] += int((~above[:-1]).sum())
        # the solve and the eigen form each miss the exact step by about
        # eps times the condition number, at most scale / lowest; the panel
        # reaches 1e10, where the two differ by up to 2e-7 (4.5e-16 times it)
        cond = scale[above] / lowest[above]
        err = np.abs(step[above] - oracle[above]).max(axis=1)
        assert (err <= np.maximum(1e-12, 1e-14 * cond) * np.abs(oracle[above]).max(axis=1)).all()
        assert step[~above].tobytes() == oracle[~above].tobytes()
        # every direction descends where the stopping test fails
        assert (np.einsum("sk,sk->s", grad[moving], step[moving]) < 0.0).all()
    # panel rows take both paths from K = 3 on
    assert panel_paths["cholesky"] > 0
    assert panel_paths["eigen"] > 0 or k == 2


def test_linalg_kernels_match_their_wrappers():
    # the solver's per-row verdict: the gufunc behind np.linalg.cholesky
    # leaves NaN in exactly the rows np.linalg.cholesky raises for, the
    # factor bitwise elsewhere, and under errstate warns of nothing; the
    # gufunc behind np.linalg.solve gives its bytes on positive definite
    # matrices and on I
    rng = np.random.default_rng(5301)
    for k in range(1, 9):
        base = rng.standard_normal((12, k, k))
        sym = base @ np.swapaxes(base, 1, 2)
        lowest = np.linalg.eigvalsh(sym)[:, 0]
        shifts = np.array([1.0, 0.0, -1.0, -2.0, 1e-12, -1e-12] * 2)
        stack = sym - (lowest - shifts)[:, None, None] * np.eye(k)
        stack[-1] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore"):
                low = simplex._cholesky_lo(stack)
        for row, factor in zip(stack, low):
            try:
                expected = np.linalg.cholesky(row)
            except np.linalg.LinAlgError:
                assert np.isnan(factor).all()
            else:
                assert factor.tobytes() == expected.tobytes()
        assert np.isnan(low[:, -1, -1]).sum() >= 4 and np.isfinite(low[:, -1, -1]).sum() >= 2
        # the solver hands it matrices whose eigenvalues clear the floor, or I
        solved = np.where((shifts == 1.0)[:, None, None], stack, np.eye(k))
        rhs = rng.standard_normal((12, k))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            step = simplex._solve1(solved, rhs)
        for mat, vec, got in zip(solved, rhs, step):
            assert got.tobytes() == np.linalg.solve(mat, vec[:, None])[:, 0].tobytes()
