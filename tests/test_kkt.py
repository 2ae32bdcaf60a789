"""Weighted sum-MSE solver: reference three-user instance, KKT residual
replays, multiplier recovery, multistart clustering, scaling laws."""

import copy

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from mseregion import (
    SystemConfig,
    WeightVector,
    enumerate_stationary_points,
    kkt_residuals,
    minimize_weighted_sum_mse,
    mse_tuple,
    mse_tuples,
    recover_multipliers,
    weighted_mse_gradient,
    weighted_sum_mse,
)
from mseregion import kkt, simplex
from mseregion.io import to_jsonable
from mseregion.simplex import budget_simplex_lattice, sample_budget_simplex
from mseregion.tolerances import TOL_ACTIVE_REL, TOL_KKT

from helpers import random_channels, random_config

# Three-user instance with two stationary points, restated independently
# of the library's own copy.
REF_H = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], dtype=complex)
REF_CONFIG = SystemConfig(noise_variance=1.0, power_budget=10.0)
REF_WEIGHTS = np.array([0.22, 0.54, 0.24])

PUBLISHED = [
    {"powers": (3.6753, 6.3247, 0.0), "lam": 0.0101, "mu": (0.0, 0.0, 0.0266),
     "objective": 0.36078, "objective_tol": 1e-4, "mses": (0.2139, 0.1365, 1.0)},
    {"powers": (0.0, 7.0794, 2.9206), "lam": 0.0115, "mu": (0.007, 0.0, 0.0),
     "objective": 0.3828, "objective_tol": 5e-4, "mses": (1.0, 0.1977, 0.2335)},
]

# the two stationary points, lam and mu to 12 digits (each replays to
# <= 1e-10), and the objectives the multistart gave at starts=16, seed=0
FROZEN = [
    {"powers": (3.67526595471, 6.32473404529, 0.0), "objective": 0.36077895979873087,
     "lam": 0.0100649133166, "mu": (0.0, 0.0, 0.0266143736400)},
    {"powers": (0.0, 7.07941204111, 2.92058795889), "objective": 0.38282780467228533,
     "lam": 0.0115150143182, "mu": (0.00703684844031, 0.0, 0.0)},
]


def test_reference_instance_two_clusters():
    clusters = enumerate_stationary_points(REF_H, REF_CONFIG, REF_WEIGHTS,
                                           starts=16, seed=0)
    assert len(clusters) == 2
    for cert, pub, frozen in zip(clusters, PUBLISHED, FROZEN):
        assert cert.converged
        assert cert.objective == pytest.approx(pub["objective"], abs=pub["objective_tol"])
        assert cert.objective == pytest.approx(frozen["objective"], abs=1e-9)
        np.testing.assert_allclose(cert.powers, pub["powers"], atol=1e-3)
        np.testing.assert_allclose(cert.powers, frozen["powers"], atol=1e-6)
        assert cert.lam == pytest.approx(pub["lam"], abs=1e-3)
        assert cert.lam == pytest.approx(frozen["lam"], abs=1e-6)
        np.testing.assert_allclose(cert.mu, pub["mu"], atol=1e-3)
        np.testing.assert_allclose(cert.mu, frozen["mu"], atol=1e-6)
        mses = mse_tuple(REF_H, cert.powers, REF_CONFIG).values
        np.testing.assert_allclose(mses, pub["mses"], atol=1e-3)
        pinned = kkt_residuals(REF_H, REF_CONFIG, REF_WEIGHTS, np.array(frozen["powers"]),
                               frozen["lam"], np.array(frozen["mu"]))
        assert pinned.max_abs() <= 1e-10
    # users 3 and 1 are shut off exactly by the projection
    assert clusters[0].powers[2] == 0.0
    assert clusters[1].powers[0] == 0.0


def test_reference_starts_take_few_newton_steps():
    starts = kkt._start_points(3, REF_CONFIG.power_budget, 16, 0)
    certs = minimize_weighted_sum_mse(REF_H, REF_CONFIG, REF_WEIGHTS, starts)
    assert len(certs) == 16 + 3 + 2
    for cert in certs:
        assert cert.converged
        assert not cert.stalled
        assert cert.iterations <= 15


def test_published_variable_sets_replay():
    for pub in PUBLISHED:
        res = kkt_residuals(REF_H, REF_CONFIG, REF_WEIGHTS,
                            np.array(pub["powers"]), pub["lam"], np.array(pub["mu"]))
        assert res.max_abs() <= 5e-4
        assert abs(res.budget_slack) <= 1e-3


def test_starts_near_known_points_converge_to_them():
    cert = minimize_weighted_sum_mse(REF_H, REF_CONFIG, REF_WEIGHTS, [4.0, 6.0, 0.0])
    assert cert.converged
    np.testing.assert_allclose(cert.powers, PUBLISHED[0]["powers"], atol=1e-3)
    assert cert.objective == pytest.approx(PUBLISHED[0]["objective"], abs=1e-4)

    cert = minimize_weighted_sum_mse(REF_H, REF_CONFIG, REF_WEIGHTS, [0.0, 7.0, 3.0])
    assert cert.converged
    np.testing.assert_allclose(cert.powers, PUBLISHED[1]["powers"], atol=1e-3)
    assert cert.objective == pytest.approx(PUBLISHED[1]["objective"], abs=5e-4)


def test_single_user_full_power_and_golden_section_oracle():
    rng = np.random.default_rng(21)
    for _ in range(5):
        h = (rng.standard_normal(3) + 1j * rng.standard_normal(3)).reshape(3, 1)
        config = random_config(rng)
        weight = float(rng.uniform(0.1, 2.0))

        cert = minimize_weighted_sum_mse(h, config, [weight], [0.0])
        assert cert.converged
        assert cert.powers[0] == pytest.approx(config.power_budget, rel=1e-8)

        oracle = minimize_scalar(
            lambda p: weight * mse_tuple(h, [p], config).values[0],
            bounds=(0.0, config.power_budget), method="bounded",
            options={"xatol": 1e-10})
        assert cert.powers[0] == pytest.approx(oracle.x, abs=1e-6 * config.power_budget)
        assert cert.objective <= oracle.fun + 1e-12

        grad = weighted_mse_gradient(h, cert.powers, config, [weight])
        res = kkt_residuals(h, config, [weight], cert.powers, -float(grad[0]), [0.0])
        assert res.max_abs() <= 1e-8


def test_single_positive_weight_concentrates_power():
    rng = np.random.default_rng(22)
    for j in range(3):
        channels = random_channels(rng, 3, 3)
        config = random_config(rng)
        weights = np.zeros(3)
        weights[j] = 1.0
        clusters = enumerate_stationary_points(channels, config, weights,
                                               starts=8, seed=0)
        best = clusters[0]
        assert best.powers[j] == pytest.approx(config.power_budget, rel=1e-6)
        others = np.delete(best.powers, j)
        assert (others <= 1e-6 * config.power_budget).all()


def test_weight_scaling_law(monkeypatch):
    # scaling w by c scales the objective and multipliers by c and leaves
    # the minimizer in place; a tight stopping rule pins the endpoints down
    monkeypatch.setattr(simplex, "PGD_TOL_REL", 1e-10)
    rng = np.random.default_rng(23)
    cases = [(REF_H, REF_CONFIG, REF_WEIGHTS, [4.0, 6.0, 0.0])]
    channels = random_channels(rng, 2, 3)
    config = random_config(rng)
    cases.append((channels.entries, config, rng.uniform(0.1, 1.0, size=3),
                  [config.power_budget / 4] * 3))
    for mat, cfg, w, start in cases:
        base = minimize_weighted_sum_mse(mat, cfg, w, start)
        scaled = minimize_weighted_sum_mse(mat, cfg, 3.0 * np.asarray(w), start)
        np.testing.assert_allclose(scaled.powers, base.powers, atol=1e-6)
        assert scaled.objective == pytest.approx(3.0 * base.objective, rel=1e-9)
        assert scaled.lam == pytest.approx(3.0 * base.lam, rel=1e-4, abs=1e-9)
        np.testing.assert_allclose(scaled.mu, 3.0 * base.mu, rtol=1e-4, atol=1e-9)


def test_two_user_solver_beats_lattice_oracle():
    rng = np.random.default_rng(24)
    for trial in range(5):
        n = int(rng.integers(1, 4))
        mat = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        config = random_config(rng)
        w = rng.uniform(0.05, 1.0, size=2)
        grid = budget_simplex_lattice(2, 300) * (config.power_budget / 300)
        grid_min = float((mse_tuples(mat, grid, config) @ w).min())
        clusters = enumerate_stationary_points(mat, config, w, starts=6, seed=trial)
        assert len(clusters) == 1
        assert clusters[0].objective <= grid_min + 1e-9
        assert grid_min - clusters[0].objective <= 1e-3


def test_two_user_uniqueness_campaign():
    # convex two-user region: multistart never finds a second cluster
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        mat = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        config = SystemConfig(noise_variance=float(rng.uniform(0.1, 10.0)),
                              power_budget=float(rng.uniform(1.0, 100.0)))
        w = rng.uniform(0.05, 1.0, size=2)
        clusters = enumerate_stationary_points(mat, config, w, starts=6, seed=0)
        assert len(clusters) == 1
        assert clusters[0].converged


def test_certificate_soundness_random_instances():
    rng = np.random.default_rng(25)
    for _ in range(10):
        k = int(rng.integers(2, 5))
        channels = random_channels(rng, int(rng.integers(2, 5)), k)
        config = random_config(rng)
        w = rng.uniform(0.05, 1.0, size=k)
        for cert in enumerate_stationary_points(channels, config, w, starts=4, seed=7):
            assert cert.converged
            assert cert.lam >= 0.0
            assert (cert.mu >= 0.0).all()
            replay = kkt_residuals(channels, config, w, cert.powers, cert.lam, cert.mu)
            assert np.abs(replay.stationarity).max() <= TOL_KKT
            assert np.abs(replay.complementarity).max() <= TOL_KKT
            assert abs(replay.budget_complementarity) <= TOL_KKT * config.power_budget
            assert replay.budget_slack >= -1e-9 * config.power_budget


def test_enumerate_is_deterministic_and_thread_invariant():
    runs = [enumerate_stationary_points(REF_H, REF_CONFIG, REF_WEIGHTS,
                                        starts=8, seed=0)
            for t in (1, 1, 4)]
    for other in runs[1:]:
        assert len(other) == len(runs[0])
        for a, b in zip(runs[0], other):
            np.testing.assert_array_equal(a.powers, b.powers)
            assert a.objective == b.objective
            assert a.lam == b.lam
            np.testing.assert_array_equal(a.mu, b.mu)


def test_recover_multipliers_reference_and_slack_budget():
    for pub in PUBLISHED:
        lam, mu = recover_multipliers(REF_H, REF_CONFIG, REF_WEIGHTS,
                                      np.array(pub["powers"]))
        assert lam == pytest.approx(pub["lam"], abs=1e-3)
        np.testing.assert_allclose(mu, pub["mu"], atol=1e-3)

    h = np.array([[1.0], [0.5]], dtype=complex)
    lam, mu = recover_multipliers(h, REF_CONFIG, [1.0], [5.0])
    assert lam == 0.0
    np.testing.assert_array_equal(mu, [0.0])


def test_weight_vector_validation():
    vec = WeightVector([0.0, 1.5])
    assert len(vec) == 2
    np.testing.assert_array_equal(np.asarray(vec), [0.0, 1.5])
    with pytest.raises(ValueError):
        WeightVector([])
    with pytest.raises(ValueError):
        WeightVector([1.0, -0.1])
    with pytest.raises(ValueError):
        WeightVector([0.0, 0.0])
    with pytest.raises(ValueError):
        WeightVector([np.nan, 1.0])
    with pytest.raises(ValueError):
        minimize_weighted_sum_mse(REF_H, REF_CONFIG, [0.5, 0.5], [1.0, 1.0, 1.0])


def test_infeasible_start_rejected():
    with pytest.raises(ValueError):
        minimize_weighted_sum_mse(REF_H, REF_CONFIG, REF_WEIGHTS, [6.0, 6.0, 6.0])
    with pytest.raises(ValueError):
        minimize_weighted_sum_mse(REF_H, REF_CONFIG, REF_WEIGHTS, [-1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="batch"):
        minimize_weighted_sum_mse(REF_H, REF_CONFIG, REF_WEIGHTS, np.ones((2, 2, 3)))
    with pytest.raises(ValueError):
        enumerate_stationary_points(REF_H, REF_CONFIG, REF_WEIGHTS, starts=-1)


def _invariance_instances():
    # K = 2..8, each antenna count in {1, 2, 8, 32} at least once
    rng = np.random.default_rng(26)
    for k, n in zip(range(2, 9), (1, 2, 8, 32, 1, 2, 8, 32)):
        yield random_channels(rng, n, k), random_config(rng), rng.uniform(0.05, 1.0, size=k), rng


def _same_certificate(a, b):
    np.testing.assert_array_equal(a.powers, b.powers)
    assert a.objective == b.objective
    assert a.iterations == b.iterations
    assert a.backtracks == b.backtracks
    assert a.lam == b.lam
    np.testing.assert_array_equal(a.mu, b.mu)
    assert a.converged == b.converged
    assert a.stalled == b.stalled


def test_batch_rows_are_bitwise_single_solves():
    for channels, config, w, rng in _invariance_instances():
        k = channels.n_users
        starts = sample_budget_simplex(rng, k, config.power_budget, 68)
        batch = minimize_weighted_sum_mse(channels, config, w, starts)
        assert len(batch) == 68
        for start, row in zip(starts, batch):
            _same_certificate(minimize_weighted_sum_mse(channels, config, w, start), row)
            # the public replay reproduces the certificate exactly
            assert weighted_sum_mse(channels, row.powers, config, w) == row.objective
            lam, mu = recover_multipliers(channels, config, w, row.powers)
            assert lam == row.lam
            np.testing.assert_array_equal(mu, row.mu)
            replay = kkt_residuals(channels, config, w, row.powers, row.lam, row.mu)
            np.testing.assert_array_equal(replay.stationarity, row.residuals.stationarity)


def test_enumerate_invariant_under_start_permutation(monkeypatch):
    base = kkt._start_points
    for channels, config, w, _ in _invariance_instances():
        plain = enumerate_stationary_points(channels, config, w, starts=16, seed=3)
        count = 16 + channels.n_users + 2
        perm = np.random.default_rng(count).permutation(count)
        monkeypatch.setattr(kkt, "_start_points", lambda *a: base(*a)[perm])
        shuffled = enumerate_stationary_points(channels, config, w, starts=16, seed=3)
        monkeypatch.setattr(kkt, "_start_points", base)
        assert len(shuffled) == len(plain)
        for a, b in zip(plain, shuffled):
            _same_certificate(a, b)


def test_counterexample_checks_are_hashable_values():
    # vector checks hold tuples, so every check is a hashable value record;
    # JSON still writes them as lists
    checks = kkt.counterexample_suite(starts=8).checks
    vectors = [c for c in checks if isinstance(c.expected, tuple)]
    assert {c.name for c in vectors} == {f"{kind}_{i}" for kind in ("powers", "mu", "mse")
                                         for i in (1, 2)}
    for check in checks:
        assert hash(check) == hash(copy.deepcopy(check))
        assert check in {check}
    for check in vectors:
        assert to_jsonable(check)["expected"] == list(check.expected)
        assert to_jsonable(check)["computed"] == list(check.computed)


def test_counterexample_checks_missing_clusters(monkeypatch):
    # each reference point is paired with the cluster of its rank; a missing
    # cluster fails that point's checks and the witness, in the same order
    found = kkt.enumerate_stationary_points(kkt.REFERENCE_CHANNELS, SystemConfig(1.0, 10.0),
                                            np.array(kkt.REFERENCE_WEIGHTS), starts=8)
    assert len(found) == 2
    per_point = ("objective", "powers", "lambda", "mu", "mse", "reference_residuals")
    names = ["cluster_count", *(f"{n}_{i}" for i in (1, 2) for n in per_point), "segment_witness"]
    for keep in (0, 1, 3):
        monkeypatch.setattr(kkt, "enumerate_stationary_points",
                            lambda *args, **kwargs: (found + found)[:keep])
        report = kkt.counterexample_suite(starts=8)
        assert [c.name for c in report.checks] == names
        missing = {f"{n}_{i}" for i in (1, 2)[keep:] for n in per_point[:-1]}
        failed = {"cluster_count"} | missing | ({"segment_witness"} if keep < 2 else set())
        assert {c.name for c in report.checks if not c.passed} == failed, keep
        assert all(c.computed is None for c in report.checks if c.name in missing)
        assert (report.segment is None) == (keep < 2)


def _per_start_certificate(run, budget):
    """The former certificate of one start: multipliers, residuals and
    the residual test formed for that start alone."""
    grad, p = run.gradient, run.point
    active = p > TOL_ACTIVE_REL * budget
    tight = p.sum() >= budget * (1.0 - kkt._TIGHT_REL)
    lam = max(0.0, float((-grad[active]).max())) if tight and active.any() else 0.0
    mu = np.where(active, 0.0, np.maximum(0.0, lam + grad))
    total = float(p.sum())
    stationarity, complementarity = -grad - (lam - mu), p * mu
    slack, budget_comp = budget - total, lam * (total - budget)
    passed = (float(np.abs(stationarity).max()) <= TOL_KKT
              and float(np.abs(complementarity).max()) <= TOL_KKT
              and abs(budget_comp) <= TOL_KKT * budget)
    return lam, mu, stationarity, complementarity, slack, budget_comp, run.converged and passed


@pytest.mark.parametrize("max_iters", [0, 5000])
def test_one_pass_certificates_match_per_start_fits_bitwise(max_iters, monkeypatch):
    # with no iterations every start is its own end point: the origin (no
    # active user), the vertices, the centroid and interior draws, whose
    # budgets are not tight
    monkeypatch.setattr(simplex, "_MAX_ITERS", max_iters)
    rng = np.random.default_rng(33)
    untight = 0
    for n, k, snr in ((1, 3, 0.5), (2, 4, 30.0), (8, 5, 1e3), (32, 3, 1e4)):
        chan = random_channels(rng, n, k)
        config = SystemConfig(noise_variance=1.0, power_budget=snr)
        w = rng.uniform(0.05, 1.0, k)
        starts = kkt._start_points(k, snr, 16, int(rng.integers(1000)))
        runs = simplex.projected_gradient(kkt._evaluator(chan, config, w), starts, snr).results
        certs = kkt._solve(chan, config, w, starts)
        for run, cert in zip(runs, certs):
            lam, mu, stat, comp, slack, budget_comp, converged = _per_start_certificate(run, snr)
            assert np.float64(cert.lam).tobytes() == np.float64(lam).tobytes()
            assert cert.mu.tobytes() == mu.tobytes()
            assert cert.residuals.stationarity.tobytes() == stat.tobytes()
            assert cert.residuals.complementarity.tobytes() == comp.tobytes()
            assert np.float64(cert.residuals.budget_slack).tobytes() == np.float64(slack).tobytes()
            assert np.float64(cert.residuals.budget_complementarity).tobytes() \
                == np.float64(budget_comp).tobytes()
            assert cert.converged == converged
            untight += slack > kkt._TIGHT_REL * snr
    if max_iters == 0:
        assert untight > 0
