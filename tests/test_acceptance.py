"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line, every tolerance exactly as stated."""

import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from mseregion import (
    ChannelSet,
    SystemConfig,
    affine_boundary,
    boundary_sweep,
    closed_form_ratios,
    convexity_certificate,
    coupling_bundle,
    embed_inactive_users,
    enumerate_stationary_points,
    kkt_residuals,
    mse_first_derivatives,
    mse_pair_at_power,
    mse_second_derivatives,
    mse_tuple,
    save_channels,
    segment_test,
    weighted_mse_gradient,
)
from mseregion.tolerances import TOL_MEMBER

from helpers import minimax_margin_oracle, random_channels, random_powers

REF_H = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], dtype=complex)
REF_CONFIG = SystemConfig(noise_variance=1.0, power_budget=10.0)
REF_WEIGHTS = np.array([0.22, 0.54, 0.24])

PUBLISHED_POWERS = [(3.6753, 6.3247, 0.0), (0.0, 7.0794, 2.9206)]
PUBLISHED_LAMBDAS = [0.0101, 0.0115]
PUBLISHED_MUS = [(0.0, 0.0, 0.0266), (0.007, 0.0, 0.0)]
PUBLISHED_OBJECTIVES = [(0.36078, 1e-4), (0.3828, 5e-4)]
PUBLISHED_MSES = [(0.2139, 0.1365, 1.0), (1.0, 0.1977, 0.2335)]


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num} ({name}): FAIL")
        raise
    print(f"\ncriterion {num} ({name}): PASS")


@pytest.fixture(scope="module")
def clusters64():
    start = time.perf_counter()
    clusters = enumerate_stationary_points(REF_H, REF_CONFIG, REF_WEIGHTS,
                                           starts=64, seed=0)
    return clusters, time.perf_counter() - start


@pytest.fixture(scope="module")
def computed_triples(clusters64):
    clusters, _ = clusters64
    return [mse_tuple(REF_H, c.powers, REF_CONFIG).values for c in clusters[:2]]


def test_criterion_1_objectives(clusters64):
    clusters, elapsed = clusters64
    with criterion(1, "counterexample objectives"):
        assert elapsed < 5.0
        assert len(clusters) == 2
        for cert, (obj, tol) in zip(clusters, PUBLISHED_OBJECTIVES):
            assert cert.converged
            assert cert.objective == pytest.approx(obj, abs=tol)


def test_criterion_2_powers_and_multipliers(clusters64):
    clusters, _ = clusters64
    with criterion(2, "counterexample powers and multipliers"):
        for cert, powers, lam, mu in zip(clusters, PUBLISHED_POWERS,
                                         PUBLISHED_LAMBDAS, PUBLISHED_MUS):
            np.testing.assert_allclose(cert.powers, powers, atol=1e-3)
            assert cert.lam == pytest.approx(lam, abs=1e-3)
            np.testing.assert_allclose(cert.mu, mu, atol=1e-3)
        for powers, lam, mu in zip(PUBLISHED_POWERS, PUBLISHED_LAMBDAS, PUBLISHED_MUS):
            replay = kkt_residuals(REF_H, REF_CONFIG, REF_WEIGHTS,
                                   np.array(powers), lam, np.array(mu))
            assert replay.max_abs() <= 5e-4


def test_criterion_3_mse_triples(computed_triples):
    with criterion(3, "counterexample MSE triples"):
        assert len(computed_triples) == 2
        for triple, published in zip(computed_triples, PUBLISHED_MSES):
            np.testing.assert_allclose(triple, published, atol=1e-3)


def test_criterion_4_nonconvexity_witness(computed_triples):
    with criterion(4, "nonconvexity witness"):
        start = time.perf_counter()
        report = segment_test(REF_H, REF_CONFIG, computed_triples[0],
                              computed_triples[1], steps=9)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        assert report.nonconvex_witness
        assert len(report.points) == 9
        for pt in report.points:
            assert not pt.dominated
            assert pt.margin > TOL_MEMBER
        targets = [pt.target for pt in report.points]
        refined, _ = minimax_margin_oracle(REF_H, REF_CONFIG, targets,
                                           resolution=200)
        for pt, oracle in zip(report.points, refined):
            assert pt.margin == pytest.approx(oracle, abs=1e-3)


def test_criterion_5_two_user_convexity_campaign():
    rng = np.random.default_rng(50)
    with criterion(5, "two-user convexity campaign"):
        start = time.perf_counter()
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            h1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            h2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            config = SystemConfig(noise_variance=float(rng.uniform(0.1, 10.0)),
                                  power_budget=float(rng.uniform(1.0, 100.0)))
            report = convexity_certificate(h1, h2, config)
            assert report.certified
            assert report.worst_discriminant <= 1e-9

            for s in boundary_sweep(h1, h2, config, samples=101)[1:-1]:
                assert s.deps1 < 0.0 < s.deps2
                scale = (abs(s.ddeps2 * s.deps1) + abs(s.ddeps1 * s.deps2)) \
                    / abs(s.deps1) ** 3
                assert s.g_double_prime >= -1e-9 * scale
        assert time.perf_counter() - start < 120.0


def test_criterion_6_derivative_correctness():
    rng = np.random.default_rng(51)
    with criterion(6, "derivative correctness"):
        for _ in range(100):
            n = int(rng.integers(2, 5))
            h1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            h2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            config = SystemConfig(noise_variance=float(rng.uniform(0.1, 10.0)),
                                  power_budget=float(rng.uniform(1.0, 100.0)))
            p = float(rng.uniform(0.05, 0.95) * config.power_budget)
            bundle = coupling_bundle(h1, h2, config, p)
            d1, d2 = mse_first_derivatives(bundle, config)
            dd1, dd2 = mse_second_derivatives(bundle, config)

            step = 1e-6 * (1.0 + p)
            hi = mse_pair_at_power(h1, h2, config, p + step)
            lo = mse_pair_at_power(h1, h2, config, p - step)
            assert d1 == pytest.approx((hi[0] - lo[0]) / (2 * step), rel=1e-6)
            assert d2 == pytest.approx((hi[1] - lo[1]) / (2 * step), rel=1e-6)

            # second derivatives: central difference of the first
            # derivative, whose own correctness the block above just
            # anchored to raw function evaluations; differencing eps
            # directly drowns curvatures 1000x smaller than their sibling
            # in the second-difference roundoff floor
            step = 1e-5 * (1.0 + p)
            up = mse_first_derivatives(coupling_bundle(h1, h2, config, p + step), config)
            dn = mse_first_derivatives(coupling_bundle(h1, h2, config, p - step), config)
            assert dd1 == pytest.approx((up[0] - dn[0]) / (2 * step), rel=1e-4)
            assert dd2 == pytest.approx((up[1] - dn[1]) / (2 * step), rel=1e-4)

        for trial in range(100):
            k = trial % 5 + 1
            channels = random_channels(rng, int(rng.integers(2, 5)), k)
            config = SystemConfig(noise_variance=float(rng.uniform(0.1, 10.0)),
                                  power_budget=float(rng.uniform(1.0, 100.0)))
            powers = random_powers(rng, k, config.power_budget)
            weights = rng.uniform(0.05, 1.0, size=k)
            grad = weighted_mse_gradient(channels, powers, config, weights)
            scale = max(float(np.abs(grad).max()), 1e-12)

            def weighted(p):
                return float(mse_tuple(channels, p, config).values @ weights)

            for j in range(k):
                step = 1e-6 * (1.0 + powers[j])
                hi = powers.copy()
                hi[j] += step
                lo = powers.copy()
                lo[j] -= step
                fd = (weighted(hi) - weighted(lo)) / (2 * step)
                assert abs(fd - grad[j]) <= 1e-6 * max(abs(grad[j]), 1e-3 * scale)


def test_criterion_7_closed_forms():
    rng = np.random.default_rng(52)
    with criterion(7, "closed-form coupling ratios"):
        for _ in range(100):
            n = int(rng.integers(2, 5))
            h1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            h2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            config = SystemConfig(noise_variance=float(rng.uniform(0.1, 10.0)),
                                  power_budget=float(rng.uniform(1.0, 100.0)))
            p = float(rng.uniform(0.01, 0.99) * config.power_budget)
            ratio_a, ratio_b, product = closed_form_ratios(h1, h2, config, p)
            bundle = coupling_bundle(h1, h2, config, p)
            assert ratio_a == pytest.approx(bundle.a12 / bundle.a11, rel=1e-9)
            assert ratio_b == pytest.approx(np.conj(bundle.b12) / bundle.b22,
                                            rel=1e-9)
            combined = ratio_a * ratio_b
            assert abs(combined.imag) <= 1e-10
            assert product <= 1.0 + 1e-10


def test_criterion_8_affine_case():
    rng = np.random.default_rng(53)
    with criterion(8, "affine colinear case"):
        for _ in range(100):
            n = int(rng.integers(1, 5))
            h1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            alpha = complex(rng.standard_normal(), rng.standard_normal())
            if abs(alpha) < 1e-3:
                alpha += 1.0
            config = SystemConfig(noise_variance=float(rng.uniform(0.1, 10.0)),
                                  power_budget=float(rng.uniform(1.0, 100.0)))
            slope, intercept, eps_min1 = affine_boundary(h1, alpha, config)
            assert eps_min1 == 1.0 / (1.0 + config.snr * float(np.linalg.norm(h1) ** 2))
            sweep = boundary_sweep(h1, alpha * h1, config, samples=41)
            for s in sweep:
                assert s.eps2 == pytest.approx(slope * s.eps1 + intercept, abs=1e-9)
            assert sweep[-1].eps1 == pytest.approx(eps_min1, rel=1e-12)
            for s in sweep[1:-1]:
                scale = abs(s.ddeps2 * s.deps1) + abs(s.ddeps1 * s.deps2)
                assert abs(s.discriminant) <= 1e-10 * scale


def test_criterion_9_zero_power_embedding(computed_triples):
    with criterion(9, "zero-power user embedding"):
        for extra in (1, 2, 3):
            grown = embed_inactive_users(REF_H, extra)
            pad = np.ones(extra)
            report = segment_test(grown, REF_CONFIG,
                                  np.append(computed_triples[0], pad),
                                  np.append(computed_triples[1], pad),
                                  steps=9)
            assert report.nonconvex_witness
            assert all(not pt.dominated for pt in report.points)
            assert report.endpoint_a.dominated
            assert report.endpoint_b.dominated


def test_criterion_10_byte_determinism(tmp_path):
    channels_path = tmp_path / "ref.json"
    save_channels(channels_path, ChannelSet(REF_H))

    commands = {
        "boundary": ["boundary", "--h1", "1+0i,0+0i", "--h2", "0+0i,1+0i",
                     "--samples", "21", "--out", "{d}/sweep.csv",
                     "--plot", "{d}/sweep.gp"],
        "convexity-scan": ["convexity-scan", "--trials", "5", "--dim", "3",
                           "--seed", "1", "--out", "{d}/scan.json"],
        "counterexample": ["counterexample", "--starts", "8", "--seed", "0",
                           "--out", "{d}/ce.json", "--region-csv", "{d}/ce.csv",
                           "--grid", "25"],
        "wsmse": ["wsmse", "--channels", str(channels_path),
                  "--weights", "0.22,0.54,0.24", "--starts", "8", "--seed", "0",
                  "--out", "{d}/wsmse.json"],
        "segment": ["segment", "--channels", str(channels_path),
                    "--a", "0.21389147,0.13652377,1.0",
                    "--b", "1.0,0.19774107,0.23353177", "--steps", "1",
                    "--out", "{d}/segment.json"],
        "region": ["region", "--channels", str(channels_path), "--random", "60",
                   "--seed", "5", "--out", "{d}/region.csv"],
    }

    with criterion(10, "byte determinism"):
        for name, template in commands.items():
            # identical invocations write to identical paths; snapshot the
            # artifacts after each sequential run and compare bytes
            workdir = tmp_path / name
            workdir.mkdir()
            args = [cell.replace("{d}", str(workdir)) for cell in template]
            runs = []
            for extra in ((), (), ("--threads", "4")):
                for stale in workdir.iterdir():
                    stale.unlink()
                proc = subprocess.run(
                    [sys.executable, "-m", "mseregion", *args, *extra],
                    capture_output=True, text=True)
                assert proc.returncode in (0, 3), f"{name}: {proc.stderr}"
                artifacts = {f.name: f.read_bytes()
                             for f in sorted(workdir.iterdir())}
                assert artifacts, name
                runs.append((proc.returncode, artifacts))
            for other in runs[1:]:
                assert other[0] == runs[0][0]
                assert sorted(other[1]) == sorted(runs[0][1])
                for fname, blob in runs[0][1].items():
                    assert other[1][fname] == blob, f"{name}: {fname} differs"
