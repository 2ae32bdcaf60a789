"""Two-user boundary calculus: frozen worked example, finite-difference
cross-checks, discriminant decomposition, closed forms, affine case."""

import dataclasses
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from mseregion import (
    BoundaryClass,
    SystemConfig,
    affine_boundary,
    boundary_sweep,
    closed_form_ratios,
    colinearity_classify,
    convexity_certificate,
    convexity_certificates,
    convexity_discriminant,
    coupling_bundle,
    g_derivatives,
    mse_first_derivatives,
    mse_pair_at_power,
    mse_jacobian,
    mse_second_derivatives,
    mse_tuple,
    weighted_mse_derivatives,
)
from mseregion import boundary
from mseregion.cli import _scan_pairs
from mseregion.io import to_jsonable

import closed_form_probe
from helpers import random_config, second_order_grams

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)
UNIT = SystemConfig(noise_variance=1.0, power_budget=10.0)
# D against the kernel's, and the former sweep's summand signs, x derivative scale
DISCRIMINANT_SLACK = 1e-9
# the former sweep's absolute Cauchy-Schwarz slack, beside its relative 1e-12
CAUCHY_SCHWARZ_SLACK = 1e-10


def random_pair(rng, dim: int = 3):
    h1 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    h2 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return h1, h2


def test_diagonal_worked_example():
    # Orthonormal channels, sigma^2 = 1, P = 10, split p = 4: the receive
    # covariance is diag(5, 7) and every quantity below is rational.
    bundle = coupling_bundle(E1, E2, UNIT, 4.0)
    assert bundle.a11 == pytest.approx(1 / 5, rel=1e-12)
    assert bundle.a22 == pytest.approx(1 / 7, rel=1e-12)
    assert bundle.a12 == 0
    assert bundle.b11 == pytest.approx(1 / 25, rel=1e-12)
    assert bundle.b22 == pytest.approx(1 / 49, rel=1e-12)
    assert bundle.b12 == 0

    eps = mse_pair_at_power(E1, E2, UNIT, 4.0)
    assert eps[0] == pytest.approx(1 / 5, rel=1e-12)
    assert eps[1] == pytest.approx(1 / 7, rel=1e-12)

    d1, d2 = mse_first_derivatives(bundle, UNIT)
    assert d1 == pytest.approx(-1 / 25, rel=1e-12)
    assert d2 == pytest.approx(1 / 49, rel=1e-12)

    dd1, dd2 = mse_second_derivatives(bundle, UNIT)
    assert dd1 == pytest.approx(2 / 125, rel=1e-12)
    assert dd2 == pytest.approx(2 / 343, rel=1e-12)

    disc, summands = convexity_discriminant(bundle, UNIT)
    assert disc == pytest.approx(-0.000559766763848397, rel=1e-12)
    np.testing.assert_allclose(summands, [0.0, -2 / 6125, -2 / 8575],
                               rtol=1e-12, atol=0.0)

    gp, gpp = g_derivatives(E1, E2, UNIT, 4.0)
    assert gp == pytest.approx(-25 / 49, rel=1e-12)
    assert gpp == pytest.approx(8.74635568513120, rel=1e-12)


def test_bundle_matches_dense_inverse():
    rng = np.random.default_rng(7)
    for _ in range(15):
        h1, h2 = random_pair(rng, int(rng.integers(2, 5)))
        config = random_config(rng)
        p = float(rng.uniform(0, config.power_budget))
        bundle = coupling_bundle(h1, h2, config, p)

        cov = config.noise_variance * np.eye(h1.size, dtype=complex) \
            + p * np.outer(h1, h1.conj()) \
            + (config.power_budget - p) * np.outer(h2, h2.conj())
        inv = np.linalg.inv(cov)
        inv2 = inv @ inv
        assert bundle.a11 == pytest.approx((h1.conj() @ inv @ h1).real, abs=1e-11)
        assert bundle.a22 == pytest.approx((h2.conj() @ inv @ h2).real, abs=1e-11)
        assert bundle.a12 == pytest.approx(complex(h1.conj() @ inv @ h2), abs=1e-11)
        assert bundle.b11 == pytest.approx((h1.conj() @ inv2 @ h1).real, abs=1e-11)
        assert bundle.b22 == pytest.approx((h2.conj() @ inv2 @ h2).real, abs=1e-11)
        assert bundle.b12 == pytest.approx(complex(h1.conj() @ inv2 @ h2), abs=1e-11)


def test_first_derivatives_match_finite_differences():
    rng = np.random.default_rng(8)
    for _ in range(20):
        h1, h2 = random_pair(rng)
        config = random_config(rng)
        p = float(rng.uniform(0.05, 0.95) * config.power_budget)
        step = 1e-6 * (1.0 + p)
        hi = mse_pair_at_power(h1, h2, config, p + step)
        lo = mse_pair_at_power(h1, h2, config, p - step)
        d1, d2 = mse_first_derivatives(coupling_bundle(h1, h2, config, p), config)
        assert d1 == pytest.approx((hi[0] - lo[0]) / (2 * step), rel=1e-6)
        assert d2 == pytest.approx((hi[1] - lo[1]) / (2 * step), rel=1e-6)


def test_second_derivatives_match_finite_differences():
    rng = np.random.default_rng(9)
    for _ in range(20):
        h1, h2 = random_pair(rng)
        config = random_config(rng)
        p = float(rng.uniform(0.05, 0.95) * config.power_budget)
        step = 1e-4 * (1.0 + p)
        hi = mse_pair_at_power(h1, h2, config, p + step)
        mid = mse_pair_at_power(h1, h2, config, p)
        lo = mse_pair_at_power(h1, h2, config, p - step)
        dd1, dd2 = mse_second_derivatives(coupling_bundle(h1, h2, config, p), config)
        fd1 = (hi[0] - 2 * mid[0] + lo[0]) / step ** 2
        fd2 = (hi[1] - 2 * mid[1] + lo[1]) / step ** 2
        assert dd1 == pytest.approx(fd1, rel=1e-4)
        assert dd2 == pytest.approx(fd2, rel=1e-4)


def _exact_grams(n1, n2, csq, sig2, budget, p):
    """(a11, a22, b11, b22, |a12|^2, Re{a12 b21}, |b12|^2) and Delta of the
    module docstring's closed forms, in the arithmetic of the arguments."""
    q, d = budget - p, n1 * n2 - csq
    delta = sig2 ** 2 + sig2 * (p * n1 + q * n2) + p * q * d
    alpha, beta = sig2 / delta, (sig2 ** 2 - p * q * d) / delta ** 2
    return ((sig2 * n1 + q * d) / delta, (sig2 * n2 + p * d) / delta,
            (sig2 ** 2 * n1 + 2 * sig2 * q * d + q ** 2 * n2 * d) / delta ** 2,
            (sig2 ** 2 * n2 + 2 * sig2 * p * d + p ** 2 * n1 * d) / delta ** 2,
            csq * alpha ** 2, csq * alpha * beta, csq * beta ** 2), delta


def test_discriminant_decomposition_and_sign():
    rng = np.random.default_rng(10)
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        h1, h2 = random_pair(rng, dim)
        config = random_config(rng)
        p = float(rng.uniform(0.01, 0.99) * config.power_budget)
        bundle = coupling_bundle(h1, h2, config, p)
        disc, summands = convexity_discriminant(bundle, config)
        d1, d2 = mse_first_derivatives(bundle, config)
        dd1, dd2 = mse_second_derivatives(bundle, config)
        scale = abs(dd2 * d1) + abs(dd1 * d2)
        assert disc == pytest.approx(dd2 * d1 - dd1 * d2, abs=1e-12 * scale)
        assert abs(disc - summands.sum()) <= 1e-10 * scale
        assert (summands <= 1e-12 * scale).all()
        if dim == 1:
            # scalars are always colinear: affine boundary, zero curvature
            assert abs(disc) <= 1e-10 * scale
        else:
            assert disc < 0.0


def test_closed_form_ratios():
    rng = np.random.default_rng(11)
    for _ in range(30):
        h1, h2 = random_pair(rng)
        config = random_config(rng)
        p = float(rng.uniform(0.01, 0.99) * config.power_budget)
        ratio_a, ratio_b, product = closed_form_ratios(h1, h2, config, p)
        bundle = coupling_bundle(h1, h2, config, p)
        # the ratios of the bundle's own entries, bit for bit
        assert ratio_a == bundle.a12 / bundle.a11
        assert ratio_b == bundle.b12.conjugate() / bundle.b22
        combined = ratio_a * ratio_b
        assert abs(combined.imag) <= 1e-10
        assert product == pytest.approx(combined.real, abs=1e-12)
        assert product <= 1.0 + 1e-10


def test_g_derivative_signs_and_interior_requirement():
    rng = np.random.default_rng(12)
    for _ in range(30):
        h1, h2 = random_pair(rng)
        config = random_config(rng)
        p = float(rng.uniform(0.01, 0.99) * config.power_budget)
        gp, gpp = g_derivatives(h1, h2, config, p)
        bundle = coupling_bundle(h1, h2, config, p)
        d1, d2 = mse_first_derivatives(bundle, config)
        dd1, dd2 = mse_second_derivatives(bundle, config)
        scale = (abs(dd2 * d1) + abs(dd1 * d2)) / abs(d1) ** 3
        assert gp < 0.0
        assert gpp >= -1e-9 * scale
    h1, h2 = random_pair(np.random.default_rng(13))
    with pytest.raises(ValueError):
        g_derivatives(h1, h2, UNIT, 0.0)
    with pytest.raises(ValueError):
        g_derivatives(h1, h2, UNIT, UNIT.power_budget)


def test_g_derivatives_are_the_sweep_values():
    # at every interior split g_derivatives returns the sweep's (g', g'') bits
    rng = np.random.default_rng(23)
    for dim in range(1, 6):
        pairs = _mixed_pairs(rng, 8, dim)
        for t in range(8):
            h1, h2 = pairs[t, :, 0], pairs[t, :, 1]
            config = random_config(rng, sigma2=(1e-3, 10.0), power=(1e-2, 1e3))
            for s in boundary_sweep(h1, h2, config, samples=11)[1:-1]:
                got = g_derivatives(h1, h2, config, s.p)
                assert got == (s.g_prime, s.g_double_prime), (dim, t, s.p)


def test_low_noise_pairs_keep_cauchy_schwarz_and_convexity():
    # sigma^2 = 1e-3, P = 0.02: the X^{-2} Gram entries reach |h|^4 / sigma^8,
    # and scalar or colinear pairs hold Cauchy-Schwarz with equality, so
    # both Gram inequalities are asserted with a relative slack only
    config = SystemConfig(noise_variance=1e-3, power_budget=0.02)
    splits = np.linspace(0.0, config.power_budget, 11)[1:-1]
    for dim, colinear in ((1, False), (4, True)):
        pairs = _scan_pairs(np.random.default_rng(1), 200, dim, colinear)
        for h1, h2 in zip(pairs[:, :, 0], pairs[:, :, 1]):
            for p in splits:
                b = coupling_bundle(h1, h2, config, p)
                assert abs(b.a12) ** 2 <= b.a11 * b.a22 * (1.0 + 1e-12), (dim, p)
                assert abs(b.b12) ** 2 <= b.b11 * b.b22 * (1.0 + 1e-12), (dim, p)
                assert g_derivatives(h1, h2, config, p)[1] >= 0.0, (dim, p)


@pytest.mark.parametrize("h1, h2, sig2, budget, reader", [
    # sigma^4 n1 and sigma^4 n2 are subnormal: b11 and b22 keep 5 digits
    (1e-10, 5e-11, 1e-150, 1e-60, coupling_bundle),
    (1e-10, 5e-11, 1e-150, 1e-60, closed_form_ratios),
    # b11, b22 and b12 are subnormal
    (1e-10, 5e-11 + 3e-11j, 1e150, 1e150, closed_form_ratios),
    (1e-10, 5e-11 + 3e-11j, 1e150, 1e150, coupling_bundle),
    # b11 and b22 underflow to 0
    (1e-20, 5e-21, 1e-150, 1e-60, coupling_bundle),
], ids=["cauchy-schwarz", "product", "imaginary", "subnormal-bundle", "positivity"])
def test_reader_guards_fire_where_the_x2_closed_forms_lose_accuracy(h1, h2, sig2, budget, reader):
    # every value formed at these one-antenna pairs is finite, yet float b11
    # or b22 is off by more than 1e-6 against 60-digit closed forms from the
    # same inputs: the readers raise the sweep's range error, as sigma^4 n_k
    # or an X^{-2} entry is below the smallest normal float64
    h1, h2 = np.array([h1], dtype=complex), np.array([h2], dtype=complex)
    config = SystemConfig(noise_variance=sig2, power_budget=budget)
    with pytest.raises(ValueError, match="boundary closed forms leave the float64 range"):
        reader(h1, h2, config, budget / 2)
    n1, n2, _, d = (v[0] for v in boundary._pair_scalars(boundary._pair(h1, h2)))
    sig2, p = np.float64(sig2), budget / 2
    q = budget - p
    den = sig2 ** 2 + sig2 * (p * n1 + q * n2) + p * q * d
    floats = ((sig2 ** 2 * n1 + 2.0 * sig2 * q * d + q ** 2 * n2 * d) / den / den,
              (sig2 ** 2 * n2 + 2.0 * sig2 * p * d + p ** 2 * n1 * d) / den / den)
    with mpmath.workdps(60):
        n1, n2 = abs(mpmath.mpc(h1[0])) ** 2, abs(mpmath.mpc(h2[0])) ** 2
        (_, _, b11, b22, *_), _ = _exact_grams(n1, n2, n1 * n2, mpmath.mpf(sig2),
                                               mpmath.mpf(budget), mpmath.mpf(budget) / 2)
        errors = [abs(got - want) / want for got, want in zip(floats, (b11, b22))]
    assert max(errors) > 1e-6, errors


@pytest.mark.parametrize("h1, h2", [([1e-20], [5e-21]), ([1e-20, 0.0], [0.0, 5e-21])],
                         ids=["colinear-inf", "orthogonal-nan"])
def test_x2_cauchy_schwarz_guard_compares_unsquared_where_the_square_overflows(h1, h2):
    # |b12|^2 = |c|^2 beta^2 would be inf (or 0 * inf = nan for an
    # orthogonal pair) while b12 = c beta, b11 and b22 are finite and
    # accurate: the bundle is returned, and |b12| is held against the
    # 60-digit sqrt(|b12|^2)
    h1, h2 = np.array(h1, dtype=complex), np.array(h2, dtype=complex)
    config = SystemConfig(noise_variance=1e-100, power_budget=1e-55)
    split = 1e-58
    bundle = coupling_bundle(h1, h2, config, split)
    with mpmath.workdps(60):
        n1, n2 = (sum(abs(mpmath.mpc(x)) ** 2 for x in h) for h in (h1, h2))
        csq = abs(sum(mpmath.conj(mpmath.mpc(x)) * mpmath.mpc(y) for x, y in zip(h1, h2))) ** 2
        (_, _, b11, b22, _, _, absb12sq), _ = _exact_grams(
            n1, n2, csq, mpmath.mpf(config.noise_variance),
            mpmath.mpf(config.power_budget), mpmath.mpf(split))
        for got, want in ((bundle.b11, b11), (bundle.b22, b22),
                          (abs(bundle.b12), mpmath.sqrt(absb12sq))):
            assert abs(got - want) <= 1e-12 * want


def test_colinearity_classification():
    rng = np.random.default_rng(14)
    h1, h2 = random_pair(rng)
    assert colinearity_classify(h1, h2) is BoundaryClass.STRICTLY_CONVEX
    assert colinearity_classify(E1, E2) is BoundaryClass.STRICTLY_CONVEX
    assert colinearity_classify(h1, (0.3 - 1.7j) * h1) is BoundaryClass.AFFINE
    assert colinearity_classify(h1, h1) is BoundaryClass.AFFINE


def test_affine_frozen_example():
    # alpha = 2, snr = 10, |h1|^2 = 1: line eps2 = -44/41 eps1 + 45/41.
    slope, intercept, eps_min1 = affine_boundary(E1, 2.0, UNIT)
    assert slope == pytest.approx(-44 / 41, rel=1e-15)
    assert intercept == pytest.approx(45 / 41, rel=1e-15)
    assert eps_min1 == pytest.approx(1 / 11, rel=1e-15)
    assert slope * eps_min1 + intercept == pytest.approx(1.0, rel=1e-14)


def test_affine_sweep_stays_on_line():
    rng = np.random.default_rng(15)
    for _ in range(10):
        h1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        config = random_config(rng)
        slope, intercept, eps_min1 = affine_boundary(h1, alpha, config)
        sweep = boundary_sweep(h1, alpha * h1, config, samples=41)
        for sample in sweep:
            line = slope * sample.eps1 + intercept
            assert sample.eps2 == pytest.approx(line, abs=1e-9)
        assert sweep[-1].eps1 == pytest.approx(eps_min1, rel=1e-12)
        assert sweep[0].eps1 == pytest.approx(1.0, rel=1e-12)
        for sample in sweep[1:-1]:
            scale = abs(sample.ddeps2 * sample.deps1) + abs(sample.ddeps1 * sample.deps2)
            assert abs(sample.discriminant) <= 1e-10 * scale
    with pytest.raises(ValueError):
        affine_boundary(E1, 0.0, UNIT)


@pytest.mark.parametrize("h1, alpha", [
    ([np.inf], 1.0), ([complex(1.0, np.nan)], 1.0), ([1.0], np.nan), ([1.0], complex(1.0, -np.inf)),
    ([1e200], 1.0), ([1.0], 1e200), ([1e100], 1e100),
], ids=["inf h1", "nan h1", "nan alpha", "inf alpha", "huge h1", "huge alpha", "huge product"])
def test_affine_boundary_raises_where_its_line_is_not_finite(h1, alpha):
    # non-finite inputs, and finite ones whose line leaves the float64 range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            affine_boundary(h1, alpha, SystemConfig(1.0, 10.0))


def test_orthogonal_sweep_endpoints_and_monotonicity():
    sweep = boundary_sweep(E1, E2, UNIT, samples=11)
    assert len(sweep) == 11
    assert sweep[0].p == 0.0
    assert sweep[-1].p == 10.0
    assert sweep[0].eps1 == pytest.approx(1.0, rel=1e-12)
    assert sweep[0].eps2 == pytest.approx(1 / 11, rel=1e-12)
    assert sweep[-1].eps1 == pytest.approx(1 / 11, rel=1e-12)
    assert sweep[-1].eps2 == pytest.approx(1.0, rel=1e-12)

    eps1 = [s.eps1 for s in sweep]
    eps2 = [s.eps2 for s in sweep]
    assert all(a > b for a, b in zip(eps1, eps1[1:]))
    assert all(a < b for a, b in zip(eps2, eps2[1:]))

    for endpoint in (sweep[0], sweep[-1]):
        assert endpoint.deps1 is None
        assert endpoint.discriminant is None
        assert endpoint.g_double_prime is None
    for sample in sweep[1:-1]:
        assert sample.deps1 is not None and sample.deps1 < 0
        assert sample.deps2 is not None and sample.deps2 > 0
        assert sample.discriminant is not None
        assert sample.g_prime is not None and sample.g_prime < 0

    with pytest.raises(ValueError):
        boundary_sweep(E1, E2, UNIT, samples=2)


def test_g_prime_matches_cubic_fit_through_sweep():
    rng = np.random.default_rng(18)
    for _ in range(5):
        h1, h2 = random_pair(rng)
        config = random_config(rng)
        sweep = boundary_sweep(h1, h2, config, samples=201)
        for i in (60, 100, 140):
            window = sweep[i - 3:i + 4]
            xs = np.array([s.eps1 for s in window])
            ys = np.array([s.eps2 for s in window])
            coeffs = np.polyfit(xs - xs[3], ys, 3)
            assert sweep[i].g_prime == pytest.approx(coeffs[2], rel=1e-3)


def test_diagonal_sweep_curvature_nonnegative():
    sweep = boundary_sweep(E1, E2, UNIT, samples=101)
    assert all(s.g_double_prime >= 0.0 for s in sweep[1:-1])


def test_certificate_random_and_colinear():
    rng = np.random.default_rng(16)
    for _ in range(10):
        h1, h2 = random_pair(rng, int(rng.integers(1, 4)))
        config = random_config(rng)
        report = convexity_certificate(h1, h2, config)
        assert report.certified
        assert report.classification is BoundaryClass.STRICTLY_CONVEX
        assert report.worst_discriminant <= 0.0
        assert 0.0 < report.worst_p < config.power_budget

    h1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    report = convexity_certificate(h1, 1.5j * h1, UNIT)
    assert report.certified
    assert report.classification is BoundaryClass.AFFINE
    assert report.worst_discriminant <= 0.0

    as_dict = to_jsonable(report)
    assert as_dict["classification"] == "Affine"
    assert set(as_dict) == {"certified", "classification", "worst_discriminant", "worst_p"}

    # low noise, scalar channels
    low_noise = SystemConfig(noise_variance=1e-3, power_budget=0.02)
    pairs = _scan_pairs(np.random.default_rng(1), 1000, 1, False)
    assert all(report.certified for report in convexity_certificates(pairs, low_noise))


def test_power_split_validation():
    with pytest.raises(ValueError):
        coupling_bundle(E1, E2, UNIT, -0.1)
    with pytest.raises(ValueError):
        coupling_bundle(E1, E2, UNIT, 10.1)
    with pytest.raises(ValueError):
        mse_pair_at_power(E1, E2, UNIT, 10.0 + 1e-6)
    with pytest.raises(ValueError):
        boundary_sweep(E1, np.array([1.0, 0.0, 0.0]), UNIT)


def test_mse_pair_matches_model_path():
    rng = np.random.default_rng(17)
    h1, h2 = random_pair(rng, 4)
    config = random_config(rng)
    p = float(rng.uniform(0, config.power_budget))
    pair = mse_pair_at_power(h1, h2, config, p)
    full = mse_tuple(np.column_stack([h1, h2]), [p, config.power_budget - p],
                     config).values
    assert pair[0] == pytest.approx(full[0], rel=1e-12)
    assert pair[1] == pytest.approx(full[1], rel=1e-12)


def _bits(report):
    """Every field of a report, floats by their exact repr."""
    return tuple(repr(value) for value in to_jsonable(report).values())


def _mixed_pairs(rng, trials: int, dim: int) -> np.ndarray:
    """General, colinear, near-colinear and unequal-gain pairs in one stack."""
    pairs = rng.standard_normal((trials, dim, 2)) + 1j * rng.standard_normal((trials, dim, 2))
    pairs[1::4, :, 1] = (0.3 - 1.7j) * pairs[1::4, :, 0]
    pairs[2::4, :, 1] = pairs[2::4, :, 0] * (1 + 1e-6) + 1e-7 * pairs[2::4, :, 1]
    pairs[3::4, :, 1] *= 1e-2
    return pairs


def _unitary(rng, dim: int) -> np.ndarray:
    return np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]


def test_labels_agree_and_are_rotation_invariant():
    # one rule labels a pair: colinearity_classify and the certificates read
    # the same d of R, and Q H has the same d for every unitary Q
    rng = np.random.default_rng(24)
    for dim in range(1, 9):
        pairs = _mixed_pairs(rng, 12, dim)
        labels = [r.classification for r in convexity_certificates(pairs, UNIT)]
        assert labels == [colinearity_classify(h[:, 0], h[:, 1]) for h in pairs], dim
        rotated = convexity_certificates(_unitary(rng, dim) @ pairs, UNIT)
        assert [r.classification for r in rotated] == labels, dim
        # the colinear and near-colinear rows, and every scalar pair
        affine = [t for t, label in enumerate(labels) if label is BoundaryClass.AFFINE]
        assert affine == [t for t in range(12) if dim == 1 or t % 4 in (1, 2)], dim


def test_certificates_reject_invalid_stacks():
    pairs = _mixed_pairs(np.random.default_rng(19), 4, 3)
    bad = pairs.copy()
    bad[2, 1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        convexity_certificates(bad, UNIT)
    bad = pairs.copy()
    bad[3, :, 1] = 0.0
    with pytest.raises(ValueError, match="all-zero"):
        convexity_certificates(bad, UNIT)
    with pytest.raises(ValueError):
        convexity_certificates(pairs[:, :, :1], UNIT)
    with pytest.raises(ValueError):
        convexity_certificates(pairs[:, :0], UNIT)
    with pytest.raises(ValueError, match="length mismatch"):
        convexity_certificate(pairs[0, :, 0], pairs[0, :2, 1], UNIT)


def test_certificate_blocks_are_bitwise_invariant():
    # a pair's report does not depend on the stack it is certified in
    pairs = _mixed_pairs(np.random.default_rng(20), 9, 4)
    config = SystemConfig(noise_variance=0.5, power_budget=300.0)
    stacked = convexity_certificates(pairs, config)
    for t in range(9):
        single = convexity_certificate(pairs[t, :, 0], pairs[t, :, 1], config)
        assert _bits(single) == _bits(stacked[t])


def test_scan_is_the_sequence_of_its_reports():
    # the certificates are (T,) read-only columns; length, indices, slices
    # and iteration build the reports the former sweep returned, bitwise
    pairs = _mixed_pairs(np.random.default_rng(22), 9, 3)
    config = SystemConfig(noise_variance=0.5, power_budget=300.0)
    scan = convexity_certificates(pairs, config)
    former, _ = _former_certificates(pairs, config, 101)
    assert isinstance(scan, boundary.ConvexityScan) and len(scan) == 9
    for name in ("certified", "affine", "worst_discriminant", "worst_p"):
        column = getattr(scan, name)
        assert column.shape == (9,) and not column.flags.writeable, name
    assert list(scan) == former
    assert [_bits(r) for r in scan] == [_bits(r) for r in former]
    assert [_bits(scan[t]) for t in range(-9, 9)] == [_bits(r) for r in former + former]
    for part in (slice(2, 7, 2), slice(None, None, -1), slice(-3, None), slice(9, None)):
        assert [_bits(r) for r in scan[part]] == [_bits(r) for r in former[part]], part
    for index in (9, -10):
        with pytest.raises(IndexError):
            scan[index]


def test_certificates_on_reduced_pairs_match_raw_grams():
    # the closed forms against the K-user kernel on the raw N x 2 pairs,
    # whose N x N covariances X lose up to cond(X) <= 1 + P max|h|^2 / sigma^2
    # ulps: Gram entries agree within 16 cond(X) eps of sqrt(x_ii x_jj),
    # MSEs within 16 cond(X) eps absolute (the kernel's 1 - p a cancels),
    # and D within DISCRIMINANT_SLACK of the derivative scale (measured
    # worst: 6 cond(X) eps, 1.5 cond(X) eps and 1.8e-10)
    rng = np.random.default_rng(21)
    for dim in range(1, 9):
        pairs = _mixed_pairs(rng, 8, dim)
        norms = (np.abs(pairs) ** 2).sum(axis=1).max(axis=1)
        for snr in 10.0 ** np.arange(-2, 7):
            config = SystemConfig(noise_variance=1.0, power_budget=float(snr))
            ps = np.linspace(0.0, config.power_budget, 41)
            data = boundary._SweepData(boundary._pairs(pairs), config, ps)
            powers = np.broadcast_to(np.stack([ps, snr - ps], axis=-1), (8, 41, 2))
            gram_a, gram_b = second_order_grams(pairs[:, None], powers, config)
            bound = 16.0 * np.finfo(float).eps * (1.0 + snr * norms[:, None])
            where = (dim, snr)
            for name, gram in (("a", gram_a), ("b", gram_b)):
                d11, d22, off = (getattr(data, name + ij) for ij in ("11", "22", "12"))
                assert (np.abs(d11 - gram[..., 0, 0].real) <= bound * d11).all(), (where, name)
                assert (np.abs(d22 - gram[..., 1, 1].real) <= bound * d22).all(), (where, name)
                assert (np.abs(off - gram[..., 0, 1])
                        <= bound * np.sqrt(d11 * d22)).all(), (where, name)
            assert (np.abs(data.eps1 - (1.0 - ps * gram_a[..., 0, 0].real)) <= bound).all(), where
            assert (np.abs(data.eps2 - (1.0 - (snr - ps) * gram_a[..., 1, 1].real))
                    <= bound).all(), where
            disc = boundary._derivatives(
                gram_a[..., 0, 0].real, gram_a[..., 1, 1].real, gram_a[..., 0, 1],
                gram_b[..., 0, 0].real, gram_b[..., 1, 1].real, gram_b[..., 0, 1],
                config.noise_variance, config.power_budget)[4]
            inner = slice(1, -1)
            scale = np.abs(data.ddeps2 * data.deps1) + np.abs(data.ddeps1 * data.deps2)
            assert (np.abs(data.disc - disc)[:, inner]
                    <= DISCRIMINANT_SLACK * scale[:, inner]).all(), where
            assert (data.disc <= 0.0).all(), where
        reports = convexity_certificates(pairs, UNIT)
        assert [r.classification for r in reports[1::4]] == [BoundaryClass.AFFINE] * 2


def test_k_user_kernel_reproduces_the_two_user_discriminant():
    # along the face direction z = (1, -1) at the split (p, P - p) the kernel
    # gives eps' = J z, and with the boundary normal w = (eps2', -eps1') >= 0
    # z^T H_w z = eps2' eps1'' - eps1' eps2'' = -D: the sweep's D from the
    # K-user Jacobian and weighted Hessian, sharing no code with `boundary`.
    # N = 1 pairs have D = -0.0, so the bound scales with the two products
    # (measured worst: 1.3e-12 of them)
    rng = np.random.default_rng(18)
    face = np.array([1.0, -1.0])
    for _ in range(200):
        dim = int(rng.integers(1, 5))
        mat = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
        config = SystemConfig(noise_variance=1.0, power_budget=float(10.0 ** rng.uniform(-1, 3)))
        for sample in boundary_sweep(mat[:, 0], mat[:, 1], config, samples=5)[1:-1]:
            powers = np.array([sample.p, config.power_budget - sample.p])
            deps1, deps2 = mse_jacobian(mat, powers, config)[1] @ face
            assert deps1 < 0.0 < deps2, (dim, config, sample.p)
            hess = weighted_mse_derivatives(mat, powers, config, [deps2, -deps1])[2]
            scale = abs(sample.deps2 * sample.ddeps1) + abs(sample.deps1 * sample.ddeps2)
            assert abs(face @ hess @ face + sample.discriminant) <= 1e-10 * scale, \
                (dim, config, sample.p)


def _exact_boundary(h1, h2, config, p):
    """(eps1, eps2, D, derivative scale) at split p from a 60-digit dense
    inverse of the N x N covariance."""
    with mpmath.workdps(60):
        col1, col2 = mpmath.matrix(h1.tolist()), mpmath.matrix(h2.tolist())
        budget, split = mpmath.mpf(config.power_budget), mpmath.mpf(p)
        cov = config.noise_variance * mpmath.eye(h1.size) \
            + split * col1 * col1.H + (budget - split) * col2 * col2.H
        inv = cov ** -1
        inv2 = inv * inv
        grams = [(u.H * m * v)[0] for m in (inv, inv2) for u, v in
                 ((col1, col1), (col2, col2), (col1, col2))]
        a11, a22, a12, b11, b22, b12 = grams
        d1, d2, dd1, dd2, disc, _ = boundary._derivatives(
            a11.real, a22.real, a12, b11.real, b22.real, b12,
            mpmath.mpf(config.noise_variance), budget)
        return (1 - split * a11.real, 1 - (budget - split) * a22.real, disc,
                abs(dd2 * d1) + abs(dd1 * d2))


def test_discriminant_on_reduced_pair_matches_high_precision_oracle():
    # |h|^2 ~ 1.5e7 and P / sigma^2 = 1e6: evaluated on the raw 6 x 6
    # covariance, the discriminant is off by 5e-7..1.6e-6 of the
    # derivative scale at these splits
    rng = np.random.default_rng(22)
    h1, h2 = (1e3 * h for h in random_pair(rng, 6))
    config = SystemConfig(noise_variance=1.0, power_budget=1e6)
    for p in np.linspace(0.0, config.power_budget, 9)[1:-1]:
        bundle = coupling_bundle(h1, h2, config, p)
        disc, _ = convexity_discriminant(bundle, config)
        d1, d2 = mse_first_derivatives(bundle, config)
        dd1, dd2 = mse_second_derivatives(bundle, config)
        scale = abs(dd2 * d1) + abs(dd1 * d2)
        assert abs(disc - float(_exact_boundary(h1, h2, config, p)[2])) <= 1e-12 * scale, p


def test_closed_forms_match_high_precision_oracle_at_high_snr():
    # 1 - p a cancels at high SNR: the kernel's MSEs are off by up to 1.0
    # at P / sigma^2 = 1e15 (the random 4 x 2 pair's come out <= 0); the
    # closed forms have no subtraction
    pairs = {
        "orthogonal 2x2": (E1, E2),
        "random 4x2": random_pair(np.random.default_rng(21), 4),
        "near-colinear": (E1, np.array([1.0, 1e-6], dtype=complex)),
    }
    for snr in (1e6, 1e9, 1e12, 1e15):
        config = SystemConfig(noise_variance=1.0, power_budget=snr)
        for name, (h1, h2) in pairs.items():
            for s in boundary_sweep(h1, h2, config, samples=9):
                where = (name, snr, s.p)
                eps1, eps2, disc, scale = _exact_boundary(h1, h2, config, s.p)
                assert mse_pair_at_power(h1, h2, config, s.p) == (s.eps1, s.eps2), where
                assert abs(s.eps1 - eps1) <= 1e-14 * eps1, where
                assert abs(s.eps2 - eps2) <= 1e-14 * eps2, where
                if s.discriminant is not None:
                    assert abs(s.discriminant - disc) <= 1e-12 * scale, where


def test_extreme_snr_scans_stay_in_float_range():
    # Delta grows like (P/sigma^2)^2: Delta^3 leaves float64 from ~1e52 and
    # Delta^2 from ~1e77, Delta itself only near 1e154, past which the
    # closed forms raise
    pairs = _scan_pairs(np.random.default_rng(1), 200, 4, False)
    for snr in (1e60, 1e75, 1e100, 1e140):
        config = SystemConfig(noise_variance=1.0, power_budget=snr)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = convexity_certificates(pairs, config)
        assert all(r.certified for r in reports), snr

    config = SystemConfig(noise_variance=1.0, power_budget=1e60)
    reports = convexity_certificates(pairs, config)
    worst = max(range(len(reports)), key=lambda t: reports[t].worst_discriminant)
    with mpmath.workdps(60):
        h1, h2 = (mpmath.matrix(col.tolist()) for col in pairs[worst].T)
        n1, n2, c = (h1.H * h1)[0].real, (h2.H * h2)[0].real, (h1.H * h2)[0]
        d = n1 * n2 - abs(c) ** 2
        budget, p = mpmath.mpf(config.power_budget), mpmath.mpf(reports[worst].worst_p)
        delta = 1 + p * n1 + (budget - p) * n2 + p * (budget - p) * d
        exact = -2 * d * (budget * n1 * n2 + n1 + n2) / delta ** 3
    assert reports[worst].worst_discriminant < 0.0
    assert abs(reports[worst].worst_discriminant - float(exact)) <= 1e-12 * abs(float(exact))

    h1, h2 = pairs[0].T
    for snr in (1e160, 1e200):
        config = SystemConfig(noise_variance=1.0, power_budget=snr)
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="P/sigma\\^2"):
                convexity_certificates(pairs, config)
            with pytest.raises(ValueError, match="P/sigma\\^2"):
                boundary_sweep(h1, h2, config)


def _scalar_g_double_prime(h1, h2, config, p):
    """g'' = D / eps1'^3 at split p in 400-digit arithmetic from the pair's
    scalars: the Gram entries of the module docstring's closed forms, and D
    the product difference eps2'' eps1' - eps1'' eps2' (a 60-digit dense
    inverse of an N > 2 covariance is singular at these SNRs)."""
    with mpmath.workdps(400):
        u, v = mpmath.matrix(h1.tolist()), mpmath.matrix(h2.tolist())
        n1, n2, csq = (u.H * u)[0].real, (v.H * v)[0].real, abs((u.H * v)[0]) ** 2
        sig2, budget, split = (mpmath.mpf(x) for x in (config.noise_variance, config.power_budget, p))
        (a11, a22, b11, b22, cross, re_ab, _), _ = _exact_grams(n1, n2, csq, sig2, budget, split)
        d1, d2 = boundary._slopes(b11, b22, cross, sig2, budget)
        dd1, dd2 = boundary._curvatures(a11, a22, b11, b22, cross, re_ab, sig2, budget)
        return (dd2 * d1 - dd1 * d2) / d1 ** 3


def test_g_double_prime_stays_in_float_range_at_extreme_snr():
    # eps1'^3 underflows from P/sigma^2 ~ 1e54 and D from ~ 1e65, while g''
    # grows like P/sigma^2: it is formed as (2 d W / sigma^2) (Delta / E1)^3,
    # in the sweep as at one split (the low SNRs check every term of E1)
    pairs = {"2x2": (np.array([1.0, 0.3], dtype=complex), np.array([0.2, 1.0], dtype=complex)),
             "random 4x2": random_pair(np.random.default_rng(21), 4)}
    for snr in (1e-2, 1.0, 1e3, 1e60, 1e65, 1e100, 1e150):
        config = SystemConfig(noise_variance=1.0, power_budget=snr)
        for name, (h1, h2) in pairs.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                sweep = boundary_sweep(h1, h2, config, samples=5)
                singles = [g_derivatives(h1, h2, config, s.p)[1] for s in sweep[1:-1]]
            for s, single in zip(sweep[1:-1], singles):
                where = (name, snr, s.p)
                exact = float(_scalar_g_double_prime(h1, h2, config, s.p))
                assert np.isfinite(s.g_double_prime) and single == s.g_double_prime, where
                assert abs(s.g_double_prime - exact) <= 1e-13 * exact, where


def _cs_holds(lhs, rhs):
    """lhs <= rhs up to rounding, as the former sweep checked Cauchy-Schwarz."""
    return lhs <= rhs * (1.0 + 1e-12) + CAUCHY_SCHWARZ_SLACK


def _former_certificates(pairs, config, grid):
    """The reports of the former all-at-once sweep, kept as the reference:
    complex a12 and b12, every (T, G) quantity held at once.  Returns the
    reports and, per pair, the (Cauchy-Schwarz, summands, monotonicity)
    flags that sweep checked on the grid."""
    sig2, budget = config.noise_variance, config.power_budget
    sig4 = sig2 ** 2
    ps = np.linspace(0.0, budget, grid)[1:-1]
    n1, n2, c, d = (v[:, None] for v in boundary._pair_scalars(pairs))

    def delta(p):
        return sig4 + sig2 * (p * n1 + (budget - p) * n2) + p * (budget - p) * d

    p, q = ps, budget - ps
    den = delta(ps)
    a11 = (sig2 * n1 + q * d) / den
    a22 = (sig2 * n2 + p * d) / den
    a12 = sig2 * c / den
    b11 = (sig4 * n1 + 2.0 * sig2 * q * d + q ** 2 * n2 * d) / den / den
    b22 = (sig4 * n2 + 2.0 * sig2 * p * d + p ** 2 * n1 * d) / den / den
    b12 = c * (sig4 - p * q * d) / den / den
    absa12sq, re_ab = a12.real ** 2 + a12.imag ** 2, (a12 * np.conj(b12)).real
    absb12sq = b12.real ** 2 + b12.imag ** 2
    deps1 = -sig2 * b11 - budget * absa12sq
    deps2 = sig2 * b22 + budget * absa12sq
    ddeps1 = 2.0 * sig2 * (a11 * b11 - re_ab) + 2.0 * budget * absa12sq * (a11 - a22)
    ddeps2 = 2.0 * sig2 * (a22 * b22 - re_ab) + 2.0 * budget * absa12sq * (a22 - a11)
    summands = np.stack([
        2.0 * sig2 * budget * absa12sq * (2.0 * re_ab - a22 * b11 - a11 * b22),
        2.0 * sig2 ** 2 * b11 * (re_ab - a11 * b22),
        2.0 * sig2 ** 2 * b22 * (re_ab - a22 * b11),
    ], axis=-1)
    floor = (4.0 * np.finfo(float).eps * pairs.shape[1]) ** 2 * n1 * n2
    resolved = np.where(d > floor, d, 0.0)
    disc = -2.0 * sig4 * resolved * (budget * n1 * n2 + sig2 * (n1 + n2)) / den / den / den
    scale = np.abs(ddeps2 * deps1) + np.abs(ddeps1 * deps2)
    assert np.isfinite(den).all() and np.isfinite(scale).all() and np.isfinite(disc).all()
    proven = ((d >= 0.0) & (delta(0.0) > 0.0) & (delta(budget) > 0.0))[:, 0]

    slack = DISCRIMINANT_SLACK * scale
    summands_ok = (summands <= slack[..., None]).all(axis=(1, 2))
    mono_ok = (deps1 < 0.0).all(axis=1) & (deps2 > 0.0).all(axis=1)
    holds = _cs_holds
    cs_gram = holds(absa12sq, a11 * a22) & holds(absb12sq, b11 * b22)
    link0, link1 = 4.0 * re_ab ** 2, 4.0 * absa12sq * absb12sq
    link2, link3 = 4.0 * (a11 * a22) * (b11 * b22), (a22 * b11 + a11 * b22) ** 2
    cs_ok = (cs_gram & holds(link0, link1) & holds(link1, link2) & holds(link2, link3)).all(axis=1)
    worst = np.argmax(disc, axis=1)
    worst_disc = np.take_along_axis(disc, worst[:, None], axis=1)[:, 0]
    reports = [boundary.ConvexityReport(bool(proven[t]), label, float(worst_disc[t]),
                                        float(ps[worst[t]]))
               for t, label in enumerate(boundary._classes(n1, n2, d))]
    return reports, list(zip(cs_ok.tolist(), summands_ok.tolist(), mono_ok.tolist()))


def test_certificates_match_the_former_sweep_bitwise():
    # `certified` is the closed-form proof and only Delta and D are formed on
    # the grid; every report field keeps the bits of the former sweep, and
    # each flag that sweep checked on the grid (Cauchy-Schwarz, summand
    # signs, monotonicity) equals `certified`
    snrs = (1e-2, 1e-1, 1.0, 1e2, 1e4, 1e6, 1e9, 1e15, 1e40, 1e60, 1e100, 1e140)
    configs = [SystemConfig(noise_variance=1.0, power_budget=snr) for snr in snrs]
    configs.append(SystemConfig(noise_variance=1e-3, power_budget=0.02))
    scaled = [SystemConfig(noise_variance=sig2, power_budget=sig2 * snr)
              for sig2 in (1e-3, 10.0) for snr in (1e-2, 1.0, 1e6, 1e15, 1e140)]
    for dim in range(1, 9):
        stacks = [(_scan_pairs(np.random.default_rng(dim), 120, dim, colinear), configs + scaled)
                  for colinear in (False, True)]
        stacks.append((_mixed_pairs(np.random.default_rng(100 + dim), 32, dim), configs + scaled))
        for pairs, panel in stacks:
            for config in panel:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = convexity_certificates(pairs, config)
                expected, flags = _former_certificates(pairs, config, 101)
                assert [_bits(r) for r in got] == [_bits(r) for r in expected], (dim, config)
                assert flags == [(r.certified,) * 3 for r in got], (dim, config)


def test_certificate_working_set_is_a_few_arrays():
    # a (300, 8, 2) stack at grid 101 is 300 x 99 splits, 0.24 MB per (T, G)
    # float array: only Delta, D and their temporaries are formed (0.81 MB
    # at the peak; checking the flags on the grid took 3.66 MB, and the
    # sweep that held every quantity at once 7.75 MB)
    pairs = _scan_pairs(np.random.default_rng(1), 300, 8, False)
    config = SystemConfig(noise_variance=1.0, power_budget=100.0)
    tracemalloc.start()
    try:
        convexity_certificates(pairs, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, peak


# eps' of the probe slice that the sweep returns off by more than 1e-12:
# in 372798 |a12|^2 is below the smallest normal float64, while P |a12|^2
# is normal and keeps 11 digits (eps' below it raises, by the range rule)
SLICE_LOSSES = {372798: ("deps1",)}
# cases of the slice on which the closed forms raise the range ValueError
SLICE_RAISED = 1536


def test_closed_forms_hold_twelve_digits_on_the_probe_slice():
    # the Tier-1 slice of tests/closed_form_probe.py (3614 table cases and
    # the five of PROBE_CASES): every returned a11, a22, b11, b22, a12 and
    # b12 within 1e-12 of 60-digit closed forms from the same floats, and
    # eps' too, except the pinned losses; the raise edge is pinned as a count
    returned, raised, _, off = closed_form_probe.slice_tally()
    assert len(raised) == SLICE_RAISED, len(raised)
    lost = {label: tuple(name for name in closed_form_probe.GATED
                         if errors[name] > closed_form_probe.RTOL) for label, errors in off}
    assert lost == SLICE_LOSSES, lost
    assert returned + len(raised) == 3619


# cases of the endpoint slice (every SLICE_STRIDE-th case of the probe's
# p = 0 and p = P table) on which the split readers raise the range ValueError
ENDPOINT_SLICE_RAISED = 730


def test_split_readers_hold_twelve_digits_at_the_endpoint_splits():
    # the probe's endpoint slice, 1446 cases: mse_pair_at_power,
    # coupling_bundle and closed_form_ratios raise together or return
    # together, and every value they return is within 1e-12 of its 60-digit
    # closed form; the raise edge is pinned as a count
    returned, raised, _, off = closed_form_probe.endpoint_slice_tally()
    assert len(raised) == ENDPOINT_SLICE_RAISED, len(raised)
    assert off == [], [label for label, _ in off]
    assert returned + len(raised) == 1446


def test_probe_slice_returns_finite_g_derivatives_within_twelve_digits():
    # g' and g'' are checked sweep values: every case of the slice that
    # returns has both finite, and g'' within 1e-12 of its 60-digit closed
    # form with the d the sweep uses
    _, _, worst, _ = closed_form_probe.slice_tally()
    assert worst["g_prime"] < np.inf, worst
    assert worst["g_double_prime"] <= closed_form_probe.RTOL, worst


def test_g_double_prime_stays_finite_where_two_d_w_over_sigma2_overflows():
    # the probe's general N = 2 pair at |h1| = |h2| = 1e20, sigma^2 = 1e-70,
    # P = 1e80: 2 d W / sigma^2 ~ 1e310 alone, while g'' ~ 1e199
    probe = closed_form_probe
    row = probe.DIMS.index(2) * len(probe.KINDS) + probe.KINDS.index("general")
    h1, h2 = probe.pairs()[row * len(probe.SCALES) + probe.SCALES.index((1e20, 1e20))]
    config = SystemConfig(noise_variance=1e-70, power_budget=1e80)
    split = 0.999 * config.power_budget
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = g_derivatives(h1, h2, config, split)
    n1, n2, c, d = (v[0] for v in boundary._pair_scalars(boundary._pair(h1, h2)))
    want = probe.reference(n1, n2, c, d, config.noise_variance, config.power_budget, split,
                           config.power_budget - split, d)
    for value, name in zip(got, ("g_prime", "g_double_prime")):
        assert np.isfinite(value), name
        with mpmath.workdps(60):
            assert abs(value - want[name]) <= 1e-13 * abs(want[name]), (name, value)


def test_endpoint_splits_form_no_slopes():
    # orthogonal unit pair at sigma^2 = 1, P = 1e80: at p = P, E1 = sigma^4 n1
    # and g'' ~ 2 d (P / sigma^2)^4 would overflow, but no reader returns a
    # slope there, so the sweep's interior cells and the split readers at
    # both ends return finite values, with warnings as errors
    config = SystemConfig(noise_variance=1.0, power_budget=1e80)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        samples = boundary_sweep(E1, E2, config)
        ends = [(mse_pair_at_power(E1, E2, config, p), coupling_bundle(E1, E2, config, p),
                 closed_form_ratios(E1, E2, config, p)) for p in (0.0, config.power_budget)]
    assert ends[1][0] == (1e-80, 1.0)
    assert ends[0][0] == (1.0, 1e-80)
    cells = [getattr(s, f.name) for s in samples[1:-1] for f in dataclasses.fields(s)]
    assert np.isfinite(cells).all()


def test_readers_without_slopes_keep_the_slopes_range_rule_out():
    # the probe's general N = 2 unit pair at sigma^2 = 1e-100, P = 1e120:
    # eps1' ~ -1e-340 is subnormal, so the sweep and g_derivatives raise,
    # while the MSEs, ratios and Gram entries are normal and return
    probe = closed_form_probe
    row = probe.DIMS.index(2) * len(probe.KINDS) + probe.KINDS.index("general")
    h1, h2 = probe.pairs()[row * len(probe.SCALES) + probe.SCALES.index((1.0, 1.0))]
    config = SystemConfig(noise_variance=1e-100, power_budget=1e120)
    split = 0.5 * config.power_budget
    tiny = np.finfo(float).tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert min(mse_pair_at_power(h1, h2, config, split)) >= tiny
        assert closed_form_ratios(h1, h2, config, split)[2] <= 1.0
        assert coupling_bundle(h1, h2, config, split).b11 >= tiny
        for reader in (lambda: g_derivatives(h1, h2, config, split),
                       lambda: boundary_sweep(h1, h2, config, samples=5)):
            with pytest.raises(ValueError, match="leave the float64 range"):
                reader()
