"""Two-user boundary calculus.

With p1 = p and p2 = q = P - p the full budget stays active and the MSE
pair (eps1, eps2) traces the lower-left boundary eps2 = g(eps1) of the
two-user region as p sweeps [0, P].  This module evaluates the exact
first and second derivatives of both MSEs in p, the convexity
discriminant

    D(p) = eps2'' eps1' - eps1'' eps2',

its three-term decomposition (each term nonpositive), the closed-form
coupling ratios whose Cauchy-Schwarz bounds drive that sign argument,
and the affine special case that arises for colinear channels
h2 = alpha h1.

Every evaluation takes a (T, N, 2) stack of channel pairs, a single pair
being a stack of one, and depends on a pair only through four scalars
of its triangular factor R (`model._triangular_factor`): n1 = |h1|^2,
n2 = |h2|^2, c = h1^H h2 and d = |det R|^2, which is 0 at N = 1.  In
exact arithmetic d = n1 n2 - |c|^2; taken from R it is >= 0 by
construction.  With X(p) the receive covariance, a_ij = h_i^H X^{-1} h_j
and b_ij = h_i^H X^{-2} h_j:

    Delta  = sigma^4 + sigma^2 (p n1 + q n2) + p q d     (no term negative)
    eps1   = sigma^2 (sigma^2 + q n2) / Delta
    eps2   = sigma^2 (sigma^2 + p n1) / Delta
    a11    = (sigma^2 n1 + q d) / Delta
    a22    = (sigma^2 n2 + p d) / Delta
    a12    = sigma^2 c / Delta
    b11    = (sigma^4 n1 + 2 sigma^2 q d + q^2 n2 d) / Delta^2
    b22    = (sigma^4 n2 + 2 sigma^2 p d + p^2 n1 d) / Delta^2
    b12    = c (sigma^4 - p q d) / Delta^2
    eps1'  = -sigma^2 b11 - P |a12|^2
    eps2'  = +sigma^2 b22 + P |a12|^2
    eps1'' = 2 sigma^2 (a11 b11 - Re{a12 b21}) + 2 P |a12|^2 (a11 - a22)
    eps2'' = 2 sigma^2 (a22 b22 - Re{a12 b21}) + 2 P |a12|^2 (a22 - a11)
    D      = -2 sigma^4 d (P n1 n2 + sigma^2 (n1 + n2)) / Delta^3

So D <= 0 on all of [0, P] once d >= 0 and Delta > 0 there, and Delta is
concave in p, so Delta > 0 at both ends covers the interval: that is the
two-user convexity theorem, and it is what a certificate's `certified`
checks.  D vanishes exactly for colinear pairs (d = 0), and is taken as
-0.0 where d is within its rounding floor (4 N eps)^2 n1 n2; a pair is
labelled affine where d <= COLINEARITY_RTOL n1 n2.  The three summands,
the Cauchy-Schwarz chain and monotonicity are checked on a grid of
splits as report flags.  The K-user kernel `model.resolvent_grams` is
the test suite's oracle for these forms.

Delta grows like (P/sigma^2)^2, so the b entries and D divide by Delta
one factor at a time; where a value still leaves the float64 range
(from P/sigma^2 ~ 1e153 for unit-variance channel entries) every evaluation
raises ValueError.
"""

from __future__ import annotations

import enum
from dataclasses import astuple, dataclass, fields
from typing import Optional

import numpy as np

from .model import SystemConfig, _checked_channels, _triangular_factor
from .tolerances import CAUCHY_SCHWARZ_ATOL, COLINEARITY_RTOL, DISCRIMINANT_RTOL

# d = |det R|^2 of N-antenna pairs is rounding below (4 N eps)^2 n1 n2: colinear
# pairs (d = 0) reach 24 eps^2 n1 n2 at N = 2..32, random ones stay above
# 1e-4 n1 n2 (5000 scan trials per N)
_DET_ROUNDING = 4.0 * np.finfo(float).eps

__all__ = [
    "BoundaryClass",
    "CouplingBundle",
    "BoundarySample",
    "ConvexityReport",
    "mse_pair_at_power",
    "coupling_bundle",
    "mse_first_derivatives",
    "mse_second_derivatives",
    "convexity_discriminant",
    "g_derivatives",
    "closed_form_ratios",
    "colinearity_classify",
    "affine_boundary",
    "boundary_sweep",
    "convexity_certificate",
    "convexity_certificates",
]


class BoundaryClass(enum.Enum):
    STRICTLY_CONVEX = "StrictlyConvex"
    AFFINE = "Affine"


@dataclass(frozen=True)
class CouplingBundle:
    """Quadratic forms at one power split p.

    a11, a22, a12 are entries of the X^{-1} Gram matrix, b11, b22, b12 of
    the X^{-2} Gram matrix.
    """

    a11: float
    a22: float
    a12: complex
    b11: float
    b22: float
    b12: complex


@dataclass(frozen=True)
class BoundarySample:
    """One sweep point; derivative fields are None at the endpoints."""

    p: float
    eps1: float
    eps2: float
    deps1: Optional[float]
    deps2: Optional[float]
    ddeps1: Optional[float]
    ddeps2: Optional[float]
    discriminant: Optional[float]
    g_prime: Optional[float]
    g_double_prime: Optional[float]


@dataclass(frozen=True)
class ConvexityReport:
    certified: bool
    classification: BoundaryClass
    worst_discriminant: float
    worst_p: float
    grid: int
    cauchy_schwarz_ok: bool
    summands_ok: bool
    monotonicity_ok: bool


def _pairs(pairs) -> np.ndarray:
    """A validated (T, N, 2) complex stack of two-user channel pairs."""
    stack = _checked_channels(pairs, ndim=3)
    if stack.shape[2] != 2:
        raise ValueError(f"channel pairs must have shape (T, N, 2), got {stack.shape}")
    return stack


def _pair(h1, h2) -> np.ndarray:
    """One channel pair as a validated stack of one, shape (1, N, 2)."""
    v1 = np.asarray(h1, dtype=np.complex128).reshape(-1)
    v2 = np.asarray(h2, dtype=np.complex128).reshape(-1)
    if v1.size != v2.size:
        raise ValueError(f"channel length mismatch: {v1.size} vs {v2.size}")
    return _pairs(np.column_stack([v1, v2])[None])


def _split(config: SystemConfig, p) -> np.ndarray:
    """The one power split p as a grid of one; requires 0 <= p <= P."""
    split = float(p)
    if not 0.0 <= split <= config.power_budget:
        raise ValueError(f"power split {split} outside [0, {config.power_budget}]")
    return np.array([split])


def _pair_scalars(pairs: np.ndarray):
    """(n1, n2, c, d) of each pair of a validated (T, N, 2) stack.

    Taken from the pair's triangular factor R, which is the pair itself
    when N <= 2: n_k = |h_k|^2, c = h1^H h2 and d = |det R|^2, zero when
    N = 1.  d is not formed as n1 n2 - |c|^2, which rounds to either sign
    for colinear pairs.
    """
    fac = _triangular_factor(pairs)
    n1, n2 = (fac.real ** 2 + fac.imag ** 2).sum(axis=1).T
    c = np.einsum("tn,tn->t", fac[:, :, 0].conj(), fac[:, :, 1])
    if fac.shape[1] == 1:
        return n1, n2, c, np.zeros_like(n1)
    det = fac[:, 0, 0] * fac[:, 1, 1] - fac[:, 0, 1] * fac[:, 1, 0]
    return n1, n2, c, det.real ** 2 + det.imag ** 2


def _classes(n1, n2, d) -> list:
    """Affine where d = |det R|^2 vanishes relative to n1 n2, else strictly convex."""
    return [BoundaryClass.AFFINE if flat else BoundaryClass.STRICTLY_CONVEX
            for flat in (d <= COLINEARITY_RTOL * n1 * n2).ravel()]


def _couplings(a12, b12):
    """(|a12|^2, Re{a12 b21}): the two cross terms of every derivative."""
    return a12.real ** 2 + a12.imag ** 2, (a12 * np.conj(b12)).real


def _derivatives(a11, a22, a12, b11, b22, b12, sig2, budget):
    """(eps1', eps2', eps1'', eps2'', D, summands) from the Gram entries.

    Works elementwise on arrays of power splits and on scalars alike;
    `summands` is the tuple of the three nonpositive terms that add up
    to D.
    """
    cross, re_ab = _couplings(a12, b12)
    deps1 = -sig2 * b11 - budget * cross
    deps2 = sig2 * b22 + budget * cross
    ddeps1 = 2.0 * sig2 * (a11 * b11 - re_ab) + 2.0 * budget * cross * (a11 - a22)
    ddeps2 = 2.0 * sig2 * (a22 * b22 - re_ab) + 2.0 * budget * cross * (a22 - a11)
    disc = ddeps2 * deps1 - ddeps1 * deps2
    summands = (
        2.0 * sig2 * budget * cross * (2.0 * re_ab - a22 * b11 - a11 * b22),
        2.0 * sig2 ** 2 * b11 * (re_ab - a11 * b22),
        2.0 * sig2 ** 2 * b22 * (re_ab - a22 * b11),
    )
    return deps1, deps2, ddeps1, ddeps2, disc, summands


def _bundle_derivatives(bundle: CouplingBundle, config: SystemConfig):
    return _derivatives(*astuple(bundle), config.noise_variance, config.power_budget)


def _cs_holds(lhs, rhs):
    """lhs <= rhs up to rounding, the one Cauchy-Schwarz comparison: relative
    slack, as the X^{-2} Gram entries scale like |h|^4 / sigma^8, plus an absolute one."""
    return lhs <= rhs * (1.0 + 1e-12) + CAUCHY_SCHWARZ_ATOL


class _SweepData:
    """Boundary quantities of T channel pairs over G power splits, as (T, G) arrays.

    Every entry comes from the closed forms of the module docstring on the
    pairs' four scalars; `summands` is (T, G, 3), `proven` is the (T,)
    mask of pairs with d >= 0 and Delta > 0 at p = 0 and p = P, which
    makes D <= 0 on all of [0, P], and `classes` the pairs' labels.
    Raises ValueError where Delta, D or a derivative is not finite.
    """

    __slots__ = (
        "a11", "a22", "a12", "b11", "b22", "b12", "eps1", "eps2",
        "deps1", "deps2", "ddeps1", "ddeps2", "disc", "summands", "scale",
        "re_ab", "absa12sq", "absb12sq", "proven", "classes",
    )

    def __init__(self, pairs: np.ndarray, config: SystemConfig, ps: np.ndarray):
        sig2, budget = config.noise_variance, config.power_budget
        sig4 = sig2 ** 2
        n1, n2, c, d = (v[:, None] for v in _pair_scalars(pairs))

        def delta(p):
            return sig4 + sig2 * (p * n1 + (budget - p) * n2) + p * (budget - p) * d

        p, q = ps, budget - ps
        den = delta(ps)
        # one factor of Delta at a time: Delta^2 and Delta^3 overflow from
        # P/sigma^2 ~ 1e77 and ~ 1e52, Delta itself only near 1e154
        self.a11 = (sig2 * n1 + q * d) / den
        self.a22 = (sig2 * n2 + p * d) / den
        self.a12 = sig2 * c / den
        self.b11 = (sig4 * n1 + 2.0 * sig2 * q * d + q ** 2 * n2 * d) / den / den
        self.b22 = (sig4 * n2 + 2.0 * sig2 * p * d + p ** 2 * n1 * d) / den / den
        self.b12 = c * (sig4 - p * q * d) / den / den
        self.eps1 = sig2 * (sig2 + q * n2) / den
        self.eps2 = sig2 * (sig2 + p * n1) / den
        self.absa12sq, self.re_ab = _couplings(self.a12, self.b12)
        self.absb12sq = self.b12.real ** 2 + self.b12.imag ** 2
        self.deps1, self.deps2, self.ddeps1, self.ddeps2, _, summands = _derivatives(
            self.a11, self.a22, self.a12, self.b11, self.b22, self.b12, sig2, budget)
        resolved = np.where(d > (_DET_ROUNDING * pairs.shape[1]) ** 2 * n1 * n2, d, 0.0)
        self.disc = -2.0 * sig4 * resolved * (budget * n1 * n2 + sig2 * (n1 + n2)) / den / den / den
        self.scale = np.abs(self.ddeps2 * self.deps1) + np.abs(self.ddeps1 * self.deps2)
        if not (np.isfinite(den).all() and np.isfinite(self.scale).all()
                and np.isfinite(self.disc).all()):
            raise ValueError(f"boundary closed forms leave the float64 range at "
                             f"P/sigma^2 = {config.snr:g}")
        self.summands = np.stack(summands, axis=-1)
        self.proven = ((d >= 0.0) & (delta(0.0) > 0.0) & (delta(budget) > 0.0))[:, 0]
        self.classes = _classes(n1, n2, d)

    def g_derivatives(self):
        """(g', g'') = (eps2' / eps1', D / eps1'^3) of the boundary eps2 = g(eps1)."""
        return self.deps2 / self.deps1, self.disc / self.deps1 ** 3


def mse_pair_at_power(h1, h2, config: SystemConfig, p: float):
    """(eps1, eps2) at powers (p, P - p); requires 0 <= p <= P."""
    data = _SweepData(_pair(h1, h2), config, _split(config, p))
    return float(data.eps1[0, 0]), float(data.eps2[0, 0])


def coupling_bundle(h1, h2, config: SystemConfig, p: float) -> CouplingBundle:
    """Evaluate all coupling quantities at power split p; validates the
    Cauchy-Schwarz invariants of both Gram matrices on the way out."""
    data = _SweepData(_pair(h1, h2), config, _split(config, p))
    bundle = CouplingBundle(*(getattr(data, f.name)[0, 0].item() for f in fields(CouplingBundle)))
    if min(bundle.a11, bundle.a22, bundle.b11, bundle.b22) <= 0.0:
        raise ArithmeticError("diagonal quadratic forms must be positive")
    if not _cs_holds(data.absa12sq[0, 0], bundle.a11 * bundle.a22):
        raise ArithmeticError("Cauchy-Schwarz violated for the X^{-1} Gram matrix")
    if not _cs_holds(data.absb12sq[0, 0], bundle.b11 * bundle.b22):
        raise ArithmeticError("Cauchy-Schwarz violated for the X^{-2} Gram matrix")
    return bundle


def mse_first_derivatives(bundle: CouplingBundle, config: SystemConfig):
    """(d eps1 / dp, d eps2 / dp); always of opposite, fixed sign."""
    return tuple(map(float, _bundle_derivatives(bundle, config)[:2]))


def mse_second_derivatives(bundle: CouplingBundle, config: SystemConfig):
    """(d^2 eps1 / dp^2, d^2 eps2 / dp^2)."""
    return tuple(map(float, _bundle_derivatives(bundle, config)[2:4]))


def convexity_discriminant(bundle: CouplingBundle, config: SystemConfig):
    """D = eps2'' eps1' - eps1'' eps2' and its three nonpositive summands.

    Returns (value, summands) where value is the direct product difference
    and summands the decomposition; their sum reproduces value to 1e-10
    relative to the derivative scale.
    """
    *_, value, summands = _bundle_derivatives(bundle, config)
    return float(value), np.array(summands)


def g_derivatives(h1, h2, config: SystemConfig, p: float):
    """(g', g'') of the boundary eps2 = g(eps1) at an interior split.

    g' = eps2'/eps1' < 0 and g'' = D / eps1'^3 >= 0, with D in closed form:
    the values `boundary_sweep` reports at that split.  Endpoints are
    rejected because the parameterization derivative vanishes there in
    the chain rule denominators only up to one-sided limits.
    """
    split = float(p)
    if not 0.0 < split < config.power_budget:
        raise ValueError(f"g derivatives need an interior split, got p={split}")
    g_prime, g_dprime = _SweepData(_pair(h1, h2), config, np.array([split])).g_derivatives()
    return float(g_prime[0, 0]), float(g_dprime[0, 0])


def closed_form_ratios(h1, h2, config: SystemConfig, p: float):
    """a12/a11 and b21/b22 at split p, from the closed forms of the module
    docstring, plus their real product, which is checked to be real with
    Re <= 1 + 1e-10."""
    data = _SweepData(_pair(h1, h2), config, _split(config, p))
    a11, a12, b22, b12 = (v[0, 0].item() for v in (data.a11, data.a12, data.b22, data.b12))
    ratio_a, ratio_b = a12 / a11, b12.conjugate() / b22
    product = ratio_a * ratio_b
    if abs(product.imag) > 1e-10:
        raise ArithmeticError(f"ratio product has imaginary part {product.imag}")
    product_check = float(product.real)
    if product_check > 1.0 + 1e-10:
        raise ArithmeticError(f"ratio product {product_check} exceeds 1")
    return ratio_a, ratio_b, product_check


def colinearity_classify(h1, h2) -> BoundaryClass:
    """Affine iff d = |det R|^2 vanishes relative to |h1|^2 |h2|^2
    (threshold 1e-12), else strictly convex."""
    n1, n2, _, d = _pair_scalars(_pair(h1, h2))
    return _classes(n1, n2, d)[0]


def affine_boundary(h1, alpha, config: SystemConfig):
    """(slope, intercept, eps_min1) of the boundary line for h2 = alpha h1.

    g(eps1) = slope * eps1 + intercept over [eps_min1, 1], with
    g(1) = eps_min2 and g(eps_min1) = 1.
    """
    vec = np.asarray(h1, dtype=np.complex128).reshape(-1)
    scalar = complex(alpha)
    if scalar == 0:
        raise ValueError("colinearity factor alpha must be nonzero")
    n1 = float(np.linalg.norm(vec) ** 2)
    if n1 == 0.0:
        raise ValueError("h1 must be nonzero")
    gamma = config.snr
    mag = abs(scalar) ** 2
    den = 1.0 + mag * gamma * n1
    slope = -(mag + mag * gamma * n1) / den
    intercept = 1.0 + mag / den
    eps_min1 = 1.0 / (1.0 + gamma * n1)
    return slope, intercept, eps_min1


def boundary_sweep(h1, h2, config: SystemConfig, samples: int = 101):
    """Uniform sweep of the power split over [0, P].

    Derivative-based fields are populated on the open interval only; the
    two endpoint samples carry just the MSE pair.
    """
    count = int(samples)
    if count < 3:
        raise ValueError(f"sweep needs at least 3 samples, got {count}")
    ps = np.linspace(0.0, config.power_budget, count)
    data = _SweepData(_pair(h1, h2), config, ps)
    g_prime, g_dprime = data.g_derivatives()
    interior = {"deps1": data.deps1, "deps2": data.deps2, "ddeps1": data.ddeps1,
                "ddeps2": data.ddeps2, "discriminant": data.disc,
                "g_prime": g_prime, "g_double_prime": g_dprime}
    return [BoundarySample(p=float(p), eps1=float(data.eps1[0, i]), eps2=float(data.eps2[0, i]),
                           **{key: float(v[0, i]) if 0 < i < count - 1 else None
                              for key, v in interior.items()})
            for i, p in enumerate(ps)]


def convexity_certificates(pairs, config: SystemConfig, grid: int = 101) -> list:
    """Certify convex boundary curvature of each channel pair of a (T, N, 2) stack.

    Returns one ConvexityReport per pair.  `certified` is the closed-form
    proof: d >= 0 and Delta > 0 at both ends of [0, P], so D <= 0 at
    every split.  The worst discriminant is the largest D on the interior
    points of the power grid, where the Cauchy-Schwarz chains, the
    summand signs and monotonicity are checked as flags; violations are
    reported in the flags rather than raised.
    """
    count = int(grid)
    if count < 11:
        raise ValueError(f"certification grid must have at least 11 points, got {count}")
    stack = _pairs(pairs)
    ps = np.linspace(0.0, config.power_budget, count)[1:-1]
    data = _SweepData(stack, config, ps)

    slack = DISCRIMINANT_RTOL * data.scale
    summands_ok = (data.summands <= slack[..., None]).all(axis=(1, 2))
    mono_ok = (data.deps1 < 0.0).all(axis=1) & (data.deps2 > 0.0).all(axis=1)

    prod_aa = data.a11 * data.a22
    prod_bb = data.b11 * data.b22
    cs_gram = _cs_holds(data.absa12sq, prod_aa) & _cs_holds(data.absb12sq, prod_bb)
    # 4 Re^2{a21 b12} <= 4 |a21 b12|^2 <= 4 a11 a22 b11 b22 <= (a22 b11 + a11 b22)^2
    link0 = 4.0 * data.re_ab ** 2
    link1 = 4.0 * data.absa12sq * data.absb12sq
    link2 = 4.0 * prod_aa * prod_bb
    link3 = (data.a22 * data.b11 + data.a11 * data.b22) ** 2
    chain_ok = _cs_holds(link0, link1) & _cs_holds(link1, link2) & _cs_holds(link2, link3)
    cs_ok = (cs_gram & chain_ok).all(axis=1)

    worst = np.argmax(data.disc, axis=1)
    worst_disc = np.take_along_axis(data.disc, worst[:, None], axis=1)[:, 0]
    return [
        ConvexityReport(
            certified=bool(data.proven[t]),
            classification=label,
            worst_discriminant=float(worst_disc[t]),
            worst_p=float(ps[worst[t]]),
            grid=count,
            cauchy_schwarz_ok=bool(cs_ok[t]),
            summands_ok=bool(summands_ok[t]),
            monotonicity_ok=bool(mono_ok[t]),
        )
        for t, label in enumerate(data.classes)
    ]


def convexity_certificate(h1, h2, config: SystemConfig, grid: int = 101) -> ConvexityReport:
    """`convexity_certificates` for the one pair (h1, h2)."""
    return convexity_certificates(_pair(h1, h2), config, grid)[0]
