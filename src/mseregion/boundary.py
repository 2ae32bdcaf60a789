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

The sweep forms all six Gram entries, c and n_k entering each numerator
before any division, and takes its derivatives from them as a coupling
bundle's are taken, with |a12|^2 and Re{a12 b21} formed by one rule
(`_couplings`); certificates form only Delta and D on a fixed grid of
101 splits.

So D <= 0 on all of [0, P] once d >= 0 and Delta > 0 there, and Delta is
concave in p, so Delta > 0 at both ends covers the interval: that is the
two-user convexity theorem, and it is what a certificate's `certified`
checks.  D vanishes exactly for colinear pairs (d = 0), and is taken as
-0.0 where d is within its rounding floor (4 N eps)^2 n1 n2; a pair is
labelled affine where d <= COLINEARITY_RTOL n1 n2.  Certificates are
returned as a `ConvexityScan`: (T,) columns of the flag, the affine
mask, the worst D and its split, which `io` writes without forming a
report per pair.  The paper's Cauchy-Schwarz, summand-sign and
monotonicity corollaries follow from the same d >= 0 through factored
identities.  Every line of the table above and those identities are
proven symbolically (`tests/test_boundary_identities.py`, which runs
this module's formula helpers on rational functions of R's entries), so
the sweep and single-split readers re-check none of them; the raw N x N
evaluation `helpers.second_order_grams` is their float cross-check.

Delta grows like (P/sigma^2)^2, so the b entries and D divide by Delta
one factor at a time, and g'' = D / eps1'^3 is formed in the order
2 d (Delta / E1)^3 W / sigma^2 (`_SweepData`), at interior splits only.
Every value, g' = eps2' / eps1' and g'' included, passes one check: where
one leaves the float64 range (from P/sigma^2 ~ 1e153 for unit-variance
channel entries, and from sigma^2 ~ 1.3e154, where sigma^4 overflows)
every evaluation raises ValueError, with numpy's overflow, invalid-value
and divide warnings silenced.  It also raises where sigma^2 n_k, sigma^4
n_k, Delta, a11, a22, b11, b22 or a returned -eps1' or eps2', all
positive in exact arithmetic, falls below the smallest normal float64
and so has lost digits; terms that carry d, legitimately tiny for
near-colinear pairs, are exempt.
"""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Sequence
from dataclasses import astuple, dataclass, fields
from typing import Optional

import numpy as np

from .model import SystemConfig, _checked_channels, _triangular_factor
from .tolerances import COLINEARITY_RTOL

# d = |det R|^2 of N-antenna pairs is rounding below (4 N eps)^2 n1 n2: colinear
# pairs (d = 0) reach 24 eps^2 n1 n2 at N = 2..32, random ones stay above
# 1e-4 n1 n2 (5000 scan trials per N)
_DET_ROUNDING = 4.0 * np.finfo(float).eps
# certificates form Delta and D only at the interior points of this grid of [0, P]
_CERTIFICATE_GRID = 101

__all__ = [
    "BoundaryClass",
    "CouplingBundle",
    "BoundarySample",
    "ConvexityReport",
    "ConvexityScan",
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


# a pair's label, indexed by its affine flag
_LABELS = (BoundaryClass.STRICTLY_CONVEX, BoundaryClass.AFFINE)


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


class ConvexityScan(Sequence):
    """The certificates of T channel pairs, held as (T,) read-only columns.

    `certified` and `affine` are bool, `worst_discriminant` and `worst_p`
    float64: the fields of each pair's ConvexityReport, whose label is
    AFFINE where `affine` holds.  As a Sequence of ConvexityReport it
    builds reports on demand, for an index, a slice or an iteration.
    `io` writes it as the list of its reports, a column at a time from
    `column` (a record table: `record_type` names the record class), with
    no report formed.  It compares and hashes by identity.
    """

    __slots__ = ("certified", "affine", "worst_discriminant", "worst_p")
    record_type = ConvexityReport

    def __init__(self, certified, affine, worst_discriminant, worst_p):
        columns = (certified, affine, worst_discriminant, worst_p)
        kinds = (bool, bool, np.float64, np.float64)
        for name, column, kind in zip(self.__slots__, columns, kinds):
            column = np.array(column, dtype=kind)
            column.flags.writeable = False
            setattr(self, name, column)

    def __len__(self) -> int:
        return len(self.certified)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[t] for t in range(*index.indices(len(self)))]
        t = operator.index(index)
        return ConvexityReport(certified=bool(self.certified[t]),
                               classification=_LABELS[bool(self.affine[t])],
                               worst_discriminant=float(self.worst_discriminant[t]),
                               worst_p=float(self.worst_p[t]))

    def column(self, name: str) -> list:
        """The values of ConvexityReport field `name` in trial order, the
        labels as their Enum values."""
        if name == "classification":
            values = tuple(label.value for label in _LABELS)
            return list(map(values.__getitem__, self.affine.tolist()))
        return getattr(self, name).tolist()


def _pairs(pairs) -> np.ndarray:
    """A validated (T, N, 2) complex stack of two-user channel pairs."""
    stack = _checked_channels(pairs, ndim=3)
    if stack.shape[2] != 2:
        raise ValueError(f"channel pairs must have shape (T, N, 2), got {stack.shape}")
    return stack


def _pair(h1, h2) -> np.ndarray:
    """One channel pair, validated as an (N, 2) matrix, as a stack of one."""
    v1 = np.asarray(h1, dtype=np.complex128).reshape(-1)
    v2 = np.asarray(h2, dtype=np.complex128).reshape(-1)
    if v1.size != v2.size:
        raise ValueError(f"channel length mismatch: {v1.size} vs {v2.size}")
    return _checked_channels(np.column_stack([v1, v2]), ndim=2)[None]


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


def _affine(n1, n2, d) -> np.ndarray:
    """The flat mask of pairs whose d = |det R|^2 vanishes relative to n1 n2."""
    return (d <= COLINEARITY_RTOL * n1 * n2).ravel()


def _couplings(a12, b12):
    """(|a12|^2, Re{a12 b21}) of complex Gram entries, as a bundle holds them."""
    return a12.real ** 2 + a12.imag ** 2, (a12 * np.conj(b12)).real


# The derivative formulas below take the real Gram terms (a11, a22, b11,
# b22, |a12|^2, Re{a12 b21}) and work elementwise on arrays of power splits
# and on scalars alike, exact rationals included.

def _slopes(b11, b22, cross, sig2, budget):
    """(eps1', eps2')."""
    return -sig2 * b11 - budget * cross, sig2 * b22 + budget * cross


def _curvatures(a11, a22, b11, b22, cross, re_ab, sig2, budget):
    """(eps1'', eps2'')."""
    return (2 * sig2 * (a11 * b11 - re_ab) + 2 * budget * cross * (a11 - a22),
            2 * sig2 * (a22 * b22 - re_ab) + 2 * budget * cross * (a22 - a11))


def _summands(a11, a22, b11, b22, cross, re_ab, sig2, budget):
    """The three nonpositive terms that add up to D."""
    return (2 * sig2 * budget * cross * (2 * re_ab - a22 * b11 - a11 * b22),
            2 * sig2 ** 2 * b11 * (re_ab - a11 * b22),
            2 * sig2 ** 2 * b22 * (re_ab - a22 * b11))


def _derivatives(a11, a22, a12, b11, b22, b12, sig2, budget):
    """(eps1', eps2', eps1'', eps2'', D, summands) from the Gram entries,
    a12 and b12 complex; D is the direct product difference and
    `summands` the tuple of its three nonpositive terms."""
    cross, re_ab = _couplings(a12, b12)
    terms = (a11, a22, b11, b22, cross, re_ab, sig2, budget)
    deps1, deps2 = _slopes(b11, b22, cross, sig2, budget)
    ddeps1, ddeps2 = _curvatures(*terms)
    return deps1, deps2, ddeps1, ddeps2, ddeps2 * deps1 - ddeps1 * deps2, _summands(*terms)


def _bundle_derivatives(bundle: CouplingBundle, config: SystemConfig):
    return _derivatives(*astuple(bundle), config.noise_variance, config.power_budget)


def _quiet_overflow():
    """Closed forms evaluated past the float64 range give inf or nan
    silently; the finiteness checks report them."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _range_error(snr, sig2, budget) -> ValueError:
    """The ValueError of a closed form that leaves the float64 range."""
    return ValueError(f"boundary closed forms leave the float64 range at "
                      f"P/sigma^2 = {snr:g} (sigma^2 = {sig2:g}, P = {budget:g})")


class _ClosedForms:
    """Delta and D of the module docstring for T channel pairs over G power splits.

    Holds each pair's four scalars as (T, 1) columns and Delta as a (T, G)
    array, and forms D when asked: all a certificate reads.  Raises
    ValueError where Delta is not finite; `check` raises it for any other
    value.
    """

    __slots__ = ("sig2", "budget", "snr", "floor", "p", "q", "n1", "n2", "c", "d", "den")

    def __init__(self, pairs: np.ndarray, config: SystemConfig, ps: np.ndarray):
        # a numpy scalar, so sigma^4 past the float64 range is inf, not OverflowError
        self.sig2 = np.float64(config.noise_variance)
        self.budget, self.snr = config.power_budget, config.snr
        self.floor = (_DET_ROUNDING * pairs.shape[1]) ** 2
        self.n1, self.n2, self.c, self.d = (v[:, None] for v in _pair_scalars(pairs))
        self.p, self.q = ps, self.budget - ps
        self.den = self.delta(ps)
        self.check(self.den)

    def check(self, *values):
        """Raise ValueError unless every value is finite."""
        if not all(np.isfinite(value).all() for value in values):
            raise _range_error(self.snr, self.sig2, self.budget)

    def delta(self, p):
        sig2 = self.sig2
        return sig2 ** 2 + sig2 * (p * self.n1 + (self.budget - p) * self.n2) \
            + p * (self.budget - p) * self.d

    def resolved(self):
        """d, taken as 0.0 where it is within its rounding floor."""
        return np.where(self.d > self.floor * self.n1 * self.n2, self.d, 0.0)

    def weight(self):
        """W = P n1 n2 + sigma^2 (n1 + n2), D's numerator over d."""
        return self.budget * self.n1 * self.n2 + self.sig2 * (self.n1 + self.n2)

    def discriminant(self):
        """D in closed form, -0.0 where d is within its rounding floor; it
        divides by Delta one factor at a time, as Delta^3 overflows from
        P/sigma^2 ~ 1e52 and Delta itself only near 1e154."""
        den = self.den
        return -2.0 * self.sig2 ** 2 * self.resolved() * self.weight() / den / den / den

    def proven(self):
        """The (T,) mask of pairs with d >= 0 and Delta > 0 at p = 0 and
        p = P, which makes D <= 0 on all of [0, P]."""
        return ((self.d >= 0.0) & (self.delta(0.0) > 0.0) & (self.delta(self.budget) > 0.0))[:, 0]


class _SweepData(_ClosedForms):
    """The closed forms of T channel pairs over G power splits, held as (T, G) arrays.

    The sweep and single-split readers' view: the six Gram entries, their
    derivatives (by `_derivatives`, as for a bundle) and D in closed form
    are formed once, the MSEs when read, and g' and g'' only at the columns
    `slopes` (interior splits) whose slopes a reader returns, where -eps1'
    and eps2' join the positive values.  Raises ValueError where a formed
    value is not finite, or a positive one is below the smallest normal float64.

    g'' = D / eps1'^3 is formed as 2 d (Delta / E1)^3 W / sigma^2, with
    -eps1' = sigma^2 E1 / Delta^2 and D's d: eps1'^3 underflows from
    P/sigma^2 ~ 1e54, D from ~ 1e65, and 2 d W / sigma^2 can overflow, while
    g'' is in range wherever Delta and E1 are, except at p = P, where E1 =
    sigma^4 n1 + P sigma^2 |c|^2.
    """

    __slots__ = ("a11", "a22", "a12", "b11", "b22", "b12",
                 "deps1", "deps2", "ddeps1", "ddeps2", "disc", "g_prime", "g_double_prime")

    def __init__(self, pairs: np.ndarray, config: SystemConfig, ps: np.ndarray, slopes=slice(0)):
        with _quiet_overflow():
            super().__init__(pairs, config, ps)
            sig2, p, q, n1, n2, c, d, den = (self.sig2, self.p, self.q, self.n1, self.n2,
                                             self.c, self.d, self.den)
            sig4 = sig2 ** 2
            # n_k and c enter each numerator (head11 is b11's) before any division; the b
            # entries divide by Delta one factor at a time (Delta^2 overflows from P/sigma^2 ~ 1e77)
            head11 = sig4 * n1 + 2.0 * sig2 * q * d + q ** 2 * n2 * d
            self.a11 = (sig2 * n1 + q * d) / den
            self.a22 = (sig2 * n2 + p * d) / den
            self.a12 = sig2 * c / den
            self.b11 = head11 / den / den
            self.b22 = (sig4 * n2 + 2.0 * sig2 * p * d + p ** 2 * n1 * d) / den / den
            self.b12 = c * (sig4 - p * q * d) / den / den
            self.deps1, self.deps2, self.ddeps1, self.ddeps2, *_ = _derivatives(
                self.a11, self.a22, self.a12, self.b11, self.b22, self.b12, sig2, self.budget)
            self.disc = self.discriminant()
            deps1, deps2 = self.deps1[:, slopes], self.deps2[:, slopes]
            e1 = head11[:, slopes] + self.budget * sig2 * (c.real ** 2 + c.imag ** 2)
            self.g_prime = deps2 / deps1
            self.g_double_prime = 2.0 * self.resolved() * (den[:, slopes] / e1) ** 3 \
                * self.weight() / sig2
            self.check(self.deps1, self.deps2, self.ddeps1, self.ddeps2, self.disc,
                       self.g_prime, self.g_double_prime)
            # positive in exact arithmetic: below the smallest normal float64
            # they have lost digits, and count as out of range
            positive = (sig2 * n1, sig2 * n2, sig4 * n1, sig4 * n2,
                        den, self.a11, self.a22, self.b11, self.b22, -deps1, deps2)
            tiny = np.finfo(float).tiny
            self.check(*(np.where(value >= tiny, value, np.nan) for value in positive))

    @property
    def eps1(self):
        return self.sig2 * (self.sig2 + self.q * self.n2) / self.den

    @property
    def eps2(self):
        return self.sig2 * (self.sig2 + self.p * self.n1) / self.den


def mse_pair_at_power(h1, h2, config: SystemConfig, p: float):
    """(eps1, eps2) at powers (p, P - p); requires 0 <= p <= P."""
    data = _SweepData(_pair(h1, h2), config, _split(config, p))
    return float(data.eps1[0, 0]), float(data.eps2[0, 0])


def coupling_bundle(h1, h2, config: SystemConfig, p: float) -> CouplingBundle:
    """Evaluate all coupling quantities at power split p.  Cauchy-Schwarz
    holds by the factored identities of the module docstring.  Raises the
    sweep's ValueError where a closed form leaves the float64 range, which
    includes a positive value falling below the smallest normal float64."""
    data = _SweepData(_pair(h1, h2), config, _split(config, p))
    return CouplingBundle(*(getattr(data, f.name)[0, 0].item() for f in fields(CouplingBundle)))


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
    data = _SweepData(_pair(h1, h2), config, np.array([split]), slopes=slice(None))
    return float(data.g_prime[0, 0]), float(data.g_double_prime[0, 0])


def closed_form_ratios(h1, h2, config: SystemConfig, p: float):
    """a12/a11 and b21/b22 at split p, from the closed forms of the module
    docstring, plus their product's real part, which the factored
    identities make the whole product and at most 1.  Raises the sweep's
    ValueError where a closed form leaves the float64 range."""
    data = _SweepData(_pair(h1, h2), config, _split(config, p))
    a11, a12, b22, b12 = (v[0, 0].item() for v in (data.a11, data.a12, data.b22, data.b12))
    ratio_a, ratio_b = a12 / a11, b12.conjugate() / b22
    return ratio_a, ratio_b, float((ratio_a * ratio_b).real)


def colinearity_classify(h1, h2) -> BoundaryClass:
    """Affine iff d = |det R|^2 vanishes relative to |h1|^2 |h2|^2
    (threshold 1e-12), else strictly convex."""
    with _quiet_overflow():
        n1, n2, _, d = _pair_scalars(_pair(h1, h2))
    return _LABELS[bool(_affine(n1, n2, d)[0])]


def affine_boundary(h1, alpha, config: SystemConfig):
    """(slope, intercept, eps_min1) of the boundary line for h2 = alpha h1.

    g(eps1) = slope * eps1 + intercept over [eps_min1, 1], with
    g(1) = eps_min2 and g(eps_min1) = 1.  Raises the ValueError of `_pair`
    where the pair (h1, alpha h1) is not a valid one, and the closed
    forms' range ValueError where a returned value is not finite.
    """
    vec = np.asarray(h1, dtype=np.complex128).reshape(-1)
    scalar = complex(alpha)
    # numpy multiplies and squares, so one past the float64 range is inf, not OverflowError
    with _quiet_overflow():
        _pair(vec, scalar * vec)
        n1 = float(np.linalg.norm(vec) ** 2)
        mag = float(np.float64(abs(scalar)) ** 2)
    gamma = config.snr
    den = 1.0 + mag * gamma * n1
    slope = -(mag + mag * gamma * n1) / den
    intercept = 1.0 + mag / den
    eps_min1 = 1.0 / (1.0 + gamma * n1)
    if not all(map(math.isfinite, (slope, intercept, eps_min1))):
        raise _range_error(gamma, config.noise_variance, config.power_budget)
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
    data = _SweepData(_pair(h1, h2), config, ps, slopes=slice(1, -1))
    interior = {"deps1": data.deps1[0, 1:-1], "deps2": data.deps2[0, 1:-1],
                "ddeps1": data.ddeps1[0, 1:-1], "ddeps2": data.ddeps2[0, 1:-1],
                "discriminant": data.disc[0, 1:-1],
                "g_prime": data.g_prime[0], "g_double_prime": data.g_double_prime[0]}
    eps1, eps2 = data.eps1, data.eps2
    return [BoundarySample(p=float(p), eps1=float(eps1[0, i]), eps2=float(eps2[0, i]),
                           **{key: float(v[i - 1]) if 0 < i < count - 1 else None
                              for key, v in interior.items()})
            for i, p in enumerate(ps)]


def convexity_certificates(pairs, config: SystemConfig) -> ConvexityScan:
    """Certify convex boundary curvature of each channel pair of a (T, N, 2) stack.

    Returns the ConvexityScan of the T pairs, its columns taken straight
    from the closed forms.  `certified` is the closed-form proof: d >= 0
    and Delta > 0 at both ends of [0, P], so D <= 0 at every split, and
    the corollaries of the module docstring hold with it; it reads no
    grid.  Only Delta and D are formed, at the 99 interior points of the
    fixed 101-point grid of [0, P]: the worst discriminant is the largest
    D there, at its first grid point, and a value that leaves the float64
    range raises ValueError.
    """
    stack = _pairs(pairs)
    ps = np.linspace(0.0, config.power_budget, _CERTIFICATE_GRID)[1:-1]
    with _quiet_overflow():
        forms = _ClosedForms(stack, config, ps)
        disc = forms.discriminant()
        forms.check(disc)
        worst = np.argmax(disc, axis=1)
        worst_disc = np.take_along_axis(disc, worst[:, None], axis=1)[:, 0]
    return ConvexityScan(forms.proven(), _affine(forms.n1, forms.n2, forms.d), worst_disc,
                         ps[worst])


def convexity_certificate(h1, h2, config: SystemConfig) -> ConvexityReport:
    """`convexity_certificates` for the one pair (h1, h2)."""
    return convexity_certificates(_pair(h1, h2), config)[0]
