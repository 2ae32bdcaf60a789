"""The paper's three-user counterexample, proven in exact rational arithmetic.

On H = [[1, 0, 1], [0, 1, 1]] (users are columns), sigma^2 = 1 and P = 10,
the published allocations (3.6753, 6.3247, 0) and (0, 7.0794, 2.9206)
spend exactly P.  Every point strictly inside the chord between their
MSE tuples is not achievable: for an MSE target t, user k meets t_k iff
its SINR p_k h_k^T X_k^{-1} h_k reaches gamma_k = 1/t_k - 1, where X_k is
the noise plus the other users' covariance, so the powers that meet t
are the p with p >= I(p), I_k(p) = gamma_k / (h_k^T X_k^{-1} h_k).  I is
a standard interference function (Yates, IEEE JSAC 1995): its iterates
from p = 0 rise to the least such p, and every iterate is below every p
that meets t.  An iterate that spends more than P proves the target out
of reach of any allocation with sum(p) <= P.

Only `fractions` is used: no float and no import of the package.
"""

from fractions import Fraction

H = ((1, 0), (0, 1), (1, 1))            # h_1, h_2, h_3
SIGMA2 = Fraction(1)
BUDGET = Fraction(10)
ENDPOINTS = (tuple(map(Fraction, ("3.6753", "6.3247", "0"))),
             tuple(map(Fraction, ("0", "7.0794", "2.9206"))))
MAX_ITERATIONS = 8


def _gain(powers, k):
    """h_k^T X_k^{-1} h_k with X_k = sigma^2 I + sum_{j != k} p_j h_j h_j^T."""
    x11 = x22 = SIGMA2
    x12 = Fraction(0)
    for j, (u, v) in enumerate(H):
        if j != k:
            x11 += powers[j] * u * u
            x12 += powers[j] * u * v
            x22 += powers[j] * v * v
    u, v = H[k]
    return (x22 * u * u - 2 * x12 * u * v + x11 * v * v) / (x11 * x22 - x12 * x12)


def mse_tuple(powers):
    """eps_k = 1 / (1 + SINR_k) of every user."""
    return tuple(1 / (1 + powers[k] * _gain(powers, k)) for k in range(len(H)))


def minimal_power_iterates(target):
    """The first MAX_ITERATIONS iterates of p <- I(p) from p = 0."""
    gamma = [1 / t - 1 for t in target]
    powers = (Fraction(0),) * len(H)
    iterates = []
    for _ in range(MAX_ITERATIONS):
        powers = tuple(g / _gain(powers, k) if g else Fraction(0) for k, g in enumerate(gamma))
        iterates.append(powers)
    return iterates


def test_published_allocations_spend_exactly_the_budget():
    assert [sum(p) for p in ENDPOINTS] == [BUDGET, BUDGET]


def test_every_interior_chord_point_needs_more_than_the_budget():
    first, last = map(mse_tuple, ENDPOINTS)
    for step in range(1, 10):
        lam = Fraction(step, 10)
        target = tuple((1 - lam) * a + lam * b for a, b in zip(first, last))
        sums = [sum(p) for p in minimal_power_iterates(target)]
        # the iterates rise, and one of them spends more than P
        assert sums == sorted(sums), lam
        assert any(s > BUDGET for s in sums), (lam, [float(s) for s in sums])


def test_endpoint_targets_stay_within_the_budget():
    # negative control: each endpoint meets its own target with sum(p) = P,
    # so no iterate of its minimal-power iteration passes P.  Users 1 and 2
    # are orthogonal and user 3 is silent at the first endpoint, so its
    # first iterate is the allocation itself; the second endpoint's rise
    # toward it and stay below P
    first, last = [minimal_power_iterates(mse_tuple(p)) for p in ENDPOINTS]
    assert all(iterate == ENDPOINTS[0] for iterate in first)
    assert all(sum(iterate) < BUDGET for iterate in last)
    assert all(q <= p for iterate in last for q, p in zip(iterate, ENDPOINTS[1]))
