"""The two-user closed forms of `boundary`'s docstring, derived symbolically.

Every line of the docstring's table is proven an identity in the rational
function field over QQ in r11, r22, x, y, sigma^2, p and P, from the
covariance X(p) of the pair R = [[r11, x + iy], [0, r22]] inverted by its
adjugate; the slopes and curvatures are differentiated from eps(p), and
the module's own formula helpers run on the field elements, so any edit
to them must keep them identities.  H^H H = R^H R, so for N > 2 antennas
every quantity reduces to the span of R (phases of R's rows are unitary,
so its diagonal can be taken real), and N = 1 is r22 = 0.
"""

import functools

from sympy.polys.domains import QQ
from sympy.polys.fields import field

from mseregion import boundary

FIELD, R11, R22, X, Y, SIG2, SPLIT, BUDGET = field("r11,r22,x,y,sigma2,p,P", QQ)


# complex values as (re, im) pairs of field elements
def _mul(u, v):
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _conj(u):
    return u[0], -u[1]


def _add(*terms):
    return sum((t[0] for t in terms), FIELD.zero), sum((t[1] for t in terms), FIELD.zero)


def _scale(a, u):
    return a * u[0], a * u[1]


def _form(mat, g, h):
    """g^H M h of 2-vectors g, h and a 2 x 2 matrix M."""
    return _add(*(_mul(_conj(g[i]), _mul(mat[i][j], h[j])) for i in range(2) for j in range(2)))


@functools.cache
def _closed_forms():
    """The symbols of the docstring, the Gram entries of the adjugate-inverted
    X(p), and the MSEs: everything the tests below compare."""
    zero = FIELD.zero
    q = BUDGET - SPLIT
    h1 = ((R11, zero), (zero, zero))
    h2 = ((X, Y), (R22, zero))
    cov = [[_add((SIG2 if i == j else zero, zero),
                 _scale(SPLIT, _mul(h1[i], _conj(h1[j]))),
                 _scale(q, _mul(h2[i], _conj(h2[j]))))
            for j in range(2)] for i in range(2)]
    det = _add(_mul(cov[0][0], cov[1][1]), _scale(-1, _mul(cov[0][1], cov[1][0])))
    assert det[1] == 0
    adj = ((cov[1][1], _scale(-1, cov[0][1])), (_scale(-1, cov[1][0]), cov[0][0]))
    inv = [[_scale(1 / det[0], adj[i][j]) for j in range(2)] for i in range(2)]
    inv2 = [[_add(*(_mul(inv[i][k], inv[k][j]) for k in range(2))) for j in range(2)]
            for i in range(2)]
    a = {(i, j): _form(inv, g, h) for i, g in ((1, h1), (2, h2)) for j, h in ((1, h1), (2, h2))}
    b = {(i, j): _form(inv2, g, h) for i, g in ((1, h1), (2, h2)) for j, h in ((1, h1), (2, h2))}
    for gram in (a, b):
        assert gram[1, 1][1] == gram[2, 2][1] == 0
        assert gram[2, 1] == _conj(gram[1, 2])
    n1, n2, c, d = R11 ** 2, X ** 2 + Y ** 2 + R22 ** 2, (R11 * X, R11 * Y), R11 ** 2 * R22 ** 2
    return {
        "q": q, "n1": n1, "n2": n2, "c": c, "d": d, "det": det[0],
        "delta": SIG2 ** 2 + SIG2 * (SPLIT * n1 + q * n2) + SPLIT * q * d,
        "a11": a[1, 1][0], "a22": a[2, 2][0], "a12": a[1, 2],
        "b11": b[1, 1][0], "b22": b[2, 2][0], "b12": b[1, 2],
        "eps1": 1 - SPLIT * a[1, 1][0], "eps2": 1 - q * a[2, 2][0],
    }


def _terms(cf):
    """(a11, a22, b11, b22, |a12|^2, Re{a12 b21}, sigma^2, P): the real Gram
    terms the formula helpers take."""
    a12, b12 = cf["a12"], cf["b12"]
    cross = a12[0] ** 2 + a12[1] ** 2
    re_ab = _mul(a12, _conj(b12))[0]
    return cf["a11"], cf["a22"], cf["b11"], cf["b22"], cross, re_ab, SIG2, BUDGET


def test_covariance_grams_and_mses_are_the_closed_forms():
    cf = _closed_forms()
    q, n1, n2, c, d, delta = (cf[key] for key in ("q", "n1", "n2", "c", "d", "delta"))
    sig4 = SIG2 ** 2
    assert cf["det"] == delta
    assert cf["eps1"] == SIG2 * (SIG2 + q * n2) / delta
    assert cf["eps2"] == SIG2 * (SIG2 + SPLIT * n1) / delta
    assert cf["a11"] == (SIG2 * n1 + q * d) / delta
    assert cf["a22"] == (SIG2 * n2 + SPLIT * d) / delta
    assert cf["a12"] == _scale(SIG2 / delta, c)
    assert cf["b11"] == (sig4 * n1 + 2 * SIG2 * q * d + q ** 2 * n2 * d) / delta ** 2
    assert cf["b22"] == (sig4 * n2 + 2 * SIG2 * SPLIT * d + SPLIT ** 2 * n1 * d) / delta ** 2
    assert cf["b12"] == _scale((sig4 - SPLIT * q * d) / delta ** 2, c)


def test_slopes_and_curvatures_are_the_mses_derivatives():
    cf = _closed_forms()
    terms = _terms(cf)
    _, _, b11, b22, cross, _, sig2, budget = terms
    deps1, deps2 = cf["eps1"].diff(SPLIT), cf["eps2"].diff(SPLIT)
    assert boundary._slopes(b11, b22, cross, sig2, budget) == (deps1, deps2)
    assert boundary._curvatures(*terms) == (deps1.diff(SPLIT), deps2.diff(SPLIT))


def test_discriminant_and_its_summands_are_factored():
    cf = _closed_forms()
    terms = _terms(cf)
    _, _, b11, b22, cross, _, sig2, budget = terms
    q, n1, n2, d, delta = (cf[key] for key in ("q", "n1", "n2", "d", "delta"))
    deps1, deps2 = boundary._slopes(b11, b22, cross, sig2, budget)
    ddeps1, ddeps2 = boundary._curvatures(*terms)
    disc = ddeps2 * deps1 - ddeps1 * deps2
    weight = BUDGET * n1 * n2 + SIG2 * (n1 + n2)
    assert disc == -2 * SIG2 ** 2 * d * weight / delta ** 3
    summands = boundary._summands(*terms)
    assert summands == (
        -2 * SIG2 * BUDGET * cross * d * (n1 * SPLIT + n2 * q + 2 * SIG2) / delta ** 2,
        -2 * SIG2 ** 2 * b11 * d * (n1 * SPLIT + SIG2) / delta ** 2,
        -2 * SIG2 ** 2 * b22 * d * (n2 * q + SIG2) / delta ** 2)
    assert sum(summands) == disc


def test_cauchy_schwarz_gaps_and_the_eps1_slope():
    cf = _closed_forms()
    a11, a22, b11, b22, cross, re_ab, _, _ = _terms(cf)
    q, n1, n2, c, d, delta = (cf[key] for key in ("q", "n1", "n2", "c", "d", "delta"))
    b12 = cf["b12"]
    assert a11 * a22 - cross == d / delta
    assert b11 * b22 - (b12[0] ** 2 + b12[1] ** 2) == d / delta ** 2
    assert a11 * b22 - re_ab == d * (n1 * SPLIT + SIG2) / delta ** 2
    assert a22 * b11 - re_ab == d * (n2 * q + SIG2) / delta ** 2
    # -eps1' = sigma^2 E1 / Delta^2, no term of E1 negative
    e1 = SIG2 ** 2 * n1 + 2 * SIG2 * q * d + q ** 2 * n2 * d \
        + BUDGET * SIG2 * (c[0] ** 2 + c[1] ** 2)
    assert -cf["eps1"].diff(SPLIT) == SIG2 * e1 / delta ** 2


def test_eps1_curvature_numerator_of_a_single_antenna_pair():
    # at N = 1 (r22 = 0, so d = 0) the d-free part of Delta^3 eps1'' is
    # 2 sigma^6 n1 (n1 - n2) (P n2 + sigma^2)
    cf = _closed_forms()
    n1, n2 = cf["n1"], cf["n2"].subs(R22, 0)
    numerator = (cf["delta"] ** 3 * cf["eps1"].diff(SPLIT).diff(SPLIT)).subs(R22, 0)
    assert numerator == 2 * SIG2 ** 3 * n1 * (n1 - n2) * (BUDGET * n2 + SIG2)
