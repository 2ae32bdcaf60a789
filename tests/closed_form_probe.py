"""Accuracy probe of the two-user closed forms against 60-digit references.

A deterministic table of (pair, sigma^2, P, split) cases spans the float
range of `boundary`'s closed forms:

- dims 1, 2, 3, 4 and 8;
- general, colinear, near-colinear (1e-8) and orthogonal pairs, every
  kind a general pair at N = 1;
- channel norms (1e-20, 1e-10, 1, 1e10, 1e20 on both users, and
  (1e10, 1), (1, 1e-10), (1e10, 1e-10));
- sigma^2 1e-150..1e150 in 20-decade steps, P/sigma^2 1e-10..1e200 in
  5-decade steps, every (sigma^2, P) with finite P;
- splits p = 0.001, 0.25, 0.5, 0.75 and 0.999 of P.

That is 160 pairs x 673 (sigma^2, P) x 5 splits = 538 400 cases.  Each
case evaluates `boundary._SweepData` at its one split, which either
raises the range ValueError or returns.  A returned case is compared
with the module docstring's closed forms evaluated in 60-digit mpmath
from the same float inputs: the pair's scalars (n1, n2, c, d) as
`_pair_scalars` forms them, sigma^2, P, p and q = P - p as the sweep
rounds it.  a11, a22, b11, b22, eps1' and eps2' are held relative to
themselves, a12 relative to sqrt(a11 a22) and b12 relative to
sqrt(b11 b22); eps'' is measured relative to |eps1''| + |eps2''| and
reported, not gated, since it cancels for near-colinear pairs (and
not measured where both eps'' vanish).  g' = eps2' / eps1' and g'' =
D / eps1'^3 are held relative to themselves, with D's closed form taken
from the d the sweep uses (`resolved()`, 0 within its rounding floor);
a g' or g'' that is not finite counts as off by inf.

`PROBE_CASES` lists extra cases outside the table: the pair h1 = 1e10,
h2 = 6e9 + 8e9i at sigma^2 = 1e-50 and P = 1e140, where alpha^2 =
(sigma^2 / Delta)^2 is subnormal while |a12|^2 is normal.

Run the whole table with

    PYTHONPATH=src python tests/closed_form_probe.py

(a few minutes; `--stride S` takes every S-th case), which prints the
tallies and every case off by more than `RTOL`.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
import time

import mpmath
import numpy as np

from mseregion import SystemConfig, boundary

RTOL = 1e-12
DIMS = (1, 2, 3, 4, 8)
KINDS = ("general", "colinear", "near-colinear", "orthogonal")
SCALES = ((1e-20, 1e-20), (1e-10, 1e-10), (1.0, 1.0), (1e10, 1e10), (1e20, 1e20),
          (1e10, 1.0), (1.0, 1e-10), (1e10, 1e-10))
SIGMA2_EXPONENTS = range(-150, 151, 20)
SNR_EXPONENTS = range(-10, 201, 5)
SPLITS = (0.001, 0.25, 0.5, 0.75, 0.999)
# the Tier-1 slice: every SLICE_STRIDE-th case of the table, plus PROBE_CASES
SLICE_STRIDE = 149
GATED = ("a11", "a22", "b11", "b22", "deps1", "deps2", "a12", "b12")

PROBE_CASES = tuple(
    ((np.array([1e10 + 0j]), np.array([6e9 + 8e9j])), 1e-50, 1e140, frac)
    for frac in SPLITS)


def _unit(vec):
    return vec / np.linalg.norm(vec)


def _pair_of_kind(rng, dim: int, kind: str):
    """Two unit-norm channel vectors of the given kind."""
    def draw():
        return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)

    h1 = _unit(draw())
    if dim == 1 or kind == "general":
        return h1, _unit(draw())
    phase = np.exp(2j * np.pi * rng.uniform())
    other = draw()
    other = _unit(other - h1 * np.vdot(h1, other))      # orthogonal to h1
    if kind == "colinear":
        return h1, phase * h1
    if kind == "near-colinear":
        return h1, _unit(phase * h1 + 1e-8 * other)
    return h1, other


def pairs():
    """The table's 160 channel pairs, in table order."""
    out = []
    for dim, kind in itertools.product(DIMS, KINDS):
        u1, u2 = _pair_of_kind(np.random.default_rng(1000 * dim + KINDS.index(kind)), dim, kind)
        out.extend((s1 * u1, s2 * u2) for s1, s2 in SCALES)
    return out


def budgets():
    """The table's 673 (sigma^2, P) with finite P, in table order."""
    return [(sig2, sig2 * float(f"1e{r}"))
            for sig2 in (float(f"1e{s}") for s in SIGMA2_EXPONENTS)
            for r in SNR_EXPONENTS if math.isfinite(sig2 * float(f"1e{r}"))]


def cases():
    """Every (pair, sigma^2, P, split fraction) of the table, in order."""
    return ((pair, sig2, budget, frac)
            for pair, (sig2, budget), frac in itertools.product(pairs(), budgets(), SPLITS))


def table_slice(stride: int = SLICE_STRIDE):
    """(label, case) of every stride-th table case, labelled by its table
    index, then of PROBE_CASES, labelled x0, x1, ..."""
    return list(itertools.islice(enumerate(cases()), 0, None, stride)) \
        + [(f"x{i}", case) for i, case in enumerate(PROBE_CASES)]


def reference(n1, n2, c, d, sig2, budget, p, q, resolved):
    """The closed forms in 60-digit arithmetic from float inputs: a dict of
    a11, a22, a12, b11, b22, b12, deps1, deps2, ddeps1, ddeps2, g_prime and
    g_double_prime, whose D takes d as `resolved`."""
    with mpmath.workdps(60):
        n1, n2, d, sig2, budget, p, q, resolved = map(
            mpmath.mpf, (n1, n2, d, sig2, budget, p, q, resolved))
        c = mpmath.mpc(c.real, c.imag)
        sig4 = sig2 * sig2
        den = sig4 + sig2 * (p * n1 + q * n2) + p * q * d
        alpha, beta = sig2 / den, (sig4 - p * q * d) / den ** 2
        a11, a22 = (sig2 * n1 + q * d) / den, (sig2 * n2 + p * d) / den
        b11 = (sig4 * n1 + 2 * sig2 * q * d + q ** 2 * n2 * d) / den ** 2
        b22 = (sig4 * n2 + 2 * sig2 * p * d + p ** 2 * n1 * d) / den ** 2
        csq = c.real ** 2 + c.imag ** 2
        cross, re_ab = csq * alpha ** 2, csq * alpha * beta
        deps1, deps2 = boundary._slopes(b11, b22, cross, sig2, budget)
        ddeps1, ddeps2 = boundary._curvatures(a11, a22, b11, b22, cross, re_ab, sig2, budget)
        disc = -2 * sig4 * resolved * (budget * n1 * n2 + sig2 * (n1 + n2)) / den ** 3
        return {"a11": a11, "a22": a22, "a12": c * alpha, "b11": b11, "b22": b22,
                "b12": c * beta, "deps1": deps1, "deps2": deps2,
                "ddeps1": ddeps1, "ddeps2": ddeps2,
                "g_prime": deps2 / deps1, "g_double_prime": disc / deps1 ** 3}


def run_case(case):
    """None where `_SweepData` raises the range ValueError, else a dict of
    each gated value's error relative to its scale, 'ddeps' for eps'', and
    'g_prime' and 'g_double_prime' for g' and g''."""
    (h1, h2), sig2, budget, frac = case
    pair = boundary._pair(h1, h2)
    config = SystemConfig(noise_variance=sig2, power_budget=budget)
    split = frac * budget
    try:
        data = boundary._SweepData(pair, config, np.array([split]), slopes=slice(None))
    except ValueError as err:
        if "leave the float64 range" not in str(err):
            raise
        return None
    n1, n2, c, d = (v[0] for v in boundary._pair_scalars(pair))
    want = reference(n1, n2, c, d, sig2, budget, split, budget - split, data.resolved()[0, 0])
    got = {name: getattr(data, name)[0, 0] for name in want}
    with mpmath.workdps(60):
        scale = {name: abs(want[name]) for name in want}
        scale["a12"] = mpmath.sqrt(want["a11"] * want["a22"])
        scale["b12"] = mpmath.sqrt(want["b11"] * want["b22"])
        errors = {name: float(abs(mpmath.mpc(complex(got[name])) - want[name]) / scale[name])
                  for name in GATED}
        # eps1'' = eps2'' = 0 for colinear pairs of equal norms: not measured
        curvature = abs(want["ddeps1"]) + abs(want["ddeps2"])
        errors["ddeps"] = float(max(abs(mpmath.mpf(float(got[k])) - want[k])
                                    for k in ("ddeps1", "ddeps2")) / curvature) \
            if curvature else 0.0
        for name in ("g_prime", "g_double_prime"):
            value = float(got[name])
            # g'' = 0 exactly where D's d is resolved to 0
            error = abs(value - want[name]) / abs(want[name]) if want[name] else abs(value)
            errors[name] = float(error) if math.isfinite(value) else math.inf
    return errors


def tally(selected):
    """(returned, raised labels, worst error per name, [(label, errors) off by
    > RTOL]) over (label, case) items."""
    returned, raised = 0, []
    worst, off = dict.fromkeys(GATED + ("ddeps", "g_prime", "g_double_prime"), 0.0), []
    for label, case in selected:
        errors = run_case(case)
        if errors is None:
            raised.append(label)
            continue
        returned += 1
        for name, value in errors.items():
            worst[name] = max(worst[name], value)
        if max(errors[name] for name in GATED) > RTOL:
            off.append((label, errors))
    return returned, raised, worst, off


@functools.cache
def slice_tally():
    """`tally` of the Tier-1 slice, formed once per process for the tests
    that read it."""
    return tally(table_slice())


def describe(case) -> str:
    (h1, h2), sig2, budget, frac = case
    return (f"N={h1.size} |h1|={np.linalg.norm(h1):g} |h2|={np.linalg.norm(h2):g} "
            f"sigma2={sig2:g} P={budget:g} p={frac:g}P")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stride", type=int, default=1, help="take every S-th table case")
    parser.add_argument("--offset", type=int, default=0, help="starting at table case O")
    parser.add_argument("--raised", help="write the labels of the raising cases to this file")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    selected = list(itertools.islice(enumerate(cases()), args.offset, None, args.stride)) \
        + [(f"x{i}", case) for i, case in enumerate(PROBE_CASES)]
    returned, raised, worst, off = tally(selected)
    counts = dict.fromkeys(GATED, 0)
    for _, errors in off:
        for name in GATED:
            counts[name] += errors[name] > RTOL
    print(f"cases {len(selected)} ({len(PROBE_CASES)} outside the table): "
          f"returned {returned}, raised {len(raised)}")
    print(f"off by > {RTOL:g}: {len(off)} cases; per value {counts}")
    print("worst: " + ", ".join(f"{name} {value:.3g}" for name, value in worst.items()))
    cases_by_label = dict(selected)
    for label, errors in off:
        bad = {name: f"{errors[name]:.3g}" for name in GATED if errors[name] > RTOL}
        print(f"  {label}: {describe(cases_by_label[label])}: {bad}")
    if args.raised:
        with open(args.raised, "w") as handle:
            handle.writelines(f"{label}\n" for label in raised)
    print(f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
