"""Region sampling, dominated-membership oracle, segment witness test,
and the zero-power user embedding."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import mseregion.region as region
from mseregion import (
    ChannelSet,
    SystemConfig,
    dominated_membership,
    embed_inactive_users,
    mse_tuple,
    mse_tuples,
    sample_region,
    segment_test,
)
from mseregion.boundary import boundary_sweep, mse_pair_at_power
from mseregion.simplex import budget_simplex_lattice, lattice_size, sample_budget_simplex
from mseregion.tolerances import TOL_MEMBER

from helpers import (
    closed_form_channels,
    colinear_membership_margin,
    dense_mse,
    grouped_channels,
    grouped_membership_margin,
    minimax_margin_oracle,
    orthogonal_membership_margin,
    random_channels,
    random_config,
    random_powers,
    two_user_dominated,
    two_user_margin,
)

REF_H = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], dtype=complex)
REF_CONFIG = SystemConfig(noise_variance=1.0, power_budget=10.0)

# MSE triples of the two stationary points, solver output frozen
TRIPLE_A = np.array([0.21389147440404077, 0.1365237693145217, 1.0])
TRIPLE_B = np.array([1.0, 0.19774107345910796, 0.2335317708515292])

# the same triples rounded to the four digits usually quoted
ROUNDED_A = np.array([0.2139, 0.1365, 1.0])
ROUNDED_B = np.array([1.0, 0.1977, 0.2335])


def test_grid_sample_counts_and_feasibility():
    samples = sample_region(REF_H, REF_CONFIG, resolution=8, mode="grid")
    assert samples.powers.shape == (math.comb(11, 3), 3)
    assert samples.mses.shape == samples.powers.shape
    assert (samples.powers >= 0.0).all()
    assert (samples.powers.sum(axis=1) <= 10.0 * (1 + 1e-12)).all()

    single = sample_region(np.array([[1.0 + 0j]]), REF_CONFIG, resolution=2)
    assert single.powers.shape == (3, 1)
    np.testing.assert_allclose(single.powers[:, 0], [0.0, 5.0, 10.0])
    assert single.mses[0, 0] == 1.0


def test_counterexample_grid_mses_in_unit_interval():
    samples = sample_region(REF_H, REF_CONFIG, resolution=50, mode="grid")
    assert (samples.mses > 0.0).all()
    assert (samples.mses <= 1.0).all()


def test_two_user_samples_dominated_by_boundary_curve():
    rng = np.random.default_rng(30)
    mat = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    config = random_config(rng)
    sweep = boundary_sweep(mat[:, 0], mat[:, 1], config, samples=2001)
    # eps1 decreases along the sweep; flip for interpolation
    xs = np.array([s.eps1 for s in sweep])[::-1]
    ys = np.array([s.eps2 for s in sweep])[::-1]
    samples = sample_region(mat, config, resolution=60, mode="grid")
    floor = np.interp(samples.mses[:, 0], xs, ys)
    assert (samples.mses[:, 1] >= floor - 1e-4).all()


def test_random_mode_determinism_and_default_seed():
    a = sample_region(REF_H, REF_CONFIG, resolution=64, mode="random", seed=11)
    b = sample_region(REF_H, REF_CONFIG, resolution=64, mode="random", seed=11)
    np.testing.assert_array_equal(a.powers, b.powers)
    np.testing.assert_array_equal(a.mses, b.mses)
    assert a.powers.shape == (64, 3)

    defaulted = sample_region(REF_H, REF_CONFIG, resolution=64, mode="random")
    zeroed = sample_region(REF_H, REF_CONFIG, resolution=64, mode="random", seed=0)
    np.testing.assert_array_equal(defaulted.powers, zeroed.powers)

    other = sample_region(REF_H, REF_CONFIG, resolution=64, mode="random", seed=12)
    assert not np.array_equal(a.powers, other.powers)


def test_random_mode_takes_any_positive_count():
    one = sample_region(REF_H, REF_CONFIG, resolution=1, mode="random", seed=3)
    assert one.powers.shape == one.mses.shape == (1, 3)
    np.testing.assert_array_equal(one.mses, mse_tuples(REF_H, one.powers, REF_CONFIG))
    with pytest.raises(ValueError, match="sample count must be >= 1, got 0"):
        sample_region(REF_H, REF_CONFIG, resolution=0, mode="random")


def test_sampled_mses_are_evaluated_by_row_range_on_demand(monkeypatch):
    rows = []
    evaluate = region.mse_tuples
    monkeypatch.setattr(region, "mse_tuples",
                        lambda chan, powers, config: rows.append(len(powers)) or evaluate(chan, powers, config))
    grid = sample_region(REF_H, REF_CONFIG, resolution=30)
    draws = sample_region(REF_H, REF_CONFIG, resolution=500, mode="random", seed=4)
    assert rows == []                           # sampling evaluates nothing
    lattice = budget_simplex_lattice(3, 30)
    assert grid.lattice.tobytes() == lattice.tobytes()
    assert grid.powers.tobytes() == (lattice * (REF_CONFIG.power_budget / 30)).tobytes()
    # a draw's levels are its powers, bitwise, in row order
    drawn = sample_budget_simplex(np.random.default_rng(4), 3, REF_CONFIG.power_budget, 500)
    assert draws.levels.tobytes() == draws.powers.tobytes() == drawn.tobytes()
    for samples in (grid, draws):
        rows.clear()
        count = len(samples)
        pieces = [samples.mse_rows(lo, hi) for lo, hi in ((0, 7), (7, 200), (200, count))]
        whole = samples.mses
        assert samples.mses is whole            # evaluated once
        assert rows == [7, 193, count - 200, count]
        assert np.concatenate(pieces).tobytes() == whole.tobytes()
        assert whole.tobytes() == evaluate(REF_H, samples.powers, REF_CONFIG).tobytes()


def test_sample_region_validation():
    with pytest.raises(ValueError, match="resolution must be >= 2, got 1"):
        sample_region(REF_H, REF_CONFIG, resolution=1)
    with pytest.raises(ValueError):
        sample_region(REF_H, REF_CONFIG, resolution=10, mode="sobol")
    with pytest.raises(ValueError, match="random"):
        sample_region(random_channels(np.random.default_rng(0), 2, 6),
                      REF_CONFIG, resolution=200, mode="grid")


def test_membership_achievable_and_unreachable_targets():
    verdict = dominated_membership(REF_H, REF_CONFIG, np.ones(3))
    assert verdict.dominated
    assert verdict.margin <= TOL_MEMBER
    assert (verdict.witness_powers >= 0.0).all()

    # below every user's single-user floor: strictly outside
    floor = dominated_membership(REF_H, REF_CONFIG, [0.01, 0.01, 0.01])
    assert not floor.dominated
    assert floor.margin > 1e-2

    # witness consistency: reported margin is attained at witness_powers
    for verdict in (floor, dominated_membership(REF_H, REF_CONFIG, TRIPLE_A)):
        eps = mse_tuple(REF_H, verdict.witness_powers, REF_CONFIG).values
        attained = float((eps - verdict.target).max())
        assert attained == pytest.approx(verdict.margin, abs=1e-9)


def test_membership_computed_triples_dominated():
    for triple in (TRIPLE_A, TRIPLE_B):
        verdict = dominated_membership(REF_H, REF_CONFIG, triple)
        assert verdict.dominated
        assert verdict.margin <= 1e-9


def test_membership_rounded_triples_sit_just_outside():
    # 4-digit rounding crosses the boundary: tiny positive margins, well
    # below the rounding scale 5e-5 but above tol_member
    for rounded, frozen in ((ROUNDED_A, 1.4421944888376448e-05),
                            (ROUNDED_B, 3.821118051985928e-05)):
        verdict = dominated_membership(REF_H, REF_CONFIG, rounded)
        assert not verdict.dominated
        assert 0.0 < verdict.margin <= 5e-5
        assert verdict.margin == pytest.approx(frozen, rel=1e-3)


def test_membership_published_midpoint_outside():
    verdict = dominated_membership(REF_H, REF_CONFIG, [0.60695, 0.1671, 0.61675])
    assert not verdict.dominated
    assert verdict.margin == pytest.approx(0.012179043218058072, abs=1e-3)
    assert verdict.margin > 100 * TOL_MEMBER


def test_membership_counts_its_kernel_calls(monkeypatch):
    # each round evaluates every live target in one kernel call; a target's
    # rounds are the calls it took part in, so a batch of one counts them all
    target = [0.60695, 0.1671, 0.61675]
    plain = dominated_membership(REF_H, REF_CONFIG, target)
    kernel = region._mse_terms
    rows = []

    def recorded(mat, powers, noise_variance):
        rows.append(powers.shape[0])
        return kernel(mat, powers, noise_variance)

    monkeypatch.setattr(region, "_mse_terms", recorded)
    verdict = dominated_membership(REF_H, REF_CONFIG, target)
    assert verdict.converged
    assert 1 <= verdict.rounds == len(rows)
    for field in dataclasses.fields(verdict):
        got = np.asarray(getattr(verdict, field.name))
        assert got.tobytes() == np.asarray(getattr(plain, field.name)).tobytes()

    rows.clear()
    report = segment_test(REF_H, REF_CONFIG, TRIPLE_A, TRIPLE_B, steps=3)
    verdicts = [report.endpoint_a, report.endpoint_b, *report.points]
    assert len(rows) == max(v.rounds for v in verdicts)
    assert sum(rows) == sum(v.rounds for v in verdicts)


def test_membership_derives_only_the_targets_it_keeps(monkeypatch):
    # a round evaluates the MSEs of every live target and derives J only
    # for the targets still open after it, so a target's last round
    # derives nothing: the 11 verdicts of the reference chord as `segment`
    # takes it from 8-digit endpoints, same bytes (81 and 70 rows from the
    # uniform start P/K)
    ends = ([0.21389147, 0.13652377, 1.0], [1.0, 0.19774107, 0.23353177])
    plain = segment_test(REF_H, REF_CONFIG, *ends, steps=9)
    kernel = region._mse_terms
    evaluated, derived = [], []

    def recorded(mat, powers, noise_variance):
        eps, derive = kernel(mat, powers, noise_variance)
        evaluated.append(len(powers))

        def counted(index):
            terms = derive(index)
            derived.append(len(terms[2]))
            return terms
        return eps, counted

    monkeypatch.setattr(region, "_mse_terms", recorded)
    report = segment_test(REF_H, REF_CONFIG, *ends, steps=9)
    verdicts = [report.endpoint_a, report.endpoint_b, *report.points]
    assert sum(evaluated) == sum(v.rounds for v in verdicts) == 55
    assert sum(derived) == sum(v.rounds - 1 for v in verdicts) == 44
    for verdict, alone in zip(verdicts, [plain.endpoint_a, plain.endpoint_b, *plain.points]):
        for field in dataclasses.fields(verdict):
            got = np.asarray(getattr(verdict, field.name))
            assert got.tobytes() == np.asarray(getattr(alone, field.name)).tobytes()


def test_reference_chord_takes_few_kernel_calls():
    # one Newton system in (p, s) from the interference-free start: no
    # verdict of the reference chord takes more than 7 rounds, one kernel
    # call each (6 measured; 8 from the uniform start P/K)
    report = segment_test(REF_H, REF_CONFIG, TRIPLE_A, TRIPLE_B, steps=9)
    verdicts = [report.endpoint_a, report.endpoint_b, *report.points]
    assert all(v.converged for v in verdicts)
    assert max(v.rounds for v in verdicts) <= 7


@pytest.mark.parametrize("channels, ends", [
    (REF_H, (TRIPLE_A, TRIPLE_B)),
    (REF_H[:, 1:], mse_tuples(REF_H[:, 1:], [[2.0, 8.0], [7.0, 3.0]], REF_CONFIG)),
], ids=["reference", "two-user"])
def test_membership_batch_rows_are_single_solves(channels, ends):
    # lockstep rows do not see each other, nor does a two-user row's start
    # at its face crossing: a segment's verdicts are the verdicts of its
    # targets solved one at a time, bit for bit
    report = segment_test(channels, REF_CONFIG, *ends, steps=3)
    for verdict in (report.endpoint_a, report.endpoint_b, *report.points):
        alone = dominated_membership(channels, REF_CONFIG, verdict.target)
        for field in dataclasses.fields(alone):
            got = np.asarray(getattr(verdict, field.name))
            assert got.tobytes() == np.asarray(getattr(alone, field.name)).tobytes()


@pytest.mark.parametrize("target, margin, dominated", [
    ([1e-310, 0.5, 1.0], 0.09685647168069833, False),      # 1 / t overflows
    ([1.0, 1.0, 1.0], -0.5611765131000043, True),          # nothing to meet
    ([1e-300, 1e-300, 0.9], 0.16666666666666685, False),
    ([0.999999, 1.0, 1.0], -0.561176189619371, True),      # one user's need
], ids=["subnormal", "all-ones", "tiny-pair", "near-silent"])
def test_membership_start_rule_edge_targets(target, margin, dominated):
    # targets at the edges of the interference-free start: 1 / t overflows
    # or nothing is to be met (both start at P/K), a start with a power of
    # 3e-301, one user carrying the whole budget.  The rule raises no
    # RuntimeWarning (the suite's filterwarnings make one an error), and
    # each verdict is the one the uniform start P/K gave, its margin
    # (frozen here) within 1e-14
    verdict = dominated_membership(REF_H, REF_CONFIG, target)
    assert verdict.converged
    assert verdict.dominated == dominated
    assert verdict.margin == pytest.approx(margin, rel=0.0, abs=1e-14)


def test_membership_capped_solve_is_reported_unconverged(monkeypatch):
    # two Newton steps cannot close the bracket: the verdict says so and
    # still holds a feasible witness whose margin replays
    target = [0.60695, 0.1671, 0.61675]
    monkeypatch.setattr(region, "_MAX_ROUNDS", 2)
    verdict = dominated_membership(REF_H, REF_CONFIG, target)
    assert not verdict.converged
    assert verdict.rounds == 2
    assert verdict.witness_powers.sum() <= REF_CONFIG.power_budget
    eps = mse_tuple(REF_H, verdict.witness_powers, REF_CONFIG).values
    assert float((eps - verdict.target).max()) == verdict.margin


def _oracle_campaign(k):
    """(channels, config, targets, single-user floors) for N = 1..8 antennas;
    the targets are a reachable one, the exact MSE tuple of a full-budget
    allocation (on the boundary), and one that puts a user below its floor."""
    rng = np.random.default_rng(100 + k)
    for n in range(1, 9):
        channels = random_channels(rng, n, k)
        config = random_config(rng)
        inner = random_powers(rng, k, config.power_budget)
        reachable = np.minimum(1.0, mse_tuple(channels, inner, config).values + 0.02)
        full = random_powers(rng, k, 1.0)
        tight = mse_tuple(channels, full * (config.power_budget / full.sum()), config).values
        floor = 1.0 / (1.0 + config.snr * np.linalg.norm(channels.entries, axis=0) ** 2)
        unreachable = reachable.copy()
        low = int(rng.integers(k))
        unreachable[low] = 0.5 * floor[low]
        yield channels, config, [reachable, tight, unreachable], floor


@pytest.mark.parametrize("k", range(2, 7))
def test_membership_oracle_campaign(k):
    resolution = 1
    while lattice_size(k, resolution + 1) <= 200_000:
        resolution += 1
    for channels, config, targets, floor in _oracle_campaign(k):
        mat = channels.entries
        _, lattice_min = minimax_margin_oracle(channels, config, targets, resolution)

        verdicts = [dominated_membership(channels, config, t) for t in targets]
        for target, verdict, bound in zip(targets, verdicts, lattice_min):
            assert verdict.margin <= bound + 1e-9
            replay = dense_mse(mat, verdict.witness_powers, config.noise_variance)
            assert float((replay - target).max()) == pytest.approx(verdict.margin, abs=1e-9)
        assert verdicts[0].dominated
        assert verdicts[1].dominated
        assert not verdicts[2].dominated
        if k == 2:
            # margin <= TOL_MEMBER iff t + TOL_MEMBER is dominated
            for target, verdict in zip(targets, verdicts):
                assert two_user_dominated(mat, config, target + TOL_MEMBER) == verdict.dominated
        assert verdicts[2].margin >= float((floor - targets[2]).max()) - 1e-12


@pytest.mark.parametrize("k", range(2, 7))
def test_full_budget_allocations_bound_the_margin_from_below(k):
    # the stop rule's lower end: at any p >= 0 spending P, s* is at least the
    # least eps_k - t_k of the users with p_k > 0, so that value never
    # exceeds the margin of a verdict (an upper bound on s*); 200 random
    # allocations per target, some with silent users
    rng = np.random.default_rng([200, k])
    for channels, config, targets, _ in _oracle_campaign(k):
        raw = rng.exponential(size=(200, k)) * (rng.random((200, k)) < 0.7)
        raw[raw.sum(axis=1) == 0.0, 0] = 1.0
        powers = raw * (config.power_budget / raw.sum(axis=1, keepdims=True))
        eps = mse_tuples(channels, powers, config)
        for target in targets:
            least = np.where(powers > 0.0, eps - target, np.inf).min(axis=1)
            margin = dominated_membership(channels, config, target).margin
            assert least.max() <= margin + 1e-12, (channels.n_antennas, target)


def test_membership_many_antennas_reachable_target():
    # K=8, N=64: the solver works on the 8 x 8 triangular factor of H,
    # and the witness replays on H itself
    rng = np.random.default_rng(32)
    channels = random_channels(rng, 64, 8)
    config = random_config(rng)
    inner = random_powers(rng, 8, config.power_budget)
    target = np.minimum(1.0, mse_tuple(channels, inner, config).values + 0.02)
    verdict = dominated_membership(channels, config, target)
    assert verdict.dominated
    replay = dense_mse(channels.entries, verdict.witness_powers, config.noise_variance)
    assert float((replay - target).max()) == pytest.approx(verdict.margin, abs=1e-9)


@pytest.mark.parametrize("k", (3, 5, 8))
def test_membership_high_snr_targets_of_known_allocations(k):
    # t = eps(p0) * {1.05, 1.001} for an interior p0, so p0 itself meets t
    # with power to spare: every such target is dominated, and its bracket
    # closes, at N < K too
    for seed in (7, 8, 9):
        rng = np.random.default_rng([seed, k])
        for n, snr in itertools.product((2, 8, 64), (1e3, 1e5)):
            channels = random_channels(rng, n, k)
            config = SystemConfig(noise_variance=1.0, power_budget=snr)
            inner = mse_tuple(channels, random_powers(rng, k, snr), config).values
            for scale in (1.05, 1.001):
                target = np.minimum(1.0, inner * scale)
                verdict = dominated_membership(channels, config, target)
                assert verdict.witness_powers.sum() <= config.power_budget
                replay = dense_mse(channels.entries, verdict.witness_powers, 1.0)
                assert float((replay - target).max()) == pytest.approx(verdict.margin, abs=1e-9)
                assert verdict.dominated and verdict.converged, (seed, n, snr, scale)


@pytest.mark.parametrize("family, oracle", [("colinear", colinear_membership_margin),
                                            ("orthogonal", orthogonal_membership_margin)],
                         ids=["colinear", "orthogonal"])
@pytest.mark.parametrize("k", (3, 5, 8))
def test_membership_matches_closed_form_families(family, oracle, k):
    # s* in closed form (tests/helpers.py) at face targets (the MSEs of four
    # full-budget allocations), at 0.9 of them (outside up to P/sigma^2 =
    # 1e4) and at min(1.05 of them, 1) (inside).  From 1e6 on, the 0.9 x
    # face targets of orthogonal channels lie within TOL_MEMBER of the
    # face, so every verdict is checked against its exact margin.  On
    # orthogonal channels a face target's interference-free start is its
    # solution, so its bracket closes within the rounds that rounding takes
    rng = np.random.default_rng([23, k])
    for snr in (1e-2, 1.0, 1e2, 1e4, 1e6, 1e8, 1e12, 1e15):
        mat = closed_form_channels(family, rng, 8, k)
        raw = rng.exponential(size=(4, k))
        if family == "colinear" and k == 8 and snr == 1e15:
            continue    # K = N: the kernel's face MSEs raise LinAlgError here
        config = SystemConfig(noise_variance=1.0, power_budget=snr)
        face = mse_tuples(mat, raw * (snr / raw.sum(axis=1, keepdims=True)), config)
        targets = np.vstack([face, 0.9 * face, np.minimum(1.05 * face, 1.0)])
        verdicts = region._solve(ChannelSet(mat), config, targets)
        gains = np.sum(np.abs(mat) ** 2, axis=0)
        exact = [oracle(gains, target, 1.0, snr) for target in targets]
        assert all(v.converged for v in verdicts), snr
        np.testing.assert_allclose([v.margin for v in verdicts], exact, rtol=0.0, atol=1e-14)
        assert [v.dominated for v in verdicts] == [e <= TOL_MEMBER for e in exact], snr
        if snr <= 1e4:
            assert [v.dominated for v in verdicts] == [True] * 4 + [False] * 4 + [True] * 4, snr
        if family == "orthogonal":
            assert max(v.rounds for v in verdicts[:4]) <= 4, snr


def test_grouped_oracle_reduces_to_the_closed_form_families():
    # one group is the colinear family, singleton groups the orthogonal one
    rng = np.random.default_rng(27)
    for family, oracle, sizes in (("colinear", colinear_membership_margin, (4,)),
                                  ("orthogonal", orthogonal_membership_margin, (1, 1, 1, 1))):
        for snr in (0.1, 10.0, 1e3):
            mat = closed_form_channels(family, rng, 6, 4)
            gains = np.sum(np.abs(mat) ** 2, axis=0)
            config = SystemConfig(noise_variance=1.0, power_budget=snr)
            raw = rng.exponential(size=(3, 4))
            face = mse_tuples(mat, raw * (snr / raw.sum(axis=1, keepdims=True)), config)
            for target in np.vstack([face, 0.9 * face, np.minimum(1.05 * face, 1.0)]):
                exact = oracle(gains, target, 1.0, snr)
                assert grouped_membership_margin(gains, sizes, target, 1.0, snr) \
                    == pytest.approx(exact, rel=1e-15, abs=1e-15), (family, snr)


def test_membership_matches_the_grouped_family_and_finds_its_nonconvexity():
    # K = 3: a colinear pair and a user orthogonal to it, N = 4, P / sigma^2
    # = 10^U(-1, 3).  Its region is not convex, and membership is in closed
    # form (tests/helpers.py): targets are the MSEs of five full-budget
    # allocations and the midpoints of their ten chords, some of which
    # leave the region
    outside = 0
    for instance in range(12):
        rng = np.random.default_rng([27, instance])
        mat = grouped_channels(rng, 4, (2, 1))
        snr = float(10.0 ** rng.uniform(-1.0, 3.0))
        config = SystemConfig(noise_variance=1.0, power_budget=snr)
        raw = rng.exponential(size=(5, 3))
        face = mse_tuples(mat, raw * (snr / raw.sum(axis=1, keepdims=True)), config)
        first, second = np.triu_indices(5, 1)
        targets = np.vstack([face, 0.5 * (face[first] + face[second])])
        verdicts = region._solve(ChannelSet(mat), config, targets)
        gains = np.sum(np.abs(mat) ** 2, axis=0)
        exact = np.array([grouped_membership_margin(gains, (2, 1), t, 1.0, snr) for t in targets])
        assert all(v.converged for v in verdicts), instance
        np.testing.assert_allclose([v.margin for v in verdicts], exact, rtol=0.0, atol=1e-14)
        assert [v.dominated for v in verdicts] == list(exact <= TOL_MEMBER), instance
        outside += int((exact[5:] > TOL_MEMBER).sum())
    assert outside >= 1


def _two_user_panel():
    """(channels, config, targets) of 100 two-user problems: N = 1..5
    antennas, every fifth pair colinear, P / sigma^2 = 10^U(-2, 10).  The
    targets are the MSEs of a full-budget allocation (face), min(1.05 face,
    1) (inside), 0.95 face (outside) and face with one t_k = 1."""
    rng = np.random.default_rng(58)
    for i in range(100):
        n = 1 + i % 5
        mat = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        if i % 5 == 4:
            mat[:, 1] = mat[:, 0] * complex(*rng.standard_normal(2))
        config = SystemConfig(noise_variance=1.0, power_budget=float(10.0 ** rng.uniform(-2, 10)))
        raw = rng.exponential(size=2)
        face = mse_tuple(mat, raw * (config.power_budget / raw.sum()), config).values
        silent = face.copy()
        silent[i % 2] = 1.0
        yield mat, config, np.vstack([face, np.minimum(1.05 * face, 1.0), 0.95 * face, silent])


def test_two_user_margins_are_exact_in_few_rounds():
    # a two-user target starts at its exact face crossing, so its margin is
    # the 50-digit crossing of tests/helpers.py to 1e-14, its verdict that
    # margin's, and its first kernel round closes the bracket: the 112 face
    # and inside targets at P / sigma^2 <= 1e4 took mean 4.4, max 7 rounds
    # from the interference-free start, and take one each (measured)
    rounds = []
    for mat, config, targets in _two_user_panel():
        verdicts = region._solve(ChannelSet(mat), config, targets)
        exact = [two_user_margin(mat, config, t) for t in targets]
        np.testing.assert_allclose([v.margin for v in verdicts], exact, rtol=0.0, atol=1e-14)
        assert [v.dominated for v in verdicts] == [e <= TOL_MEMBER for e in exact], exact
        assert all(v.converged for v in verdicts), config
        if config.snr <= 1e4:
            rounds += [v.rounds for v in verdicts[:2]]
    assert len(rounds) == 112
    assert max(rounds) <= 2 and np.mean(rounds) <= 1.1, (max(rounds), np.mean(rounds))


def test_membership_matches_bruteforce_oracle():
    rng = np.random.default_rng(31)
    for _ in range(2):
        channels = random_channels(rng, 2, 3)
        config = random_config(rng, power=(1.0, 20.0))
        base = mse_tuples(channels.entries,
                          rng.uniform(0, config.power_budget / 3, size=(2, 3)),
                          config)
        targets = [base[0], np.minimum(1.0, base[0] * 1.1), base[1] * 0.9]
        refined, _ = minimax_margin_oracle(channels, config, targets, resolution=200)
        for target, expected in zip(targets, refined):
            verdict = dominated_membership(channels, config, target)
            assert verdict.margin == pytest.approx(expected, abs=1e-3)


def test_segment_same_endpoint_is_trivial():
    report = segment_test(REF_H, REF_CONFIG, TRIPLE_A, TRIPLE_A, steps=3)
    assert not report.nonconvex_witness
    assert report.endpoint_a.dominated and report.endpoint_b.dominated
    for pt in report.points:
        assert pt.dominated
        assert pt.margin <= TOL_MEMBER


def test_segment_endpoint_validation():
    with pytest.raises(ValueError, match="endpoint a is not achievable"):
        segment_test(REF_H, REF_CONFIG, [0.01, 0.01, 0.01], TRIPLE_A)
    with pytest.raises(ValueError, match="endpoint b is not achievable"):
        segment_test(REF_H, REF_CONFIG, TRIPLE_A, [0.01, 0.01, 0.01])
    with pytest.raises(ValueError):
        segment_test(REF_H, REF_CONFIG, TRIPLE_A, [0.5, 0.5])
    with pytest.raises(ValueError):
        segment_test(REF_H, REF_CONFIG, TRIPLE_A, TRIPLE_B, steps=0)


def test_segment_counterexample_witness_margins():
    frozen = [0.0038614087658023766, 0.0074553532662927635, 0.010103643065669132,
              0.011673144764411836, 0.01215671287693676, 0.011576022296890698,
              0.009961757994358333, 0.0073657953799824705, 0.0039162539878540015]
    report = segment_test(REF_H, REF_CONFIG, TRIPLE_A, TRIPLE_B, steps=9)
    assert report.nonconvex_witness
    assert report.endpoint_a.margin <= 1e-9
    assert report.endpoint_b.margin <= 1e-9
    assert len(report.points) == 9
    for pt, expected in zip(report.points, frozen):
        assert not pt.dominated
        assert pt.margin > 100 * TOL_MEMBER
        assert pt.margin == pytest.approx(expected, rel=1e-3)
    np.testing.assert_allclose([pt.t for pt in report.points],
                               np.arange(1, 10) / 10.0, rtol=1e-15)


def test_two_user_segments_never_witness():
    # convex two-user region: chords between boundary points stay inside
    rng = np.random.default_rng(3)
    for _ in range(200):
        mat = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        cfg = SystemConfig(float(rng.uniform(0.1, 10)), float(rng.uniform(1, 100)))
        pa = float(rng.uniform(0.05, 0.45)) * cfg.power_budget
        pb = float(rng.uniform(0.55, 0.95)) * cfg.power_budget
        a = np.asarray(mse_pair_at_power(mat[:, 0], mat[:, 1], cfg, pa))
        b = np.asarray(mse_pair_at_power(mat[:, 0], mat[:, 1], cfg, pb))
        report = segment_test(mat, cfg, a, b, steps=1)
        assert not report.nonconvex_witness
        for point in report.points:
            assert two_user_dominated(mat, cfg, point.target)


def _face_chord_midpoints(chan, config, grid):
    """Powers of the full-budget face lattice (m P / grid, sum m = grid),
    and the lattice pairs i < j with the midpoints of their MSE tuples."""
    lattice = budget_simplex_lattice(chan.n_users, grid)
    powers = lattice[lattice.sum(axis=1) == grid] * (config.power_budget / grid)
    mses = mse_tuples(chan, powers, config)
    first, second = np.triu_indices(len(powers), 1)
    return powers, first, second, 0.5 * (mses[first] + mses[second])


def test_batched_membership_checks_both_claims():
    # K = 2 (N = 4, P / sigma^2 = 10^U(-1, 3)): every chord midpoint of the
    # face is dominated, as the two-user theorem says (measured worst margin
    # -1.6e-7), and its witness, spending at most P, replays its margin.
    # All 16 400 midpoints converge: from the interference-free start in
    # 81 920 rounds (max 33), from the face crossing in 16 696 (max 21, the
    # longest next to a silent end at P / sigma^2 ~ 1e3)
    rng = np.random.default_rng(7)
    rounds = 0
    for instance in range(20):
        chan = ChannelSet(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        config = SystemConfig(noise_variance=1.0, power_budget=float(10.0 ** rng.uniform(-1, 3)))
        mids = _face_chord_midpoints(chan, config, 40)[3]
        verdicts = region._solve(chan, config, mids)
        witness = np.array([v.witness_powers for v in verdicts])
        replay = (mse_tuples(chan, witness, config) - mids).max(axis=1)
        assert (witness.sum(axis=1) <= config.power_budget).all(), instance
        assert (replay == [v.margin for v in verdicts]).all(), instance
        assert (replay <= TOL_MEMBER).all(), (instance, replay.max())
        assert all(v.converged for v in verdicts), instance
        rounds += sum(v.rounds for v in verdicts)
    assert rounds < 20_000, rounds
    # the reference instance: the deepest midpoint of face grid 12 lies
    # deeper outside the region than the published chord's midpoint
    chan = ChannelSet(REF_H)
    powers, first, second, mids = _face_chord_midpoints(chan, REF_CONFIG, 12)
    verdicts = region._solve(chan, REF_CONFIG, mids)
    assert len(verdicts) == 4095 and all(v.converged for v in verdicts)
    deepest = max(range(len(verdicts)), key=lambda i: verdicts[i].margin)
    np.testing.assert_allclose([powers[first[deepest]], powers[second[deepest]]],
                               [[0.0, 10 / 3, 20 / 3], [10 / 3, 0.0, 20 / 3]], rtol=1e-15)
    assert verdicts[deepest].margin == pytest.approx(0.016106, abs=1e-6)
    published = dominated_membership(REF_H, REF_CONFIG, 0.5 * (TRIPLE_A + TRIPLE_B))
    assert published.margin == pytest.approx(0.012157, abs=1e-6)
    assert verdicts[deepest].margin > published.margin + 3e-3


def test_embed_inactive_users_identity_and_padding():
    same = embed_inactive_users(REF_H, 0)
    np.testing.assert_array_equal(same.entries, REF_H)

    grown = embed_inactive_users(REF_H, 2)
    assert grown.entries.shape == (2, 5)
    np.testing.assert_array_equal(grown.entries[:, :3], REF_H)
    np.testing.assert_array_equal(grown.entries[:, 3], REF_H[:, -1])
    np.testing.assert_array_equal(grown.entries[:, 4], REF_H[:, -1])

    rng = np.random.default_rng(32)
    powers = rng.uniform(0, 3, size=3)
    base_eps = mse_tuple(REF_H, powers, REF_CONFIG).values
    padded_eps = mse_tuple(grown, np.append(powers, [0.0, 0.0]), REF_CONFIG).values
    np.testing.assert_allclose(padded_eps[:3], base_eps, atol=1e-12, rtol=0.0)
    assert padded_eps[3] == 1.0
    assert padded_eps[4] == 1.0

    with pytest.raises(ValueError):
        embed_inactive_users(REF_H, -1)


def test_embed_preserves_segment_witness():
    grown = embed_inactive_users(REF_H, 1)
    a = np.append(TRIPLE_A, 1.0)
    b = np.append(TRIPLE_B, 1.0)
    report = segment_test(grown, REF_CONFIG, a, b, steps=1)
    assert report.nonconvex_witness
    assert report.points[0].margin == pytest.approx(0.01215671287693676, rel=1e-2)
