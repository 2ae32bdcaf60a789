"""Model layer: closed forms, dense-inverse oracles, batching, validation."""

import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mseregion import (
    ChannelSet,
    MseTuple,
    PowerAllocation,
    SystemConfig,
    ensure_feasible,
    mse_jacobian,
    mse_tuple,
    mse_tuples,
    rate_from_mse,
    receive_covariance,
    resolvent_grams,
    sinr_from_mse,
    weighted_mse_derivatives,
    weighted_mse_gradient,
    weighted_sum_mse,
)
from mseregion import model
from mseregion.model import _chunk_rows
from mseregion.simplex import budget_simplex_lattice

from helpers import (
    dense_mse,
    lower_factor,
    random_channels,
    random_config,
    random_powers,
    second_order_grams,
)


def test_single_user_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(20):
        h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        config = random_config(rng)
        p = float(rng.uniform(0, config.power_budget))
        norm_sq = float(np.vdot(h, h).real)
        expected = config.noise_variance / (config.noise_variance + p * norm_sq)
        got = mse_tuple(h.reshape(3, 1), [p], config).values[0]
        assert got == pytest.approx(expected, rel=1e-12)


def test_zero_power_gives_unit_mse():
    rng = np.random.default_rng(1)
    channels = random_channels(rng, 4, 3)
    config = SystemConfig(noise_variance=2.0, power_budget=5.0)
    eps = mse_tuple(channels, [0.0, 1.0, 0.0], config).values
    assert eps[0] == 1.0
    assert eps[2] == 1.0
    assert eps[1] < 1.0


def test_mse_matches_dense_inverse():
    rng = np.random.default_rng(2)
    for n, k in [(1, 1), (2, 2), (3, 2), (2, 4), (5, 5), (4, 6)]:
        channels = random_channels(rng, n, k)
        config = random_config(rng)
        powers = random_powers(rng, k, config.power_budget)
        expected = dense_mse(channels.entries, powers, config.noise_variance)
        got = mse_tuple(channels, powers, config).values
        np.testing.assert_allclose(got, expected, rtol=1e-11, atol=1e-13)


def test_resolvent_grams_match_dense_inverse():
    rng = np.random.default_rng(3)
    channels = random_channels(rng, 4, 3)
    config = random_config(rng)
    powers = random_powers(rng, 3, config.power_budget)
    gram_a, gram_b = second_order_grams(channels, powers, config)
    mat = channels.entries
    cov = config.noise_variance * np.eye(4, dtype=complex) + (mat * powers) @ mat.conj().T
    inv = np.linalg.inv(cov)
    inv2 = inv @ inv
    for i in range(3):
        for j in range(3):
            assert gram_a[i, j] == pytest.approx(mat[:, i].conj() @ inv @ mat[:, j], abs=1e-11)
            assert gram_b[i, j] == pytest.approx(mat[:, i].conj() @ inv2 @ mat[:, j], abs=1e-11)


def test_batched_powers_agree_with_loop(monkeypatch):
    rng = np.random.default_rng(4)
    channels = random_channels(rng, 3, 4)
    config = random_config(rng)
    batch = np.stack([random_powers(rng, 4, config.power_budget) for _ in range(17)])
    eps_batch = mse_tuples(channels, batch, config)
    assert eps_batch.shape == (17, 4)
    for row, powers in zip(eps_batch, batch):
        np.testing.assert_allclose(row, mse_tuple(channels, powers, config).values,
                                   rtol=1e-12, atol=1e-14)
    # a (4, 4, K) grid of rows takes the values of the same rows in an (S, K) batch
    grid = mse_jacobian(channels, batch[:16].reshape(4, 4, 4), config)
    for got, ref in zip(grid, mse_jacobian(channels, batch[:16], config)):
        assert got.tobytes() == ref.tobytes() and got.shape[:2] == (4, 4)
    # chunked evaluation takes the same values: a budget of 5 rows per chunk
    monkeypatch.setattr(model, "_CHUNK_BYTES", 5 * 16 * 3 * (3 + 4))
    assert _chunk_rows(3, 4) == 5
    eps_chunked = mse_tuples(channels, batch, config)
    np.testing.assert_array_equal(eps_batch, eps_chunked)


def test_single_batched_and_jacobian_mses_are_bitwise_equal():
    # one MSE formula: mse_tuple is a row of mse_tuples, and mse_jacobian's
    # eps (one vector or a batch) takes the same bits
    rng = np.random.default_rng(42)
    for k in range(1, 9):
        for n in (1, 2, 4, 8, 32):
            channels = random_channels(rng, n, k)
            config = random_config(rng)
            batch = np.stack([random_powers(rng, k, config.power_budget) for _ in range(60)])
            rows = mse_tuples(channels, batch, config)
            eps_batch, _ = mse_jacobian(channels, batch, config)
            assert rows.tobytes() == eps_batch.tobytes(), (k, n)
            for row, powers in zip(rows, batch):
                assert mse_tuple(channels, powers, config).values.tobytes() == row.tobytes()
                assert mse_jacobian(channels, powers, config)[0].tobytes() == row.tobytes()


def test_default_chunking_is_bitwise_invariant(monkeypatch):
    # a batch spanning three default-sized chunks (240 rows each at N=32,
    # K=2), against one row per chunk and the whole batch in one chunk
    rng = np.random.default_rng(41)
    channels = random_channels(rng, 32, 2)
    config = random_config(rng)
    rows = 2 * _chunk_rows(32, 2) + 101
    batch = rng.uniform(0.0, config.power_budget / 2, size=(rows, 2))
    eps_default = mse_tuples(channels, batch, config)
    monkeypatch.setattr(model, "_CHUNK_BYTES", 1)
    assert _chunk_rows(32, 2) == 1
    np.testing.assert_array_equal(eps_default, mse_tuples(channels, batch, config))
    monkeypatch.setattr(model, "_CHUNK_BYTES", 16 * 32 * (32 + 2) * rows)
    assert _chunk_rows(32, 2) == rows
    np.testing.assert_array_equal(eps_default, mse_tuples(channels, batch, config))
    with pytest.raises(ValueError, match="mse_tuple"):
        mse_tuples(channels, batch[0], config)


def test_rows_are_bitwise_alone_in_a_small_chunk_and_in_a_default_chunk(monkeypatch):
    # n = 1..8, the factor square (N >= K) and wide (N < K): rows of a batch
    # larger than one default chunk take the same bytes alone, inside a
    # 5-row chunk and inside the default chunk, where numpy's loops run
    # over thousands of rows
    rng = np.random.default_rng(47)
    for n in range(1, 9):
        for n_ant, k in ((n + 3, n), (n, n + 1)):
            channels = random_channels(rng, n_ant, k)
            config = random_config(rng)
            rows = _chunk_rows(n, k) + 37
            batch = rng.uniform(0.0, config.power_budget / k, size=(rows, k))
            picks = [0, 1, rows // 2, _chunk_rows(n, k) - 1, _chunk_rows(n, k), rows - 1]
            default = mse_tuples(channels, batch, config)
            eps_batch, jac_batch = mse_jacobian(channels, batch, config)
            assert default.tobytes() == eps_batch.tobytes(), (n, k)
            for i in picks:
                alone = mse_tuples(channels, batch[i:i + 1], config)
                assert alone.tobytes() == default[i:i + 1].tobytes(), (n, k, i)
                eps, jac = mse_jacobian(channels, batch[i], config)
                assert eps.tobytes() == eps_batch[i].tobytes(), (n, k, i)
                assert jac.tobytes() == jac_batch[i].tobytes(), (n, k, i)
            with monkeypatch.context() as patch:
                patch.setattr(model, "_CHUNK_BYTES", 5 * 16 * n * (n + k))
                assert _chunk_rows(n, k) == 5
                assert mse_tuples(channels, batch, config).tobytes() == default.tobytes(), (n, k)

    # a (T, 1, N, K) stack against a (T, G, K) grid, through the second order
    config = SystemConfig(noise_variance=0.8, power_budget=40.0)
    for n_ant, k in ((6, 4), (3, 5)):
        mats = np.stack([random_channels(rng, n_ant, k).entries for _ in range(3)])
        grid = rng.uniform(0.0, 10.0, size=(3, 700, k))
        grams = second_order_grams(mats[:, None], grid, config)
        for t, g in ((0, 0), (1, 350), (2, 699)):
            alone = second_order_grams(mats[t], grid[t, g], config)
            for gram, single in zip(grams, alone, strict=True):
                assert gram[t, g].tobytes() == single.tobytes(), (n_ant, k, t, g)


def _poison(monkeypatch, value, pivot, call, row):
    """Make `_covariance` put `value` at X[pivot, pivot] of batch row `row`
    on its call number `call`."""
    original = model._covariance
    calls = []

    def covariance(mat, pw, noise_variance):
        cov = original(mat, pw, noise_variance)
        if len(calls) == call:
            cov[pivot, pivot, row] = value
        calls.append(pw.shape)
        return cov
    monkeypatch.setattr(model, "_covariance", covariance)


def test_a_bad_pivot_raises_and_nothing_warns(monkeypatch):
    # LAPACK raised LinAlgError, a ValueError, on an X that is not positive
    # definite; the elimination raises it too, warns nothing and passes on
    # no NaN: for a 1-row batch, and for one row of a multi-chunk batch
    assert issubclass(np.linalg.LinAlgError, ValueError)
    rng = np.random.default_rng(53)
    channels = random_channels(rng, 5, 3)
    config = SystemConfig(noise_variance=0.5, power_budget=12.0)
    chunk = _chunk_rows(3, 3)
    batch = rng.uniform(0.0, 4.0, size=(3 * chunk + 11, 3))
    evaluations = (
        (lambda pw: mse_tuples(channels, pw, config), 1),       # the second of four chunks
        (lambda pw: mse_jacobian(channels, pw, config), 0),
        (lambda pw: weighted_mse_derivatives(channels, pw, config, np.ones(3)), 0),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for evaluate, call in evaluations:
            for value in (-1.0, 0.0, np.inf, np.nan):
                for pivot in (0, -1):
                    for pw, at in ((batch[:1], (0, 0)), (batch, (call, 17))):
                        with monkeypatch.context() as patch:
                            _poison(patch, value, pivot, *at)
                            with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
                                evaluate(pw)


def test_a_subnormal_pivot_raises_before_any_warning():
    # the reference channels x 1e-160 at sigma^2 = 1e-320: the first pivot
    # is subnormal and 1/pivot overflows, which the elimination must not
    # report as a RuntimeWarning before its LinAlgError
    from mseregion import kkt

    channels = ChannelSet(kkt.REFERENCE_CHANNELS.entries * 1e-160)
    config = SystemConfig(noise_variance=1e-320, power_budget=kkt.REFERENCE_POWER_BUDGET)
    powers = np.array([[3.0, 3.0, 4.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for evaluate in (mse_tuples, mse_jacobian):
            with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
                evaluate(channels, powers, config)


def test_region_lattice_working_set_is_a_few_chunks():
    # the K = 3, N = 8, grid-91 lattice (134 044 rows): mse_tuples holds a
    # chunk's intermediates, never the whole batch's
    rng = np.random.default_rng(5)
    channels = random_channels(rng, 8, 3)
    config = SystemConfig(noise_variance=1.0, power_budget=30.0)
    batch = budget_simplex_lattice(3, 91) * (30.0 / 91)
    assert batch.shape == (134044, 3)
    channels.factor                     # the set's QR, made before the measured call
    tracemalloc.start()
    try:
        mse_tuples(channels, batch, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak


def test_mse_path_never_lu_solves(monkeypatch):
    rng = np.random.default_rng(43)
    config = SystemConfig(noise_variance=0.7, power_budget=20.0)
    channels = random_channels(rng, 6, 4)
    batch = np.stack([random_powers(rng, 4, config.power_budget) for _ in range(7)])

    def evaluate():
        return (mse_tuples(channels, batch, config), *mse_jacobian(channels, batch, config),
                *weighted_mse_derivatives(channels, batch, config, np.ones(4)))

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"np.linalg.{name} called on the MSE path")
        return call

    expected = evaluate()
    monkeypatch.setattr(np.linalg, "solve", refuse("solve"))
    monkeypatch.setattr(np.linalg, "cholesky", refuse("cholesky"))
    for ref, got in zip(expected, evaluate(), strict=True):
        assert ref.tobytes() == got.tobytes()

    # the elimination inverts L: L (L^{-1} H) is H, broadcast to the powers
    mats = np.stack([random_channels(rng, 3, 2).entries for _ in range(5)])
    grid = np.stack([np.stack([random_powers(rng, 2, config.power_budget) for _ in range(4)])
                     for _ in range(5)])
    for mat, pw in ((channels.entries, batch), (mats, grid[:, 0]), (mats[:, None], grid)):
        work = model._whiten(mat, pw, config.noise_variance)
        low, half = lower_factor(work), np.conj(model._rows_first(work[mat.shape[-2]:]))
        full = np.broadcast_to(mat, pw.shape[:-1] + mat.shape[-2:])
        assert half.shape == full.shape
        err = np.linalg.norm(low @ half - full, axis=(-2, -1))
        assert (err <= 1e-14 * np.linalg.norm(full, axis=(-2, -1))).all(), err.max()


def test_mse_values_in_unit_interval():
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        channels = random_channels(rng, int(rng.integers(1, 6)), k)
        config = random_config(rng)
        eps = mse_tuple(channels, random_powers(rng, k, config.power_budget), config).values
        assert np.all(eps > 0.0)
        assert np.all(eps <= 1.0)


def test_receive_covariance_hermitian_and_bounded_below():
    rng = np.random.default_rng(6)
    channels = random_channels(rng, 4, 3)
    config = SystemConfig(noise_variance=0.7, power_budget=9.0)
    powers = random_powers(rng, 3, config.power_budget)
    cov = receive_covariance(channels, powers, config)
    np.testing.assert_allclose(cov, cov.conj().T, atol=1e-14)
    assert np.linalg.eigvalsh(cov).min() >= 0.7 - 1e-12


def test_receive_covariance_is_the_kernels_covariance(monkeypatch):
    # the kernel factors exactly the X that receive_covariance returns (which
    # is Hermitian to the bit), into a lower triangular L with a real
    # positive diagonal and L L^H = X to a few ulps, for a vector and a batch
    rng = np.random.default_rng(7)
    channels = random_channels(rng, 4, 3)
    config = SystemConfig(noise_variance=0.7, power_budget=9.0)
    batch = np.stack([random_powers(rng, 3, config.power_budget) for _ in range(6)])
    factored = []
    original = model._covariance

    def recording(*args):
        factored.append(original(*args))
        return factored[-1]

    monkeypatch.setattr(model, "_covariance", recording)
    for powers in (batch[0], batch):
        factored.clear()
        low = lower_factor(model._whiten(channels.entries, powers, config.noise_variance))
        cov = receive_covariance(channels, powers, config)
        assert cov.shape == low.shape == powers.shape[:-1] + (4, 4)
        assert len(factored) == 2
        assert np.moveaxis(factored[0], (0, 1), (-2, -1)).tobytes() == cov.tobytes()
        assert (cov == np.conj(np.swapaxes(cov, -1, -2))).all()
        assert (np.triu(low, 1) == 0).all()
        diag = np.einsum("...ii->...i", low)
        assert (diag.imag == 0).all() and (diag.real > 0).all()
        err = np.linalg.norm(low @ np.conj(np.swapaxes(low, -1, -2)) - cov, axis=(-2, -1))
        assert (err <= 8 * np.finfo(float).eps * np.linalg.norm(cov, axis=(-2, -1))).all()


def test_weighted_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for k in range(1, 6):
        channels = random_channels(rng, int(rng.integers(2, 5)), k)
        config = random_config(rng)
        powers = random_powers(rng, k, 0.8 * config.power_budget)
        weights = rng.uniform(0.1, 1.0, size=k)
        grad = weighted_mse_gradient(channels, powers, config, weights)
        for j in range(k):
            step = 1e-6 * (1.0 + powers[j])
            up = powers.copy()
            up[j] += step
            down = powers.copy()
            down[j] -= step
            fd = (weighted_sum_mse(channels, up, config, weights)
                  - weighted_sum_mse(channels, down, config, weights)) / (2 * step)
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-10)


def _gradient_differences(channels, powers, config, weights, step):
    cols = []
    for j in range(powers.size):
        delta = np.zeros(powers.size)
        delta[j] = step
        cols.append(weighted_mse_gradient(channels, powers + delta, config, weights)
                    - weighted_mse_gradient(channels, powers - delta, config, weights))
    return np.column_stack(cols) / (2.0 * step)


def test_weighted_hessian_matches_gradient_differences():
    # Richardson-extrapolated central differences of the gradient
    rng = np.random.default_rng(10)
    for k in range(2, 9):
        for n in (1, 2, 8, 32):
            channels = random_channels(rng, n, k)
            weights = rng.uniform(0.05, 1.0, size=k)
            for snr in (0.1, 1.0, 10.0, 1e2, 1e3):
                config = SystemConfig(noise_variance=1.0, power_budget=snr)
                powers = 0.9 * snr * (0.1 + rng.dirichlet(np.ones(k))) / (1.0 + 0.1 * k)
                value, grad, hess = weighted_mse_derivatives(channels, powers, config, weights)
                assert value == weighted_sum_mse(channels, powers, config, weights)
                np.testing.assert_array_equal(
                    grad, weighted_mse_gradient(channels, powers, config, weights))
                np.testing.assert_array_equal(hess, hess.T)
                step = 1e-3 * snr / k
                fd = (4.0 * _gradient_differences(channels, powers, config, weights, step / 2)
                      - _gradient_differences(channels, powers, config, weights, step)) / 3.0
                assert np.abs(fd - hess).max() <= 1e-7 * np.abs(hess).max()


def test_weighted_derivatives_batch_rows_are_single_points():
    rng = np.random.default_rng(11)
    channels = random_channels(rng, 3, 4)
    config = random_config(rng)
    weights = rng.uniform(0.05, 1.0, size=4)
    batch = np.array([random_powers(rng, 4, config.power_budget) for _ in range(9)])
    values, grads, hessians = weighted_mse_derivatives(channels, batch, config, weights)
    for row, value, grad, hess in zip(batch, values, grads, hessians):
        alone = weighted_mse_derivatives(channels, row, config, weights)
        assert alone[0] == value
        np.testing.assert_array_equal(alone[1], grad)
        np.testing.assert_array_equal(alone[2], hess)


def test_weighted_functions_reject_invalid_weights():
    channels = random_channels(np.random.default_rng(8), 2, 3)
    config = SystemConfig(noise_variance=1.0, power_budget=10.0)
    powers = np.array([1.0, 2.0, 3.0])
    for weights in ([np.nan, 1.0, 1.0], [-1.0, 1.0, 1.0], [0.0, 0.0, 0.0]):
        for fn in (weighted_sum_mse, weighted_mse_gradient, weighted_mse_derivatives):
            with pytest.raises(ValueError):
                fn(channels, powers, config, weights)


def test_jacobian_sign_structure():
    # own-power column strictly negative on the diagonal, cross terms >= 0
    rng = np.random.default_rng(8)
    channels = random_channels(rng, 3, 4)
    config = random_config(rng)
    powers = random_powers(rng, 4, config.power_budget) + 0.01
    eps, jac = mse_jacobian(channels, powers, config)
    assert np.all(np.diag(jac) < 0.0)
    off = jac - np.diag(np.diag(jac))
    assert np.all(off >= 0.0)
    assert np.all(eps > 0.0)


def test_perturbation_monotonicity():
    # raising one user's power lowers its MSE and weakly raises the others
    rng = np.random.default_rng(9)
    for _ in range(30):
        k = int(rng.integers(2, 5))
        channels = random_channels(rng, int(rng.integers(2, 5)), k)
        config = random_config(rng)
        powers = random_powers(rng, k, 0.5 * config.power_budget)
        j = int(rng.integers(k))
        bumped = powers.copy()
        bumped[j] += 0.1 * (1.0 + powers[j])
        before = mse_tuple(channels, powers, config).values
        after = mse_tuple(channels, bumped, config).values
        assert after[j] < before[j] + 1e-15
        others = np.arange(k) != j
        assert np.all(after[others] >= before[others] - 1e-12)


def test_phase_rotation_invariance():
    # per-user phase rotations leave every MSE unchanged
    rng = np.random.default_rng(10)
    channels = random_channels(rng, 3, 3)
    config = random_config(rng)
    powers = random_powers(rng, 3, config.power_budget)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=3))
    rotated = ChannelSet(channels.entries * phases)
    np.testing.assert_allclose(
        mse_tuple(channels, powers, config).values,
        mse_tuple(rotated, powers, config).values,
        rtol=1e-12,
    )


@settings(deadline=None, max_examples=60)
@given(st.floats(min_value=1e-6, max_value=1.0))
def test_sinr_rate_identities(eps):
    sinr = sinr_from_mse(eps)
    rate = rate_from_mse(eps)
    assert sinr == pytest.approx(1.0 / eps - 1.0, rel=1e-12)
    assert rate == pytest.approx(-np.log2(eps), rel=1e-12, abs=1e-12)
    assert rate == pytest.approx(np.log2(1.0 + sinr), rel=1e-9, abs=1e-9)


def test_sinr_rate_reference_points():
    assert sinr_from_mse(0.5) == pytest.approx(1.0)
    assert rate_from_mse(0.5) == pytest.approx(1.0)
    assert sinr_from_mse(1.0) == 0.0
    assert rate_from_mse(1.0) == 0.0
    with pytest.raises(ValueError):
        sinr_from_mse(0.0)
    with pytest.raises(ValueError):
        rate_from_mse(1.5)


def test_channel_set_validation():
    with pytest.raises(ValueError):
        ChannelSet(np.zeros((2, 0)))
    with pytest.raises(ValueError):
        ChannelSet(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        ChannelSet(np.array([[1.0, 0.0], [0.0, 0.0]]))  # zero column
    with pytest.raises(ValueError):
        ChannelSet(np.array([[np.nan, 1.0], [1.0, 1.0]]))
    channels = ChannelSet(np.eye(2))
    assert channels.n_antennas == 2
    assert channels.n_users == 2
    with pytest.raises(ValueError):
        channels.entries[0, 0] = 5.0


def test_power_and_mse_tuple_validation():
    with pytest.raises(ValueError):
        PowerAllocation([-0.1, 1.0])
    with pytest.raises(ValueError):
        PowerAllocation([np.inf])
    with pytest.raises(ValueError):
        MseTuple([0.0, 0.5])
    with pytest.raises(ValueError):
        MseTuple([0.5, 1.0 + 1e-9])
    assert len(MseTuple([0.5, 1.0])) == 2


def test_system_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(noise_variance=0.0, power_budget=1.0)
    with pytest.raises(ValueError):
        SystemConfig(noise_variance=1.0, power_budget=-1.0)
    config = SystemConfig(noise_variance=2.0, power_budget=8.0)
    assert config.snr == pytest.approx(4.0)


def test_feasibility_checks():
    config = SystemConfig(noise_variance=1.0, power_budget=10.0)
    ensure_feasible([4.0, 6.0], config)
    ensure_feasible([4.0, 6.0 + 1e-10], config)  # within relative slack
    with pytest.raises(ValueError):
        ensure_feasible([4.0, 7.0], config)
    with pytest.raises(ValueError):
        mse_tuple(np.eye(2), [1.0, 2.0, 3.0], config)  # wrong user count


def _factor_cases():
    rng = np.random.default_rng(27)
    for n, k in [(2, 4), (1, 3), (3, 3), (6, 3), (32, 8), (4, 2)]:
        yield f"{n}x{k}", random_channels(rng, n, k).entries, rng
    for n in (1, 2, 5):
        # near-colinear pair h2 = h1 (1 + 1e-6) + 1e-7 g
        h1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        yield f"colinear {n}x2", np.column_stack([h1, h1 * (1 + 1e-6) + 1e-7 * g]), rng


def _unreduced_mse_terms(gram, powers):
    """(eps, J) from an unreduced X^{-1} Gram matrix A: eps = 1 - p diag A,
    J[l, k] = p_l |a_lk|^2 - delta_lk a_kk."""
    diag = gram.diagonal().real
    return 1.0 - powers * diag, powers[:, None] * np.abs(gram) ** 2 - np.diag(diag)


def test_triangular_factor_gives_the_same_mse_quantities():
    for name, mat, rng in _factor_cases():
        n, k = mat.shape
        factor = np.linalg.qr(mat, mode="r")
        assert factor.shape == (min(n, k), k)
        reduced = ChannelSet(mat).factor
        assert reduced.shape == (min(n, k), k)
        if n > k:
            np.testing.assert_array_equal(reduced, factor)
        for snr in 10.0 ** np.arange(-2, 7):
            config = SystemConfig(noise_variance=1.0, power_budget=float(snr))
            powers = random_powers(rng, k, config.power_budget)
            tol = 1e-12 * (1.0 + snr)
            # the MSE functions reduce H themselves, so the H side comes from
            # the unreduced Gram matrices
            grams_h = second_order_grams(mat, powers, config)
            on_h = grams_h + _unreduced_mse_terms(grams_h[0], powers)
            on_r = second_order_grams(factor, powers, config) \
                + mse_jacobian(factor, powers, config)
            for label, x_h, x_r in zip(("A", "B", "eps", "J"), on_h, on_r):
                scale = np.abs(x_h) if label == "eps" else np.abs(x_h).max()
                assert (np.abs(x_r - x_h) <= tol * scale).all(), (name, snr, label)
            dense = dense_mse(mat, powers, config.noise_variance)
            eps_h, eps_r = on_h[2], on_r[2]
            assert (np.abs(eps_r - dense) <= np.abs(eps_h - dense) + tol * eps_h).all(), (name, snr)


def test_mse_functions_evaluate_on_the_factor(monkeypatch):
    rng = np.random.default_rng(31)
    chan = random_channels(rng, 64, 8)
    config = SystemConfig(noise_variance=0.5, power_budget=30.0)
    batch = np.stack([random_powers(rng, 8, config.power_budget) for _ in range(5)])
    w = rng.uniform(0.1, 1.0, 8)
    calls = (
        lambda ch: mse_tuples(ch, batch, config),
        lambda ch: mse_jacobian(ch, batch[0], config),
        lambda ch: weighted_mse_derivatives(ch, batch, config, w),
    )
    sizes = []
    original = model._covariance

    def recording(mat, pw, noise_variance):
        sizes.append(mat.shape[-2])
        return original(mat, pw, noise_variance)

    monkeypatch.setattr(model, "_covariance", recording)
    for call in calls:
        sizes.clear()
        on_set = call(chan)
        assert sizes == [8], sizes      # 8 x 8 covariances only, never 64 x 64
        on_factor = call(ChannelSet(chan.entries).factor)
        if not isinstance(on_set, tuple):
            on_set, on_factor = (on_set,), (on_factor,)
        for x_set, x_fac in zip(on_set, on_factor, strict=True):
            assert x_set.tobytes() == x_fac.tobytes()
    # the exceptions evaluate what they are given
    sizes.clear()
    resolvent_grams(chan, batch, config)
    assert receive_covariance(chan, batch[0], config).shape == (64, 64)
    assert sizes == [64, 64]
    assert chan.n_antennas == 64


def test_one_qr_per_channel_set(monkeypatch):
    from mseregion import enumerate_stationary_points, segment_test

    counted = []
    original = model._triangular_factor
    monkeypatch.setattr(model, "_triangular_factor",
                        lambda mat: counted.append(mat.shape) or original(mat))
    rng = np.random.default_rng(37)
    config = SystemConfig(noise_variance=1.0, power_budget=10.0)
    mat = random_channels(rng, 6, 2).entries
    ends = [mse_tuple(mat, p, config).values for p in ([7.0, 3.0], [2.0, 8.0])]
    counted.clear()
    segment_test(mat, config, *ends, steps=3)
    assert counted == [(6, 2)]
    counted.clear()
    enumerate_stationary_points(random_channels(rng, 32, 8).entries, config, np.ones(8))
    assert counted == [(32, 8)]


def test_resolvent_grams_on_a_channel_stack():
    rng = np.random.default_rng(29)
    config = SystemConfig(noise_variance=0.7, power_budget=20.0)
    mats = np.stack([random_channels(rng, 3, 2).entries for _ in range(5)])
    powers = np.stack([random_powers(rng, 2, config.power_budget) for _ in range(5)])
    # every row is evaluated on its own: bitwise its single evaluation
    stacked = second_order_grams(mats, powers, config)
    for row in range(5):
        alone = second_order_grams(mats[row], powers[row], config)
        for gram, single in zip(stacked, alone):
            assert gram[row].tobytes() == single.tobytes()
    # and one shared matrix copied to every row gives the shared-matrix values
    shared = second_order_grams(mats[0], powers, config)
    copied = second_order_grams(np.repeat(mats[:1], 5, axis=0), powers, config)
    for gram, ref in zip(copied, shared):
        assert gram.tobytes() == ref.tobytes()

    bad = mats.copy()
    bad[3, 0, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        resolvent_grams(bad, powers, config)
    bad = mats.copy()
    bad[4, :, 0] = 0.0
    with pytest.raises(ValueError, match="all-zero"):
        resolvent_grams(bad, powers, config)
    with pytest.raises(ValueError):
        resolvent_grams(mats, powers[:4], config)
    with pytest.raises(ValueError):
        resolvent_grams(mats, powers[0], config)

    # a (T, 1, n, k) stack broadcasts against a (T, G, k) grid: entry [t, g]
    # is bitwise the shared-matrix evaluation of matrix t at powers[t, g]
    grid = np.stack([np.stack([random_powers(rng, 2, config.power_budget) for _ in range(4)])
                     for _ in range(5)])
    broadcast = second_order_grams(mats[:, None], grid, config)
    for gram in broadcast:
        assert gram.shape == (5, 4, 2, 2)
    for t in range(5):
        shared = second_order_grams(mats[t], grid[t], config)
        for gram, ref in zip(broadcast, shared):
            assert gram[t].tobytes() == ref.tobytes()
    with pytest.raises(ValueError, match="broadcast"):
        resolvent_grams(mats[:, None], grid[:4], config)
    with pytest.raises(ValueError, match="broadcast"):
        resolvent_grams(mats[:, None], grid[:, :1, None], config)


def _oracle_cases():
    rng = np.random.default_rng(28)
    yield "random 4x3", random_channels(rng, 4, 3).entries, np.array([0.3, 0.5, 0.2])
    yield "orthogonal", np.eye(2, dtype=complex), np.array([0.4, 0.6])
    yield "near-colinear", np.array([[1.0, 1.0], [0.0, 1e-6]], dtype=complex), np.array([0.4, 0.6])


def _mp_mse_and_gram(mat, powers, sigma2):
    """eps and A = H^H X^{-1} H through a 60-digit inverse of X."""
    n, k = mat.shape
    with mpmath.workdps(60):
        h = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in mat])
        cov = mpmath.mpf(sigma2) * mpmath.eye(n)
        for j in range(k):
            cov += mpmath.mpf(powers[j]) * (h[:, j] * h[:, j].H)
        gram = h.H * mpmath.inverse(cov) * h
        eps = [1 - mpmath.mpf(powers[j]) * gram[j, j].real for j in range(k)]
        return (np.array([float(e) for e in eps]),
                np.array([[complex(gram[i, j]) for j in range(k)] for i in range(k)]))


def test_kernel_against_high_precision_oracle():
    # every public entry point of the kernel, against mpmath at 60 digits
    for name, mat, shares in _oracle_cases():
        for snr in 10.0 ** np.arange(-3, 13):
            config = SystemConfig(noise_variance=1.0, power_budget=float(snr))
            powers = shares * snr
            eps_mp, gram_mp = _mp_mse_and_gram(mat, powers, config.noise_variance)
            tol = 1e-14 * (1.0 + snr)
            for label, eps in (
                ("mse_tuple", mse_tuple(mat, powers, config).values),
                ("mse_tuples", mse_tuples(mat, powers[None, :], config)[0]),
                ("mse_jacobian", mse_jacobian(mat, powers, config)[0]),
            ):
                assert (np.abs(eps - eps_mp) <= tol * eps_mp).all(), (name, snr, label)
            gram = resolvent_grams(mat, powers, config)
            assert np.abs(gram - gram_mp).max() <= tol * np.abs(gram_mp).max(), (name, snr)


def test_weighted_terms_derive_rows_bitwise_as_evaluated_alone():
    rng = np.random.default_rng(12)
    for n, k in ((1, 3), (4, 5), (32, 8)):
        chan = random_channels(rng, n, k)
        config = random_config(rng)
        w = rng.uniform(0.05, 1.0, size=k)
        batch = np.array([random_powers(rng, k, config.power_budget) for _ in range(11)])
        values, derive = model._weighted_terms(chan.factor, batch, config.noise_variance, w)
        # a vector, the whole batch, and a permuted subset of its rows
        for index in (3, np.arange(11), rng.permutation(11)[:6]):
            value, grad, hess = weighted_mse_derivatives(chan, batch[index], config, w)
            assert np.float64(value).tobytes() == values[index].tobytes()
            got = derive(index)
            assert got[0].tobytes() == grad.tobytes()
            assert got[1].tobytes() == hess.tobytes()
