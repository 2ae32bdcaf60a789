"""MSE duality: the uplink MSE tuples are met by a downlink at the same sum power.

The paper carries its two-user convexity and three-user counterexample
from the multiple access channel to the vector broadcast channel through
MSE duality (Schubert and Boche, IEEE TVT 2004; Hunger, Joham and
Utschick, IEEE TSP 2009).  The map, in numpy only: take the uplink MMSE
filters g_k = X^{-1} h_k at powers p, unit beamformers u_k = g_k/|g_k|
and SINR targets gamma_k = 1/eps_k - 1 of the uplink MSEs.  The downlink
powers q solve q_k c_kk / gamma_k - sum_{j != k} q_j c_kj = sigma^2 with
c_kj = |h_k^H u_j|^2; with scalar MMSE receivers the downlink MSEs are
then the uplink's, and sum(q) = sum(p).  Silent users (p_k = 0, eps_k =
1) stay silent and are left out of the system.
"""

import numpy as np

from mseregion import ChannelSet, SystemConfig, mse_tuples

EPS = np.finfo(float).eps
REF_H = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], dtype=complex)


def downlink(h, powers, eps, sig2):
    """(q, downlink MSEs, cond(A), largest gamma) of the dual downlink."""
    active = np.flatnonzero(powers > 0.0)
    cov = sig2 * np.eye(h.shape[0]) + (h * powers) @ h.conj().T
    filters = np.linalg.solve(cov, h[:, active])
    beams = filters / np.linalg.norm(filters, axis=0)
    gains = np.abs(h[:, active].conj().T @ beams) ** 2        # [k, j] = |h_k^H u_j|^2
    cross = gains - np.diag(np.diag(gains))
    gamma = 1.0 / eps[active] - 1.0
    system = np.diag(np.diag(gains) / gamma) - cross
    dual = np.linalg.solve(system, np.full(active.size, sig2))
    sinr = dual * np.diag(gains) / (cross @ dual + sig2)
    q, mses = np.zeros_like(powers), np.ones_like(powers)
    q[active], mses[active] = dual, 1.0 / (1.0 + sinr)
    return q, mses, np.linalg.cond(system), gamma.max()


def test_random_uplinks_map_to_downlinks_with_the_same_mses_and_sum_power():
    # the solve bounds the MSE gap by a multiple of cond(A) eps (at most
    # 1.2 cond(A) eps on 2000 instances); gamma comes from the kernel's
    # eps = 1 - p a, whose relative error grows like (1 + gamma) eps, so
    # sum(q) is held to cond(A) (1 + gamma) eps (at most 263 of it there)
    rng = np.random.default_rng(14)
    for _ in range(500):
        n, k = int(rng.integers(1, 9)), int(rng.integers(2, 7))
        h = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        sig2 = 10 ** rng.uniform(-1, 1)
        config = SystemConfig(noise_variance=sig2, power_budget=sig2 * 10 ** rng.uniform(-2, 4))
        powers = rng.dirichlet(np.ones(k)) * config.power_budget
        eps = mse_tuples(ChannelSet(h), powers[None], config)[0]
        q, mses, cond, gamma = downlink(h, powers, eps, sig2)
        where = (n, k, config)
        assert (q > 0.0).all(), where
        assert (np.abs(mses - eps) <= 16 * cond * EPS * eps).all(), where
        assert abs(q.sum() - powers.sum()) <= 1024 * cond * (1 + gamma) * EPS * powers.sum(), where


def test_reference_endpoints_map_to_their_dual_powers():
    config = SystemConfig(noise_variance=1.0, power_budget=10.0)
    # users 1 and 2 are orthogonal and user 3 is silent: q = p
    first = np.array([3.6753, 6.3247, 0.0])
    eps = mse_tuples(ChannelSet(REF_H), first[None], config)[0]
    q, mses, _, _ = downlink(REF_H, first, eps, 1.0)
    np.testing.assert_allclose(q, first, rtol=1e-14)
    np.testing.assert_allclose(mses, eps, rtol=1e-14)

    last = np.array([0.0, 7.0794, 2.9206])
    eps = mse_tuples(ChannelSet(REF_H), last[None], config)[0]
    q, mses, _, _ = downlink(REF_H, last, eps, 1.0)
    assert q[0] == 0.0 and abs(q.sum() - 10.0) <= 1e-13
    np.testing.assert_allclose(q[1:], [6.6294, 3.3706], atol=5e-5)
    np.testing.assert_allclose(mses, eps, rtol=1e-14)
    np.testing.assert_allclose(mses[1:], [0.19774143, 0.23353097], atol=5e-9)
