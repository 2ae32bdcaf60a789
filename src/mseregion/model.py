"""Uplink system model: channels, powers, covariance and exact MSE formulas.

K single-antenna users transmit to an N-antenna receiver.  For transmit
powers p_k and noise variance sigma^2 the receive covariance is

    X = sigma^2 I + sum_k p_k h_k h_k^H,

and the MMSE receiver of user k attains

    eps_k = 1 - p_k h_k^H X^{-1} h_k,   eps_k in (0, 1].

Everything downstream (boundary calculus, stationarity conditions, region
sampling) reduces to the Gram matrices A[i, j] = h_i^H X^{-1} h_j and
B[i, j] = h_i^H X^{-2} h_j.  Every evaluation, batched MSE tuples
included, goes through one Cholesky whitening X = L L^H: A is the Gram
matrix of L^{-1} H and B that of L^{-H} L^{-1} H; X^{-1} is never formed.
X is built from the outer products h_i h_j^H of each channel matrix,
formed once and contracted with every power row, and L^{-1} H comes from
L by forward substitution, so each covariance is factored exactly once.
One private function, `_mses`, forms every MSE from the whitened
channels as eps = 1 - p * sum_n |L^{-1} h|^2: `mse_tuples`, `mse_tuple`
(one row of it), `mse_jacobian` and `weighted_mse_derivatives`.
They depend on H only through H^H H, so they evaluate on the triangular
factor of H, `ChannelSet.factor`: the one place the reduction happens,
computed once per set, with a covariance at most K x K whatever the
antenna count.  `receive_covariance` (the N x N covariance of H) and
`resolvent_grams` (the tests' unreduced oracle) evaluate exactly the
channels they are given; the two-user boundary takes the MSEs in closed
form from four scalars of the factor.  The kernel follows one shape rule, plain numpy
broadcasting: channels of shape (..., N, K) broadcast against powers of
shape (..., K), and the powers set the output shape.  One shared matrix
with an (S, K) batch, one matrix per row, and a (T, 1, N, K) stack with
a (T, G, K) grid are the same evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tolerances import TOL_FEAS_REL

__all__ = [
    "ChannelSet",
    "SystemConfig",
    "PowerAllocation",
    "MseTuple",
    "WeightVector",
    "receive_covariance",
    "resolvent_grams",
    "mse_tuple",
    "mse_tuples",
    "mse_jacobian",
    "weighted_sum_mse",
    "weighted_mse_gradient",
    "weighted_mse_derivatives",
    "sinr_from_mse",
    "rate_from_mse",
    "ensure_feasible",
]


# Records that hold arrays are eq=False across the package: they compare
# and hash by identity, as field-wise == on arrays has no truth value.
@dataclass(frozen=True, eq=False)
class ChannelSet:
    """Complex N x K channel matrix; column k is the channel of user k."""

    entries: np.ndarray

    def __post_init__(self):
        mat = _checked_channels(self.entries, ndim=2)
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    @property
    def n_antennas(self) -> int:
        return self.entries.shape[0]

    @property
    def n_users(self) -> int:
        return self.entries.shape[1]

    def user_channel(self, k: int) -> np.ndarray:
        return self.entries[:, k]

    @cached_property
    def factor(self) -> np.ndarray:
        """R of H = QR when N > K, else H (H^H H = R^H R): the read-only
        matrix every MSE evaluation uses, computed once, on first use."""
        fac = _triangular_factor(self.entries)
        fac.setflags(write=False)
        return fac


@dataclass(frozen=True)
class SystemConfig:
    """Noise variance sigma^2 and total transmit power budget."""

    noise_variance: float
    power_budget: float

    def __post_init__(self):
        nv = float(self.noise_variance)
        pb = float(self.power_budget)
        if not (math.isfinite(nv) and nv > 0.0):
            raise ValueError(f"noise variance must be finite and > 0, got {nv}")
        if not (math.isfinite(pb) and pb > 0.0):
            raise ValueError(f"power budget must be finite and > 0, got {pb}")
        object.__setattr__(self, "noise_variance", nv)
        object.__setattr__(self, "power_budget", pb)

    @property
    def snr(self) -> float:
        """Transmit SNR gamma = P / sigma^2."""
        return self.power_budget / self.noise_variance

    @property
    def feasibility_tol(self) -> float:
        return TOL_FEAS_REL * self.power_budget


def _freeze_vector(obj, field: str, name: str) -> np.ndarray:
    """Set obj.<field> to a read-only float64 copy of it, flattened, after
    checking it is nonempty and finite; `name` starts the error messages."""
    vec = np.array(getattr(obj, field), dtype=np.float64).reshape(-1)
    if vec.size < 1:
        raise ValueError(f"{name} is empty")
    if not np.isfinite(vec).all():
        raise ValueError(f"{name} contains non-finite entries")
    vec.setflags(write=False)
    object.__setattr__(obj, field, vec)
    return vec


@dataclass(frozen=True, eq=False)
class PowerAllocation:
    """Nonnegative per-user transmit powers."""

    powers: np.ndarray

    def __post_init__(self):
        vec = _freeze_vector(self, "powers", "power allocation")
        if (vec < 0.0).any():
            raise ValueError(f"negative transmit power: {vec.min()}")

    def total(self) -> float:
        return float(self.powers.sum())

    def __len__(self) -> int:
        return self.powers.size

    def __array__(self, dtype=None):
        return np.asarray(self.powers, dtype=dtype)


@dataclass(frozen=True, eq=False)
class MseTuple:
    """Per-user MSE values, each in (0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        vec = _freeze_vector(self, "values", "MSE tuple")
        if (vec <= 0.0).any() or (vec > 1.0).any():
            raise ValueError(f"MSE values must lie in (0, 1], got {vec}")

    def __len__(self) -> int:
        return self.values.size

    def __getitem__(self, k):
        return self.values[k]

    def __array__(self, dtype=None):
        return np.asarray(self.values, dtype=dtype)


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Nonnegative MSE weights, not all zero."""

    weights: np.ndarray

    def __post_init__(self):
        vec = _freeze_vector(self, "weights", "weight vector")
        if (vec < 0.0).any():
            raise ValueError(f"negative weight: {vec.min()}")
        if not (vec > 0.0).any():
            raise ValueError("at least one weight must be positive")

    def __len__(self) -> int:
        return self.weights.size

    def __array__(self, dtype=None):
        return np.asarray(self.weights, dtype=dtype)


def _weight_vector(weights, n_users: int) -> np.ndarray:
    vec = weights.weights if isinstance(weights, WeightVector) else WeightVector(weights).weights
    if vec.size != n_users:
        raise ValueError(f"{vec.size} weights for {n_users} users")
    return vec


def _checked_channels(entries, ndim: int | None = None) -> np.ndarray:
    """A validated complex copy of an (..., N, K) stack, with exactly `ndim` axes if given."""
    mat = np.array(entries, dtype=np.complex128)
    if mat.ndim < 2 or (ndim is not None and mat.ndim != ndim):
        raise ValueError(f"channel matrix must be {ndim or 'at least 2'}-D, got {mat.shape}")
    if min(mat.shape) < 1:
        raise ValueError(f"channel matrix needs at least one antenna and one user, got {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("channel matrix contains non-finite entries")
    dead = np.argwhere(np.linalg.norm(mat, axis=-2) == 0.0)
    if dead.size:
        *stack, user = dead[0].tolist()
        where = f" in matrix {tuple(stack)}" if stack else ""
        raise ValueError(f"user {user}{where} has an all-zero channel (its MSE would be constant 1)")
    return mat


def _channel_set(channels) -> ChannelSet:
    return channels if isinstance(channels, ChannelSet) else ChannelSet(channels)


def _power_rows(powers, n_users: int) -> np.ndarray:
    """Validated float powers of shape (..., K): one vector, an (S, K) batch or a grid."""
    pw = np.asarray(powers, dtype=np.float64)
    if pw.ndim < 1 or pw.shape[-1] != n_users:
        raise ValueError(f"power shape {pw.shape} does not match {n_users} users")
    if not np.isfinite(pw).all() or (pw < 0.0).any():
        raise ValueError("powers must be finite and nonnegative")
    return pw


def ensure_feasible(powers, config: SystemConfig) -> np.ndarray:
    """Validate sum(p) <= budget within the feasibility slack; return the vector."""
    vec = powers.powers if isinstance(powers, PowerAllocation) else PowerAllocation(powers).powers
    total = float(vec.sum())
    if total > config.power_budget + config.feasibility_tol:
        raise ValueError(
            f"total power {total} exceeds budget {config.power_budget} "
            f"(+{config.feasibility_tol} slack)"
        )
    return vec


def receive_covariance(channels, powers, config: SystemConfig) -> np.ndarray:
    """X = sigma^2 I + sum_k p_k h_k h_k^H, Hermitian positive definite (per row of a batch)."""
    mat = _channel_set(channels).entries
    return _covariance(mat, _power_rows(powers, mat.shape[1]), config.noise_variance)


def _triangular_factor(mat: np.ndarray) -> np.ndarray:
    """R of H = QR for one (N, K) matrix or each matrix of an (S, N, K)
    stack when N > K; otherwise H itself, which is no larger."""
    if mat.shape[-2] <= mat.shape[-1]:
        return mat
    return np.linalg.qr(mat, mode="r")


def _covariance(mat: np.ndarray, pw: np.ndarray, noise_variance: float) -> np.ndarray:
    """X = sigma^2 I + H diag(p) H^H for (..., n, k) channels and (..., k) powers,
    made exactly Hermitian: the one covariance construction.

    The outer products h_i h_j^H are formed once per channel matrix, on
    the channels as given (one (n, n, k) array for a shared matrix), and
    contracted with every power row in one einsum.
    """
    outer = mat[..., :, None, :] * mat[..., None, :, :].conj()
    cov = np.einsum("...k,...ijk->...ij", pw, outer)
    cov += noise_variance * np.eye(mat.shape[-2])
    return 0.5 * (cov + np.conj(np.swapaxes(cov, -1, -2)))


def _whiten(mat: np.ndarray, pw: np.ndarray, noise_variance: float):
    """(L, L^{-1} H) with X = L L^H for validated powers of shape (..., k).

    `mat` has shape (..., n, k) and broadcasts against `pw`, whose leading
    shape is the output's: one shared (n, k) matrix, one matrix per power
    row, or anything between.  Channels that do not broadcast to the
    powers' leading shape raise ValueError.  Rows are independent of each
    other.  L^{-1} H comes from L by forward substitution over its n rows
    (backward stable, and no second factorization of L); a shared matrix
    is never copied to every row.
    """
    lead = pw.shape[:-1]
    if np.broadcast_shapes(mat.shape[:-2], lead) != lead:
        raise ValueError(f"channels of shape {mat.shape} do not broadcast to powers of shape {pw.shape}")
    low = np.linalg.cholesky(_covariance(mat, pw, noise_variance))
    half = np.empty(lead + mat.shape[-2:], dtype=np.complex128)
    for j in range(mat.shape[-2]):
        row = mat[..., j, :] - np.einsum("...m,...mk->...k", low[..., j, :j], half[..., :j, :])
        half[..., j, :] = row / low[..., j, j, None]
    return low, half


def _gram(vecs: np.ndarray) -> np.ndarray:
    """The Gram matrix V^H V of each (..., n, k) matrix V."""
    return np.einsum("...ni,...nj->...ij", vecs.conj(), vecs)


def resolvent_grams(channels, powers, config: SystemConfig, second_order: bool = False):
    """Gram matrices of the channels under X^{-1} (and optionally X^{-2}).

    Shapes broadcast: `channels` of shape (..., N, K) against `powers` of
    shape (..., K), and the powers set the output shape.  So one N x K
    matrix serves every row of an (S, K) batch, an (S, N, K) stack gives
    each row its own matrix, and a (T, 1, N, K) stack serves a (T, G, K)
    grid; channels that do not broadcast to the powers raise ValueError.
    Returns A with A[..., i, j] = h_i^H X^{-1} h_j; with second_order
    also B[..., i, j] = h_i^H X^{-2} h_j.  Computed as Gram products of
    L^{-1} H and X^{-1} H = L^{-H} L^{-1} H where X = L L^H (L^{-H}
    applied here by `np.linalg.solve`), which keeps both matrices
    Hermitian positive semidefinite up to rounding.  Unlike the MSE
    functions, it evaluates exactly the matrices it receives (a
    `ChannelSet`'s entries, never its factor), so the tests use it as the
    unreduced oracle.
    """
    mat = channels.entries if isinstance(channels, ChannelSet) else _checked_channels(channels)
    low, half = _whiten(mat, _power_rows(powers, mat.shape[-1]), config.noise_variance)
    if not second_order:
        return _gram(half)
    return _gram(half), _gram(np.linalg.solve(np.conj(np.swapaxes(low, -1, -2)), half))


def mse_tuple(channels, powers, config: SystemConfig) -> MseTuple:
    """MMSE values eps_k = 1 - p_k h_k^H X^{-1} h_k at one power vector, as a
    one-row `mse_tuples` batch."""
    return MseTuple(mse_tuples(channels, np.asarray(powers)[None], config)[0])


# working-set budget of one batch chunk, in bytes.  1 MiB: on a K = 3,
# N = 8 grid-91 lattice (134 044 rows) the tracemalloc peak of mse_tuples
# is 4.7 MB against 9.2 MB at 4 MiB and 61 MB at 64 MiB, and the call is
# no slower (median 184 ms against 189 ms at 4 MiB, 15 alternating runs;
# 2-core VM, 2 MiB L2 per core).  A process that runs many region
# commands keeps less freed heap between them: at 4 MiB its resident
# size after a command varied by about 7 MB from run to run.
_CHUNK_BYTES = 2 ** 20


def _chunk_rows(n: int, k: int) -> int:
    """Rows per mse_tuples chunk: the complex bytes of each row's n x n
    covariance and n x k whitened channels, within `_CHUNK_BYTES`."""
    return max(1, _CHUNK_BYTES // (16 * n * (n + k)))


def mse_tuples(channels, powers, config: SystemConfig) -> np.ndarray:
    """MSE rows for an (S, K) batch of power vectors, evaluated in chunks.

    Each chunk goes through the same Cholesky whitening as every other
    evaluation (one factorization per row, then forward substitution)
    and reduces it to diag A = sum_n |L^{-1} H|^2 only.  A chunk holds as
    many rows as fit a 1 MiB working-set budget, so the intermediates stay
    a few MB at any batch size or N; every row is computed independently,
    so the output does not depend on the chunk size.
    """
    mat = _channel_set(channels).factor
    n, k = mat.shape
    pw = _power_rows(powers, k)
    if pw.ndim != 2:
        raise ValueError("mse_tuples takes an (S, K) batch; mse_tuple takes one power vector")
    chunk = _chunk_rows(n, k)
    out = np.empty_like(pw)
    for lo in range(0, pw.shape[0], chunk):
        blk = pw[lo:lo + chunk]
        out[lo:lo + chunk] = _mses(_whiten(mat, blk, config.noise_variance)[1], blk)[0]
    return out


def mse_jacobian(channels, powers, config: SystemConfig):
    """Return (eps, J) with J[..., l, k] = d eps_l / d p_k.

    J[l, k] = -delta_{lk} a_kk + p_l |a_{lk}|^2 from the X^{-1} Gram matrix.
    `powers` is one length-K vector or a batch of shape (..., K), giving
    (..., K) MSEs and (..., K, K) Jacobians; every row is evaluated on its
    own, so its values do not depend on the batch it came in.
    """
    mat = _channel_set(channels).factor
    pw = _power_rows(powers, mat.shape[1])
    _, eps, jac = _mse_terms(mat, np.atleast_2d(pw), config.noise_variance)
    return (eps, jac) if pw.ndim > 1 else (eps[0], jac[0])


def _mses(half: np.ndarray, rows: np.ndarray):
    """(eps, diag A) from the whitened channels L^{-1} H of (..., K) powers:
    eps = 1 - p * sum_n |L^{-1} h|^2, the one MSE formula."""
    diag = (half.real ** 2 + half.imag ** 2).sum(axis=-2)
    return 1.0 - rows * diag, diag


def _mse_terms(mat: np.ndarray, rows: np.ndarray, noise_variance: float):
    """(A, eps, J) for a validated (..., K) power batch: eps from `_mses`, J by the one
    Jacobian formula."""
    half = _whiten(mat, rows, noise_variance)[1]
    gram = _gram(half)
    eps, diag = _mses(half, rows)
    jac = rows[..., :, None] * (gram.real ** 2 + gram.imag ** 2)
    users = np.arange(mat.shape[-1])
    jac[..., users, users] -= diag
    return gram, eps, jac


def weighted_sum_mse(channels, powers, config: SystemConfig, weights) -> float:
    """f(p) = sum_k w_k eps_k(p).

    The value of `weighted_mse_derivatives`, so it replays the solvers'
    objective bitwise.
    """
    return weighted_mse_derivatives(channels, powers, config, weights)[0]


def weighted_mse_gradient(channels, powers, config: SystemConfig, weights) -> np.ndarray:
    """Gradient of the weighted sum MSE in the powers.

    d f / d p_k = -w_k a_kk + sum_l w_l p_l |a_{lk}|^2, equal to
    -h_k^H X^{-1} (w_k X - S) X^{-1} h_k with S = sum_l w_l p_l h_l h_l^H.
    The gradient of `weighted_mse_derivatives`, so it replays the
    solvers' gradient bitwise.
    """
    return weighted_mse_derivatives(channels, powers, config, weights)[1]


def weighted_mse_derivatives(channels, powers, config: SystemConfig, weights):
    """(f, grad f, Hessian of f) of the weighted sum MSE in the powers.

    `powers` is one length-K vector, giving a float, a (K,) gradient and a
    (K, K) Hessian, or a (..., K) batch, giving them row by row.  f and its
    gradient come from the `mse_jacobian` terms; `weighted_sum_mse` and
    `weighted_mse_gradient` return them.  With
    dA/dp_j = -A e_j e_j^H A, the Hessian is

        H[k, j] = (w_k + w_j) |a_kj|^2 - 2 Re(a_jk [A diag(w p) A]_kj),

    formed from the same Gram matrix A and symmetrised.
    """
    mat = _channel_set(channels).factor
    w = _weight_vector(weights, mat.shape[1])
    pw = _power_rows(powers, mat.shape[1])
    rows = np.atleast_2d(pw)
    gram, eps, jac = _mse_terms(mat, rows, config.noise_variance)
    # einsum, not BLAS, so a row's values do not depend on its batch
    value, grad = np.einsum("...k,k->...", eps, w), np.einsum("...lk,l->...k", jac, w)
    # A diag(w p) A
    sandwich = np.einsum("...kl,...lj->...kj", gram * (rows * w)[..., None, :], gram)
    coupling = (np.swapaxes(gram, -1, -2) * sandwich).real
    hess = (w[:, None] + w) * (gram.real ** 2 + gram.imag ** 2) - 2.0 * coupling
    hess = 0.5 * (hess + np.swapaxes(hess, -1, -2))
    return (value, grad, hess) if pw.ndim > 1 else (float(value[0]), grad[0], hess[0])


def sinr_from_mse(eps: float) -> float:
    """SINR = 1/eps - 1 for eps in (0, 1]."""
    val = float(eps)
    if not 0.0 < val <= 1.0:
        raise ValueError(f"MSE must lie in (0, 1], got {val}")
    return 1.0 / val - 1.0


def rate_from_mse(eps: float) -> float:
    """Achievable rate -log2(eps) for eps in (0, 1]."""
    val = float(eps)
    if not 0.0 < val <= 1.0:
        raise ValueError(f"MSE must lie in (0, 1], got {val}")
    return -math.log2(val)
