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
matrix of L^{-1} H, and X^{-1} is never formed.
X is built from the outer products h_i h_j^H of each channel matrix,
formed once and contracted with every power row, and one elimination of
the stacked block [X; H^H], run on every power row at once, turns its
bottom block into (L^{-1} H)^H: each covariance is factored exactly once,
with no per-matrix LAPACK call and no triangular solve.
One private function, `_mse_terms`, is the one evaluation: it whitens
once and returns eps = 1 - p * sum_n |L^{-1} h|^2 for every row, with a
`derive(index)` that forms the Gram matrix A and the Jacobian only for
the rows asked.  `mse_tuples` (in chunks), `mse_tuple` (one row of it),
`mse_jacobian`, `weighted_mse_derivatives` and `region`'s membership
solve all call it.  They depend on H only through H^H H, so they
evaluate on the triangular factor of H, `ChannelSet.factor`: the one
place the reduction happens, computed once per set, with a covariance at
most K x K whatever the antenna count.  `receive_covariance` (the N x N
covariance of H) and `resolvent_grams` (the A of `_mse_terms`, the
tests' unreduced oracle) evaluate exactly the channels they are given;
the two-user boundary takes the MSEs in closed form from four scalars of
the factor.  The kernel follows one shape rule, plain numpy broadcasting: channels of
shape (..., N, K) broadcast against powers of shape (..., K), and the
powers set the output shape.  One shared matrix with an (S, K) batch,
one matrix per row, and a (T, 1, N, K) stack with a (T, G, K) grid are
the same evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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


class _VectorRecord:
    """A record of one read-only vector, which `len` and numpy's array protocol read."""

    def __len__(self) -> int:
        return self.__array__().size

    def __array__(self, dtype=None, copy=None):    # numpy 1.x passes no copy, and rejects None
        vec = getattr(self, fields(self)[0].name)
        return np.asarray(vec, dtype) if copy is None else np.array(vec, dtype, copy=copy)


@dataclass(frozen=True, eq=False)
class PowerAllocation(_VectorRecord):
    """Nonnegative per-user transmit powers."""

    powers: np.ndarray

    def __post_init__(self):
        vec = _freeze_vector(self, "powers", "power allocation")
        if (vec < 0.0).any():
            raise ValueError(f"negative transmit power: {vec.min()}")


@dataclass(frozen=True, eq=False)
class MseTuple(_VectorRecord):
    """Per-user MSE values, each in (0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        vec = _freeze_vector(self, "values", "MSE tuple")
        if (vec <= 0.0).any() or (vec > 1.0).any():
            raise ValueError(f"MSE values must lie in (0, 1], got {vec}")

    def __getitem__(self, k):
        return self.values[k]


@dataclass(frozen=True, eq=False)
class WeightVector(_VectorRecord):
    """Nonnegative MSE weights, not all zero."""

    weights: np.ndarray

    def __post_init__(self):
        vec = _freeze_vector(self, "weights", "weight vector")
        if (vec < 0.0).any():
            raise ValueError(f"negative weight: {vec.min()}")
        if not (vec > 0.0).any():
            raise ValueError("at least one weight must be positive")


def _weight_vector(weights, n_users: int) -> np.ndarray:
    vec = WeightVector(weights).weights
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
    with np.errstate(over="ignore"):     # a norm past the float64 range is inf, so not dead
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
    vec = PowerAllocation(powers).powers
    total = float(vec.sum())
    if total > config.power_budget + config.feasibility_tol:
        raise ValueError(
            f"total power {total} exceeds budget {config.power_budget} "
            f"(+{config.feasibility_tol} slack)"
        )
    return vec


def receive_covariance(channels, powers, config: SystemConfig) -> np.ndarray:
    """X = sigma^2 I + sum_k p_k h_k h_k^H, exactly Hermitian and positive
    definite, per row of a batch: the matrix the kernel factors."""
    mat = _channel_set(channels).entries
    cov = _covariance(mat, _power_rows(powers, mat.shape[1]), config.noise_variance)
    return np.moveaxis(cov, (0, 1), (-2, -1))


def _triangular_factor(mat: np.ndarray) -> np.ndarray:
    """R of H = QR for one (N, K) matrix or each matrix of an (S, N, K)
    stack when N > K; otherwise H itself, which is no larger."""
    if mat.shape[-2] <= mat.shape[-1]:
        return mat
    return np.linalg.qr(mat, mode="r")


def _covariance(mat: np.ndarray, pw: np.ndarray, noise_variance: float) -> np.ndarray:
    """X = sigma^2 I + H diag(p) H^H for (..., n, k) channels and (..., k) powers,
    exactly Hermitian: the one covariance construction.

    The rows sit on the trailing axes: X has shape (n, n) + the powers'
    leading shape, C-contiguous, so that the elimination in `_whiten`
    works on every row with one elementwise operation.  The outer products
    h_i h_j^H are formed once per channel matrix, on the channels as given,
    and averaged with their conjugate transposes, which fused multiply-adds
    can round apart; that makes X Hermitian to the bit, with a real
    diagonal.  One einsum contracts them with every power row, its
    innermost reduction the contiguous k axis for any batch size.
    """
    n = mat.shape[-2]
    outer = mat[..., :, None, :] * mat[..., None, :, :].conj()
    outer = 0.5 * (outer + np.conj(np.swapaxes(outer, -2, -3)))
    cov = np.einsum("...k,...ijk->ij...", pw, outer, order="C")
    cov.reshape((n * n,) + cov.shape[2:])[::n + 1] += noise_variance
    return cov


def _whiten(mat: np.ndarray, pw: np.ndarray, noise_variance: float) -> np.ndarray:
    """The Cholesky elimination of [X; H^H] for validated powers of shape (..., k).

    `mat` has shape (..., n, k) and broadcasts against `pw`, whose leading
    shape is the output's: one shared (n, k) matrix, one matrix per power
    row, or anything between.  Channels that do not broadcast to the
    powers' leading shape raise ValueError.  Returns the (n + k, n) + lead
    work array, rows on the trailing axes: its bottom block is
    (L^{-1} H)^H with X = L L^H, and its top block holds L D^{1/2} in the
    lower triangle, with the pivots D on the diagonal (real parts), and
    the pivot rows in the strict upper triangle; only the tests read it
    (`helpers.lower_factor` forms L from it).  `_mse_terms` is its one
    caller in the package.

    The elimination is the right-looking (outer-product) form of the
    square-root-free Cholesky factorization X = L' D^{-1} L'^H (Golub and
    Van Loan, Matrix Computations, sections 4.1-4.2), run on the stacked
    block: pivot j subtracts column j times row j over the pivot from the
    trailing columns, one rank-one update of every row at once.  On the
    bottom block these are the column operations of a forward
    substitution, so after the last pivot it holds H^H L'^{-H} D, and one
    scaling of column j by 1/sqrt(pivot j) leaves (L^{-1} H)^H, with no
    triangular solve.  Reading the pivot row from the upper triangle
    spares a conjugation per pivot and deferring the square roots spares
    one more: a solver's batches of about 20 rows cost what their numpy
    calls cost, four per pivot.  Every step is elementwise across rows,
    so a row's bytes do not depend on the batch it came in.  A pivot that
    is not positive and finite raises LinAlgError, a ValueError, and no
    NaN leaves the kernel; the loop warns of no overflow, invalid value
    or division by zero on the way (a subnormal pivot's 1/pivot is inf).
    """
    lead = pw.shape[:-1]
    if mat.ndim > 2 and np.broadcast_shapes(mat.shape[:-2], lead) != lead:
        raise ValueError(f"channels of shape {mat.shape} do not broadcast to powers of shape {pw.shape}")
    n, k = mat.shape[-2:]
    work = np.empty((n + k, n) + lead, dtype=np.complex128)
    work[:n] = _covariance(mat, pw, noise_variance)
    np.conjugate(mat, out=_rows_first(work[n:]))
    # 1/pivot, later 1/sqrt(pivot): complex with a zero imaginary part,
    # so that scaling a complex row needs no cast
    scale = np.zeros((n,) + lead, dtype=np.complex128)
    recip = scale.real
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j in range(n):
            np.divide(1.0, work[j, j].real, out=recip[j, ...])
            if j + 1 < n:
                row = work[j, j + 1:] * scale[j]
                work[j + 1:, j + 1:] -= work[j + 1:, j, None] * row[None]
        np.sqrt(recip, out=recip)
    if not (recip.min(initial=np.inf) > 0.0 and recip.max(initial=0.0) < np.inf):
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    work[n:] *= scale
    return work


def _whitened_gram(work: np.ndarray, index) -> np.ndarray:
    """A = (L^{-1} H)^H L^{-1} H of the rows `index` of a `_whiten` work array.

    The bottom block read rows first is conj(L^{-1} H); its C-contiguous
    copy is made only for the rows asked for, and the einsum reduces over
    n within each row.
    """
    conj_half = np.ascontiguousarray(_rows_first(work[work.shape[1]:])[index])
    return np.einsum("...ni,...nj->...ij", conj_half, conj_half.conj())


def _rows_first(block: np.ndarray) -> np.ndarray:
    """The (..., b, a) view of an (a, b, ...) rows-last block."""
    return block.transpose(tuple(range(2, block.ndim)) + (1, 0))


def resolvent_grams(channels, powers, config: SystemConfig) -> np.ndarray:
    """The Gram matrix A of the channels under X^{-1}, A[..., i, j] = h_i^H X^{-1} h_j.

    Shapes broadcast: `channels` of shape (..., N, K) against `powers` of
    shape (..., K), and the powers set the output shape.  So one N x K
    matrix serves every row of an (S, K) batch, an (S, N, K) stack gives
    each row its own matrix, and a (T, 1, N, K) stack serves a (T, G, K)
    grid; channels that do not broadcast to the powers raise ValueError.
    It is the A of the one evaluation, `_mse_terms`: the Gram matrix of
    L^{-1} H where X = L L^H, Hermitian positive semidefinite up to
    rounding.  Unlike the MSE functions, it evaluates exactly the matrices
    it receives (a `ChannelSet`'s entries, never its factor), so the tests
    use it as the unreduced oracle.
    """
    mat = channels.entries if isinstance(channels, ChannelSet) else _checked_channels(channels)
    return _mse_terms(mat, _power_rows(powers, mat.shape[-1]), config.noise_variance)[1](...)[0]


def mse_tuple(channels, powers, config: SystemConfig) -> MseTuple:
    """MMSE values eps_k = 1 - p_k h_k^H X^{-1} h_k at one power vector, as a
    one-row `mse_tuples` batch."""
    return MseTuple(mse_tuples(channels, np.asarray(powers)[None], config)[0])


# budget of one batch chunk's work array, in bytes.  1 MiB: on a K = 3,
# N = 8 grid-91 lattice (134 044 rows) mse_tuples is 6-23% faster than at
# 0.5 MiB, 6-16% faster than at 2 MiB and 22-40% faster than at 4 MiB
# (medians of 16 calls per size, sizes alternating, four processes; 2-core
# VM, 2 MiB L2 per core), with a tracemalloc peak of 5.3 MB against 4.4,
# 7.1 and 10.9 MB.  From 2 MiB on, every call in a warmed process takes
# page faults (about 850 minor faults at 2 MiB and 1800 at 4 MiB, none at
# 1 MiB or below).
_CHUNK_BYTES = 2 ** 20


def _chunk_rows(n: int, k: int) -> int:
    """Rows per mse_tuples chunk: the complex bytes of each row's
    (n + k) x n `_whiten` work array, within `_CHUNK_BYTES`."""
    return max(1, _CHUNK_BYTES // (16 * n * (n + k)))


def mse_tuples(channels, powers, config: SystemConfig) -> np.ndarray:
    """MSE rows for an (S, K) batch of power vectors, evaluated in chunks.

    Each chunk is one `_mse_terms` evaluation of all of the chunk's rows
    at once, of which only the MSEs are read: neither A nor L is formed.
    A chunk's work array fits a 1 MiB budget, so the
    intermediates stay a few MB at any batch size or N; every row is
    computed independently, so the output does not depend on the chunk
    size.  Raises ValueError for a chunk that holds an MSE outside (0, 1],
    as `mse_tuple` does.
    """
    mat = _channel_set(channels).factor
    n, k = mat.shape
    pw = _power_rows(powers, k)
    if pw.ndim != 2:
        raise ValueError("mse_tuples takes an (S, K) batch; mse_tuple takes one power vector")
    chunk = _chunk_rows(n, k)
    out = np.empty_like(pw)
    for lo in range(0, pw.shape[0], chunk):
        block = out[lo:lo + chunk]
        block[...] = _mse_terms(mat, pw[lo:lo + chunk], config.noise_variance)[0]
        bad = (block <= 0.0) | (block > 1.0)
        if bad.any():
            raise ValueError(f"MSE values must lie in (0, 1], got {float(block[bad][0])!r}")
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
    eps, derive = _mse_terms(mat, np.atleast_2d(pw), config.noise_variance)
    jac = derive(...)[2]
    return (eps, jac) if pw.ndim > 1 else (eps[0], jac[0])


def _mse_terms(mat: np.ndarray, rows: np.ndarray, noise_variance: float):
    """(eps, derive) at validated (..., K) power rows on the factor `mat`:
    the one kernel evaluation.

    Every row is whitened once (`_whiten`) and gets eps = 1 - p * diag A,
    diag A = sum_n |L^{-1} h|^2, the one MSE formula; the sum over n runs
    on the rows-last bottom block as one fixed pairwise tree (halves
    added elementwise, an odd term into the first), the same order
    whatever the batch size.  `derive(index)` returns (A, |A|^2, J) for
    `rows[index]` only, with J[..., l, k] = p_l |a_lk|^2 - delta_lk a_kk,
    the one Jacobian formula.  Every reduction runs over one row, so a
    derived row is bitwise the same whichever rows are derived with it.
    """
    work = _whiten(mat, rows, noise_variance)
    bottom = work[work.shape[1]:]
    parts = np.square(bottom.view(np.float64)).reshape(bottom.shape + (2,))
    square = parts[..., 0] + parts[..., 1]
    while square.shape[1] > 1:
        half, odd = divmod(square.shape[1], 2)
        summed = square[:, :half] + square[:, half:2 * half]
        if odd:
            summed[:, 0] += square[:, -1]
        square = summed
    diag = square[:, 0].transpose(tuple(range(1, rows.ndim)) + (0,))

    def derive(index):
        gram = _whitened_gram(work, index)
        mag = gram.real ** 2 + gram.imag ** 2
        jac = rows[index][..., :, None] * mag
        users = np.arange(mat.shape[-1])
        jac[..., users, users] -= diag[index]
        return gram, mag, jac

    return 1.0 - np.multiply(rows, diag, order="C"), derive


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
    (K, K) Hessian, or a (..., K) batch, giving them row by row.  It is
    the all-rows case of `_weighted_terms`, the two-phase evaluation the
    weighted solver runs: f from the MSEs of every row, then the gradient
    and Hessian from the Gram matrix A; `weighted_sum_mse` and
    `weighted_mse_gradient` return the first two.  With
    dA/dp_j = -A e_j e_j^H A, the Hessian is

        H[k, j] = (w_k + w_j) |a_kj|^2 - 2 Re(a_jk [A diag(w p) A]_kj),

    formed from the same Gram matrix A and symmetrised.
    """
    mat = _channel_set(channels).factor
    w = _weight_vector(weights, mat.shape[1])
    pw = _power_rows(powers, mat.shape[1])
    value, derive = _weighted_terms(mat, np.atleast_2d(pw), config.noise_variance, w)
    grad, hess = derive(...)
    return (value, grad, hess) if pw.ndim > 1 else (float(value[0]), grad[0], hess[0])


def _weighted_terms(mat: np.ndarray, rows: np.ndarray, noise_variance: float, w: np.ndarray):
    """(f, derive) of the weighted sum MSE at validated (..., K) power rows
    on the factor `mat`, with validated weights `w`.

    The value phase runs here on every row: f = sum_k w_k eps_k from the
    MSEs of `_mse_terms`.  `derive(index)` weights its terms for
    `rows[index]` only into (grad, Hessian).  Every reduction is an
    `einsum` over one row, not BLAS, so a derived row is bitwise the same
    whichever rows are derived with it.
    """
    eps, terms = _mse_terms(mat, rows, noise_variance)
    value = np.einsum("...k,k->...", eps, w)

    def derive(index):
        pw, (gram, mag, jac) = rows[index], terms(index)
        grad = np.einsum("...lk,l->...k", jac, w)
        # A diag(w p) A
        sandwich = np.einsum("...kl,...lj->...kj", gram * (pw * w)[..., None, :], gram)
        coupling = (np.swapaxes(gram, -1, -2) * sandwich).real
        hess = (w[:, None] + w) * mag - 2.0 * coupling
        return grad, 0.5 * (hess + np.swapaxes(hess, -1, -2))

    return value, derive


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
