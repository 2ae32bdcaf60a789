"""Independent oracles for the benchmark's correctness checks.

Nothing here imports mseregion.  MSEs come from explicit dense inverses
of each user's interference-plus-noise covariance (the SINR form, not
the package's 1 - p a form), lattices from stars-and-bars enumeration, and the published reference values are
restated from the paper.  Each check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

# Reference three-user instance and its published numbers.
REF_CHANNELS = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.complex128)
REF_WEIGHTS = (0.22, 0.54, 0.24)
REF_POWER = 10.0
REF_OBJECTIVES = ((0.36078, 1e-4), (0.3828, 5e-4))
REF_POWERS = ((3.6753, 6.3247, 0.0), (0.0, 7.0794, 2.9206))

MEMBER_TOL = 1e-6      # dominated-membership threshold of the published output
MARGIN_SLACK = 1e-6    # a solver margin may exceed the lattice oracle by this much
FEAS_REL = 1e-9        # budget slack, x budget
_CHUNK = 1024


def dense_mse(mat: np.ndarray, powers: np.ndarray, sigma2: float) -> np.ndarray:
    """MSE rows for an (S, K) batch of powers through explicit inverses.

    Uses eps_k = 1 / (1 + SINR_k) with SINR_k = p_k h_k^H Y_k^{-1} h_k and
    Y_k = sigma^2 I + sum_{j != k} p_j h_j h_j^H built directly, so the
    value carries no 1 - p a cancellation at high SNR.
    """
    mat = np.asarray(mat, dtype=np.complex128)
    pw = np.atleast_2d(np.asarray(powers, dtype=np.float64))
    n, k = mat.shape
    others = 1.0 - np.eye(k)
    out = np.empty_like(pw)
    for lo in range(0, pw.shape[0], _CHUNK):
        blk = pw[lo:lo + _CHUNK]
        masked = blk[:, None, :] * others[None, :, :]                  # (S, K, K)
        cov = np.einsum("nj,skj,mj->sknm", mat, masked, mat.conj()) + sigma2 * np.eye(n)
        inv = np.linalg.inv(cov)
        sinr = blk * np.einsum("nk,sknm,mk->sk", mat.conj(), inv, mat).real
        out[lo:lo + _CHUNK] = 1.0 / (1.0 + sinr)
    return out


def simplex_lattice(k: int, resolution: int) -> np.ndarray:
    """All integer vectors m >= 0 with sum(m) <= resolution (stars and bars)."""
    rows = []
    for bars in itertools.combinations(range(resolution + k), k):
        gaps, prev = [], -1
        for b in bars:
            gaps.append(b - prev - 1)
            prev = b
        rows.append(gaps)
    return np.array(rows, dtype=np.int64)


# lattice resolutions keep the oracle near 10^4 points for every K used
_ORACLE_RESOLUTION = {1: 2000, 2: 150, 3: 45, 4: 20, 5: 14}


def lattice_margins(mat, sigma2: float, budget: float, targets) -> np.ndarray:
    """Brute-force min over a power lattice of max_k (eps_k - t_k), per target."""
    k = mat.shape[1]
    res = _ORACLE_RESOLUTION[k]
    grid = simplex_lattice(k, res) * (budget / res)
    eps = dense_mse(mat, grid, sigma2)
    return np.array([float((eps - np.asarray(t)).max(axis=1).min()) for t in targets])


def _feasible(powers, budget) -> bool:
    p = np.asarray(powers, dtype=np.float64)
    return bool((p >= 0.0).all() and p.sum() <= budget * (1.0 + FEAS_REL))


# ---------------------------------------------------------------------------
# per-command checks


def check_wsmse(text: str, rc: int, inst: dict) -> list:
    """Clusters must be feasible, self-consistent, sorted, distinct, and no
    worse than the vertex/centroid starts that the descent begins from."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    doc = json.loads(text)
    mat, w = np.asarray(inst["mat"]), np.asarray(inst["weights"])
    budget, sigma2 = inst["power"], inst["sigma2"]
    problems = []
    clusters = doc["clusters"]
    if doc["manifest"]["command"] != "wsmse" or doc["cluster_count"] != len(clusters) or not clusters:
        problems.append("manifest or cluster_count inconsistent")
        return problems
    powers = np.array([c["powers"] for c in clusters])
    objectives = np.array([c["objective"] for c in clusters])
    if not all(_feasible(p, budget) for p in powers):
        problems.append("infeasible cluster powers")
    oracle = dense_mse(mat, powers, sigma2) @ w
    if np.abs(oracle - objectives).max() > 1e-8 * (1.0 + np.abs(objectives).max()):
        problems.append(f"objective differs from dense-inverse oracle by {np.abs(oracle - objectives).max():.3e}")
    if (np.diff(objectives) < 0.0).any():
        problems.append("clusters not sorted by objective")
    for i, j in itertools.combinations(range(len(powers)), 2):
        if np.linalg.norm(powers[i] - powers[j]) <= 1e-3 * budget:
            problems.append("two clusters closer than the clustering radius")
            break
    k = mat.shape[1]
    starts = np.vstack([np.zeros(k), budget * np.eye(k), np.full(k, budget / (k + 1.0))])
    floor = float((dense_mse(mat, starts, sigma2) @ w).min())
    if objectives[0] > floor + 1e-9:
        problems.append(f"best objective {objectives[0]} above a start value {floor}")
    if inst.get("reference"):
        if len(clusters) != 2:
            problems.append(f"reference instance gave {len(clusters)} clusters, expected 2")
        for (want, tol), got in zip(REF_OBJECTIVES, objectives):
            if abs(got - want) > tol:
                problems.append(f"reference objective {got} not within {tol} of {want}")
    return problems


def check_segment(text: str, rc: int, inst: dict) -> list:
    """Margins must be consistent with their verdicts and no worse than a
    brute-force lattice; K=2 chords never witness, the reference chord must."""
    doc = json.loads(text) if text else None
    if doc is None:
        return [f"no output, exit code {rc}"]
    mat = np.asarray(inst["mat"])
    a, b, steps = np.asarray(inst["a"]), np.asarray(inst["b"]), inst["steps"]
    problems = []
    witness = doc["nonconvex_witness"]
    if rc != (3 if witness else 0):
        problems.append(f"exit code {rc} does not match witness={witness}")
    if max(doc["endpoint_margins"]) > MEMBER_TOL:
        problems.append("an endpoint is reported as not dominated")
    points = doc["points"]
    if len(points) != steps:
        problems.append(f"{len(points)} interior points, expected {steps}")
        return problems
    targets = []
    for i, pt in enumerate(points, start=1):
        t = i / (steps + 1)
        want = (1.0 - t) * a + t * b
        if abs(pt["t"] - t) > 1e-15 or np.abs(np.asarray(pt["target"]) - want).max() > 1e-12:
            problems.append(f"interior point {i} has the wrong target")
        if pt["dominated"] != (pt["margin"] <= MEMBER_TOL):
            problems.append(f"interior point {i} verdict disagrees with its margin")
        targets.append(want)
    if witness != any(not pt["dominated"] for pt in points):
        problems.append("witness flag disagrees with the interior verdicts")
    oracle = lattice_margins(mat, inst["sigma2"], inst["power"], targets)
    for i, (pt, ref) in enumerate(zip(points, oracle), start=1):
        if pt["margin"] > ref + MARGIN_SLACK:
            problems.append(f"interior margin {pt['margin']:.3e} exceeds lattice oracle {ref:.3e}")
    if mat.shape[1] == 2 and witness:
        problems.append("two-user chord reported as a nonconvexity witness")
    if inst.get("reference"):
        if not witness or rc != 3:
            problems.append("reference chord did not exit 3")
        if not all(pt["margin"] > 0.0 for pt in points):
            problems.append("a reference interior margin is not positive")
    return problems


def _count_lines(path: str) -> int:
    lines = 0
    with open(path, "rb") as handle:
        while True:
            block = handle.read(1 << 22)
            if not block:
                return lines
            lines += block.count(b"\n")


def _sample_rows(path: str, count: int, rng: np.random.Generator) -> list:
    """First and last data rows plus rows that follow random byte offsets."""
    size = os.path.getsize(path)
    rows = []
    with open(path, "rb") as handle:
        handle.readline()
        rows.append(handle.readline())
        for off in np.sort(rng.integers(0, size, count)):
            handle.seek(int(off))
            handle.readline()
            line = handle.readline()
            if line:
                rows.append(line)
        handle.seek(max(0, size - 4096))
        rows.append(handle.read().splitlines()[-1])
    return [[float(v) for v in r.decode().strip().split(",")] for r in rows if r.strip()]


def check_region(out_path: str, rc: int, inst: dict, rng: np.random.Generator) -> list:
    """Row count, header, lattice/feasibility and dense-inverse MSEs on a
    sample of rows spread through the file."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    mat = np.asarray(inst["mat"])
    k = mat.shape[1]
    budget, sigma2 = inst["power"], inst["sigma2"]
    problems = []
    with open(out_path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
    want = [f"p_{i}" for i in range(1, k + 1)] + [f"eps_{i}" for i in range(1, k + 1)]
    if header != want:
        return [f"header {header[:4]}... is not {want[:4]}..."]
    rows = _count_lines(out_path) - 1
    expected = math.comb(inst["grid"] + k, k) if inst.get("grid") else inst["random"]
    if rows != expected:
        problems.append(f"{rows} rows, expected {expected}")
    sample = np.array(_sample_rows(out_path, 64, rng))
    powers, mses = sample[:, :k], sample[:, k:]
    if not all(_feasible(p, budget) for p in powers):
        problems.append("infeasible power row")
    if inst.get("grid"):
        steps = powers * inst["grid"] / budget
        if np.abs(steps - np.round(steps)).max() > 1e-6:
            problems.append("grid row off the power lattice")
        if np.abs(powers[0]).max() != 0.0 or np.abs(mses[0] - 1.0).max() > 1e-15:
            problems.append("first grid row is not the zero allocation")
    gap = np.abs(dense_mse(mat, powers, sigma2) - mses).max()
    if gap > 1e-9:
        problems.append(f"MSE differs from dense-inverse oracle by {gap:.3e}")
    with open(out_path + ".manifest.json", "r", encoding="utf-8") as handle:
        side = json.load(handle)
    if side["command"] != "region":
        problems.append("manifest sidecar names the wrong command")
    return problems


def scan_channels(seed: int, trials: int, dim: int, colinear: bool) -> np.ndarray:
    """The channel pairs `convexity-scan` documents drawing, shape (T, dim, 2)."""
    rng = np.random.default_rng(seed)
    out = np.empty((trials, dim, 2), dtype=np.complex128)
    for t in range(trials):
        mat = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
        if colinear:
            alpha = complex(rng.standard_normal() + 1j * rng.standard_normal())
            mat[:, 1] = alpha * mat[:, 0]
        out[t] = mat
    return out


def check_scan(text: str, rc: int, inst: dict) -> list:
    """Every two-user boundary is convex, so every trial must certify; the
    worst point must lie on the interior grid; colinear pairs are affine;
    and the dense-inverse boundary curve must bend the convex way."""
    doc = json.loads(text)
    problems = []
    trials = doc["trials"]
    if len(trials) != inst["trials"]:
        return [f"{len(trials)} trials, expected {inst['trials']}"]
    if rc != 0 or not doc["all_certified"]:
        problems.append(f"exit code {rc}: some trial failed to certify")
    if doc["all_certified"] != all(t["certified"] for t in trials):
        problems.append("all_certified disagrees with the trials")
    worst = [t["worst_discriminant"] for t in trials]
    if doc["worst_trial"] != int(np.argmax(worst)) or doc["worst_discriminant"] != max(worst):
        problems.append("worst_trial does not point at the largest discriminant")
    budget, sigma2 = inst["power"], inst["sigma2"]
    grid = np.linspace(0.0, budget, 101)
    interior = set(grid[1:-1].tolist())
    if any(t["worst_p"] not in interior for t in trials):
        problems.append("worst_p is not an interior grid point")
    chans = scan_channels(inst["seed"], inst["trials"], inst["dim"], inst["colinear"])
    n1 = np.linalg.norm(chans[:, :, 0], axis=1) ** 2
    n2 = np.linalg.norm(chans[:, :, 1], axis=1) ** 2
    inner = np.abs(np.einsum("tn,tn->t", chans[:, :, 0].conj(), chans[:, :, 1])) ** 2
    affine = n1 * n2 - inner <= 1e-12 * n1 * n2
    labels = np.array([t["classification"] == "Affine" for t in trials])
    if (labels != affine).any():
        problems.append("affine/strictly-convex label disagrees with the Gram determinant")
    if inst["colinear"] and not labels.all():
        problems.append("a colinear trial is not classified affine")
    for t in range(min(4, inst["trials"])):
        powers = np.column_stack([grid, budget - grid])
        eps = dense_mse(chans[t], powers, sigma2)
        d1, d2 = np.diff(eps[:, 0]), np.diff(eps[:, 1])
        # along the sweep eps1 falls and eps2 rises; a convex boundary has
        # nondecreasing chord slopes d2/d1 as eps1 decreases, i.e. the
        # slopes of consecutive chords satisfy s_{i+1} <= s_i
        slopes = d2 / d1
        scale = np.abs(slopes[:-1]) + np.abs(slopes[1:])
        if (slopes[1:] - slopes[:-1] > 1e-6 * scale + 1e-12).any():
            problems.append(f"trial {t}: dense-inverse boundary is not convex")
    return problems
