"""Command streams for the four workloads.

A workload is an endless sequence of rounds; a round is a fixed list of
cells (command type and instance shape).  In region-lattice and
boundary-scan the run's RNG draws each cell's values (channels, SNR,
seeds); wsmse-multistart and segment-membership are fixed panels drawn
from PANEL_SEED, whose rounds the run's RNG only orders.  Fixing the
cells keeps every run's input mix the same.  Why each workload and cell
exists is in README.md.

Every command is a dict: `argv` for `mseregion.cli.main`, `kind` naming
its oracle, `inst` holding what the oracle needs, and `outputs` listing
files the command writes (stdout is captured by the runner).
"""

from __future__ import annotations

import json
import os

import numpy as np

import oracles


def _channels(rng, n: int, k: int) -> np.ndarray:
    """i.i.d. CN(0, 1) entries."""
    return (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / np.sqrt(2.0)


def _write_channels(path: str, mat: np.ndarray) -> None:
    payload = {"n": int(mat.shape[0]), "k": int(mat.shape[1]),
               "entries": [[[float(c.real), float(c.imag)] for c in row] for row in mat]}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def _floats(vec) -> str:
    return ",".join(repr(float(v)) for v in vec)


class Stream:
    """Yields rounds of commands, writing channel files into `workdir`."""

    def __init__(self, workload: str, seed: int, workdir: str):
        if workload not in ROUNDS:
            raise ValueError(f"unknown workload {workload!r}; choose from {sorted(ROUNDS)}")
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.cells = ROUNDS[workload]
        self.shuffled = workload in PANEL_WORKLOADS
        self.made = 0

    def _file(self, mat: np.ndarray) -> str:
        path = os.path.join(self.workdir, f"ch{self.made}.json")
        _write_channels(path, mat)
        return path

    def round(self, index: int) -> list:
        cells = list(self.cells)
        if self.shuffled:
            cells[1:] = [cells[1 + i] for i in self.rng.permutation(len(cells) - 1)]
        commands = []
        for cell in cells:
            if self.made == 0:
                # the set-up command (run.py) is the same in every run, so
                # set-up times of different seeds compare like with like
                seeded, self.rng = self.rng, np.random.default_rng([PANEL_SEED, 0])
                cmd = cell(self, index)
                self.rng = seeded
            else:
                cmd = cell(self, index)
            cmd["id"] = self.made
            self.made += 1
            commands.append(cmd)
        return commands

    def discard(self, cmd: dict) -> None:
        """Remove the files a finished command wrote."""
        for path in cmd["outputs"]:
            if os.path.exists(path):
                os.remove(path)


# ---------------------------------------------------------------------------
# wsmse-multistart


def _wsmse(stream: Stream, mat, weights, power: float, seed: int, reference=False) -> dict:
    path = stream._file(mat)
    argv = ["wsmse", "--channels", path, "--weights", _floats(weights),
            "--starts", "16", "--power", repr(power), "--seed", str(seed)]
    if not reference:
        # see README.md: the default two-thread pool made identical
        # commands vary by a quarter between runs minutes apart
        argv += ["--threads", "1"]
    return {"kind": "wsmse", "outputs": [], "argv": argv,
            "inst": {"mat": mat, "weights": np.asarray(weights), "power": power,
                     "sigma2": 1.0, "reference": reference}}


# The wsmse and segment commands are a fixed panel drawn from PANEL_SEED:
# problems (channels, SNR, weights), multistart --seed and chord
# endpoints alike.  Their cost is chaotic in every one of these inputs
# (README.md): one (8, 64) problem took 2.7 s with one --seed and 17.5 s
# with another, far more than a run of a dozen commands can average out.
# The run's seed only orders each round after its first command, which
# leaves the work the same.
PANEL_SEED = 2008


def _panel_rng(cell: int, index: int) -> np.random.Generator:
    """The panel draws of `cell` in round `index`."""
    return np.random.default_rng([PANEL_SEED, cell, index])


def _wsmse_reference(stream: Stream, index: int) -> dict:
    seed = int(_panel_rng(0, index).integers(0, 2**31))
    return _wsmse(stream, oracles.REF_CHANNELS, oracles.REF_WEIGHTS, oracles.REF_POWER,
                  seed, reference=True)


def _wsmse_panel(cell: int, k: int, n: int):
    rng = np.random.default_rng([PANEL_SEED, cell])
    mat = _channels(rng, n, k)
    power = float(10.0 ** rng.uniform(1.0, 2.0))
    weights = rng.uniform(0.05, 1.0, k)

    def make(stream: Stream, index: int) -> dict:
        return _wsmse(stream, mat, weights, power, int(_panel_rng(cell, index).integers(0, 2**31)))
    return make


# ---------------------------------------------------------------------------
# segment-membership


def _segment(stream: Stream, mat: np.ndarray, power: float, a, b, reference=False) -> dict:
    path = stream._file(mat)
    return {"kind": "segment", "outputs": [],
            "argv": ["segment", "--channels", path, "--a", _floats(a), "--b", _floats(b),
                     "--steps", "1", "--power", repr(power)],
            "inst": {"mat": mat, "a": np.asarray(a), "b": np.asarray(b), "steps": 1,
                     "power": power, "sigma2": 1.0, "reference": reference}}


def _segment_reference(stream: Stream, index: int) -> dict:
    mat = oracles.REF_CHANNELS
    ends = oracles.dense_mse(mat, np.array(oracles.REF_POWERS), 1.0)
    return _segment(stream, mat, oracles.REF_POWER, ends[0], ends[1], reference=True)


def _segment_pair(cell: int, n: int):
    """A two-user chord between the MSE pairs of two random full-budget
    allocations on a fixed panel problem.  The two-user region is convex,
    so the chord must not witness."""
    rng = np.random.default_rng([PANEL_SEED, cell])
    mat, power = _channels(rng, n, 2), float(10.0 ** rng.uniform(0.5, 1.5))

    def make(stream: Stream, index: int) -> dict:
        alloc = _panel_rng(cell, index).exponential(size=(2, 2))
        alloc = power * alloc / alloc.sum(axis=1, keepdims=True)
        ends = oracles.dense_mse(mat, alloc, 1.0)
        return _segment(stream, mat, power, ends[0], ends[1])
    return make


# ---------------------------------------------------------------------------
# region-lattice


def _region(k: int, n: int, grid: int = 0, random: int = 0):
    def cell(stream: Stream, index: int) -> dict:
        rng = stream.rng
        power = float(10.0 ** rng.uniform(0.0, 2.0))
        mat = _channels(rng, n, k)
        path = stream._file(mat)
        out = os.path.join(stream.workdir, f"region{stream.made}.csv")
        argv = ["region", "--channels", path, "--out", out, "--power", repr(power)]
        if grid:
            argv += ["--grid", str(grid)]
        else:
            argv += ["--random", str(random), "--seed", str(int(rng.integers(0, 2**31)))]
        return {"kind": "region", "outputs": [out, out + ".manifest.json"], "argv": argv,
                "inst": {"mat": mat, "power": power, "sigma2": 1.0, "grid": grid,
                         "random": random}}
    return cell


# ---------------------------------------------------------------------------
# boundary-scan


def _scan(dim: int, log_snr, colinear: bool, trials: int = 150):
    def cell(stream: Stream, index: int) -> dict:
        rng = stream.rng
        power = float(10.0 ** rng.uniform(*log_snr))
        seed = int(rng.integers(0, 2**31))
        argv = ["convexity-scan", "--trials", str(trials), "--dim", str(dim),
                "--power", repr(power), "--seed", str(seed)]
        if colinear:
            argv.append("--colinear")
        return {"kind": "scan", "outputs": [], "argv": argv,
                "inst": {"trials": trials, "dim": dim, "power": power, "sigma2": 1.0,
                         "seed": seed, "colinear": colinear}}
    return cell


# Seconds one round took at the commit that defined the benchmark, on a
# 2-core VM; run.py sizes every run by these, not by a clock.
ROUND_SECONDS = {
    "wsmse-multistart": 6.5,
    "segment-membership": 16.0,
    "region-lattice": 5.8,
    "boundary-scan": 2.8,
}

PANEL_WORKLOADS = ("wsmse-multistart", "segment-membership")

# Region and scan cells fix the instance shape, because there the shape
# sets the cost, and the seed draws the rest.  Cells are sized so that
# p50 and p90 fall inside groups of commands of like cost (README.md).
ROUNDS = {
    "wsmse-multistart": [
        _wsmse_reference,
        _wsmse_panel(1, 4, 2),
        _wsmse_panel(2, 5, 4),
        _wsmse_panel(3, 6, 8),
        _wsmse_panel(4, 7, 16),
        _wsmse_panel(5, 8, 32),
    ],
    "segment-membership": [
        _segment_pair(8, 6),
        _segment_pair(7, 3),
        _segment_pair(9, 2),
        _segment_pair(10, 4),
        _segment_reference,
    ],
    "region-lattice": [
        _region(2, 1, grid=320),
        _region(3, 4, grid=60),
        _region(4, 8, random=28000),
        _region(4, 2, grid=28),
        _region(3, 8, grid=91),
    ],
    "boundary-scan": [
        _scan(1, (-2.0, 0.0), False),
        _scan(2, (0.0, 2.0), False),
        _scan(3, (2.0, 4.0), True),
        _scan(4, (4.0, 6.0), False),
        _scan(5, (1.0, 3.0), False),
        _scan(6, (3.0, 5.0), True),
        _scan(7, (-1.0, 1.0), False),
        _scan(8, (5.0, 6.0), False),
        _scan(8, (-2.0, 0.0), False, trials=300),
        _scan(8, (0.0, 2.0), False, trials=300),
    ],
}
