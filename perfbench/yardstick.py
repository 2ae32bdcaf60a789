"""A small fixed piece of work that measures how fast the machine runs now.

The benchmark's host shares its cores: one vCPU's speed moves by up to
1.7x within seconds, with little of it showing as steal time, so the
same command's wall time and CPU time both wander with it.  While a
command runs, a SIGALRM every INTERVAL_S runs this work in the main
thread (between two bytecodes of the command) and times it.  The
command's own time is its wall time less those samples, and its scaled
time is that times NOMINAL_S over the mean sample: "seconds on a machine
where the yardstick takes NOMINAL_S".  The work is shaped like the
package's hot paths: numpy calls on tiny arrays (the solvers' inner
loops), Cholesky factors and products at N = 32 (the MSE kernel at
large N), interpreter arithmetic and float-to-text formatting (the CSV
writer).
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# Seconds one sample took on a 2-core Xeon VM (python 3.11, numpy 2.4)
# in a quiet spell.
NOMINAL_S = 0.002
INTERVAL_S = 0.05

_RNG = np.random.default_rng(0)


def _spd(n: int) -> np.ndarray:
    mat = _RNG.standard_normal((n, n))
    return mat @ mat.T + n * np.eye(n)


_TINY, _DENSE = _spd(3), _spd(32)
_VEC, _VALUES = _RNG.standard_normal(32), _RNG.standard_normal(100)


def _work() -> float:
    acc = 0.0
    for _ in range(70):
        x = np.linalg.solve(_TINY, _VEC[:3])
        acc += float(np.maximum(np.exp(-np.abs(x)), 0.1).sum())
    for _ in range(12):
        low = np.linalg.cholesky(_DENSE)
        acc += float((_DENSE @ np.linalg.solve(low, _VEC)).sum())
    count = 0
    for i in range(1500):
        count += i * i & 1023
    return acc + count + len(",".join(repr(float(v)) for v in _VALUES))


class Sampler:
    """Yardstick samples taken before, during and after one timed block.

    Use as `with Sampler() as s:` around code that records its own start
    and end with perf_counter(); then `s.inside(start, end)` is the
    sampling time to subtract and `s.scale()` the speed factor.  Only the
    main thread may use it, and only where nothing else handles SIGALRM.
    """

    def __init__(self):
        self.samples = []          # (start, seconds)

    def _take(self, *_):
        t0 = perf_counter()
        _work()
        self.samples.append((t0, perf_counter() - t0))

    def __enter__(self):
        self._take()
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._take()
        return False

    def inside(self, start: float, end: float) -> float:
        """Seconds of sampling that fell between start and end."""
        return sum(secs for t0, secs in self.samples if start <= t0 < end)

    def scale(self) -> float:
        """NOMINAL_S over the mean sample: multiply seconds by this."""
        return NOMINAL_S / statistics.fmean(secs for _, secs in self.samples)
