"""The benchmark's own oracles accept the program's outputs.

One round of each workload in `perfbench/` is run through `cli.main` the
way the benchmark runs it (`run.invoke`), and each command's output goes
to the oracle the benchmark judges it by (`run.check`).  An output the
benchmark would reject as incorrect fails here first.  `perfbench/` is
only read.
"""

import os

import numpy as np
import pytest

from mseregion import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.mark.parametrize("workload", ["wsmse-multistart", "segment-membership",
                                      "region-lattice", "boundary-scan"])
def test_benchmark_oracles_accept_one_round(monkeypatch, tmp_path, workload):
    monkeypatch.syspath_prepend(PERFBENCH)
    import run
    import workloads

    rng = np.random.default_rng(1)
    commands = workloads.Stream(workload, 1, str(tmp_path)).round(0)
    assert commands
    for cmd in commands:
        rc, _, stdout, error = run.invoke(cli, cmd["argv"])
        assert error is None, (cmd["argv"], error)
        assert run.check(cmd, rc, stdout, rng) == [], cmd["argv"]
