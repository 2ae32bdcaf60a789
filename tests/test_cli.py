"""End-to-end CLI checks through subprocess: artifacts, exit codes,
stderr summaries, seeds, and byte-level reproducibility."""

import contextlib
import dataclasses
import functools
import io
import json
import math
import os
import resource
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import mseregion.region as region
from mseregion import (
    BoundaryClass,
    ChannelSet,
    SystemConfig,
    boundary,
    cli,
    convexity_certificates,
    kkt,
    mse_tuples,
    save_channels,
)
from mseregion.cli import _scan_pairs
from mseregion.io import BOUNDARY_COLUMNS, read_region_csv, to_jsonable

from helpers import reference_region_csv

REF_H = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], dtype=complex)


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "mseregion", *args],
                          capture_output=True, text=True)


@pytest.fixture()
def ref_channels_file(tmp_path):
    path = tmp_path / "ref.json"
    save_channels(path, ChannelSet(REF_H))
    return str(path)


@pytest.fixture()
def pair_channels_file(tmp_path):
    path = tmp_path / "pair.json"
    save_channels(path, ChannelSet(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)))
    return str(path)


def test_boundary_writes_csv_and_plot(tmp_path):
    out = tmp_path / "sweep.csv"
    plot = tmp_path / "sweep.gp"
    proc = run_cli("boundary", "--h1", "1+0i,0+0i", "--h2", "0+0i,1+0i",
                   "--samples", "11", "--out", str(out), "--plot", str(plot))
    assert proc.returncode == 0
    assert "StrictlyConvex" in proc.stderr
    assert "eps_min" in proc.stderr

    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(BOUNDARY_COLUMNS)
    assert len(lines) == 12
    first, last = lines[1].split(","), lines[-1].split(",")
    assert float(first[1]) == pytest.approx(1.0, rel=1e-12)
    assert float(first[2]) == pytest.approx(1 / 11, rel=1e-12)
    assert float(last[1]) == pytest.approx(1 / 11, rel=1e-12)
    assert float(last[2]) == pytest.approx(1.0, rel=1e-12)
    assert first[3:] == [""] * 7

    script = plot.read_text(encoding="utf-8")
    assert "plot" in script
    assert str(out) in script


def test_boundary_channels_file_and_colinear(tmp_path, pair_channels_file):
    out = tmp_path / "from_file.csv"
    proc = run_cli("boundary", "--channels", pair_channels_file, "--out", str(out))
    assert proc.returncode == 0
    assert out.exists()

    proc = run_cli("boundary", "--h1", "1+0i,2+0i", "--h2", "2+0i,4+0i",
                   "--out", str(tmp_path / "colinear.csv"))
    assert proc.returncode == 0
    assert "Affine" in proc.stderr


def test_boundary_input_errors(tmp_path, ref_channels_file):
    out = str(tmp_path / "x.csv")
    proc = run_cli("boundary", "--channels", ref_channels_file, "--out", out)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "2 users" in proc.stderr

    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    proc = run_cli("boundary", "--channels", str(bad), "--out", out)
    assert proc.returncode == 2

    proc = run_cli("boundary", "--channels", str(tmp_path / "missing.json"), "--out", out)
    assert proc.returncode == 2

    proc = run_cli("boundary", "--h1", "1+0i", "--out", out)
    assert proc.returncode == 2


@pytest.mark.parametrize("inline", [
    ["--h1", "5+0i,5+0i", "--h2", "1+0i,2+0i"],
    ["--h1", "5+0i,5+0i"],
    ["--h2", "1+0i,2+0i"],
], ids=["both", "h1", "h2"])
def test_boundary_rejects_a_channel_file_with_inline_channels(tmp_path, capsys,
                                                              pair_channels_file, inline):
    # a file and inline channels name two pairs: neither is swept
    out = tmp_path / "b.csv"
    assert cli.main(["boundary", "--channels", pair_channels_file, *inline,
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: provide either --channels or both --h1 and --h2"]
    assert not out.exists()


def test_boundary_range_error_names_sigma2_and_power(tmp_path):
    # P/sigma^2 = 1 is in range: sigma^2 itself is what leaves it
    out = tmp_path / "b.csv"
    proc = run_cli("boundary", "--h1", "1+0i,0.3+0i", "--h2", "0.2+0i,1+0i", "--samples", "5",
                   "--sigma2", "1e-110", "--power", "1e-110", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: boundary closed forms leave the float64 range at P/sigma^2 = 1 "
        "(sigma^2 = 1e-110, P = 1e-110)"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["convexity-scan", "--trials", "3", "--sigma2", "1e160", "--power", "1e160"],
    ["boundary", "--h1", "1+0i,0.3+0i", "--h2", "0.2+0i,1+0i", "--sigma2", "1e155",
     "--power", "1e155"],
    ["boundary", "--h1", "1e-10+0i", "--h2", "5e-11+3e-11i", "--sigma2", "1e150",
     "--power", "1e150", "--samples", "5"],
], ids=["convexity-scan", "boundary", "boundary-subnormal"])
def test_closed_forms_past_the_float64_range_are_an_input_error(tmp_path, argv):
    # sigma^4 overflows, or the X^{-2} entries of weak channels fall below
    # the smallest normal float64: the one range error line, not an
    # OverflowError traceback or silently wrong cells
    out = tmp_path / "out"
    proc = run_cli(*argv, "--out", str(out))
    assert proc.returncode == 2
    sig2 = argv[argv.index("--sigma2") + 1]
    assert proc.stderr.splitlines() == [
        "error: boundary closed forms leave the float64 range at P/sigma^2 = 1 "
        f"(sigma^2 = {float(sig2):g}, P = {float(sig2):g})"]
    assert not out.exists()


def test_boundary_with_underflowing_slopes_is_a_range_error(tmp_path):
    # orthogonal pair, |h1| = 1e10, |h2| = 1e-10, P/sigma^2 = 1e185: eps1'
    # ~ -1e-338 underflows, so g' = eps2' / eps1' would be -inf; the one
    # range error line, with no RuntimeWarning and no CSV
    out = tmp_path / "sweep.csv"
    proc = run_cli("boundary", "--h1", "1e10+0i,0+0i", "--h2", "0+0i,1e-10+0i",
                   "--sigma2", "1e-50", "--power", "1e135", "--samples", "5", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: boundary closed forms leave the float64 range at P/sigma^2 = 1e+185 "
        "(sigma^2 = 1e-50, P = 1e+135)"]
    assert not out.exists()


def test_region_with_mses_outside_the_unit_interval_is_an_input_error(tmp_path):
    # orthonormal K = 3, N = 4 channel at P/sigma^2 = 1e16: rounding puts
    # some grid MSEs at 0 or below; one error line and no CSV
    channels, out = tmp_path / "orthonormal.json", tmp_path / "region.csv"
    save_channels(channels, ChannelSet(np.eye(4, 3)))
    proc = run_cli("region", "--channels", str(channels), "--grid", "30", "--power", "1e16",
                   "--out", str(out))
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: MSE values must lie in (0, 1], got ")
    assert not out.exists()


def test_boundary_channels_past_the_float64_range_print_one_error_line(tmp_path):
    # |h1|^2 overflows in the dead-user check, the classification and the
    # sweep: the one range error line, with no RuntimeWarning and no CSV
    out = tmp_path / "b.csv"
    proc = run_cli("boundary", "--h1", "1e200,0", "--h2", "0,1", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: boundary closed forms leave the float64 range at P/sigma^2 = 10 "
        "(sigma^2 = 1, P = 10)"]
    assert not out.exists()


def test_boundary_endpoints_leave_slopes_unformed(tmp_path):
    # orthogonal unit pair, sigma^2 = 1, P = 1e80: g'' at p = P would
    # overflow, but endpoint rows carry no slope; every interior cell is
    # finite and stderr holds only the summary line, no RuntimeWarning
    out = tmp_path / "sweep.csv"
    proc = run_cli("boundary", "--h1", "1+0i,0+0i", "--h2", "0+0i,1+0i", "--sigma2", "1",
                   "--power", "1e80", "--samples", "5", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        "classification: StrictlyConvex  samples: 5  eps_min: (1e-80, 1e-80)"]
    rows = out.read_text().splitlines()[2:-1]
    assert len(rows) == 3
    assert all(np.isfinite(float(cell)) for row in rows for cell in row.split(","))


def test_boundary_couplings_keep_their_digits_where_alpha_squared_is_subnormal(tmp_path):
    # N = 1, |h1| = |h2| = 1e10, sigma^2 = 1e-50, P = 1e140: alpha = sigma^2 /
    # Delta ~ 1e-160, so alpha^2 and beta are subnormal while |a12|^2 ~ 1e-300
    # and b12 are normal; eps1' = -eps2' = -1/(1 + sigma^2/(P n)) / P
    out = tmp_path / "sweep.csv"
    proc = run_cli("boundary", "--h1", "1e10+0i", "--h2", "6e9+8e9i", "--sigma2", "1e-50",
                   "--power", "1e140", "--samples", "5", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 5
    budget = mpmath.mpf(1e140)
    with mpmath.workdps(60):
        # every input is exact: n1 = n2 = 1e20, c = 6e19 + 8e19i, d = 0
        exact = 1 / (1 + mpmath.mpf(1e-50) / (budget * mpmath.mpf(1e20))) / budget
        for row in rows[1:-1]:
            deps1, deps2 = (float(cell) for cell in row.split(",")[3:5])
            assert abs(deps1 + exact) <= 1e-13 * exact, row
            assert abs(deps2 - exact) <= 1e-13 * exact, row

    config = SystemConfig(noise_variance=1e-50, power_budget=1e140)
    bundle = boundary.coupling_bundle([1e10 + 0j], [6e9 + 8e9j], config, 1e140 / 4)
    with mpmath.workdps(60):
        sig2, c = mpmath.mpf(1e-50), mpmath.mpc(6e19, 8e19)
        delta = sig2 ** 2 + sig2 * budget * mpmath.mpf(1e20)
        b12 = c * sig2 ** 2 / delta ** 2
        assert abs(mpmath.mpc(bundle.b12) - b12) <= 1e-13 * abs(b12), bundle.b12


def test_convexity_scan_reproducible(tmp_path):
    out1, out2 = tmp_path / "scan1.json", tmp_path / "scan2.json"
    args = ("convexity-scan", "--trials", "5", "--dim", "3", "--seed", "1")
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()

    payload = json.loads(out1.read_text(encoding="utf-8"))
    assert payload["all_certified"] is True
    assert payload["manifest"]["seed"] == 1
    assert payload["manifest"]["command"] == "convexity-scan"
    assert len(payload["trials"]) == 5
    assert all(t["certified"] for t in payload["trials"])


def test_convexity_scan_input_errors(tmp_path):
    out = str(tmp_path / "scan.json")
    for bad in (("--dim", "-1"), ("--dim", "0"), ("--trials", "0"), ("--power", "1e200")):
        proc = run_cli("convexity-scan", *bad, "--out", out)
        assert proc.returncode == 2, bad
        assert "error:" in proc.stderr
        if bad == ("--dim", "-1"):
            assert proc.stderr.splitlines() == ["error: dim must be >= 1, got -1"]
    assert "P/sigma^2 = 1e+200" in proc.stderr
    assert not os.path.exists(out)


def _address_space_cap():
    # each size below asks numpy for petabytes at once; the cap makes that
    # allocation fail whatever the host's overcommit policy
    cap = 1 << 34
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


@pytest.mark.parametrize("argv", [
    ["region", "--random", "1000000000000000"],
    ["convexity-scan", "--trials", "1000000000000000"],
    ["boundary", "--h1", "1+0i,0+0i", "--h2", "0+0i,1+0i", "--samples", "1000000000000000"],
    ["segment", "--a", "0.21389147,0.13652377,1.0", "--b", "1.0,0.19774107,0.23353177",
     "--steps", "1000000000000000"],
], ids=["region", "convexity-scan", "boundary", "segment"])
def test_sizes_past_any_memory_are_an_input_error(tmp_path, ref_channels_file, argv):
    # numpy's MemoryError: exit 2 with one error line, not a traceback and
    # not exit 1, counterexample's "a reference check failed"
    out = tmp_path / "out"
    channels = ["--channels", ref_channels_file] if argv[0] in ("region", "segment") else []
    proc = subprocess.run([sys.executable, "-m", "mseregion", *argv, *channels, "--out", str(out)],
                          capture_output=True, text=True, preexec_fn=_address_space_cap)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: Unable to allocate ")
    assert not out.exists()


def test_scan_pairs_match_trial_by_trial_draws():
    for colinear in (False, True):
        for dim in (1, 3, 8):
            rng = np.random.default_rng(31)
            expected = np.empty((7, dim, 2), dtype=complex)
            for trial in range(7):
                mat = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
                if colinear:
                    alpha = complex(rng.standard_normal() + 1j * rng.standard_normal())
                    mat[:, 1] = alpha * mat[:, 0]
                expected[trial] = mat
            got = _scan_pairs(np.random.default_rng(31), 7, dim, colinear)
            assert got.tobytes() == expected.tobytes(), (colinear, dim)


def test_convexity_scan_forms_no_report(monkeypatch, tmp_path):
    # the scan's columns go from the closed forms to the JSON text with no
    # ConvexityReport in between; reading the scan as a sequence forms them
    made = []
    init = boundary.ConvexityReport.__init__

    def counted(self, *args, **kwargs):
        made.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(boundary.ConvexityReport, "__init__", counted)
    out = tmp_path / "scan.json"
    assert cli.main(["convexity-scan", "--trials", "1000", "--dim", "8", "--seed", "1",
                     "--out", str(out)]) == 0
    assert not made
    scan = convexity_certificates(_scan_pairs(np.random.default_rng(1), 1000, 8, False),
                                  SystemConfig(noise_variance=1.0, power_budget=10.0))
    assert json.loads(out.read_text())["trials"] == [to_jsonable(r) for r in scan]
    assert len(made) == 1000


def test_convexity_scan_colinear_mode(tmp_path):
    out = tmp_path / "colinear.json"
    proc = run_cli("convexity-scan", "--trials", "3", "--colinear",
                   "--seed", "2", "--out", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert all(t["classification"] == "Affine" for t in payload["trials"])


def test_colinear_scan_summary_is_not_picked_from_rounding(tmp_path):
    # D of a colinear pair is exactly zero: the worst trial is the first and
    # its discriminant -0.0, also when the pairs are rotated by a unitary Q
    rng = np.random.default_rng(42)
    config = SystemConfig(noise_variance=1.0, power_budget=10.0)
    for seed in (1, 2, 3):
        for dim in (2, 3, 8):
            out = tmp_path / f"scan-{seed}-{dim}.json"
            assert cli.main(["convexity-scan", "--trials", "200", "--dim", str(dim), "--colinear",
                             "--seed", str(seed), "--out", str(out)]) == 0
            payload = json.loads(out.read_text(encoding="utf-8"))
            where = (seed, dim)
            assert payload["worst_trial"] == 0, where
            assert repr(payload["worst_discriminant"]) == "-0.0", where
            pairs = _scan_pairs(np.random.default_rng(seed), 200, dim, True)
            unitary = np.linalg.qr(rng.standard_normal((dim, dim))
                                   + 1j * rng.standard_normal((dim, dim)))[0]
            rotated = convexity_certificates(unitary @ pairs, config)
            worst = [r.worst_discriminant for r in rotated]
            assert int(np.argmax(worst)) == 0 and repr(worst[0]) == "-0.0", where
            assert rotated[0].worst_p == payload["trials"][0]["worst_p"], where
            assert all(r.classification is BoundaryClass.AFFINE for r in rotated), where


def test_counterexample_cli_full_pass(tmp_path):
    out = tmp_path / "ce.json"
    region_csv = tmp_path / "ce_region.csv"
    proc = run_cli("counterexample", "--starts", "8", "--seed", "0",
                   "--out", str(out), "--region-csv", str(region_csv),
                   "--grid", "30")
    assert proc.returncode == 0

    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["all_passed"] is True
    assert payload["sigma2_assumed"] == 1.0
    assert payload["manifest"]["sigma2_assumed"] == 1.0
    assert payload["segment"]["nonconvex_witness"] is True
    assert len(payload["segment"]["points"]) == 9
    assert all(not pt["dominated"] for pt in payload["segment"]["points"])
    names = [c["name"] for c in payload["checks"]]
    assert "cluster_count" in names
    assert "mse_1" in names and "reference_residuals_2" in names

    lines = region_csv.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + math.comb(33, 3)
    config = SystemConfig(noise_variance=kkt.REFERENCE_NOISE_VARIANCE,
                          power_budget=kkt.REFERENCE_POWER_BUDGET)
    samples = region.sample_region(kkt.REFERENCE_CHANNELS, config, 30, mode="grid")
    reference = tmp_path / "ce_region_reference.csv"
    reference_region_csv(reference, samples.powers, samples.mses)
    assert region_csv.read_bytes() == reference.read_bytes()
    sidecar = json.loads((tmp_path / "ce_region.csv.manifest.json").read_text(encoding="utf-8"))
    assert sidecar["command"] == "counterexample"

    proc = run_cli("counterexample", "--region-csv", str(region_csv))
    assert proc.returncode == 2
    assert "together" in proc.stderr


def test_counterexample_report_is_its_record_under_the_manifest(tmp_path):
    # every CounterexampleReport field reaches the JSON with no CLI edit
    out = tmp_path / "ce.json"
    assert cli.main(["counterexample", "--starts", "8", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    fields = {field.name for field in dataclasses.fields(kkt.CounterexampleReport)}
    assert set(payload) == {"manifest"} | fields


def test_counterexample_rejects_a_bad_grid_before_the_suite(monkeypatch, tmp_path, capsys):
    def suite(**kwargs):
        raise AssertionError("the suite ran before --grid was checked")

    monkeypatch.setattr(cli, "counterexample_suite", suite)
    region_csv, out = tmp_path / "r.csv", tmp_path / "ce.json"
    assert cli.main(["counterexample", "--starts", "4000", "--region-csv", str(region_csv),
                     "--grid", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: resolution must be >= 2, got 1\n"
    assert not region_csv.exists() and not out.exists()


def test_wsmse_cli(tmp_path, ref_channels_file):
    out = tmp_path / "wsmse.json"
    proc = run_cli("wsmse", "--channels", ref_channels_file,
                   "--weights", "0.22,0.54,0.24", "--starts", "8",
                   "--seed", "0", "--out", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["cluster_count"] == 2
    best = payload["clusters"][0]
    assert best["objective"] == pytest.approx(0.36078, abs=1e-4)
    assert best["converged"] is True
    assert all(isinstance(c["backtracks"], int) for c in payload["clusters"])

    proc = run_cli("wsmse", "--channels", ref_channels_file, "--weights", "0.5,0.5")
    assert proc.returncode == 2


def test_channel_file_booleans_are_input_errors(tmp_path):
    # JSON true loads as a bool, which is an int to isinstance
    for payload in ({"n": True, "k": 1, "entries": [[[1.0, 0.0]]]},
                    {"n": 1, "k": 1, "entries": [[[True, 0]]]}):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        proc = run_cli("wsmse", "--channels", str(path), "--weights", "1")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr, proc.stderr


def test_channel_file_huge_integers_are_input_errors(tmp_path):
    # an int beyond the float range cannot become a complex entry
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 1, "k": 1, "entries": [[[10 ** 400, 0]]]}), encoding="utf-8")
    proc = run_cli("wsmse", "--channels", str(path), "--weights", "1")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr, proc.stderr
    assert "entries[0][0]" in proc.stderr, proc.stderr


def test_channel_file_with_a_huge_declared_k_is_an_input_error(tmp_path):
    # the rows are checked before any (n, k) array is formed
    path = tmp_path / "huge-k.json"
    path.write_text(json.dumps({"n": 1, "k": 10 ** 15, "entries": [[[1, 0]]]}), encoding="utf-8")
    proc = run_cli("wsmse", "--channels", str(path), "--weights", "1")
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "row 0" in lines[0], lines


def test_segment_cli_exit_codes(tmp_path, ref_channels_file):
    proc = run_cli("segment", "--channels", ref_channels_file,
                   "--a", "1,1,1", "--b", "1,1,1", "--steps", "1")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["nonconvex_witness"] is False

    proc = run_cli("segment", "--channels", ref_channels_file,
                   "--a", "0.21389147,0.13652377,1.0",
                   "--b", "1.0,0.19774107,0.23353177", "--steps", "3")
    assert proc.returncode == 3
    payload = json.loads(proc.stdout)
    assert payload["nonconvex_witness"] is True
    assert all(pt["margin"] > 1e-4 for pt in payload["points"])

    proc = run_cli("segment", "--channels", ref_channels_file,
                   "--a", "0.01,0.01,0.01", "--b", "1,1,1")
    assert proc.returncode == 2
    assert "not achievable" in proc.stderr

    # halfway between two smallest subnormals the chord entry rounds to 0.0
    out = tmp_path / "seg.json"
    proc = run_cli("segment", "--channels", ref_channels_file, "--a", "5e-324,1,1",
                   "--b", "5e-324,1,1", "--steps", "1", "--power", "1e10", "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: MSE values must lie in (0, 1], got [0. 1. 1.]\n"
    assert proc.stdout == "" and not out.exists()


def test_segment_cli_size_errors(ref_channels_file):
    """Endpoint sizes are checked once, by the region module."""
    proc = run_cli("segment", "--channels", ref_channels_file,
                   "--a", "0.9,0.9", "--b", "0.8,0.8")
    assert proc.returncode == 2
    assert "target has 2 entries for 3 users" in proc.stderr
    proc = run_cli("segment", "--channels", ref_channels_file,
                   "--a", "0.9,0.9,0.9", "--b", "0.8,0.8")
    assert proc.returncode == 2
    assert "endpoint sizes differ: 3 vs 2" in proc.stderr


# the fields of a membership verdict; a segment point adds its position t
VERDICT_KEYS = {"target", "margin", "witness_powers", "dominated", "converged", "rounds"}
REF_CHORD = ("--a", "0.21389147,0.13652377,1.0", "--b", "1.0,0.19774107,0.23353177")


def test_segment_json_writes_whole_verdicts(tmp_path, ref_channels_file):
    seg, ce = tmp_path / "seg.json", tmp_path / "ce.json"
    assert cli.main(["segment", "--channels", ref_channels_file, *REF_CHORD,
                     "--steps", "1", "--out", str(seg)]) == 3
    assert cli.main(["counterexample", "--starts", "8", "--seed", "0",
                     "--out", str(ce)]) == 0
    blocks = [json.loads(seg.read_text(encoding="utf-8")),
              json.loads(ce.read_text(encoding="utf-8"))["segment"]]
    for block in blocks:
        assert len(block["endpoints"]) == 2
        for end, margin in zip(block["endpoints"], block["endpoint_margins"]):
            assert set(end) == VERDICT_KEYS
            assert end["margin"] == margin
        for verdict in block["endpoints"] + block["points"]:
            assert verdict["converged"] is True
            assert verdict["rounds"] >= 1
        for pt in block["points"]:
            assert set(pt) == VERDICT_KEYS | {"t"}


def test_segment_json_reports_unconverged_solves(monkeypatch, tmp_path, ref_channels_file):
    # seven Newton steps put both endpoints within tol_member, and no bracket
    # may close: every verdict reaches the JSON as unconverged, with a
    # witness that spends at most P and replays its margin
    monkeypatch.setattr(region, "_MAX_ROUNDS", 7)
    monkeypatch.setattr(region, "_S_TOL", -1.0)
    out = tmp_path / "seg.json"
    assert cli.main(["segment", "--channels", ref_channels_file, *REF_CHORD,
                     "--steps", "1", "--out", str(out)]) == 3
    payload = json.loads(out.read_text(encoding="utf-8"))
    config = SystemConfig(noise_variance=1.0, power_budget=10.0)
    for verdict in payload["endpoints"] + payload["points"]:
        assert verdict["converged"] is False
        assert verdict["rounds"] == 7
        witness = np.array(verdict["witness_powers"])
        assert witness.sum() <= config.power_budget
        replay = mse_tuples(REF_H, witness[None], config)[0] - verdict["target"]
        assert float(replay.max()) == verdict["margin"]


# every subcommand, run in one process that must import no test-only
# dependency: not scipy, sympy, mpmath or hypothesis
NO_TEST_DEPS_SCRIPT = """
import json, sys
from mseregion import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
test_only = ("scipy", "sympy", "mpmath", "hypothesis")
print(json.dumps({"codes": codes,
                  "loaded": sorted(m for m in sys.modules if m.split(".")[0] in test_only)}))
"""


def test_cli_runs_without_scipy(tmp_path, ref_channels_file):
    argvs = [
        ["boundary", "--h1", "1+0i,0+1i", "--h2", "1+0i,0+0i", "--samples", "11",
         "--out", str(tmp_path / "b.csv")],
        ["convexity-scan", "--trials", "5", "--out", str(tmp_path / "scan.json")],
        ["counterexample", "--starts", "8", "--out", str(tmp_path / "ce.json")],
        ["wsmse", "--channels", ref_channels_file, "--weights", "0.22,0.54,0.24",
         "--starts", "4", "--out", str(tmp_path / "w.json")],
        ["segment", "--channels", ref_channels_file, *REF_CHORD, "--steps", "1",
         "--out", str(tmp_path / "seg.json")],
        ["region", "--channels", ref_channels_file, "--grid", "4",
         "--out", str(tmp_path / "r.csv")],
    ]
    proc = subprocess.run([sys.executable, "-c", NO_TEST_DEPS_SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0, 0, 3, 0], "loaded": []}


def test_region_cli_grid_round_trip(tmp_path, ref_channels_file):
    out = tmp_path / "region.csv"
    proc = run_cli("region", "--channels", ref_channels_file,
                   "--grid", "12", "--out", str(out))
    assert proc.returncode == 0
    assert "455 rows" in proc.stderr

    powers, mses = read_region_csv(out)
    assert powers.shape == (math.comb(15, 3), 3)
    config = SystemConfig(noise_variance=1.0, power_budget=10.0)
    np.testing.assert_allclose(mse_tuples(REF_H, powers, config), mses,
                               rtol=0.0, atol=1e-9)

    sidecar = json.loads((tmp_path / "region.csv.manifest.json").read_text(encoding="utf-8"))
    assert sidecar["command"] == "region"
    assert sidecar["inputs"]["grid"] == 12
    assert sidecar["inputs"]["random"] is None
    assert sidecar["seed"] == 0


_INDEFINITE_CLI = """
import sys
from mseregion import cli, model
original = model._covariance

def indefinite(mat, pw, noise_variance):
    cov = original(mat, pw, noise_variance)
    cov[0, 0] = -1.0
    return cov

model._covariance = indefinite
sys.exit(cli.main(sys.argv[1:]))
"""


def test_region_cli_covariance_not_positive_definite_is_one_error_line(tmp_path, ref_channels_file):
    # a process whose covariances are all indefinite: exit 2, one error line
    # on stderr (no warning), no output files
    proc = subprocess.run([sys.executable, "-c", _INDEFINITE_CLI, "region", "--channels",
                           ref_channels_file, "--grid", "6", "--out", str(tmp_path / "region.csv")],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert (proc.stdout, proc.stderr) == ("", "error: Matrix is not positive definite\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "ref.json"]


def test_wsmse_on_a_subnormal_pivot_is_one_error_line(tmp_path):
    # the reference channels x 1e-160 at sigma^2 = 1e-320: exit 2 with the
    # one error line, no overflow warning from the elimination before it
    path = tmp_path / "tiny.json"
    save_channels(path, ChannelSet(kkt.REFERENCE_CHANNELS.entries * 1e-160))
    proc = run_cli("wsmse", "--channels", str(path), "--weights", "0.22,0.54,0.24",
                   "--sigma2", "1e-320")
    assert proc.returncode == 2
    assert (proc.stdout, proc.stderr) == ("", "error: Matrix is not positive definite\n")


@pytest.mark.parametrize("argv", [
    ["region", "--random", "7"],
    ["wsmse", "--weights", "0.22,0.54,0.24"],
], ids=["region", "wsmse"])
def test_budgets_past_the_simplex_draws_range_are_one_error_line(tmp_path, ref_channels_file,
                                                                 argv):
    # P = 1.7e308 overflows the scaled exponential draws: exit 2 with the one
    # error line naming the budget, no RuntimeWarning and no output file
    out = tmp_path / "out"
    proc = run_cli(*argv, "--channels", ref_channels_file, "--power", "1.7e308",
                   "--out", str(out))
    assert proc.returncode == 2
    assert (proc.stdout, proc.stderr.splitlines()) == ("", [
        "error: power budget 1.7e+308 is past the float64 range of the simplex draws"])
    assert list(tmp_path.iterdir()) == [tmp_path / "ref.json"]


def test_wsmse_on_a_flat_objective_warns_nothing(tmp_path):
    # the reference channels x 1e-160 at sigma^2 = 1: every Hessian is zero
    # and every gradient subnormal, so each start converges where it begins
    path = tmp_path / "flat.json"
    save_channels(path, ChannelSet(kkt.REFERENCE_CHANNELS.entries * 1e-160))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "mseregion", "wsmse", "--channels",
                           str(path), "--weights", "0.22,0.54,0.24"], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    payload = json.loads(proc.stdout)
    assert payload["cluster_count"] == len(payload["clusters"]) == 20
    assert all(c["converged"] and c["objective"] == 1.0 for c in payload["clusters"])


def test_region_cli_random_reproducible(tmp_path, ref_channels_file):
    outs = [tmp_path / f"r{i}.csv" for i in range(3)]
    base = ("region", "--channels", ref_channels_file, "--random", "100",
            "--seed", "5")
    assert run_cli(*base, "--out", str(outs[0])).returncode == 0
    assert run_cli(*base, "--out", str(outs[1])).returncode == 0
    assert run_cli(*base, "--threads", "4", "--out", str(outs[2])).returncode == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[0].read_bytes() == outs[2].read_bytes()


def test_region_cli_count_bounds(tmp_path, ref_channels_file):
    out = tmp_path / "one.csv"
    proc = run_cli("region", "--channels", ref_channels_file, "--random", "1",
                   "--out", str(out))
    assert proc.returncode == 0
    powers, mses = read_region_csv(out)
    assert powers.shape == mses.shape == (1, 3)
    for flag, value, message in (("--random", "0", "sample count must be >= 1, got 0"),
                                 ("--grid", "1", "resolution must be >= 2, got 1")):
        proc = run_cli("region", "--channels", ref_channels_file, flag, value,
                       "--out", str(tmp_path / "bad.csv"))
        assert proc.returncode == 2
        assert message in proc.stderr


def test_region_cli_oversize_grid(tmp_path, ref_channels_file):
    proc = run_cli("region", "--channels", ref_channels_file,
                   "--grid", "400", "--out", str(tmp_path / "big.csv"))
    assert proc.returncode == 2
    assert "random" in proc.stderr


def _fill(value, tmp_path, ref):
    """An argv or expected cell with {d} set to the test directory and {ref}
    to the reference channel file."""
    if isinstance(value, str):
        return value.replace("{d}", str(tmp_path)).replace("{ref}", ref)
    return value


@pytest.mark.parametrize("argv, expected", [
    (["convexity-scan", "--trials", "2", "--dim", "2", "--colinear",
      "--power", "3", "--sigma2", "0.5", "--seed", "5"],
     {"trials": 2, "dim": 2, "colinear": True, "power": 3.0, "sigma2": 0.5}),
    (["counterexample", "--starts", "4", "--seed", "5", "--region-csv", "{d}/cloud.csv",
      "--grid", "5"],
     {"starts": 4, "region_csv": "{d}/cloud.csv", "grid": 5}),
    (["counterexample", "--starts", "4"], {"starts": 4, "region_csv": None, "grid": None}),
    (["wsmse", "--channels", "{ref}", "--weights", "0.22,0.54,0.24", "--starts", "4",
      "--seed", "5"],
     {"channels": "{ref}", "weights": [0.22, 0.54, 0.24], "starts": 4,
      "power": 10.0, "sigma2": 1.0}),
    (["segment", "--channels", "{ref}", "--a", "0.21389147,0.13652377,1.0",
      "--b", "1.0,0.19774107,0.23353177", "--steps", "1", "--power", "20"],
     {"channels": "{ref}", "a": [0.21389147, 0.13652377, 1.0],
      "b": [1.0, 0.19774107, 0.23353177], "steps": 1, "power": 20.0, "sigma2": 1.0}),
], ids=["convexity-scan", "counterexample-region-csv", "counterexample", "wsmse", "segment"])
def test_json_report_inputs_are_the_parsed_options(tmp_path, ref_channels_file, argv, expected):
    """A JSON report's manifest inputs are exactly its command's options as
    parsed, with --weights, --a and --b as numbers; --out, --threads and
    --seed are not inputs, the seed has its own field."""
    fill = functools.partial(_fill, tmp_path=tmp_path, ref=ref_channels_file)
    argv = [fill(cell) for cell in argv] + ["--threads", "3", "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) in (0, 3)
    block = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["manifest"]
    assert block["command"] == argv[0]
    assert block["inputs"] == {key: fill(value) for key, value in expected.items()}
    parsed = vars(cli.build_parser().parse_args(argv))
    assert all(block["inputs"][key] == parsed[key]
               for key in expected.keys() - {"weights", "a", "b"})
    assert block["seed"] == (5 if "--seed" in argv else 0)


@pytest.mark.parametrize("argv, expected", [
    (["region", "--channels", "{ref}", "--grid", "4", "--power", "20", "--out", "{d}/r.csv"],
     {"channels": "{ref}", "grid": 4, "random": None, "power": 20.0, "sigma2": 1.0}),
    (["region", "--channels", "{ref}", "--random", "40", "--seed", "5", "--sigma2", "0.5",
      "--out", "{d}/r.csv"],
     {"channels": "{ref}", "grid": None, "random": 40, "power": 10.0, "sigma2": 0.5}),
    (["counterexample", "--starts", "4", "--seed", "5", "--region-csv", "{d}/r.csv",
      "--grid", "5", "--out", "{d}/r.json"],
     {"starts": 4, "region_csv": "{d}/r.csv", "grid": 5}),
], ids=["region-grid", "region-random", "counterexample-region-csv"])
def test_csv_sidecar_inputs_are_the_parsed_options(tmp_path, ref_channels_file, argv, expected):
    """A region CSV's sidecar manifest follows the JSON reports' rule: its
    inputs are the command's options as parsed, without --out, --threads
    and --seed; `counterexample`'s sidecar is its report's manifest."""
    fill = functools.partial(_fill, tmp_path=tmp_path, ref=ref_channels_file)
    argv = [fill(cell) for cell in argv] + ["--threads", "3"]
    assert cli.main(argv) == 0
    sidecar = json.loads((tmp_path / "r.csv.manifest.json").read_text(encoding="utf-8"))
    assert sidecar["command"] == argv[0]
    assert sidecar["inputs"] == {key: fill(value) for key, value in expected.items()}
    parsed = vars(cli.build_parser().parse_args(argv))
    assert all(sidecar["inputs"][key] == parsed[key] for key in expected)
    assert sidecar["seed"] == (5 if "--seed" in argv else 0)
    if argv[0] == "counterexample":
        assert sidecar == json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["manifest"]


def test_version_and_missing_subcommand():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "mseregion" in proc.stdout
    assert run_cli().returncode == 2


def test_main_reuses_one_parser_and_leaks_nothing(monkeypatch, tmp_path, ref_channels_file):
    """One process runs an interleaved sequence through cli.main: the parser
    is built once, and every call's exit code, stdout, stderr and files equal
    those of a fresh `python -m mseregion` run of the same argv."""
    real_build = cli.build_parser
    builds = []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real_build())
    cli._parser.cache_clear()
    work = tmp_path / "work"
    work.mkdir()
    wsmse = ["wsmse", "--channels", ref_channels_file, "--weights", "0.22,0.54,0.24", "--starts", "8"]
    region_args = ["region", "--channels", ref_channels_file]
    sequence = [
        wsmse + ["--seed", "3"],
        wsmse,                                                      # manifest seed 0
        region_args + ["--grid", "6", "--out", str(work / "region.csv")],
        region_args + ["--random", "40", "--out", str(work / "region.csv")],
        ["convexity-scan", "--trials", "0"],                        # input error: 2
        ["convexity-scan", "--trials", "6", "--dim", "2", "--out", str(work / "scan.json")],
        region_args + ["--grid", "3", "--random", "5", "--out", str(work / "x.csv")],  # usage error
        region_args + ["--random", "40", "--seed", "4", "--out", str(work / "region.csv")],
        ["--version"],
        ["convexity-scan", "--trials", "6", "--dim", "2", "--colinear"],
    ]

    def outputs():
        files = {f.name: f.read_bytes() for f in sorted(work.iterdir())}
        for f in work.iterdir():
            f.unlink()
        return files

    results = []
    for argv in sequence:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exit_:
                rc = exit_.code or 0
        results.append((rc, out.getvalue(), err.getvalue(), outputs()))
        proc = run_cli(*argv)
        assert results[-1] == (proc.returncode, proc.stdout, proc.stderr, outputs()), argv
    assert len(builds) == 1
    assert [rc for rc, *_ in results] == [0, 0, 0, 0, 2, 0, 2, 0, 0, 0]
    assert [json.loads(results[i][1])["manifest"]["seed"] for i in (0, 1)] == [3, 0]
    region_seeds = [json.loads(results[i][3]["region.csv.manifest.json"])["seed"] for i in (2, 3, 7)]
    assert region_seeds == [0, 0, 4]
