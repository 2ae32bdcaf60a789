"""Serialization: channel JSON schema, CSV writers, manifests, and the
recursive JSON conversion."""

import dataclasses
import enum
import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mseregion.io as io_module
import mseregion.model as model
from mseregion import (
    BoundaryClass,
    ConvexityScan,
    SystemConfig,
    boundary_sweep,
    load_channels,
    manifest,
    parse_channel_dict,
    sample_region,
    save_channels,
    write_boundary_csv,
    write_json,
    write_region_csv,
)
from mseregion.cli import main as cli_main
from mseregion.io import (
    _MIN_RANGE_ROWS,
    _REGION_BLOCK_ROWS,
    BOUNDARY_COLUMNS,
    channel_dict,
    json_text,
    read_region_csv,
    to_jsonable,
)
from mseregion.simplex import budget_simplex_lattice, lattice_size
from mseregion.tolerances import TOLERANCES

from helpers import held_region_set, random_channels, random_config, reference_region_csv

CONFIG = SystemConfig(noise_variance=1.0, power_budget=10.0)


def test_channel_dict_round_trip(tmp_path):
    rng = np.random.default_rng(40)
    mat = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    channels = parse_channel_dict(channel_dict(parse_channel_dict({
        "n": 3, "k": 2,
        "entries": [[[mat[i, j].real, mat[i, j].imag] for j in range(2)]
                    for i in range(3)],
    })))
    np.testing.assert_array_equal(channels.entries, mat)

    path = tmp_path / "channels.json"
    save_channels(path, channels)
    np.testing.assert_array_equal(load_channels(path).entries, mat)


def test_channel_schema_errors(tmp_path):
    good = {"n": 1, "k": 1, "entries": [[[1.0, 0.0]]]}
    with pytest.raises(ValueError, match="missing"):
        parse_channel_dict({"n": 1, "k": 1})
    with pytest.raises(ValueError, match="positive integers"):
        parse_channel_dict({**good, "n": 0})
    with pytest.raises(ValueError, match="positive integers"):
        parse_channel_dict({**good, "k": "2"})
    with pytest.raises(ValueError, match="positive integers"):
        parse_channel_dict({**good, "n": True})
    with pytest.raises(ValueError, match="positive integers"):
        parse_channel_dict({**good, "k": True})
    with pytest.raises(ValueError, match="rows"):
        parse_channel_dict({**good, "entries": [[[1.0, 0.0]], [[1.0, 0.0]]]})
    with pytest.raises(ValueError, match="pair"):
        parse_channel_dict({**good, "entries": [[[1.0, 0.0, 2.0]]]})
    with pytest.raises(ValueError, match="numbers"):
        parse_channel_dict({**good, "entries": [[["1", 0.0]]]})
    with pytest.raises(ValueError, match="numbers"):
        parse_channel_dict({**good, "entries": [[[True, 0]]]})
    with pytest.raises(ValueError, match="numbers"):
        parse_channel_dict({**good, "entries": [[[1.0, False]]]})
    with pytest.raises(ValueError, match=r"entries\[0\]\[0\].*too large"):
        parse_channel_dict({**good, "entries": [[[10 ** 400, 0]]]})
    with pytest.raises(ValueError, match="object"):
        parse_channel_dict([1, 2])

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_channels(bad)


def test_channel_rows_are_checked_before_the_array_is_formed():
    # a declared k far beyond the rows given is a row error, not an allocation
    huge = {"n": 1, "k": 10 ** 15, "entries": [[[1, 0]]]}
    with pytest.raises(ValueError, match="row 0 must list 1000000000000000"):
        parse_channel_dict(huge)
    # the first bad row is named, whatever follows it
    with pytest.raises(ValueError, match="row 1 must list 2"):
        parse_channel_dict({"n": 3, "k": 2, "entries": [[[1, 0], [0, 1]], [[1, 0]], [[10 ** 400, 0]]]})
    with pytest.raises(ValueError, match=r"entries\[0\]\[1\] must be"):
        parse_channel_dict({"n": 2, "k": 2, "entries": [[[1, 0], [0]], [[1, 0]]]})


def test_empty_region_csv_is_a_value_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty region CSV"):
        read_region_csv(path)


def test_header_only_region_csv_is_two_empty_tables(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("p_1,p_2,p_3,eps_1,eps_2,eps_3\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        powers, mses = read_region_csv(path)
    assert powers.shape == mses.shape == (0, 3)


@pytest.mark.parametrize("header", ["p_1,p_2,eps_1", "eps_1,eps_2,p_1,p_2"])
def test_unrecognized_region_csv_header_is_a_value_error(tmp_path, header):
    path = tmp_path / "header.csv"
    path.write_text(header + "\n0.5,0.5,0.7\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unrecognized region CSV header"):
        read_region_csv(path)


def test_region_csv_rows_must_hold_the_header_cells(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("p_1,p_2,eps_1,eps_2\n1.0,0.0,0.5,1.0\n0.5,0.5,0.7\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_region_csv(path)
    path.write_text("p_1,p_2,eps_1,eps_2\n1.0,0.0,0.5\n0.5,0.5,0.7\n", encoding="utf-8")
    with pytest.raises(ValueError, match="rows hold 3 cells, the header 4"):
        read_region_csv(path)


def test_boundary_csv_layout(tmp_path):
    sweep = boundary_sweep([1.0 + 0j, 0.0], [0.0, 1.0 + 0j], CONFIG, samples=5)
    path = tmp_path / "sweep.csv"
    write_boundary_csv(path, sweep)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(BOUNDARY_COLUMNS)
    assert lines[0] == ("p,eps1,eps2,deps1,deps2,ddeps1,ddeps2,"
                        "discriminant,g_prime,g_double_prime")
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "0.0"
    assert first[3:] == [""] * 7
    interior = lines[2].split(",")
    assert all(cell != "" for cell in interior)
    # repr round-trip: parsing a cell reproduces the float exactly
    assert float(interior[1]) == sweep[1].eps1


def test_region_csv_round_trip(tmp_path):
    samples = sample_region(np.array([[1, 0, 1], [0, 1, 1]], dtype=complex),
                            CONFIG, resolution=4, mode="grid")
    path = tmp_path / "region.csv"
    write_region_csv(path, samples)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "p_1,p_2,p_3,eps_1,eps_2,eps_3"
    powers, mses = read_region_csv(path)
    np.testing.assert_array_equal(powers, samples.powers)
    np.testing.assert_array_equal(mses, samples.mses)


EDGE_VALUES = (0.0, -0.0, 1e-5, 9.999e-5, 1e16, 5e-324, 1e300)

# Row ranges a region CSV is split into; 1 forks no worker.  Each count
# leaves some of the tests' row counts not divisible by it, and all of
# their ranges shorter than _MIN_RANGE_ROWS (some empty).
WORKER_COUNTS = (1, 2, 3, 5)


def each_split(monkeypatch):
    """Yield each of WORKER_COUNTS with write_region_csv patched to use that many ranges."""
    for count in WORKER_COUNTS:
        monkeypatch.setattr(io_module, "_range_count", lambda rows, count=count: count)
        yield count


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("k", range(1, 9))
def test_region_csv_bytes_match_reference_writer(tmp_path, k, monkeypatch):
    for workers in each_split(monkeypatch):
        rng = np.random.default_rng(100 + k)
        for rows in (1, _REGION_BLOCK_ROWS - 1, _REGION_BLOCK_ROWS, _REGION_BLOCK_ROWS + 1, 3000):
            powers = rng.uniform(0.0, 10.0, size=(rows, k))
            mses = rng.uniform(0.0, 1.0, size=(rows, k))
            cells = np.concatenate([powers.ravel(), mses.ravel()])
            cells[:len(EDGE_VALUES)] = EDGE_VALUES[:cells.size]
            powers, mses = cells[:rows * k].reshape(rows, k), cells[rows * k:].reshape(rows, k)
            ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
            write_region_csv(ours, held_region_set(powers, mses))
            reference_region_csv(ref, powers, mses)
            assert ours.read_bytes() == ref.read_bytes(), (workers, rows)

        # integer powers print as floats, exactly as their float64 values do
        ints = rng.integers(0, 50, size=(40, k))
        mses = rng.uniform(0.0, 1.0, size=(40, k))
        write_region_csv(tmp_path / "ints.csv", held_region_set(ints.astype(np.float64), mses))
        reference_region_csv(ref, ints.astype(np.float64), mses)
        assert (tmp_path / "ints.csv").read_bytes() == ref.read_bytes(), workers
        assert_no_child_left()


def _straddling_resolutions(k):
    """The lattice resolutions whose sizes sit just below and at or above a block."""
    res = 2
    while lattice_size(k, res + 1) < _REGION_BLOCK_ROWS:
        res += 1
    return res, res + 1


@pytest.mark.parametrize("k", range(1, 5))
def test_region_csv_lattice_bytes_match_reference_writer(tmp_path, k, monkeypatch):
    below, above = _straddling_resolutions(k)
    assert lattice_size(k, below) < _REGION_BLOCK_ROWS <= lattice_size(k, above)
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    for workers in each_split(monkeypatch):
        rng = np.random.default_rng(200 + k)
        for n in (1, 3):
            channels, config = random_channels(rng, n, k), random_config(rng)
            for resolution in (2, below, above):
                samples = sample_region(channels, config, resolution, mode="grid")
                write_region_csv(ours, samples)
                reference_region_csv(ref, samples.powers, samples.mses)
                assert ours.read_bytes() == ref.read_bytes(), (workers, n, resolution)
        assert_no_child_left()


def test_region_csv_large_grid_and_random_bytes_match_reference_writer(tmp_path):
    rng = np.random.default_rng(300)
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    for samples in (
        sample_region(random_channels(rng, 8, 3), random_config(rng), 91, mode="grid"),
        sample_region(random_channels(rng, 8, 4), random_config(rng), 3000,
                      mode="random", seed=7),
    ):
        write_region_csv(ours, samples)
        reference_region_csv(ref, samples.powers, samples.mses)
        assert ours.read_bytes() == ref.read_bytes(), samples.powers.shape


# Grid resolutions per K: over a block of rows and, for K = 1, steps of
# 1e-6 / 3000 and 1e17 / 3000
OUTSIDE_DIGIT_PATH_GRIDS = {1: 3000, 2: 100, 3: 30, 4: 15}


@pytest.mark.parametrize("k", range(1, 5))
def test_region_csv_grid_levels_outside_the_digit_path_match_reference_writer(tmp_path, k, monkeypatch):
    # at P = 1e-6 every nonzero level is below 1e-4, in exponent form; at
    # P = 1e17 the levels reach 2**52 and beyond.  N = 1 keeps the kernel
    # finite at either end, and sigma^2 = P at 1e17 keeps every MSE in
    # (0, 1], which rounding at P/sigma^2 = 1e17 would not.
    resolution = OUTSIDE_DIGIT_PATH_GRIDS[k]
    channels = random_channels(np.random.default_rng(950 + k), 1, k)
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    for workers in each_split(monkeypatch):
        for power in (1e-6, 1e17):
            config = SystemConfig(noise_variance=max(1.0, power), power_budget=power)
            samples = sample_region(channels, config, resolution, mode="grid")
            levels = samples.levels[1:]
            assert (levels < 1e-4).all() if power < 1.0 else (levels[-1] >= 2.0 ** 52)
            write_region_csv(ours, samples)
            reference_region_csv(ref, samples.powers, samples.mses)
            assert ours.read_bytes() == ref.read_bytes(), (workers, power)
        assert_no_child_left()


@pytest.mark.parametrize("k, mode, resolution, table", [
    (3, "grid", 40, 41), (2, "grid", 200, 201), (1, "grid", 3000, None), (4, "random", 3000, None),
], ids=["grid-k3", "grid-k2", "grid-k1", "random-k4"])
def test_region_csv_formats_a_level_table_only_where_levels_are_fewer_than_cells(
        tmp_path, monkeypatch, k, mode, resolution, table):
    # the sizes of this process's _cell_words calls: a grid of K >= 2 users
    # formats its resolution + 1 levels once per write, then each block's
    # MSE cells; a one-user grid and a random draw format each block's
    # power and MSE cells together, and no level table
    sizes = []
    cell_words = io_module._cell_words
    monkeypatch.setattr(io_module, "_cell_words",
                        lambda values, newline: sizes.append(values.size) or cell_words(values, newline))
    samples = sample_region(random_channels(np.random.default_rng(960), 2, k), CONFIG, resolution,
                            mode=mode, seed=3)
    rows = len(samples)
    for workers in each_split(monkeypatch):
        first = rows // workers             # this process formats the first range
        blocks = [min(_REGION_BLOCK_ROWS, first - start)
                  for start in range(0, first, _REGION_BLOCK_ROWS)]
        cells = [block * k for block in blocks] if table else [block * 2 * k for block in blocks]
        for _ in range(2):
            sizes.clear()
            write_region_csv(tmp_path / "ours.csv", samples)
            assert sizes == ([table] if table else []) + cells, workers
        assert_no_child_left()


def test_region_csv_repeated_powers_keep_signed_zeros_and_subnormals(tmp_path, monkeypatch):
    # a few power values repeated over 3000 rows, with 0.0 and -0.0 (equal
    # as values, distinct as bits) and the subnormals +-5e-324 in every
    # column of every block
    rng = np.random.default_rng(400)
    values = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5, 1e16])
    powers = rng.choice(values, size=(3000, 3))
    powers[:len(values)] = values[:, None]
    mses = rng.uniform(0.0, 1.0, size=(3000, 3))
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    reference_region_csv(ref, powers, mses)
    for workers in each_split(monkeypatch):
        write_region_csv(ours, held_region_set(powers, mses))
        assert ours.read_bytes() == ref.read_bytes(), workers
        written, _ = read_region_csv(ours)
        assert np.array_equal(np.signbit(written), np.signbit(powers))
        assert_no_child_left()


def _region_rows(rows, k=3, seed=500):
    rng = np.random.default_rng(seed)
    powers, mses = rng.uniform(0.0, 10.0, size=(rows, k)), rng.uniform(0.0, 1.0, size=(rows, k))
    return held_region_set(powers, mses)


def test_region_csv_ranges_follow_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert io_module._range_count(_MIN_RANGE_ROWS - 1) == 1
    assert io_module._range_count(2 * _MIN_RANGE_ROWS + 1) == 2
    assert io_module._range_count(64 * _MIN_RANGE_ROWS) == 3
    monkeypatch.delattr(os, "fork", raising=False)
    assert io_module._range_count(64 * _MIN_RANGE_ROWS) == 1


def test_region_csv_failing_worker_raises_and_leaves_no_child(tmp_path, monkeypatch, capfd):
    write_rows = io_module._write_region_rows

    def failing(handle, sample_set, level_words, mses, lo, hi):
        if lo > 0:                      # a worker's range
            raise RuntimeError("worker failure")
        write_rows(handle, sample_set, level_words, mses, lo, hi)

    monkeypatch.setattr(io_module, "_write_region_rows", failing)
    monkeypatch.setattr(io_module, "_range_count", lambda rows: 3)
    with pytest.raises(OSError, match="exited with status 1"):
        write_region_csv(tmp_path / "ours.csv", _region_rows(3000))
    assert_no_child_left()
    # each worker names its rows on stderr; the second may be killed before it writes
    lines = capfd.readouterr().err.splitlines()
    expected = [f"region CSV worker, rows {lo}-{hi}: RuntimeError('worker failure')"
                for lo, hi in ((1000, 2000), (2000, 3000))]
    assert expected[0] in lines
    assert set(lines) <= set(expected)


def test_region_csv_failed_fork_writes_the_range_itself(tmp_path, monkeypatch):
    def no_fork():
        raise OSError("fork refused")

    samples = _region_rows(3000)
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(io_module, "_range_count", lambda rows: 3)
    write_region_csv(ours, samples)
    reference_region_csv(ref, samples.powers, samples.mses)
    assert ours.read_bytes() == ref.read_bytes()
    assert_no_child_left()


@pytest.mark.parametrize("first_bad_range", (1, 2))
def test_region_kernel_error_in_a_worker_range_writes_nothing(tmp_path, monkeypatch, capfd,
                                                               first_bad_range):
    # K = 3, grid 40: 12341 rows in three ranges.  Lattice rows come in
    # lexicographic order, so the rows whose p_1 exceeds every p_1 before
    # range `first_bad_range` all lie in it or after it: their covariance
    # is made negative definite, in the workers that inherit the patch.
    channels = tmp_path / "h.json"
    save_channels(channels, random_channels(np.random.default_rng(900), 2, 3))
    lattice = budget_simplex_lattice(3, 40)
    cut = lattice[len(lattice) * first_bad_range // 3 - 1, 0] * (CONFIG.power_budget / 40)
    covariance = model._covariance

    def indefinite(mat, pw, noise_variance):
        cov = covariance(mat, pw, noise_variance)
        return np.where(pw[..., 0] > cut, -cov, cov)

    monkeypatch.setattr(model, "_covariance", indefinite)
    monkeypatch.setattr(io_module, "_range_count", lambda rows: 3)
    out, sidecar = tmp_path / "region.csv", tmp_path / "region.csv.manifest.json"
    argv = ["region", "--channels", str(channels), "--grid", "40", "--out", str(out)]
    assert cli_main(argv) == 2
    assert capfd.readouterr() == ("", "error: Matrix is not positive definite\n")
    assert not out.exists() and not sidecar.exists()
    assert_no_child_left()
    out.write_bytes(b"p_1\n1.0\n")
    assert cli_main(argv) == 2
    assert capfd.readouterr() == ("", "error: Matrix is not positive definite\n")
    assert out.read_bytes() == b"p_1\n1.0\n" and not sidecar.exists()
    assert_no_child_left()


def _cells_text_is_repr(values):
    """_cells_text of `values` against repr() cells, a newline after every third."""
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    newline = (np.arange(values.size) % 3 == 2).astype(np.int64)
    expected = "".join(repr(v) + ("\n" if end else ",")
                       for v, end in zip(values.tolist(), newline.tolist()))
    assert io_module._cells_text(values, newline) == expected.encode()


def test_cells_text_matches_repr_on_a_fixed_corpus():
    rng = np.random.default_rng(700)
    # random mantissas in every binade, subnormals included
    exponents = np.repeat(np.arange(-1074, 1024), 8)
    binades = np.ldexp(rng.uniform(1.0, 2.0, exponents.size), exponents)
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    # the 40 doubles on each side of 1e-5, 1e-4, ..., 1e17
    tens = np.array([float(f"1e{p}") for p in range(-5, 18)])
    neighbours = (tens.view(np.int64)[:, None] + np.arange(-40, 41)).view(np.float64)
    # values of 1 to 17 significant digits, 1e-7 to 1e18
    short = [float(f"{rng.integers(10 ** (d - 1), 10 ** d)}e{rng.integers(-6, 19) - d}")
             for d in range(1, 18) for _ in range(300)]
    edges = [0.0, -0.0, 5e-324, -5e-324, 1.0, 0.1, 1e-4, 2.0 ** 52, 2.0 ** 52 - 1.0,
             2.0 ** 49 + 0.25, 2.0 ** 49 + 0.75, 1e16, 9999999999999998.0]
    uniform = np.concatenate([rng.uniform(0.0, 1.0, 5000), 10.0 ** rng.uniform(-6.0, 18.0, 5000)])
    corpus = np.concatenate([binades, powers_of_two, neighbours.ravel(), short, edges, uniform])
    _cells_text_is_repr(np.concatenate([corpus, -corpus[::7]]))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 40), elements=st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.floats(1e-4, 2.0 ** 52))))
def test_cells_text_matches_repr_for_finite_floats(values):
    _cells_text_is_repr(values)


def test_shortest_digits_keep_integer_dtypes():
    # numpy 1.x promotes uint64 with int64 to float64; every integer step
    # stays int64 (or uint64 where it wraps), so digits and point are int64
    values = np.array([0.1, 1e-4, 123.456, 2.0 ** 52 - 1.0, 0.0, -0.1, 5e-324, 1.0, 1e16])
    fast, digits, point = io_module._shortest_digits(values)
    assert (fast.dtype, digits.dtype, point.dtype) == (np.bool_, np.int64, np.int64)
    assert fast.tolist() == [True] * 4 + [False] * 5
    assert digits[:4].tolist() == [10 ** 16, 10 ** 16, 12345600000000000, 45035996273704950]
    assert point[:4].tolist() == [0, -3, 3, 16]


def test_powers_of_ten_do_not_round_down():
    # the formatter compares x with the doubles 1e-5..1e17 as with the exact
    # powers of ten, and relies on none of them rounding down
    for p in range(-5, 18):
        num, den = float(f"1e{p}").as_integer_ratio()
        assert num * 10 ** max(-p, 0) >= den * 10 ** max(p, 0), p


def test_region_csv_fallback_cells_on_a_lattice():
    # K = 3, N = 4, grid 40: 12341 rows.  Only the 2583 zero powers and the
    # 2583 MSEs of 1.0 of their silent users are written through repr().
    samples = sample_region(random_channels(np.random.default_rng(800), 4, 3),
                            SystemConfig(noise_variance=1.0, power_budget=30.0), 40, mode="grid")
    cells = np.concatenate((samples.powers, samples.mses), axis=1).ravel()
    fast = io_module._shortest_digits(cells)[0]
    assert (cells.size, int((~fast).sum())) == (74046, 5166)


def test_manifest_contents():
    block = manifest("region", {"grid": 40}, 7, CONFIG)
    assert block["command"] == "region"
    assert block["inputs"] == {"grid": 40}
    assert block["seed"] == 7
    assert block["sigma2_assumed"] == 1.0
    assert block["tool_version"]
    assert block["tolerances"]["tol_member"] == 1e-6
    assert "timestamp" not in block
    assert "threads" not in block


def test_tolerance_table_is_every_constant_in_order():
    # manifests serialise the table in this order
    assert list(TOLERANCES.items()) == [
        ("tol_feas_rel", 1e-9),
        ("tol_active_rel", 1e-8),
        ("tol_kkt", 1e-7),
        ("tol_member", 1e-6),
        ("colinearity_rtol", 1e-12),
        ("cluster_rel_radius", 1e-3),
        ("pgd_tol_rel", 1e-8),
    ]


def test_to_jsonable_conversions():
    @dataclass
    class Record:
        name: str
        value: complex

    payload = {
        "arr": np.array([1.0, 2.5]),
        "cplx": np.array([1 + 2j]),
        "flag": np.bool_(True),
        "count": np.int64(3),
        "enum": BoundaryClass.AFFINE,
        "rec": Record("x", 1 - 1j),
        "tup": (1, 2.0),
    }
    out = to_jsonable(payload)
    assert out["arr"] == [1.0, 2.5]
    assert out["cplx"] == [[1.0, 2.0]]
    assert out["flag"] is True
    assert out["count"] == 3
    assert out["enum"] == "Affine"
    assert out["rec"] == {"name": "x", "value": [1.0, -1.0]}
    assert out["tup"] == [1, 2.0]
    with pytest.raises(TypeError):
        to_jsonable(object())


def test_json_text_is_canonical(tmp_path):
    text = json_text({"b": 1, "a": np.float64(0.1)})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": 0.1, "b": 1}

    path = tmp_path / "out.json"
    write_json(path, {"b": 1, "a": 0.1})
    assert path.read_text(encoding="utf-8") == json_text({"a": 0.1, "b": 1})


def _former_to_jsonable(value):
    """The conversion json_text used to feed to json.dumps, kept as the reference."""
    if isinstance(value, np.generic):
        value = value.item()
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, enum.Enum):
        return _former_to_jsonable(value.value)
    if isinstance(value, np.ndarray):
        return _former_to_jsonable(value.tolist())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _former_to_jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _former_to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_former_to_jsonable(v) for v in value]
    if isinstance(value, (ConvexityScan, _Table)):      # a record table is the list of its records
        return [_former_to_jsonable(value[t]) for t in range(len(value))]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _dumps_text(payload) -> str:
    """The bytes json_text promises: the json module's, after the former conversion."""
    return json.dumps(_former_to_jsonable(payload), sort_keys=True, indent=2) + "\n"


def _assert_same_text(payload):
    expected = _dumps_text(payload)
    assert json.dumps(to_jsonable(payload), sort_keys=True, indent=2) + "\n" == expected
    assert json_text(payload) == expected


class _Plain(enum.Enum):
    WORD = "wérd"
    NUMBER = 7
    FRACTION = -0.0
    NOTHING = None
    PAIR = (1, "two")             # values are written as the json module writes them
    COUNTS = {10: "ten", 2: [0.5, "two"]}
    FLAGS = {True: 1, False: None, 0.5: "half"}


class _Label(str, enum.Enum):
    QUOTE = 'say "hi"\\'
    ACCENT = "é "


class _Level(enum.IntEnum):
    LOW = 1
    HUGE = 2 ** 80


@dataclass
class _Node:                      # fields declared out of name order
    zeta: object
    alpha: object
    mid: object


@dataclass(frozen=True)
class _Leaf:
    value: object
    label: str = "leaf"


@dataclass(frozen=True)
class _Child(_Leaf):
    extra: object = None


class _Table:
    """A record table of the test's own: it gives its records' field
    columns as `boundary.ConvexityScan` gives a scan's."""

    def __init__(self, records):
        self.records = list(records)

    def __len__(self):
        return len(self.records)

    def __getitem__(self, t):
        return self.records[t]

    def column(self, name):
        return [getattr(record, name) for record in self.records]


def _table(records):
    """The records, all of one class, as a table of that class."""
    cls = type(records[0])
    return type(f"{cls.__name__}Table", (_Table,), {"record_type": cls})(records)


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072e-308,
                1e308, 1.7976931348623157e308, 0.1, 1e16, 1e-7, 123456789.0]
_STRINGS = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\n\t\bé \ud800\U0001f600')),
                   max_size=8)
_NUMPY_SCALARS = st.one_of(
    st.booleans().map(np.bool_),
    *[st.integers(np.iinfo(t).min, np.iinfo(t).max).map(t)
      for t in (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)],
    st.floats(width=16).map(np.float16),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.complex_numbers(width=64).map(np.complex64),
    st.complex_numbers().map(np.complex128),
    _STRINGS.map(np.str_),
)
_ARRAYS = hnp.arrays(st.sampled_from([np.float64, np.complex128, np.int64, np.bool_]),
                     hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3))
_LEAVES = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(-2 ** 200, 2 ** 200),
    st.floats(), st.sampled_from(_EDGE_FLOATS),
    _STRINGS, st.complex_numbers(),
    _NUMPY_SCALARS, _ARRAYS,
    st.sampled_from(list(_Plain) + list(_Label) + list(_Level)),
)
_KEYS = st.one_of(_STRINGS, st.integers(-20, 20), st.sampled_from(list(_Plain) + list(_Label) + list(_Level)))


def _containers(children):
    records = [st.builds(_Node, children, children, children),
               st.builds(_Leaf, children, _STRINGS),
               st.builds(_Child, children, _STRINGS, children)]
    # 2-6 records of one class, as a list, a tuple and a record table
    runs = [st.lists(record, min_size=2, max_size=6) for record in records]
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
        *records,
        *runs,
        *[run.map(tuple) for run in runs],
        *[run.map(_table) for run in runs],
    )


_PAYLOADS = st.recursive(_LEAVES, _containers, max_leaves=24)


@settings(deadline=None, max_examples=400)
@given(_PAYLOADS)
def test_json_text_matches_json_dumps(payload):
    _assert_same_text(payload)


@dataclass(frozen=True)
class _Point:
    x: float
    y: complex


class _Rich(enum.Enum):           # values that are no JSON value as they are
    CPLX = 1 - 2j
    RECORD = _Point(0.5, 2j)
    SPARSE = {10: "ten", 2: [0.5, 3j]}


class _Array(enum.Enum):          # alone: an array value is compared to no other member's
    X = np.array([1j, 2.0])


def test_enum_members_are_written_as_their_values():
    expected = {_Rich.CPLX: [1.0, -2.0],
                _Rich.RECORD: {"x": 0.5, "y": [0.0, 2.0]},
                _Rich.SPARSE: {"10": "ten", "2": [0.5, [0.0, 3.0]]},
                _Array.X: [[0.0, 1.0], [2.0, 0.0]]}
    for member, value in expected.items():
        assert json_text({"e": member}) == json_text({"e": member.value})
        assert to_jsonable(member) == value
    # dict keys are written as text, sorted as text
    assert list(to_jsonable(_Rich.SPARSE)) == ["10", "2"]


def test_json_text_edge_values():
    _assert_same_text({"floats": _EDGE_FLOATS, "empty": [{}, [], (), {"": ""}],
                       "keys": {3: "int", 10: "int", _Level.LOW: "enum", _Plain.WORD: "enum", "3": "str"},
                       "ints": [2 ** 100, -2 ** 100, True, False, None],
                       "arrays": [np.array(2.5), np.array(1 - 2j), np.arange(3), np.eye(2) * (1 + 1j)],
                       "enums": list(_Plain) + list(_Label) + list(_Level)})
    assert json_text(float("nan")) == "NaN\n"
    assert json_text([]) == "[]\n" and json_text({}) == "{}\n"


class _Unhashable(enum.Enum):      # __eq__ without __hash__: members are unhashable
    A = 1
    B = 2

    def __eq__(self, other):
        return self is other


# Field columns of a record table, each written a column at a time.
# Values that compare equal, such as -0.0 and 0.0 or True, 1, 1.0 and
# _Level.LOW, must still be written each as itself: a writer that reuses
# a float's or a mixed column's text by value fails here.
_COLUMNS = {
    "floats": [0.0, -0.0, 0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308, 1e308],
    "finite floats": [-0.0, 0.0, 0.1, 1e16],
    "mixed": [-0.0, 0.0, -0j, 0j, math.nan, math.inf, -math.inf, 5e-324,
              np.float64(-0.0), np.float64(0.0), np.float32(0.1), np.complex128(-0j), np.complex128(0j),
              True, 1, 1.0, _Level.LOW, _Label.QUOTE, _Label.ACCENT, "say \"hi\"\\", None,
              np.array([-0.0, 1j]), np.arange(3), _Leaf(-0.0, "inner"), [_Leaf(0.0), _Leaf(-0.0)],
              _Node(_Child(-0j), None, [True, 1])],
    "bools": [True, False, True, True],
    "bools and ints": [True, 1, False, 0, 1, True, None, None],
    "ints": [1, 2 ** 80, 1, 0, -1],
    "levels": [_Level.LOW, _Level.HUGE, _Level.LOW, _Level.LOW],
    "labels": [_Label.QUOTE, _Label.ACCENT, _Label.QUOTE, _Label.ACCENT],
    "plain": [_Plain.FRACTION, _Plain.COUNTS, _Plain.FRACTION, _Plain.PAIR],
    "unhashable": [_Unhashable.A, _Unhashable.B, _Unhashable.A, _Unhashable.A],
    "strings": ["a", "é", "a", ""],
    "nones": [None, None, None, None],
    "numpy floats": [np.float64(-0.0), np.float64(0.0), np.float64(math.nan), np.float32(-0.0)],
    "complex": [-0j, 0j, complex(-0.0, -0.0), 1 - 2j],
}


@pytest.mark.parametrize("column", list(_COLUMNS))
def test_record_sequences_match_json_dumps(column):
    values = _COLUMNS[column]
    leaves = [_Leaf(v, f"leaf {i}") for i, v in enumerate(values)]
    nodes = [_Node(v, w, [v]) for v, w in zip(values, values[::-1])]
    children = [_Child(v, "child", {"v": v}) for v in values]
    for run in (leaves, nodes, children):
        _assert_same_text(run)
        _assert_same_text({"run": tuple(run), "nested": [run, run[:2]]})
        # a table is written a column at a time, as the list of its records
        table = _table(run)
        assert json_text(table) == json_text(run)
        _assert_same_text({"table": table, "nested": [table, _table(run[:2]), _table(run[:1])]})
    # a _Child is not a _Leaf: a sequence of both must not share _Leaf's template
    _assert_same_text([leaves[0], children[0], *leaves[1:]])
    _assert_same_text(tuple(children[:1] + leaves))


@dataclass
class _Mapping(dict):             # a dataclass that is a dict: written by its fields
    alpha: object
    beta: object = "mapping"


@dataclass
class _Sequence(list):            # a dataclass that is a list: written by its fields
    alpha: object


class _Undecorated(_Child):       # no decorator of its own: a record of _Child's fields
    pass


def _record_kinds():
    mapping = _Mapping(-0.0, [1j, None])
    mapping.update({"not": "a field"})
    sequence = _Sequence(_Level.LOW)
    sequence.extend([1.5, "not a field"])
    return {"mapping": mapping, "sequence": sequence,
            "undecorated": _Undecorated(math.nan, "undecorated", {"v": -0j})}


@pytest.mark.parametrize("kind", ["mapping", "sequence", "undecorated"])
def test_records_that_subclass_a_container_or_a_dataclass(kind):
    record = _record_kinds()[kind]
    _assert_same_text(record)
    _assert_same_text({"one": record, "pair": [record, record]})
    run = [record] * 4
    _assert_same_text(run)
    _assert_same_text({"run": tuple(run), "mixed": [_record_kinds()[kind], *run]})
    assert json_text(_table(run)) == json_text(run)
    _assert_same_text({"table": _table(run)})


@dataclass(frozen=True)
class _Length(float):             # a dataclass that is a float: written as the float
    unit: str = "m"


def test_record_sequences_of_a_leaf_type_are_written_as_leaves():
    lengths = [_Length(v) for v in (0.5, -0.0, math.nan, 2.0, 1e300)]
    assert json_text(lengths[0]) == "0.5\n"
    _assert_same_text(lengths)
    _assert_same_text({"run": tuple(lengths)})


def test_write_json_keeps_the_old_file_when_the_payload_fails(tmp_path):
    path = tmp_path / "report.json"
    write_json(path, {"old": 1})
    with pytest.raises(TypeError):
        write_json(path, {"a": object()})
    assert path.read_text(encoding="utf-8") == json_text({"old": 1})


@pytest.mark.parametrize("payload", [
    object(), [1, object()], {"a": {"b": b"bytes"}}, {1j}, np.datetime64("2020-01-01T00:00"),
    np.array(["x"], dtype=object).astype("S1"),
])
def test_json_text_rejects_what_to_jsonable_rejects(payload):
    with pytest.raises(TypeError):
        _dumps_text(payload)
    with pytest.raises(TypeError):
        json_text(payload)


def test_json_text_matches_json_dumps_on_command_payloads(monkeypatch, tmp_path):
    """The payloads the commands write, captured on their way to the writer."""
    from mseregion import cli, kkt

    payloads = []

    def capture(path, payload):
        payloads.append(payload)
        write_json(path, payload)

    monkeypatch.setattr(cli, "write_json", capture)
    channels = str(tmp_path / "reference.json")
    save_channels(channels, kkt.REFERENCE_CHANNELS)
    out = str(tmp_path / "out.json")
    commands = [
        ["convexity-scan", "--trials", "40", "--dim", "3", "--seed", "2"],
        ["convexity-scan", "--trials", "40", "--dim", "3", "--colinear", "--seed", "2"],
        ["wsmse", "--channels", channels, "--weights", "0.22,0.54,0.24", "--starts", "8"],
        ["segment", "--channels", channels, "--a", "0.21389147,0.13652377,1.0",
         "--b", "1.0,0.19774107,0.23353177", "--steps", "1"],
        ["counterexample", "--starts", "8", "--region-csv", str(tmp_path / "ce.csv"), "--grid", "6"],
        ["region", "--channels", channels, "--grid", "4", "--out", str(tmp_path / "region.csv")],
    ]
    for argv in commands:
        if argv[0] != "region":
            argv = argv + ["--out", out]
        assert cli.main(argv) in (0, 3)
    # counterexample writes its region manifest and its report; region its manifest
    assert len(payloads) == 7
    for payload in payloads:
        _assert_same_text(payload)


# the convexity scans CI runs (trials, dim, colinear, sigma^2, P), and P = 1e140
_SCAN_SETTINGS = {
    "plain": (1000, 8, False, 1.0, 10.0),
    "colinear": (1000, 8, True, 1.0, 10.0),
    "high snr": (1000, 4, False, 1.0, 1e15),
    "low noise": (1000, 1, False, 1e-3, 0.02),
    "extreme snr": (200, 4, False, 1.0, 1e100),
    "snr 1e140": (200, 4, False, 1.0, 1e140),
}


@pytest.mark.parametrize("setting", list(_SCAN_SETTINGS))
def test_scan_tables_are_written_as_their_report_lists(setting):
    from mseregion import convexity_certificates
    from mseregion.cli import _scan_pairs

    trials, dim, colinear, sig2, power = _SCAN_SETTINGS[setting]
    pairs = _scan_pairs(np.random.default_rng(1), trials, dim, colinear)
    scan = convexity_certificates(pairs, SystemConfig(noise_variance=sig2, power_budget=power))
    reports = list(scan)
    if colinear:                # -0.0 in every trial, which must not print as 0.0
        assert all(math.copysign(1.0, r.worst_discriminant) == -1.0 for r in reports)
        assert not any(r.worst_discriminant for r in reports)
    assert json_text({"trials": scan}) == json_text({"trials": reports})
    _assert_same_text({"trials": scan})
    # short tables and an empty one
    names = ("certified", "affine", "worst_discriminant", "worst_p")
    for count in (0, 1, 3):
        short = ConvexityScan(*(getattr(scan, name)[:count] for name in names))
        assert json_text(short) == json_text(reports[:count]), count
        _assert_same_text({"trials": short})
