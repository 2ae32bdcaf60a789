"""Channel JSON, CSV tables, and deterministic report serialization.

Channel sets travel as

    {"n": <antennas>, "k": <users>, "entries": [[[re, im], ...], ...]}

with `entries` holding n rows of k [re, im] pairs.  All JSON output is
byte-stable: keys sorted, two-space indent, no timestamps, complex
numbers as [re, im] pairs.

JSON is written by one rule in one recursive pass straight from the
result objects (`_text`): it converts each node (numpy scalars, complex
numbers, Enums, arrays, dataclasses, dicts, tuples) and writes it, with
leaves written by float.__repr__ (NaN and ±Infinity spelled as json
spells them), int.__repr__, json's encode_basestring_ascii, and
true/false/null.  The bytes are those json.dumps(..., sort_keys=True,
indent=2) writes, which with `indent` encodes in pure Python, one
generator per container.  to_jsonable reads the text back with
json.loads, so json_text(x) is json.dumps(to_jsonable(x),
sort_keys=True, indent=2) + "\n" by construction.  A record is written
through one template per (class, indent), cached, with the sorted field
names baked in and a `%s` per value; that cache is the one record test.
A list or tuple is written item by item, so each of its records fills
its template value by value.  A record table, such as a scan's trials
(`boundary.ConvexityScan`, whose class names its record class as
`record_type`), is written as the list of its records in the same
template, its columns read from the table (`column(name)`) one at a
time: an all-float column in one map of float.__repr__, any other value
through `_text` itself, written once per distinct value where the column
is all bool, all int, all str or all None (never for floats or
complexes: -0.0 == 0.0).  The filled records are joined in one `%`.

CSV floats use repr(), which round-trips exactly through float().
Region CSVs are written as bytes a block of rows at a time, every cell
formatted in numpy (_cells_text) into 24 bytes (three 64-bit words) and
stripped of NULs: where 1e-4 <= x < 2**52 and x is no power of two,
repr's shortest round-trip digits come from exact integer arithmetic,
are written into the cell's words from digit tables and are finished by
one XOR with a row of one table, keyed by the point, the trailing zeros
and the separator; every other cell goes through repr, once per
distinct bit pattern of the block (a negative 17-digit exponent form
widens its call's cells to 32 bytes).  A repr holds
no delimiter, quote or newline, so the bytes are those a `csv.writer` of
repr() cells would write.  A sample set with fewer levels than power
cells (a grid of two or more users) copies its power cells from the
texts of its levels, formatted once per write.  Large region CSVs are
evaluated and formatted on every CPU of the affinity mask: forked
workers evaluate the MSE rows of contiguous row ranges and format them
into temporary files, which are appended in row order, so the bytes do
not depend on the split.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import itertools
import json
import math
import operator
import os
import pickle
import shutil
import signal
import tempfile
from json.encoder import encode_basestring_ascii
from typing import Optional

import numpy as np

from . import __version__
from .boundary import BoundarySample
from .model import ChannelSet, SystemConfig
from .tolerances import TOLERANCES

__all__ = [
    "parse_channel_dict",
    "channel_dict",
    "load_channels",
    "save_channels",
    "write_boundary_csv",
    "write_region_csv",
    "read_region_csv",
    "manifest",
    "to_jsonable",
    "json_text",
    "write_json",
    "BOUNDARY_COLUMNS",
]

# the boundary CSV header: the fields of a sweep sample, in order
BOUNDARY_COLUMNS = tuple(f.name for f in dataclasses.fields(BoundarySample))


def parse_channel_dict(payload) -> ChannelSet:
    """Build a ChannelSet from the JSON schema, with schema-level errors."""
    if not isinstance(payload, dict):
        raise ValueError(f"channel payload must be an object, got {type(payload).__name__}")
    for key in ("n", "k", "entries"):
        if key not in payload:
            raise ValueError(f"channel payload is missing {key!r}")
    n, k = payload["n"], payload["k"]
    # JSON true and false load as bool, a subclass of int: reject them
    if any(not isinstance(v, int) or isinstance(v, bool) or v < 1 for v in (n, k)):
        raise ValueError(f"n and k must be positive integers, got n={n!r} k={k!r}")
    entries = payload["entries"]
    if not isinstance(entries, list) or len(entries) != n:
        raise ValueError(f"entries must list {n} rows, got {len(entries) if isinstance(entries, list) else type(entries).__name__}")
    rows = []       # every row is checked before the array is formed: k may be huge
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != k:
            raise ValueError(f"entries row {i} must list {k} [re, im] pairs")
        cells = []
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != 2:
                raise ValueError(f"entries[{i}][{j}] must be an [re, im] pair")
            re, im = cell
            if any(not isinstance(v, (int, float)) or isinstance(v, bool) for v in (re, im)):
                raise ValueError(f"entries[{i}][{j}] must hold two numbers")
            try:
                cells.append(complex(re, im))
            except OverflowError as err:    # an int beyond the float range
                raise ValueError(f"entries[{i}][{j}] holds a number too large for a float") from err
        rows.append(cells)
    return ChannelSet(np.array(rows, dtype=np.complex128))


def channel_dict(channels: ChannelSet) -> dict:
    mat = channels.entries
    return {
        "n": int(mat.shape[0]),
        "k": int(mat.shape[1]),
        "entries": [[[float(c.real), float(c.imag)] for c in row] for row in mat],
    }


def load_channels(path) -> ChannelSet:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"invalid JSON in {path}: {err}") from err
    return parse_channel_dict(payload)


def save_channels(path, channels: ChannelSet) -> None:
    write_json(path, channel_dict(channels))


def _cell(value) -> str:
    return "" if value is None else repr(float(value))


def write_boundary_csv(path, samples) -> None:
    """One row per sweep sample; derivative columns are empty at endpoints."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(BOUNDARY_COLUMNS) + "\n")
        for s in samples:
            handle.write(",".join(_cell(getattr(s, name)) for name in BOUNDARY_COLUMNS) + "\n")


# Region CSV cells: repr() text from exact integer arithmetic, in numpy.
#
# repr(x) writes the shortest digit string that reads back as x, the one
# nearest x where two of that length do (a tie takes the even last digit),
# positionally for 1e-4 <= x < 1e16 (the search of Steele & White and Gay;
# Ryu, Adams, PLDI 2018, finds the same digits).  For 1e-4 <= x < 2**52,
# x not a power of two, the digits come from integers.  With x = m 2**e
# (2**52 < m < 2**53), k = floor(log10 x) and q = 16 - k in 1..20,
# V = x 10**q = m 5**q / 2**s lies in [1e16, 1e17), s = -(q + e) in
# 0..46.  A float product estimates V to within 12; m 5**q - estimate 2**s,
# exact modulo 2**64 in unsigned products and below 2**51 in size, gives
# floor(V) and the fraction's 2**s-ths.  The numbers that read back as x
# are those within half an ulp: V +- 5**q / 2**(s + 1), whose ends are odd
# multiples of 2**-(s + 1), so no integer is at an end (whether ends count
# never matters).  The interval is under 23 wide.  Let g be 100, 10 or 1,
# the largest with a multiple in the interval (at most one of 100).  The
# multiple of g nearest V is in the interval too, and it is repr's digit
# string followed by exactly as many zeros as the shortest string drops.
# The doubles 1e-5..1e17 are each at least the power of ten they name, so
# x >= 1e(k + 1) is exact, and V's interval never reaches 1e17 (1e(k + 1)
# does not round down to x).  Every other cell (zero, a negative, a power
# of two, an exponent form, NaN, an infinity, x >= 2**52) goes through
# repr itself.
_I64, _U64 = np.int64, np.uint64


_FAST_LOW, _FAST_HIGH = 1e-4, 2.0 ** 52
_MANTISSA = _I64((1 << 52) - 1)
# per biased exponent b: k0 = floor((b - 1023) log10 2), so floor(log10 x)
# is k0 + 1 for x of that exponent where x >= _NEXT_TEN[b] = 1e(k0 + 1),
# and k0 elsewhere
_K0 = ((np.arange(2048, dtype=_I64) - _I64(1023)) * _I64(78913)) >> _I64(18)
_NEXT_TEN = np.array([float(f"1e{p}") for p in range(-5, 18)])[np.clip(_K0 + _I64(6), 0, 22)]
_POW5 = np.array([5 ** q for q in range(21)], dtype=_I64)
_TENS = np.array([float(f"1e{q}") for q in range(21)])
# g per (u mod 100) 32 + w, for the interval's upper integer u and its
# width w <= 22: 100 where u mod 100 <= w, else 10 where u mod 10 <= w,
# else 1
_STEPS = np.where(np.arange(100)[:, None] <= np.arange(32), 100,
                  np.where(np.arange(100)[:, None] % 10 <= np.arange(32), 10, 1)).astype(_I64).ravel()


def _shortest_digits(values):
    """(fast, digits, point) for a float64 array, repr's digits for fast cells.

    Where `fast` (1e-4 <= value < 2**52, not a power of two), repr(value)
    writes the significant digits of the 17-digit int64 `digits`, with the
    decimal point `point` (int64) places after the first: value is about
    0.digits * 10**point.  Other cells hold arbitrary digits and point 0.
    """
    fraction = values.view(_I64) & _MANTISSA
    fast = (values >= _FAST_LOW) & (values < _FAST_HIGH) & (fraction != _I64(0))
    x = np.where(fast, values, 0.5)
    biased = x.view(_I64) >> _I64(52)
    m = fraction | _I64(1 << 52)
    k = _K0[biased] + (x >= _NEXT_TEN[biased])
    q = _I64(16) - k
    s = _I64(1075) - biased - q
    five = _POW5[q]
    estimate = (x * _TENS[q]).astype(_I64)
    rest = (m.view(_U64) * five.view(_U64) - (estimate.view(_U64) << s.view(_U64))).view(_I64)
    carry = rest >> s
    whole = estimate + carry                            # floor(V)
    frac2 = (rest - (carry << s)) << _I64(1)            # 2 (V - whole) 2**s
    s1 = s + _I64(1)
    upper = whole + ((five + frac2) >> s1)
    width = upper - whole + ((five - frac2) >> s1)
    # "clip" keeps the index of any other cell in the table
    step = np.take(_STEPS, upper % _I64(100) * _I64(32) + width, mode="clip")
    below = whole // step
    digits = below * step
    twice = ((whole - digits) << s1) + frac2            # 2 (V - digits) 2**s
    # up past half a step, or at half a step from an odd multiple
    digits += step * (twice + (below & _I64(1)) > step << s)
    return fast, digits, k + _I64(1)


# A fast cell's text is laid out in three 64-bit words (24 bytes) and
# stripped of its NULs.  Its 17 digits D, of point p >= 1, first take a
# 0 digit after their p-th: the 18-digit D' = D + floor(x) 9 10**(17 - p)
# (floor(x) is the integer part of the repr too: no integer but x itself
# reads back as x).  For p <= 0, D' = D, read as 18 digits with a leading
# 0.  D' is written in bytes 4-21: four digits in word 0, eight in word
# 1 and six in word 2.  Its digits past the kept ones (up to the last
# significant one or to the one after the point) are all "0", so one XOR,
# the row of `_text_tables`' finishing table for (p, D's trailing zeros,
# separator), completes the cell: it clears those digits, writes the
# separator after the last kept one, and turns the inserted 0 into "." or
# writes the "0.", "0.0", "0.00" or "0.000" of a point at or before the
# first digit so that it ends on the leading 0, in bytes 0-4.  The
# longest text (17 digits, a point and the separator) fills the 24 bytes.
# The tables are built on first use, so that a command that writes no
# region CSV neither builds nor holds them.
_WORDS = 3


@functools.cache
def _text_tables():
    """(digit words, trailing zeros, finishing XOR table) of a fast cell.

    The digit words are the texts of 4, 4, 4, 2 and 4 digits at their
    places: D' digits 0-3 in bytes 4-7 of word 0, digits 4-7 and 8-11 in
    bytes 0-3 and 4-7 of word 1, digits 12-13 and 14-17 in bytes 0-1 and
    2-5 of word 2.  The trailing zeros are those that end a 4- or 2-digit
    group (a group of 0 counts its width).  The finishing table has a row
    of three words per (p + 3, zeros, newline), 20 x 19 x 2, for D' ending
    in `zeros` zeros: it keeps max(18 - zeros, p + 2) digits.
    """
    def place(width, byte):
        groups = np.arange(10 ** width)
        text = np.zeros((groups.size, 8), dtype=np.uint8)
        zeros = np.zeros(groups.size, dtype=_I64)
        for i in range(width):
            text[:, byte + i] = 48 + groups // 10 ** (width - 1 - i) % 10
            zeros += groups % 10 ** (i + 1) == 0
        return text.view(_U64).ravel(), zeros

    (high, zeros4), (low, _), (late, _), (pair, zeros2) = place(4, 4), place(4, 0), place(4, 2), place(2, 0)
    finish = np.zeros((20, 19, 2, 8 * _WORDS), dtype=np.uint8)
    for p in range(-3, 17):
        for zeros in range(19):
            kept = max(18 - zeros, p + 2)
            row = finish[p + 3, zeros]
            row[:, 4 + kept:22] = ord("0")
            if p > 0:
                row[:, 4 + p] = ord("0") ^ ord(".")
            else:
                row[:, 3 + p:5] = np.frombuffer(b"0." + b"0" * -p, dtype=np.uint8)
                row[:, 4] ^= ord("0")
            row[:, 4 + kept] ^= np.array([ord(","), ord("\n")], dtype=np.uint8)
    return (high, low, late, pair), (zeros4, zeros2), finish.reshape(-1, 8 * _WORDS).view(_U64)


# 9 10**(17 - p) at p = 1..16, the digit D' inserts after the point;
# a cell of p <= 0 (x < 1) has integer part 0 and reads any entry
_NINES = np.array([9 * 10 ** (17 - p) for p in range(17)], dtype=_I64)


def _cell_words(values, newline):
    """The (size, width) uint64 words of the cells of `values`: each
    cell's repr(float), followed by "," or, where `newline` is 1, by
    "\n", padded with NULs.

    The width is 3 words (24 bytes), enough for every nonnegative repr
    and its separator, and 4 where a repr needs more (a negative
    17-digit exponent form).  Fast cells (_shortest_digits) are written
    from their digits; each distinct bit pattern among the others is
    repr'd once.
    """
    (high, low, late, pair), (zeros4, zeros2), finish = _text_tables()
    fast, digits, point = _shortest_digits(values)
    if point.max(initial=0) > 0:         # some cell is >= 1 (other cells have p = 0)
        digits += np.where(fast, values, 0.0).astype(_I64) * _NINES[point]
    a = digits // _I64(10 ** 14)
    rest = digits - a * _I64(10 ** 14)
    b = rest // _I64(10 ** 6)
    c = rest - b * _I64(10 ** 6)
    b1 = b // _I64(10 ** 4)
    c1 = c // _I64(10 ** 4)
    b2, c2 = b - b1 * _I64(10 ** 4), c - c1 * _I64(10 ** 4)
    words = np.empty((values.size, _WORDS), dtype=_U64)
    words[:, 0] = high[a]
    np.bitwise_or(low[b1], high[b2], out=words[:, 1])
    np.bitwise_or(pair[c1], late[c2], out=words[:, 2])
    # D' ends in the zeros of its last group, and where that is 0 in
    # those before it (a >= 100: D' >= 1e16)
    zeros = zeros4[c2]
    more = np.flatnonzero(c2 == 0)
    if more.size:
        c1, b2, b1, a = c1[more], b2[more], b1[more], a[more]
        zeros[more] += zeros2[c1] + (c1 == 0) * (
            zeros4[b2] + (b2 == 0) * (zeros4[b1] + (b1 == 0) * zeros4[a]))
    words ^= np.take(finish, point * _I64(38) + zeros * _I64(2) + newline + _I64(114), axis=0)
    slow = np.flatnonzero(~fast)
    if slow.size:
        bits = values[slow].view(_U64)
        if (bits == bits[0]).all():         # one pattern, as the 1.0 MSEs of silent users
            keys, inverse = bits[:1], np.zeros(slow.size, dtype=np.intp)
        else:
            keys, inverse = np.unique(bits, return_inverse=True)
        texts = [repr(value).encode() for value in keys.view(np.float64).tolist()]
        width = max(_WORDS, max(map(len, texts)) // 8 + 1)
        # each text followed by "," and by "\n"
        table = np.frombuffer(b"".join((text + end).ljust(8 * width, b"\0")
                                       for text in texts for end in (b",", b"\n")),
                              dtype=_U64).reshape(-1, width)
        words = _widened(words, width)
        _cells(words)[slow] = np.take(_cells(table), inverse * 2 + newline[slow])
    return words


def _cells(words):
    """The (size,) view of (size, w) cell words, one void item per cell,
    so that gathers and scatters move a cell at a time."""
    return words.view(np.dtype((np.void, words.itemsize * words.shape[1]))).reshape(-1)


def _widened(words, width):
    """`words`, (size, w) cell words, padded with NUL words to `width`."""
    if words.shape[1] == width:
        return words
    return np.concatenate((words, np.zeros((len(words), width - words.shape[1]), dtype=_U64)),
                          axis=1)


def _cells_text(values, newline) -> bytes:
    """repr(float) of each cell of `values`, followed by "," or, where
    `newline` is 1, by "\n"; one bytes object (_cell_words)."""
    return _cell_words(values, newline).tobytes().translate(None, b"\0")


# Rows formatted per write.  A block's working arrays are a few dozen
# int64 temporaries per cell, dropped with the block.  On a 2-core VM a
# fresh `region` process (K = 3, N = 8, grid 91; K = 4, N = 8, 28000
# random rows) peaked at 45.9 and 41.8 MB RSS with 1024-row blocks, as
# with the former repr writer (45.6, 41.8); 2048-row blocks read 47.4 and
# 44.1 MB and 4096-row blocks 50.4 and 48.1 MB, none of them faster.
# With 24-byte cells, one process running both commands peaked at 42.5
# MB with 1024-row blocks, 43.6 MB with 2048 and 46.6 MB with 4096; in
# process (one range, medians of 9 writes, sizes alternating) 2048- and
# 4096-row blocks wrote the grid 8% and 13% faster and the random rows
# 1% faster and 18% slower, within the runs' spread, so blocks stay at
# 1024 rows and the lowest peak.
_REGION_BLOCK_ROWS = 1024

# The fewest rows a range needs to be worth a worker of its own; a range
# carries its kernel evaluation as well as its formatting.  On a 2-core
# VM, in a process with 64 MB resident, a second range (fork, report,
# reap, the spill written and copied back) broke even on grids at about
# these row counts (medians of 41 writes a side; runs spread about 10%):
#
#            K = 1          K = 2          K = 3          K = 4
#   N = 1    32768          16384-24576    12288-32768    12288
#   N = 8    16384-24576    12288-16384    12288          8192-12288
#
# Splits start at twice this, 24576 rows, where a second range saved
# 15-25% of the write for K = 2..4 (N = 1, K = 3: -12%), 6% for K = 1 at
# N = 8 and -65% at N = 1, the cheapest kernel; at 49152 rows it saved
# 15-32% in every case.  With 24-byte cells (random rows, medians of 15
# writes a side, alternating) two ranges took 0.84, 0.78 and 0.80 of one
# range's time at K = 4, N = 8 and 12288, 16384 and 24576 rows; 0.93 and
# 0.73 at K = 3, N = 8 and 16384 and 24576; 1.73 and 0.83 at K = 2, N = 8;
# and 1.78 at K = 1, N = 1 and 24576 rows.  The break-even moved up by
# at most one step, so splits still start at 24576 rows: 32768 would
# leave a 28000-row K = 4 draw, which two ranges write 20% faster, in
# one range.
_MIN_RANGE_ROWS = 12288


def _range_count(rows: int) -> int:
    """How many contiguous row ranges to evaluate and format at once.

    One per CPU of the affinity mask, each of at least _MIN_RANGE_ROWS
    rows; one where the platform has no fork or affinity mask.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), rows // _MIN_RANGE_ROWS))


def _write_region_rows(handle, sample_set, level_words, mses, lo, hi) -> None:
    """Write rows lo..hi - 1 to the binary file `handle`, _REGION_BLOCK_ROWS at a time.

    `mses` holds the MSE rows of that range.  Where `level_words` holds
    the words of the set's level texts (_cell_words), every power cell is
    copied from its level's words; where it is None, the power cells are
    formatted with the MSEs.
    """
    lattice, levels = sample_set.lattice, sample_set.levels
    k = lattice.shape[1]
    newline = np.zeros((_REGION_BLOCK_ROWS, 2 * k), dtype=_I64)
    newline[:, -1] = 1
    last = newline[:, k:].ravel()
    for start in range(lo, hi, _REGION_BLOCK_ROWS):
        stop = min(start + _REGION_BLOCK_ROWS, hi)
        block = mses[start - lo:stop - lo]
        if level_words is None:
            cells = np.concatenate((levels[lattice[start:stop]], block), axis=1)
            handle.write(_cells_text(cells.ravel(), newline[:stop - start].ravel()))
        else:
            mse_words = _cell_words(block.ravel(), last[:block.size])
            width = max(level_words.shape[1], mse_words.shape[1])
            words = np.empty((stop - start, 2 * k, width), dtype=_U64)
            cells = _cells(words.reshape(-1, width)).reshape(-1, 2 * k)
            cells[:, :k] = np.take(_cells(_widened(level_words, width)), lattice[start:stop])
            cells[:, k:] = _cells(_widened(mse_words, width)).reshape(-1, k)
            handle.write(words.tobytes().translate(None, b"\0"))


def _start_worker(spill, sample_set, level_words, lo, hi):
    """Fork a worker for rows lo..hi - 1; its pid and the read end of its pipe.

    The worker evaluates its MSE rows (`sample_set.mse_rows`) and sends
    b"ok" through the pipe, or its pickled exception if the evaluation
    raised; after "ok" it writes its rows to `spill` and exits, copying
    its power cells from `level_words` where the set has fewer levels
    than power cells (_write_region_rows).  (None, None) when the fork
    fails: this process then does the range itself.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None, None
    if pid == 0:
        # The parent may hold OpenBLAS threads (Python 3.12 warns about
        # forking it).  The worker runs the kernel's elementwise numpy and
        # einsum on the channels' factor, formed before the fork, sorts and
        # formats floats: it makes no BLAS or LAPACK call, so it never
        # waits on a lock that a thread absent from the child held at the
        # fork.  It leaves through os._exit, which runs no exit handler and
        # flushes none of the parent's buffers.
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                try:
                    mses = sample_set.mse_rows(lo, hi)
                except Exception as err:
                    pipe.write(pickle.dumps(err))
                    pipe.flush()
                    os._exit(1)
                pipe.write(b"ok")
            _write_region_rows(spill, sample_set, level_words, mses, lo, hi)
            spill.flush()
            status = 0
        except BaseException as err:
            os.write(2, f"region CSV worker, rows {lo}-{hi}: {err!r}\n".encode())
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def write_region_csv(path, sample_set) -> None:
    """Header p_1..p_K, eps_1..eps_K, then one row of repr() floats per sample.

    Rows are formatted _REGION_BLOCK_ROWS at a time, every cell by
    _cell_words: from exact integer arithmetic where that settles repr's
    text, through repr once per distinct bit pattern of the block
    elsewhere.  Row i's powers are `levels[lattice[i]]`.  Where the set
    has fewer levels than power cells (a grid of two or more users), the
    power cells are copied from the texts of its levels, formatted once
    per write; otherwise (a random draw, a one-user grid) they are
    formatted block by block with the MSEs.  A repr holds no delimiter,
    quote or newline, so the bytes are those a `csv.writer` of repr()
    cells writes.

    The rows are split into contiguous ranges, one per CPU of the
    affinity mask (see _range_count), and each process evaluates the MSE
    rows it formats (`sample_set.mse_rows`).  Forked workers take every
    range but the first, which this process evaluates meanwhile; each
    worker reports its evaluation through a pipe before it formats its
    range into an unlinked temporary file.  The output is opened only
    once every range has evaluated, so an error of the kernel in any
    range is raised here, as raised (the first range's in row order),
    before any file exists.  This process then formats the first range,
    and appends each worker's file in row order once the worker has
    exited.  Every cell is the repr of its own bits, so the bytes do not
    depend on the split.  A range whose fork fails is evaluated and
    formatted here; a worker that fails otherwise raises OSError.
    """
    levels = sample_set.levels
    n, k = sample_set.lattice.shape
    level_words = (_cell_words(levels, np.zeros(levels.size, dtype=_I64))
                   if levels.size < n * k else None)
    count = _range_count(n)
    bounds = [n * i // count for i in range(count + 1)]
    header = [f"p_{i}" for i in range(1, k + 1)] + [f"eps_{i}" for i in range(1, k + 1)]
    with contextlib.ExitStack() as stack:
        # pids until reaped.  Workers left running when this block fails
        # are stopped before their pipes close, so that none writes to a
        # closed pipe.
        running = set()
        try:
            workers = []
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                spill = stack.enter_context(tempfile.TemporaryFile())
                pid, pipe = _start_worker(spill, sample_set, level_words, lo, hi)
                if pid is not None:
                    running.add(pid)
                    stack.enter_context(pipe)
                workers.append((pid, pipe, spill, lo, hi))
            mses = sample_set.mse_rows(0, bounds[1])
            for pid, pipe, spill, lo, hi in workers:
                if pid is None:
                    _write_region_rows(spill, sample_set, level_words, sample_set.mse_rows(lo, hi),
                                       lo, hi)
                    continue
                report = pipe.read()
                if report != b"ok":
                    raise pickle.loads(report) if report else OSError(
                        f"region CSV worker for rows {lo}-{hi} stopped before its report")
            with open(path, "wb") as handle:
                handle.write((",".join(header) + "\n").encode())
                _write_region_rows(handle, sample_set, level_words, mses, 0, bounds[1])
                for pid, pipe, spill, lo, hi in workers:
                    if pid is not None:
                        status = os.waitpid(pid, 0)[1]
                        running.remove(pid)
                        if status:
                            raise OSError(f"region CSV worker for rows {lo}-{hi} exited with "
                                          f"status {os.waitstatus_to_exitcode(status)}")
                    spill.seek(0)
                    shutil.copyfileobj(spill, handle)
        finally:
            for pid in running:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def read_region_csv(path):
    """Return (powers, mses) arrays from a region CSV, each of shape (rows, K).

    Raises ValueError for an empty file, an unrecognized header, or rows
    that do not all hold the header's 2K cells.
    """
    with open(path, "r", encoding="utf-8") as handle:
        line = handle.readline()
        if not line:
            raise ValueError(f"empty region CSV: {path}")
        header = line.rstrip("\r\n").split(",")
        if len(header) % 2 != 0 or not header[0].startswith("p_"):
            raise ValueError(f"unrecognized region CSV header: {header}")
        k = len(header) // 2
        start = handle.tell()
        if not handle.read(1):
            return np.empty((0, k)), np.empty((0, k))
        handle.seek(start)
        values = np.loadtxt(handle, delimiter=",", ndmin=2)
    if values.shape[1] != 2 * k:
        raise ValueError(f"region CSV rows hold {values.shape[1]} cells, "
                         f"the header {2 * k}: {path}")
    return values[:, :k], values[:, k:]


def manifest(command: str, inputs: dict, seed: Optional[int], config: SystemConfig) -> dict:
    """Reproducibility block attached to every JSON report and CSV sidecar."""
    return {
        "command": command,
        "inputs": inputs,
        "seed": seed,
        "sigma2_assumed": config.noise_variance,
        "tolerances": dict(TOLERANCES),
        "tool_version": __version__,
    }


# json's spelling of the float reprs that are no JSON number
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# Types _text writes before it tests for a dataclass: a dataclass that is
# also one of these is written as that type, never through a template.
_NOT_RECORDS = (np.generic, float, str, int, complex, enum.Enum, np.ndarray)

# Exact types whose text is a function of the value alone, so a column of
# one of them may be written once per distinct value.  A float or complex
# is not: -0.0 == 0.0 and -0j == 0j, so a value key would merge them.
_MEMO_TYPES = frozenset((bool, int, str, type(None)))


@functools.cache
def _record_template(cls, indent: str) -> Optional[tuple]:
    """A `cls` record's text at nesting `indent`, with `%s` for each value,
    its field names and a getter per field, all in sorted field order.

    Field names are written as _text writes keys.  None when _text does
    not write `cls` as a record: no dataclass (a subclass of one is one),
    or one of _NOT_RECORDS.
    """
    if not dataclasses.is_dataclass(cls) or issubclass(cls, _NOT_RECORDS):
        return None
    names = sorted(f.name for f in dataclasses.fields(cls))
    inner = indent + "  "
    slots = [f"{encode_basestring_ascii(name)}: %s" for name in names]
    text = "{\n" + inner + (",\n" + inner).join(slots) + "\n" + indent + "}" if names else "{}"
    return text, tuple(names), tuple(map(operator.attrgetter, names))


def _column(values: list, indent: str) -> list:
    """The texts of one field's values across a record table.

    An all-float column is repr'd in one map.  A column of one of
    _MEMO_TYPES is written once per distinct value; any other column
    goes through _text value by value.
    """
    kinds = set(map(type, values))
    if kinds == {float}:
        texts = list(map(float.__repr__, values))
        if not math.isfinite(sum(values)):      # some value is NaN or infinite
            texts = [_NONFINITE.get(text, text) for text in texts]
        return texts
    if len(kinds) == 1 and kinds <= _MEMO_TYPES:
        table = dict.fromkeys(values)
        for value in table:
            table[value] = _text(value, indent)
        return list(map(table.__getitem__, values))
    return [_text(value, indent) for value in values]


def _records(table, template: tuple, indent: str) -> str:
    """A record table's records at nesting `indent`, as list items.

    The table gives each field's column (`column(name)`), which is
    written a column at a time (_column); every record fills the
    template in one `%` over the joined copies.
    """
    text, names, _ = template
    inner = indent + "  "
    texts = [_column(table.column(name), inner) for name in names]
    cells = tuple(itertools.chain.from_iterable(zip(*texts)))
    return (",\n" + indent).join([text] * len(table)) % cells


def _text(value, indent: str) -> str:
    """`value` as JSON text at nesting `indent`, two spaces a level.

    This is the one conversion rule.  A numpy scalar is taken as its
    .item() first: an np.str_ is a str, but its .item() drops trailing
    NULs.  Leaves are tested in the json module's order, except that the
    singletons come first and float before str and int (no float is a
    str or an int); a subclass of a leaf type, such as a str-valued Enum,
    is written as its base value.  Any other node is converted in this
    order: a complex is written as [re, im], an Enum as its value, an
    ndarray as its .tolist(); a record (a dataclass, _record_template) by
    its sorted fields in its template, a dict's items under str(key)
    sorted by key, a list or tuple item by item.

    A record table, a sequence whose class names its record class as
    `record_type` (a `boundary.ConvexityScan`), is written as the list
    of its records, in that class's template, one field column at a
    time (_records).  Every value that is not a float is written by this
    rule, and a float as the float leaf above, so the bytes are those of
    writing each record on its own.
    """
    if isinstance(value, np.generic):
        value = value.item()
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        text = float.__repr__(value)
        if text[-1] in "nf":        # nan, inf, -inf: a finite repr ends in a digit
            return _NONFINITE[text]
        return text
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, complex):
        return _text([value.real, value.imag], indent)
    if isinstance(value, enum.Enum):
        return _text(value.value, indent)
    if isinstance(value, np.ndarray):
        return _text(value.tolist(), indent)
    inner = indent + "  "
    template = _record_template(type(value), indent)
    if template:
        text, _, getters = template
        return text % tuple([_text(getter(value), inner) for getter in getters])
    if isinstance(value, dict):
        pairs = sorted({str(k): v for k, v in value.items()}.items())
        if not pairs:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {_text(v, inner)}" for k, v in pairs]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        body = (",\n" + inner).join([_text(v, inner) for v in value])
    else:
        template = _record_template(getattr(type(value), "record_type", None), inner)
        if not template:
            raise TypeError(f"cannot serialize {type(value).__name__}")
        body = _records(value, template, inner)
    return "[\n" + inner + body + "\n" + indent + "]" if body else "[]"


def json_text(payload) -> str:
    """The report text: keys sorted, two-space indent, a final newline.

    It equals json.dumps(to_jsonable(payload), sort_keys=True, indent=2) + "\n".
    """
    return _text(payload, "") + "\n"


def to_jsonable(value):
    """`value` as the JSON-ready structure json_text writes, read back from it.

    Dicts and dataclasses come out with their keys in sorted order.
    """
    return json.loads(json_text(value))


def write_json(path, payload) -> None:
    """Write payload's JSON text to `path`, formed before `path` is opened.

    So a payload that cannot be written leaves an existing file as it was.
    """
    text = json_text(payload)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
