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
sort_keys=True, indent=2) + "\n" by construction.  A list or tuple of
four or more records of one dataclass is written through one template
per (class, indent), cached, with the sorted field names baked in and a
`%s` per value; that cache is the one record test, and a lone record
fills its template value by value.  A record table, such as a scan's
trials (`boundary.ConvexityScan`, whose class names its record class as
`record_type`), is written in the same template as the list of its
records, its columns read from the table (`column(name)`) instead of
from records.  The records are filled one field column at a time: an
all-float column in one map of float.__repr__, any other value through
`_text` itself, written once per distinct value where the column is all
bool, all int, all str, all None or all one Enum (never for floats or
complexes: -0.0 == 0.0).  The filled records are joined in one `%`.
Shorter lists are written a record at a time, which costs less there.

CSV floats use repr(), which round-trips exactly through float().
Region CSVs are written as bytes a block of rows at a time, every cell
formatted in numpy (_cells_text): where 1e-4 <= x < 2**52 and x is no
power of two, repr's shortest round-trip digits come from exact integer
arithmetic and are laid out as repr lays them out; every other cell goes
through repr, once per distinct bit pattern of the block.  A repr holds
no delimiter, quote or newline, so the bytes are those a `csv.writer` of
repr() cells would write.  Large region CSVs are formatted on every CPU
of the affinity mask: forked workers format contiguous row ranges into
temporary files, which are appended in row order, so the bytes do not
depend on the split.
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


def _shortest_digits(values):
    """(fast, digits, point) for a float64 array, repr's digits for fast cells.

    Where `fast` (1e-4 <= value < 2**52, not a power of two), repr(value)
    writes the significant digits of the 17-digit int64 `digits`, with the
    decimal point `point` (int64) places after the first: value is about
    0.digits * 10**point.  Other cells hold arbitrary numbers.
    """
    fraction = values.view(_I64) & _MANTISSA
    fast = (values >= _FAST_LOW) & (values < _FAST_HIGH) & (fraction != _I64(0))
    x = np.where(fast, values, 1.5)
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
    tens = upper // _I64(10)
    step = np.where(upper - tens // _I64(10) * _I64(100) <= width, _I64(100),
                    np.where(upper - tens * _I64(10) <= width, _I64(10), _I64(1)))
    below = whole // step
    digits = below * step
    twice = ((whole - digits) << s1) + frac2            # 2 (V - digits) 2**s
    unit = step << s
    digits += step * ((twice > unit) | ((twice == unit) & (below & _I64(1)).astype(bool)))
    return fast, digits, k + _I64(1)


# A fast cell's text is laid out in five 64-bit words (40 bytes) and
# stripped of its NULs: the "0.", "0.0", "0.00" or "0.000" of a point at
# or before the first digit, a NUL, then the 17 digits, each followed by a
# slot holding "." where the point follows that digit, the cell's
# separator after its last written digit, and NUL otherwise.  A digit is
# written up to the last significant one or to the one after the point.
# The tables are built on first use, so that a command that writes no
# region CSV neither builds nor holds them.
@functools.cache
def _text_tables():
    digit_byte = 6 + 2 * np.arange(17)
    slot = digit_byte + 1
    groups = np.arange(10000)
    four = np.zeros((10000, 8), dtype=np.uint8)
    four[:, 0::2] = 48 + groups[:, None] // np.array([1000, 100, 10, 1]) % 10
    first = np.zeros((10, 8), dtype=np.uint8)
    first[:, 6] = 48 + np.arange(10)
    zeros = ((groups % 10 == 0).astype(_I64) + (groups % 100 == 0) + (groups % 1000 == 0)
             + (groups == 0))
    keep = np.zeros((18, 40), dtype=np.uint8)
    keep[:, digit_byte] = 255 * (np.arange(17) < np.arange(18)[:, None])
    point = np.zeros((20, 40), dtype=np.uint8)
    end = np.zeros((36, 40), dtype=np.uint8)
    for p in range(-3, 17):
        if p > 0:
            point[p + 3, slot[p - 1]] = ord(".")
        else:
            point[p + 3, :2 - p] = np.frombuffer(b"0." + b"0" * -p, dtype=np.uint8)
    for count in range(1, 18):
        end[count, slot[count - 1]] = ord(",")
        end[count + 18, slot[count - 1]] = ord("\n")
    return (first.view(_U64).ravel(), four.view(_U64).ravel(), zeros,
            keep.view(_U64), point.view(_U64), end.view(_U64))



def _cells_text(values, newline) -> bytes:
    """repr(float) of each cell of `values`, followed by "," or, where
    `newline` is 1, by "\n"; one bytes object.

    Fast cells (_shortest_digits) are written from their digits; each
    distinct bit pattern among the others is repr'd once.
    """
    first_table, four_table, group_zeros, keep_table, point_table, end_table = _text_tables()
    fast, digits, point = _shortest_digits(values)
    first = digits // _I64(10 ** 16)
    rest = digits - first * _I64(10 ** 16)
    high = rest // _I64(10 ** 8)
    low = rest - high * _I64(10 ** 8)
    h1, l1 = high // _I64(10 ** 4), low // _I64(10 ** 4)
    h2, l2 = high - h1 * _I64(10 ** 4), low - l1 * _I64(10 ** 4)
    zeros = group_zeros[l2] + (l2 == 0) * (
        group_zeros[l1] + (l1 == 0) * (group_zeros[h2] + (h2 == 0) * group_zeros[h1]))
    written = np.maximum(_I64(17) - zeros, point + _I64(1))
    words = np.empty((values.size, 5), dtype=_U64)
    words[:, 0] = first_table[first]
    for column, group in enumerate((h1, h2, l1, l2), 1):
        words[:, column] = four_table[group]
    words &= np.take(keep_table, written, axis=0)
    words |= np.take(point_table, point + _I64(3), axis=0)
    words |= np.take(end_table, written + _I64(18) * newline, axis=0)
    slow = np.flatnonzero(~fast)
    if slow.size:
        keys, inverse = np.unique(values[slow].view(_U64), return_inverse=True)
        texts = [repr(value).encode() for value in keys.view(np.float64).tolist()]
        table = np.frombuffer(b"".join(text.ljust(40, b"\0") for text in texts),
                              dtype=np.uint8).reshape(-1, 40)[inverse]
        lengths = np.array(list(map(len, texts)), dtype=np.intp)[inverse]
        table[np.arange(slow.size), lengths] = np.where(newline[slow] == 1, ord("\n"), ord(","))
        words[slow] = table.view(_U64)
    return words.tobytes().translate(None, b"\0")


# Rows formatted per write.  A block's working arrays are a few dozen
# int64 temporaries per cell, dropped with the block.  On a 2-core VM a
# fresh `region` process (K = 3, N = 8, grid 91; K = 4, N = 8, 28000
# random rows) peaked at 45.9 and 41.8 MB RSS with 1024-row blocks, as
# with the former repr writer (45.6, 41.8); 2048-row blocks read 47.4 and
# 44.1 MB and 4096-row blocks 50.4 and 48.1 MB, none of them faster.
_REGION_BLOCK_ROWS = 1024

# The fewest rows a range needs to be worth a worker of its own.  On a
# 2-core VM, in a process with 64 MB resident, a second range (fork,
# reap, the spill written and copied back) broke even at about 24576 rows
# for K = 1 (the fewest cells per row) and 16384-24576 rows for K = 2..4;
# at 49152 rows it saved 5% of the write for K = 1 and 24-35% for
# K = 2..4.  Splits start at twice this, where K = 1 is at par.
_MIN_RANGE_ROWS = 12288


def _range_count(rows: int) -> int:
    """How many contiguous row ranges to format at once.

    One per CPU of the affinity mask, each of at least _MIN_RANGE_ROWS
    rows; one where the platform has no fork or affinity mask.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), rows // _MIN_RANGE_ROWS))


def _write_region_rows(handle, powers, mses, lo, hi) -> None:
    """Write rows lo..hi - 1 to the binary file `handle`, _REGION_BLOCK_ROWS at a time."""
    newline = np.zeros((_REGION_BLOCK_ROWS, 2 * powers.shape[1]), dtype=_I64)
    newline[:, -1] = 1
    for start in range(lo, hi, _REGION_BLOCK_ROWS):
        stop = min(start + _REGION_BLOCK_ROWS, hi)
        cells = np.concatenate((powers[start:stop], mses[start:stop]), axis=1)
        handle.write(_cells_text(cells.ravel(), newline[:stop - start].ravel()))


def _start_worker(spill, powers, mses, lo, hi) -> Optional[int]:
    """Fork a worker that writes rows lo..hi - 1 to `spill` and exits; its pid.

    None when the fork fails: this process has then written them itself.
    """
    try:
        pid = os.fork()
    except OSError:
        _write_region_rows(spill, powers, mses, lo, hi)
        return None
    if pid == 0:
        # The parent may hold OpenBLAS threads (Python 3.12 warns about
        # forking it).  The worker only does elementwise numpy arithmetic,
        # sorts and formats floats: it makes no BLAS or LAPACK call, so it
        # never waits on a lock that a thread absent from the child held
        # at the fork.  It leaves through os._exit, which runs no exit
        # handler and flushes none of the parent's buffers.
        status = 1
        try:
            _write_region_rows(spill, powers, mses, lo, hi)
            spill.flush()
            status = 0
        except BaseException as err:
            os.write(2, f"region CSV worker, rows {lo}-{hi}: {err!r}\n".encode())
        finally:
            os._exit(status)
    return pid


def write_region_csv(path, sample_set) -> None:
    """Header p_1..p_K, eps_1..eps_K, then one row of repr() floats per sample.

    Rows are formatted _REGION_BLOCK_ROWS at a time, every cell by
    _cells_text: from exact integer arithmetic where that settles repr's
    text, through repr once per distinct bit pattern of the block
    elsewhere.  A repr holds no delimiter, quote or newline, so the bytes
    are those a `csv.writer` of repr() cells writes.

    The rows are split into contiguous ranges, one per CPU of the
    affinity mask (see _range_count).  This process formats the first;
    a forked worker formats each other range into an unlinked temporary
    file, which is appended to the output in row order once the worker
    has exited.  Every cell is the repr of its own bits, so the bytes do
    not depend on the split.  A range whose fork fails is formatted here;
    a worker that fails raises OSError.
    """
    powers = np.ascontiguousarray(sample_set.powers, dtype=np.float64)
    mses = np.asarray(sample_set.mses, dtype=np.float64)
    n, k = powers.shape
    count = _range_count(n)
    bounds = [n * i // count for i in range(count + 1)]
    header = [f"p_{i}" for i in range(1, k + 1)] + [f"eps_{i}" for i in range(1, k + 1)]
    running = {}                # pid -> its range, until reaped
    try:
        with open(path, "wb") as handle, contextlib.ExitStack() as stack:
            handle.write((",".join(header) + "\n").encode())
            spills = []
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                spill = stack.enter_context(tempfile.TemporaryFile())
                pid = _start_worker(spill, powers, mses, lo, hi)
                if pid is not None:
                    running[pid] = (lo, hi)
                spills.append((pid, spill))
            _write_region_rows(handle, powers, mses, 0, bounds[1])
            for pid, spill in spills:
                if pid is not None:
                    status = os.waitpid(pid, 0)[1]
                    lo, hi = running.pop(pid)
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


# The fewest records a list needs to take its class's template.  The
# template costs a few steps per field column and saves a few per record.
# On a 2-core VM (Python 3.11), lists of two or three records with array
# fields (kkt certificates, membership verdicts) were written 3-14%
# slower through it than one record at a time, and four at par; scan
# reports were 5% slower at two, 16% faster at three, 30% faster at four.
_MIN_RECORDS = 4

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
    """The texts of one field's values across a sequence of records.

    An all-float column is repr'd in one map.  A column of one of
    _MEMO_TYPES, or of one hashable Enum, is written once per distinct
    value; any other column goes through _text value by value.
    """
    kinds = set(map(type, values))
    if kinds == {float}:
        texts = list(map(float.__repr__, values))
        if not math.isfinite(sum(values)):      # some value is NaN or infinite
            texts = [_NONFINITE.get(text, text) for text in texts]
        return texts
    if len(kinds) == 1:
        kind, = kinds
        if kind in _MEMO_TYPES or (issubclass(kind, enum.Enum) and kind.__hash__ is not None):
            table = dict.fromkeys(values)
            for value in table:
                table[value] = _text(value, indent)
            return list(map(table.__getitem__, values))
    return [_text(value, indent) for value in values]


def _records(records, template: tuple, indent: str) -> str:
    """Records of one class at nesting `indent`, as list items.

    `records` is a list or tuple of records, whose field columns the
    template's getters read, or a record table, which gives each column
    itself (`column(name)`).  Each field is written a column at a time
    (_column), and every record fills the template in one `%` over the
    joined copies.
    """
    text, names, getters = template
    inner = indent + "  "
    if isinstance(records, (list, tuple)):
        columns = [list(map(getter, records)) for getter in getters]
    else:
        columns = map(records.column, names)
    texts = [_column(values, inner) for values in columns]
    cells = tuple(itertools.chain.from_iterable(zip(*texts)))
    return (",\n" + indent).join([text] * len(records)) % cells


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
    sorted by key, a tuple as a list.

    A list or tuple of _MIN_RECORDS or more items of exactly one record
    class is written through that class's template, one field column at
    a time (_column).  Every value that is not a float is written by
    this rule, and a float as the float leaf above, so the bytes are
    those of writing each record on its own.  A record table, a sequence
    whose class names its record class as `record_type` (a
    `boundary.ConvexityScan`), is written as the list of its records, in
    the same template, from the columns it holds.
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
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        cls = type(value[0])
        template = len(value) >= _MIN_RECORDS and _record_template(cls, inner)
        if template and set(map(type, value)) == {cls}:
            body = _records(value, template, inner)
        else:
            body = (",\n" + inner).join([_text(v, inner) for v in value])
        return "[\n" + inner + body + "\n" + indent + "]"
    else:
        template = _record_template(getattr(type(value), "record_type", None), inner)
        if not template:
            raise TypeError(f"cannot serialize {type(value).__name__}")
        if not len(value):
            return "[]"
        return "[\n" + inner + _records(value, template, inner) + "\n" + indent + "]"
    if not pairs:
        return "{}"
    items = [f"{encode_basestring_ascii(k)}: {_text(v, inner)}" for k, v in pairs]
    return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"


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
