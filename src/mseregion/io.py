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
four or more records of one dataclass, such as a scan's trials, is
written through one template per (class, indent), cached, with the
sorted field names baked in and a `%s` per value; that cache is the one
record test, and a lone record fills its template value by value.  The
records of a list are filled one field column at a time: an all-float
column in one map of float.__repr__, any other value through `_text`
itself, written once per distinct value where the column is all bool,
all int, all str, all None or all one Enum (never for floats or
complexes: -0.0 == 0.0).  The filled records are joined in one `%`, as
the region CSV's line template is filled.  Shorter lists are written a
record at a time, which costs less there.

CSV floats use repr(), which round-trips exactly through float().
Region CSVs are formatted a block of rows at a time with one line
template: each distinct power bit pattern of a block is repr'd once and
its text reused through `%s`, and each MSE goes through `%r`.  Both give
a float's repr, which holds no delimiter, quote or newline, so the bytes
are those a `csv.writer` of repr() cells would write.  Large region CSVs
are formatted on every CPU of the affinity mask: forked workers format
contiguous row ranges into temporary files, which are appended in row
order, so the bytes do not depend on the split.
"""

from __future__ import annotations

import contextlib
import csv
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
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(BOUNDARY_COLUMNS)
        for s in samples:
            writer.writerow([_cell(getattr(s, name)) for name in BOUNDARY_COLUMNS])


# Rows formatted per write, and the span over which equal powers share
# one repr.  A grid block of 1024 rows holds at most a few hundred distinct
# powers, so nearly every power cell reuses a text.  Each block's table is
# dropped with the block.  In region-lattice runs on a 2-core VM, 1024-row
# blocks kept peak RSS at the 92 MB of the former per-cell `%r` writer;
# one table over the whole sample set (which in random mode holds the
# text of every power at once) read 94-96 MB, and 2048- or 4096-row blocks
# 92.5-95 MB, all at the same speed.
_REGION_BLOCK_ROWS = 1024

# The fewest rows a range needs to be worth a worker of its own.  On a
# 2-core VM, forking, reaping and copying one worker's spill cost 5-8 ms
# in an 80-130 MB process; two ranges broke even at about 3072 rows for
# K = 3 and 8192 rows for K = 1 (the fewest cells per row), and at 8192
# rows saved 28% of the write for K = 3.  So no split loses at K = 1.
_MIN_RANGE_ROWS = 4096


def _range_count(rows: int) -> int:
    """How many contiguous row ranges to format at once.

    One per CPU of the affinity mask, each of at least _MIN_RANGE_ROWS
    rows; one where the platform has no fork or affinity mask.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), rows // _MIN_RANGE_ROWS))


def _write_region_rows(handle, powers, mses, lo, hi) -> None:
    """Write rows lo..hi - 1, _REGION_BLOCK_ROWS at a time."""
    k = powers.shape[1]
    line = ",".join(["%s"] * k + ["%r"] * k) + "\n"
    cells = np.empty((_REGION_BLOCK_ROWS, 2 * k), dtype=object)
    for start in range(lo, hi, _REGION_BLOCK_ROWS):
        stop = min(start + _REGION_BLOCK_ROWS, hi)
        bits, index = np.unique(powers[start:stop].view(np.int64), return_inverse=True)
        texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
        block = cells[:stop - start]
        block[:, :k] = texts[index.reshape(-1, k)]
        block[:, k:] = mses[start:stop]
        handle.write(line * block.shape[0] % tuple(block.ravel().tolist()))


def _spill_rows(spill, powers, mses, lo, hi) -> None:
    """Write rows lo..hi - 1 as text into the binary file `spill`."""
    with open(spill.fileno(), "w", encoding="utf-8", newline="", closefd=False) as text:
        _write_region_rows(text, powers, mses, lo, hi)


def _start_worker(spill, powers, mses, lo, hi) -> Optional[int]:
    """Fork a worker that spills rows lo..hi - 1 and exits; its pid.

    None when the fork fails: this process has then spilled them itself.
    """
    try:
        pid = os.fork()
    except OSError:
        _spill_rows(spill, powers, mses, lo, hi)
        return None
    if pid == 0:
        # The parent may hold OpenBLAS threads (Python 3.12 warns about
        # forking it).  The worker only sorts, fills object arrays and
        # formats floats: it makes no BLAS or LAPACK call, so it never
        # waits on a lock that a thread absent from the child held at the
        # fork.  It leaves through os._exit, which runs no exit handler
        # and flushes none of the parent's buffers.
        status = 1
        try:
            _spill_rows(spill, powers, mses, lo, hi)
            status = 0
        except BaseException as err:
            os.write(2, f"region CSV worker, rows {lo}-{hi}: {err!r}\n".encode())
        finally:
            os._exit(status)
    return pid


def write_region_csv(path, sample_set) -> None:
    """Header p_1..p_K, eps_1..eps_K, then one row of repr() floats per sample.

    Rows are formatted _REGION_BLOCK_ROWS at a time.  Powers repeat (a
    grid's powers take at most resolution + 1 values in all K columns),
    so each distinct power bit pattern of a block is repr'd once and its
    text reused; a bit-pattern key keeps 0.0 and -0.0 apart, where a
    value key would merge them.  MSEs are nearly all distinct and go
    through `%r`.  The block's power texts and MSEs fill one reused
    object array, whose cells fill the line template repeated once per
    row, written in one call.

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
        with open(path, "w", encoding="utf-8", newline="") as handle, \
                contextlib.ExitStack() as stack:
            handle.write(",".join(header) + "\n")
            spills = []
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                spill = stack.enter_context(tempfile.TemporaryFile())
                pid = _start_worker(spill, powers, mses, lo, hi)
                if pid is not None:
                    running[pid] = (lo, hi)
                spills.append((pid, spill))
            _write_region_rows(handle, powers, mses, 0, bounds[1])
            handle.flush()
            for pid, spill in spills:
                if pid is not None:
                    status = os.waitpid(pid, 0)[1]
                    lo, hi = running.pop(pid)
                    if status:
                        raise OSError(f"region CSV worker for rows {lo}-{hi} exited with "
                                      f"status {os.waitstatus_to_exitcode(status)}")
                spill.seek(0)
                shutil.copyfileobj(spill, handle.buffer)
    finally:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def read_region_csv(path):
    """Return (powers, mses) arrays from a region CSV."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"empty region CSV: {path}")
        if len(header) % 2 != 0 or not header[0].startswith("p_"):
            raise ValueError(f"unrecognized region CSV header: {header}")
        k = len(header) // 2
        powers, mses = [], []
        for row in reader:
            values = [float(v) for v in row]
            powers.append(values[:k])
            mses.append(values[k:])
    return np.array(powers), np.array(mses)


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
    and a getter per field, both in sorted field order.

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
    return text, tuple(map(operator.attrgetter, names))


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

    Each field is written a column at a time (_column), and every record
    fills the template in one `%` over the joined copies.
    """
    text, getters = template
    inner = indent + "  "
    columns = [_column(list(map(getter, records)), inner) for getter in getters]
    cells = tuple(itertools.chain.from_iterable(zip(*columns)))
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
    those of writing each record on its own.
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
        text, getters = template
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
        raise TypeError(f"cannot serialize {type(value).__name__}")
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
