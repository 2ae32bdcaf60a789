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
sort_keys=True, indent=2) + "\n" by construction.

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
import json
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
    mat = np.zeros((n, k), dtype=np.complex128)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != k:
            raise ValueError(f"entries row {i} must list {k} [re, im] pairs")
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != 2:
                raise ValueError(f"entries[{i}][{j}] must be an [re, im] pair")
            re, im = cell
            if any(not isinstance(v, (int, float)) or isinstance(v, bool) for v in (re, im)):
                raise ValueError(f"entries[{i}][{j}] must hold two numbers")
            try:
                mat[i, j] = complex(re, im)
            except OverflowError as err:    # an int beyond the float range
                raise ValueError(f"entries[{i}][{j}] holds a number too large for a float") from err
    return ChannelSet(mat)


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


@functools.cache
def _field_names(cls) -> tuple:
    """A dataclass's field names, sorted once per class."""
    return tuple(sorted(f.name for f in dataclasses.fields(cls)))


def _text(value, indent: str) -> str:
    """`value` as JSON text at nesting `indent`, two spaces a level.

    This is the one conversion rule.  A numpy scalar is taken as its
    .item() first: an np.str_ is a str, but its .item() drops trailing
    NULs.  Leaves are tested in the json module's order, except that the
    singletons come first and float before str and int (no float is a
    str or an int); a subclass of a leaf type, such as a str-valued Enum,
    is written as its base value.  Any other node is converted in this
    order: a complex is written as [re, im], an Enum as its value, an
    ndarray as its .tolist(); a dataclass's fields and a dict's items
    under str(key) are written sorted by key, a tuple as a list.
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
            return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[text]
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
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        pairs = [(name, getattr(value, name)) for name in _field_names(type(value))]
    elif isinstance(value, dict):
        pairs = sorted({str(k): v for k, v in value.items()}.items())
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_text(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
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
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json_text(payload))
