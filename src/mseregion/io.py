"""Channel JSON, CSV tables, and deterministic report serialization.

Channel sets travel as

    {"n": <antennas>, "k": <users>, "entries": [[[re, im], ...], ...]}

with `entries` holding n rows of k [re, im] pairs.  All JSON output is
byte-stable: keys sorted, two-space indent, no timestamps, complex
numbers as [re, im] pairs.  CSV floats use repr(), which round-trips
exactly through float().  Region CSVs are formatted a block of rows at a
time with one `%r` line template; `%r` of a float is its repr, and a
float's repr holds no delimiter, quote or newline, so the bytes are
those a `csv.writer` of repr() cells would write.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import json
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
    if not isinstance(n, int) or not isinstance(k, int) or n < 1 or k < 1:
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
            if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
                raise ValueError(f"entries[{i}][{j}] must hold two numbers")
            mat[i, j] = complex(re, im)
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


# Rows formatted per write.  Speed is flat from 32 to 1024 rows; a small
# block keeps each block's text, list and array at a few kB, which the
# allocator serves from its free lists.  Blocks of 256 or 1024 rows raised
# the peak RSS of a run of region commands by 1.5-3%; 64 rows did not.
_REGION_BLOCK_ROWS = 64


def write_region_csv(path, sample_set) -> None:
    """Header p_1..p_K, eps_1..eps_K, then one row of repr() floats per sample.

    Rows are formatted _REGION_BLOCK_ROWS at a time: the block's powers
    and MSEs become one flat list of Python floats, filled into the
    line template repeated once per row, and written in one call.
    """
    powers = np.asarray(sample_set.powers, dtype=np.float64)
    mses = np.asarray(sample_set.mses, dtype=np.float64)
    k = powers.shape[1]
    header = [f"p_{i}" for i in range(1, k + 1)] + [f"eps_{i}" for i in range(1, k + 1)]
    line = ",".join(["%r"] * (2 * k)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for lo in range(0, powers.shape[0], _REGION_BLOCK_ROWS):
            block = np.hstack([powers[lo:lo + _REGION_BLOCK_ROWS], mses[lo:lo + _REGION_BLOCK_ROWS]])
            handle.write(line * block.shape[0] % tuple(block.ravel().tolist()))


def read_region_csv(path):
    """Return (powers, mses) arrays from a region CSV."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
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


def to_jsonable(value):
    """Recursively convert results to JSON-ready structures."""
    if isinstance(value, np.generic):
        value = value.item()
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.ndarray):
        return to_jsonable(value.tolist())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def json_text(payload) -> str:
    return json.dumps(to_jsonable(payload), sort_keys=True, indent=2) + "\n"


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json_text(payload))
