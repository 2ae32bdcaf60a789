"""Spans around the calls into each mseregion module, kept in memory.

The tracer wraps every public function of the package modules at every
name it is bound under (its home module, the package, and each module
that imported it), plus the scipy `minimize` that `region` uses.  Each call
records a span (id, parent, name, start, end, command id, counts).
Spans of worker threads started inside a traced call take the main
thread's innermost open span as parent.  Nothing in the package changes:
wrappers are installed before a traced command and removed after it.

A function that the tables here name but the package no longer defines
is simply not traced; `Tracer.aliases` lists what is, so the caller can
report metrics of missing functions as absent rather than as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("model", "simplex", "kkt", "region", "boundary", "io", "cli")

# metric names for the functions the per-layer table refers to; any other
# public function is traced under "<module>.<function>"
ALIASES = {
    "simplex.project_onto_budget_simplex": "simplex.project",
    "simplex.projected_gradient": "simplex.pgd",
    "simplex.budget_simplex_lattice": "simplex.lattice",
    "kkt.minimize_weighted_sum_mse": "kkt.solve",
    "kkt.enumerate_stationary_points": "kkt.enumerate",
    "kkt.recover_multipliers": "kkt.certificate",
    "kkt.kkt_residuals": "kkt.certificate",
    "region.dominated_membership": "region.membership",
    "region.segment_test": "region.segment",
    "region.sample_region": "region.sample",
    "boundary.convexity_certificate": "boundary.certificate",
    "io.write_region_csv": "io.csv",
    "io.write_boundary_csv": "io.csv",
    "io.json_text": "io.json",
    "io.write_json": "io.json",
    "io.load_channels": "io.load",
}

# aliases whose spans can nest inside a span of the same alias (recursion
# or a writer calling the serialiser); only the outermost counts as a call
NESTING = frozenset({"simplex.lattice", "io.json", "io.csv"})

# the span the runner opens around each CLI command
ROOT = "cli.main"


def _rows(arr) -> int:
    return int(np.shape(arr)[0])


def _antennas(channels) -> int:
    return int(np.shape(getattr(channels, "entries", channels))[0])


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


# counts taken from a call's arguments and result, per alias
def _probe_jacobian(args, kwargs, result, state):
    return {"n": _antennas(_arg(args, kwargs, 0, "channels"))}


def _probe_tuples(args, kwargs, result, state):
    return {"rows": _rows(result)}


def _probe_lattice(args, kwargs, result, state):
    return {"points": _rows(result)}


def _probe_pgd(args, kwargs, result, state):
    evals = state[0]
    return {"iterations": result.iterations, "evals": evals,
            "backtracks": max(evals - 1 - result.iterations, 0),
            "unconverged": int(not result.converged)}


def _probe_solve(args, kwargs, result, state):
    return {"unconverged": int(not result.converged)}


def _probe_enumerate(args, kwargs, result, state):
    starts = _arg(args, kwargs, 3, "starts")
    k = np.shape(getattr(args[0], "entries", args[0]))[1]
    return {"clusters": len(result), "starts": (16 if starts is None else starts) + k + 2}


def _probe_sample(args, kwargs, result, state):
    return {"rows": _rows(result.powers)}


def _probe_certificate(args, kwargs, result, state):
    return {"points": max(int(result.grid) - 2, 0)}


def _probe_file(args, kwargs, result, state):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _probe_json(args, kwargs, result, state):
    """json_text returns the text; write_json writes it to a file."""
    if isinstance(result, str):
        return {"bytes": len(result.encode("utf-8"))}
    return _probe_file(args, kwargs, result, state)


def _probe_sqp(args, kwargs, result, state):
    return {"nit": int(getattr(result, "nit", 0)), "failed": int(not result.success)}


def _prepare_pgd(args, kwargs):
    """Count evaluations by wrapping the value_and_grad callable."""
    state = [0]
    inner = _arg(args, kwargs, 0, "value_and_grad")

    def counted(p):
        state[0] += 1
        return inner(p)

    if args:
        args = (counted,) + tuple(args[1:])
    else:
        kwargs = dict(kwargs, value_and_grad=counted)
    return args, kwargs, state


PROBES = {
    "model.mse_jacobian": _probe_jacobian,
    "model.mse_tuples": _probe_tuples,
    "simplex.lattice": _probe_lattice,
    "simplex.pgd": _probe_pgd,
    "kkt.solve": _probe_solve,
    "kkt.enumerate": _probe_enumerate,
    "region.sample": _probe_sample,
    "boundary.certificate": _probe_certificate,
    "io.csv": _probe_file,
    "io.json": _probe_json,
    "region.sqp": _probe_sqp,
}
PREPARE = {"simplex.pgd": _prepare_pgd}


class Tracer:
    """Installs span wrappers into the loaded package and collects spans."""

    def __init__(self):
        self.spans = []          # (sid, parent, alias, t0, t1, cmd, counts)
        self.cmd = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = self._stack()
        self._patches = []       # (owner, attribute, original)
        self.targets = self._discover()
        self.aliases = {alias for _, _, alias, _ in self.targets} | {ROOT}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- discovery -------------------------------------------------------

    @staticmethod
    def _discover():
        """(module, attribute, alias, function) for every traced function."""
        targets = []
        for short in MODULES:
            mod = importlib.import_module(f"mseregion.{short}")
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                full = f"{short}.{name}"
                if full != ROOT and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets.append((mod, name, ALIASES.get(full, full), fn))
        region = importlib.import_module("mseregion.region")
        sqp = getattr(region, "_sqp_minimize", None)
        if sqp is not None:
            targets.append((region, "_sqp_minimize", "region.sqp", sqp))
        else:
            # a lazily imported minimize is looked up on scipy.optimize
            opt = importlib.import_module("scipy.optimize")
            targets.append((opt, "minimize", "region.sqp", opt.minimize))
        return targets

    # -- wrappers --------------------------------------------------------

    def _wrap(self, alias, fn):
        tracer = self
        probe = PROBES.get(alias)
        prepare = PREPARE.get(alias)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main[-1] if tracer._main else 0
            sid = next(tracer._ids)
            state = None
            if prepare is not None:
                args, kwargs, state = prepare(args, kwargs)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            counts = probe(args, kwargs, result, state) if probe is not None else None
            tracer.spans.append((sid, parent, alias, t0, t1, tracer.cmd, counts))
            return result

        return traced

    def install(self):
        """Replace every binding of each target with its wrapper."""
        owners = [importlib.import_module("mseregion")]
        owners += [importlib.import_module(f"mseregion.{m}") for m in MODULES]
        for home, name, alias, fn in self.targets:
            wrapper = self._wrap(alias, fn)
            sites = {(id(home), name): (home, name)}
            for owner in owners:
                for attr, value in vars(owner).items():
                    if value is fn:
                        sites[(id(owner), attr)] = (owner, attr)
            for owner, attr in sites.values():
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def write_jsonl(self, path: str) -> None:
        """One span per line: id, parent, name, start, end, cmd, counts."""
        keys = ("id", "parent", "name", "start", "end", "cmd", "counts")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")

    def root(self, fn, *args):
        """Run fn as the command's root span."""
        stack = self._stack()
        sid = next(self._ids)
        stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, 0, ROOT, t0, t1, self.cmd, None))


# ---------------------------------------------------------------------------
# aggregation


def _union_length(intervals, lo, hi) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans):
    """Per-alias totals: calls, busy (outermost spans), self time, counts.

    Self time is a span's duration minus the union of its children's
    intervals, so overlapping children from worker threads count once.
    """
    children = defaultdict(list)
    alias_of = {}
    for sid, parent, alias, t0, t1, _, _ in spans:
        children[parent].append((t0, t1))
        alias_of[sid] = (alias, parent)
    stats = defaultdict(lambda: defaultdict(float))
    for sid, parent, alias, t0, t1, _, counts in spans:
        dur = t1 - t0
        kids = children.get(sid)
        own = dur - _union_length(kids, t0, t1) if kids else dur
        row = stats[alias]
        row["self_s"] += own
        layer = alias.split(".")[0]
        stats[f"layer:{layer}"]["self_s"] += own
        if alias in NESTING:
            up = parent
            nested = False
            while up:
                up_alias, up = alias_of.get(up, (None, 0))
                if up_alias == alias:
                    nested = True
                    break
            if nested:
                continue
        row["calls"] += 1
        row["busy_s"] += dur
        parent_alias = alias_of.get(parent, ("", 0))[0]
        if alias == "model.resolvent_grams" and not parent_alias.startswith("model."):
            row["direct_calls"] += 1
            row["direct_busy_s"] += dur
        if counts:
            for key, val in counts.items():
                row[key] += val
            if alias == "model.mse_jacobian":
                size = "small" if counts["n"] <= 4 else "large" if counts["n"] >= 32 else "mid"
                row[f"{size}_calls"] += 1
                row[f"{size}_busy_s"] += dur
    return stats
