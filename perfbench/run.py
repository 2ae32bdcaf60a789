"""mseregion benchmark: closed-loop CLI workloads with oracle-checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client drives `mseregion.cli.main(argv)` in this process, issuing the
next command only after the previous one returned.  Commands come in
rounds (see workloads.py); a run holds the number of whole rounds that
took about `--seconds` when the benchmark was defined.  Times are scaled
by the yardstick sampled inside each command (yardstick.py).  Every
output is checked by the independent oracles in oracles.py, outside the
timed region.

--trace 0 prints the end-to-end metrics; --trace 1 runs each command
untraced and traced (alternating which goes first), requires identical
output bytes, and prints the per-layer metrics from the traced runs.
The last stdout line is the JSON result; a fuller record, with the
environment and every failure, is written under perfbench/results/.

The package is imported from src/ next to this directory.  Without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3

import numpy as np  # noqa: E402

import oracles  # noqa: E402
from workloads import ROUND_SECONDS, ROUNDS, Stream  # noqa: E402
import yardstick  # noqa: E402

# the module each workload's stated purpose says should hold the most
# self time; the traced run reports whether it does
EXPECTED_TOP_LAYER = {
    "wsmse-multistart": "model",
    "segment-membership": "model",
    "region-lattice": "io",
    "boundary-scan": "model",
}


def environment(cli) -> dict:
    import numpy
    import scipy
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    blas = {}
    with contextlib.suppress(Exception):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = cli.build_parser().parse_args(["wsmse", "--channels", "-", "--weights", "1"]).threads
    knobs = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_thread_env": {k: os.environ.get(k) for k in knobs},
        "cli_default_threads": threads,
    }


def measure_setup(cmd: dict) -> list:
    """Fresh-process set-ups of the workload's first command.

    Returns each probe's record with `wall_s`, the time from spawning
    it to reading its line.  (A probe's own yardstick samples ran slow
    and uneven while the fresh process was still importing and growing,
    so `end_to_end` scales set-up by the speed the loop measured.)
    """
    probe = os.path.join(HERE, "probe.py")
    runs = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, probe, SRC, "--", *cmd["argv"]],
                                stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            try:
                proc.wait(timeout=170)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        runs.append(dict(json.loads(line), wall_s=elapsed))
    return runs


def invoke(cli, argv, tracer=None, sampled=False):
    """Run one CLI command in-process; returns (rc, timing, stdout, error).

    `timing` is (wall seconds, CPU seconds, scaled seconds, scale).
    With `sampled`, the yardstick samples the machine's speed while the
    command runs; the scaled seconds are the command's wall time, less
    the samples, times the speed factor `scale` they gave.  Otherwise
    both are None.  `error` is the traceback of a crash, or the stderr tail
    of a command that exited with code 2 (input error); other exit codes
    are verdicts the oracle judges.
    """
    out, err = io.StringIO(), io.StringIO()
    error = None
    call = cli.main if tracer is None else (lambda a: tracer.root(cli.main, a))
    sampler = yardstick.Sampler() if sampled else contextlib.nullcontext()
    with sampler:
        t0, c0 = perf_counter(), process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = call(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:                   # a crash is a failed command, not a dead run
            rc, error = None, traceback.format_exc(limit=4)
        t1, c1 = perf_counter(), process_time()
    scaled = None
    if sampled:
        scaled = (t1 - t0 - sampler.inside(t0, t1)) * sampler.scale()
    timing = (t1 - t0, c1 - c0, scaled, sampler.scale() if sampled else None)
    if rc == 2 and error is None:
        error = err.getvalue().strip()[-400:] or None
    return rc, timing, out.getvalue(), error


def digest(cmd: dict, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode("utf-8"))
    for path in cmd["outputs"]:
        with open(path, "rb") as handle:
            while block := handle.read(1 << 22):
                h.update(block)
    return h.hexdigest()


def check(cmd: dict, rc, stdout: str, rng) -> list:
    try:
        if cmd["kind"] == "wsmse":
            return oracles.check_wsmse(stdout, rc, cmd["inst"])
        if cmd["kind"] == "segment":
            return oracles.check_segment(stdout, rc, cmd["inst"])
        if cmd["kind"] == "region":
            return oracles.check_region(cmd["outputs"][0], rc, cmd["inst"], rng)
        return oracles.check_scan(stdout, rc, cmd["inst"])
    except Exception as exc:                # unparsable or missing output
        return [f"oracle could not read the output: {type(exc).__name__}: {exc}"]


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A Beta-weighted average of all order statistics; for the few samples
    of a slow workload it varies far less from run to run than a single
    order statistic does.
    """
    from scipy.special import betainc
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    edges = betainc(a, b, np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


def percentile_report(lat: list) -> dict:
    n = len(lat)
    p90 = hd_quantile(lat, 0.9)
    tail = None if n < 11 else 1.0 - 10.0 / n
    return {
        "samples": n,
        "p50": hd_quantile(lat, 0.5),
        "p90": p90,
        "beyond_p90": int(sum(x > p90 for x in lat)),
        # the highest percentile with at least ten samples beyond it
        "tail_percentile": None if tail is None else round(100.0 * tail, 1),
        "tail_value": None if tail is None else hd_quantile(lat, tail),
    }


def run_loop(cli, stream: Stream, args, probe: dict, tracer=None):
    """A fixed number of whole rounds, sized to take about --seconds.

    The count is --seconds over the workload's round time at the commit
    that defined the benchmark (ROUND_SECONDS), halved in a traced run,
    which executes every command twice.  Fixing it keeps the input mix of
    every run the same; a faster program measures the same inputs in
    less time.  The first command must reproduce the set-up `probe`.

    An untraced run samples the yardstick while each command runs and
    gives every record its `scaled` time (see yardstick.py).
    """
    records, spent = [], 0.0
    check_rng = np.random.default_rng(args.seed)
    per_round = ROUND_SECONDS[args.workload] * (2 if tracer else 1)
    for index in range(max(1, round(args.seconds / per_round))):
        for cmd in stream.round(index):
            rec = {"id": cmd["id"], "round": index, "argv": cmd["argv"]}
            if tracer is None:
                rc, timing, stdout, error = invoke(cli, cmd["argv"], sampled=True)
            else:
                rc, timing, stdout, error, traced = run_both(cli, cmd, tracer)
                rec["traced_s"] = traced
            rec.update(rc=rc, seconds=timing[0], cpu_s=timing[1], scaled=timing[2],
                       scale=timing[3])
            problems = [error] if error else []
            if not records and (rc != probe["rc"] or hashlib.sha256(
                    stdout.encode("utf-8")).hexdigest() != probe["stdout_sha256"]):
                problems.append("output differs from the fresh-process set-up run")
            problems += check(cmd, rc, stdout, check_rng) if rc is not None else []
            if tracer is not None and traced is None:
                problems.append("traced output bytes differ from the untraced run")
            rec["problems"] = problems
            stream.discard(cmd)
            spent += timing[0] + (rec.get("traced_s") or 0.0)
            records.append(rec)
    return records, spent


def run_both(cli, cmd, tracer):
    """Untraced and traced execution of one command; None when bytes differ."""
    order = (False, True) if cmd["id"] % 2 == 0 else (True, False)
    results = {}
    for traced in order:
        if traced:
            tracer.cmd = cmd["id"]
            tracer.install()
            try:
                rc, timing, stdout, error = invoke(cli, cmd["argv"], tracer)
            finally:
                tracer.uninstall()
        else:
            rc, timing, stdout, error = invoke(cli, cmd["argv"])
        results[traced] = (rc, timing, stdout, error, digest(cmd, stdout) if error is None else None)
    rc, timing, stdout, error, plain = results[False]
    t_rc, t_timing, _, _, traced = results[True]
    same = traced == plain and t_rc == rc
    return rc, timing, stdout, error, (t_timing[0] if same else None)


def end_to_end(records, setup) -> tuple:
    """Metrics from the yardstick-scaled times of an untraced run."""
    lat = [r["scaled"] for r in records]
    pct = percentile_report(lat)
    scale = statistics.median(r["scale"] for r in records)
    failed = sum(bool(r["problems"]) for r in records)
    rounds = {}
    for r in records:
        ok, secs = rounds.get(r["round"], (0, 0.0))
        rounds[r["round"]] = (ok + (not r["problems"]), secs + r["scaled"])
    return {
        "ops_per_s": (statistics.median(ok / secs for ok, secs in rounds.values()), "1/s"),
        "latency_p50_s": (pct["p50"], "s"),
        "latency_p90_s": (pct["p90"], "s"),
        "setup_s": (statistics.median(s["wall_s"] for s in setup) * scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_frac": (failed / len(records), "frac"),
    }, pct, len(rounds)


def wall_summary(records) -> dict:
    """Unscaled wall-clock figures, for the record only."""
    wall = [r["seconds"] for r in records]
    return {"wall_p50_s": hd_quantile(wall, 0.5), "wall_p90_s": hd_quantile(wall, 0.9),
            "wall_total_s": sum(wall), "cpu_total_s": sum(r["cpu_s"] for r in records)}


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def per_layer(stats, commands: int, setup, overhead: float, aliases) -> tuple:
    """(metrics, absent): per-command averages and ratios from the spans."""
    def get(alias, key):
        return stats.get(alias, {}).get(key, 0.0)

    def per_cmd(alias, key):
        return get(alias, key) / commands

    jac = "model.mse_jacobian"
    spec = [
        (jac + ".calls", "count/cmd", jac, lambda: per_cmd(jac, "calls")),
        (jac + ".us_per_call.small", "us", jac,
         lambda: _ratio(get(jac, "small_busy_s"), get(jac, "small_calls"), 1e6)),
        (jac + ".us_per_call.large", "us", jac,
         lambda: _ratio(get(jac, "large_busy_s"), get(jac, "large_calls"), 1e6)),
        ("model.mse_tuples.rows", "count/cmd", "model.mse_tuples",
         lambda: per_cmd("model.mse_tuples", "rows")),
        ("model.mse_tuples.rows_per_s", "1/s", "model.mse_tuples",
         lambda: _ratio(get("model.mse_tuples", "rows"), get("model.mse_tuples", "busy_s"))),
        ("model.resolvent_grams.calls", "count/cmd", "model.resolvent_grams",
         lambda: per_cmd("model.resolvent_grams", "direct_calls")),
        ("model.resolvent_grams.busy_s", "s/cmd", "model.resolvent_grams",
         lambda: per_cmd("model.resolvent_grams", "direct_busy_s")),
    ]
    for alias, keys in (
        ("simplex.project", ("calls", "busy_s")),
        ("simplex.pgd", ("calls", "iterations", "evals", "backtracks", "unconverged", "self_s")),
        ("simplex.lattice", ("points", "busy_s")),
        ("kkt.solve", ("calls", "busy_s", "unconverged")),
        ("kkt.certificate", ("busy_s",)),
        ("kkt.enumerate", ("busy_s", "self_s")),
        ("region.membership", ("calls", "busy_s", "self_s")),
        ("region.segment", ("busy_s",)),
        ("region.sqp", ("calls", "busy_s", "nit", "failed")),
        ("region.sample", ("rows", "busy_s")),
        ("boundary.certificate", ("calls", "points", "busy_s")),
        ("io.csv", ("bytes", "busy_s")),
        ("io.json", ("bytes", "busy_s")),
        ("io.load", ("busy_s",)),
    ):
        for key in keys:
            unit = "s/cmd" if key.endswith("_s") else "B/cmd" if key == "bytes" else "count/cmd"
            spec.append((f"{alias}.{key}", unit, alias, lambda a=alias, k=key: per_cmd(a, k)))
    spec += [
        ("kkt.enumerate.clusters_per_start", "ratio", "kkt.enumerate",
         lambda: _ratio(get("kkt.enumerate", "clusters"), get("kkt.enumerate", "starts"))),
        ("io.csv.mb_per_s", "MB/s", "io.csv",
         lambda: _ratio(get("io.csv", "bytes"), get("io.csv", "busy_s"), 1e-6)),
        ("cli.self_s", "s/cmd", "cli.main", lambda: per_cmd("cli.main", "self_s")),
    ]
    for layer in ("model", "simplex", "kkt", "region", "boundary", "io"):
        spec.append((f"{layer}.self_s", "s/cmd", None,
                     lambda layer=layer: per_cmd(f"layer:{layer}", "self_s")))
    spec += [
        ("setup.import_s", "s", None, lambda: statistics.median(s["import_s"] for s in setup)),
        ("trace.overhead_frac", "frac", None, lambda: overhead),
    ]
    metrics, absent = {}, []
    for name, unit, alias, value in spec:
        if alias is not None and alias not in aliases:
            absent.append(name)
        else:
            metrics[name] = (float(value()), unit)
    return metrics, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mseregion", "cli.py")):
        print(f"error: no mseregion package under {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: str) -> int:
    stream = Stream(args.workload, args.seed, workdir)
    first = stream.round(0)[0]
    setup = measure_setup(first)
    stream.discard(first)

    sys.path.insert(0, SRC)
    import mseregion.cli as cli

    # a fresh stream replays round 0, whose first command the probes ran
    stream = Stream(args.workload, args.seed, workdir)
    tracer = None
    if args.trace:
        from tracer import Tracer, summarize
        tracer = Tracer()
    records, spent = run_loop(cli, stream, args, setup[0], tracer)
    failures = [dict(r, seed=args.seed) for r in records if r["problems"]]

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(cli), "commands": len(records),
              "command_seconds": spent, "setup_runs": setup, "failures": failures,
              "latencies": [[r["id"], r["seconds"], r["cpu_s"], r["scaled"], r["rc"]]
                            for r in records]}
    if args.trace:
        traced = [r for r in records if r.get("traced_s") is not None]
        overhead = _ratio(sum(r["traced_s"] for r in traced), sum(r["seconds"] for r in traced)) - 1.0
        stats = summarize(tracer.spans)
        metrics, absent = per_layer(stats, len(records), setup, overhead, tracer.aliases)
        layers = {k.split(":")[1]: v["self_s"] for k, v in stats.items() if k.startswith("layer:")}
        top = max(layers, key=layers.get)
        total = sum(layers.values())
        detail.update(absent=absent, layer_self_s=layers, top_layer=top,
                      expected_top_layer=EXPECTED_TOP_LAYER[args.workload])
        print(f"traced {len(records)} commands; trace overhead {overhead:+.1%}")
        for layer, secs in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"  self time {layer:9s} {secs:9.3f} s  {secs / total:6.1%}")
        verdict = "matches" if top == EXPECTED_TOP_LAYER[args.workload] else "DOES NOT match"
        print(f"largest self time: {top}, which {verdict} the stated purpose "
              f"({EXPECTED_TOP_LAYER[args.workload]})")
        if absent:
            print(f"absent (function no longer defined): {', '.join(absent)}")
    else:
        metrics, pct, rounds = end_to_end(records, setup)
        wall = wall_summary(records)
        detail.update(latency=pct, rounds=rounds, wall=wall)
        print(f"{args.workload}: {len(records)} commands in {rounds} rounds, "
              f"{spent:.2f} s of command time")
        print(f"  times below are scaled to the yardstick's nominal speed; unscaled "
              f"wall p50 {wall['wall_p50_s']:.4g} s, p90 {wall['wall_p90_s']:.4g} s")
        for name, (value, unit) in metrics.items():
            count = {"ops_per_s": rounds, "setup_s": len(setup)}.get(name, len(records))
            print(f"  {name:14s} {value:12.6g} {unit:5s} n={count}")
        print(f"  tail: {pct['beyond_p90']} samples beyond p90; highest percentile with "
              f"ten beyond: {pct['tail_percentile']}")
    env = detail["environment"]
    print(f"environment: nproc {env['nproc']}, {env['cpu_model']}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']}, "
          f"BLAS thread env {env['blas_thread_env']}, CLI default --threads {env['cli_default_threads']}")
    detail["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    for fail in failures:
        print(f"FAILED command {fail['id']} (seed {args.seed}): {fail['argv']}: {fail['problems']}")

    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1, default=str)
    if tracer is not None:
        tracer.write_jsonl(stem + "-spans.jsonl")

    result_metrics = {k: v for k, v in detail["metrics"].items() if k != "fail_frac"}
    print(json.dumps({"correct": not failures, "attempted": len(records), "failed": len(failures),
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
