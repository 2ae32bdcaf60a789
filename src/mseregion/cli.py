"""Command-line front end.

Subcommands wrap one analysis each: `boundary` sweeps the two-user MSE
curve to CSV, `convexity-scan` certifies random instances, `wsmse`
enumerates stationary points of the weighted problem, `segment` and
`region` probe membership, and `counterexample` replays the reference
three-user instance end to end.

Exit codes: 0 success or no witness, 2 input error, 3 nonconvexity
witness (and `counterexample` uses 1 when any reference check fails).
Every JSON report and every region CSV's `.manifest.json` sidecar holds
one manifest (`_manifest`): the command, its options as parsed except
--out, --threads and --seed, the seed (0 for `segment`, which has no
--seed), tolerances, assumed noise variance, and tool version.
Outputs are byte-identical across reruns and across --threads settings.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import __version__, kkt
from .boundary import boundary_sweep, colinearity_classify, convexity_certificates
from .io import (
    json_text,
    load_channels,
    manifest,
    write_boundary_csv,
    write_json,
    write_region_csv,
)
from .kkt import counterexample_suite, enumerate_stationary_points
from .model import SystemConfig
from .region import sample_region, segment_test

__all__ = ["main"]


def _parse_complex_list(text: str) -> np.ndarray:
    """Comma-separated scalars in "re+imi" form, e.g. "1+2i,0,3-1i"."""
    values = []
    for token in text.split(","):
        cleaned = token.strip().replace("i", "j")
        if not cleaned:
            raise ValueError(f"empty entry in complex list {text!r}")
        try:
            values.append(complex(cleaned))
        except ValueError as err:
            raise ValueError(f"cannot parse {token.strip()!r} as a complex scalar") from err
    return np.array(values, dtype=np.complex128)


def _parse_float_list(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")], dtype=np.float64)
    except ValueError as err:
        raise ValueError(f"cannot parse {text!r} as a comma-separated float list") from err


def _config(args) -> SystemConfig:
    return SystemConfig(noise_variance=args.sigma2, power_budget=args.power)


def _segment_block(report) -> dict:
    """The JSON fields of a segment report, shared by `segment` and `counterexample`."""
    return {
        "endpoint_margins": [report.endpoint_a.margin, report.endpoint_b.margin],
        "endpoints": [report.endpoint_a, report.endpoint_b],
        "points": report.points,
        "nonconvex_witness": report.nonconvex_witness,
    }


def _manifest(args, config, **parsed) -> dict:
    """The manifest of this run.

    Its inputs are the command's options as parsed, except --out,
    --threads and --seed; `parsed` gives the values that replace an
    option's text, such as the weight vector of --weights.  Its seed is
    --seed, or 0 for a command that has none.
    """
    inputs = {key: value for key, value in vars(args).items()
              if key not in ("command", "func", "out", "threads", "seed")}
    return manifest(args.command, {**inputs, **parsed}, getattr(args, "seed", 0), config)


def _report(args, config, body: dict, **parsed) -> None:
    """Write a JSON report: `body` under the manifest of this run
    (`parsed` as for `_manifest`), to --out, else stdout."""
    payload = {"manifest": _manifest(args, config, **parsed), **body}
    if args.out:
        write_json(args.out, payload)
    else:
        sys.stdout.write(json_text(payload))


def _plot_script(csv_path: str, eps_min1: float, eps_min2: float) -> str:
    lines = [
        "# gnuplot script: two-user MSE boundary (eps_2 against eps_1)",
        'set datafile separator ","',
        'set xlabel "eps_1"',
        'set ylabel "eps_2"',
        "set grid",
        "set key top right",
        'plot "{}" every ::1 using 2:3 with lines lw 2 title "boundary", \\'.format(csv_path),
        '     "-" using 1:2 with points pt 7 ps 1.5 title "single-user minima"',
        f"{eps_min1!r} 1.0",
        f"1.0 {eps_min2!r}",
        "e",
        "",
    ]
    return "\n".join(lines)


def cmd_boundary(args) -> int:
    given = [value is not None for value in (args.channels, args.h1, args.h2)]
    if given not in ([True, False, False], [False, True, True]):
        raise ValueError("provide either --channels or both --h1 and --h2")
    if args.channels is not None:
        channels = load_channels(args.channels)
        if channels.n_users != 2:
            raise ValueError(f"boundary needs exactly 2 users, got {channels.n_users}")
        h1, h2 = channels.user_channel(0), channels.user_channel(1)
    else:
        h1, h2 = _parse_complex_list(args.h1), _parse_complex_list(args.h2)
    config = _config(args)
    classification = colinearity_classify(h1, h2)
    samples = boundary_sweep(h1, h2, config, samples=args.samples)
    write_boundary_csv(args.out, samples)
    eps_min1, eps_min2 = samples[-1].eps1, samples[0].eps2
    if args.plot:
        with open(args.plot, "w", encoding="utf-8") as handle:
            handle.write(_plot_script(args.out, eps_min1, eps_min2))
    print(
        f"classification: {classification.value}  samples: {len(samples)}  "
        f"eps_min: ({eps_min1:.6g}, {eps_min2:.6g})",
        file=sys.stderr,
    )
    return 0


def _scan_pairs(rng, trials: int, dim: int, colinear: bool) -> np.ndarray:
    """The (trials, dim, 2) channel pairs of a scan, drawn in one call.

    Trial t takes, in order, the real and the imaginary parts of its
    dim x 2 pair and, with `colinear`, the real and imaginary parts of
    alpha, then sets h2 = alpha h1: the stream order of drawing trial by
    trial.
    """
    draws = rng.standard_normal((trials, 4 * dim + 2 * colinear))
    pairs = draws[:, :2 * dim].reshape(trials, dim, 2) \
        + 1j * draws[:, 2 * dim:4 * dim].reshape(trials, dim, 2)
    if colinear:
        alpha = draws[:, -2] + 1j * draws[:, -1]
        pairs[:, :, 1] = alpha[:, None] * pairs[:, :, 0]
    return pairs


def cmd_convexity_scan(args) -> int:
    if args.trials < 1:
        raise ValueError(f"trials must be >= 1, got {args.trials}")
    config = _config(args)
    pairs = _scan_pairs(np.random.default_rng(args.seed), args.trials, args.dim, args.colinear)
    scan = convexity_certificates(pairs, config)
    worst_trial = int(np.argmax(scan.worst_discriminant))
    all_certified = bool(scan.certified.all())
    _report(args, config, {
        "all_certified": all_certified,
        "worst_discriminant": scan.worst_discriminant[worst_trial].item(),
        "worst_trial": worst_trial,
        "trials": scan,
    })
    return 0 if all_certified else 3


def cmd_counterexample(args) -> int:
    if (args.region_csv is None) != (args.grid is None):
        raise ValueError("--region-csv and --grid must be given together")
    config = SystemConfig(noise_variance=kkt.REFERENCE_NOISE_VARIANCE,
                          power_budget=kkt.REFERENCE_POWER_BUDGET)
    # sampled before the suite runs, so that a bad --grid fails first
    if args.region_csv is not None:
        samples = sample_region(kkt.REFERENCE_CHANNELS, config, args.grid, mode="grid")
    report = counterexample_suite(starts=args.starts, seed=args.seed)
    if args.region_csv is not None:
        write_region_csv(args.region_csv, samples)
        write_json(args.region_csv + ".manifest.json", _manifest(args, config))
    _report(args, config, {
        "sigma2_assumed": report.sigma2_assumed,
        "all_passed": report.all_passed,
        "checks": report.checks,
        "clusters": report.clusters,
        "segment": None if report.segment is None else _segment_block(report.segment),
    })
    return 0 if report.all_passed else 1


def cmd_wsmse(args) -> int:
    channels = load_channels(args.channels)
    weights = _parse_float_list(args.weights)
    config = _config(args)
    clusters = enumerate_stationary_points(channels, config, weights, starts=args.starts,
                                           seed=args.seed)
    _report(args, config, {"cluster_count": len(clusters), "clusters": clusters},
            weights=weights)
    return 0


def cmd_segment(args) -> int:
    channels = load_channels(args.channels)
    vec_a = _parse_float_list(args.a)
    vec_b = _parse_float_list(args.b)
    config = _config(args)
    report = segment_test(channels, config, vec_a, vec_b, steps=args.steps)
    _report(args, config, _segment_block(report), a=vec_a, b=vec_b)
    return 3 if report.nonconvex_witness else 0


def cmd_region(args) -> int:
    channels = load_channels(args.channels)
    config = _config(args)
    if args.grid is not None:
        samples = sample_region(channels, config, args.grid, mode="grid")
    else:
        samples = sample_region(channels, config, args.random, mode="random", seed=args.seed)
    write_region_csv(args.out, samples)
    write_json(args.out + ".manifest.json", _manifest(args, config))
    print(f"wrote {len(samples)} rows to {args.out}", file=sys.stderr)
    return 0


def _add_common(parser, config: bool = True, seed: bool = True) -> None:
    if config:
        parser.add_argument("--power", type=float, default=10.0,
                            help="sum power budget (default 10)")
        parser.add_argument("--sigma2", type=float, default=1.0,
                            help="noise variance (default 1)")
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="accepted for compatibility; has no effect (multistart "
                             "solves run as one batch) and never changes output bytes")
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mseregion",
        description="Achievable MSE region analysis for MMSE reception under a sum power budget",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("boundary", help="sweep the two-user boundary to CSV")
    p.add_argument("--channels", help="channel JSON file with exactly 2 users")
    p.add_argument("--h1", help="inline channel of user 1, e.g. '1+0i,0+1i'")
    p.add_argument("--h2", help="inline channel of user 2")
    p.add_argument("--samples", type=int, default=101, help="sweep points (default 101)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--plot", help="also write a gnuplot script here")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("convexity-scan", help="certify random two-user instances")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--dim", type=int, default=4, help="antenna count (default 4)")
    p.add_argument("--colinear", action="store_true",
                   help="force h2 = alpha * h1 in every trial")
    p.add_argument("--out", help="output JSON path (default stdout)")
    _add_common(p)
    p.set_defaults(func=cmd_convexity_scan)

    p = sub.add_parser("counterexample", help="replay the three-user reference instance")
    p.add_argument("--starts", type=int, default=64)
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.add_argument("--region-csv", help="also sample the region to this CSV")
    p.add_argument("--grid", type=int, help="grid resolution for --region-csv")
    _add_common(p, config=False)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("wsmse", help="minimize a weighted sum of MSEs")
    p.add_argument("--channels", required=True, help="channel JSON file")
    p.add_argument("--weights", required=True, help="comma-separated weights")
    p.add_argument("--starts", type=int, default=16)
    p.add_argument("--out", help="output JSON path (default stdout)")
    _add_common(p)
    p.set_defaults(func=cmd_wsmse)

    p = sub.add_parser("segment", help="membership along a segment of MSE tuples")
    p.add_argument("--channels", required=True, help="channel JSON file")
    p.add_argument("--a", required=True, help="comma-separated MSE tuple")
    p.add_argument("--b", required=True, help="comma-separated MSE tuple")
    p.add_argument("--steps", type=int, default=9)
    p.add_argument("--out", help="output JSON path (default stdout)")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("region", help="sample achievable MSE tuples to CSV")
    p.add_argument("--channels", required=True, help="channel JSON file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--grid", type=int, help="simplex lattice resolution")
    group.add_argument("--random", type=int, help="number of uniform draws")
    p.add_argument("--out", required=True, help="output CSV path")
    _add_common(p)
    p.set_defaults(func=cmd_region)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first call.

    parse_args reads a parser and never changes it: each call starts
    from a fresh namespace filled from the declared defaults.
    """
    return build_parser()


def main(argv=None) -> int:
    """Run one command; its exit code.

    The parser is built once per process and reused by later calls.
    That saves its 2-3 ms only for callers that run several commands in
    one process; a fresh CLI process still builds it once.
    """
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as err:     # MemoryError: a size past any memory
        print(f"error: {err}", file=sys.stderr)
        return 2
