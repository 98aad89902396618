"""Command-line interface; every subcommand emits a small CSV table.

Exit codes: 0 success, 2 usage errors (bad flags, malformed input files),
3 domain or degeneracy errors raised during computation, 4 quadrature
non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from array import array

import numpy as np

from .distributions import LomaxParams, Window, WindowedDistribution
from .errors import NonConvergenceError
from .estimators import SamplePairs, empirical_index
from .simulation import (
    ExperimentConfig,
    default_n_grid,
    run_experiment,
    write_trajectory_csv,
)
from .theoretical import emit_h_profile, theoretical_index, theoretical_index_via_H
from .transfer import HFunction, TransferFunction

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NONCONVERGENCE = 4

PAPER_WINDOWS = {"w02": (0.0, 2.0), "w812": (8.0, 12.0), "w020": (0.0, 20.0)}
PAPER_PARAMS = {"a15": (1.5, 1.0), "a5": (5.0, 1.0)}


class UsageError(Exception):
    """Bad flag values or malformed input files; exits with code 2."""


def _build(ctor, *args, **kwargs):
    # constructor validation errors are usage errors, not domain errors
    try:
        return ctor(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _fmt(value: float, precision: int) -> str:
    return format(value, f".{precision}g")


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", metavar="PATH", help="write CSV to PATH instead of stdout")
    p.add_argument("--precision", type=int, default=6, metavar="DIGITS",
                   help="significant digits for floats (default 6)")


def _add_transfer_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("transfer function")
    g.add_argument("--gamma", type=float, default=0.1)
    g.add_argument("--delta", type=float, default=1.0)
    g.add_argument("--x0", type=float, default=10.0, help="regime switch point")
    g.add_argument("--rho", type=float, default=0.0, help="regime jump factor, > -1")


def _add_window_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--window", metavar="A,B", help="half-open window (a, b]")
    g.add_argument("--paper-window", choices=sorted(PAPER_WINDOWS),
                   help="preset: w02 = (0,2], w812 = (8,12], w020 = (0,20]")


def _add_dist_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("input distribution")
    g.add_argument("--alpha", type=float, default=1.5)
    g.add_argument("--beta", type=float, default=1.0)
    g.add_argument("--paper-params", choices=sorted(PAPER_PARAMS),
                   help="preset overriding --alpha/--beta: a15 or a5")


def _window_from(args) -> Window:
    if args.paper_window:
        a, b = PAPER_WINDOWS[args.paper_window]
    else:
        parts = args.window.split(",")
        if len(parts) != 2:
            raise UsageError(f"--window expects A,B, got {args.window!r}")
        try:
            a, b = (float(v) for v in parts)
        except ValueError as exc:
            raise UsageError(f"--window expects numbers, got {args.window!r}") from exc
    return _build(Window, a, b)


def _params_from(args) -> LomaxParams:
    if args.paper_params:
        alpha, beta = PAPER_PARAMS[args.paper_params]
    else:
        alpha, beta = args.alpha, args.beta
    return _build(LomaxParams, alpha, beta)


def _transfer_from(args, rho: float | None = None) -> TransferFunction:
    return _build(
        TransferFunction,
        args.gamma,
        args.delta,
        args.x0,
        args.rho if rho is None else rho,
    )


def _precision_from(args) -> int:
    if not 1 <= args.precision <= 17:
        raise UsageError("--precision must be between 1 and 17")
    return args.precision


def _threads_from(args) -> int | None:
    env = os.environ.get("MONOTONE_INDEX_THREADS")
    if env is not None:
        try:
            value = int(env)
        except ValueError as exc:
            raise UsageError(f"MONOTONE_INDEX_THREADS must be an integer, got {env!r}") from exc
        if value < 1:
            raise UsageError("MONOTONE_INDEX_THREADS must be >= 1")
        return value
    if args.threads is not None and args.threads < 1:
        raise UsageError("--threads must be >= 1")
    return args.threads


def _grid_from(args) -> tuple[int, ...]:
    if args.n_grid is None:
        return default_n_grid()
    try:
        return tuple(int(v) for v in args.n_grid.split(","))
    except ValueError as exc:
        raise UsageError(f"--n-grid expects comma-separated integers, got {args.n_grid!r}") from exc


def _cmd_theoretical(args, out) -> None:
    precision = _precision_from(args)
    tf = _transfer_from(args)
    window = _window_from(args)
    breakdown = theoretical_index(tf, window)
    header = ["jump_pos", "jump_abs", "int_pos", "int_abs", "value"]
    row = [breakdown.jump_pos, breakdown.jump_abs, breakdown.int_pos,
           breakdown.int_abs, breakdown.value]
    if args.via_h:
        dist = _build(WindowedDistribution, _params_from(args), window)
        header.append("value_via_h")
        row.append(theoretical_index_via_H(HFunction(tf, dist)).value)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerow([_fmt(v, precision) for v in row])


def _cmd_hfunc(args, out) -> None:
    precision = _precision_from(args)
    if args.grid < 2:
        raise UsageError("--grid must be >= 2")
    tf = _transfer_from(args)
    dist = _build(WindowedDistribution, _params_from(args), _window_from(args))
    table = emit_h_profile(HFunction(tf, dist), args.grid)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("u", "H"))
    for u, value in table:
        writer.writerow((_fmt(u, precision), _fmt(value, precision)))


def _undecodable_line(path: str, encoding: str) -> int:
    """Number of the first line of path that does not decode; the text
    layer decodes ahead in blocks, so its error cannot tell."""
    number = 0
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, 1):
            try:
                raw.decode(encoding)
            except UnicodeDecodeError:
                break
    return number


def _read_pairs(path: str) -> SamplePairs:
    # typed arrays hold 8 bytes a value, not a Python float object each
    xs = array("d")
    ys = array("d")
    seen_row = False
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not any(c.strip() for c in row):
                    continue
                try:
                    x, y = row
                    x, y = float(x), float(y)
                except ValueError:
                    if seen_row:
                        raise UsageError(
                            f"{path}: line {reader.line_num}: expected two numeric columns"
                        ) from None
                    if len(row) != 2:
                        raise UsageError(f"{path}: expected two columns per row") from None
                    # a non-numeric first row is a header
                else:
                    xs.append(x)
                    ys.append(y)
                seen_row = True
    except OSError as exc:
        raise UsageError(str(exc)) from exc
    except csv.Error as exc:
        raise UsageError(f"{path}: line {reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        line = _undecodable_line(path, exc.encoding)
        raise UsageError(f"{path}: line {line}: not {exc.encoding} text ({exc.reason})") from exc
    if not seen_row:
        raise UsageError(f"{path}: no data rows")
    if len(xs) < 2:
        raise UsageError(f"{path}: need at least two data rows")
    return _build(SamplePairs, np.array(xs), np.array(ys))


def _cmd_estimate(args, out) -> None:
    precision = _precision_from(args)
    est = empirical_index(_read_pairs(args.input))
    if est.duplicate_x:
        print("warning: tied inputs; concomitant order follows input file order",
              file=sys.stderr)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("n", "index", "numerator", "denominator", "bn"))
    writer.writerow((
        est.n,
        _fmt(est.index, precision),
        _fmt(est.numerator, precision),
        _fmt(est.denominator, precision),
        _fmt(est.bn, precision),
    ))


def _cmd_simulate(args, out) -> None:
    """simulate and noise-demo: one harness, noise-demo at a single size."""
    precision = _precision_from(args)
    demo = args.command == "noise-demo"
    if demo and args.n < 2:
        raise UsageError("--n must be >= 2")
    config = _build(
        ExperimentConfig,
        dist=_params_from(args),
        window=_window_from(args),
        # the degeneracy demo pins rho to 0: the point is noise flattening a
        # continuous response, not the jump
        tf=_transfer_from(args, rho=0.0 if demo else None),
        base_seed=args.seed,
        n_grid=(args.n,) if demo else _grid_from(args),
        replications=args.reps,
        noise_sigma=args.sigma,
    )
    points = run_experiment(config, threads=_threads_from(args))
    write_trajectory_csv(points, out, precision)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monotone-index",
        description="Index of increase of a regime-switching transfer function: "
                    "exact values, quantile-domain profiles, and sample estimates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theoretical", help="exact index over a window")
    _add_transfer_flags(p)
    _add_window_flags(p)
    _add_dist_flags(p)
    p.add_argument("--via-h", action="store_true",
                   help="also compute through the quantile domain (uses the distribution flags)")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_theoretical)

    p = sub.add_parser("hfunc", help="tabulate the quantile-domain ratio H(u)")
    _add_transfer_flags(p)
    _add_window_flags(p)
    _add_dist_flags(p)
    p.add_argument("--grid", type=int, default=1000, metavar="N",
                   help="number of u rows (default 1000)")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_hfunc)

    p = sub.add_parser("estimate", help="empirical index of a CSV of x,y pairs")
    p.add_argument("--input", required=True, metavar="PATH",
                   help="CSV with two columns x,y; an optional header row is skipped")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_estimate)

    experiment_commands = (
        ("simulate", "index trajectories over sample sizes", 0.0,
         "--n-grid", dict(metavar="N1,N2,...",
                          help="sample sizes (default: 20 log-spaced from 100 to 100000)"),
         "replications per size (default 20)"),
        ("noise-demo", "noise degeneracy at one sample size (rho = 0)", 0.1,
         "--n", dict(type=int, default=100_000, help="sample size (default 100000)"),
         "replications (default 20)"),
    )
    for name, help_text, sigma, size_flag, size_kwargs, reps_help in experiment_commands:
        p = sub.add_parser(name, help=help_text)
        _add_transfer_flags(p)
        _add_window_flags(p)
        _add_dist_flags(p)
        p.add_argument("--sigma", type=float, default=sigma,
                       help=f"output noise sd (default {sigma:g})")
        p.add_argument(size_flag, **size_kwargs)
        p.add_argument("--reps", type=int, default=20, help=reps_help)
        p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads; MONOTONE_INDEX_THREADS overrides")
        _add_io_flags(p)
        p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.output:
            with open(args.output, "w", newline="") as out:
                args.func(args, out)
        else:
            args.func(args, sys.stdout)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
