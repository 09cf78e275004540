"""Command-line interface: ``norts test``, ``norts simulate``, ``norts check``.

Exit codes: 0 the requested procedure ran (whatever its verdict), 2 usage
error, 3 invalid input data, 4 numeric degeneracy.
"""

from __future__ import annotations

import argparse
import re
import secrets
import sys
from pathlib import Path

from .errors import InvalidInputError, NumericDegeneracyError
from .harness import TABLE_LAWS, TABLE_METHODS, TABLE_PHIS, reproduce_tables
from .dist import InnovationLaw
from .report import (
    METHODS,
    CheckConfig,
    NORMALITY_METHODS,
    UNIT_ROOT_METHODS,
    check,
    render_check_json,
    render_check_text,
    render_json,
    render_text,
    test_dispatch,
)
from .rng import RngStream
from .series import read_series_csv

_DEFAULT_NS = (100, 250)
_DEFAULT_TRIALS = 200


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {text!r}") from None


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _names(text: str) -> tuple[str, ...]:
    # split on commas that are not inside parentheses, so law tokens like
    # beta(7,1) survive
    return tuple(v.strip() for v in re.split(r",(?![^(]*\))", text) if v.strip() != "")


def _pair(text: str) -> tuple[float, float]:
    values = _floats(text)
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated reals, got {text!r}")
    return values


def _add_common(parser: argparse.ArgumentParser, report: bool = True) -> None:
    parser.add_argument("--seed", type=int, default=None, help="master RNG seed (default: from entropy)")
    parser.add_argument("--alpha", type=float, default=0.05, help="significance level (default 0.05)")
    if report:
        parser.add_argument("--format", choices=("text", "json"), default="text", help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="norts",
        description="Goodness-of-fit tests for normality of stationary stochastic processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run one test on a one-column CSV series")
    p_test.add_argument("--method", required=True, choices=tuple(METHODS))
    p_test.add_argument("--lambda", dest="lam", type=_floats, default=None,
                        help="comma-separated frequency grid for the epps test")
    p_test.add_argument("--k", type=int, default=None, help="number of random projections (rp)")
    p_test.add_argument("--pars1", type=_pair, default=None, help="first beta parameter pair (rp)")
    p_test.add_argument("--pars2", type=_pair, default=None, help="second beta parameter pair (rp)")
    p_test.add_argument("--reps", dest="replications", metavar="REPS", type=int, default=None,
                        help="bootstrap replications (vavra)")
    p_test.add_argument("--max-order", type=int, default=None, help="sieve order cap (vavra)")
    p_test.add_argument("--bootstrap", choices=("normal", "residuals"), default=None,
                        help="bootstrap innovation source (vavra)")
    p_test.add_argument("--lags", type=int, default=None, help="number of lags (lb)")
    _add_common(p_test)
    p_test.add_argument("file", help="CSV file with one column of reals")
    p_test.set_defaults(func=_cmd_test)

    p_sim = sub.add_parser("simulate", help="reproduce the rejection-rate study")
    p_sim.add_argument("--methods", type=_names, default=("lobato",),
                       help=f"comma-separated subset of {','.join(TABLE_METHODS)}")
    p_sim.add_argument("--n", type=_ints, default=_DEFAULT_NS, help="comma-separated series lengths")
    p_sim.add_argument("--m", type=int, default=_DEFAULT_TRIALS, help="trials per scenario")
    p_sim.add_argument("--phis", type=_floats, default=TABLE_PHIS,
                       help="AR(1) coefficients (write --phis=-0.4,0 for negative values)")
    p_sim.add_argument("--laws", type=_names, default=None,
                       help="innovation laws (default: normal,lognormal,t(3),chisq(10),beta(7,1))")
    p_sim.add_argument("--k", type=int, default=10, help="projections for the rp method")
    p_sim.add_argument("--reps", dest="replications", metavar="REPS", type=int, default=None,
                       help="bootstrap replications for the vavra method")
    p_sim.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    p_sim.add_argument("--skip-failures", action="store_true",
                       help="drop failed trials from the denominator instead of aborting")
    p_sim.add_argument("--timing", action="store_true",
                       help="append the non-reproducible seconds_per_trial column: the wall time "
                       "since the previous cell's result divided by the cell's trials, which "
                       "above 1 worker, where cells overlap, is not the cell's own time")
    p_sim.add_argument("--quiet", action="store_true", help="suppress progress lines on stderr")
    _add_common(p_sim, report=False)
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.set_defaults(func=_cmd_simulate)

    p_check = sub.add_parser("check", help="stationarity + normality report for a residual series")
    p_check.add_argument("--unit-root", choices=UNIT_ROOT_METHODS, default="adf")
    p_check.add_argument("--normality", choices=NORMALITY_METHODS, default="rp")
    p_check.add_argument("--k", type=int, default=None, help="projections when normality=rp")
    p_check.add_argument("--reps", dest="replications", metavar="REPS", type=int, default=None,
                         help="replications when normality=vavra")
    p_check.add_argument("--plot-data", action="store_true", help="write the four plot-data CSV files")
    _add_common(p_check)
    p_check.add_argument("--out", default=None, help="directory for plot-data files (default: .)")
    p_check.add_argument("file", help="CSV file with one column of reals")
    p_check.set_defaults(func=_cmd_check)

    return parser


def _stream_from_args(args) -> RngStream | None:
    if args.seed is None:
        return None
    return RngStream(args.seed)


# every keyword option of the seven methods
_ALL_OPTIONS = tuple(o for m in METHODS.values() for o in m.options)


def _options(args, names) -> dict:
    """The options among ``names`` that this subcommand has and that are set."""
    options = ((name, getattr(args, name, None)) for name in names)
    return {name: value for name, value in options if value is not None}


def _cmd_test(args) -> int:
    series = read_series_csv(args.file)
    report = test_dispatch(
        args.method,
        series,
        alpha=args.alpha,
        rng=_stream_from_args(args),
        data_name=Path(args.file).stem,
        **_options(args, _ALL_OPTIONS),
    )
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report), end="")
    return 0


def _parse_laws(tokens) -> tuple[InnovationLaw, ...]:
    if tokens is None:
        return TABLE_LAWS
    return tuple(InnovationLaw.parse(t) for t in tokens)


def _cmd_simulate(args) -> int:
    seed = args.seed
    if seed is None:
        seed = secrets.randbits(63)
        print(f"seed: {seed}", file=sys.stderr)
    progress = None
    if not args.quiet:
        def progress(row):
            print(
                f"{row.method} {row.law} phi={row.phi:g} n={row.n}: rate={row.rate:.3f}",
                file=sys.stderr,
            )
    reproduce_tables(
        methods=args.methods,
        ns=args.n,
        m=args.m,
        out=args.out,
        seed=seed,
        phis=args.phis,
        laws=_parse_laws(args.laws),
        alpha=args.alpha,
        method_options={m: _options(args, METHODS[m].options) for m in TABLE_METHODS},
        workers=args.workers,
        skip_failures=args.skip_failures,
        timing=args.timing,
        progress=progress,
    )
    return 0


def _cmd_check(args) -> int:
    if args.out is not None and not args.plot_data:
        raise InvalidInputError("--out needs --plot-data")
    series = read_series_csv(args.file)
    cfg = CheckConfig(
        unit_root=args.unit_root,
        normality=args.normality,
        alpha=args.alpha,
        seed=_stream_from_args(args),
        plot_dir=(args.out or ".") if args.plot_data else None,
        normality_options=_options(args, _ALL_OPTIONS),
    )
    report = check(series, cfg, data_name=Path(args.file).stem)
    if args.format == "json":
        print(render_check_json(report))
    else:
        print(render_check_text(report), end="")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericDegeneracyError as exc:
        print(f"norts: numeric degeneracy: {exc}", file=sys.stderr)
        return 4
    except InvalidInputError as exc:
        print(f"norts: invalid input: {exc}", file=sys.stderr)
        return 3
