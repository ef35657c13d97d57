"""Command-line front end.

Subcommands: gen-data, margin, train, sweep, persample, fit-rate.
Exit codes: 0 success, 2 config error, 3 numeric failure, 4 non-convergence.
Flags are accepted only by their full names. Output flags, like a run's out_csv, must
name a writable file in an existing directory that is none of the command's inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .data import GaussianSpec, SeparabilityError, SkewedSpec, gen_gaussian, gen_skewed
from .harness import _check_out, fit_rate, persample_cmd, sweep_cmd, train_cmd
from .linalg import NormSpec
from .model import load_dataset, save_dataset, save_matrix
from .optimizer import TrainingError
from .reference import DEFAULT_MAX_ITERS, DEFAULT_TOL, MaxMarginNonConvergence, max_margin

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_NONCONVERGENCE = 4


def _parse_counts(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _parse_ranges(text: str) -> tuple[tuple[float, float], ...]:
    try:
        pairs = [part.split(":") for part in text.split(",")]
        return tuple((float(lo), float(hi)) for lo, hi in pairs)
    except ValueError:  # also a part without exactly one ':'
        raise argparse.ArgumentTypeError(f"expected comma-separated lo:hi pairs, got {text!r}") from None


def _cmd_gen_data(args) -> int:
    _check_out(args.out, "--out")
    if args.family == "gaussian":
        spec = GaussianSpec(k=args.k, per_class=args.per_class, d=args.d, sigma=args.sigma, seed=args.seed)
        ds = gen_gaussian(spec)
    else:
        spec = SkewedSpec(counts=args.counts, alpha_ranges=args.alpha_ranges, seed=args.seed)
        ds = gen_skewed(spec)
    save_dataset(ds, args.out)
    print(json.dumps({"out": args.out, "n": ds.n, "d": ds.d, "k": ds.k, "r_bound": ds.r_bound}))
    return EXIT_OK


def _cmd_margin(args) -> int:
    _check_out(args.out, "--out", [("--dataset", args.dataset)])
    ds = load_dataset(args.dataset)
    spec = NormSpec.parse(args.norm)
    sol = max_margin(ds, spec, tol=args.tol, max_iters=args.max_iters)
    save_matrix(sol.w_star, args.out)
    print(
        json.dumps(
            {
                "gamma": sol.gamma,
                "certificate_gap": sol.certificate_gap,
                "iterations_used": sol.iterations_used,
                "separable": sol.separable,
            }
        )
    )
    return EXIT_OK


def _cmd_train(args) -> int:
    out = train_cmd(args.config)
    print(json.dumps({"out_csv": out}))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    summary = sweep_cmd(args.config_dir, summary_path=args.out_summary)
    print(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False))
    return EXIT_OK


def _cmd_persample(args) -> int:
    out_csv, verdict = persample_cmd(args.config)
    print(json.dumps({"out_csv": out_csv, **verdict}))
    return EXIT_OK


def _cmd_fit_rate(args) -> int:
    fit = fit_rate(args.csv, args.t_lo, args.t_hi)
    print(
        json.dumps(
            {"t_lo": args.t_lo, "t_hi": args.t_hi, "slope": fit.slope, "intercept": fit.intercept, "r2": fit.r2}
        )
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="normdescent", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset file", allow_abbrev=False)
    p.set_defaults(func=_cmd_gen_data)
    families = p.add_subparsers(dest="family", required=True)
    gaussian = families.add_parser("gaussian", help="separable Gaussian clouds", allow_abbrev=False)
    gaussian.add_argument("--k", type=int, default=10)
    gaussian.add_argument("--per-class", type=int, default=20)
    gaussian.add_argument("--d", type=int, default=5)
    gaussian.add_argument("--sigma", type=float, default=0.1)
    skewed = families.add_parser("skewed", help="orthogonal scale-skewed data", allow_abbrev=False)
    skewed.add_argument(
        "--counts", type=_parse_counts, default="6,3,3,2,1", help="per-class sample counts, comma separated"
    )
    skewed.add_argument(
        "--alpha-ranges",
        type=_parse_ranges,
        default="0.8:1.2,0.5:1.5,1.0:2.0,0.6:0.9,1.5:2.5",
        help="per-class lo:hi scale ranges, comma separated",
    )
    for family in (gaussian, skewed):
        family.add_argument("--out", required=True)
        family.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("margin", help="solve the norm-induced max-margin problem", allow_abbrev=False)
    p.add_argument("--dataset", required=True)
    p.add_argument("--norm", required=True, help="norm spec, e.g. ew:2, ew:inf, sch:inf")
    p.add_argument("--out", required=True, help="where to write W* (text matrix)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS)
    p.set_defaults(func=_cmd_margin)

    p = sub.add_parser("train", help="run one config and write its metric CSV", allow_abbrev=False)
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sweep", help="run every config in a directory", allow_abbrev=False)
    p.add_argument("--config-dir", required=True)
    p.add_argument("--out-summary", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("persample", help="batch-size-one bias protocol", allow_abbrev=False)
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_persample)

    p = sub.add_parser("fit-rate", help="log-log slope of the margin gap", allow_abbrev=False)
    p.add_argument("--csv", required=True)
    p.add_argument("--t-lo", type=int, required=True)
    p.add_argument("--t-hi", type=int, required=True)
    p.set_defaults(func=_cmd_fit_rate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the config-error code
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    # LinAlgError subclasses ValueError, so it must be caught first
    except (MaxMarginNonConvergence, np.linalg.LinAlgError, SeparabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    # a ConfigError is a ValueError, a LossOverflowError an ArithmeticError
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # a size no machine can allocate, such as gen-data --k 10**15
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TrainingError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
