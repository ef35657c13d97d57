"""Command-line front end.

Subcommands: gen-data, margin, train, sweep, persample, fit-rate.
Exit codes: 0 success, 2 config error, 3 numeric failure, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .data import GaussianSpec, SeparabilityError, SkewedSpec, gen_gaussian, gen_skewed
from .harness import ConfigError, fit_rate, persample_cmd, sweep_cmd, train_cmd
from .linalg import NormSpec
from .model import LossOverflowError, load_dataset, save_dataset, save_matrix
from .optimizer import TrainingError
from .reference import MaxMarginNonConvergence, max_margin

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_NONCONVERGENCE = 4


def _parse_counts(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(","))


def _parse_ranges(text: str) -> tuple[tuple[float, float], ...]:
    out = []
    for part in text.split(","):
        lo, hi = part.split(":")
        out.append((float(lo), float(hi)))
    return tuple(out)


def _cmd_gen_data(args) -> int:
    if args.family == "gaussian":
        spec = GaussianSpec(k=args.k, per_class=args.per_class, d=args.d, sigma=args.sigma, seed=args.seed)
        ds = gen_gaussian(spec)
    else:
        counts = _parse_counts(args.counts)
        ranges = _parse_ranges(args.alpha_ranges)
        spec = SkewedSpec(k=len(counts), counts=counts, alpha_ranges=ranges, seed=args.seed)
        ds = gen_skewed(spec)
    save_dataset(ds, args.out)
    print(json.dumps({"out": args.out, "n": ds.n, "d": ds.d, "k": ds.k, "r_bound": ds.r_bound}))
    return EXIT_OK


def _cmd_margin(args) -> int:
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
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_persample(args) -> int:
    out_csv, verdict = persample_cmd(args.config)
    print(json.dumps({"out_csv": out_csv, **verdict}))
    return EXIT_OK


def _cmd_fit_rate(args) -> int:
    fit = fit_rate(args.csv, args.t_lo, args.t_hi)
    print(
        json.dumps(
            {"t_lo": fit.window[0], "t_hi": fit.window[1], "slope": fit.slope, "intercept": fit.intercept, "r2": fit.r2}
        )
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="normdescent", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset file")
    p.add_argument("family", choices=["gaussian", "skewed"])
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--per-class", type=int, default=20)
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--counts", default="6,3,3,2,1", help="skewed: per-class sample counts, comma separated")
    p.add_argument(
        "--alpha-ranges",
        default="0.8:1.2,0.5:1.5,1.0:2.0,0.6:0.9,1.5:2.5",
        help="skewed: per-class lo:hi scale ranges, comma separated",
    )
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("margin", help="solve the norm-induced max-margin problem")
    p.add_argument("--dataset", required=True)
    p.add_argument("--norm", required=True, help="norm spec, e.g. ew:2, ew:inf, sch:inf")
    p.add_argument("--out", required=True, help="where to write W* (text matrix)")
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--max-iters", type=int, default=120_000)
    p.set_defaults(func=_cmd_margin)

    p = sub.add_parser("train", help="run one config and write its metric CSV")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sweep", help="run every config in a directory")
    p.add_argument("--config-dir", required=True)
    p.add_argument("--out-summary", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("persample", help="batch-size-one bias protocol")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_persample)

    p = sub.add_parser("fit-rate", help="log-log slope of the margin gap")
    p.add_argument("--csv", required=True)
    p.add_argument("--t-lo", type=int, required=True)
    p.add_argument("--t-hi", type=int, required=True)
    p.set_defaults(func=_cmd_fit_rate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the config-error code
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    # LinAlgError subclasses ValueError, so it must be caught first
    except (MaxMarginNonConvergence, np.linalg.LinAlgError, SeparabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TrainingError, LossOverflowError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
