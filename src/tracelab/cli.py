"""Command-line entry point.

Subcommands map one-to-one onto experiment kinds; flags override values from
an optional JSON config file.  Examples:

    tracelab spectrum --weights 1,2 --kmax 80 --out out/spectrum
    tracelab trace --weights 1,2 --shape gaussian --tau0 0 --eps 0.15 \
        --lambda-grid 150:400:26 --out out/trace
    tracelab verify --out out/verify
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, TracelabError
from .harness import ExperimentConfig, config_section, read_config_file, run
from .windows import SHAPES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracelab",
        description="spectral-side versus asymptotic-side experiments on weighted projective models",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in ("spectrum", "trace", "local", "offlocus", "parity", "verify"):
        p = sub.add_parser(kind)
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--weights", help="comma-separated positive integers, e.g. 1,2")
        p.add_argument("--dim", type=int, help="consistency check against len(weights)-1")
        p.add_argument("--kmax", type=int, help="degree truncation of spectrum; others ignore it")
        p.add_argument("--tau0", type=float, help="window center (a period for trace kinds)")
        p.add_argument("--eps", type=float, help="window width parameter")
        p.add_argument("--shape", choices=SHAPES, help="window shape (default bump)")
        p.add_argument("--lambda-grid", dest="lambda_grid", help="start:stop:count[:geometric]")
        p.add_argument("--out", help="output directory")
        p.add_argument("--cache", help="package cache of spectrum; other kinds ignore it")
        p.add_argument("--seed", type=int, help="seed for sampled checks")
        p.add_argument("--u", help="comma-separated normal displacement (real parts)")
        p.add_argument("--C", type=float, dest="C", help="off-locus distance constant")
        p.add_argument("--precision", help="ignored: rows pick double or decimal by conditioning")
    return parser


def _merge(args: argparse.Namespace) -> ExperimentConfig:
    base = read_config_file(args.config) if args.config else {}
    base["kind"] = args.kind
    model = dict(config_section(base, "model"))
    if args.weights:
        model["weights"] = _numbers(args.weights, int, "config.model.weights")
    if args.dim is not None:
        model["dim"] = args.dim
    if not model.get("weights"):
        if args.kind == "verify":
            model["weights"] = [1, 2]  # verify builds its own models; value unused
        else:
            raise ConfigError("config.model.weights: give --weights or a config file")
    base["model"] = model
    window = dict(config_section(base, "window"))
    for key in ("tau0", "eps", "shape"):
        if getattr(args, key) is not None:
            window[key] = getattr(args, key)
    if window:
        base["window"] = window
    for flag, key in (("kmax", "k_max"), ("seed", "seed"), ("C", "C")):
        if getattr(args, flag) is not None:
            base[key] = getattr(args, flag)
    base.setdefault("k_max", 120)
    for flag, key in (("lambda_grid", "lambda_grid"), ("out", "out_dir"), ("cache", "cache_dir")):
        if getattr(args, flag):  # an empty string leaves the field to the config
            base[key] = getattr(args, flag)
    if args.u:
        base["u"] = _numbers(args.u, float, "config.u")
    return ExperimentConfig.from_dict(base)


def _numbers(text: str, caster, where: str) -> list:
    try:
        return [caster(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"{where}: expected comma-separated numbers, got {text!r}") from None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge(args)
        result = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TracelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
