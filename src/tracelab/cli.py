"""Command-line entry point.

Subcommands map one-to-one onto experiment kinds; each field of
`harness.FIELDS` that has a flag overrides the same field of an optional
JSON config file.  Examples:

    tracelab spectrum --weights 1,2 --kmax 80 --out out/spectrum
    tracelab trace --weights 1,2 --shape gaussian --tau0 0 --eps 0.15 \
        --lambda-grid 150:400:26 --out out/trace
    tracelab verify --out out/verify
"""

from __future__ import annotations

import argparse
import gc
import sys

from .errors import ConfigError, TracelabError
from .harness import FIELDS, KINDS, ExperimentConfig, config_section, read_config_file, run
from .harness import _cast, _displacement, _integer, _integers, _number


# a flag's text as the JSON value its field's caster reads; other fields take the text
_FROM_TEXT = {_integer: int, _number: float, _integers: lambda t: [int(x) for x in t.split(",")],
              _displacement: lambda t: [float(x) for x in t.split(",")]}


def _build_parser(kind: str | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracelab",
        description="spectral-side versus asymptotic-side experiments on weighted projective models",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for name in KINDS:
        p = sub.add_parser(name)
        if name == kind:  # only the kind invoked needs its flags
            p.add_argument("--config", help="JSON config file; flags override its fields")
            for f in FIELDS:
                if f.flag:
                    p.add_argument(f.flag, dest=f.path, metavar=f.key.upper(), help=f.help)
            p.add_argument("--precision", help="ignored: each row picks its arithmetic itself")
    return parser


def _merge(args: argparse.Namespace) -> ExperimentConfig:
    base = read_config_file(args.config) if args.config else {}
    base["kind"] = args.kind
    for f in FIELDS:
        text = getattr(args, f.path, None)
        if not text:  # an absent or empty flag leaves the field to the config file
            continue
        value = _cast(f"config.{f.path}", _FROM_TEXT.get(f.cast, str), text)
        if f.section:
            base[f.section] = {**config_section(base, f.section), f.key: value}
        else:
            base[f.key] = value
    return ExperimentConfig.from_dict(base)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
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


def entry() -> int:
    """The ``tracelab`` command: `main`, then `gc.freeze` so that interpreter
    exit skips its last collection over numpy's and tracelab's objects
    (about 20 ms).  `main` itself leaves the collector alone, since tests and
    the benchmark's tracer call it in process; every artifact is closed
    before it returns."""
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(entry())
