"""Command-line entry point: run experiment grids, rebuild reports, export
suite manifests.

Exit codes: 0 on success, 2 on config errors and on files that cannot be
read or written (any OSError), 3 on budget misconfiguration.
"""

from __future__ import annotations

import argparse
import json
import sys

from .benchfns import make_suite, suite_manifest
from .core import InsufficientBudget
from .harness import ConfigError, _write_text, load_config, report_from_dir, run_grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3


def _cmd_run(args) -> int:
    report = run_grid(load_config(args.config))
    print(f"wrote {report.output_dir}")
    for baseline, counts in sorted(report.summary["wtl"].items()):
        print(f"mcd vs {baseline}: {counts['wins']} wins, {counts['ties']} ties, "
              f"{counts['losses']} losses")
    return EXIT_OK


def _cmd_report(args) -> int:
    report = report_from_dir(args.in_dir)
    print(f"rebuilt {report.summary_path} and {len(report.plot_paths)} charts")
    return EXIT_OK


def _cmd_suite(args) -> int:
    if args.dim < 2:
        raise ConfigError("suite dim must be at least 2")
    manifest = suite_manifest(make_suite(args.dim, args.seed))
    _write_text(args.manifest, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.manifest}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mcd-harness",
        description="budgeted black-box optimization experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute the grid described by a config file")
    run_parser.add_argument("--config", required=True, help="path to a key = value config file")
    run_parser.set_defaults(func=_cmd_run)

    report_parser = sub.add_parser(
        "report", help="recompute summary and charts from an existing results directory")
    report_parser.add_argument("--in", dest="in_dir", required=True,
                               help="results directory written by a previous run")
    report_parser.set_defaults(func=_cmd_report)

    suite_parser = sub.add_parser("suite", help="write the benchmark suite manifest")
    suite_parser.add_argument("--dim", type=int, required=True)
    suite_parser.add_argument("--seed", type=int, default=0)
    suite_parser.add_argument("--manifest", required=True, help="output JSON path")
    suite_parser.set_defaults(func=_cmd_suite)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InsufficientBudget as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
