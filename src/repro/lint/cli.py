"""``python -m repro.lint`` — the project-invariant static-analysis pass.

Exit codes: 0 clean, 1 findings, 2 bad usage.

Usage::

    PYTHONPATH=src python -m repro.lint                  # lint the package
    PYTHONPATH=src python -m repro.lint --format json    # CI form
    PYTHONPATH=src python -m repro.lint --select R1,R4 src/repro/service
    PYTHONPATH=src python -m repro.lint --list-rules
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import ConfigurationError
from repro.lint.engine import run_lint
from repro.lint.registry import list_rules
from repro.lint.report import render_json, render_text

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text; json for CI)",
    )
    parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids or slugs to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rules and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for info in list_rules():
            print(f"{info.id}  {info.slug}: {info.summary}")
            print(f"    why: {info.rationale}")
        return 0
    try:
        report = run_lint(args.paths or None,
                          select=args.select.split(",") if args.select else None)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = render_json(report) if args.format == "json" else render_text(report)
    print(out)
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via repro.lint.__main__
    raise SystemExit(main())
