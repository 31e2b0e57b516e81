"""Command-line entry point: ``python -m repro.analysis``.

Exit status is 0 when no active (unwaived, unbaselined) findings remain,
1 otherwise — CI runs this as a blocking step.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.baseline import BASELINE_NAME, load_baseline, write_baseline
from repro.analysis.framework import all_checkers, run_checkers
from repro.analysis.reporting import render_json, render_text

__all__ = ["main", "run", "build_parser"]


def build_parser(
    prog: str = "repro-check", add_help: bool = True
) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        add_help=add_help,
        description=(
            "Project-invariant static analysis: deadline coverage, lock "
            "discipline, backend-registry parity, wire-code "
            "exhaustiveness, spawn/frame safety, fault-point hygiene, "
            "CSR ownership."
        ),
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repository root to analyse (default: current directory)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=f"baseline file (default: <root>/{BASELINE_NAME} when present)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record all active findings into the baseline file and exit 0",
    )
    parser.add_argument(
        "--show-waived",
        action="store_true",
        help="include waived and baselined findings in the text report",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def _select_checkers(spec: Optional[str]) -> List:
    classes = all_checkers()
    if spec is None:
        return [cls() for cls in classes]
    wanted = {part.strip().upper() for part in spec.split(",") if part.strip()}
    by_rule = {cls.rule: cls for cls in classes}
    unknown = sorted(wanted - set(by_rule))
    if unknown:
        raise SystemExit(
            f"repro-check: unknown rule id(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(by_rule))})"
        )
    return [by_rule[rule]() for rule in sorted(wanted)]


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


def run(args: argparse.Namespace) -> int:
    """Execute one analysis run from a parsed namespace (shared with the
    ``repro.cli check`` subcommand, which builds the same parser)."""
    if args.list_rules:
        for cls in all_checkers():
            print(f"{cls.rule}  {cls.name}: {cls.description}")
        return 0

    root = Path(args.root).resolve()
    if not root.is_dir():
        raise SystemExit(f"repro-check: root {root} is not a directory")

    baseline_path = (
        Path(args.baseline) if args.baseline else root / BASELINE_NAME
    )
    checkers = _select_checkers(args.rules)

    if args.write_baseline:
        report = run_checkers(root, checkers=checkers, baseline=set())
        count = write_baseline(
            baseline_path, (f.fingerprint() for f in report.active)
        )
        print(f"repro-check: wrote {count} fingerprint(s) to {baseline_path}")
        return 0

    report = run_checkers(
        root, checkers=checkers, baseline=load_baseline(baseline_path)
    )
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report, show_waived=args.show_waived))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
