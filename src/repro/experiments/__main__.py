"""CLI: run the reproduction experiments.

Examples::

    python -m repro.experiments --list
    python -m repro.experiments e1 e3 --scale smoke
    python -m repro.experiments --all --scale full --markdown out.md
    python -m repro.experiments e5 --backend queue --workers 4 \
        --checkpoint-dir .sweeps --resume

The sweep flags (``--backend``, ``--workers``, ``--checkpoint-dir``,
``--resume``) install process-wide sweep defaults
(:func:`repro.analysis.sweeps.sweep_defaults`), so every parameter sweep an
experiment runs through ``run_sweep`` — e.g. the E5 n/k scaling sweeps —
fans out on the chosen backend and journals/resumes its progress.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.report import render_markdown, render_output, render_summary
from repro.experiments.spec import EXPERIMENTS, SCALES, get_experiment, list_experiments
from repro.obs.registry import clock


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper-reproduction experiments (E1-E9 + ablations).",
    )
    parser.add_argument("experiments", nargs="*", help="experiment ids (e.g. e1 e4 a1)")
    parser.add_argument("--all", action="store_true", help="run every registered experiment")
    parser.add_argument("--list", action="store_true", help="list experiments and exit")
    parser.add_argument("--scale", choices=SCALES, default="default", help="workload scale")
    parser.add_argument("--markdown", metavar="PATH", help="also write a Markdown report")
    parser.add_argument("--json", metavar="PATH", help="also write a JSON results file")
    parser.add_argument(
        "--backend",
        metavar="NAME",
        help="execution backend for parameter sweeps (serial/thread/process/queue)",
    )
    parser.add_argument("--workers", type=int, metavar="N", help="parallel sweep workers")
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="journal every sweep to DIR/<name>.sweep.jsonl (enables --resume)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume sweeps from existing journals instead of failing on them",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.list:
        for exp_id, title in list_experiments():
            print(f"  {exp_id:<4} {title}")
        return 0
    ids = sorted(EXPERIMENTS) if args.all else [e.lower() for e in args.experiments]
    if not ids:
        print("no experiments selected; use --all, --list, or pass ids", file=sys.stderr)
        return 2
    overrides = {
        key: value
        for key, value in (
            ("backend", args.backend),
            ("workers", args.workers),
            ("checkpoint_dir", args.checkpoint_dir),
            ("resume", args.resume or None),
        )
        if value is not None
    }
    from repro.analysis.sweeps import sweep_defaults

    outputs = []
    with sweep_defaults(**overrides):
        for exp_id in ids:
            entry = get_experiment(exp_id)
            start = clock()
            output = entry.runner(args.scale)
            elapsed = clock() - start
            outputs.append(output)
            print(render_output(output))
            print(f"(elapsed: {elapsed:.1f}s)")
            print()
    print(render_summary(outputs))
    if args.markdown:
        with open(args.markdown, "w") as fh:
            fh.write(f"# Experiment report (scale={args.scale})\n\n")
            for output in outputs:
                fh.write(render_markdown(output))
                fh.write("\n")
        print(f"markdown report written to {args.markdown}")
    if args.json:
        from repro.experiments.persist import save_outputs

        save_outputs(outputs, args.json, scale=args.scale)
        print(f"json results written to {args.json}")
    return 0 if all(o.passed for o in outputs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
