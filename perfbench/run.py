"""Repository benchmark: one workload, one seed, one run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload backfill_durable --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that reports the per-layer metrics, the layer
sum and the tracing overheads.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any failed operation or answer
that differs from the offline oracle makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path.cwd()
COUNTS = ROOT / ".perfbench" / "counts"


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def _environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "commit": _commit(), "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def code_digest() -> str:
    """Hash of the program's and the benchmark's sources as they are on disk,
    uncommitted edits included: counts are only comparable under one digest."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", Path(__file__).parent):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".pyc":
                digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts(workload: str, seed: int, counts: dict, record: bool) -> list[str]:
    """Compare seed-determined counts with the ones an earlier run of the
    same sources recorded.  Returns the names that drifted; records the
    counts only when ``record`` (a run without any other failure)."""
    path = COUNTS / code_digest() / f"{workload}-{seed}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    drifted = [name for name, value in counts.items() if name in known and known[name] != value]
    if record and not drifted:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**known, **counts}, indent=1, sort_keys=True))
    return drifted


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program sources under src/repro; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import procs
    import workloads

    procs.install_cleanup()
    env = _environment(args)
    wl = workloads.build(args.workload, args.seed)
    tally = workloads.Tally()
    paths = workloads.Paths(ROOT)
    metrics: dict = {}
    lines: list[str] = []
    try:
        answers = workloads.oracle(wl)
        if wl.name == "backfill_durable":
            workloads.write_checkpoint(wl, paths)
        if args.trace:
            import layers

            values, lines = layers.trace(wl, answers, paths, tally)
            metrics = {name: (values[name], spec[0]) for name, spec in layers.LAYER_METRICS.items()}
            counts = {name: values[name] for name in layers.EXACT}
            for name, (unit, _, moves, where) in layers.LAYER_METRICS.items():
                lines.append(f"  {name} should move {moves} on {where}" if moves else
                             f"  {name} moves no gated end-to-end metric: {where} runs a router")
        else:
            report = workloads.measure(wl, answers, paths, tally, args.seconds)
            metrics = report["metrics"]
            counts = {"msgs_per_row": metrics["msgs_per_row"][0]}
            lines.append("samples: " + json.dumps(report["samples"]))
            lines += [f"raw {name:<32} {value:>16.6f} {unit}"
                      for name, (value, unit) in report["raw"].items()]
        drifted = check_counts(wl.name, args.seed, counts, record=tally.failed == 0)
        for name in drifted:
            tally.check(False, f"{name} drifted from an earlier run with seed {args.seed}")
    except Exception as exc:  # the reporting boundary: any error fails the run
        traceback.print_exc()
        tally.check(False, f"{type(exc).__name__}: {exc}")
    finally:
        procs.stop_all()
        paths.cleanup()

    correct = tally.failed == 0
    print("environment: " + json.dumps(env))
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>16.6f} {unit}")
    if not correct:
        print(f"FAILED: {tally.failed} of {tally.attempted} operations; first: "
              f"{tally.first_failure}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
