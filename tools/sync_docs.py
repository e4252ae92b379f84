"""Keep the README's registry tables in sync with the actual registries.

The engine, backend, and experiment tables in ``README.md`` are *generated*
from :func:`repro.engine.registry.list_engines`,
:func:`repro.analysis.backends.list_backends`, and
:func:`repro.experiments.spec.list_experiments`, between marker comments::

    <!-- BEGIN GENERATED: engines -->
    ...table...
    <!-- END GENERATED: engines -->

Usage::

    PYTHONPATH=src python tools/sync_docs.py --check   # CI: fail on drift
    PYTHONPATH=src python tools/sync_docs.py --write   # regenerate in place

``--check`` exits 1 and prints a unified diff when a table has drifted from
the registry (e.g. someone registered an engine without regenerating the
README).
"""

from __future__ import annotations

import argparse
import difflib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _md_table(header: list[str], rows: list[list[str]]) -> str:
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


def render_engines() -> str:
    from repro.engine.registry import list_engines

    rows = [
        [f"`{e.name}`", ", ".join(sorted(e.capabilities)), e.description]
        for e in list_engines()
    ]
    return _md_table(["engine", "capabilities", "description"], rows)


def render_backends() -> str:
    from repro.analysis.backends import list_backends

    rows = [[f"`{b.name}`", b.description] for b in list_backends()]
    return _md_table(["backend", "description"], rows)


def render_experiments() -> str:
    from repro.experiments.spec import list_experiments

    # Importing the package registers every experiment module.
    import repro.experiments  # noqa: F401

    rows = [[f"`{exp_id}`", title] for exp_id, title in list_experiments()]
    return _md_table(["id", "claim under test"], rows)


def render_lint_rules() -> str:
    from repro.lint.registry import list_rules

    rows = [[f"`{r.id}`", f"`{r.slug}`", r.summary] for r in list_rules()]
    return _md_table(["rule", "name", "checks that"], rows)


def render_metrics() -> str:
    # Families self-register at import, so pull in every declaring module
    # first — the same set the obs wire op sees in a fully loaded process.
    import repro.analysis.distributed_backend  # noqa: F401
    import repro.distributed.runtime  # noqa: F401
    import repro.engine.kernel  # noqa: F401
    import repro.engine.vectorized  # noqa: F401
    import repro.faults.runtime  # noqa: F401
    import repro.service.fleet  # noqa: F401
    import repro.service.metrics  # noqa: F401
    import repro.service.wire  # noqa: F401
    from repro.obs.registry import list_families

    rows = [
        [
            f"`{f.name}`",
            f.kind,
            ", ".join(f"`{ln}`" for ln in f.labelnames) or "—",
            f.help,
        ]
        for f in list_families()
    ]
    return _md_table(["metric", "kind", "labels", "meaning"], rows)


RENDERERS = {
    "engines": render_engines,
    "backends": render_backends,
    "experiments": render_experiments,
    "lint-rules": render_lint_rules,
    "metrics": render_metrics,
}


def _inject(text: str, kind: str, table: str) -> str:
    pattern = re.compile(
        rf"(<!-- BEGIN GENERATED: {kind} -->)\n(?:.*?\n)?(<!-- END GENERATED: {kind} -->)",
        re.DOTALL,
    )
    if not pattern.search(text):
        raise SystemExit(f"README is missing the GENERATED markers for {kind!r}")
    return pattern.sub(lambda m: m.group(1) + "\n" + table + "\n" + m.group(2), text)


def sync(readme: Path, write: bool) -> int:
    """Return 0 when in sync (or after writing); 1 on drift in check mode."""
    original = readme.read_text()
    updated = original
    for kind, renderer in RENDERERS.items():
        updated = _inject(updated, kind, renderer())
    if updated == original:
        print(f"{readme.name}: registry tables in sync")
        return 0
    if write:
        readme.write_text(updated)
        print(f"{readme.name}: registry tables regenerated")
        return 0
    diff = difflib.unified_diff(
        original.splitlines(keepends=True),
        updated.splitlines(keepends=True),
        fromfile=f"{readme.name} (checked in)",
        tofile=f"{readme.name} (from registries)",
    )
    sys.stderr.writelines(diff)
    print(
        f"{readme.name}: registry tables drifted; run "
        "`PYTHONPATH=src python tools/sync_docs.py --write`",
        file=sys.stderr,
    )
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="fail if tables drifted (default)")
    mode.add_argument("--write", action="store_true", help="regenerate tables in place")
    parser.add_argument(
        "--readme", type=Path, default=REPO_ROOT / "README.md", help="file to sync"
    )
    args = parser.parse_args(argv)
    return sync(args.readme, write=args.write)


if __name__ == "__main__":
    raise SystemExit(main())
