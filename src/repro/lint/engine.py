"""The reprolint engine: collect files, parse, run rules, apply waivers.

Entry points:

* :func:`check_source` — lint one in-memory module (what fixture tests and
  ``examples/lint_demo.py`` drive);
* :func:`run_lint` — lint paths on disk and count the waived findings
  (what the CLI drives).

Both go through one per-module pass, :func:`_lint_module`.

Waivers: a finding is dropped when the line it is anchored on carries
``# reprolint: disable=R5`` (comma-separated ids or slugs, or ``all``),
with its reason after a dash (``— <why>``) or in the comment above.  That
comment is the only way to waive a finding, so each waiver excuses one
line, and a new violation anywhere else, even in a file that already
holds waivers, still fails.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError
from repro.lint.findings import Finding, ModuleContext, RuleInfo
from repro.lint.registry import get_rule, list_rules

__all__ = ["LintReport", "check_source", "run_lint", "default_paths"]

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\- ]+)")


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding]
    checked_files: int
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        """True when the run should exit 0 (no live findings)."""
        return not self.findings


def _selected_rules(select: list[str] | None) -> list[RuleInfo]:
    if select is None:
        return list_rules()
    return [get_rule(rule_id) for rule_id in select]


def _suppressed_rules(line: str) -> set[str]:
    """Rule ids/slugs disabled by a ``# reprolint: disable=...`` comment."""
    m = _SUPPRESS_RE.search(line)
    if not m:
        return set()
    return {token.strip().lower() for token in m.group(1).split(",") if token.strip()}


def _is_suppressed(finding: Finding, lines: list[str]) -> bool:
    if not 1 <= finding.line <= len(lines):
        return False
    disabled = _suppressed_rules(lines[finding.line - 1])
    return bool(disabled) and (
        "all" in disabled or finding.rule.lower() in disabled or finding.slug.lower() in disabled
    )


def _lint_module(
    source: str, relpath: str, filename: str, rules: list[RuleInfo]
) -> tuple[list[Finding], int]:
    """Parse one module and run ``rules``: ``(unwaived findings, waived count)``."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        raise ConfigurationError(f"{filename}: cannot lint, not valid Python: {exc}") from None
    ctx = ModuleContext(relpath=relpath, source=source, tree=tree, filename=filename)
    for rule in rules:
        rule.checker(ctx)
    found = ctx.take_findings()
    kept = [f for f in found if not _is_suppressed(f, ctx.lines)]
    return kept, len(found) - len(kept)


def check_source(
    source: str,
    relpath: str,
    *,
    select: list[str] | None = None,
    filename: str = "<string>",
) -> list[Finding]:
    """Lint one module given as text; returns unsuppressed findings sorted.

    ``relpath`` is the package-relative path the module is *treated as*
    (``repro/engine/vectorized.py``) — rules scope on it, which is what lets
    fixture snippets exercise path-scoped rules from a temp directory.
    """
    findings, _ = _lint_module(source, relpath, filename, _selected_rules(select))
    return sorted(findings)


def _iter_python_files(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise ConfigurationError(f"cannot lint {path}: not a Python file or directory")
    return files


def _relpath_for(path: Path) -> str:
    """Package-relative posix path: everything from the last ``repro`` part.

    Files outside a ``repro`` tree keep their bare name — path-scoped
    rules simply will not match them.
    """
    parts = path.resolve().parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return path.name


def default_paths() -> list[Path]:
    """What ``python -m repro.lint`` scans with no arguments: the package."""
    import repro

    return [Path(repro.__file__).resolve().parent]


def run_lint(
    paths: list[Path] | None = None,
    *,
    select: list[str] | None = None,
) -> LintReport:
    """Lint ``paths`` (default: the installed ``repro`` package)."""
    rules = _selected_rules(select)
    files = _iter_python_files(paths if paths is not None else default_paths())
    findings: list[Finding] = []
    suppressed = 0
    for path in files:
        kept, waived = _lint_module(path.read_text(), _relpath_for(path), str(path), rules)
        findings.extend(kept)
        suppressed += waived
    return LintReport(findings=sorted(findings), checked_files=len(files), suppressed=suppressed)
