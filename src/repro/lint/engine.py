"""The reprolint engine: collect files, parse, run rules, suppress, baseline.

Entry points:

* :func:`check_source` — lint one in-memory module (what fixture tests and
  ``examples/lint_demo.py`` drive);
* :func:`run_lint` — lint paths on disk with suppression + baseline
  handling (what the CLI drives).

Per-line suppression: a finding is dropped when the line it is anchored on
carries ``# reprolint: disable=R5`` (comma-separated ids or slugs, or
``all``).  Suppressions are for *derived/transient* cases the rule cannot
see; anything broader belongs in the baseline file with a ``why``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError
from repro.lint.baseline import BASELINE_NAME, Baseline, load_baseline
from repro.lint.findings import Finding, ModuleContext
from repro.lint.registry import RuleInfo, get_rule, list_rules

__all__ = ["LintReport", "check_source", "run_lint", "default_paths", "find_baseline"]

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\- ]+)")


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding]
    checked_files: int
    suppressed: int = 0
    grandfathered: int = 0
    stale_baseline: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the run should exit 0 (no live findings)."""
        return not self.findings and not self.stale_baseline


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


def check_source(
    source: str,
    relpath: str,
    *,
    select: list[str] | None = None,
    package_root: Path | None = None,
    filename: str = "<string>",
) -> list[Finding]:
    """Lint one module given as text; returns unsuppressed findings sorted.

    ``relpath`` is the package-relative path the module is *treated as*
    (``repro/engine/vectorized.py``) — rules scope on it, which is what lets
    fixture snippets exercise path-scoped rules from a temp directory.
    """
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        raise ConfigurationError(f"{filename}: cannot lint, not valid Python: {exc}") from None
    ctx = ModuleContext(
        relpath=relpath,
        source=source,
        tree=tree,
        package_root=package_root,
        filename=filename,
    )
    for rule in _selected_rules(select):
        rule.checker(ctx)
    findings = [f for f in ctx.take_findings() if not _is_suppressed(f, ctx.lines)]
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


def _package_root_for(path: Path) -> Path | None:
    """The ``repro`` package directory containing ``path``, if any."""
    for parent in path.resolve().parents:
        if parent.name == "repro" and (parent / "__init__.py").exists():
            return parent
    return None


def default_paths() -> list[Path]:
    """What ``python -m repro.lint`` scans with no arguments: the package."""
    import repro

    return [Path(repro.__file__).resolve().parent]


def find_baseline(start: Path) -> Path | None:
    """Locate ``.reprolint-baseline.json`` by ascending from ``start``."""
    node = start.resolve()
    if node.is_file():
        node = node.parent
    for candidate in (node, *node.parents):
        baseline = candidate / BASELINE_NAME
        if baseline.exists():
            return baseline
    return None


def run_lint(
    paths: list[Path] | None = None,
    *,
    select: list[str] | None = None,
    baseline: Baseline | Path | None = None,
) -> LintReport:
    """Lint ``paths`` (default: the installed ``repro`` package).

    ``baseline`` may be a pre-loaded :class:`Baseline`, a path to one, or
    ``None`` for no grandfathering.  Stale baseline entries (matching
    nothing any more) are reported so the file cannot rot.
    """
    scan = paths if paths is not None else default_paths()
    if isinstance(baseline, Path):
        baseline = load_baseline(baseline)
    all_findings: list[Finding] = []
    suppressed = 0
    scanned_relpaths: set[str] = set()
    files = _iter_python_files(scan)
    for path in files:
        source = path.read_text()
        relpath = _relpath_for(path)
        scanned_relpaths.add(relpath)
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise ConfigurationError(f"{path}: cannot lint, not valid Python: {exc}") from None
        ctx = ModuleContext(
            relpath=relpath,
            source=source,
            tree=tree,
            package_root=_package_root_for(path),
            filename=str(path),
        )
        for rule in _selected_rules(select):
            rule.checker(ctx)
        for finding in ctx.take_findings():
            if _is_suppressed(finding, ctx.lines):
                suppressed += 1
            else:
                all_findings.append(finding)
    all_findings.sort()
    grandfathered = 0
    stale: list[str] = []
    if baseline is not None:
        all_findings, absorbed = baseline.filter(all_findings)
        grandfathered = len(absorbed)
        # An entry is stale only if its file was actually scanned this run
        # and nothing matched; partial scans must not flag entries for
        # files they never looked at.
        stale = [
            f"stale baseline entry (nothing matches any more — delete it): "
            f"{e.rule} {e.path} {('contains ' + e.contains) if e.contains else ''}".rstrip()
            for e in baseline.stale_entries()
            if e.path in scanned_relpaths
        ]
    return LintReport(
        findings=all_findings,
        checked_files=len(files),
        suppressed=suppressed,
        grandfathered=grandfathered,
        stale_baseline=stale,
    )
