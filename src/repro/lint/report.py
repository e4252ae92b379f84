"""Reporters for reprolint: human text and machine JSON."""

from __future__ import annotations

import json

from repro.lint.engine import LintReport
from repro.lint.registry import list_rules

__all__ = ["render_text", "render_json"]


def render_text(report: LintReport) -> str:
    """``file:line:col: RULE[slug] message`` lines plus a summary."""
    lines = [finding.render() for finding in report.findings]
    tail = (
        f"{len(report.findings)} finding{'s' if len(report.findings) != 1 else ''} "
        f"in {report.checked_files} files"
    )
    if report.suppressed:
        tail += f" ({report.suppressed} suppressed inline)"
    lines.append(tail)
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Stable machine form for CI (``--format json``)."""
    return json.dumps(
        {
            "version": 2,
            "ok": report.ok,
            "checked_files": report.checked_files,
            "suppressed": report.suppressed,
            "rules": {
                info.id: {"slug": info.slug, "summary": info.summary} for info in list_rules()
            },
            "findings": [finding.as_dict() for finding in report.findings],
        },
        indent=2,
        sort_keys=True,
    )
