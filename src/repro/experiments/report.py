"""Rendering experiment outputs as text / Markdown."""

from __future__ import annotations

from repro.experiments.spec import ExperimentOutput

__all__ = ["render_output", "render_summary", "render_markdown"]


def render_output(out: ExperimentOutput) -> str:
    """Full text report of one experiment."""
    lines = [
        "=" * 72,
        f"[{out.exp_id.upper()}] {out.title}",
        f"Paper claim: {out.claim}",
        "=" * 72,
    ]
    for table in out.tables:
        lines.append("")
        lines.append(table.render())
    for fig in out.figures:
        lines.append("")
        lines.append(fig)
    if out.findings:
        lines.append("")
        lines.append("Findings:")
        for f in out.findings:
            mark = "PASS" if f.passed else "FAIL"
            lines.append(f"  [{mark}] {f.claim}")
            lines.append(f"         observed: {f.observed}")
    lines.append("")
    lines.append(f"Overall: {'PASS' if out.passed else 'FAIL'}")
    return "\n".join(lines)


def render_summary(outputs: list[ExperimentOutput]) -> str:
    """One-line-per-experiment summary table."""
    lines = ["", "Summary", "-" * 72]
    for out in outputs:
        status = "PASS" if out.passed else "FAIL"
        n_find = len(out.findings)
        lines.append(f"  {out.exp_id.upper():<5} {status}  ({n_find} findings)  {out.title}")
    total_pass = sum(1 for o in outputs if o.passed)
    lines.append("-" * 72)
    lines.append(f"  {total_pass}/{len(outputs)} experiments passed")
    return "\n".join(lines)


def render_markdown(out: ExperimentOutput) -> str:
    """Markdown block of one experiment, for the CLI's ``--markdown`` report."""
    lines = [f"### {out.exp_id.upper()} — {out.title}", "", f"*Paper claim:* {out.claim}", ""]
    for table in out.tables:
        lines.append(table.render_markdown())
        lines.append("")
    for f in out.findings:
        mark = "✅" if f.passed else "❌"
        lines.append(f"- {mark} **{f.claim}** — {f.observed}")
    lines.append("")
    return "\n".join(lines)
