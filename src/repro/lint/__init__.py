"""reprolint — the project-invariant static-analysis pass.

The repo's load-bearing promises (bit-identical engines, one quietness
kernel, seeded randomness everywhere, a non-blocking service hot path,
complete checkpoint codecs) are cheap to keep while they are
machine-checked and expensive to rediscover after they rot.
This package checks them on every CI run: four AST rules (R1, R2, R4, R5;
R3 is retired) over the package source.  A finding is waived only by a
``# reprolint: disable=<rule> — <why>`` comment on its own line.

Run it::

    PYTHONPATH=src python -m repro.lint                # text report, exit 1 on findings
    PYTHONPATH=src python -m repro.lint --format json  # the CI form
    PYTHONPATH=src python -m repro.lint --list-rules

Library form::

    from repro.lint import check_source, run_lint
    findings = check_source(code, "repro/engine/vectorized.py")

The rules are the fixed table :data:`repro.lint.registry.RULES`; the
README rule table is generated from it by ``tools/sync_docs.py``.
"""

from __future__ import annotations

from repro.lint.engine import LintReport, check_source, run_lint
from repro.lint.findings import Finding, ModuleContext, RuleInfo
from repro.lint.registry import get_rule, list_rules

__all__ = [
    "Finding",
    "ModuleContext",
    "LintReport",
    "check_source",
    "run_lint",
    "RuleInfo",
    "get_rule",
    "list_rules",
]
