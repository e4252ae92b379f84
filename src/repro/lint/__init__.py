"""reprolint — the project-invariant static-analysis pass.

The repo's load-bearing promises (bit-identical engines, one quietness
kernel, seeded randomness everywhere, a non-blocking service hot path,
complete checkpoint codecs) are cheap to keep while they are
machine-checked and expensive to rediscover after they rot.
This package checks them on every CI run: four AST rules (R1, R2, R4, R5;
R3 is retired) over the package source, with per-line suppressions for
derived/transient cases and a committed baseline
(``.reprolint-baseline.json``) for the grandfathered, genuinely
intentional ones.

Run it::

    PYTHONPATH=src python -m repro.lint                # text report, exit 1 on findings
    PYTHONPATH=src python -m repro.lint --format json  # the CI form
    PYTHONPATH=src python -m repro.lint --list-rules

Library form::

    from repro.lint import check_source, run_lint
    findings = check_source(code, "repro/engine/vectorized.py")

Rules self-register through :mod:`repro.lint.registry` exactly like
engines do through :mod:`repro.engine.registry`; the README rule table is
generated from the same registry by ``tools/sync_docs.py``.
"""

from __future__ import annotations

from repro.lint.baseline import Baseline, BaselineEntry, load_baseline
from repro.lint.engine import LintReport, check_source, run_lint
from repro.lint.findings import Finding, ModuleContext
from repro.lint.registry import RuleInfo, get_rule, list_rules, register_rule

__all__ = [
    "Finding",
    "ModuleContext",
    "LintReport",
    "check_source",
    "run_lint",
    "RuleInfo",
    "register_rule",
    "get_rule",
    "list_rules",
    "Baseline",
    "BaselineEntry",
    "load_baseline",
]
