"""The fixed table of reprolint rules.

Each rule lives in its own module under :mod:`repro.lint.rules` and
defines ``RULE``, a :class:`~repro.lint.findings.RuleInfo`; :data:`RULES`
lists them.  Everything that names a rule reads this table: ``--select``,
``--list-rules`` and the README rule table rendered by
``tools/sync_docs.py``.  A new rule is a new module plus its entry here.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.lint.findings import RuleInfo
from repro.lint.rules import async_hotpath, determinism, kernel_singleton, snapshot_complete

__all__ = ["RuleInfo", "RULES", "get_rule", "list_rules"]

RULES: dict[str, RuleInfo] = {
    rule.id: rule
    for rule in (
        kernel_singleton.RULE,
        determinism.RULE,
        async_hotpath.RULE,
        snapshot_complete.RULE,
    )
}


def get_rule(rule_id: str) -> RuleInfo:
    """Look up a rule by id or slug."""
    if rule_id in RULES:
        return RULES[rule_id]
    for info in RULES.values():
        if info.slug == rule_id:
            return info
    raise ConfigurationError(
        f"unknown lint rule {rule_id!r}; known rules: {', '.join(sorted(RULES))}"
    )


def list_rules() -> list[RuleInfo]:
    """All rules in id order."""
    return [RULES[rule_id] for rule_id in sorted(RULES)]
