"""Rule registry: the pluggable seam for reprolint checks.

Deliberately the same idiom as :mod:`repro.engine.registry`: rules live in
their own modules under :mod:`repro.lint.rules`, self-register on import,
and become reachable by id everywhere (``--select``, ``--list-rules``, the
README rule table rendered by ``tools/sync_docs.py``) with no changes to
any other file::

    from repro.lint.registry import register_rule

    def _check(ctx):            # ctx: repro.lint.findings.ModuleContext
        ...
        ctx.report(node, "R9", "my-rule", "what went wrong and where to fix it")

    register_rule(
        "R9",
        slug="my-rule",
        summary="one line for --list-rules and the README table",
        rationale="why the project needs this invariant",
        checker=_check,
    )

A checker runs once per parsed module and records findings through
``ctx.report``; scoping (which files the rule cares about) is the rule's
own business, decided from ``ctx.relpath``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError
from repro.lint.findings import ModuleContext

__all__ = ["RuleInfo", "RULES", "register_rule", "get_rule", "list_rules"]

#: ``checker(ctx)`` inspects one module and reports through ``ctx.report``.
RuleChecker = Callable[[ModuleContext], None]


@dataclass(frozen=True)
class RuleInfo:
    """One registered rule: identity, docs, and its checker."""

    id: str
    slug: str
    summary: str
    rationale: str
    checker: RuleChecker


RULES: dict[str, RuleInfo] = {}

# Built-in rules self-register at import, loaded lazily so that
# ``import repro`` never pays for the linter.
_BUILTIN_MODULES = (
    "repro.lint.rules.kernel_singleton",
    "repro.lint.rules.determinism",
    "repro.lint.rules.async_hotpath",
    "repro.lint.rules.snapshot_complete",
)
_builtins_loaded = False


def load_builtin_rules() -> None:
    """Import the built-in rule modules (idempotent)."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


def register_rule(
    rule_id: str,
    *,
    slug: str,
    summary: str,
    rationale: str,
    checker: RuleChecker,
) -> RuleInfo:
    """Register a rule under ``rule_id`` (e.g. ``"R1"``).

    Raises
    ------
    ConfigurationError
        If ``rule_id`` or ``slug`` is already registered.
    """
    if rule_id in RULES:
        raise ConfigurationError(f"lint rule {rule_id!r} is already registered")
    if any(info.slug == slug for info in RULES.values()):
        raise ConfigurationError(f"lint rule slug {slug!r} is already registered")
    info = RuleInfo(id=rule_id, slug=slug, summary=summary, rationale=rationale, checker=checker)
    RULES[rule_id] = info
    return info


def get_rule(rule_id: str) -> RuleInfo:
    """Look up a rule by id or slug (built-ins load on first lookup)."""
    load_builtin_rules()
    if rule_id in RULES:
        return RULES[rule_id]
    for info in RULES.values():
        if info.slug == rule_id:
            return info
    raise ConfigurationError(
        f"unknown lint rule {rule_id!r}; registered rules: {', '.join(sorted(RULES))}"
    )


def list_rules() -> list[RuleInfo]:
    """All registered rules in id order (built-ins loaded on demand)."""
    load_builtin_rules()
    return [RULES[rule_id] for rule_id in sorted(RULES)]
