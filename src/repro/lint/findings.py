"""Finding, module-context and rule types shared by the lint engine and rules.

A *finding* is one rule violation at one source location; a
:class:`ModuleContext` is everything a rule needs to inspect one parsed
module: its AST, its source lines, its path *inside the package*
(``repro/engine/vectorized.py`` — the coordinate every rule scopes on), and a
resolver from AST expressions to dotted import names.  A :class:`RuleInfo`
is one rule: its identity, its docs and the checker that runs per module.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable

__all__ = ["Finding", "ModuleContext", "RuleInfo"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    slug: str
    message: str

    def render(self) -> str:
        """The human-facing ``file:line:col: RULE[slug] message`` form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}[{self.slug}] {self.message}"

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe form for the ``--format json`` reporter."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "slug": self.slug,
            "message": self.message,
        }


@dataclass
class ModuleContext:
    """One parsed module, as handed to every rule's checker.

    ``relpath``
        The package-relative posix path (``repro/service/server.py``) —
        the coordinate rules scope on.  For files outside the package
        tree (fixtures, demos) callers pick the relpath they want the
        file *treated as*.
    """

    relpath: str
    source: str
    tree: ast.Module
    filename: str = "<unknown>"
    _findings: list[Finding] = field(default_factory=list, repr=False)

    @cached_property
    def lines(self) -> list[str]:
        """Source split into lines (1-indexed via ``lines[lineno - 1]``)."""
        return self.source.splitlines()

    @cached_property
    def aliases(self) -> dict[str, str]:
        """Imported-name -> dotted-module map for :meth:`qualname`.

        ``import numpy as np`` maps ``np -> numpy``; ``import time as _t``
        maps ``_t -> time``; ``from numpy.random import default_rng`` maps
        ``default_rng -> numpy.random.default_rng``.
        """
        names: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.asname:
                        names[a.asname] = a.name
                    else:
                        root = a.name.split(".")[0]
                        names[root] = root
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for a in node.names:
                    if a.name == "*":
                        continue
                    names[a.asname or a.name] = f"{node.module}.{a.name}"
        return names

    @cached_property
    def imported_modules(self) -> set[str]:
        """Top-level dotted modules this file imports (``numpy``, ``time``)."""
        mods: set[str] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                mods.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                mods.add(node.module)
        return mods

    def qualname(self, node: ast.expr) -> str | None:
        """Dotted name of an attribute/name chain, import aliases resolved.

        ``np.random.seed`` -> ``numpy.random.seed``; ``_time.sleep`` ->
        ``time.sleep``; returns ``None`` for anything that is not a plain
        name/attribute chain (calls, subscripts, literals).
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.aliases.get(node.id, node.id))
        return ".".join(reversed(parts))

    def report(self, node: ast.AST | int, rule: str, slug: str, message: str) -> None:
        """Record a finding anchored at ``node`` (or a bare line number)."""
        if isinstance(node, int):
            line, col = node, 0
        else:
            line, col = getattr(node, "lineno", 1), getattr(node, "col_offset", 0)
        self._findings.append(
            Finding(path=self.relpath, line=line, col=col, rule=rule, slug=slug, message=message)
        )

    def take_findings(self) -> list[Finding]:
        """Drain and return the findings recorded so far."""
        out, self._findings = self._findings, []
        return out


@dataclass(frozen=True)
class RuleInfo:
    """One rule: identity, docs, and its checker.

    ``checker(ctx)`` runs once per parsed module and records findings
    through ``ctx.report``; which files it cares about is its own
    business, decided from ``ctx.relpath``.
    """

    id: str
    slug: str
    summary: str
    rationale: str
    checker: Callable[[ModuleContext], None]
