"""R1 — kernel-singleton: the quietness comparison lives in one module.

PR 5 collapsed the paper's central decision — "does this doubled value
leave the filter bound?", the ``2·v`` vs ``M2`` comparison — into
:mod:`repro.engine.kernel`, and every engine, the service manager, and the
message-passing simulation call into it.  That uniqueness is what makes
bit-identical engines *provable* rather than hoped-for; this rule keeps it
machine-checked.

Detection: within each scope, names assigned ``2 * expr`` (or
``expr * 2``) are *doubled values*; any ordering comparison whose operand
is such a name or a direct ``2 * expr`` expression is the kernel pattern.
Classical baselines that legitimately run their own doubled-bound
arithmetic (it is *their* algorithm's border, not the kernel's) waive each
such line with ``# reprolint: disable=R1 — <why>``.
"""

from __future__ import annotations

import ast

from repro.lint.findings import ModuleContext, RuleInfo
from repro.lint.rules._shared import function_defs, scope_nodes

RULE_ID = "R1"
SLUG = "kernel-singleton"

#: The one module allowed to spell the quietness comparison.
ALLOWED = ("repro/engine/kernel.py",)

_ORDERING_OPS = (ast.Lt, ast.Gt, ast.LtE, ast.GtE)


def _is_doubled(node: ast.expr) -> bool:
    """``2 * expr`` or ``expr * 2`` with a literal int 2."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and any(
            isinstance(side, ast.Constant) and side.value == 2 and isinstance(side.value, int)
            for side in (node.left, node.right)
        )
    )


def _check_scope(body: list[ast.stmt], inherited: frozenset[str], ctx: ModuleContext) -> None:
    doubled = set(inherited)
    for node in scope_nodes(body):
        if isinstance(node, ast.Assign) and _is_doubled(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    doubled.add(target.id)
    for node in scope_nodes(body):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, _ORDERING_OPS) for op in node.ops):
            continue
        operands = [node.left, *node.comparators]
        if any(
            _is_doubled(o) or (isinstance(o, ast.Name) and o.id in doubled) for o in operands
        ):
            ctx.report(
                node,
                RULE_ID,
                SLUG,
                "doubled-value bound comparison outside the kernel; the 2*v vs M2 "
                "quietness check may exist only in repro/engine/kernel.py — call "
                "FilterState.violates/violators, violates_stacked, or scan_quiet instead",
            )
    for fn in function_defs(body):
        _check_scope(fn.body, frozenset(doubled), ctx)


def _check(ctx: ModuleContext) -> None:
    if ctx.relpath in ALLOWED:
        return
    _check_scope(ctx.tree.body, frozenset(), ctx)


RULE = RuleInfo(
    id=RULE_ID,
    slug=SLUG,
    summary="the 2*v vs M2 quietness comparison may exist only in engine/kernel.py",
    rationale="bit-identical engines are provable only while the filter decision has "
    "exactly one implementation (PR 5's invariant)",
    checker=_check,
)
