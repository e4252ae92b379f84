"""R5 — snapshot-complete: checkpoint codecs cover every state attribute.

Durable sessions (PR 5) promise that a restored stepper behaves
**bit-identically** to one that never stopped — which silently breaks the
day someone adds a state attribute to ``FilterState`` or
``IncrementalKernel`` and forgets the codec.  For every class that defines
both ``snapshot`` and ``from_snapshot``, each attribute assigned in
``__init__``/``__post_init__`` (or declared as an init'able dataclass
field) must be *covered*: named as a dict key inside ``snapshot()``
(underscore-stripped — ``self._t`` may persist as ``"t"``), assigned or
passed as a constructor keyword inside ``from_snapshot()``, or explicitly
marked derived/transient with ``# reprolint: disable=R5`` on its
assignment line.

Dataclass fields built with ``field(init=False, ...)`` are treated as
derived caches and skipped.
"""

from __future__ import annotations

import ast

from repro.lint.findings import ModuleContext, RuleInfo

RULE_ID = "R5"
SLUG = "snapshot-complete"


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _is_noninit_field(value: ast.expr | None) -> bool:
    """``field(init=False, ...)`` — a derived cache, not codec state."""
    if not (isinstance(value, ast.Call)):
        return False
    fn = value.func
    name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", "")
    if name != "field":
        return False
    for kw in value.keywords:
        if kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False:
            return True
    return False


def _state_attributes(cls: ast.ClassDef) -> dict[str, int]:
    """Attribute name -> line where it becomes state."""
    attrs: dict[str, int] = {}
    if _is_dataclass(cls):
        for node in cls.body:
            if (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and not node.target.id.startswith("__")
                and not _is_noninit_field(node.value)
                and "ClassVar" not in ast.dump(node.annotation)
            ):
                attrs.setdefault(node.target.id, node.lineno)
    for method in cls.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        if method.name not in ("__init__", "__post_init__"):
            continue
        for node in ast.walk(method):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    targets.extend(t.elts if isinstance(t, ast.Tuple) else [t])
            elif isinstance(node, ast.AnnAssign):
                targets.append(node.target)
            else:
                continue
            for t in targets:
                if (
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                    and not t.attr.startswith("__")
                ):
                    attrs.setdefault(t.attr, node.lineno)
    return attrs


def _covered_names(cls: ast.ClassDef) -> set[str]:
    """Names the codec pair mentions: snapshot dict keys, from_snapshot
    attribute assignments, and constructor keywords."""
    covered: set[str] = set()
    for method in cls.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        if method.name == "snapshot":
            for node in ast.walk(method):
                if isinstance(node, ast.Dict):
                    covered.update(
                        key.value
                        for key in node.keys
                        if isinstance(key, ast.Constant) and isinstance(key.value, str)
                    )
                elif (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Subscript)
                    and isinstance(node.targets[0].slice, ast.Constant)
                    and isinstance(node.targets[0].slice.value, str)
                ):
                    covered.add(node.targets[0].slice.value)
        elif method.name == "from_snapshot":
            for node in ast.walk(method):
                if isinstance(node, ast.Assign):
                    for t in node.targets:
                        if isinstance(t, ast.Attribute):
                            covered.add(t.attr)
                elif isinstance(node, ast.Call):
                    covered.update(kw.arg for kw in node.keywords if kw.arg is not None)
    return covered


def _check(ctx: ModuleContext) -> None:
    for cls in ast.walk(ctx.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = {m.name for m in cls.body if isinstance(m, ast.FunctionDef)}
        if not {"snapshot", "from_snapshot"} <= methods:
            continue
        covered = _covered_names(cls)
        for attr, line in sorted(_state_attributes(cls).items(), key=lambda kv: kv[1]):
            if attr in covered or attr.lstrip("_") in covered:
                continue
            ctx.report(
                line, RULE_ID, SLUG,
                f"{cls.name}.{attr} is assigned in __init__ but never covered by the "
                "snapshot()/from_snapshot() codec; persist it, or mark the assignment "
                "as derived/transient with '# reprolint: disable=R5' and a reason",
            )


RULE = RuleInfo(
    id=RULE_ID,
    slug=SLUG,
    summary="attributes set in __init__ must round-trip through snapshot/from_snapshot",
    rationale="durable sessions promise bit-identical restore; a state attribute the "
    "codec misses breaks it silently",
    checker=_check,
)
