"""R4 — async-hotpath: no blocking calls inside ``async def`` in the service.

The service multiplexes every connection onto one event loop; a single
synchronous sleep, socket connect, file open, or subprocess inside an
``async def`` stalls *all* sessions at once (the batched sweep is ~2.4ms
for 1000 sessions — one ``time.sleep(0.1)`` costs 40 sweeps).  Blocking
work belongs in ``run_in_executor``, ``asyncio``'s own primitives, or the
deliberately-synchronous client.

Only direct calls are detectable statically; the rule is the tripwire for
the obvious regressions, the docstring in ``service/server.py`` documents
the concurrency model the non-obvious ones must follow.

Since PR 10 the rule also flags ``json.dumps``/``json.loads`` inside
``async def`` in the service: the binary wire protocol exists precisely to
keep per-request JSON codec work off the event loop, so new JSON in an
async serving path is a throughput regression by construction.  The codec
module (``repro/service/wire.py``) is exempt — framing JSON payloads is
its job — and the deliberate JSONL debug path carries
``# reprolint: disable=R4`` waivers.
"""

from __future__ import annotations

import ast

from repro.lint.findings import ModuleContext, RuleInfo
from repro.lint.rules._shared import in_dirs, scope_nodes

RULE_ID = "R4"
SLUG = "async-hotpath"

SCOPED_DIRS = ("repro/service/",)

#: Dotted names that block the calling thread.
_BLOCKING = {
    "time.sleep": "await asyncio.sleep(...) instead",
    "os.system": "use asyncio.create_subprocess_shell",
    "socket.create_connection": "use asyncio.open_connection",
    "socket.socket": "use asyncio streams / loop.sock_* APIs",
    "subprocess.run": "use asyncio.create_subprocess_exec",
    "subprocess.call": "use asyncio.create_subprocess_exec",
    "subprocess.check_call": "use asyncio.create_subprocess_exec",
    "subprocess.check_output": "use asyncio.create_subprocess_exec",
    "subprocess.Popen": "use asyncio.create_subprocess_exec",
    "urllib.request.urlopen": "use loop.run_in_executor",
}

#: JSON codec calls — not blocking I/O, but per-request CPU the binary
#: wire protocol exists to avoid; flagged on the async serving path.
_JSON_CALLS = ("json.dumps", "json.loads")

#: Modules whose whole point is encoding/decoding wire payloads.
CODEC_MODULES = ("repro/service/wire.py",)


def _check_async_body(fn: ast.AsyncFunctionDef, ctx: ModuleContext) -> None:
    for node in scope_nodes(fn.body):
        if not isinstance(node, ast.Call):
            continue
        qn = ctx.qualname(node.func)
        if qn in _BLOCKING:
            ctx.report(
                node, RULE_ID, SLUG,
                f"blocking {qn}() inside async def {fn.name}: stalls every session "
                f"on the event loop; {_BLOCKING[qn]}",
            )
        elif qn in _JSON_CALLS and ctx.relpath not in CODEC_MODULES:
            ctx.report(
                node, RULE_ID, SLUG,
                f"{qn}() inside async def {fn.name}: per-request JSON codec work "
                "on the event loop; use repro.service.wire (binary framing) or "
                "waive the deliberate JSONL debug path with a disable comment",
            )
        elif isinstance(node.func, ast.Name) and node.func.id == "open":
            ctx.report(
                node, RULE_ID, SLUG,
                f"blocking open() inside async def {fn.name}: synchronous file I/O "
                "stalls the event loop; use loop.run_in_executor",
            )


def _check(ctx: ModuleContext) -> None:
    if not in_dirs(ctx.relpath, SCOPED_DIRS):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.AsyncFunctionDef):
            _check_async_body(node, ctx)


RULE = RuleInfo(
    id=RULE_ID,
    slug=SLUG,
    summary="no blocking calls or per-request JSON codec work inside async defs in service/",
    rationale="one event loop hosts every session; a single synchronous call stalls "
    "the whole fleet's batched sweep, and per-request json.dumps/loads is the codec "
    "cost the binary wire protocol removed",
    checker=_check,
)
