"""R2 — determinism: all randomness and time flows from explicit seeds.

The repo's core promise is bit-identical results across engines, backends,
and worker counts; the fault layer (PR 6) additionally requires every
hostile network to be replayable from its plan seed.  Both collapse the
moment an algorithmic module reads the wall clock or an unseeded RNG.
Inside the algorithmic subtrees this rule forbids:

* ``time.time()`` — wall-clock reads (``monotonic`` is fine: it times
  things, it never feeds results);
* the stdlib ``random`` module's global functions (``random.random()``,
  ``random.randint`` ...) — process-global hidden state;
* ``np.random.seed`` / legacy ``np.random.RandomState`` and every other
  legacy global-state ``np.random.*`` function;
* ``np.random.default_rng()`` with no argument (OS entropy);
* ``os.urandom`` — OS entropy.

Seeds must flow through :mod:`repro.util.seeding` (``derive_rng`` /
``SeedStream``), which is why ``util/`` itself is out of scope.

Package-wide (not just the algorithmic subtrees), raw
``time.perf_counter`` is confined to ``repro/obs/``, which exports it as
:data:`repro.obs.registry.clock`.  One clock source keeps timing
instrumentation auditable: anything timed flows through the
observability layer, so a timing read can never quietly become an input
to protocol state.  Genuinely standalone timers waive the line with an
explicit ``# reprolint: disable=R2`` and a reason.
"""

from __future__ import annotations

import ast

from repro.lint.findings import ModuleContext, RuleInfo
from repro.lint.rules._shared import in_dirs

RULE_ID = "R2"
SLUG = "determinism"

#: Algorithmic subtrees where unseeded randomness corrupts reproducibility.
SCOPED_DIRS = (
    "repro/engine/",
    "repro/core/",
    "repro/faults/",
    "repro/analysis/",
    "repro/streams/",
)

_FIX = "derive seeds via repro.util.seeding (derive_rng / SeedStream)"

#: Explicit-seed numpy.random constructors that are fine to name.
_NUMPY_EXPLICIT = frozenset(
    {
        "default_rng",  # seededness checked separately
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)

#: Seeded stdlib-random constructors (an instance with an explicit seed is
#: deterministic; the module-global functions are not).
_STDLIB_ALLOWED = frozenset({"random.Random"})

#: The raw monotonic clock's only home: the obs layer (the registry
#: exports it as ``repro.obs.registry.clock``).
_CLOCK_HOMES = ("repro/obs/",)

_CLOCK_FIX = (
    "use the sanctioned clock (from repro.obs.registry import clock) or waive "
    "the line with '# reprolint: disable=R2' and a reason"
)


def _first_arg_missing_or_none(call: ast.Call) -> bool:
    if call.args:
        first = call.args[0]
        return isinstance(first, ast.Constant) and first.value is None
    for kw in call.keywords:
        if kw.arg == "seed":
            return isinstance(kw.value, ast.Constant) and kw.value.value is None
    return True


def _check_clock(ctx: ModuleContext) -> None:
    """Package-wide: raw ``time.perf_counter`` only inside its homes."""
    if not ctx.relpath.startswith("repro/") or ctx.relpath.startswith(_CLOCK_HOMES):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.Attribute, ast.Name)):
            continue
        if ctx.qualname(node) == "time.perf_counter":
            ctx.report(
                node, RULE_ID, SLUG,
                f"raw time.perf_counter outside repro/obs/; {_CLOCK_FIX}",
            )


def _check(ctx: ModuleContext) -> None:
    _check_clock(ctx)
    if not in_dirs(ctx.relpath, SCOPED_DIRS):
        return
    uses_stdlib_random = "random" in ctx.imported_modules
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        qn = ctx.qualname(node.func)
        if qn is None:
            continue
        if qn == "time.time":
            ctx.report(
                node, RULE_ID, SLUG,
                "wall-clock time.time() in an algorithmic module; results must be a "
                "pure function of (input, seed) — time instrumentation with the "
                "sanctioned clock (from repro.obs.registry import clock)",
            )
        elif qn == "os.urandom":
            ctx.report(node, RULE_ID, SLUG, f"os.urandom is OS entropy; {_FIX}")
        elif qn == "numpy.random.default_rng" and _first_arg_missing_or_none(node):
            ctx.report(
                node, RULE_ID, SLUG,
                f"unseeded numpy.random.default_rng() is OS entropy; {_FIX}",
            )
        elif qn.startswith("numpy.random.") and qn.split(".")[-1] not in _NUMPY_EXPLICIT:
            ctx.report(
                node, RULE_ID, SLUG,
                f"legacy global-state call {qn}(); {_FIX}",
            )
        elif (
            uses_stdlib_random
            and qn.startswith("random.")
            and qn not in _STDLIB_ALLOWED
        ):
            ctx.report(
                node, RULE_ID, SLUG,
                f"stdlib {qn}() uses the process-global RNG; {_FIX}",
            )


RULE = RuleInfo(
    id=RULE_ID,
    slug=SLUG,
    summary="no wall clocks or unseeded/global RNGs in engine/core/faults/analysis/streams; "
    "raw time.perf_counter confined to repro/obs/",
    rationale="bit-identical replay across engines, worker counts, and fault plans "
    "requires every stochastic draw to flow from an explicit seed",
    checker=_check,
)
