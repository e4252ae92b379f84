"""Cold start: a served process and a fast run import only what they run.

Each case starts a fresh interpreter and compares the sorted ``repro.*``
names in ``sys.modules`` with an exact list, so a new eager import (a
package ``__init__`` re-export, a registry that loads every engine, a
config read from the monitor's module) shows up here as a diff.  Only
``repro.*`` names are pinned: which stdlib modules load differs between
Python versions.
"""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np

from repro.engine.vectorized import IncrementalKernel

ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}

# What every path shares: the lazy package shells, the counting kernel
# (registered as both counting engines), the obs leaf and the util helpers.
_COMMON = [
    "repro",
    "repro._lazy",
    "repro.engine",
    "repro.engine.kernel",
    "repro.engine.registry",
    "repro.engine.results",
    "repro.engine.vectorized",
    "repro.errors",
    "repro.obs",
    "repro.obs.registry",
    "repro.obs.trace",
    "repro.types",
    "repro.util",
    "repro.util.intmath",
    "repro.util.seeding",
    "repro.util.validation",
]

#: A plain ``python -m repro.service --serve`` worker: no client, no fleet
#: router, no faithful monitor, no message model, no config dataclasses.
SERVED = sorted(
    _COMMON
    + [
        "repro.service",
        "repro.service.__main__",
        "repro.service.manager",
        "repro.service.metrics",
        "repro.service.protocol",
        "repro.service.server",
        "repro.service.wire",
    ]
)

#: ``import repro`` plus one ``repro.run(..., engine="fast")``: a run
#: spec carries a ``MonitorConfig``.
FAST_RUN = sorted(_COMMON + ["repro.api", "repro.core", "repro.core.config"])

_LIST_MODULES = """
print(json.dumps(sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))))
"""


def _fresh(*blocks: str) -> list:
    """Run the code ``blocks`` in one new interpreter; returns one JSON
    value per output line."""
    code = "\n".join(["import json, sys", *map(textwrap.dedent, blocks)])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_served_process_imports():
    """The server's entry module plus a durable create, feed, checkpoint
    and restore (the feed log included) load exactly ``SERVED``."""
    (modules, same) = _fresh(
        """
        import tempfile

        import numpy as np

        import repro.service.__main__
        from repro.service.manager import SessionManager

        rows = np.arange(12 * 16).reshape(12, 16) * 7 % 23
        with tempfile.TemporaryDirectory() as directory:
            manager = SessionManager()
            sid = manager.create(16, 3, seed=5)
            manager.feed_many(sid, rows[:6])
            manager.drain()
            manager.checkpoint(directory)
            manager.feed_many(sid, rows[6:])  # logged, not checkpointed
            restored = SessionManager(restore=directory)
            restored.drain()
            manager.drain()
            same = restored.query(sid) == manager.query(sid)
        """,
        _LIST_MODULES,
        "print(json.dumps(same))",
    )
    assert same is True
    assert modules == SERVED


def test_fast_run_imports_and_faithful_still_loads():
    """A ``fast`` run loads exactly ``FAST_RUN``; the faithful engine still
    loads on its own lookup afterwards and matches it."""
    (modules, same, names) = _fresh(
        """
        import numpy as np

        import repro

        values = np.arange(60 * 8).reshape(60, 8) * 11 % 37
        spec = repro.RunSpec(values, k=3, seed=4, engine="fast")
        fast = repro.run(spec)
        """,
        _LIST_MODULES,
        """
        faithful = repro.run(spec, engine="faithful")
        print(json.dumps(
            faithful.total_messages == fast.total_messages
            and np.array_equal(faithful.topk_history, fast.topk_history)
        ))
        print(json.dumps([info.name for info in repro.list_engines()]))
        """,
    )
    assert modules == FAST_RUN
    assert same is True
    assert names == ["faithful", "fast", "vectorized"]


def test_builtin_name_is_refused_before_the_builtins_load():
    """A third party cannot take a built-in name: the registration fails at
    the call, without loading the built-in's module, and the built-in
    answers the lookup afterwards."""
    (refusal, loaded, description) = _fresh(
        """
        from repro.engine.registry import get_engine, register_engine
        from repro.errors import ConfigurationError

        try:
            register_engine("fast", description="impostor", capabilities=(), runner=print)
            refusal = None
        except ConfigurationError as exc:
            refusal = str(exc)
        print(json.dumps(refusal))
        print(json.dumps("repro.engine.vectorized" in sys.modules))
        print(json.dumps(get_engine("fast").description))
        """
    )
    assert refusal == "engine 'fast' is already registered"
    assert loaded is False
    assert description != "impostor"


def test_builtin_backend_name_is_refused_before_the_builtins_load():
    """The sweep-backend registry keeps the same rule: registering under the
    queue backend's name fails at the call, before its module loads, and
    both lookups after it answer with the built-in."""
    (refusal, loaded, first, second) = _fresh(
        """
        from repro.analysis.backends import get_backend, register_backend
        from repro.errors import ConfigurationError

        try:
            register_backend("queue", description="impostor")(print)
            refusal = None
        except ConfigurationError as exc:
            refusal = str(exc)
        print(json.dumps(refusal))
        print(json.dumps("repro.analysis.distributed_backend" in sys.modules))
        print(json.dumps(get_backend("queue").description))
        print(json.dumps(get_backend("queue").description))
        """
    )
    assert refusal == "backend 'queue' is already registered"
    assert loaded is False
    assert first == second != "impostor"


def test_restored_kernel_rng_state_is_bit_identical():
    """``from_snapshot`` writes the saved PCG64 state into the kernel's own
    generator: the restored stream is the one that was saved."""
    values = np.arange(40 * 9).reshape(40, 9) * 13 % 29
    kernel = IncrementalKernel(9, 4, seed=3)
    kernel.observe_many(values[:25])
    resumed = IncrementalKernel.from_snapshot(json.loads(json.dumps(kernel.snapshot())))
    assert resumed._rng.bit_generator.state == kernel._rng.bit_generator.state
    assert np.array_equal(resumed.observe_many(values[25:]), kernel.observe_many(values[25:]))
    assert resumed.counts == kernel.counts
