"""The docs layer must not rot: registry tables in sync, snippets executable.

These are the same checks the CI docs job runs; having them in tier-1
keeps `pytest tests/` self-contained.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}


def _run(*cmd: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *cmd], cwd=REPO_ROOT, env=ENV,
        capture_output=True, text=True, timeout=300,
    )


class TestRegistryTables:
    def test_readme_in_sync_with_registries(self):
        proc = _run("tools/sync_docs.py", "--check")
        assert proc.returncode == 0, f"stdout: {proc.stdout}\nstderr: {proc.stderr}"

    def test_drift_detected(self, tmp_path):
        """A stale table must fail the check (that is the tool's whole job)."""
        stale = tmp_path / "README.md"
        stale.write_text(
            (REPO_ROOT / "README.md").read_text().replace("| `fast` |", "| `fastt` |")
        )
        proc = _run("tools/sync_docs.py", "--check", "--readme", str(stale))
        assert proc.returncode == 1
        assert "drifted" in proc.stderr

    def test_write_mode_fixes_drift(self, tmp_path):
        stale = tmp_path / "README.md"
        stale.write_text(
            (REPO_ROOT / "README.md").read_text().replace("| `fast` |", "| `fastt` |")
        )
        assert _run("tools/sync_docs.py", "--write", "--readme", str(stale)).returncode == 0
        assert _run("tools/sync_docs.py", "--check", "--readme", str(stale)).returncode == 0


class TestDocSnippets:
    @pytest.mark.parametrize("doc", ["README.md", "docs/architecture.md"])
    def test_doctests_pass(self, doc):
        proc = _run("-m", "doctest", str(REPO_ROOT / doc))
        assert proc.returncode == 0, proc.stdout

    def test_public_api_module_doctests(self):
        """The audited public-surface docstring examples stay runnable."""
        proc = _run(
            "-m", "pytest", "--doctest-modules", "-q",
            "src/repro/__init__.py",
            "src/repro/api.py",
            "src/repro/engine/kernel.py",
            "src/repro/engine/registry.py",
            "src/repro/analysis/backends.py",
            "src/repro/analysis/sweeps.py",
            "src/repro/analysis/distributed_backend.py",
            "src/repro/service/__init__.py",
        )
        assert proc.returncode == 0, proc.stdout


class TestWireTable:
    def test_op_tables_match_the_wire_format_table(self):
        """The ops the front doors answer are exactly the documented ones."""
        from repro.service.fleet import FleetRouter
        from repro.service.protocol import SHARED_OPS
        from repro.service.server import ServiceServer

        text = (REPO_ROOT / "docs" / "architecture.md").read_text()
        section = text.split("### Wire format", 1)[1].split("\n### ", 1)[0]
        documented = set(re.findall(r"^\| `(\w+)` \|", section, flags=re.M))
        # Neither is started: the router spawns its workers only in start().
        served = set(ServiceServer().ops) | set(FleetRouter().ops) | set(SHARED_OPS)
        assert documented == served
