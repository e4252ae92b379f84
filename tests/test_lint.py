"""Self-tests for reprolint (`repro.lint`): every rule gets good and bad
fixtures, plus waiver mechanics, the JSON reporter, the CLI exit codes —
and the two acceptance properties: the repo at HEAD lints clean, and
duplicating the kernel's quietness comparison into another engine file
fails R1 with a file:line finding."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.lint import check_source, list_rules, run_lint
from repro.lint.report import render_json, render_text

REPO_ROOT = Path(__file__).resolve().parent.parent
KERNEL_PATH = REPO_ROOT / "src" / "repro" / "engine" / "kernel.py"


def findings_for(source: str, relpath: str, *, select=None):
    return check_source(textwrap.dedent(source), relpath, select=select)


def rules_hit(source: str, relpath: str, *, select=None):
    return sorted({f.rule for f in findings_for(source, relpath, select=select)})


class TestRegistry:
    def test_four_rules_with_distinct_slugs(self):
        assert [r.id for r in list_rules()] == ["R1", "R2", "R4", "R5"]
        assert len({r.slug for r in list_rules()}) == 4
        for rule in list_rules():
            assert rule.slug and rule.summary and rule.rationale

    def test_unknown_rule_selection(self):
        from repro.lint.registry import get_rule

        with pytest.raises(ConfigurationError, match="unknown lint rule"):
            get_rule("R99")


class TestR1KernelSingleton:
    BAD = """
    def quiet(row, m2, sides):
        doubled = 2 * row
        return (sides & (doubled < m2)) | (~sides & (doubled > m2))
    """

    def test_doubled_comparison_outside_kernel_fails(self):
        findings = findings_for(self.BAD, "repro/engine/fast.py")
        assert findings and all(f.rule == "R1" for f in findings)
        assert findings[0].line == 4

    def test_direct_form_detected(self):
        src = "def q(v, m2):\n    return 2 * v < m2\n"
        assert rules_hit(src, "repro/service/helpers.py") == ["R1"]

    def test_kernel_itself_is_allowed(self):
        assert findings_for(self.BAD, "repro/engine/kernel.py") == []

    def test_real_kernel_source_is_the_singleton(self):
        """The actual kernel module is the one place the comparison lives."""
        source = KERNEL_PATH.read_text()
        assert findings_for(source, "repro/engine/kernel.py", select=["R1"]) == []
        # Treated as any other module, the same source DOES trip R1 — i.e.
        # the rule, not the code, is what exempts the kernel.
        assert {f.rule for f in
                check_source(source, "repro/engine/other.py", select=["R1"])} == {"R1"}

    def test_duplicating_kernel_comparison_into_fast_py_fails_lint(self):
        """Acceptance: copy the kernel's quietness check into fast.py on
        disk (a temp copy of the tree is not needed — check_source treats
        the text as if it lived at that path) and the lint must fail,
        naming file, line, and rule."""
        copied = KERNEL_PATH.read_text() + textwrap.dedent("""

        def _copied_quietness(row, m2, sides):
            doubled = 2 * row
            return (sides & (doubled < m2)) | (~sides & (doubled > m2))
        """)
        findings = check_source(copied, "repro/engine/fast.py", select=["R1"])
        assert findings, "duplicated kernel comparison must fail R1"
        rendered = findings[0].render()
        assert "repro/engine/fast.py" in rendered
        assert "R1" in rendered and ":" in rendered  # file:line:col: RULE


class TestR2Determinism:
    def test_wall_clock_flagged(self):
        src = "import time\n\ndef f():\n    return time.time()\n"
        assert rules_hit(src, "repro/core/monitor.py") == ["R2"]

    def test_global_random_flagged(self):
        src = "import random\n\ndef f():\n    return random.random()\n"
        assert rules_hit(src, "repro/streams/walks.py") == ["R2"]

    def test_unseeded_default_rng_flagged(self):
        src = "import numpy as np\n\ndef f():\n    return np.random.default_rng()\n"
        assert rules_hit(src, "repro/engine/vectorized.py") == ["R2"]

    def test_legacy_numpy_global_flagged(self):
        src = "import numpy as np\n\ndef f():\n    return np.random.rand(3)\n"
        assert rules_hit(src, "repro/faults/plan.py") == ["R2"]

    def test_seeded_rng_ok(self):
        src = (
            "import numpy as np\n\n"
            "def f(seed):\n"
            "    return np.random.default_rng(seed).integers(0, 10)\n"
        )
        assert findings_for(src, "repro/engine/vectorized.py") == []

    def test_perf_counter_confined_package_wide(self):
        """Raw perf_counter outside its homes is an R2 finding anywhere in
        the package, including dirs outside the classic R2 scope."""
        src = "import time\n\ndef f():\n    return time.perf_counter()\n"
        assert rules_hit(src, "repro/core/monitor.py") == ["R2"]
        assert rules_hit(src, "repro/service/client.py") == ["R2"]

    def test_perf_counter_from_import_flagged(self):
        src = "from time import perf_counter\n\ndef f():\n    return perf_counter()\n"
        assert rules_hit(src, "repro/analysis/sweeps.py") == ["R2"]

    def test_perf_counter_ok_in_homes(self):
        src = "import time\n\nclock = time.perf_counter\n"
        assert findings_for(src, "repro/obs/registry.py") == []
        assert rules_hit(src, "repro/service/metrics.py") == ["R2"]

    def test_sanctioned_clock_ok(self):
        src = (
            "from repro.obs.registry import clock\n\n"
            "def f():\n    return clock()\n"
        )
        assert findings_for(src, "repro/core/monitor.py") == []

    def test_perf_counter_waiver(self):
        src = (
            "import time\n\ndef f():\n"
            "    return time.perf_counter()  # reprolint: disable=R2\n"
        )
        assert findings_for(src, "repro/core/monitor.py") == []

    def test_out_of_scope_dirs_ignored(self):
        """service/ and util/ are not R2-scoped for the classic checks
        (the client's reconnect jitter is deliberately wall-clock-ish)."""
        src = "import time\n\ndef f():\n    return time.time()\n"
        assert findings_for(src, "repro/service/client.py", select=["R2"]) == []


class TestR4AsyncHotpath:
    def test_time_sleep_in_async_def(self):
        src = (
            "import time\n\n"
            "async def handler():\n"
            "    time.sleep(0.1)\n"
        )
        findings = findings_for(src, "repro/service/server.py")
        assert [f.rule for f in findings] == ["R4"]
        assert "asyncio.sleep" in findings[0].message

    def test_blocking_socket_in_async_def(self):
        src = (
            "import socket\n\n"
            "async def connect(addr):\n"
            "    return socket.create_connection(addr)\n"
        )
        assert rules_hit(src, "repro/service/client.py") == ["R4"]

    def test_sync_helper_in_service_ok(self):
        """Blocking calls in plain defs are fine — the client is sync."""
        src = "import time\n\ndef backoff():\n    time.sleep(0.1)\n"
        assert findings_for(src, "repro/service/client.py") == []

    def test_async_outside_service_not_scoped(self):
        src = "import time\n\nasync def f():\n    time.sleep(1)\n"
        assert findings_for(src, "repro/analysis/sweeps.py", select=["R4"]) == []

    def test_json_codec_in_async_def(self):
        """PR 10: per-request json.loads/dumps on the async serving path
        is the codec cost the binary wire removed — flagged."""
        src = (
            "import json\n\n"
            "async def dispatch(line):\n"
            "    return json.loads(line)\n"
        )
        findings = findings_for(src, "repro/service/server.py", select=["R4"])
        assert [f.rule for f in findings] == ["R4"]
        assert "repro.service.wire" in findings[0].message

    def test_json_dumps_in_async_def(self):
        src = (
            "import json\n\n"
            "async def reply(payload):\n"
            "    return json.dumps(payload).encode()\n"
        )
        assert rules_hit(src, "repro/service/fleet.py") == ["R4"]

    def test_json_in_codec_module_ok(self):
        """wire.py IS the codec — framing JSON payloads is its job."""
        src = "import json\n\nasync def decode(b):\n    return json.loads(b)\n"
        assert findings_for(src, "repro/service/wire.py", select=["R4"]) == []

    def test_json_in_sync_def_ok(self):
        """The deliberately-synchronous client parses JSON off the loop."""
        src = "import json\n\ndef parse(line):\n    return json.loads(line)\n"
        assert findings_for(src, "repro/service/client.py", select=["R4"]) == []

    def test_jsonl_debug_path_waiver(self):
        """The JSONL debug path keeps its json.loads behind a waiver."""
        src = (
            "import json\n\n"
            "async def dispatch(line):\n"
            "    return json.loads(line)  # reprolint: disable=R4\n"
        )
        assert findings_for(src, "repro/service/server.py", select=["R4"]) == []

    def test_real_service_modules_clean(self):
        for path in sorted((REPO_ROOT / "src" / "repro" / "service").glob("*.py")):
            source = path.read_text()
            assert check_source(
                source, f"repro/service/{path.name}", select=["R4"]
            ) == [], path.name


class TestR5SnapshotComplete:
    BAD = """
    class Stepper:
        def __init__(self, n):
            self.n = n
            self.cursor = 0

        def snapshot(self):
            return {"n": self.n}

        @classmethod
        def from_snapshot(cls, state):
            obj = cls(state["n"])
            return obj
    """

    def test_uncovered_attribute_flagged(self):
        findings = findings_for(self.BAD, "repro/engine/stepper.py")
        assert [f.rule for f in findings] == ["R5"]
        assert "cursor" in findings[0].message

    def test_covered_by_key_and_ctor_ok(self):
        src = self.BAD.replace('return {"n": self.n}', 'return {"n": self.n, "cursor": self.cursor}')
        assert findings_for(src, "repro/engine/stepper.py") == []

    def test_underscore_maps_to_bare_key(self):
        src = self.BAD.replace("self.cursor = 0", "self._cursor = 0").replace(
            'return {"n": self.n}', 'return {"n": self.n, "cursor": self._cursor}'
        )
        assert findings_for(src, "repro/engine/stepper.py") == []

    def test_classes_without_codec_ignored(self):
        src = "class Plain:\n    def __init__(self):\n        self.x = 1\n"
        assert findings_for(src, "repro/engine/helpers.py") == []

    def test_inline_disable_on_assignment_line(self):
        src = self.BAD.replace(
            "self.cursor = 0", "self.cursor = 0  # reprolint: disable=R5"
        )
        assert findings_for(src, "repro/engine/stepper.py") == []


class TestSuppression:
    SRC = "def q(v, m2):\n    return 2 * v < m2  # reprolint: disable={tag}\n"

    @pytest.mark.parametrize("tag", ["R1", "kernel-singleton", "all", "R1, R2"])
    def test_disable_forms(self, tag):
        src = self.SRC.format(tag=tag)
        assert findings_for(src, "repro/engine/fast.py") == []

    def test_wrong_rule_does_not_suppress(self):
        src = self.SRC.format(tag="R2")
        assert rules_hit(src, "repro/engine/fast.py") == ["R1"]


class TestReporters:
    def _report(self, tmp_path):
        f = tmp_path / "repro" / "engine" / "mod.py"
        f.parent.mkdir(parents=True)
        f.write_text("def q(v, m2):\n    return 2 * v < m2\n")
        return run_lint([f])

    def test_text_has_file_line_rule(self, tmp_path):
        text = render_text(self._report(tmp_path))
        assert "repro/engine/mod.py:2:" in text
        assert "R1[kernel-singleton]" in text
        assert "1 finding in 1 files" in text

    def test_json_shape(self, tmp_path):
        data = json.loads(render_json(self._report(tmp_path)))
        assert data["version"] == 2 and data["ok"] is False
        assert data["checked_files"] == 1
        assert set(data["rules"]) == {"R1", "R2", "R4", "R5"}
        (finding,) = data["findings"]
        assert finding["path"] == "repro/engine/mod.py"
        assert finding["line"] == 2 and finding["rule"] == "R1"


class TestCLIAndHead:
    """The acceptance criteria, driven through `python -m repro.lint`."""

    def _cli(self, *args, cwd=REPO_ROOT):
        return subprocess.run(
            [sys.executable, "-m", "repro.lint", *args],
            capture_output=True, text=True, timeout=300, cwd=cwd,
        )

    def test_repo_at_head_is_clean(self):
        proc = self._cli("--format", "json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        data = json.loads(proc.stdout)
        assert data["ok"] is True and data["findings"] == []
        assert data["checked_files"] > 50

    def test_bad_fixture_fails_with_exit_1(self, tmp_path):
        f = tmp_path / "repro" / "engine" / "bad.py"
        f.parent.mkdir(parents=True)
        f.write_text("import time\n\ndef f():\n    return time.time()\n")
        proc = self._cli(str(f))
        assert proc.returncode == 1
        assert "R2[determinism]" in proc.stdout

    def test_list_rules(self):
        proc = self._cli("--list-rules")
        assert proc.returncode == 0
        for rule_id in ("R1", "R2", "R4", "R5"):
            assert rule_id in proc.stdout
        assert "R3" not in proc.stdout  # retired with the registry's session seams

    def test_competitor_waivers_each_excuse_their_own_line(self):
        """Babcock–Olston and Lam et al. keep their own doubled-border
        checks under per-line waivers: the two modules lint clean with 6
        findings waived, and deleting any one of the five waiver comments
        fails R1 at exactly that line."""
        baselines = REPO_ROOT / "src" / "repro" / "baselines"
        paths = [baselines / "babcock_olston.py", baselines / "lam_dominance.py"]
        report = run_lint(paths)
        assert report.ok and report.suppressed == 6
        per_waiver = []
        for path in paths:
            lines = path.read_text().splitlines(keepends=True)
            for i, line in enumerate(lines):
                if "# reprolint: disable=R1" not in line:
                    continue
                bare = lines[:i] + [line.split("  # reprolint:")[0] + "\n"] + lines[i + 1:]
                findings = check_source("".join(bare), f"repro/baselines/{path.name}")
                assert {(f.rule, f.line) for f in findings} == {("R1", i + 1)}, (path.name, i)
                per_waiver.append(len(findings))
        # Four Babcock–Olston lines; Lam et al.'s one line holds two comparisons.
        assert sorted(per_waiver) == [1, 1, 1, 1, 2]
