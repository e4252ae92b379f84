"""Contract tests for the public API surface and the README quickstart."""

import importlib

import pytest

import repro


class TestPublicSurface:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_lazy_submodules(self):
        for sub in ("streams", "baselines", "analysis", "experiments", "engine", "extensions", "model", "service", "util"):
            mod = getattr(repro, sub)
            assert mod is importlib.import_module(f"repro.{sub}")

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.not_a_thing

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(p.isdigit() for p in parts)

    @pytest.mark.parametrize(
        "package,expected",
        [
            ("repro.streams", ["random_walk", "sensor_field", "stitch", "get_workload"]),
            ("repro.baselines", ["NaiveMonitor", "opt_segments", "BabcockOlstonMonitor"]),
            ("repro.analysis", ["competitive_bound", "lemma41_expected_messages", "classify_growth"]),
            ("repro.engine", ["VectorizedResult", "differential_check"]),
            ("repro.extensions", ["OrderedTopKMonitor"]),
            ("repro.model", ["MessageLedger", "render_timeline"]),
            ("repro.service", ["SessionManager", "ServiceClient", "start_server"]),
        ],
    )
    def test_subpackage_exports(self, package, expected):
        mod = importlib.import_module(package)
        for name in expected:
            assert name in mod.__all__, f"{package}.{name} missing from __all__"
            assert hasattr(mod, name)

    def test_docstrings_on_public_callables(self):
        """Every public item carries a docstring (documentation deliverable)."""
        missing = []
        for modname in (
            "repro",
            "repro.core.monitor",
            "repro.core.protocols",
            "repro.core.filters",
            "repro.baselines.offline_opt",
            "repro.analysis.bounds",
            "repro.streams.base",
        ):
            mod = importlib.import_module(modname)
            for name in getattr(mod, "__all__", []):
                obj = getattr(mod, name)
                if callable(obj) and not obj.__doc__:
                    missing.append(f"{modname}.{name}")
        assert not missing, f"undocumented public callables: {missing}"


class TestReadmeQuickstart:
    """The README's quickstart code must work exactly as written."""

    def test_batch_quickstart(self):
        from repro import TopKMonitor, MonitorConfig
        from repro import streams

        values = streams.random_walk(n=32, steps=5000, seed=1, spread=80).generate()
        monitor = TopKMonitor(n=32, k=4, seed=2, config=MonitorConfig(audit=True))
        result = monitor.run(values)
        assert result.total_messages < values.size
        assert len(result.topk_at(4999)) == 4
        assert result.ledger.by_phase  # breakdown exists

    def test_streaming_quickstart(self):
        from repro import OnlineSession
        from repro import streams

        values = streams.random_walk(n=32, steps=200, seed=1, spread=80).generate()
        session = OnlineSession(n=32, k=4, seed=2)
        hot = None
        for row in values:
            hot = session.observe(row)
        session.finish()
        assert hot is not None and len(hot) == 4

    def test_package_docstring_example(self):
        """The module docstring's claim: messages << naive volume."""
        from repro import TopKMonitor, streams

        values = streams.random_walk(n=32, steps=2000, seed=1).generate()
        result = TopKMonitor(n=32, k=4, seed=2).run(values)
        assert result.total_messages < values.size
