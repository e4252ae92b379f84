"""Tests for the unified run API: engine/backend registries, RunSpec
resolution, RunResult adapters, and the lazy package surface (`__dir__` /
dunder rejection)."""

import numpy as np
import pytest

import repro
from repro.__main__ import main as cli_main
from repro.analysis.backends import BACKENDS, get_backend, list_backends, register_backend
from repro.analysis.sweeps import run_sweep
from repro.api import RunSpec, run
from repro.core.monitor import MonitorConfig
from repro.engine.registry import (
    CAP_AUDIT,
    CAP_COUNTING,
    CAP_EVENTS,
    CAP_TRAJECTORY,
    ENGINES,
    get_engine,
    list_engines,
    register_engine,
)
from repro.engine.results import RunResult
from repro.errors import ConfigurationError
from repro.streams import get_workload

ALL_ENGINES = ("faithful", "vectorized", "fast")


@pytest.fixture
def walk():
    return get_workload("random_walk", 10, 250, seed=3).generate()


class TestEngineRegistry:
    def test_builtins_registered(self):
        names = [info.name for info in list_engines()]
        assert set(ALL_ENGINES) <= set(names)
        assert names == sorted(names)

    def test_capability_flags(self):
        faithful = get_engine("faithful")
        assert faithful.supports(CAP_EVENTS) and faithful.supports(CAP_AUDIT)
        for name in ("vectorized", "fast"):
            info = get_engine(name)
            assert info.supports(CAP_TRAJECTORY) and info.supports(CAP_COUNTING)
            assert not info.supports(CAP_AUDIT)
            assert info.description

    def test_unknown_engine_message(self):
        with pytest.raises(ConfigurationError, match="unknown engine 'jit'") as err:
            get_engine("jit")
        # The error names what *is* registered, so typos are self-serviced.
        assert "faithful" in str(err.value) and "fast" in str(err.value)

    def test_duplicate_registration_rejected(self):
        info = get_engine("fast")
        with pytest.raises(ConfigurationError, match="already registered"):
            register_engine(
                "fast", description="dup", capabilities=(), runner=info.runner
            )

    def test_toy_engine_reachable_by_name(self, walk):
        """A self-registered engine needs no changes outside its own module."""

        def _toy_runner(values, k, *, seed, config):
            T, n = values.shape
            history = np.tile(np.arange(k, dtype=np.int64), (T, 1))
            return RunResult(
                engine="toy-constant",
                n=n,
                k=k,
                steps=T,
                topk_history=history,
                by_phase={"reset_broadcast": 1},
                resets=1,
                reset_times=[0],
            )

        register_engine(
            "toy-constant",
            description="always answers 0..k-1",
            capabilities={CAP_TRAJECTORY},
            runner=_toy_runner,
        )
        try:
            res = run(RunSpec(walk, k=3, seed=0), engine="toy-constant")
            assert res.engine == "toy-constant"
            assert res.total_messages == 1
            assert res.topk_at(100) == {0, 1, 2}
        finally:
            ENGINES.pop("toy-constant")


class TestRunAPI:
    @pytest.mark.parametrize("workload", ["random_walk", "iid_uniform"])
    def test_adapter_equality_across_engines(self, workload):
        """All three engines agree field-by-field on the unified result."""
        spec = RunSpec(workload, k=3, n=9, steps=200, seed=11)
        results = {name: run(spec, engine=name) for name in ALL_ENGINES}
        ref = results["faithful"]
        assert ref.total_messages > 0
        for name, res in results.items():
            assert res.engine == name
            assert res.total_messages == ref.total_messages
            assert res.by_phase == ref.by_phase
            assert res.reset_times == ref.reset_times
            assert res.handler_times == ref.handler_times
            assert res.resets == ref.resets
            assert res.handler_calls == ref.handler_calls
            assert res.quiet_steps == ref.quiet_steps
            assert np.array_equal(res.topk_history, ref.topk_history)

    def test_raw_matrix_spec(self, walk):
        res = run(RunSpec(walk, k=4, seed=5))
        assert res.engine == "fast"  # the spec default
        assert (res.steps, res.n) == walk.shape
        assert res.spec is not None and res.spec.k == 4

    def test_engine_override_beats_spec_default(self, walk):
        res = run(RunSpec(walk, k=4, seed=5, engine="fast"), engine="faithful")
        assert res.engine == "faithful"
        assert res.events  # faithful collects events by default
        assert res.ledger is not None

    def test_named_workload_requires_dimensions(self):
        with pytest.raises(ConfigurationError, match="needs explicit n and steps"):
            run(RunSpec("random_walk", k=4))

    def test_matrix_dimension_crosscheck(self, walk):
        with pytest.raises(ConfigurationError, match="n=99"):
            run(RunSpec(walk, k=4, n=99))
        with pytest.raises(ConfigurationError, match="steps=7"):
            run(RunSpec(walk, k=4, steps=7))

    def test_counting_engines_reject_instrumentation(self, walk):
        for name in ("vectorized", "fast"):
            with pytest.raises(ConfigurationError, match="faithful"):
                run(RunSpec(walk, k=3, config=MonitorConfig(audit=True)), engine=name)

    def test_workload_params_forwarded(self):
        spread = run(
            RunSpec("random_walk", k=4, n=16, steps=300, seed=2, workload_params={"spread": 200})
        )
        plain = run(RunSpec("random_walk", k=4, n=16, steps=300, seed=2))
        # Separated base levels quieten the instance substantially.
        assert spread.total_messages < plain.total_messages

    def test_describe_and_spec_describe(self, walk):
        res = run(RunSpec(walk, k=3, seed=1), engine="vectorized")
        assert "vectorized" in res.describe()
        assert "<matrix>" in res.spec.describe()

    def test_attached_spec_records_engine_override(self, walk):
        """Replaying result.spec must reproduce the run, override included."""
        res = run(RunSpec(walk, k=3, seed=1, engine="fast"), engine="faithful")
        assert res.spec.engine == "faithful"
        replay = run(res.spec)
        assert replay.engine == "faithful"
        assert replay.total_messages == res.total_messages

    def test_quiet_steps_without_events(self, walk):
        """quiet_steps derives from counters, so it survives collect_events=False."""
        with_events = run(RunSpec(walk, k=3, seed=2), engine="faithful")
        without = run(
            RunSpec(walk, k=3, seed=2, config=MonitorConfig(collect_events=False)),
            engine="faithful",
        )
        assert without.events == []
        assert without.quiet_steps == with_events.quiet_steps
        counting = run(RunSpec(walk, k=3, seed=2), engine="fast")
        assert counting.quiet_steps == with_events.quiet_steps


class TestBackendRegistry:
    def test_builtins_registered(self):
        assert {"serial", "thread", "process"} <= {b.name for b in list_backends()}

    def test_unknown_backend_message(self):
        with pytest.raises(ConfigurationError, match="unknown executor backend 'banana'") as err:
            get_backend("banana")
        assert "thread" in str(err.value)

    def test_run_sweep_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            run_sweep("s", [{"x": 1}], lambda rng_seed, x: 0.0, backend="banana")

    def test_rng_seed_grid_param_rejected(self):
        """'rng_seed' must not silently override the derived seeds."""
        with pytest.raises(ConfigurationError, match="rng_seed"):
            run_sweep("s", [{"rng_seed": 7}], lambda rng_seed: float(rng_seed), repetitions=3)

    def test_toy_backend_reachable_by_name(self):
        @register_backend("reversed-serial", description="serial, completion order reversed")
        def _reversed(measure, jobs, workers):
            results = [(i, float(measure(**kw))) for i, kw in enumerate(jobs)]
            return iter(reversed(results))  # out-of-order completion is fine

        try:
            grid = [{"x": 1}, {"x": 2}]
            base = run_sweep("s", grid, lambda rng_seed, x: float(x), repetitions=3, seed=1)
            toy = run_sweep(
                "s",
                grid,
                lambda rng_seed, x: float(x),
                repetitions=3,
                seed=1,
                workers=2,
                backend="reversed-serial",
            )
            assert [p.samples for p in toy.points] == [p.samples for p in base.points]
        finally:
            BACKENDS.pop("reversed-serial")


class TestPackageSurface:
    def test_dir_advertises_lazy_submodules(self):
        listing = dir(repro)
        for sub in ("streams", "engine", "analysis", "experiments"):
            assert sub in listing
        assert "run" in listing and "RunSpec" in listing

    def test_dunder_probe_rejected_cleanly(self):
        with pytest.raises(AttributeError):
            repro.__wrapped__  # a common inspect/copy probe
        # and it must not shadow real dunders
        assert repro.__version__

    def test_lazy_submodule_still_resolves(self):
        import importlib

        assert repro.streams is importlib.import_module("repro.streams")


class TestCliListings:
    def test_list_engines(self, capsys):
        assert cli_main(["--list-engines"]) == 0
        out = capsys.readouterr().out
        for name in ALL_ENGINES:
            assert name in out
        assert "counting" in out  # capability flags are shown

    def test_list_workloads_has_descriptions(self, capsys):
        assert cli_main(["--list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "random_walk" in out
        assert "sensor field" in out  # the description column

    def test_engine_flag(self, capsys):
        code = cli_main(
            ["--workload", "staircase", "--n", "8", "--k", "2", "--steps", "50", "--engine", "fast"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "engine  : fast" in out
        assert "cost breakdown" in out

    def test_audit_on_counting_engine_fails_loudly(self, capsys):
        code = cli_main(
            ["--workload", "staircase", "--n", "8", "--k", "2", "--steps", "50",
             "--engine", "fast", "--audit"]
        )
        assert code == 2
        assert "faithful" in capsys.readouterr().err
