"""Experiment registry and result containers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ExperimentError
from repro.util.tables import Table

__all__ = [
    "Finding",
    "ExperimentOutput",
    "EXPERIMENTS",
    "register",
    "get_experiment",
    "list_experiments",
    "scaled",
    "SCALES",
]

#: Recognized run scales.  ``smoke`` keeps CI fast; ``full`` is the scale
#: a recorded ``--markdown`` report runs at.
SCALES = ("smoke", "default", "full")


def scaled(scale: str, smoke: Any, default: Any, full: Any) -> Any:
    """Pick a parameter by scale (typed per call site)."""
    if scale not in SCALES:
        raise ExperimentError(f"unknown scale {scale!r}; expected one of {SCALES}")
    return {"smoke": smoke, "default": default, "full": full}[scale]


@dataclass(frozen=True)
class Finding:
    """One checked observation: a claim, a measured statement, pass/fail."""

    claim: str
    observed: str
    passed: bool


@dataclass
class ExperimentOutput:
    """Everything an experiment produces."""

    exp_id: str
    title: str
    claim: str
    tables: list[Table] = field(default_factory=list)
    figures: list[str] = field(default_factory=list)
    findings: list[Finding] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """All findings hold."""
        return all(f.passed for f in self.findings)

    def check(self, claim: str, observed: str, passed: bool) -> None:
        """Record one finding."""
        self.findings.append(Finding(claim=claim, observed=observed, passed=bool(passed)))


@dataclass(frozen=True)
class _Entry:
    exp_id: str
    title: str
    runner: Callable[[str], ExperimentOutput]


EXPERIMENTS: dict[str, _Entry] = {}


def register(exp_id: str, title: str):
    """Decorator registering an experiment runner ``f(scale) -> output``."""

    def deco(fn: Callable[[str], ExperimentOutput]):
        key = exp_id.lower()
        if key in EXPERIMENTS:
            raise ExperimentError(f"duplicate experiment id {exp_id!r}")
        EXPERIMENTS[key] = _Entry(exp_id=key, title=title, runner=fn)
        return fn

    return deco


def get_experiment(exp_id: str) -> _Entry:
    """Look up an experiment by id (case-insensitive)."""
    key = exp_id.lower()
    if key not in EXPERIMENTS:
        raise ExperimentError(
            f"unknown experiment {exp_id!r}; known: {', '.join(sorted(EXPERIMENTS))}"
        )
    return EXPERIMENTS[key]


def list_experiments() -> list[tuple[str, str]]:
    """``(id, title)`` pairs in id order."""
    return [(e.exp_id, e.title) for _, e in sorted(EXPERIMENTS.items())]
