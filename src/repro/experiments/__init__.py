"""The E1–E10 + ablation reproduction harness.

The paper has no empirical section; its evaluation is analytical.  Each
experiment here validates one theorem / claimed bound / baseline comparison
from the text (README.md's experiment table lists the claims), and the
benches under ``benchmarks/`` regenerate each experiment's table.

Use ``python -m repro.experiments --list`` to see all experiments and
``python -m repro.experiments e1 e4`` (or ``--all``) to run them.
"""

from repro.experiments.spec import (
    EXPERIMENTS,
    ExperimentOutput,
    Finding,
    get_experiment,
    list_experiments,
    register,
    scaled,
)
from repro.experiments.report import render_output, render_summary

# Importing the experiment modules populates the registry.
from repro.experiments import (  # noqa: F401  (registration side effects)
    e1_max_protocol,
    e2_tail,
    e3_lower_bound,
    e4_competitive,
    e5_scaling,
    e6_baselines,
    e7_babcock,
    e8_dominance,
    e9_ordered,
    e10_faults,
    ablations,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentOutput",
    "Finding",
    "get_experiment",
    "list_experiments",
    "register",
    "scaled",
    "render_output",
    "render_summary",
]
