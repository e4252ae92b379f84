"""A1–A3 — ablations of Algorithm 1's design choices.

* **A1 (midpoint halving)**: replace the T+/T− halving handler with an
  unconditional ``FilterReset`` per violation step.  The halving mechanism
  is the source of the ``log Δ`` term in Theorem 3.3; removing it should
  multiply the cost by roughly the ratio of reset cost (``k·log n``) to
  handler cost (``log n``) on violation-heavy-but-stable workloads.
* **A2 (redundant minimum)**: the verbatim listing re-runs MinimumProtocol
  over the whole top-k when both sides violated, although the violators'
  minimum already equals the global top-side minimum.  Skipping it must
  not change any answer and should save messages.
* **A3 (round broadcast policy)**: broadcast the running maximum after
  every round with traffic (verbatim listing) vs only on improvement
  (default).  Both are O(log N); the measured delta quantifies the
  difference.
"""

from __future__ import annotations

import numpy as np

from repro.api import RunSpec, run as run_spec
from repro.core.monitor import MonitorConfig
from repro.core.protocols import ProtocolConfig, maximum_protocol
from repro.experiments.spec import ExperimentOutput, register, scaled
from repro.streams import random_walk
from repro.util.seeding import derive_rng
from repro.util.tables import Table


def _deepening_dips(n: int, k: int, depth_log2: int, *, settle: int = 3) -> np.ndarray:
    """The A1 separator: the k-th member dips geometrically toward v_(k+1).

    Nodes ``0..k-2``: fixed high levels.  Nodes ``k..n-1``: fixed low
    levels with maximum ``floor = mid - D``.  Node ``k-1`` (the boundary
    member) is usually at ``mid``, but every ``settle`` steps it dips for
    one step to ``floor + e_j`` where ``e_0 = D`` and
    ``e_j = (e_{j-1} - 1) // 2``: each dip strictly undercuts the halved
    midpoint maintained by the handler (so both variants see one violation
    per dip), yet stays above the floor, so the top-k set never changes and
    OPT never communicates after initialization.
    """
    D = 1 << depth_log2
    mid = 10 * D
    floor = mid - D
    residuals = []
    e = D
    while True:
        e = (e - 1) // 2
        if e < 1:
            break
        residuals.append(e)
    T = 1 + settle * len(residuals) + settle
    values = np.empty((T, n), dtype=np.int64)
    values[:, : k - 1] = mid + 4 * D + np.arange(k - 1, dtype=np.int64)[None, :] * 4
    values[:, k:] = floor - np.arange(n - k, dtype=np.int64)[None, :] * 4
    member = np.full(T, mid, dtype=np.int64)
    for j, e_j in enumerate(residuals, start=1):
        member[1 + settle * j] = floor + e_j
    values[:, k - 1] = member
    return values


@register("a1", "Ablations: midpoint halving, redundant min, broadcast policy")
def run(scale: str = "default") -> ExperimentOutput:
    """Regenerate the ablation tables."""
    out = ExperimentOutput(
        exp_id="a1",
        title="Ablations: midpoint halving, redundant min, broadcast policy",
        claim="design-choice attribution for Algorithm 1 (A1–A3, faithful engine only)",
    )
    # --- A1: halving vs always-reset --------------------------------------
    # Separating workload: the k-th member repeatedly dips *deeper* toward
    # (but never below) the (k+1)-st value — the top-k set never changes,
    # Δ is large, and every dip violates the current filter.  Halving
    # resolves each dip with one O(log n) handler; always-reset pays a full
    # (k+1)-sweep reset of O(k log n) per dip, so the gap is a factor ~k.
    n = scaled(scale, 32, 64, 128)
    k = scaled(scale, 8, 16, 32)
    values = _deepening_dips(n=n, k=k, depth_log2=scaled(scale, 10, 14, 18))
    base = run_spec(
        RunSpec(values, k=k, seed=11, engine="faithful", config=MonitorConfig(audit=True))
    )
    always = run_spec(
        RunSpec(
            values,
            k=k,
            seed=11,
            engine="faithful",
            config=MonitorConfig(always_reset=True, audit=True),
        )
    )
    t1 = Table(["variant", "messages", "resets", "handler calls"], title="A1: midpoint halving")
    t1.add_row(["algorithm1 (halving)", base.total_messages, base.resets, base.handler_calls])
    t1.add_row(["always-reset", always.total_messages, always.resets, always.handler_calls])
    out.tables.append(t1)
    out.check(
        "midpoint halving avoids resets and saves ~k-fold on stable-set violations",
        f"always-reset/halving message ratio = {always.total_messages / base.total_messages:.2f}; "
        f"resets {base.resets} vs {always.resets}",
        always.total_messages >= 2.0 * base.total_messages and always.resets > base.resets,
    )
    assert np.array_equal(base.topk_history, always.topk_history), "ablation must not change answers"

    # Workload for A2/A3: mixed-violation random walk.
    n_w = scaled(scale, 16, 32, 64)
    k_w = 4
    steps = scaled(scale, 300, 1500, 6000)
    values = random_walk(n_w, steps, seed=6, step_size=4, spread=40).generate()
    n, k = n_w, k_w
    base = run_spec(RunSpec(values, k=k, seed=11, engine="faithful"))

    # --- A2: redundant min ------------------------------------------------
    skip = run_spec(
        RunSpec(
            values, k=k, seed=11, engine="faithful", config=MonitorConfig(skip_redundant_min=True)
        )
    )
    t2 = Table(["variant", "messages", "handler_min msgs"], title="A2: redundant MinimumProtocol")
    t2.add_row(["verbatim listing", base.total_messages, base.by_phase.get("handler_min", 0)])
    t2.add_row(["skip redundant min", skip.total_messages, skip.by_phase.get("handler_min", 0)])
    out.tables.append(t2)
    out.check(
        "skipping the redundant min run saves messages without changing answers",
        f"saved {base.total_messages - skip.total_messages} messages "
        f"({100 * (1 - skip.total_messages / base.total_messages):.1f}%)",
        skip.total_messages <= base.total_messages
        and np.array_equal(base.topk_history, skip.topk_history),
    )

    # --- A3: broadcast policy (standalone protocol measurements) ----------
    reps = scaled(scale, 100, 500, 2000)
    n_proto = 256
    ids = np.arange(n_proto, dtype=np.int64)
    rng_a = derive_rng(31, 0)
    rng_b = derive_rng(31, 0)
    rng_vals = derive_rng(32, 0)
    every_total, improve_total = 0, 0
    cfg_every = ProtocolConfig(broadcast_every_round=True)
    for _ in range(reps):
        vals = rng_vals.permutation(n_proto).astype(np.int64)
        every_total += maximum_protocol(ids, vals, n_proto, rng_a, config=cfg_every).total_messages
        improve_total += maximum_protocol(ids, vals, n_proto, rng_b).total_messages
    t3 = Table(["policy", "mean total msgs (n=256)"], title="A3: round-broadcast policy")
    t3.add_row(["broadcast every round", every_total / reps])
    t3.add_row(["broadcast on improvement", improve_total / reps])
    out.tables.append(t3)
    out.check(
        "broadcast-on-improvement is never more expensive; both stay O(log N)",
        f"every-round {every_total / reps:.2f} vs on-improvement {improve_total / reps:.2f}",
        improve_total <= every_total,
    )
    return out
