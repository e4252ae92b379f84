"""E2 — Theorem 4.2 (concentration): O(log N) with high probability.

Claim: for any fixed ``c > 1`` the message count is ``O(log N)`` with
probability at least ``1 − 1/N^c`` — i.e. the upper tail decays
polynomially in N (via Chernoff under negative correlation).

Method: fix several n, sample many protocol executions, and report the
empirical ``P[X > c · (2·log2 n + 1)]`` for growing ``c``.  The paper
predicts a fast (empirically super-geometric) decay in ``c`` and smaller
tails for larger n at the same ``c``.

Sampling runs through :func:`repro.analysis.sweeps.run_sweep` (one point
per n, one repetition per execution), so the experiment CLI's
``--backend``/``--workers``/``--checkpoint-dir``/``--resume`` apply.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.bounds import max_protocol_expected_bound
from repro.analysis.stats import tail_probability
from repro.analysis.sweeps import run_sweep
from repro.core.protocols import maximum_protocol
from repro.experiments.spec import ExperimentOutput, register, scaled
from repro.util.seeding import derive_rng
from repro.util.tables import Table


def permutation_messages(rng_seed: int, n: int) -> float:
    """``run_sweep`` measure: node messages over one random permutation.

    Module-level (picklable) so the process and queue backends can run it.
    """
    rng_protocol = derive_rng(rng_seed, 1)
    rng_values = derive_rng(rng_seed, 2)
    ids = np.arange(n, dtype=np.int64)
    vals = rng_values.permutation(n).astype(np.int64)
    return float(maximum_protocol(ids, vals, n, rng_protocol).node_messages)


def sample_counts(n: int, reps: int, seed: int) -> np.ndarray:
    """Node-message counts over ``reps`` random permutations (one-point sweep)."""
    sweep = run_sweep(
        f"e2_tail_n{n}", [{"n": n}], permutation_messages, repetitions=reps, seed=seed
    )
    return np.asarray(sweep.points[0].samples)


@register("e2", "MaximumProtocol tail: P[X > c·bound] decays quickly")
def run(scale: str = "default") -> ExperimentOutput:
    """Regenerate the E2 table."""
    out = ExperimentOutput(
        exp_id="e2",
        title="MaximumProtocol tail: P[X > c·bound] decays quickly",
        claim="Theorem 4.2 (whp): messages are O(log N) with probability 1 - 1/N^c",
    )
    ns = scaled(scale, [64, 256], [64, 256, 1024], [64, 256, 1024, 4096])
    reps = scaled(scale, 400, 3000, 20000)
    cs = [1.0, 1.25, 1.5, 2.0, 2.5]
    table = Table(["n", "bound"] + [f"P[X>{c}b]" for c in cs], float_fmt="{:.4f}", title="E2")
    sweep = run_sweep(
        "e2_tail", [{"n": n} for n in ns], permutation_messages, repetitions=reps, seed=202
    )
    tails_by_n = {}
    for point in sweep.points:
        n = point["n"]
        counts = np.asarray(point.samples)
        bound = max_protocol_expected_bound(n)
        tails = [tail_probability(counts, c * bound) for c in cs]
        tails_by_n[n] = tails
        table.add_row([n, bound] + tails)
    out.tables.append(table)
    monotone_in_c = all(
        all(a >= b - 1e-12 for a, b in zip(t, t[1:])) for t in tails_by_n.values()
    )
    out.check(
        "tails decay monotonically in c",
        "; ".join(f"n={n}: {['%.4f' % t for t in ts]}" for n, ts in tails_by_n.items()),
        monotone_in_c,
    )
    small_at_2 = all(ts[3] <= 0.02 for ts in tails_by_n.values())
    out.check(
        "P[X > 2·bound] is already tiny (<= 2%)",
        f"max over n: {max(ts[3] for ts in tails_by_n.values()):.4f}",
        small_at_2,
    )

    # Reproduction finding: the proof's negative-correlation step.  The
    # paper argues P[∀i∈I: X_i = 1] <= ∏ P[X_i = 1] ("observing the event
    # that a node sends can only decrease the probability of sending of
    # another node") to apply a Chernoff bound.  Measuring the pairwise
    # case shows the OPPOSITE sign for nearby ranks: both indicators share
    # the common cause "higher-ranked coins succeeded late", so
    # P[X_i ∧ X_j] exceeds the product.  The theorem's *conclusion* (the
    # tails above) still holds; only this proof step does not survive
    # empirical scrutiny (tests/test_properties.py pins the finding).
    corr_n, corr_reps = 16, scaled(scale, 2000, 8000, 40000)
    diffs = _pairwise_correlation(corr_n, corr_reps, seed=707)
    corr_table = Table(
        ["rank i", "rank j", "P[Xi]", "P[Xj]", "P[Xi∧Xj]", "P - PiPj"],
        float_fmt="{:.4f}",
        title="E2b: sender-indicator correlation (reproduction finding)",
    )
    for row in diffs:
        corr_table.add_row(row)
    out.tables.append(corr_table)
    adjacent_excess = diffs[0][5]
    out.check(
        "FINDING: the proof's negative-correlation claim fails pairwise "
        "(adjacent ranks are positively correlated) while the whp conclusion holds",
        f"P[X1∧X2] − P[X1]·P[X2] = {adjacent_excess:+.4f} (> 0 by many std errors)",
        adjacent_excess > 0,
    )
    return out


def _pairwise_correlation(n: int, reps: int, seed: int) -> list[list]:
    """Empirical joint/product probabilities for selected rank pairs."""
    from repro.model.message import MessageKind
    from repro.model.transport import RecordingTransport

    rng = derive_rng(seed, 0)
    ids = np.arange(n)
    vals = np.arange(n, dtype=np.int64)[::-1].copy()  # node id == rank
    sent = np.zeros((reps, n), dtype=bool)
    for rep in range(reps):
        tr = RecordingTransport()
        maximum_protocol(ids, vals, n, rng, tr)
        for m in tr.of_kind(MessageKind.NODE_TO_COORD):
            sent[rep, m.payload[0]] = True
    rows = []
    for i, j in [(1, 2), (2, 3), (1, 4), (4, 8), (1, n - 1)]:
        pi, pj = float(sent[:, i].mean()), float(sent[:, j].mean())
        pij = float((sent[:, i] & sent[:, j]).mean())
        rows.append([i, j, pi, pj, pij, pij - pi * pj])
    return rows
