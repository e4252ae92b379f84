"""E3 — Theorem 4.3: the Ω(log n) lower bound is real and nearly tight.

Claim: every randomized maximum algorithm needs Ω(log n) messages on
expectation.  The proof's witness is the deterministic sequential-probe
algorithm on a uniform random permutation, whose answer count equals the
number of left-to-right maxima — expectation ``H_n`` (the BST path length
cited from Sedgewick/Flajolet).

Method: (a) measure the sequential baseline's answers over random
permutations and check they match ``H_n``; (b) measure Algorithm 2 on the
same instances and check it sits within a constant factor of ``H_n`` —
together: the protocol is asymptotically optimal (the Sect. 4 conclusion).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.records import expected_records
from repro.analysis.stats import summarize
from repro.baselines.sequential_max import sequential_max
from repro.core.protocols import maximum_protocol
from repro.experiments.spec import ExperimentOutput, register, scaled
from repro.util.ascii_plot import line_plot
from repro.util.seeding import derive_rng
from repro.util.tables import Table


@register("e3", "Ω(log n) lower bound: sequential probing pays H_n; Algorithm 2 is near it")
def run(scale: str = "default") -> ExperimentOutput:
    """Regenerate the E3 table."""
    out = ExperimentOutput(
        exp_id="e3",
        title="Ω(log n) lower bound: sequential probing pays H_n; Algorithm 2 is near it",
        claim="Theorem 4.3: E[messages] = Ω(log n); records of a random permutation have mean H_n",
    )
    ns = scaled(scale, [16, 64, 256], [16, 64, 256, 1024], [16, 64, 256, 1024, 4096, 16384])
    reps = scaled(scale, 100, 500, 3000)
    table = Table(
        ["n", "H_n", "seq answers (mean)", "protocol msgs (mean)", "protocol/H_n"],
        title="E3",
    )
    xs, h_series, seq_series, proto_series = [], [], [], []
    max_dev = 0.0
    max_ratio = 0.0
    for n in ns:
        rng_vals = derive_rng(303, n, 0)
        rng_proto = derive_rng(303, n, 1)
        ids = np.arange(n, dtype=np.int64)
        seq_counts, proto_counts = [], []
        for _ in range(reps):
            perm = rng_vals.permutation(n).astype(np.int64)
            seq_counts.append(sequential_max(perm).answers)
            # sanity: the answers are exactly the records of the sequence
            proto_counts.append(maximum_protocol(ids, perm, n, rng_proto).node_messages)
        h = expected_records(n)
        seq_s, proto_s = summarize(seq_counts), summarize(proto_counts)
        dev = abs(seq_s.mean - h) / h
        ratio = proto_s.mean / h
        max_dev = max(max_dev, dev)
        max_ratio = max(max_ratio, ratio)
        table.add_row([n, h, seq_s.mean, proto_s.mean, ratio])
        xs.append(np.log2(n))
        h_series.append(h)
        seq_series.append(seq_s.mean)
        proto_series.append(proto_s.mean)
    out.tables.append(table)
    out.figures.append(
        line_plot(
            xs,
            {"H_n": h_series, "sequential": seq_series, "protocol": proto_series},
            title="E3: both costs grow as Θ(log n)",
            x_label="log2 n",
        )
    )
    out.check(
        "sequential answers match the H_n prediction (within CI noise)",
        f"max relative deviation from H_n = {max_dev:.3f}",
        max_dev <= 0.10,
    )
    out.check(
        "Algorithm 2 sits within a constant factor of the lower-bound witness",
        f"max protocol/H_n over the sweep = {max_ratio:.3f}",
        max_ratio <= 4.0,
    )
    # The ratio should stabilize, not grow: compare first vs last.
    out.check(
        "protocol/H_n does not grow with n (asymptotic optimality)",
        f"ratio at n={ns[0]}: {proto_series[0]/h_series[0]:.3f}; at n={ns[-1]}: {proto_series[-1]/h_series[-1]:.3f}",
        proto_series[-1] / h_series[-1] <= proto_series[0] / h_series[0] * 1.5,
    )
    return out
