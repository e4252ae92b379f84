"""The filter kernel (repro/engine/kernel.py): the one quietness layer.

Every entry point — scalar ``violates``, id-producing ``violators``, the
stacked sweep check, and the ``scan_quiet`` block lookahead (the one
lookahead, shared by the fast engine and the service) — must agree with
the brute-force doubled comparison
``sides & (2·v < M2) | ~sides & (2·v > M2)`` on arbitrary states,
including negative values and odd (half-integer midpoint) bounds, and
with its exact Python-int form over the whole int64 range.

The kernel's Algorithm-2 pricing is held to two references: a reset's
one-pass pricing to the same ``k+1`` sweeps priced one execution at a
time, and the first-send sampler's law to a fresh coin per round.
"""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocols import maximum_protocol, minimum_protocol
from repro.engine import kernel
from repro.engine.kernel import (
    PHASES,
    FilterState,
    first_send_table,
    protocol_run,
    reset_sweeps,
    violates_stacked,
    violates_value,
)
from repro.errors import ConfigurationError
from repro.util.intmath import ceil_log2


def _random_state(rng: np.random.Generator, n: int) -> FilterState:
    """A consistent installed state with random partition and bound."""
    k = int(rng.integers(1, n))
    top = rng.choice(n, size=k, replace=False)
    sides = np.zeros(n, dtype=bool)
    sides[top] = True
    v_k = int(rng.integers(-50, 50))
    v_k1 = v_k - int(rng.integers(0, 7))  # m2 may be odd: half-integer midpoint
    state = FilterState.blank(n)
    state.install(np.sort(top), v_k, v_k1)
    return state


def _brute_violates(state: FilterState, row: np.ndarray) -> bool:
    doubled = 2 * row
    return bool(
        ((state.sides & (doubled < state.m2)) | (~state.sides & (doubled > state.m2))).any()
    )


def _brute_scan(state: FilterState, block: np.ndarray, start: int) -> int:
    """The reference for ``scan_quiet``: the per-row loop."""
    return next(
        (t for t in range(start, block.shape[0]) if _brute_violates(state, block[t])),
        block.shape[0],
    )


# First and last row of each scan chunk, as offsets from ``start``: the
# chunks are 16, 64, 256 and 1,024 rows, then 4,096.
_CHUNK_EDGES = (0, 15, 16, 79, 80, 335, 336, 1359, 1360)


@st.composite
def _scan_cases(draw):
    """A state, a mostly quiet block, a start, and at most one planted
    violating row anywhere in the block."""
    n = draw(st.integers(2, 9))
    k = draw(st.integers(1, n - 1))
    if draw(st.booleans()):
        first = draw(st.integers(0, n - k))
        top = list(range(first, first + k))
    else:
        top = sorted(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)))
    m2 = draw(st.integers(-40, 40))  # odd and even, negative and positive
    lo, hi = -(-m2 // 2), m2 // 2  # ceil(M2/2) + floor(M2/2) = M2
    state = FilterState.blank(n)
    state.install(top, lo, hi)
    rows = draw(st.integers(1, 1500))
    start = draw(st.one_of(st.integers(0, min(40, rows)), st.integers(0, rows)))
    # Quiet values: TOP at or above ceil(M2/2), BOTTOM at or below
    # floor(M2/2), a third of them exactly on the threshold.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offsets = rng.integers(0, 3, size=(rows, n))
    block = np.where(state.sides, lo + offsets, hi - offsets).astype(np.int64)
    edges = [start + e for e in _CHUNK_EDGES if start + e < rows]
    where = draw(st.one_of(
        st.none(),
        st.integers(0, rows - 1),
        st.sampled_from(edges) if edges else st.none(),
    ))
    if where is not None:
        node = draw(st.integers(0, n - 1))
        past = draw(st.integers(1, 3))  # 1: just across the threshold
        block[where, node] = lo - past if state.sides[node] else hi + past
    return state, block, start


class TestFilterState:
    def test_blank_and_install(self):
        state = FilterState.blank(5)
        assert not state.sides.any()
        assert state.top_ids.size == 0 and state.bot_ids.size == 5
        state.install([0, 3], 10, 7)
        assert state.top_ids.tolist() == [0, 3]
        assert state.bot_ids.tolist() == [1, 2, 4]
        assert (state.m2, state.t_plus, state.t_minus) == (17, 10, 7)

    @pytest.mark.parametrize("seed", range(20))
    def test_violates_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        state = _random_state(rng, n)
        for _ in range(50):
            row = rng.integers(-60, 60, size=n)
            assert state.violates(row) == _brute_violates(state, row)
            viol_top, viol_bot = state.violators(row)
            doubled = 2 * row
            assert viol_top.tolist() == np.flatnonzero(state.sides & (doubled < state.m2)).tolist()
            assert viol_bot.tolist() == np.flatnonzero(~state.sides & (doubled > state.m2)).tolist()

    @pytest.mark.parametrize("seed", range(10))
    def test_scan_quiet_matches_per_row(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 10))
        state = _random_state(rng, n)
        # Mostly-quiet block: values near the midpoint band, rare excursions.
        block = rng.integers(-5, 5, size=(200, n)) + state.m2 // 2
        assert state.scan_quiet(block) == _brute_scan(state, block, 0)
        # And from an arbitrary start offset.
        start = int(rng.integers(0, block.shape[0]))
        assert state.scan_quiet(block, start) == _brute_scan(state, block, start)

    @settings(max_examples=150, deadline=None)
    @given(_scan_cases())
    def test_scan_quiet_matches_brute_force_past_first_chunk(self, case):
        """Quiet chunks are skipped whole and the first violation is still
        found exactly, at every chunk edge and from any start."""
        state, block, start = case
        assert state.scan_quiet(block, start) == _brute_scan(state, block, start)

    def test_scan_quiet_fully_quiet_block(self):
        state = FilterState.blank(4)
        state.install([0, 1], 100, 100)  # m2 = 200, M = 100
        block = np.full((500, 4), 100, dtype=np.int64)
        assert state.scan_quiet(block) == 500

    def test_absorb_and_rebound(self):
        state = FilterState.blank(4)
        state.install([0], 10, 8)  # m2 = 18
        assert state.absorb(9, 8) is False  # t_plus 9 >= t_minus 8: halve
        assert state.rebound() == 17
        assert state.absorb(5, 8) is True  # extremes crossed: reset needed

    def test_violates_value_scalar_form(self):
        assert violates_value(4, True, 9)  # TOP: 8 < 9
        assert not violates_value(5, True, 9)  # 10 >= 9
        assert violates_value(5, False, 9)  # BOTTOM: 10 > 9
        assert not violates_value(4, False, 9)

    def test_reads_sides_not_cache(self):
        """External partition corruption must be observed (the monitor's
        failure-injection suite relies on exactly this)."""
        state = FilterState.blank(4)
        state.install([0, 1], 10, 8)
        row = np.array([10, 10, 2, 2])
        assert not state.violates(row)
        state.sides[3] = True  # corrupt without refreshing the cache
        assert state.violates(row)  # node 3: TOP with 2·2 < 18


class TestStacked:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_per_state_violates(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 10))
        states = [_random_state(rng, n) for _ in range(12)]
        rows = rng.integers(-60, 60, size=(12, n))
        noisy = violates_stacked(rows, states)
        assert noisy.tolist() == [s.violates(r) for s, r in zip(states, rows)]


_I64 = np.iinfo(np.int64)

# Any int64, with the edges (where doubling or negating wraps) drawn often.
_FULL_RANGE = st.one_of(
    st.sampled_from([_I64.min, _I64.min + 1, -1, 0, 1, _I64.max - 1, _I64.max]),
    st.integers(_I64.min, _I64.max),
)


def _exact_violators(state: FilterState, row: np.ndarray) -> tuple[list, list]:
    """The doubled comparison in Python ints, which never wrap."""
    values = row.tolist()
    top = [i for i in range(state.n) if state.sides[i] and 2 * values[i] < state.m2]
    bottom = [i for i in range(state.n) if not state.sides[i] and 2 * values[i] > state.m2]
    return top, bottom


class TestFullRange:
    """Every check compares raw values with the thresholds of ``M2``, so no
    int64 value or bound wraps, however close to ``±2^63``."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_every_check_matches_exact_doubling(self, data):
        n = data.draw(st.integers(2, 8), label="n")
        states = []
        for _ in range(data.draw(st.integers(1, 5), label="sessions")):
            k = data.draw(st.integers(1, n - 1))
            top = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
            state = FilterState.blank(n)
            state.install(sorted(top), data.draw(_FULL_RANGE), data.draw(_FULL_RANGE))
            states.append(state)
        depth = data.draw(st.integers(len(states), 40), label="rows")
        rows = np.array(
            data.draw(st.lists(st.lists(_FULL_RANGE, min_size=n, max_size=n),
                               min_size=depth, max_size=depth)),
            dtype=np.int64,
        )
        for state, row in zip(states, rows):
            top, bottom = _exact_violators(state, row)
            viol_top, viol_bot = state.violators(row)
            assert (viol_top.tolist(), viol_bot.tolist()) == (top, bottom)
            assert state.violates(row) == bool(top or bottom)
        expected = [any(_exact_violators(s, r)) for s, r in zip(states, rows)]
        assert violates_stacked(rows[: len(states)], states).tolist() == expected
        noisy = [any(_exact_violators(states[0], row)) for row in rows]
        start = data.draw(st.integers(0, depth), label="start")
        assert states[0].scan_quiet(rows, start) == next(
            (t for t in range(start, depth) if noisy[t]), depth
        )

    def test_stacked_bound_past_int64(self):
        """A bound of two extremes near ``2^63`` leaves int64; the stacked
        check then takes exact thresholds per state."""
        high, low = FilterState.blank(2), FilterState.blank(2)
        high.install([1], _I64.max, _I64.max - 2)  # M2 = 2^64 - 4
        low.install([0], _I64.min, _I64.min)  # M2 = -2^64
        rows = np.array([[_I64.max, _I64.max - 2], [_I64.min, _I64.min]], dtype=np.int64)
        assert violates_stacked(rows, [high, low]).tolist() == [True, False]
        assert [high.violates(rows[0]), low.violates(rows[1])] == [True, False]


class TestSnapshot:
    def test_round_trip_is_json_safe_and_exact(self):
        rng = np.random.default_rng(11)
        state = _random_state(rng, 9)
        data = json.loads(json.dumps(state.snapshot()))
        back = FilterState.from_snapshot(data)
        assert np.array_equal(back.sides, state.sides)
        assert back.top_ids.tolist() == state.top_ids.tolist()
        assert back.bot_ids.tolist() == state.bot_ids.tolist()
        assert (back.m2, back.t_plus, back.t_minus) == (state.m2, state.t_plus, state.t_minus)
        row = rng.integers(-60, 60, size=9)
        assert back.violates(row) == state.violates(row)

    def test_schema_guard(self):
        state = FilterState.blank(3)
        data = state.snapshot()
        data["schema"] = 99
        with pytest.raises(ConfigurationError):
            FilterState.from_snapshot(data)


def _per_round_coins(ids, keyed, upper_bound, rng):
    """Algorithm 2 with a fresh coin per round: the convention before 7.0,
    kept as the oracle for the first-send sampler's law.

    Every round draws ``rng.random(#active)`` over the active participants
    in ascending id order; senders leave, and a strictly larger value is
    broadcast and deactivates every participant below it.  Returns
    ``(winner_id, keyed_value, node_messages, round_broadcasts)``.
    """
    n_rounds = ceil_log2(upper_bound) + 1 if upper_bound > 1 else 1
    act_ids, act_keyed = ids, keyed
    best, best_id, node_msgs, bcasts = None, -1, 0, 0
    for r in range(n_rounds):
        if act_ids.size == 0:
            break
        sent = rng.random(act_ids.size) < min(1.0, (2.0**r) / upper_bound)
        if not sent.any():
            continue
        node_msgs += int(sent.sum())
        j = int(np.flatnonzero(sent)[act_keyed[sent].argmax()])
        if best is None or act_keyed[j] > best:
            best, best_id = int(act_keyed[j]), int(act_ids[j])
            bcasts += 1
            keep = (act_keyed >= best) & ~sent
        else:
            keep = ~sent
        act_ids, act_keyed = act_ids[keep], act_keyed[keep]
    return best_id, best, node_msgs, bcasts


def _blank_counts() -> dict[str, int]:
    return {p: 0 for p in PHASES}


class TestFirstSendPricing:
    @pytest.mark.parametrize("upper", [1, 2, 3, 8, 56, 64, 1000, 4096])
    def test_table_is_the_cumulative_first_success_law(self, upper):
        table = first_send_table(upper)
        n_rounds = ceil_log2(upper) + 1 if upper > 1 else 1
        p = np.minimum(1.0, 2.0 ** np.arange(n_rounds) / upper)
        cdf = table.ravel()
        assert table.shape == (n_rounds, 1)
        assert cdf[-1] == 1.0
        assert np.all(np.diff(cdf) > 0)
        assert np.allclose(cdf, 1.0 - np.cumprod(1.0 - p))
        assert first_send_table(upper) is table  # one memoized table per N
        assert not table.flags.writeable

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_pricing_matches_the_round_by_round_protocol(self, data):
        """One execution priced in array passes equals the faithful
        protocol, which clocks the same coins round by round: winner,
        value, node messages, broadcasts and PCG64 state — with ties, a
        bound above the participant count, and both int64 extremes on
        either side (a key equal to the empty-round sentinel must be told
        apart by presence, not by value, and a minimum keyed by ``~v``
        never wraps)."""
        m = data.draw(st.integers(1, 40), label="m")
        upper = data.draw(st.integers(m, 3 * m), label="upper")
        sign = data.draw(st.sampled_from([1, -1]), label="sign")
        edges = [np.iinfo(np.int64).min, -1, 0, 2, 5, np.iinfo(np.int64).max]
        values = np.array(
            data.draw(st.lists(st.sampled_from(edges), min_size=m, max_size=m)),
            dtype=np.int64,
        )
        ids = np.sort(np.array(data.draw(
            st.lists(st.integers(0, 99), min_size=m, max_size=m, unique=True)
        ), dtype=np.int64))
        row = np.zeros(100, dtype=np.int64)
        row[ids] = values
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")

        counts, rng = _blank_counts(), np.random.default_rng(seed)
        out = protocol_run(ids, row, upper, sign, "handler_max", False, counts, rng)
        ref_rng = np.random.default_rng(seed)
        protocol = maximum_protocol if sign > 0 else minimum_protocol
        ref = protocol(ids, values, upper, ref_rng)
        assert out == (ref.winner, ref.value)
        assert (counts["handler_max"], counts["protocol_round"]) == (ref.node_messages, ref.broadcasts)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_one_pass_reset_equals_sweeps_in_order(self, data):
        """Pricing the k+1 sweeps together — in groups under any cap — gives
        the winners, per-phase counts and PCG64 state of k+1 executions
        priced one at a time in sweep order."""
        n = data.draw(st.integers(2, 90), label="n")
        k = data.draw(st.integers(1, n - 1), label="k")
        # 1, 3: many ties; 2^63 - 1: the whole int64 range, whose minimum
        # a ranking keyed by negation would wrap.
        spread = data.draw(st.sampled_from([1, 3, 10**6, _I64.max]), label="spread")
        row = np.array(
            data.draw(st.lists(st.integers(~spread, spread), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        cap = data.draw(st.sampled_from([1, n + 1, 3 * n, kernel._PRICE_CAP]), label="cap")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")

        one_pass, one_rng = _blank_counts(), np.random.default_rng(seed)
        with mock.patch.object(kernel, "_PRICE_CAP", cap):
            winners, values = reset_sweeps(row, k, one_pass, one_rng)

        swept, sweep_rng = _blank_counts(), np.random.default_rng(seed)
        remaining = np.ones(n, dtype=bool)
        expected = []
        for _ in range(k + 1):
            out = protocol_run(
                np.flatnonzero(remaining), row, n, +1, "reset_protocol", True,
                swept, sweep_rng,
            )
            expected.append(out)
            remaining[out[0]] = False

        assert list(zip(winners, values)) == expected
        assert one_pass == swept
        assert one_rng.bit_generator.state == sweep_rng.bit_generator.state

    @pytest.mark.parametrize("upper", [8, 64, 256])
    def test_first_send_law_matches_per_round_coins(self, upper):
        """Drawing each participant's first-success round once has the law of
        a fresh coin per round: over 20,000 seeded executions each, the mean
        node messages, round broadcasts and their total agree within 4
        standard errors, their empirical CDFs never differ by more than
        0.03 (a two-sample DKW bound with false-alarm odds near 1e-6), and
        node messages and totals have the same 50/90/99% quantiles.
        Winners agree in every execution."""
        reps = 20_000
        ids = np.arange(upper, dtype=np.int64)
        values = np.arange(upper, dtype=np.int64)  # ascending: the costly order
        old_rng = np.random.default_rng(1000 + upper)
        new_rng = np.random.default_rng(2000 + upper)
        counts = _blank_counts()
        old = np.empty((reps, 2), dtype=np.int64)
        new = np.empty((reps, 2), dtype=np.int64)
        for i in range(reps):
            winner, _, msgs, bcasts = _per_round_coins(ids, values, upper, old_rng)
            old[i] = msgs, bcasts
            before = counts["handler_max"], counts["protocol_round"]
            out = protocol_run(ids, values, upper, +1, "handler_max", False, counts, new_rng)
            new[i] = counts["handler_max"] - before[0], counts["protocol_round"] - before[1]
            assert out[0] == winner == upper - 1
        samples = {
            "node messages": (old[:, 0], new[:, 0]),
            "broadcasts": (old[:, 1], new[:, 1]),
            "total": (old.sum(axis=1), new.sum(axis=1)),
        }
        for name, (a, b) in samples.items():
            se = np.sqrt(a.var(ddof=1) / reps + b.var(ddof=1) / reps)
            assert abs(a.mean() - b.mean()) <= 4 * se, (name, a.mean(), b.mean(), se)
            grid = np.arange(min(a.min(), b.min()), max(a.max(), b.max()) + 1)
            gap = np.abs(
                np.searchsorted(np.sort(a), grid, side="right")
                - np.searchsorted(np.sort(b), grid, side="right")
            ).max() / reps
            assert gap <= 0.03, (name, gap)
        for name in ("node messages", "total"):
            a, b = samples[name]
            q = [0.5, 0.9, 0.99]
            assert np.array_equal(
                np.quantile(a, q, method="inverted_cdf"), np.quantile(b, q, method="inverted_cdf")
            ), name
