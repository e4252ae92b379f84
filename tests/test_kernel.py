"""The filter kernel (repro/engine/kernel.py): the one quietness layer.

Every entry point — scalar ``violates``, id-producing ``violators``, the
stacked sweep check, and the ``scan_quiet`` block lookahead (the one
lookahead, shared by the fast engine and the service) — must agree with
the brute-force doubled comparison
``sides & (2·v < M2) | ~sides & (2·v > M2)`` on arbitrary states,
including negative values and odd (half-integer midpoint) bounds.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.kernel import (
    FilterState,
    violates_stacked,
    violates_value,
)
from repro.errors import ConfigurationError


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
