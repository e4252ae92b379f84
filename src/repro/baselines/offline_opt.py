"""The offline optimal filter-setting algorithm (Theorem 3.3's yardstick).

The competitive analysis charges `OPT` one "communication epoch" per
maximal time interval over which it keeps a *fixed* valid filter set.
Lemma 3.2 characterizes feasibility: a fixed filter set can survive
``[t1, t2]`` if and only if there is a k-set ``S`` with

    min over t in [t1,t2], i in S   of v_i(t)
        >=  max over t in [t1,t2], j not in S  of v_j(t)

(i.e. ``T+(t1,t2) >= T-(t1,t2)`` with ``S`` as top-k).  Such an ``S``, if
it exists, must be a valid top-k set at *every* step of the interval, so it
suffices to test candidates built from the first row's top-k (swapping tied
boundary members).

Because feasibility is closed under shrinking the interval, the greedy
"extend until infeasible, then cut" sweep yields a minimum segmentation —
certified here by an independent O(T^2) dynamic program used in tests.

``opt_segments`` is the count ``r + 1`` from the proof of Theorem 3.3
(``r`` = number of OPT communications): the denominator of every
competitive ratio reported by this reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.errors import ConfigurationError
from repro.util.validation import check_k, check_matrix

__all__ = [
    "segment_feasible",
    "opt_segments",
    "opt_segments_dp",
    "OptResult",
    "opt_result",
]


def _topk_partition_min_max(row: np.ndarray, k: int) -> tuple[np.ndarray, int, int]:
    """Boolean top-k mask for one row (lowest-id tie-break) plus boundary values.

    Returns ``(mask, v_k, v_k1)`` where ``v_k``/``v_k1`` are the k-th and
    (k+1)-st largest values.
    """
    n = row.size
    order = np.lexsort((np.arange(n), -row))
    mask = np.zeros(n, dtype=bool)
    mask[order[:k]] = True
    return mask, int(row[order[k - 1]]), int(row[order[k]])


def _feasible_mask(window: np.ndarray, k: int) -> np.ndarray | None:
    """The first k-mask satisfying Lemma 3.2 on every row of ``window``, or ``None``.

    Candidate sets are derived from the first row: the canonical top-k,
    then the sets that swap tied boundary members (any feasible ``S`` must
    be a top-k set of every row, in particular of the first, and all top-k
    sets of a row differ only in tied boundary members).
    """
    first = window[0]
    mask, v_k, _ = _topk_partition_min_max(first, k)
    if int(window[:, mask].min()) >= int(window[:, ~mask].max()):
        return mask
    # Tie handling: any member at the boundary value may be swapped with a
    # non-member holding the same value.
    tied_members = np.flatnonzero(mask & (first == v_k))
    tied_non = np.flatnonzero(~mask & (first == v_k))
    if tied_non.size == 0:
        return None
    fixed = np.flatnonzero(mask & (first != v_k))
    pool = np.concatenate([tied_members, tied_non])
    for combo in combinations(pool.tolist(), k - fixed.size):
        cand = np.zeros(first.size, dtype=bool)
        cand[fixed] = True
        cand[list(combo)] = True
        if int(window[:, cand].min()) >= int(window[:, ~cand].max()):
            return cand
    return None


def segment_feasible(values: np.ndarray, k: int, start: int, end: int) -> bool:
    """Can one fixed filter set survive rows ``start..end`` inclusive?

    Implements the Lemma 3.2 condition: some candidate of
    :func:`_feasible_mask` holds over the whole segment.
    """
    values = check_matrix(values)
    k, n = check_k(k, values.shape[1])
    if not 0 <= start <= end < values.shape[0]:
        raise ConfigurationError(f"invalid segment [{start}, {end}] for T={values.shape[0]}")
    if k == n:
        return True
    return _feasible_mask(values[start : end + 1], k) is not None


def opt_segments(values: np.ndarray, k: int) -> list[tuple[int, int]]:
    """Minimum segmentation of the timeline into filter-feasible intervals.

    Greedy maximal extension; returns inclusive ``(start, end)`` pairs
    covering ``0..T-1``.  Runs in ``O(T · n)`` using running column-extrema
    (re-testing tie swaps only when the cheap test fails).
    """
    values = check_matrix(values)
    k, n = check_k(k, values.shape[1])
    T = values.shape[0]
    if k == n:
        return [(0, T - 1)]
    segments: list[tuple[int, int]] = []
    start = 0
    while start < T:
        mask, _, _ = _topk_partition_min_max(values[start], k)
        run_min = int(values[start, mask].min())
        run_max = int(values[start, ~mask].max())
        end = start
        t = start + 1
        while t < T:
            new_min = min(run_min, int(values[t, mask].min()))
            new_max = max(run_max, int(values[t, ~mask].max()))
            if new_min >= new_max:
                run_min, run_max = new_min, new_max
                end = t
                t += 1
                continue
            # The canonical candidate failed; fall back to the exhaustive
            # tie-aware search before giving up on extending to ``t``.
            window = values[start : t + 1]
            swapped = _feasible_mask(window, k)
            if swapped is None:
                break
            # A swapped candidate works; rebuild state for it.
            mask = swapped
            run_min = int(window[:, mask].min())
            run_max = int(window[:, ~mask].max())
            end = t
            t += 1
        segments.append((start, end))
        start = end + 1
    return segments


def opt_segments_dp(values: np.ndarray, k: int) -> int:
    """Minimum number of feasible segments via dynamic programming.

    ``O(T^2)`` reference implementation used to certify the greedy sweep in
    tests (invariant I6).  Exploits prefix-closure: for each start ``s`` the
    feasible ends form a contiguous range, found by scanning once.
    """
    values = check_matrix(values)
    k, n = check_k(k, values.shape[1])
    T = values.shape[0]
    if k == n:
        return 1
    # max_end[s] = furthest end such that [s, end] is feasible.
    max_end = np.empty(T, dtype=np.int64)
    for s in range(T):
        e = s
        while e + 1 < T and segment_feasible(values, k, s, e + 1):
            e += 1
        max_end[s] = e
    # DP over cut positions.
    INF = T + 1
    best = np.full(T + 1, INF, dtype=np.int64)
    best[T] = 0
    for s in range(T - 1, -1, -1):
        for e in range(s, max_end[s] + 1):
            cand = 1 + best[e + 1]
            if cand < best[s]:
                best[s] = cand
    return int(best[0])


@dataclass(frozen=True)
class OptResult:
    """Summary of the offline optimum on one instance.

    ``segments`` — the minimum feasible segmentation;
    ``communications`` — the paper's ``r`` (= ``len(segments) - 1``);
    ``epochs`` — ``r + 1``, the competitive-ratio denominator.
    """

    segments: tuple[tuple[int, int], ...]

    @property
    def epochs(self) -> int:
        """``r + 1``: one epoch per fixed filter set."""
        return len(self.segments)

    @property
    def communications(self) -> int:
        """Number of filter updates after initialization."""
        return len(self.segments) - 1

    def boundaries(self) -> list[int]:
        """Times at which OPT installs a new filter set (excluding t=0)."""
        return [s for s, _ in self.segments[1:]]

    def messages_lower_bound(self, values: np.ndarray, k: int) -> int:
        """A stronger OPT accounting: count filter *messages*, not epochs.

        The paper's Summary notes "our analysis only depends on the number
        of filter updates the algorithm communicates. It might be
        interesting to also investigate the number of messages sent by the
        nodes ... to get stronger bounds on the optimal filter-based
        algorithm".  This method implements the natural such bound: at each
        segment boundary OPT must move at least one shared bound (1
        broadcast) and re-side every node whose membership flips (>= the
        symmetric difference of consecutive top-k sets, chargeable as
        unicasts); initialization costs k+1 discoveries at minimum.

        Using this as the competitive denominator *lowers* measured ratios
        (the denominator grows), i.e. it strengthens the paper's result —
        reported as an extra column in E4.

        At ``k == n`` the bound is 0: the top-k set is every node, so there
        is no boundary pair to learn and no filter to move, and every
        engine charges 0 messages there.
        """
        values = check_matrix(values)
        k, n = check_k(k, values.shape[1])
        if k == n:
            return 0
        total = k + 1  # initialization must at least learn the boundary pair
        prev_mask: np.ndarray | None = None
        for start, end in self.segments:
            mask = _feasible_mask(values[start : end + 1], k)
            if prev_mask is not None:
                flips = int(np.count_nonzero(mask != prev_mask))
                total += 1 + flips  # bound broadcast + membership changes
            prev_mask = mask
        return total


def opt_result(values: np.ndarray, k: int) -> OptResult:
    """Run the offline optimum; convenience wrapper over :func:`opt_segments`."""
    return OptResult(segments=tuple(opt_segments(values, k)))
