"""The paper's theoretical bounds as concrete functions.

Every experiment reports measured quantities next to these formulas so its
tables can show measured/bound ratios directly.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError

__all__ = [
    "max_protocol_expected_bound",
    "max_protocol_lower_bound",
    "competitive_bound",
    "ordered_conjecture_bound",
]


def max_protocol_expected_bound(upper_bound: int) -> float:
    """Theorem 4.2: ``E[node messages] <= 2 * log2(N) + 1``.

    ``N`` is the upper bound on participants passed to Algorithm 2 (not the
    actual participant count).
    """
    if upper_bound < 1:
        raise ConfigurationError(f"N must be >= 1, got {upper_bound}")
    if upper_bound == 1:
        return 1.0
    return 2.0 * math.log2(upper_bound) + 1.0


def max_protocol_lower_bound(n: int) -> float:
    """Theorem 4.3's ``Ω(log n)``, instantiated with the BST-path constant.

    The proof reduces to the expected root-to-max path length in a random
    binary search tree, which is the harmonic number ``H_n ~ ln n``; we use
    ``H_n`` as the concrete comparator in E3.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    return sum(1.0 / i for i in range(1, n + 1))


def competitive_bound(delta: int, k: int, n: int, *, constant: float = 1.0) -> float:
    """Theorem 4.4 shape: ``(log2(Δ) + k) * log2(n)``, scaled by ``constant``.

    Δ <= 1 contributes nothing (log term clamps at 1 to keep the bound
    positive for degenerate instances); ``n`` below 2 clamps similarly.
    """
    if k < 1 or n < 1:
        raise ConfigurationError("k and n must be >= 1")
    if delta < 0:
        raise ConfigurationError("delta must be >= 0")
    log_delta = math.log2(delta) if delta >= 2 else 1.0
    log_n = math.log2(n) if n >= 2 else 1.0
    return constant * (log_delta + k) * log_n


def ordered_conjecture_bound(delta: int, k: int, n: int, *, constant: float = 1.0) -> float:
    """Section 5 conjecture shape: ``log2(Δ) * log2(n - k)`` (clamped).

    The conjecture concerns the ordered-top-k variant; E9 plots measured
    per-epoch message counts against this shape.
    """
    if not 1 <= k < n:
        raise ConfigurationError("requires 1 <= k < n")
    if delta < 0:
        raise ConfigurationError("delta must be >= 0")
    log_delta = math.log2(delta) if delta >= 2 else 1.0
    log_nk = math.log2(n - k) if n - k >= 2 else 1.0
    return constant * log_delta * log_nk
