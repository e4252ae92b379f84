"""Shared type aliases and small enums used across the package.

The simulation manipulates three kinds of identifiers:

* **node ids** — integers ``0..n-1`` (the paper uses ``1..n``; we use
  0-based ids everywhere and translate only in rendered output),
* **time steps** — integers ``0..T-1`` indexing rows of the value matrix,
* **values** — Python ints / numpy int64; the paper assumes values in
  ``N``; we accept any int64 range.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, TypeAlias

import numpy as np

if TYPE_CHECKING:  # numpy.typing costs an import no run-time path needs
    import numpy.typing as npt

__all__ = [
    "NodeId",
    "TimeStep",
    "Value",
    "ValueMatrix",
    "ValueRow",
    "Side",
    "INT_DTYPE",
]

NodeId: TypeAlias = int
TimeStep: TypeAlias = int
Value: TypeAlias = int

#: Canonical dtype for value matrices.
INT_DTYPE = np.int64

#: A ``(T, n)`` matrix of observations: row ``t`` holds every node's value at
#: time ``t``.
ValueMatrix: TypeAlias = "npt.NDArray[np.int64]"

#: A single time step's observations, shape ``(n,)``.
ValueRow: TypeAlias = "npt.NDArray[np.int64]"


class Side(enum.IntEnum):
    """Which side of the filter boundary a node currently sits on.

    Assigned by ``FilterReset`` and stable until the next reset.  A ``TOP``
    node holds filter ``[M, +inf)``; a ``BOTTOM`` node holds ``(-inf, M]``
    (Lemma 2.2 of the paper with the shared boundary point ``M``).
    """

    BOTTOM = 0
    TOP = 1

    def filter_contains(self, value: float, bound: float) -> bool:
        """Whether ``value`` lies inside this side's filter with bound ``M``."""
        if self is Side.TOP:
            return value >= bound
        return value <= bound
