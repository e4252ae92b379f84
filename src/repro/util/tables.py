"""Plain-text table rendering for experiment reports.

The experiment harness prints every regenerated table in a fixed-width ASCII
format (and can emit Markdown for the experiments CLI's ``--markdown`` report).  No third-party
pretty-printers are used so benchmark output stays dependency-free and easy
to diff across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

__all__ = ["format_cell", "Table"]


def format_cell(value: Any, *, float_fmt: str = "{:.3f}") -> str:
    """Render one cell: floats via ``float_fmt``, ints verbatim, None as '-'."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value in (float("inf"), float("-inf")):
            return "inf" if value > 0 else "-inf"
        return float_fmt.format(value)
    return str(value)


@dataclass
class Table:
    """A small column-aligned table builder.

    >>> t = Table(["n", "mean", "bound"], title="E1")
    >>> t.add_row([16, 7.81, 9.0])
    >>> print(t.render())  # doctest: +ELLIPSIS
    E1
    ...
    """

    columns: Sequence[str]
    title: str | None = None
    float_fmt: str = "{:.3f}"
    rows: list[list[str]] = field(default_factory=list)

    def add_row(self, values: Iterable[Any]) -> None:
        """Append a row; must match the column count."""
        row = [format_cell(v, float_fmt=self.float_fmt) for v in values]
        if len(row) != len(self.columns):
            raise ValueError(f"row has {len(row)} cells, table has {len(self.columns)} columns")
        self.rows.append(row)

    def add_rows(self, rows: Iterable[Iterable[Any]]) -> None:
        """Append several rows."""
        for row in rows:
            self.add_row(row)

    def _widths(self) -> list[int]:
        widths = [len(str(c)) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        return widths

    def render(self) -> str:
        """Render as an aligned ASCII table."""
        widths = self._widths()
        header = "  ".join(str(c).ljust(w) for c, w in zip(self.columns, widths))
        rule = "  ".join("-" * w for w in widths)
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(header)
        lines.append(rule)
        for row in self.rows:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """Render as a GitHub-flavored Markdown table."""
        lines = []
        if self.title:
            lines.append(f"**{self.title}**")
            lines.append("")
        lines.append("| " + " | ".join(str(c) for c in self.columns) + " |")
        lines.append("|" + "|".join(["---"] * len(self.columns)) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines)

    def to_records(self) -> list[dict[str, str]]:
        """Return rows as dicts keyed by column name (for tests)."""
        return [dict(zip(map(str, self.columns), row)) for row in self.rows]

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
