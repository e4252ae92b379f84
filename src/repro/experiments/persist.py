"""Persist experiment outputs as JSON for archival / regression diffing.

The ``--markdown`` report records prose and tables; this module stores the same
content machine-readably so future runs can be diffed numerically
(``topkmon-experiments --all --json results.json`` style usage, and the
regression test suite compares stored vs fresh smoke-scale results).

It also holds :class:`SweepJournal`, the append-only checkpoint file behind
``run_sweep(..., checkpoint=...)``: the sweep coordinator journals every
completed ``(job_index, sample)`` pair as one JSON line, so a killed sweep
resumes from exactly the jobs that finished.  The journal follows the same
conventions as the results files above — a schema-versioned JSON header,
plain-JSON records — but is line-oriented so a crash can lose at most the
final partially-written line.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.spec import ExperimentOutput, Finding
from repro.util.tables import Table

__all__ = [
    "output_to_dict",
    "output_from_dict",
    "save_outputs",
    "load_outputs",
    "SweepJournal",
]

_SCHEMA_VERSION = 1
_JOURNAL_SCHEMA_VERSION = 1
_JOURNAL_KIND = "sweep-journal"


def output_to_dict(out: ExperimentOutput) -> dict[str, Any]:
    """Serialize one experiment output (figures included verbatim)."""
    return {
        "exp_id": out.exp_id,
        "title": out.title,
        "claim": out.claim,
        "passed": out.passed,
        "tables": [
            {
                "title": t.title,
                "columns": list(map(str, t.columns)),
                "rows": [list(r) for r in t.rows],
            }
            for t in out.tables
        ],
        "figures": list(out.figures),
        "findings": [
            {"claim": f.claim, "observed": f.observed, "passed": f.passed} for f in out.findings
        ],
    }


def output_from_dict(data: dict[str, Any]) -> ExperimentOutput:
    """Inverse of :func:`output_to_dict`."""
    out = ExperimentOutput(exp_id=data["exp_id"], title=data["title"], claim=data["claim"])
    for t in data.get("tables", []):
        table = Table(columns=t["columns"], title=t.get("title"))
        table.rows.extend([list(r) for r in t["rows"]])
        out.tables.append(table)
    out.figures.extend(data.get("figures", []))
    for f in data.get("findings", []):
        out.findings.append(Finding(claim=f["claim"], observed=f["observed"], passed=f["passed"]))
    return out


def save_outputs(outputs: list[ExperimentOutput], path: str | Path, *, scale: str) -> None:
    """Write a JSON results file."""
    payload = {
        "schema": _SCHEMA_VERSION,
        "scale": scale,
        "experiments": [output_to_dict(o) for o in outputs],
    }
    Path(path).write_text(json.dumps(payload, indent=2))


def load_outputs(path: str | Path) -> tuple[str, list[ExperimentOutput]]:
    """Read a JSON results file; returns ``(scale, outputs)``."""
    data = json.loads(Path(path).read_text())
    if data.get("schema") != _SCHEMA_VERSION:
        raise ExperimentError(
            f"unsupported results schema {data.get('schema')!r} (expected {_SCHEMA_VERSION})"
        )
    return data["scale"], [output_from_dict(d) for d in data["experiments"]]


class SweepJournal:
    """Append-only JSONL journal of completed sweep jobs.

    Line 1 is a header ``{"schema": ..., "kind": "sweep-journal",
    "fingerprint": {...}}``; every further line is one completed job,
    ``{"job": <int index>, "sample": <float>}``.  The fingerprint pins the
    sweep identity (name, a hash of the expanded job grid, repetitions,
    seed, measure name — see ``repro.analysis.sweeps._sweep_fingerprint``)
    so a journal can never silently resume a *different* sweep.

    Records are flushed per write: a coordinator killed mid-sweep (even
    with ``SIGKILL``) loses at most the line being written, and
    :meth:`resume` tolerates that truncated trailer.

    Use the named constructors — :meth:`create` for a fresh journal,
    :meth:`resume` to reload one — never ``SweepJournal(...)`` directly.
    """

    def __init__(self, path: Path, fingerprint: Mapping[str, Any], completed: dict[int, float]):
        self.path = path
        self.fingerprint = dict(fingerprint)
        #: Samples already journaled, keyed by flat job index.
        self.completed = completed
        self._fh = open(path, "a")

    @classmethod
    def create(cls, path: str | Path, fingerprint: Mapping[str, Any]) -> "SweepJournal":
        """Start a fresh journal at ``path`` (header written immediately)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "schema": _JOURNAL_SCHEMA_VERSION,
            "kind": _JOURNAL_KIND,
            "fingerprint": dict(fingerprint),
        }
        path.write_text(json.dumps(header) + "\n")
        return cls(path, fingerprint, completed={})

    @classmethod
    def resume(cls, path: str | Path, fingerprint: Mapping[str, Any]) -> "SweepJournal":
        """Reload the journal at ``path``, verifying it belongs to this sweep.

        Raises
        ------
        ExperimentError
            If the file is not a sweep journal or has an unsupported schema.
        ConfigurationError
            If the journal's fingerprint does not match ``fingerprint``
            (i.e. it was written by a different sweep).
        """
        path = Path(path)
        content = path.read_text()
        lines = content.splitlines()
        if not lines:
            raise ExperimentError(f"{path} is empty, not a sweep journal")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            raise ExperimentError(f"{path} does not start with a sweep-journal header") from None
        if header.get("kind") != _JOURNAL_KIND or header.get("schema") != _JOURNAL_SCHEMA_VERSION:
            raise ExperimentError(
                f"{path} is not a schema-{_JOURNAL_SCHEMA_VERSION} sweep journal "
                f"(header: {header!r})"
            )
        if header.get("fingerprint") != dict(fingerprint):
            raise ConfigurationError(
                f"checkpoint {path} belongs to a different sweep: journal fingerprint "
                f"{header.get('fingerprint')!r} != expected {dict(fingerprint)!r}"
            )
        completed: dict[int, float] = {}
        good_lines = [lines[0]]
        truncated = not content.endswith("\n")
        for line in lines[1:]:
            try:
                record = json.loads(line)
                job, sample = int(record["job"]), float(record["sample"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                # Truncated trailer from a mid-write kill.  A torn line is
                # not always invalid JSON — `{"job": 3}` (valid, missing
                # "sample") or a bare number both parse — so shape errors
                # get the same drop-the-trailer treatment.
                truncated = True
                break
            completed[job] = sample
            good_lines.append(line)
        if truncated:
            # Rewrite to the last complete line so appended records never
            # glue onto a partial one.
            path.write_text("\n".join(good_lines) + "\n")
        return cls(path, fingerprint, completed=completed)

    def record(self, job: int, sample: float) -> None:
        """Journal one completed job (flushed immediately)."""
        self.completed[int(job)] = float(sample)
        self._fh.write(json.dumps({"job": int(job), "sample": float(sample)}) + "\n")
        self._fh.flush()

    def close(self) -> None:
        """Close the underlying file handle."""
        self._fh.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
