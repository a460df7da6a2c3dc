"""Experiment results and rendering.

Every experiment returns an :class:`ExperimentResult` whose rows mirror
the corresponding paper table/figure series, so ``render()`` output can
be compared against the paper directly and ``to_json()`` feeds
EXPERIMENTS.md and regression tests.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.artifacts import atomic_write

__all__ = ["ExperimentResult", "render_table"]


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.2f}"
    return str(v)


def render_table(columns, rows) -> str:
    """Plain ASCII table with right-aligned numeric columns."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [len(str(c)) for c in columns]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    out = ["  ".join(str(c).ljust(widths[i]) for i, c in enumerate(columns))]
    out.append("  ".join("-" * w for w in widths))
    for row in cells:
        out.append("  ".join(c.rjust(widths[i]) if i else c.ljust(widths[i])
                             for i, c in enumerate(row)))
    return "\n".join(out)


@dataclass
class ExperimentResult:
    """One regenerated paper artifact."""

    experiment: str          # e.g. "fig10"
    title: str
    columns: list
    rows: list
    notes: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def render(self) -> str:
        head = f"== {self.experiment}: {self.title} =="
        body = render_table(self.columns, self.rows)
        notes = "\n".join(f"  note: {n}" for n in self.notes)
        return "\n".join(x for x in (head, body, notes) if x)

    def to_json(self) -> str:
        return json.dumps(
            {
                "experiment": self.experiment,
                "title": self.title,
                "columns": list(self.columns),
                "rows": [list(r) for r in self.rows],
                "notes": list(self.notes),
                "meta": self.meta,
            },
            indent=2,
        )

    def save(self, directory) -> str:
        """Write the artifact JSON into ``directory`` (atomically: a
        crash mid-write never leaves a truncated artifact)."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.experiment}.json")
        atomic_write(path, self.to_json())
        return path

    def row_map(self, key_col: int = 0) -> dict:
        return {r[key_col]: r for r in self.rows}
