"""Fixtures written row by row, turned into the column storage."""

from __future__ import annotations

from timerules.dataset import EventSequence


def from_rows(schema, rows) -> EventSequence:
    """The sequence over `schema` whose records are `rows`, in order."""
    schema, rows = tuple(schema), tuple(rows)
    columns = tuple(zip(*rows, strict=True)) if rows else ((),) * len(schema)
    return EventSequence(schema=schema, columns=columns)
