"""Sliding-position window merging.

A window of w consecutive records is flattened into one record whose
fields carry window-relative time indices 1..w. The decision value is
taken from the record at the chosen in-window position; no condition
field is taken from that record, so the flat record holds (w-1)*m
condition values plus the single decision value. Field order is the
preceding records, then the following records, then the decision value.

Window size 1 is the degenerate instantaneous case: the original data,
with every other attribute serving as a same-time condition.

The flat records are held as column views, never built row by row: the
column of attribute a at window time t is the slice of a's source
column starting at source row t-1, so row i of it is source row i+t-1.
Every (w, pos) of a sweep slices the same source columns, which are the
source sequence's own storage; the merged dataset keeps its source
sequence, so the learner can reuse the codes cached there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .dataset import AttributeSchema, DataError, EventSequence, write_csv


@dataclass(frozen=True)
class TemporalisationSpec:
    """Window geometry: size w, decision position pos, decision attribute d.

    pos-1 records precede the decision record and w-pos follow it.
    """

    w: int
    pos: int
    d: str

    def __post_init__(self) -> None:
        if self.w < 1:
            raise ValueError(f"window size must be >= 1, got {self.w}")
        if not 1 <= self.pos <= self.w:
            raise ValueError(
                f"position must be within 1..{self.w}, got {self.pos}"
            )

    @property
    def preceding(self) -> int:
        return self.pos - 1

    @property
    def following(self) -> int:
        return self.w - self.pos


def column_name(attribute: str, time: int) -> str:
    return f"{attribute}@t{time}"


@dataclass(frozen=True)
class TemporalisedDataset:
    """Time-indexed columns of flat records with one decision value each.

    `columns[k]` holds condition column `condition_columns[k]` and
    `decisions` the decision column, all of length `n`: row i of column
    (attribute, t) is source row i+t-1 of `source`. `records` joins them
    row-wise, decision value last. `source` resolves a column's kind and
    domain and holds the codes the learner reads.
    """

    condition_columns: tuple[tuple[str, int], ...]
    decision_column: tuple[str, int]
    columns: tuple[tuple[object, ...], ...]
    decisions: tuple[object, ...]
    provenance: TemporalisationSpec
    source: EventSequence = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.condition_columns):
            raise DataError(
                f"{len(self.columns)} columns for "
                f"{len(self.condition_columns)} condition columns"
            )
        if any(len(column) != self.n for column in self.columns):
            raise DataError("every column must hold one value per decision")

    @property
    def n(self) -> int:
        return len(self.decisions)

    @property
    def field_count(self) -> int:
        return len(self.condition_columns) + 1

    @cached_property
    def records(self) -> tuple[tuple[object, ...], ...]:
        """Row-wise view: the condition values of each row, then its decision."""
        return tuple(zip(*self.columns, self.decisions))

    def attribute(self, name: str) -> AttributeSchema:
        return self.source.attribute(name)

    @property
    def decision_schema(self) -> AttributeSchema:
        return self.attribute(self.decision_column[0])

    def to_csv(self, path: str | Path) -> None:
        """Debug dump with `attr@t<k>` headers, decision column last."""
        header = [column_name(a, t) for a, t in self.condition_columns]
        write_csv(path, header + [column_name(*self.decision_column)], self.records)


def temporalised_record_count(n: int, w: int) -> int:
    """Number of flat records produced from n source records at window w."""
    if w < 1:
        raise ValueError(f"window size must be >= 1, got {w}")
    if n < w:
        raise DataError(f"sequence shorter than window: n={n}, w={w}")
    return n - w + 1


def _reject_missing(data: EventSequence) -> None:
    row = data.first_missing_row
    if row is not None:
        raise DataError(
            f"record {row + 1} contains a missing value; "
            "records with '?' cells cannot be temporalised"
        )


def temporalise(spec: TemporalisationSpec, data: EventSequence) -> TemporalisedDataset:
    """Merge every run of w consecutive records into one flat record.

    Each time-indexed column is one slice of a source column, so the
    flat records are never built row by row.
    """
    data.attribute(spec.d)
    n = temporalised_record_count(data.n, spec.w)
    _reject_missing(data)

    names = data.attribute_names
    if spec.w == 1:
        condition_columns = tuple((name, 1) for name in names if name != spec.d)
    else:
        times = [t for t in range(1, spec.w + 1) if t != spec.pos]
        condition_columns = tuple((name, t) for t in times for name in names)
    source = dict(zip(names, data.columns))
    columns = tuple(source[name][t - 1 : t - 1 + n] for name, t in condition_columns)
    decisions = source[spec.d][spec.pos - 1 : spec.pos - 1 + n]

    return TemporalisedDataset(
        condition_columns=condition_columns,
        decision_column=(spec.d, spec.pos),
        columns=columns,
        decisions=decisions,
        provenance=spec,
        source=data,
    )
