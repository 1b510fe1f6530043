"""Sliding-position window merging.

A window of w consecutive records is flattened into one record whose
fields carry window-relative time indices 1..w. The decision value is
taken from the record at the chosen in-window position; no condition
field is taken from that record, so the flat record holds (w-1)*m
condition values plus the single decision value. Field order is the
preceding records, then the following records, then the decision value.

Window size 1 is the degenerate instantaneous case: the original data,
with every other attribute serving as a same-time condition.

A merged dataset is a view: its spec and its source sequence, nothing
more. Everything else is derived from those two, one column at a time
and only when asked for. A column is keyed (attribute a, window time t):
`column` gives its values, the slice of a's source column starting at
source row t-1, so row i of it is source row i+t-1. `codes` gives the
decision column's class codes or a condition column's pair codes, a
slice of the codes the source caches, and `counts` their counts, the
source's counts of the whole code array less the few rows the window
leaves out. Every (w, pos) of a sweep therefore slices the same source
columns and codes, and no flat record is ever built: not for the
learner, nor for the `to_csv` dump, which writes the columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .dataset import CodeKey, DataError, EventSequence, write_csv


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


def column_name(attribute: str, time: int) -> str:
    return f"{attribute}@t{time}"


@dataclass(frozen=True)
class TemporalisedDataset:
    """The flat records of the spec `provenance` over the sequence `source`.

    Building one checks that `source` holds the decision attribute, at
    least w records and no missing value, so every window has rows and
    no `?` cell. A column is keyed (attribute, t): `decision_column` or
    one of `condition_columns`. `column(key)`, `codes(key)` and
    `counts(key)` read one column of length `n`, whose row i is source
    row i+t-1; no view joins them row-wise. `source` resolves a column's
    kind and domain.
    """

    provenance: TemporalisationSpec
    source: EventSequence = field(repr=False)

    def __post_init__(self) -> None:
        self.source.attribute(self.provenance.d)
        temporalised_record_count(self.source.n, self.provenance.w)
        reject_missing(self.source)

    @property
    def n(self) -> int:
        return self.source.n - self.provenance.w + 1

    @property
    def decision_column(self) -> tuple[str, int]:
        return self.provenance.d, self.provenance.pos

    @cached_property
    def condition_columns(self) -> tuple[tuple[str, int], ...]:
        """(attribute, time) of every condition column, in field order."""
        w, pos, d = self.provenance.w, self.provenance.pos, self.provenance.d
        names = self.source.attribute_names
        if w == 1:
            return tuple((name, 1) for name in names if name != d)
        return tuple((name, t) for t in range(1, w + 1) if t != pos for name in names)

    @property
    def field_count(self) -> int:
        return len(self.condition_columns) + 1

    def column(self, column: tuple[str, int]) -> tuple[object, ...]:
        """The window's values in `column` (attribute, t): row i is source row i+t-1."""
        attribute, time = column
        values = self.source.columns[self.source.column_index(attribute)]
        return values[time - 1 : time - 1 + self.n]

    def codes(self, column: tuple[str, int]) -> list[int]:
        """Each row's class code in the decision column, else its pair code.

        A pair code is `value_code * C + class_code` for C classes.
        """
        key, start = self._code_key(column)
        return self.source.codes(key)[start : start + self.n].tolist()

    def counts(self, column: tuple[str, int]) -> dict[int, int]:
        """How often each of `codes(column)` occurs, in first-appearance order."""
        key, start = self._code_key(column)
        return self.source.counts(key, start, start + self.n)

    def _code_key(self, column: tuple[str, int]) -> tuple[CodeKey, int]:
        """The source's key for `column`'s codes, and the index of row 0 in them."""
        attribute, time = column
        d, pos = self.decision_column
        key = attribute if column == self.decision_column else (d, attribute, time - pos)
        return key, min(pos, time) - 1

    def to_csv(self, path: str | Path) -> None:
        """Debug dump with `attr@t<k>` headers, decision column last."""
        keys = (*self.condition_columns, self.decision_column)
        write_csv(path, [column_name(*key) for key in keys], map(self.column, keys))


def temporalised_record_count(n: int, w: int) -> int:
    """Number of flat records produced from n source records at window w."""
    if w < 1:
        raise ValueError(f"window size must be >= 1, got {w}")
    if n < w:
        raise DataError(f"sequence shorter than window: n={n}, w={w}")
    return n - w + 1


def reject_missing(data: EventSequence) -> None:
    """Raise a `DataError` naming the first record of `data` that holds a `?` cell."""
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
    return TemporalisedDataset(spec, data)
