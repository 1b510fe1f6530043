"""Ordered record tables: typed CSV ingestion and chronological splitting.

Records are kept strictly in arrival order; the row index is the only
notion of time. A cell holding the reserved token "?" is accepted at load
time but poisons its record for any downstream analysis step.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Literal, Sequence

MISSING_TOKEN = "?"

AttributeKind = Literal["discrete", "numeric"]
HeaderMode = Literal["first-row-names", "positional"]


class DataError(ValueError):
    """Input data (file contents, shapes, or requested columns) is unusable."""


@dataclass(frozen=True)
class AttributeSchema:
    """One column: name, kind, and the value domain for discrete columns.

    Discrete domains list the observed symbols in first-appearance order,
    which later doubles as the deterministic tie-break order. Numeric
    columns carry no domain.
    """

    name: str
    kind: AttributeKind
    domain: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == "discrete" and not self.domain:
            raise DataError(f"discrete attribute {self.name!r} has an empty domain")
        if self.kind == "numeric" and self.domain is not None:
            raise DataError(f"numeric attribute {self.name!r} cannot carry a domain")


@dataclass(frozen=True)
class EventSequence:
    """An ordered table of records over a fixed attribute schema.

    Record order is temporal order and is never rearranged. Instances are
    immutable and safe to share between concurrent readers.
    """

    schema: tuple[AttributeSchema, ...]
    records: tuple[tuple[object, ...], ...]

    def __post_init__(self) -> None:
        names = [a.name for a in self.schema]
        if len(set(names)) != len(names):
            raise DataError("attribute names must be unique")
        m = len(self.schema)
        domains = [
            frozenset(a.domain) if a.kind == "discrete" else None for a in self.schema
        ]
        for i, record in enumerate(self.records):
            if len(record) != m:
                raise DataError(
                    f"record {i + 1} has {len(record)} values, expected {m}"
                )
            for attribute, domain, value in zip(self.schema, domains, record):
                if value is None:
                    continue
                if domain is None:
                    if not isinstance(value, (int, float)):
                        raise DataError(
                            f"record {i + 1}: {attribute.name} expects a number, "
                            f"got {value!r}"
                        )
                elif value not in domain:
                    raise DataError(
                        f"record {i + 1}: {value!r} is outside the domain of "
                        f"{attribute.name}"
                    )

    @property
    def n(self) -> int:
        return len(self.records)

    @property
    def m(self) -> int:
        return len(self.schema)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.schema)

    def attribute(self, name: str) -> AttributeSchema:
        for a in self.schema:
            if a.name == name:
                return a
        raise DataError(f"unknown attribute {name!r}")

    def column_index(self, name: str) -> int:
        for i, a in enumerate(self.schema):
            if a.name == name:
                return i
        raise DataError(f"unknown attribute {name!r}")

    def column(self, name: str) -> list[object]:
        j = self.column_index(name)
        return [record[j] for record in self.records]

    def to_csv(self, path: str | Path, header: bool = True) -> None:
        """Write the table back out; missing values become the "?" token."""
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            if header:
                writer.writerow(self.attribute_names)
            for record in self.records:
                writer.writerow([format_cell(value) for value in record])


def format_cell(value: object) -> str:
    if value is None:
        return MISSING_TOKEN
    return str(value)


def _parse_number(token: str) -> int | float | None:
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return None


def _infer_column(
    name: str, tokens: Sequence[str], where: str, first_line: int
) -> tuple[AttributeSchema, list[object]]:
    observed = [t for t in tokens if t != MISSING_TOKEN]
    if not observed:
        raise DataError(f"column {name!r} has no observed values")
    numbers = [None if t == MISSING_TOKEN else _parse_number(t) for t in tokens]
    if numbers.count(None) == len(tokens) - len(observed):  # every cell parsed
        for i, value in enumerate(numbers):
            if isinstance(value, float) and not math.isfinite(value):
                raise DataError(
                    f"{where}: row {first_line + i}, column {name!r}: "
                    f"{tokens[i]!r} is not a finite number"
                )
        return AttributeSchema(name, "numeric"), numbers
    domain = tuple(dict.fromkeys(observed))
    values = [None if t == MISSING_TOKEN else t for t in tokens]
    return AttributeSchema(name, "discrete", domain), values


def load_csv(path: str | Path, header_mode: HeaderMode = "first-row-names") -> EventSequence:
    """Load a comma-separated UTF-8 file into an EventSequence.

    A column is typed numeric iff every non-missing cell parses as a
    number; otherwise it is discrete with its symbols collected in
    first-appearance order. A numeric column may not hold `nan` or
    `inf`: no threshold can order them. Row order is preserved as the
    temporal order.
    """
    if header_mode not in ("first-row-names", "positional"):
        raise ValueError(f"unknown header_mode {header_mode!r}")
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.reader(handle)]
    if not rows:
        raise DataError(f"{path}: file is empty")

    if header_mode == "first-row-names":
        names, data = [t.strip() for t in rows[0]], rows[1:]
    else:
        names, data = [f"a{i + 1}" for i in range(len(rows[0]))], rows
    if not data:
        raise DataError(f"{path}: no data rows")

    width = len(names)
    first_line = 2 if header_mode == "first-row-names" else 1
    for i, row in enumerate(data):
        if len(row) != width:
            line = i + first_line
            raise DataError(
                f"{path}: row {line} has {len(row)} columns, expected {width}"
            )

    columns = []
    typed: list[list[object]] = []
    for j, name in enumerate(names):
        schema, values = _infer_column(
            name, [row[j].strip() for row in data], str(path), first_line
        )
        columns.append(schema)
        typed.append(values)
    records = tuple(zip(*typed)) if typed else ()
    return EventSequence(schema=tuple(columns), records=tuple(records))


def split_chronological(data: EventSequence, test_count: int) -> tuple[EventSequence, EventSequence]:
    """Split into (train, test): the test set is the chronological tail."""
    if test_count < 0:
        raise DataError(f"test_count must be non-negative, got {test_count}")
    if test_count >= data.n:
        raise DataError(
            f"test_count {test_count} must be smaller than the record count {data.n}"
        )
    cut = data.n - test_count
    train = EventSequence(schema=data.schema, records=data.records[:cut])
    test = EventSequence(schema=data.schema, records=data.records[cut:])
    return train, test


def as_discrete(data: EventSequence, name: str) -> EventSequence:
    """Reinterpret one attribute's values as discrete class labels.

    Numeric values become the token of their first-seen spelling, so
    equal values such as 1 and 1.0 share one class; the domain keeps
    first-appearance order. Already-discrete attributes pass through.
    """
    j = data.column_index(name)
    if data.schema[j].kind == "discrete":
        return data
    first: dict = {}
    tokens = [
        None if r[j] is None else first.setdefault(r[j], format_cell(r[j]))
        for r in data.records
    ]
    observed = [t for t in tokens if t is not None]
    if not observed:
        raise DataError(f"column {name!r} has no observed values")
    schema = list(data.schema)
    schema[j] = AttributeSchema(name, "discrete", tuple(dict.fromkeys(observed)))
    records = tuple(
        record[:j] + (token,) + record[j + 1 :]
        for record, token in zip(data.records, tokens)
    )
    return EventSequence(schema=tuple(schema), records=records)
