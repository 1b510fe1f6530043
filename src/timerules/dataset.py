"""Ordered record tables: typed CSV ingestion and chronological splitting.

Records are kept strictly in arrival order; the row index is the only
notion of time. A cell holding the reserved token "?" is accepted at load
time but poisons its record for any downstream analysis step.

An `EventSequence` stores, validates and slices its columns, never
rows, and caches the small-int codes the tree learner reads, through
one pair of methods: `codes(key)` and `counts(key, start, stop)`. An
attribute name keys each value's code (its domain index, or its rank
among the sequence's sorted distinct numbers), and a (decision,
attribute, row offset) key the pair codes `value_code * C +
class_code`. A pair array is built with integer arithmetic in C, not
row by row: the value codes and the class codes are each read as one
big integer, a fixed-width lane per row, wide enough for V * C codes
when the attribute takes V values, so `values * C + classes` gives
every row's pair code at once. How often each code occurs in a whole
array is cached too, so a slice's counts are the whole array's minus
its few excluded rows. Every code of a one-byte array is counted in C,
by deleting the codes from its bytes one at a time, and a wider array
by `Counter`. Every window of a sweep slices the same cached codes and
counts, which live as long as the sequence does.
"""

from __future__ import annotations

import csv
import math
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Literal, Sequence, get_args

MISSING_TOKEN = "?"

AttributeKind = Literal["discrete", "numeric"]
HeaderMode = Literal["first-row-names", "positional"]

_INT_TYPES = {int, type(None)}
_CODE_TYPES = [(1 << 8 * array(t).itemsize, t) for t in "BHIQ"]

# an attribute name, or (decision, attribute, row offset) for pair codes
CodeKey = str | tuple[str, str, int]


def _code_type(count: int) -> str:
    """The narrowest unsigned array typecode that holds codes below `count`."""
    return next(t for limit, t in _CODE_TYPES if count <= limit)


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
        if self.domain is not None and len(set(self.domain)) < len(self.domain):
            symbol = next(s for k, s in enumerate(self.domain) if s in self.domain[:k])
            raise DataError(f"discrete attribute {self.name!r} repeats the symbol {symbol!r}")


@dataclass(frozen=True)
class EventSequence:
    """An ordered table over a fixed attribute schema, stored as columns.

    `columns[j]` holds attribute j's values in record order; record order
    is temporal order and is never rearranged. Instances are immutable
    and safe to share between concurrent readers; the row view, the
    first missing row and the codes derived from the columns are
    computed once, on first use.
    """

    schema: tuple[AttributeSchema, ...]
    columns: tuple[tuple[object, ...], ...]

    def __post_init__(self) -> None:
        names = [a.name for a in self.schema]
        repeated = [name for k, name in enumerate(names) if name in names[:k]]
        if repeated:
            raise DataError(f"attribute names must be unique, but {repeated[0]!r} repeats")
        if len(self.columns) != self.m:
            raise DataError(
                f"expected {self.m} columns, one per attribute, got {len(self.columns)}"
            )
        for attribute, column in zip(self.schema, self.columns):
            if len(column) != self.n:
                raise DataError(
                    f"column {attribute.name!r} has {len(column)} values, "
                    f"expected {self.n}"
                )
        bad = [
            (i, j)
            for j, (attribute, column) in enumerate(zip(self.schema, self.columns))
            if (i := _first_bad_row(attribute, column)) is not None
        ]
        if bad:
            i, j = min(bad)
            name, value = self.schema[j].name, self.columns[j][i]
            if self.schema[j].kind == "numeric":
                raise DataError(
                    f"record {i + 1}: {name} expects a number, got {value!r}"
                )
            raise DataError(
                f"record {i + 1}: {value!r} is outside the domain of {name}"
            )

    @cached_property
    def first_missing_row(self) -> int | None:
        """Index of the first record holding a missing value, or None."""
        rows = [column.index(None) for column in self.columns if None in column]
        return min(rows, default=None)

    @cached_property
    def records(self) -> tuple[tuple[object, ...], ...]:
        """Row view: `records[i]` holds record i's values in schema order.

        The library reads columns only; the one reader left is the
        benchmark's `benchmarks/workloads.py::_periodic_csv`.
        """
        return tuple(zip(*self.columns))

    def codes(self, key: CodeKey) -> array:
        """The small-int codes under `key`, built on first use; no cell may be missing.

        An attribute name gives each value's code in record order: a
        discrete value's domain index, or a numeric value's rank among
        the sequence's sorted distinct values, so ascending codes are
        ascending values. (decision, attribute, offset) gives
        `value_code * C + class_code` for C classes, pairing decision row
        r with `attribute` at row r + offset, from row max(0, -offset),
        the first that has such a partner. Its type holds V * C codes,
        where V is the size of a discrete attribute's domain, or one more
        than a numeric attribute's largest rank.
        """
        codes = self._codes.get(key)
        if codes is None:
            if isinstance(key, str):
                j = self.column_index(key)
                column = self.columns[j]
                domain = self.schema[j].domain
                symbols = domain if domain is not None else sorted(set(column))
                code = {value: k for k, value in enumerate(symbols)}
                codes = array(_code_type(len(symbols)), map(code.__getitem__, column))
            else:
                decision, attribute, offset = key
                classes = len(self.attribute(decision).domain)
                values = self.codes(attribute)
                domain = self.attribute(attribute).domain
                limit = len(domain) if domain is not None else max(values, default=-1) + 1
                lane = _code_type(limit * classes)
                first, count = max(0, -offset), max(0, self.n - abs(offset))
                partners = array(lane, values[first + offset : first + offset + count])
                decisions = array(lane, self.codes(decision)[first : first + count])
                # each array read as one integer with a lane per row; for V
                # value codes and C classes a lane's value_code * C +
                # class_code is at most V * C - 1, which the lane type
                # holds, so no lane carries into the next, and one byte
                # order on both sides holds on either endianness
                pairs = (
                    int.from_bytes(partners, sys.byteorder) * classes
                    + int.from_bytes(decisions, sys.byteorder)
                )
                codes = array(lane, pairs.to_bytes(count * partners.itemsize, sys.byteorder))
            self._codes[key] = codes
        return codes

    def counts(self, key: CodeKey, start: int, stop: int) -> dict[int, int]:
        """`Counter(codes(key)[start:stop])`, keys in the slice's first-appearance order.

        The whole array is counted once, by byte deletion if its codes are
        one byte wide (`_count_codes`); a slice subtracts the rows it
        excludes, which in a sweep are at most w - 1 at either end. A key
        the slice holds but the head does not first appears in the slice
        where it first appears in the whole array, so the whole array's
        order holds after the last head key's first row in the slice, and
        only the slice up to that row is read for order.
        """
        codes = self.codes(key)
        whole = self._counts.get(key)
        if whole is None:
            whole = self._counts[key] = _count_codes(codes)
        counts = dict(whole)
        head = codes[:start]
        for code in head:
            counts[code] -= 1
        for code in codes[stop:]:
            counts[code] -= 1
        last = max(
            (codes.index(c, start, stop) for c in set(head) if counts[c]), default=start - 1
        )
        order = {**dict.fromkeys(codes[start : last + 1]), **whole}
        return {code: counts[code] for code in order if counts[code]}

    @cached_property
    def _codes(self) -> dict[CodeKey, array]:
        """The array `codes` gives for each key it has been asked for."""
        return {}

    @cached_property
    def _counts(self) -> dict[CodeKey, dict[int, int]]:
        """Whole-array counts of each array `_codes` holds, under the same key."""
        return {}

    @property
    def n(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def m(self) -> int:
        return len(self.schema)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.schema)

    def attribute(self, name: str) -> AttributeSchema:
        return self.schema[self.column_index(name)]

    def column_index(self, name: str) -> int:
        for i, a in enumerate(self.schema):
            if a.name == name:
                return i
        raise DataError(f"unknown attribute {name!r}")

    def to_csv(self, path: str | Path) -> None:
        """Write the table back out under its header; missing values become the "?" token."""
        write_csv(path, self.attribute_names, self.columns)


def _count_codes(codes: array) -> dict[int, int]:
    """`Counter(codes)`; a one-byte array is counted in C: deleting the first
    byte's code from the bytes keeps the rest in order, and the length lost
    is that code's count."""
    if codes.itemsize > 1:
        return Counter(codes)
    rest, counts = codes.tobytes(), {}
    while rest:
        left = rest.translate(None, rest[:1])
        counts[rest[0]] = len(rest) - len(left)
        rest = left
    return counts


def _first_bad_row(attribute: AttributeSchema, column: Sequence[object]) -> int | None:
    """Index of the first cell of `column` that `attribute` cannot hold.

    A numeric cell is an int or a finite float (bools included), a
    discrete one a symbol of the domain; either kind may hold None. No
    threshold can order `nan` or `inf`, and `math.isfinite` overflows on
    an int beyond float range, so only floats are tested for it.
    """
    if attribute.kind == "numeric":
        if set(map(type, column)) <= _INT_TYPES:
            return None
        fits = [
            value is None
            or (math.isfinite(value) if isinstance(value, float) else isinstance(value, int))
            for value in column
        ]
    else:
        try:
            if {None, *attribute.domain}.issuperset(column):
                return None
        except TypeError:  # an unhashable cell
            pass
        # compared by equality, which never hashes the cell
        fits = [value is None or value in attribute.domain for value in column]
    return fits.index(False) if False in fits else None


def format_cell(value: object) -> str:
    if value is None:
        return MISSING_TOKEN
    return str(value)


def write_csv(path: str | Path, header: Sequence[str], columns: Iterable[Iterable]) -> None:
    """Write `header`, then the rows of `columns`; missing values become "?"."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(zip(*[map(format_cell, column) for column in columns]))


def read_text(path: str | Path) -> str:
    """The file at `path` decoded as UTF-8, less a leading byte-order mark."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = len(raw[: exc.start + 1].splitlines())  # \n, \r\n or \r ends a line
        raise DataError(f"{path}: line {line} is not UTF-8 text") from exc


def _parse_number(token: str) -> int | float:
    try:
        return int(token)
    except ValueError:
        return float(token)


def _not_finite(token: str) -> str:
    """Why a token that reads as a non-finite number cannot be held."""
    digits = token.lstrip("+-")
    if digits.isdigit():
        # int() refuses integer literals over Python's digit limit, and
        # float() then reads them as inf
        return (
            f"an integer of {len(digits)} digits exceeds Python's limit of "
            f"{sys.get_int_max_str_digits()} digits for reading an integer"
        )
    # quote only a short prefix of an over-long literal
    shown = repr(token) if len(token) <= 20 else f"{token[:20]!r}... ({len(token)} characters)"
    if digits[:1].isalpha():  # nan, inf, infinity
        return f"{shown} is not a finite number"
    return f"{shown} is beyond float range"


def _infer_column(
    name: str, cells: Sequence[str], where: str, first_line: int
) -> tuple[AttributeSchema, tuple[object, ...]]:
    """The attribute and values of one column of raw CSV `cells`.

    Each distinct cell is stripped, classified and parsed once, in
    first-appearance order, into one cell -> value table that the column
    is then read through. So ` 1` and `1` each read as the int 1, a `1.0`
    beside them as a float, and a discrete domain, first-appearance
    order of the stripped symbols, is that of the distinct cells.
    """
    raw = dict.fromkeys(cells)
    tokens = list(map(str.strip, raw))
    observed = [t for t in tokens if t != MISSING_TOKEN] if MISSING_TOKEN in tokens else tokens
    if not observed:
        raise DataError(f"column {name!r} has no observed values")
    text = "".join(observed)
    # int() and float() also read `1_0` and non-ASCII digits such as `٣`,
    # which a CSV means as symbols
    if text.isascii() and "_" not in text:
        try:
            return AttributeSchema(name, "numeric"), _decode(cells, raw, map(int, tokens))
        except ValueError:  # a float, a symbol, "?" or an over-long integer
            pass
        try:  # raises at the first symbol, so the column is discrete
            numbers = [None if t == MISSING_TOKEN else _parse_number(t) for t in tokens]
        except ValueError:
            pass
        else:
            for k, value in enumerate(numbers):
                if isinstance(value, float) and not math.isfinite(value):
                    # the first distinct cell reading so is the column's first
                    row = first_line + cells.index(list(raw)[k])
                    raise DataError(
                        f"{where}: row {row}, column {name!r}: " + _not_finite(tokens[k])
                    )
            return AttributeSchema(name, "numeric"), _decode(cells, raw, numbers)
    domain = tuple(dict.fromkeys(observed))
    symbols = [None if t == MISSING_TOKEN else t for t in tokens]
    return AttributeSchema(name, "discrete", domain), _decode(cells, raw, symbols)


def _decode(cells: Sequence[str], raw: dict[str, object], values: Iterable) -> tuple:
    """`cells` read through `raw`, the table of distinct cells, given `values` in its order."""
    # replacing the values of present keys leaves the keys, and so zip's view, as they are
    raw.update(zip(raw, values))
    return tuple(map(raw.__getitem__, cells))


def load_csv(path: str | Path, header_mode: HeaderMode = "first-row-names") -> EventSequence:
    """Load a comma-separated UTF-8 file into an EventSequence.

    A leading byte-order mark is skipped; a bad UTF-8 byte or an over-long
    field is a DataError naming its line, and a row of the wrong width
    one naming the first such row. A column is numeric iff every
    non-missing cell, stripped of surrounding whitespace, is an ASCII
    decimal or float literal without `_` separators; otherwise it is
    discrete with its symbols collected in first-appearance order. A
    numeric column may not hold `nan` or `inf`: no threshold can order
    them. Row order is the temporal order. Each distinct cell of a column
    is parsed once (see `_infer_column`).
    """
    if header_mode not in get_args(HeaderMode):
        raise ValueError(f"unknown header_mode {header_mode!r}")
    read_text(path)  # decoded whole, so a bad byte's line is the file's, not a chunk's
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: file is empty")
    if not rows[0]:
        raise DataError(f"{path}: the first row is empty, so the file has no columns")

    if header_mode == "first-row-names":
        names, data, first_line = [t.strip() for t in rows[0]], rows[1:], 2
        if "" in names:
            raise DataError(f"{path}: column {names.index('') + 1} of the header has no name")
    else:
        names, data, first_line = [f"a{i + 1}" for i in range(len(rows[0]))], rows, 1
    if not data:
        raise DataError(f"{path}: no data rows")

    width = len(names)
    if set(map(len, data)) != {width}:
        i = next(i for i, row in enumerate(data) if len(row) != width)
        raise DataError(
            f"{path}: row {i + first_line} has {len(data[i])} columns, expected {width}"
        )

    schema, columns = [], []
    for j, name in enumerate(names):
        attribute, values = _infer_column(name, [row[j] for row in data], str(path), first_line)
        schema.append(attribute)
        columns.append(values)
    try:
        return EventSequence(schema=tuple(schema), columns=tuple(columns))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def split_chronological(data: EventSequence, test_count: int) -> tuple[EventSequence, EventSequence]:
    """Split into (train, test): the test set is the chronological tail.

    Neither part of a sequence without `?` scans its columns for one
    again; a part of one with `?` finds its own first missing row.
    """
    if test_count < 0:
        raise DataError(f"test_count must be non-negative, got {test_count}")
    if test_count >= data.n:
        raise DataError(
            f"test_count {test_count} must be smaller than the record count {data.n}"
        )
    cut = data.n - test_count
    train = EventSequence(data.schema, tuple(c[:cut] for c in data.columns))
    test = EventSequence(data.schema, tuple(c[cut:] for c in data.columns))
    if data.first_missing_row is None:
        for part in (train, test):
            vars(part)["first_missing_row"] = None
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
    column = data.columns[j]
    # dict.fromkeys keeps the first of equal keys, so 1.0 maps to "1" after 1
    spelling = {value: format_cell(value) for value in dict.fromkeys(column)}
    spelling[None] = None
    domain = tuple(dict.fromkeys(t for t in spelling.values() if t is not None))
    if not domain:
        raise DataError(f"column {name!r} has no observed values")
    schema = list(data.schema)
    schema[j] = AttributeSchema(name, "discrete", domain)
    columns = list(data.columns)
    columns[j] = tuple(map(spelling.__getitem__, column))
    return EventSequence(schema=tuple(schema), columns=tuple(columns))
