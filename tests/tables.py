"""Fixtures written row by row, turned into the column storage."""

from __future__ import annotations

from hypothesis import strategies as st

from timerules.dataset import AttributeSchema, EventSequence

# names and symbols a CSV writer must quote or keep padded
CSV_SYMBOLS = st.one_of(
    st.sampled_from(("a,b", 'say "hi"', "two\nlines", " padded ", "?", "")),
    st.text(alphabet='ab ,"\n\r', max_size=6),
)
CSV_NUMBERS = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False))


def from_rows(schema, rows) -> EventSequence:
    """The sequence over `schema` whose records are `rows`, in order."""
    schema, rows = tuple(schema), tuple(rows)
    columns = tuple(zip(*rows, strict=True)) if rows else ((),) * len(schema)
    return EventSequence(schema=schema, columns=columns)


@st.composite
def csv_tables(draw, missing: bool = True, min_rows: int = 0):
    """A schema of 1-4 attributes of either kind and up to 8 rows over it.

    Names and symbols are drawn from `CSV_SYMBOLS`, numbers are ints and
    finite floats, and with `missing` any cell may be None.
    """
    names = draw(st.lists(CSV_SYMBOLS, min_size=1, max_size=4, unique=True))
    n = draw(st.integers(min_rows, 8))
    schema, columns = [], []
    for name in names:
        numeric = draw(st.booleans())
        cells = CSV_NUMBERS if numeric else CSV_SYMBOLS
        column = draw(st.lists(cells | st.none() if missing else cells, min_size=n, max_size=n))
        if numeric:
            schema.append(AttributeSchema(name, "numeric"))
        else:
            domain = tuple(dict.fromkeys(v for v in column if v is not None)) or ("a",)
            schema.append(AttributeSchema(name, "discrete", domain))
        columns.append(column)
    return schema, list(zip(*columns))


def window_rows(window) -> tuple[tuple, ...]:
    """The rows of a temporalised `window`, read through its columns.

    Each row holds its condition values in field order, then its decision.
    """
    keys = (*window.condition_columns, window.decision_column)
    return tuple(zip(*map(window.column, keys)))
