import csv
import math
import random
import re
import string
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from timerules.dataset import (
    AttributeSchema,
    DataError,
    EventSequence,
    as_discrete,
    load_csv,
    split_chronological,
)

from oracles import column_kind, csv_by_rows, first_bad_record
from tables import csv_tables, from_rows

FOUR_RECORDS = "1,2,4,true\n2,3,5,true\n6,7,8,false\n5,2,3,true\n"


NUMBER_CELLS = (0, 1, -3, 2.5, True, False, None, 10**400)
SYMBOL_CELLS = ("a", "b", None)
# cells their column cannot hold: a wrong type, an out-of-domain symbol, an unhashable
# value, a float no threshold can order
BAD_NUMBER_CELLS = ("1", "z", ["a"], math.nan, math.inf, -math.inf)
BAD_SYMBOL_CELLS = ("z", 1, ["a"])


@st.composite
def planted_tables(draw):
    """A schema of mixed kinds and rows over it, with up to three bad cells planted."""
    kinds = draw(st.lists(st.sampled_from(("numeric", "discrete")), min_size=1, max_size=4))
    schema = tuple(
        AttributeSchema(f"c{j}", "numeric")
        if kind == "numeric"
        else AttributeSchema(f"c{j}", "discrete", ("a", "b"))
        for j, kind in enumerate(kinds)
    )
    cells = [
        st.sampled_from(NUMBER_CELLS if kind == "numeric" else SYMBOL_CELLS)
        for kind in kinds
    ]
    rows = [list(row) for row in draw(st.lists(st.tuples(*cells), min_size=1, max_size=8))]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(kinds) - 1))
        bad = BAD_NUMBER_CELLS if kinds[j] == "numeric" else BAD_SYMBOL_CELLS
        rows[i][j] = draw(st.sampled_from(bad))
    return schema, [tuple(row) for row in rows]


LIMIT_DIGITS = sys.get_int_max_str_digits()
NUMBER_TOKENS = st.one_of(
    st.from_regex(r"[+-]?[0-9]{1,6}", fullmatch=True),
    st.from_regex(
        r"[+-]?(?:[0-9]{1,4}\.[0-9]{0,3}|\.[0-9]{1,3})(?:[eE][+-]?[0-9]{1,3})?",
        fullmatch=True,
    ),
    st.from_regex(r"[+-]?[0-9]{1,3}[eE][+-]?[0-9]{1,3}", fullmatch=True),
    st.from_regex(re.compile(r"[+-]?(?:nan|inf|infinity)", re.IGNORECASE), fullmatch=True),
    st.sampled_from(["?", "1" * (LIMIT_DIGITS + 1), "-" + "2" * (LIMIT_DIGITS + 5)]),
)
# int() or float() reads some of these, but a CSV means them as symbols
SYMBOL_TOKENS = ("a", "e5", "1e", ".", "+", "1.2.3", "0x1f", "1_0", "1_0.5", "٣", "nan1")


@st.composite
def csv_columns(draw):
    """The stripped tokens of one CSV column: numbers, "?" and symbols at any row."""
    tokens = draw(st.lists(NUMBER_TOKENS, min_size=1, max_size=12))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(tokens)))
        tokens.insert(at, draw(st.sampled_from(SYMBOL_TOKENS)))
    assume(set(tokens) != {"?"})
    return tokens


@st.composite
def repeating_columns(draw):
    """One CSV column's tokens and raw cells, drawn from a small pool so that cells repeat.

    The pool holds numbers, "?", non-finite tokens, equal numbers spelled
    apart (1, 1.0, 01, +1) and, in one column of four, a symbol. Each
    cell pads its token with ASCII whitespace, so one token also arrives
    as distinct cells.
    """
    common = st.sampled_from(("1", "1.0", "01", "+1", "?", "nan", "-inf"))
    pool = draw(st.lists(st.one_of(NUMBER_TOKENS, common), min_size=1, max_size=5))
    if draw(st.integers(0, 3)) == 0:
        pool.append(draw(st.sampled_from(SYMBOL_TOKENS)))
    tokens = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=80))
    assume(set(tokens) != {"?"})
    pad = st.text(string.whitespace, max_size=2)
    return tokens, [draw(pad) + token + draw(pad) for token in tokens]


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_four_records_typed(self, tmp_path):
        data = load_csv(write(tmp_path, FOUR_RECORDS), header_mode="positional")
        assert data.n == 4
        assert data.m == 4
        assert [a.kind for a in data.schema] == ["numeric"] * 3 + ["discrete"]
        assert data.schema[3].domain == ("true", "false")
        assert [column[0] for column in data.columns] == [1, 2, 4, "true"]

    def test_single_cell(self, tmp_path):
        data = load_csv(write(tmp_path, "yes\n"), header_mode="positional")
        assert (data.n, data.m) == (1, 1)
        assert data.schema[0].kind == "discrete"
        assert data.schema[0].domain == ("yes",)

    def test_header_row_names(self, tmp_path):
        data = load_csv(write(tmp_path, "x,y\n1,up\n2,down\n"))
        assert data.attribute_names == ("x", "y")
        assert data.n == 2
        assert data.columns[1] == ("up", "down")

    def test_positional_names(self, tmp_path):
        data = load_csv(write(tmp_path, "1,2\n3,4\n"), header_mode="positional")
        assert data.attribute_names == ("a1", "a2")

    def test_ragged_rows_name_the_row(self, tmp_path):
        with pytest.raises(DataError, match="row 3"):
            load_csv(write(tmp_path, "x,y\n1,2\n1\n"))

    def test_repeated_header_names_the_file(self, tmp_path):
        path = write(tmp_path, "x,x\n1,2\n")
        with pytest.raises(DataError) as excinfo:
            load_csv(path)
        assert str(excinfo.value) == f"{path}: attribute names must be unique, but 'x' repeats"

    @pytest.mark.parametrize("header, column", [("x,c,", 3), ("x, ,c", 2)])
    def test_an_unnamed_header_column_is_rejected(self, tmp_path, header, column):
        path = write(tmp_path, f"{header}\n1,a,b\n2,b,a\n")
        with pytest.raises(DataError) as excinfo:
            load_csv(path)
        assert str(excinfo.value) == f"{path}: column {column} of the header has no name"
        # a first row read as data may hold an empty cell
        assert load_csv(path, header_mode="positional").attribute_names == ("a1", "a2", "a3")

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            load_csv(write(tmp_path, ""))

    @pytest.mark.parametrize("header_mode", ["first-row-names", "positional"])
    def test_empty_first_row_means_no_columns(self, tmp_path, header_mode):
        path = write(tmp_path, "\n\n\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: the first row is empty")):
            load_csv(path, header_mode=header_mode)

    def test_header_only(self, tmp_path):
        with pytest.raises(DataError, match="no data rows"):
            load_csv(write(tmp_path, "x,y\n"))

    def test_all_missing_column(self, tmp_path):
        with pytest.raises(DataError, match="no observed values"):
            load_csv(write(tmp_path, "x,y\n1,?\n2,?\n"))

    def test_missing_token_kept_as_none(self, tmp_path):
        data = load_csv(write(tmp_path, "x,y\n1,a\n?,b\n"))
        assert data.schema[0].kind == "numeric"
        assert data.columns == ((1, None), ("a", "b"))

    def test_missing_excluded_from_domain(self, tmp_path):
        data = load_csv(write(tmp_path, "y\na\n?\nb\n"))
        assert data.schema[0].domain == ("a", "b")

    def test_mixed_column_is_discrete(self, tmp_path):
        data = load_csv(write(tmp_path, "v\n1\ntwo\n3\n"))
        assert data.schema[0].kind == "discrete"
        assert data.schema[0].domain == ("1", "two", "3")

    def test_float_and_int_both_numeric(self, tmp_path):
        data = load_csv(write(tmp_path, "v\n1\n2.5\n"))
        assert data.schema[0].kind == "numeric"
        assert data.columns == ((1, 2.5),)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_number_names_row_and_column(self, tmp_path, token):
        path = write(tmp_path, f"x,y\n1,a\n2,b\n{token},a\n")
        with pytest.raises(DataError, match=f"row 4, column 'x': '{token}'"):
            load_csv(path)

    def test_non_finite_row_number_without_header(self, tmp_path):
        path = write(tmp_path, "1,inf\n2,3\n")
        with pytest.raises(DataError, match="row 1, column 'a2'"):
            load_csv(path, header_mode="positional")

    @pytest.mark.parametrize("sign", ["", "-", "+"])
    def test_over_long_integer_names_the_digit_limit(self, tmp_path, sign):
        # int() refuses a literal over the limit, and float() reads it as inf
        limit = sys.get_int_max_str_digits()
        path = write(tmp_path, f"x,y\n1,a\n{sign}{'1' * (limit + 700)},b\n")
        with pytest.raises(DataError) as caught:
            load_csv(path)
        message = str(caught.value)
        assert "row 3, column 'x'" in message
        assert f"limit of {limit} digits" in message
        assert "1" * 20 not in message

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_over_long_float_quotes_a_prefix_and_its_length(self, tmp_path, sign):
        # float() reads 5,000 digits and a fraction as inf
        token = f"{sign}{'1' * 5000}.5"
        path = write(tmp_path, f"x,y\n1,a\n{token},b\n")
        with pytest.raises(DataError) as caught:
            load_csv(path)
        message = str(caught.value)
        assert "row 3, column 'x'" in message
        assert "is beyond float range" in message
        assert f"({len(token)} characters)" in message
        assert "1" * 30 not in message
        assert len(message) < 200

    def test_python_only_number_spellings_are_symbols(self, tmp_path):
        # int() reads "1_0" as 10 and "٣" (Arabic-Indic three) as 3
        data = load_csv(write(tmp_path, "d\n10\n1_0\n?\n3\n٣\n1_0.5\n"))
        assert data.schema[0].kind == "discrete"
        assert data.schema[0].domain == ("10", "1_0", "3", "٣", "1_0.5")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("x,y\n1,a\n2,b\n".encode("utf-8-sig"))
        data = load_csv(path)
        assert data.attribute_names == ("x", "y")
        assert data.columns[0] == (1, 2)

    @pytest.mark.parametrize(
        ("raw", "line"),
        [
            (b"x,c\n1,a\n2,\xff\n3,b\n", 3),
            (b"x,c\r1,a\r\n2,a\r\xff,b\r", 4),
            # a byte-order mark does not shift the count
            (b"\xef\xbb\xbfx,c\n\xff,a\n", 2),
            # past the first 8 KB a decoder reads at a time
            (b"x,c\n" + b"1,a\n" * 5000 + b"2,\xe2\x82\n", 5002),
        ],
        ids=["third-line", "mixed-line-ends", "after-a-byte-order-mark", "past-8-kb"],
    )
    def test_a_file_that_is_not_utf8_names_its_first_bad_line(self, tmp_path, raw, line):
        path = tmp_path / "bad8.csv"
        path.write_bytes(raw)
        with pytest.raises(DataError) as excinfo:
            load_csv(path)
        assert str(excinfo.value) == f"{path}: line {line} is not UTF-8 text"

    def test_a_field_over_the_csv_limit_names_its_line(self, tmp_path):
        limit = csv.field_size_limit()
        path = write(tmp_path, "x,c\n1,a\n2," + "b" * (limit + 1) + "\n3,a\n")
        with pytest.raises(DataError) as excinfo:
            load_csv(path)
        assert str(excinfo.value) == (
            f"{path}: line 3: field larger than field limit ({limit})"
        )
        assert csv.field_size_limit() == limit

    def test_nan_symbol_in_discrete_column_is_a_symbol(self, tmp_path):
        data = load_csv(write(tmp_path, "v\nnan\nlow\n"))
        assert data.schema[0].domain == ("nan", "low")

    def test_unknown_header_mode(self, tmp_path):
        with pytest.raises(ValueError):
            load_csv(write(tmp_path, "1\n"), header_mode="sideways")

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(csv_columns().map(lambda tokens: (tokens, tokens)), repeating_columns()))
    @example((["1.5", "a"], ["1.5", "a"]))
    @example((["?", "2", "0.5", "-3e2", "b"], ["?", "2", "0.5", "-3e2", "b"]))
    # a non-finite token that repeats is named at its first row, padded or not
    @example((["1", "inf", "2", "inf"], ["1", "inf", "2", "inf"]))
    @example((["1", "inf", "2", "inf"], ["1", "inf", "2", " inf"]))
    @example((["1", "1.0", "?", "01", "+1"], [" 1", "1.0", "?\t", "01", "+1 "]))
    def test_column_kind_and_values_agree_with_the_oracle(self, column):
        # a column is decoded once per distinct raw cell, and each cell must
        # still load as its stripped token alone says
        tokens, cells = column
        kind, detail = column_kind(tokens)
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "data.csv"
            with open(path, "w", newline="", encoding="utf-8") as handle:
                csv.writer(handle).writerows([["x"], *([cell] for cell in cells)])
            if kind == "non-finite":
                with pytest.raises(DataError, match=f"row {detail + 2}, column 'x'"):
                    load_csv(path)
                return
            data = load_csv(path)
        assert data.schema[0].kind == kind
        assert data.columns[0] == detail
        assert list(map(type, data.columns[0])) == list(map(type, detail))
        if kind == "discrete":
            assert data.schema[0].domain == tuple(dict.fromkeys(t for t in tokens if t != "?"))

    @pytest.mark.parametrize(
        ("text", "row", "width"),
        [
            ("x,y\n1,2\n3,4,5\n6\n7,8,9\n", 3, 3),
            ("x,y\n1,2\n3,4\n5\n6,7,8\n9\n", 4, 1),
            # csv reads a blank line as an empty row
            ("x,y\n1,2\n\n3,4,5\n", 3, 0),
        ],
        ids=["wider-first", "narrower-first", "blank-line"],
    )
    def test_the_first_row_of_the_wrong_width_is_named(self, tmp_path, text, row, width):
        path = write(tmp_path, text)
        with pytest.raises(DataError) as excinfo:
            load_csv(path)
        assert str(excinfo.value) == f"{path}: row {row} has {width} columns, expected 2"


class TestRoundTrip:
    def test_reserialise_is_value_identical(self, tmp_path):
        first = load_csv(write(tmp_path, "x,y,z\n1,2.5,ok\n?,3,no\n4,5,ok\n"))
        out = tmp_path / "again.csv"
        first.to_csv(out)
        second = load_csv(out)
        assert second.attribute_names == first.attribute_names
        assert second.columns == first.columns

    def test_fuzzed_round_trips(self, tmp_path):
        rng = random.Random(7)
        symbols = ["red", "green", "blue", "?"]
        for case in range(20):
            n, m = rng.randint(1, 12), rng.randint(1, 4)
            rows = []
            for _ in range(n):
                cells = []
                for j in range(m):
                    if j % 2 == 0:
                        cells.append(str(rng.choice([1, 2, 30, -4])))
                    else:
                        cells.append(rng.choice(symbols))
                rows.append(",".join(cells))
            # every column needs at least one observed value
            rows[0] = ",".join(
                "1" if j % 2 == 0 else "red" for j in range(m)
            )
            path = write(tmp_path, "\n".join(rows) + "\n", f"fuzz{case}.csv")
            first = load_csv(path, header_mode="positional")
            out = tmp_path / f"fuzz{case}_out.csv"
            out.write_bytes(csv_by_rows(None, zip(*first.columns)))
            second = load_csv(out, header_mode="positional")
            assert second.columns == first.columns


class TestWriteCsv:
    @settings(max_examples=300, deadline=None)
    @given(table=csv_tables())
    def test_bytes_match_a_row_by_row_writer(self, tmp_path_factory, table):
        schema, rows = table
        data = from_rows(schema, rows)
        path = tmp_path_factory.mktemp("csv") / "out.csv"
        data.to_csv(path)
        assert "records" not in vars(data)
        names = [attribute.name for attribute in schema]
        assert path.read_bytes() == csv_by_rows(names, rows)


class TestSplit:
    def make(self, n):
        schema = (AttributeSchema("v", "numeric"),)
        return EventSequence(schema=schema, columns=(tuple(range(n)),))

    def test_paper_scale_split(self):
        train, test = split_chronological(self.make(3000), 500)
        assert (train.n, test.n) == (2500, 500)

    def test_zero_test_count(self):
        data = self.make(5)
        train, test = split_chronological(data, 0)
        assert train.columns == data.columns
        assert test.n == 0

    def test_table2_tail(self, tmp_path):
        data = load_csv(write(tmp_path, FOUR_RECORDS), header_mode="positional")
        train, test = split_chronological(data, 1)
        assert train.columns == tuple(column[:3] for column in data.columns)
        assert test.columns == tuple(column[3:] for column in data.columns)

    def test_test_count_too_large(self):
        with pytest.raises(DataError):
            split_chronological(self.make(4), 4)

    def test_negative_test_count(self):
        with pytest.raises(DataError):
            split_chronological(self.make(4), -1)

    def test_concatenation_identity(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 40)
            data = self.make(n)
            cut = rng.randint(0, n - 1)
            train, test = split_chronological(data, cut)
            assert tuple(map(tuple.__add__, train.columns, test.columns)) == data.columns

    def test_parts_take_their_share_of_the_first_missing_row(self):
        # a `?` in the head, the tail, either side of the cut, or none;
        # a sequence built afresh over a part's columns scans them itself
        n = 6
        for missing in [(), *[(i,) for i in range(n)], (0, n - 1), (1, 4)]:
            values = tuple(None if i in missing else i for i in range(n))
            data = EventSequence(self.make(n).schema, (values,))
            for test_count in range(n):
                train, test = split_chronological(data, test_count)
                if not missing:
                    # neither part of a sequence without `?` scans itself
                    assert "first_missing_row" in vars(train)
                    assert "first_missing_row" in vars(test)
                for part in (train, test):
                    fresh = EventSequence(part.schema, part.columns)
                    assert part.first_missing_row == fresh.first_missing_row


class TestEventSequence:
    def test_duplicate_names_rejected(self):
        schema = (AttributeSchema("x", "numeric"), AttributeSchema("x", "numeric"))
        with pytest.raises(DataError, match="unique"):
            EventSequence(schema=schema, columns=((1,), (2,)))
        schema = tuple(AttributeSchema(name, "numeric") for name in "xyzyx")
        with pytest.raises(DataError, match="unique, but 'y' repeats"):
            EventSequence(schema=schema, columns=((1,),) * 5)

    @pytest.mark.parametrize(
        "columns, message",
        [
            (((1, 2),), "expected 2 columns, one per attribute, got 1"),
            (((1, 2, 3), ("a",)), "column 'y' has 1 values, expected 3"),
            (((1,), ("a", "b")), "column 'y' has 2 values, expected 1"),
        ],
        ids=["column-count", "short-column", "long-column"],
    )
    def test_column_lengths_checked(self, columns, message):
        schema = (AttributeSchema("x", "numeric"), AttributeSchema("y", "discrete", ("a", "b")))
        with pytest.raises(DataError) as excinfo:
            EventSequence(schema=schema, columns=columns)
        assert str(excinfo.value) == message

    def test_unknown_attribute(self):
        schema = (AttributeSchema("x", "numeric"),)
        data = EventSequence(schema=schema, columns=((1,),))
        with pytest.raises(DataError, match="unknown attribute"):
            data.column_index("y")

    def test_empty_discrete_domain_rejected(self):
        with pytest.raises(DataError, match="empty domain"):
            AttributeSchema("x", "discrete", ())

    def test_a_discrete_domain_that_repeats_a_symbol_is_rejected(self):
        # the last "p" would code every p, so code 0 would code no value
        # and a split on the attribute would count a branch no row reaches
        with pytest.raises(DataError, match="'a' repeats the symbol 'p'"):
            AttributeSchema("a", "discrete", ("p", "q", "p"))

    def test_values_must_conform_to_kind(self):
        numeric = (AttributeSchema("x", "numeric"),)
        with pytest.raises(DataError, match="expects a number"):
            EventSequence(schema=numeric, columns=(("one",),))
        discrete = (AttributeSchema("x", "discrete", ("a", "b")),)
        with pytest.raises(DataError, match="outside the domain"):
            EventSequence(schema=discrete, columns=(("c",),))
        # missing values are allowed in either kind
        EventSequence(schema=numeric, columns=((None,),))
        EventSequence(schema=discrete, columns=((None,),))

    @pytest.mark.parametrize(
        "records, message",
        [
            # an unhashable cell is a cell outside the domain
            (((1, "a"), (2, ["a"])), "record 2: ['a'] is outside the domain of y"),
            (((1, "a"), ("2", "b"), ("x", "c")), "record 2: x expects a number, got '2'"),
            (((1, "a"), (2, "c"), (3, "d")), "record 2: 'c' is outside the domain of y"),
            # the later column's bad cell sits in the earlier row: that row is named
            (((1, "a"), (2, "z"), ("3", "b")), "record 2: 'z' is outside the domain of y"),
            # two bad cells in one row: the first column is named
            (((1, "a"), ("2", "c")), "record 2: x expects a number, got '2'"),
            # no threshold orders a non-finite float; an int beyond float range fits
            (((1, "a"), (math.nan, "b")), "record 2: x expects a number, got nan"),
            (((10**400, "a"), (math.inf, "b")), "record 2: x expects a number, got inf"),
            (((1, "a"), (2.5, "b"), (-math.inf, "a")), "record 3: x expects a number, got -inf"),
        ],
    )
    def test_first_bad_record_is_named(self, records, message):
        schema = (AttributeSchema("x", "numeric"), AttributeSchema("y", "discrete", ("a", "b")))
        with pytest.raises(DataError) as excinfo:
            from_rows(schema, records)
        assert str(excinfo.value) == message
        assert first_bad_record(schema, records) == message

    @settings(max_examples=200, deadline=None)
    @given(planted_tables())
    @example(
        (
            (AttributeSchema("x", "numeric"), AttributeSchema("y", "discrete", ("a", "b"))),
            [(1, "a"), (2, "z"), ("3", "b")],
        )
    )
    def test_constructor_names_the_oracles_first_bad_record(self, table):
        schema, rows = table
        expected = first_bad_record(schema, rows)
        if expected is None:
            from_rows(schema, rows)
        else:
            with pytest.raises(DataError) as excinfo:
                from_rows(schema, rows)
            assert str(excinfo.value) == expected

    def test_bools_count_as_numbers(self):
        data = EventSequence(schema=(AttributeSchema("x", "numeric"),), columns=((True, 2),))
        assert data.columns == ((True, 2),)

    def test_ints_beyond_float_range_count_as_numbers(self):
        huge = 10**400
        for column in ((huge, -huge), (huge, 2.5, None)):
            data = EventSequence(schema=(AttributeSchema("x", "numeric"),), columns=(column,))
            assert data.columns == (column,)

    def test_columns_transpose_the_records(self):
        # the row view stays for the benchmark's one read of it
        schema = (AttributeSchema("x", "numeric"), AttributeSchema("y", "discrete", ("a", "b")))
        data = EventSequence(schema=schema, columns=((1, 2.5, None), ("b", "a", "b")))
        assert data.records == ((1, "b"), (2.5, "a"), (None, "b"))
        assert data.records == tuple(zip(*data.columns))
        empty = EventSequence(schema=schema, columns=((), ()))
        assert (empty.n, empty.records) == (0, ())

    def test_value_codes_are_domain_indices_and_value_ranks(self):
        schema = (AttributeSchema("x", "numeric"), AttributeSchema("y", "discrete", ("a", "b")))
        data = EventSequence(
            schema=schema, columns=((3, 1.0, -2, 1), ("b", "a", "b", "b"))
        )
        assert list(data.codes("x")) == [2, 1, 0, 1]
        assert list(data.codes("y")) == [1, 0, 1, 1]

    def test_pair_codes_pair_each_decision_row_with_an_offset_row(self):
        schema = (AttributeSchema("x", "numeric"), AttributeSchema("y", "discrete", ("a", "b")))
        data = EventSequence(
            schema=schema, columns=((3, 1.0, -2, 1), ("b", "a", "b", "b"))
        )
        # x codes 2, 1, 0, 1 and y codes 1, 0, 1, 1, with two classes; the
        # codes of a negative offset start at the first row with a partner
        cases = [
            ((0, 0, 4), [5, 2, 1, 3], {5: 1, 2: 1, 1: 1, 3: 1}),
            ((1, 0, 3), [3, 0, 3], {3: 2, 0: 1}),
            ((-2, 0, 2), [5, 3], {5: 1, 3: 1}),
            ((-2, 1, 2), [3], {3: 1}),
        ]
        for (offset, start, stop), codes, counts in cases:
            assert list(data.codes(("y", "x", offset))[start:stop]) == codes
            got = data.counts(("y", "x", offset), start, stop)
            assert list(got.items()) == list(counts.items())


def pair_codes_by_loop(data, decision, attribute, offset):
    """`value_index * C + class_index` of each decision row that has a partner row."""
    j = data.column_index(attribute)
    values = data.columns[j]
    symbols = data.schema[j].domain or sorted(set(values))
    classes = data.attribute(decision).domain
    decisions = data.columns[data.column_index(decision)]
    return [
        symbols.index(values[r + offset]) * len(classes) + classes.index(decisions[r])
        for r in range(data.n)
        if 0 <= r + offset < data.n
    ]


class TestPairCodeLanes:
    """Pair codes at every lane width against a plain loop, offsets -3..3."""

    def check(self, data, lane):
        for offset in range(-3, 4):
            key = ("c", "x", offset)
            expected = pair_codes_by_loop(data, "c", "x", offset)
            codes = data.codes(key)
            assert codes.typecode == lane
            assert list(codes) == expected
            n = len(expected)
            for start, stop in ((0, n), (2, n - 3), (n // 2, n // 2 + 5)):
                got = data.counts(key, start, stop)
                assert list(got.items()) == list(Counter(expected[start:stop]).items())

    @pytest.mark.parametrize(
        "values, classes, lane",
        # V * C = 256 is the most one byte's lanes hold, and 264 is past it
        [
            (8, 8, "B"), (32, 8, "B"), (33, 8, "H"),
            (30, 9, "H"), (300, 9, "H"), (300, 300, "I"),
        ],
    )
    def test_numeric_values_and_many_classes(self, values, classes, lane):
        rng = random.Random(values * classes)
        n = 3 * max(values, classes)
        # every value and class occurs; a numeric value's code is its rank
        xs = [(i % values) * 0.5 - 7 for i in range(n)]
        cs = [f"k{i % classes}" for i in range(n)]
        rng.shuffle(xs)
        rng.shuffle(cs)
        schema = (
            AttributeSchema("x", "numeric"),
            AttributeSchema("c", "discrete", tuple(dict.fromkeys(cs))),
        )
        self.check(EventSequence(schema, (tuple(xs), tuple(cs))), lane)

    def test_a_part_whose_domain_holds_unused_symbols(self):
        # the tail uses 2 of x's 30 symbols and 2 of c's 9 classes, but its
        # codes still index the whole domain, so its lanes are as wide
        head = [(f"v{i % 30}", f"k{i % 9}") for i in range(300)]
        tail = [(f"v{i % 2}", f"k{i % 4 // 2}") for i in range(40)]
        schema = (
            AttributeSchema("x", "discrete", tuple(f"v{i}" for i in range(30))),
            AttributeSchema("c", "discrete", tuple(f"k{i}" for i in range(9))),
        )
        train, test = split_chronological(from_rows(schema, head + tail), len(tail))
        self.check(train, "H")
        self.check(test, "H")


def symbols(count):
    return tuple(f"s{k}" for k in range(count))


class TestWholeArrayCounts:
    """`counts` against `Counter` over a plain list, key order included.

    A one-byte array's codes are counted by deleting bytes, and a wider
    array's by `Counter`, so each case crosses one of those ways.
    """

    def check(self, domain, column, lane):
        data = EventSequence((AttributeSchema("x", "discrete", domain),), (tuple(column),))
        codes = data.codes("x")
        assert codes.typecode == lane
        plain = [domain.index(value) for value in column]
        n = len(plain)
        for start, stop in ((0, n), (1, n), (0, n - 1), (1, n - 1), (n // 3, n - n // 3)):
            got = data.counts("x", start, stop)
            assert list(got.items()) == list(Counter(plain[start:stop]).items()), (start, stop)

    def test_one_byte_codes_0_and_255(self):
        # 255 first and 0 last, so code order is not first-appearance order
        rng = random.Random(3)
        domain = symbols(256)
        middle = [rng.choice(domain) for _ in range(300)]
        self.check(domain, [domain[255], *middle, domain[0]], "B")
        self.check(domain, [domain[0], domain[255]] * 40, "B")

    def test_a_single_code(self):
        self.check(symbols(3), ["s1"] * 50, "B")

    def test_a_code_seen_only_in_the_last_row(self):
        # a window that leaves the last row out holds the code zero times
        rng = random.Random(4)
        self.check(symbols(5), [rng.choice(symbols(4)) for _ in range(60)] + ["s4"], "B")

    @pytest.mark.parametrize(
        "distinct, spread",
        [(31, 5), (32, 5), (33, 5), (64, 5), (200, 2)],
        ids=["31", "32", "33", "64", "200"],
    )
    def test_many_distinct_one_byte_codes(self, distinct, spread):
        # each code 2 to spread + 1 times, so skewed counts, or near-uniform
        # ones for 200 codes; codes shuffled so none appears in code order
        rng = random.Random(distinct)
        domain = symbols(distinct)
        order = list(domain)
        rng.shuffle(order)
        column = [s for k, s in enumerate(order) for _ in range(1 + k % spread)]
        rng.shuffle(column)
        self.check(domain, order + column, "B")

    @pytest.mark.parametrize("count, lane", [(257, "H"), (65536, "H"), (65537, "I")])
    def test_wider_lanes(self, count, lane):
        rng = random.Random(count)
        domain = symbols(count)
        column = [domain[-1], *(rng.choice(domain[:3] + domain[-3:]) for _ in range(80)), domain[0]]
        self.check(domain, column, lane)


class TestAsDiscrete:
    def test_numeric_becomes_labels(self):
        schema = (AttributeSchema("x", "numeric"),)
        data = EventSequence(schema=schema, columns=((2, 1, 2),))
        out = as_discrete(data, "x")
        assert out.schema[0].kind == "discrete"
        assert out.schema[0].domain == ("2", "1")
        assert out.columns == (("2", "1", "2"),)

    def test_equal_values_share_first_spelling(self, tmp_path):
        data = load_csv(write(tmp_path, "x\n2\n1.0\n1\n"))
        assert data.columns == ((2, 1.0, 1),)
        out = as_discrete(data, "x")
        assert out.schema[0].domain == ("2", "1.0")
        assert out.columns == (("2", "1.0", "1.0"),)

    def test_discrete_passthrough(self):
        schema = (AttributeSchema("x", "discrete", ("a",)),)
        data = EventSequence(schema=schema, columns=(("a",),))
        assert as_discrete(data, "x") is data
