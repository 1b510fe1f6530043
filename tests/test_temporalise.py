import ast
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timerules.dataset import AttributeSchema, DataError, load_csv
from timerules.temporalise import (
    TemporalisationSpec,
    column_name,
    temporalise,
    temporalised_record_count,
)

import oracles
from oracles import csv_by_rows, reference_window, window_codes
from tables import csv_tables, from_rows, window_rows

TABLE_ROWS = "1,2,4,true\n2,3,5,true\n6,7,8,false\n5,2,3,true\n"


@pytest.fixture
def four_records(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text(TABLE_ROWS, encoding="utf-8")
    return load_csv(path, header_mode="positional")


def random_sequence(rng, n, m):
    schema = []
    for j in range(m):
        if j % 2 == 0:
            schema.append(AttributeSchema(f"c{j}", "discrete", ("p", "q", "r")))
        else:
            schema.append(AttributeSchema(f"c{j}", "numeric"))
    records = tuple(
        tuple(
            rng.choice(("p", "q", "r")) if j % 2 == 0 else rng.randint(0, 9)
            for j in range(m)
        )
        for _ in range(n)
    )
    return from_rows(schema, records)


class TestSpec:
    def test_position_bounds(self):
        with pytest.raises(ValueError):
            TemporalisationSpec(w=3, pos=0, d="x")
        with pytest.raises(ValueError):
            TemporalisationSpec(w=3, pos=4, d="x")
        with pytest.raises(ValueError):
            TemporalisationSpec(w=0, pos=1, d="x")


class TestWindowMerging:
    def test_forward_position(self, four_records):
        out = temporalise(TemporalisationSpec(w=3, pos=3, d="a4"), four_records)
        assert window_rows(out) == (
            (1, 2, 4, "true", 2, 3, 5, "true", "false"),
            (2, 3, 5, "true", 6, 7, 8, "false", "true"),
        )
        assert out.field_count == 9

    def test_position_one(self, four_records):
        out = temporalise(TemporalisationSpec(w=3, pos=1, d="a4"), four_records)
        assert window_rows(out) == (
            (2, 3, 5, "true", 6, 7, 8, "false", "true"),
            (6, 7, 8, "false", 5, 2, 3, "true", "true"),
        )

    def test_position_two(self, four_records):
        out = temporalise(TemporalisationSpec(w=3, pos=2, d="a4"), four_records)
        assert window_rows(out) == (
            (1, 2, 4, "true", 6, 7, 8, "false", "true"),
            (2, 3, 5, "true", 5, 2, 3, "true", "false"),
        )

    def test_condition_columns_skip_decision_time(self, four_records):
        out = temporalise(TemporalisationSpec(w=3, pos=2, d="a4"), four_records)
        assert all(t != 2 for _, t in out.condition_columns)
        assert out.decision_column == ("a4", 2)

    def test_window_one_is_original_data(self, four_records):
        out = temporalise(TemporalisationSpec(w=1, pos=1, d="a4"), four_records)
        assert out.n == 4
        assert out.condition_columns == (("a1", 1), ("a2", 1), ("a3", 1))
        assert window_rows(out)[0] == (1, 2, 4, "true")
        assert window_rows(out)[2] == (6, 7, 8, "false")

    def test_sequence_shorter_than_window(self, four_records):
        with pytest.raises(DataError, match="shorter than window"):
            temporalise(TemporalisationSpec(w=5, pos=1, d="a4"), four_records)

    def test_unknown_decision_attribute(self, four_records):
        with pytest.raises(DataError, match="unknown attribute"):
            temporalise(TemporalisationSpec(w=2, pos=1, d="zz"), four_records)

    def test_missing_values_rejected(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("x,y\n1,a\n?,b\n2,a\n", encoding="utf-8")
        data = load_csv(path)
        with pytest.raises(DataError, match="record 2"):
            temporalise(TemporalisationSpec(w=2, pos=2, d="y"), data)
        # the earliest record is named, even when a later column holds its gap
        path.write_text("x,y\n1,a\n2,?\n?,b\n3,a\n", encoding="utf-8")
        with pytest.raises(DataError, match="record 2 contains"):
            temporalise(TemporalisationSpec(w=2, pos=2, d="y"), load_csv(path))


class TestRecordCount:
    def test_table_pair(self):
        assert temporalised_record_count(4, 3) == 2

    def test_window_one(self):
        assert temporalised_record_count(17, 1) == 17

    def test_paper_scale(self):
        assert temporalised_record_count(2500, 5) == 2496

    def test_too_short(self):
        with pytest.raises(DataError):
            temporalised_record_count(2, 3)


class TestProperties:
    def test_counts_and_reconstruction(self):
        rng = random.Random(5)
        for _ in range(40):
            n, m = rng.randint(2, 24), rng.randint(1, 4)
            data = random_sequence(rng, n, m)
            w = rng.randint(2, min(n, 6))
            pos = rng.randint(1, w)
            d = data.schema[rng.randrange(m)].name
            out = temporalise(TemporalisationSpec(w=w, pos=pos, d=d), data)

            assert out.n == n - w + 1
            assert out.field_count == (w - 1) * m + 1
            assert len(set(out.condition_columns)) == len(out.condition_columns)
            times = {t for _, t in out.condition_columns}
            if pos == w:
                assert all(t < pos for t in times)
            else:
                assert any(t > pos for t in times)

            assert out.decision_column == (d, pos)
            for attr, t in (*out.condition_columns, out.decision_column):
                # row i of column (attr, t) is the source value of attr at
                # record i + t - 1, the window's time t
                source = data.columns[data.column_index(attr)]
                for i, value in enumerate(out.column((attr, t))):
                    assert source[i + t - 1] == value

    def test_window_one_field_count(self):
        rng = random.Random(6)
        for _ in range(10):
            n, m = rng.randint(1, 10), rng.randint(1, 4)
            data = random_sequence(rng, n, m)
            d = data.schema[rng.randrange(m)].name
            out = temporalise(TemporalisationSpec(w=1, pos=1, d=d), data)
            assert out.n == n
            assert out.field_count == m


@st.composite
def repetitive_tables(draw):
    """1-12 rows over 1-4 attributes of three symbols or ten numbers, so values repeat."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 4))
    data = random_sequence(random.Random(draw(st.integers(0, 2**32))), n, m)
    return data.schema, list(zip(*data.columns))


def every_spec(data):
    """Every (w, pos, d) that `data` has a window for."""
    for d in data.attribute_names:
        for w in range(1, data.n + 1):
            for pos in range(1, w + 1):
                yield TemporalisationSpec(w=w, pos=pos, d=d)


class TestWindowOracle:
    @settings(max_examples=150, deadline=None)
    @given(table=st.one_of(repetitive_tables(), csv_tables(missing=False, min_rows=1)))
    def test_columns_codes_and_counts_equal_the_reference_window(self, table):
        # every (w, pos, d) of the table, against windows built row by row
        schema, rows = table
        data = from_rows(schema, rows)
        for spec in every_spec(data):
            out = temporalise(spec, data)
            keys, expected = reference_window(data, spec)
            assert out.condition_columns == tuple(keys), spec
            assert out.decision_column == (spec.d, spec.pos)
            assert out.n == len(expected)
            for key, column in zip((*keys, out.decision_column), zip(*expected), strict=True):
                assert out.column(key) == column, (spec, key)
            if data.attribute(spec.d).kind == "discrete":
                for key, codes in window_codes(out).items():
                    assert out.codes(key) == codes, (spec, key)
                    counts = list(Counter(codes).items())
                    assert list(out.counts(key).items()) == counts, (spec, key)

    def test_the_oracles_read_no_window_view(self):
        # an oracle that reads a window through the library re-runs the code it checks
        tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
        read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        views = {"records", "column", "codes", "counts", "condition_columns"}
        assert not read & views


class TestDump:
    def test_headers_carry_time_indices(self, four_records, tmp_path):
        out_path = tmp_path / "dump.csv"
        out = temporalise(TemporalisationSpec(w=3, pos=3, d="a4"), four_records)
        out.to_csv(out_path)
        header = out_path.read_text(encoding="utf-8").splitlines()[0]
        assert header.split(",") == [
            "a1@t1", "a2@t1", "a3@t1", "a4@t1",
            "a1@t2", "a2@t2", "a3@t2", "a4@t2",
            "a4@t3",
        ]

    @settings(max_examples=100, deadline=None)
    @given(table=csv_tables(missing=False, min_rows=1))
    def test_bytes_match_a_row_by_row_writer(self, tmp_path_factory, table):
        schema, rows = table
        data = from_rows(schema, rows)
        path = tmp_path_factory.mktemp("dump") / "dump.csv"
        for spec in every_spec(data):
            temporalise(spec, data).to_csv(path)
            keys, expected = reference_window(data, spec)
            header = [column_name(*key) for key in (*keys, (spec.d, spec.pos))]
            assert path.read_bytes() == csv_by_rows(header, expected), spec

    def test_column_name(self):
        assert column_name("x", 2) == "x@t2"
