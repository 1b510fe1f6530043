import random

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

from oracles import csv_by_rows, window_code_counts
from tables import csv_tables, from_rows

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
        assert out.records == (
            (1, 2, 4, "true", 2, 3, 5, "true", "false"),
            (2, 3, 5, "true", 6, 7, 8, "false", "true"),
        )
        assert out.field_count == 9

    def test_position_one(self, four_records):
        out = temporalise(TemporalisationSpec(w=3, pos=1, d="a4"), four_records)
        assert out.records == (
            (2, 3, 5, "true", 6, 7, 8, "false", "true"),
            (6, 7, 8, "false", 5, 2, 3, "true", "true"),
        )

    def test_position_two(self, four_records):
        out = temporalise(TemporalisationSpec(w=3, pos=2, d="a4"), four_records)
        assert out.records == (
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
        assert out.records[0] == (1, 2, 4, "true")
        assert out.records[2] == (6, 7, 8, "false")

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

            d_index = data.column_index(d)
            for i, record in enumerate(out.records):
                # re-split the flat record by time index; it must reproduce
                # the source window values exactly
                for (attr, t), value in zip(out.condition_columns, record):
                    j = data.column_index(attr)
                    assert data.records[i + t - 1][j] == value
                assert record[-1] == data.records[i + pos - 1][d_index]

    def test_window_one_field_count(self):
        rng = random.Random(6)
        for _ in range(10):
            n, m = rng.randint(1, 10), rng.randint(1, 4)
            data = random_sequence(rng, n, m)
            d = data.schema[rng.randrange(m)].name
            out = temporalise(TemporalisationSpec(w=1, pos=1, d=d), data)
            assert out.n == n
            assert out.field_count == m


def brute_force_windows(data, w, pos, d):
    """Flat records by slicing each window of w source records directly."""
    j = data.column_index(d)
    rows = []
    for i in range(data.n - w + 1):
        window = data.records[i : i + w]
        if w == 1:
            conditions = tuple(v for k, v in enumerate(window[0]) if k != j)
        else:
            conditions = tuple(
                v for t, record in enumerate(window, 1) if t != pos for v in record
            )
        rows.append(conditions + (window[pos - 1][j],))
    return tuple(rows)


@st.composite
def sequences_and_specs(draw):
    n = draw(st.integers(1, 30))
    m = draw(st.integers(1, 4))
    data = random_sequence(random.Random(draw(st.integers(0, 2**32))), n, m)
    w = draw(st.integers(1, n))
    pos = draw(st.integers(1, w))
    d = data.schema[draw(st.integers(0, m - 1))].name
    return data, TemporalisationSpec(w=w, pos=pos, d=d)


class TestBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(sequences_and_specs())
    def test_records_equal_window_slicing(self, case):
        data, spec = case
        out = temporalise(spec, data)
        expected = brute_force_windows(data, spec.w, spec.pos, spec.d)
        assert out.records == expected
        keys = (*out.condition_columns, out.decision_column)
        for k, key in enumerate(keys):
            assert out.column(key) == tuple(record[k] for record in expected), key
        assert out.n == len(expected)


@st.composite
def sequences_and_discrete_decisions(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 4))
    data = random_sequence(random.Random(draw(st.integers(0, 2**32))), n, m)
    # random_sequence makes the even-numbered attributes discrete
    d = data.schema[2 * draw(st.integers(0, (m - 1) // 2))].name
    return data, d


class TestCodes:
    @settings(max_examples=100, deadline=None)
    @given(sequences_and_discrete_decisions())
    def test_codes_equal_a_plain_loop_over_the_window(self, case):
        data, d = case
        classes = data.attribute(d).domain
        for w in range(1, data.n + 1):
            for pos in range(1, w + 1):
                out = temporalise(TemporalisationSpec(w=w, pos=pos, d=d), data)
                decisions = out.column(out.decision_column)
                class_codes = [classes.index(value) for value in decisions]
                expected = {out.decision_column: class_codes}
                for attr, t in out.condition_columns:
                    symbols = data.attribute(attr).domain
                    if symbols is None:
                        symbols = sorted(set(data.columns[data.column_index(attr)]))
                    expected[attr, t] = [
                        symbols.index(value) * len(classes) + k
                        for value, k in zip(out.column((attr, t)), class_codes)
                    ]
                class_counts, counts = window_code_counts(out)
                counts[out.decision_column] = class_counts
                for column, codes in expected.items():
                    assert out.codes(column) == codes, (w, pos, column)
                    assert list(out.counts(column).items()) == counts[column], (w, pos, column)


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

    @settings(max_examples=200, deadline=None)
    @given(table=csv_tables(missing=False, min_rows=1), data=st.data())
    def test_bytes_match_a_row_by_row_writer(self, tmp_path_factory, table, data):
        schema, rows = table
        w = data.draw(st.integers(1, len(rows)))
        pos = data.draw(st.integers(1, w))
        d = data.draw(st.sampled_from([attribute.name for attribute in schema]))
        out = temporalise(TemporalisationSpec(w=w, pos=pos, d=d), from_rows(schema, rows))
        path = tmp_path_factory.mktemp("dump") / "dump.csv"
        out.to_csv(path)
        assert "records" not in vars(out)
        header = [f"{a}@t{t}" for a, t in (*out.condition_columns, out.decision_column)]
        assert path.read_bytes() == csv_by_rows(header, out.records)

    def test_column_name(self):
        assert column_name("x", 2) == "x@t2"
