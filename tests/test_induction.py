import math
import pickle
import random
import re
import sys
from collections import Counter
from dataclasses import replace
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from timerules.dataset import (
    AttributeSchema,
    DataError,
    EventSequence,
    load_csv,
    split_chronological,
)
from timerules.induction import (
    _SMALL_NODE,
    _TERMS,
    Condition,
    Rule,
    _Split,
    _TreeBuilder,
    _entropy,
    classify,
    evaluate,
    induce,
)
from timerules.semantics import classify_rule_set, classify_times
from timerules.temporalise import (
    TemporalisationSpec,
    TemporalisedDataset,
    column_name,
    temporalise,
)
from timerules.worlds import RobotWorldConfig, generate_periodic, generate_robot_walk

from oracles import (
    ReferenceTree,
    best_tree_correct_count,
    condition_holds,
    first_match,
    lookup_table_accuracy,
    reference_window,
    window_codes,
)
from tables import from_rows


def flat_table(rows, kinds=None, names=None):
    """Build a w=1 training set from literal rows; last column is the class."""
    m = len(rows[0])
    names = names or [f"c{j}" for j in range(m - 1)] + ["k"]
    kinds = kinds or ["discrete"] * m
    schema = []
    for j, (name, kind) in enumerate(zip(names, kinds)):
        if kind == "discrete":
            domain = tuple(dict.fromkeys(str(row[j]) for row in rows))
            schema.append(AttributeSchema(name, "discrete", domain))
        else:
            schema.append(AttributeSchema(name, "numeric"))
    records = tuple(
        tuple(str(v) if kinds[j] == "discrete" else v for j, v in enumerate(row))
        for row in rows
    )
    data = from_rows(schema, records)
    return temporalise(TemporalisationSpec(w=1, pos=1, d=names[-1]), data)


def rule_line_columns(lines):
    """The (attribute, time) columns that rendered rule lines test."""
    columns = set()
    for line in lines:
        body = line.removeprefix("IF ").split(" THEN ")[0]
        if body != "TRUE":
            for condition in body.split(" AND "):
                attribute, time = re.match(r"(.+?)@t(\d+)(?:<=|>|=)", condition).groups()
                columns.add((attribute, int(time)))
    return columns


NUMERIC_POOL = (-2, 0, 1, 1.0, 1.5, 2, 2.0, 3, 7.25, 10)
SYMBOL_POOL = ("p", "q", "r")
UNSEEN_SYMBOL = "s"
CLASS_POOL = ("A", "B", "C", "D")
# values whose float midpoint can miss the gap between neighbours: it
# rounds onto one of them (adjacent floats, ints past 2**53), below both
# (ints past 2**54), or overflows (the largest floats)
_BIG_INTS = tuple(b + k for b in (2**53, 2**54) for k in range(-1, 4))
EDGE_POOL = (
    _BIG_INTS
    + tuple(map(float, _BIG_INTS))
    + (1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, 1.0 + 2.0**-51)
    + (-1.7e308, 1.7e308, 1.75e308)
)


@st.composite
def random_tables(draw):
    """A training and a test sequence over one random schema, with its window.

    Condition attributes mix discrete and numeric kinds; numeric cells
    repeat and mix int and float (1 and 1.0 are equal values); the
    decision attribute has three or four classes in a shuffled domain.
    The test sequence's discrete domains add a symbol training never
    sees, which no branch of a learned tree covers.
    """
    m = draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(("discrete", "numeric")), min_size=m, max_size=m))
    classes = draw(st.permutations(CLASS_POOL[: draw(st.integers(3, 4))]))
    d_index = draw(st.integers(0, m))
    schema = [
        AttributeSchema(f"c{j}", "discrete", SYMBOL_POOL)
        if kind == "discrete"
        else AttributeSchema(f"c{j}", "numeric")
        for j, kind in enumerate(kinds)
    ]
    schema.insert(d_index, AttributeSchema("k", "discrete", tuple(classes)))
    test_schema = [
        replace(a, domain=a.domain + (UNSEEN_SYMBOL,)) if a.name != "k" and a.domain else a
        for a in schema
    ]

    def rows(symbols, min_size, max_size):
        cells = [
            st.sampled_from(symbols) if kind == "discrete" else st.sampled_from(NUMERIC_POOL)
            for kind in kinds
        ]
        cells.insert(d_index, st.sampled_from(classes))
        return draw(st.lists(st.tuples(*cells), min_size=min_size, max_size=max_size))

    train_rows = rows(SYMBOL_POOL, 4, 40)
    assume(len({r[d_index] for r in train_rows}) >= 3)
    test_rows = rows(SYMBOL_POOL + (UNSEEN_SYMBOL,), 3, 15)
    w = draw(st.integers(1, 3))
    pos = draw(st.integers(1, w))
    spec = TemporalisationSpec(w=w, pos=pos, d="k")
    train = from_rows(schema, train_rows)
    test = from_rows(test_schema, test_rows)
    return temporalise(spec, train), temporalise(spec, test)


@st.composite
def consistent_numeric_tables(draw):
    """A w=1 table of one numeric column and a two-class decision.

    The column's values come from `EDGE_POOL`; equal values, an int and
    its float spelling too, share a class.
    """
    values = draw(st.lists(st.sampled_from(EDGE_POOL), min_size=1, max_size=10))
    distinct = list(dict.fromkeys(values))
    n = len(distinct)
    classes = draw(st.lists(st.sampled_from("AB"), min_size=n, max_size=n))
    label = dict(zip(distinct, classes))
    return flat_table([(v, label[v]) for v in values], kinds=["numeric", "discrete"])


@st.composite
def node_bound_tables(draw):
    """A window of `_SMALL_NODE` - 1 to 4 * `_SMALL_NODE` rows.

    Two discrete columns of 2-3 symbols and one numeric column of small
    ints decide among 2-4 classes, so the tree's nodes fall on both sides
    of the small-node bound and hold both one-class and mixed value groups,
    and a numeric cut's sides each fall on both sides of it.
    """
    w = draw(st.integers(1, 2))
    n = draw(st.integers(_SMALL_NODE + w - 2, 4 * _SMALL_NODE + w - 1))
    classes = tuple("ABCD"[: draw(st.integers(2, 4))])
    domains = [tuple("pqr"[: draw(st.integers(2, 3))]) for _ in range(2)]
    schema = (
        AttributeSchema("u", "discrete", domains[0]),
        AttributeSchema("v", "discrete", domains[1]),
        AttributeSchema("x", "numeric"),
        AttributeSchema("k", "discrete", classes),
    )
    cells = (*map(st.sampled_from, domains), st.integers(0, 4), st.sampled_from(classes))
    rows = draw(st.lists(st.tuples(*cells), min_size=n, max_size=n))
    assume(len({row[-1] for row in rows}) > 1)
    spec = TemporalisationSpec(w=w, pos=draw(st.integers(1, w)), d="k")
    return temporalise(spec, from_rows(schema, rows))


def seeded_bound_window(seed):
    """A w=1 window of `node_bound_tables`' shape: 64 rows drawn by `random.Random(seed)`."""
    rng = random.Random(seed)
    schema = (
        AttributeSchema("u", "discrete", ("p", "q", "r")),
        AttributeSchema("v", "discrete", ("p", "q")),
        AttributeSchema("x", "numeric"),
        AttributeSchema("k", "discrete", ("A", "B", "C")),
    )
    rows = [
        (rng.choice("pqr"), rng.choice("pq"), rng.randint(0, 4), rng.choice("ABC"))
        for _ in range(64)
    ]
    return temporalise(TemporalisationSpec(w=1, pos=1, d="k"), from_rows(schema, rows))


def split_info_tie_window():
    """u and v split the root into one-class groups of 2, 37 and 39 rows.

    u meets them in that order, v as 39, 2, 37: their gain ratios are equal
    in real numbers, but v's split info, summed in its own order, is one
    ulp smaller in floats, so the reference splits on v (ROADMAP item 1).
    """
    rows = [("p", "p", "A")] * 2 + [("q", "p", "A")] * 37
    rows += [("r", "q", "B")] * 2 + [("r", "r", "B")] * 37
    return flat_table(rows, names=["u", "v", "k"])


def group_order_tie_window(seed):
    """40 rows where v is u with its symbols shuffled among each class's rows.

    Both split the root into groups of equal class counts, met in other
    orders: their children entropy is equal in real numbers but summed in
    each column's own orders. At seed 0 v's is one ulp smaller in floats,
    so the reference splits on v (ROADMAP item 1).
    """
    rng = random.Random(seed)
    classes = [rng.choice("ABC") for _ in range(40)]
    u = [rng.choice("pq") for _ in range(40)]
    v = list(u)
    for klass in "ABC":
        rows = [i for i, k in enumerate(classes) if k == klass]
        symbols = [u[i] for i in rows]
        rng.shuffle(symbols)
        for i, symbol in zip(rows, symbols):
            v[i] = symbol
    return flat_table(list(zip(u, v, classes)), names=["u", "v", "k"])


@st.composite
def short_sequences(draw):
    """1-12 records: a discrete decision c0, then up to two more columns.

    Discrete columns have 2-4 symbols, numeric ones small ints, so a code
    often occurs only in the few rows a window leaves out at either end.
    """
    n = draw(st.integers(1, 12))
    extra = draw(st.lists(st.sampled_from(["discrete", "numeric"]), max_size=2))
    kinds = ["discrete", *extra]
    schema, columns = [], []
    for j, kind in enumerate(kinds):
        if kind == "discrete":
            domain = tuple("pqrs"[: draw(st.integers(2, 4))])
            schema.append(AttributeSchema(f"c{j}", "discrete", domain))
            cells = st.sampled_from(domain)
        else:
            schema.append(AttributeSchema(f"c{j}", "numeric"))
            cells = st.integers(-3, 3)
        columns.append(tuple(draw(st.lists(cells, min_size=n, max_size=n))))
    return EventSequence(tuple(schema), tuple(columns))


class TestCounting:
    def test_counts_in_first_appearance_order_on_both_sides_of_the_cutoff(self):
        # every entropy sum follows the groups' key order, so the children
        # a node's split hands down, one per value with its class counts,
        # must keep first appearance, both when `_best_split` groups the
        # rows itself (at most `_SMALL_NODE`) and when it counts them
        # first; no node counts the class codes alone
        rng = random.Random(11)
        domain = tuple("pqrstu")
        schema = (
            AttributeSchema("u", "discrete", domain),
            AttributeSchema("k", "discrete", CLASS_POOL),
        )
        rows = [(rng.choice(domain), rng.choice(CLASS_POOL)) for _ in range(500)]
        train = temporalise(TemporalisationSpec(w=1, pos=1, d="k"), from_rows(schema, rows))
        builder = _TreeBuilder(train)
        # the root, which reads every pair code
        builder._best_split(None, train.n, train.counts(train.decision_column), builder.columns)
        for size in (2, _SMALL_NODE - 1, _SMALL_NODE, _SMALL_NODE + 1, 400):
            for _ in range(20):
                indices = rng.sample(range(len(rows)), size)
                expected: dict = {}
                for i in indices:
                    value, klass = domain.index(rows[i][0]), CLASS_POOL.index(rows[i][1])
                    group = expected.setdefault(value, {})
                    group[klass] = group.get(klass, 0) + 1
                counts = Counter(CLASS_POOL.index(rows[i][1]) for i in indices)
                best, live = builder._best_split(
                    itemgetter(*indices), size, counts, builder.columns
                )
                if len(expected) < 2:  # u is constant on these rows
                    assert (best, live) == (None, [])
                    continue
                column, cut, children = best
                assert live == [column] == builder.columns and cut is None
                assert [(v, list(g.items())) for v, g in children.items()] == [
                    (v, list(g.items())) for v, g in expected.items()
                ]

    @settings(max_examples=200, deadline=None)
    @given(data=short_sequences())
    @example(data=from_rows(
        # q occurs only in the head, s only in the tail, r in both and between
        (
            AttributeSchema("c0", "discrete", ("p", "q", "r", "s")),
            AttributeSchema("c1", "numeric"),
        ),
        [("q", 9), ("r", 0), ("p", 1), ("r", 1), ("p", 0), ("r", -2), ("s", 7)],
    ))
    def test_whole_column_counts_in_first_appearance_order(self, data):
        # the root holds every row of its window and reads the window's
        # counts, which come from the whole source arrays' counts less the
        # rows the window leaves out; every window shares those counts
        for w in range(1, min(5, data.n) + 1):
            for pos in range(1, w + 1):
                window = temporalise(TemporalisationSpec(w=w, pos=pos, d="c0"), data)
                for column, codes in window_codes(window).items():
                    expected = list(Counter(codes).items())
                    assert list(window.counts(column).items()) == expected, (w, pos, column)


def spy_grow():
    """Patch `_TreeBuilder._grow`, called once per node, with a mock that records every call."""
    return mock.patch.object(
        _TreeBuilder, "_grow", autospec=True, side_effect=_TreeBuilder._grow
    )


def spy_codes():
    """Patch `TemporalisedDataset.codes` with a mock that records every call."""
    return mock.patch.object(
        TemporalisedDataset, "codes", autospec=True, side_effect=TemporalisedDataset.codes
    )


def spy_column():
    """Patch `TemporalisedDataset.column` with a mock that records every call."""
    return mock.patch.object(
        TemporalisedDataset, "column", autospec=True, side_effect=TemporalisedDataset.column
    )


class TestCodeFetching:
    def test_a_root_with_only_pure_children_fetches_no_codes(self):
        # the root reads its window's counts, and in a period-8 cycle its
        # split leaves only pure children, so no node needs a code list and
        # no rows are grouped by value; evaluating scores such a root, or a
        # single-leaf one (w = 1), from counts too, so it reads no column
        # of the training window or of a held-out one
        head, tail = split_chronological(generate_periodic(8, 240), 40)
        for w in range(1, 6):
            for pos in range(1, w + 1):
                spec = TemporalisationSpec(w=w, pos=pos, d="x")
                train, test = temporalise(spec, head), temporalise(spec, tail)
                with spy_codes() as codes, spy_column() as column:
                    rule_set = induce(train)
                assert codes.call_count == 0, (w, pos)
                assert column.call_count == 0, (w, pos)
                for data in (train, test):
                    with spy_column() as column:
                        accuracy = evaluate(rule_set, data)
                    assert column.call_count == 0, (w, pos)
                    assert accuracy == (0.125 if w == 1 else 1.0), (w, pos)

    def test_each_column_is_fetched_at_most_once(self):
        rng = random.Random(5)
        schema = tuple(AttributeSchema(name, "discrete", ("a", "b", "c")) for name in "uvc")
        data = from_rows(schema, [[rng.choice("abc") for _ in "uvc"] for _ in range(300)])
        for w, pos in ((1, 1), (2, 1), (2, 2), (3, 2)):
            train = temporalise(TemporalisationSpec(w=w, pos=pos, d="c"), data)
            with spy_codes() as codes, spy_column() as column:
                induce(train)
            for spy in (codes, column):
                fetched = Counter(call.args[1] for call in spy.call_args_list)
                assert fetched and max(fetched.values()) == 1, (w, pos)
                assert set(fetched) <= {train.decision_column, *train.condition_columns}

    def test_no_node_fetches_the_decision_column(self, tmp_path):
        # every child, a numeric side too, inherits its class counts from
        # its parent's split and the root reads its window's, so growing a
        # tree over the CSV robot walk's numeric x and y never reads the
        # class codes
        path = tmp_path / "walk.csv"
        generate_robot_walk(RobotWorldConfig(steps=600, seed=3)).to_csv(path)
        data = load_csv(path)
        assert data.attribute("x").kind == "numeric"
        for w, pos in ((1, 1), (2, 1), (3, 2), (3, 3)):
            train = temporalise(TemporalisationSpec(w=w, pos=pos, d="a"), data)
            with spy_codes() as codes:
                induce(train)
            fetched = Counter(call.args[1] for call in codes.call_args_list)
            assert fetched and max(fetched.values()) == 1, (w, pos)
            assert train.decision_column not in fetched, (w, pos)

    def test_the_training_window_is_scored_from_the_leaves(self):
        # the learner tallies the tree's misses on its training window, so
        # scoring that window routes no row, although this noise tree's
        # root has impure children; an equal but distinct window is routed
        rng = random.Random(5)
        schema = tuple(AttributeSchema(name, "discrete", ("a", "b", "c")) for name in "uvc")
        data = from_rows(schema, [[rng.choice("abc") for _ in "uvc"] for _ in range(300)])
        spec = TemporalisationSpec(w=2, pos=2, d="c")
        train = temporalise(spec, data)
        rule_set = induce(train)
        assert any(isinstance(child, _Split) for child in rule_set.tree.branches.values())
        with spy_codes() as codes, spy_column() as column:
            accuracy = evaluate(rule_set, train)
        assert codes.call_count == column.call_count == 0
        with spy_column() as column:
            assert evaluate(rule_set, temporalise(spec, data)) == accuracy
        assert column.call_count > 0

    def test_evaluate_fetches_only_the_columns_routed_rows_reach(self):
        # c0=p asks c1 and c0=q asks c2; every held-out row says c0=p, so
        # routing them reads c0, c1 and the decisions, never c2
        schema = (
            AttributeSchema("c0", "discrete", ("p", "q")),
            AttributeSchema("c1", "discrete", ("x", "y")),
            AttributeSchema("c2", "discrete", ("x", "y")),
            AttributeSchema("k", "discrete", ("A", "B", "C", "D")),
        )
        rows = [("p", c1, c2, "AB"[c1 == "y"]) for c1 in "xy" for c2 in "xy"]
        rows += [("q", c1, c2, "CD"[c2 == "y"]) for c1 in "xy" for c2 in "xy"]
        rule_set = induce(held_out(schema, rows))
        assert rule_set.tree.key == ("c0", 1)
        assert [child.key for child in rule_set.tree.branches.values()] == [("c1", 1), ("c2", 1)]
        data = held_out(schema, [("p", "x", "y", "A"), ("p", "y", "x", "A")])
        with spy_column() as column:
            assert evaluate(rule_set, data) == 0.5
        fetched = [call.args[1] for call in column.call_args_list]
        assert sorted(fetched) == [("c0", 1), ("c1", 1), ("k", 1)]


class TestPureChildren:
    def test_pure_discrete_children_are_leaves_without_rows(self):
        # in a period-8 cycle either neighbour decides the value, so the
        # root's one split has eight pure children
        data = generate_periodic(8, 64)
        for w, pos in ((2, 1), (2, 2)):
            train = temporalise(TemporalisationSpec(w=w, pos=pos, d="x"), data)
            with spy_grow() as grow:
                rule_set = induce(train)
            assert grow.call_count == 1
            assert rule_set.size == 8
            assert rule_set.render() == "\n".join(ReferenceTree(train).rule_lines())

    def test_pure_numeric_sides_take_the_sorted_boundary_rows(self):
        # 2**53 + 2 and its float spelling are one value with one code,
        # yet each gives another midpoint with its neighbour, and near
        # 2**53 a midpoint can round onto the high side: the threshold
        # comes from the rows a stable sort puts either side of the cut,
        # which reversing the rows swaps, and must still separate them
        big = 2**53 + 2
        sides = (([2**53 + 1], [big, float(big)]), ([big, float(big)], [2**53 + 3]))
        for low, high in sides:
            rows = [(v, "A") for v in low] + [(v, "B") for v in high]
            for ordered in (rows, rows[::-1]):
                train = flat_table(ordered, kinds=["numeric", "discrete"])
                with spy_grow() as grow:
                    rule_set = induce(train)
                assert grow.call_count == 1
                assert rule_set.size == 2
                assert rule_set.render() == "\n".join(ReferenceTree(train).rule_lines())
                assert evaluate(rule_set, train) == 1.0
                assert max(low) <= rule_set.tree.threshold < min(high)

    def test_a_midpoint_beyond_float_range_falls_back_to_the_low_value(self):
        # 5 + 10**400 cannot be halved into a float, so the threshold is 5
        # itself, and the row equal to it must route to the low side
        rows = [(5, "A"), (10**400, "B"), (3 * 10**400, "B")]
        train = flat_table(rows, kinds=["numeric", "discrete"])
        rule_set = induce(train)
        assert rule_set.size == 2
        assert evaluate(rule_set, train) == 1.0
        assert 5 <= rule_set.tree.threshold < 10**400
        assert rule_set.render() == "\n".join(ReferenceTree(train).rule_lines())

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(tables=random_tables())
    # the high side holds C then A, the node A, B, C: its counts must
    # follow its rows, not the node's class order
    @example(tables=(
        flat_table([(-2, "A"), (-2, "B"), (0, "C"), (0, "A")], kinds=["numeric", "discrete"]),
        None,
    ))
    def test_handed_down_counts_equal_a_recount(self, tables):
        # entropy sums follow the counts' key order, so a child's inherited
        # counts must be what counting its rows gives, in the same order
        train, _ = tables
        original = _TreeBuilder._grow
        inherited = []

        def grow(self, indices, columns, counts, stack):
            if len(indices) < train.n:
                recount = Counter(map(self.codes[train.decision_column].__getitem__, indices))
                assert list(counts.items()) == list(recount.items())
                inherited.append(counts)
            return original(self, indices, columns, counts, stack)

        with mock.patch.object(_TreeBuilder, "_grow", grow):
            induce(train)
        assume(inherited)

    def test_every_leaf_of_a_class_is_one_object(self):
        # a noise tree has dozens of leaves: pure children, empty branches
        # and leaves with no live column are each their class's domain symbol
        rng = random.Random(3)
        schema = (
            AttributeSchema("u", "discrete", ("p", "q", "r", "s")),
            AttributeSchema("v", "discrete", ("p", "q", "r", "s")),
            AttributeSchema("k", "discrete", CLASS_POOL),
        )
        rows = [(rng.choice("pqrs"), rng.choice("pqrs"), rng.choice(CLASS_POOL)) for _ in range(300)]
        train = temporalise(TemporalisationSpec(w=2, pos=2, d="k"), from_rows(schema, rows))
        rule_set = induce(train)
        domain = schema[-1].domain
        leaves = set()

        def walk(node):
            if isinstance(node, _Split):
                for child in node.branches.values():
                    walk(child)
            else:
                assert node is domain[domain.index(node)]
                leaves.add(node)

        walk(rule_set.tree)
        assert rule_set.size > 40
        assert sorted(leaves) == sorted(CLASS_POOL)


class TestExactTerms:
    def test_every_table_term_is_the_formula_bit_for_bit(self):
        for n in range(1, _SMALL_NODE + 1):
            for c in range(1, n + 1):
                assert _TERMS[n][c].hex() == ((c / n) * math.log2(c / n)).hex(), (c, n)

    def test_entropy_of_every_small_count_tuple_is_the_direct_loop(self):
        # every ordered tuple of positive counts with a total of at most 8,
        # so every order in which a node can meet its classes
        def compositions(total):
            if total == 0:
                yield ()
                return
            for first in range(1, total + 1):
                for rest in compositions(total - first):
                    yield (first, *rest)

        checked = 0
        for total in range(1, 9):
            for counts in compositions(total):
                expected = 0.0
                for c in counts:
                    p = c / total
                    expected -= p * math.log2(p)
                assert _entropy(counts, total).hex() == expected.hex(), counts
                checked += 1
        assert checked == 2**8 - 1


def two_row_node_table(columns):
    """A w=1 table whose root splits on `a` into a pure child and a two-row node.

    The node holds the rows classed B and C, in that order. `columns`
    picks, in scan order, which of these follow `a`: b, constant on the
    node but not on the root; c, a discrete column whose symbol w only
    other rows hold; d, numeric, lower on the node's second row; e,
    discrete.
    """
    cells = {
        "a": ("discrete", "p", "p", "q", "q", "p", "p"),
        "b": ("discrete", "x", "y", "x", "x", "x", "y"),
        "c": ("discrete", "u", "v", "u", "v", "w", "v"),
        "d": ("numeric", 1, 5, 9, 3, 7, 11),
        "e": ("discrete", "m", "n", "m", "n", "m", "n"),
        "k": ("discrete", "A", "A", "B", "C", "A", "A"),
    }
    names = ["a", *columns, "k"]
    rows = list(zip(*(cells[name][1:] for name in names)))
    return flat_table(rows, kinds=[cells[name][0] for name in names], names=names)


class TestTwoRowNodes:
    # Two rows of two classes score (1, 1.0) on every live column, so the
    # first column whose two values differ wins, and both children are
    # one-class leaves; these trees pin which column, which threshold and
    # which class lands on each side.
    def grown(self, train):
        with spy_grow() as grow:
            rule_set = induce(train)
        assert [len(call.args[1]) for call in grow.call_args_list] == [train.n, 2]
        assert rule_set.render() == "\n".join(ReferenceTree(train).rule_lines())
        return rule_set

    def test_the_first_differing_column_wins(self):
        # b ties on the node's rows; c, d and e all split them
        rule_set = self.grown(two_row_node_table("bcde"))
        assert rule_set.render().splitlines() == [
            "IF a@t1=p THEN k@t1=A",
            "IF a@t1=q AND c@t1=u THEN k@t1=B",
            "IF a@t1=q AND c@t1=v THEN k@t1=C",
            # no training row of the node holds w: the node's majority,
            # of tied classes the first in the domain
            "IF a@t1=q AND c@t1=w THEN k@t1=B",
        ]
        assert rule_set.size == 4
        assert rule_set.tested == {("a", 1), ("c", 1)}

    def test_a_numeric_cut_puts_the_lower_value_low(self):
        # the node's second row, classed C, holds the lower d
        rule_set = self.grown(two_row_node_table("bde"))
        assert rule_set.render().splitlines() == [
            "IF a@t1=p THEN k@t1=A",
            "IF a@t1=q AND d@t1<=6.0 THEN k@t1=C",
            "IF a@t1=q AND d@t1>6.0 THEN k@t1=B",
        ]
        assert rule_set.tree.branches["q"].threshold == 6.0

    def test_a_node_whose_columns_all_tie_is_a_majority_leaf(self):
        # b is the node's only column and holds one value there: one miss
        rule_set = self.grown(two_row_node_table("b"))
        assert rule_set.render().splitlines() == [
            "IF a@t1=p THEN k@t1=A",
            "IF a@t1=q THEN k@t1=B",
        ]
        assert evaluate(rule_set, rule_set.train) == 5 / 6


def frames_below():
    """How many frames the calling frame stands on, itself included."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def ascending_chain(n):
    """A w=1 table of an ascending column t over `n` rows of random classes, and its spec.

    Gain ratio favours cuts that peel off one row, so its tree is a chain
    of about n / 2 splits.
    """
    rng = random.Random(0)
    rows = [(t, rng.choice("ab")) for t in range(n)]
    schema = (AttributeSchema("t", "numeric"), AttributeSchema("c", "discrete", ("a", "b")))
    return from_rows(schema, rows), TemporalisationSpec(w=1, pos=1, d="c")


class TestDeepTrees:
    def test_a_chain_deeper_than_the_recursion_limit_grows_routes_and_reads(self):
        # with the recursion limit 100 frames above this one, growing the
        # tree, routing rows down it and reading its rules must not recurse
        data, spec = ascending_chain(600)
        train = temporalise(spec, data)
        expected = ReferenceTree(train).rule_lines()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frames_below() + 100)
        try:
            rule_set = induce(train)
            accuracy = evaluate(rule_set, temporalise(spec, data))
            lines = rule_set.render().splitlines()
        finally:
            sys.setrecursionlimit(limit)
        # a rule's conditions are its leaf's path, one per split above it
        assert max(len(rule.conditions) for rule in rule_set.rules) > 250
        assert rule_set.size == len(expected)
        assert lines == expected
        assert accuracy == evaluate(rule_set, train) == 1.0

    def test_a_chain_deeper_than_the_recursion_limit_compares_and_pickles(self):
        # rule sets compare, hash and pickle their trees as a flat preorder,
        # so none of these recurses down the chain; a pickled tree comes
        # back with its rules and one leaf object per class
        data, spec = ascending_chain(600)
        train = temporalise(spec, data)
        first, second = induce(train), induce(train)
        other = induce(temporalise(spec, ascending_chain(599)[0]))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frames_below() + 100)
        try:
            assert first == second
            assert first != replace(first, tree=other.tree)
            copy = pickle.loads(pickle.dumps(first))
            assert copy == first
            assert hash(copy) == hash(first) == hash(second)
            lines = copy.render().splitlines()
        finally:
            sys.setrecursionlimit(limit)
        assert max(len(rule.conditions) for rule in first.rules) > 250
        assert lines == first.render().splitlines()
        assert evaluate(copy, temporalise(spec, data)) == 1.0
        leaves, stack = set(), [copy.tree]
        while stack:
            node = stack.pop()
            if isinstance(node, _Split):
                stack.extend(node.branches.values())
            else:
                leaves.add(id(node))
        assert len(leaves) == 2


class TestInduce:
    def test_pure_class_single_rule(self):
        train = flat_table([("a", "yes"), ("b", "yes"), ("a", "yes")])
        rule_set = induce(train)
        assert rule_set.size == 1
        assert rule_set.rules[0].conditions == ()
        assert rule_set.rules[0].decision_value == "yes"
        assert evaluate(rule_set, train) == 1.0

    def test_xor_needs_depth_two(self):
        train = flat_table(
            [("0", "0", "0"), ("0", "1", "1"), ("1", "0", "1"), ("1", "1", "0")]
        )
        rule_set = induce(train)
        assert rule_set.size == 4
        assert evaluate(rule_set, train) == 1.0

    def test_robot_forward_window_fits_exactly(self):
        walk = generate_robot_walk(RobotWorldConfig(steps=600, seed=3))
        train = temporalise(TemporalisationSpec(w=2, pos=2, d="x"), walk)
        rule_set = induce(train)
        assert evaluate(rule_set, train) == 1.0

    def test_numeric_decision_rejected(self):
        schema = (AttributeSchema("a", "discrete", ("u",)), AttributeSchema("k", "numeric"))
        data = from_rows(schema, (("u", 1), ("u", 2)))
        train = temporalise(TemporalisationSpec(w=1, pos=1, d="k"), data)
        with pytest.raises(DataError, match="discrete decision"):
            induce(train)

    def test_empty_training_data(self):
        # a window with zero rows cannot be built, so induce never meets one
        train = flat_table([("a", "yes")])
        empty = EventSequence(train.source.schema, tuple(() for _ in train.source.columns))
        with pytest.raises(DataError, match="shorter than window: n=0, w=1"):
            replace(train, source=empty)

    def test_numeric_threshold_splits(self):
        rows = [(1, "lo"), (2, "lo"), (6, "hi"), (5, "hi")]
        train = flat_table(rows, kinds=["numeric", "discrete"], names=["v", "k"])
        rule_set = induce(train)
        assert evaluate(rule_set, train) == 1.0
        rendered = rule_set.render()
        assert "v@t1<=3.5" in rendered
        assert "v@t1>3.5" in rendered

    @settings(max_examples=300, deadline=None)
    @given(train=consistent_numeric_tables())
    def test_consistent_table_is_fit_exactly(self, train):
        # the learner grows until each leaf is pure or no column varies, so
        # on a table whose column decides the class every row is fit, as
        # long as each threshold separates the two sides it was grown from
        assert evaluate(induce(train), train) == 1.0

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: u and v both have gain ratio exactly 1, but in "
        "floats u's is 0.9999999999999999 and v's 1.0, so the tree splits on v",
    )
    def test_an_exact_tie_goes_to_the_earlier_column(self):
        train = flat_table(
            [("p", "p", "a"), ("p", "q", "b"), ("q", "r", "e")], names=["u", "v", "c"]
        )
        assert induce(train).tree.key == ("u", 1)

    def test_noise_split_never_beats_signal(self):
        # `noise` preserves the class distribution exactly; `signal` decides it
        rows = []
        for noise in "01":
            for signal, klass in (("a", "yes"), ("b", "no")):
                rows.append((noise, signal, klass))
        train = flat_table(rows, names=["noise", "signal", "k"])
        rule_set = induce(train)
        tested = {c.attribute for r in rule_set.rules for c in r.conditions}
        assert tested == {"signal"}

    def test_deterministic(self):
        rng = random.Random(2)
        rows = [
            (rng.choice("pq"), rng.choice("xyz"), rng.choice("AB"))
            for _ in range(40)
        ]
        train = flat_table(rows)
        assert induce(train).rules == induce(train).rules

    def test_functional_data_fits_exactly(self):
        rng = random.Random(9)
        for _ in range(25):
            m = rng.randint(1, 4)
            table = {}
            while len(table) < rng.randint(2, 12):
                key = tuple(rng.choice("01") for _ in range(m))
                table[key] = rng.choice("AB")
            rows = [key + (klass,) for key, klass in table.items()]
            # duplicates keep the data functional
            rows += [rng.choice(rows) for _ in range(rng.randint(0, 6))]
            rule_set = induce(flat_table(rows))
            assert evaluate(rule_set, flat_table(rows)) == 1.0

    def test_induced_rules_are_internally_consistent(self):
        rng = random.Random(37)
        for _ in range(20):
            rows = [
                (rng.choice("pq"), rng.randint(0, 9), rng.choice("AB"))
                for _ in range(rng.randint(4, 40))
            ]
            kinds = ["discrete", "numeric", "discrete"]
            rule_set = induce(flat_table(rows, kinds=kinds))
            for rule in rule_set.rules:
                assert (rule.decision_attribute, rule.decision_time) not in {
                    (c.attribute, c.time) for c in rule.conditions
                }
                by_column: dict = {}
                for condition in rule.conditions:
                    by_column.setdefault(condition.column, []).append(condition)
                for conditions in by_column.values():
                    equalities = [c for c in conditions if c.op == "="]
                    assert len(equalities) <= 1
                    lower = [c.value for c in conditions if c.op == ">"]
                    upper = [c.value for c in conditions if c.op == "<="]
                    if lower and upper:
                        # the threshold chain must leave a satisfiable interval
                        assert max(lower) < min(upper)

    def test_each_record_fires_exactly_one_rule(self):
        rng = random.Random(13)
        for _ in range(15):
            rows = [
                (rng.choice("pqr"), str(rng.randint(0, 3)), rng.choice("ABC"))
                for _ in range(rng.randint(2, 30))
            ]
            train = flat_table(rows)
            rule_set = induce(train)
            keys, records = reference_window(train.source, train.provenance)
            names = [column_name(a, t) for a, t in keys]
            for record in records:
                mapping = dict(zip(names, record))
                fired = [
                    rule
                    for rule in rule_set.rules
                    if all(condition_holds(c, mapping[c.column]) for c in rule.conditions)
                ]
                assert len(fired) == 1


class TestClassify:
    def forward_rule_set(self):
        # x@t2 is x@t1 moved one step by the action a@t1
        rows = [("1", "R", "2"), ("1", "L", "1"), ("2", "R", "3"), ("2", "L", "1")]
        return induce(flat_table(rows, names=["x", "a", "k"]))

    def test_matching_record(self):
        assert classify(self.forward_rule_set(), {"x@t1": "1", "a@t1": "R"}) == "2"
        assert classify(self.forward_rule_set(), {"x@t1": "2", "a@t1": "R"}) == "3"

    def test_empty_condition_rule_always_fires(self):
        rule_set = induce(flat_table([("a", "yes"), ("b", "yes")]))
        assert rule_set.rules == (Rule((), "k", 1, "yes"),)
        assert classify(rule_set, {}) == "yes"
        assert classify(rule_set, {"anything@t1": "?"}) == "yes"

    def test_no_match_falls_back_to_default(self):
        # "zz" has no branch; the first branch ("p") would say B
        rule_set = induce(flat_table([("p", "B"), ("q", "A"), ("r", "A")]))
        assert rule_set.default_class == "A"
        assert classify(rule_set, {"c0@t1": "zz"}) == "A"
        assert classify(rule_set, {"c0@t1": "p"}) == "B"

    def test_missing_tested_column(self):
        with pytest.raises(DataError, match="a@t1"):
            classify(self.forward_rule_set(), {"x@t1": "1"})

    def mixed_rule_set(self):
        # c1@t1=q says A; c1@t1=p asks whether c0@t1 <= 2.5
        rows = [
            (1, "p", "A"), (2, "p", "A"), (3, "p", "B"), (3, "q", "A"),
            (4, "p", "B"), (4, "q", "A"), (5, "q", "A"),
        ]
        return induce(flat_table(rows, kinds=["numeric", "discrete", "discrete"]))

    @pytest.mark.parametrize("value", ["3", None, math.nan, math.inf, -math.inf, b"3"], ids=repr)
    def test_a_threshold_column_holding_no_finite_number_is_rejected(self, value):
        # "3" and None cannot be ordered against the threshold, and nan
        # would fall to the high side of any
        message = f"record column c0@t1 expects a number, got {value!r}"
        with pytest.raises(DataError, match=re.escape(message)):
            classify(self.mixed_rule_set(), {"c0@t1": value, "c1@t1": "p"})

    def test_a_threshold_column_takes_ints_bools_and_finite_floats(self):
        rule_set = self.mixed_rule_set()
        assert rule_set.render().splitlines()[0] == "IF c0@t1<=2.5 AND c1@t1=p THEN k@t1=A"
        for value, expected in [(True, "A"), (2, "A"), (2.75, "B"), (-1e308, "A"), (10**400, "B")]:
            assert classify(rule_set, {"c0@t1": value, "c1@t1": "p"}) == expected
        # a symbol no branch covers still goes to the default class
        assert classify(rule_set, {"c0@t1": 4, "c1@t1": "zz"}) == rule_set.default_class == "A"

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(tables=random_tables())
    def test_tree_and_scan_agree(self, tables):
        # classify routes down the tree; the oracle scans the rule list
        rule_set = induce(tables[0])
        for data in tables:
            keys, records = reference_window(data.source, data.provenance)
            names = [column_name(a, t) for a, t in keys]
            hits = 0
            for record in records:
                mapping = dict(zip(names, record))
                expected = first_match(rule_set.rules, rule_set.default_class, mapping)
                assert classify(rule_set, mapping) == expected
                hits += expected == record[-1]
            assert evaluate(rule_set, data) == hits / data.n


class TestEvaluate:
    def test_matches_training_accuracy_on_pure_data(self):
        train = flat_table([("a", "yes"), ("b", "yes")])
        rule_set = induce(train)
        assert evaluate(rule_set, train) == 1.0

    def test_default_only_counts_majority(self):
        # no condition column exists, so the tree is one majority leaf
        data = flat_table([("A",), ("A",), ("A",), ("B",)], names=["k"])
        rule_set = induce(data)
        assert rule_set.rules == (Rule((), "k", 1, "A"),)
        assert evaluate(rule_set, data) == 0.75

    def test_robot_forward_holds_out_of_sample(self):
        walk = generate_robot_walk(RobotWorldConfig(steps=700, seed=3))
        head = EventSequence(walk.schema, tuple(c[:600] for c in walk.columns))
        tail = EventSequence(walk.schema, tuple(c[600:] for c in walk.columns))
        spec = TemporalisationSpec(w=2, pos=2, d="x")
        rule_set = induce(temporalise(spec, head))
        assert evaluate(rule_set, temporalise(spec, tail)) == 1.0

    def test_empty_dataset(self):
        # nor can evaluate meet one: a held-out tail shorter than w has no window
        train = flat_table([("a", "yes"), ("b", "yes")])
        _, tail = split_chronological(train.source, 1)
        with pytest.raises(DataError, match="shorter than window: n=1, w=2"):
            temporalise(TemporalisationSpec(w=2, pos=2, d="k"), tail)

    def test_incompatible_columns(self):
        # c0 is constant, so induced rules must test c1, absent downstream
        wide = flat_table([("a", "b", "yes"), ("a", "a", "no")])
        narrow = flat_table([("a", "yes"), ("b", "no")])
        rule_set = induce(wide)
        with pytest.raises(DataError, match="missing tested column"):
            evaluate(rule_set, narrow)

    def test_a_threshold_split_on_a_discrete_column_is_rejected(self):
        rows = [(1, "A"), (2, "A"), (3, "B"), (4, "B")]
        rule_set = induce(flat_table(rows, kinds=["numeric", "discrete"]))
        with pytest.raises(DataError, match=r"c0@t1 is discrete, but the tree tests it against"):
            evaluate(rule_set, flat_table(rows))

    def test_a_symbol_split_on_a_numeric_column_is_rejected(self):
        rows = [(1, "A"), (2, "A"), (3, "B"), (4, "B")]
        rule_set = induce(flat_table(rows))
        with pytest.raises(DataError, match=r"c0@t1 is numeric, but the tree tests it by symbol"):
            evaluate(rule_set, flat_table(rows, kinds=["numeric", "discrete"]))

    def test_a_window_that_decides_another_column_is_rejected(self):
        # every column this tree tests is also a column of the (3, 3)
        # windows, so only their decision columns tell them apart
        walk = generate_robot_walk(RobotWorldConfig(steps=600, seed=1))
        head, tail = split_chronological(walk, 100)
        spec = TemporalisationSpec(2, 2, "x")
        rule_set = induce(temporalise(spec, head))
        assert evaluate(rule_set, temporalise(spec, tail)) == 1.0
        for d in "xy":
            data = temporalise(TemporalisationSpec(3, 3, d), tail)
            with pytest.raises(DataError, match=f"column {d}@t3 is not the tree's, x@t2"):
                evaluate(rule_set, data)

    def test_a_numeric_decision_is_rejected(self):
        rule_set = induce(flat_table([("a", "1"), ("b", "2")]))
        data = flat_table([("a", 1), ("b", 2)], kinds=["discrete", "numeric"])
        with pytest.raises(DataError, match="classification requires discrete decision"):
            evaluate(rule_set, data)


class TestEmptyLabel:
    # a CSV's empty cell is the symbol "", a falsy class label that a tree
    # must still treat as a leaf and a prediction

    def test_an_all_empty_decision_window_is_a_leaf_root(self, tmp_path):
        # c varies, so a learner that took the falsy leaf for "no leaf"
        # would split on it
        path = tmp_path / "empty.csv"
        path.write_text("c,k\np,\nq,\np,\n", encoding="utf-8")
        train = temporalise(TemporalisationSpec(w=1, pos=1, d="k"), load_csv(path))
        rule_set = induce(train)
        assert rule_set.tree == "" and rule_set.size == 1
        assert rule_set.tested == frozenset()
        assert rule_set.render() == "IF TRUE THEN k@t1="
        assert classify(rule_set, {}) == ""
        assert evaluate(rule_set, train) == 1.0
        schema = (
            AttributeSchema("c", "discrete", ("p", "q")),
            AttributeSchema("k", "discrete", ("x", "")),
        )
        data = held_out(schema, [("p", "x"), ("q", ""), ("p", ""), ("q", "x")])
        assert evaluate(rule_set, data) == first_match_accuracy(rule_set, data) == 0.5

    @pytest.mark.parametrize("deep", [False, True])
    def test_an_empty_label_is_a_prediction_not_a_stray(self, deep):
        # B is the default class, so a "" leaf read as a stray would score as B;
        # the one-level tree is scored from counts, the deeper one by routing
        rows = [("p", "x", ""), ("q", "x", "B"), ("q", "y", "B")]
        if deep:
            rows += [("r", "x", ""), ("r", "y", "B")]
        rule_set = induce(flat_table(rows))
        assert rule_set.default_class == "B"
        assert any(isinstance(child, _Split) for child in rule_set.tree.branches.values()) == deep
        assert classify(rule_set, {"c0@t1": "p", "c1@t1": "x"}) == ""
        assert classify(rule_set, {"c0@t1": "zz", "c1@t1": "x"}) == "B"
        schema = (
            AttributeSchema("c0", "discrete", ("zz", "r", "q", "p")),
            AttributeSchema("c1", "discrete", ("y", "x")),
            AttributeSchema("k", "discrete", ("B", "")),
        )
        held = [("p", "y", ""), ("p", "x", ""), ("r", "x", ""), ("zz", "x", ""), ("q", "x", "B")]
        data = held_out(schema, held)
        assert evaluate(rule_set, data) == first_match_accuracy(rule_set, data) == 3 / 5

    def test_an_empty_label_survives_a_pickle_round_trip(self):
        for rows in ([("p", ""), ("q", "")], [("p", ""), ("q", "B"), ("q", "B")]):
            rule_set = induce(flat_table(rows))
            copy = pickle.loads(pickle.dumps(rule_set))
            assert copy == rule_set and hash(copy) == hash(rule_set)
            assert copy.render() == rule_set.render()


def first_match_accuracy(rule_set, data):
    """The share of `data`'s rows whose decision `first_match` reproduces."""
    keys, records = reference_window(data.source, data.provenance)
    names = [column_name(a, t) for a, t in keys]
    hits = 0
    for record in records:
        mapping = dict(zip(names, record))
        hits += first_match(rule_set.rules, rule_set.default_class, mapping) == record[-1]
    return hits / data.n


def held_out(schema, rows):
    """The w=1 window of `rows`, whose decision is the last attribute."""
    spec = TemporalisationSpec(w=1, pos=1, d=schema[-1].name)
    return temporalise(spec, from_rows(schema, rows))


class TestRootScoring:
    # `evaluate` scores a one-level tree from counts and routes every row of
    # a deeper one down from its root; each case must agree with a
    # record-by-record walk of the tree and with a scan of the rule list.
    # The held-out windows list their symbols and classes in another
    # order than training does, so a code means something else in each.

    def assert_oracles_agree(self, train, data, expected):
        rule_set = induce(train)
        assert evaluate(rule_set, data) == expected
        assert ReferenceTree(train).accuracy(data) == expected
        assert first_match_accuracy(rule_set, data) == expected

    def test_a_root_with_leaf_and_subtree_children(self):
        # c0=p says A, c0=r says B, and c0=q asks c1
        rows = [("p", "x", "A"), ("p", "y", "A"), ("q", "x", "A"), ("q", "y", "B")]
        train = flat_table((rows + [("r", "x", "B"), ("r", "y", "B")]) * 2)
        rule_set = induce(train)
        assert rule_set.default_class == "A"
        root = rule_set.tree
        assert root.key == ("c0", 1)
        splits = [isinstance(child, _Split) for child in root.branches.values()]
        assert splits == [False, True, False]
        schema = (
            AttributeSchema("c0", "discrete", ("s", "r", "q", "p")),
            AttributeSchema("c1", "discrete", ("y", "x")),
            AttributeSchema("k", "discrete", ("B", "A")),
        )
        rows = [
            ("q", "x", "A"),
            ("q", "y", "B"),
            ("q", "x", "B"),
            ("p", "y", "A"),
            ("r", "x", "A"),
            ("q", "y", "B"),
            ("p", "x", "B"),
            ("r", "y", "B"),
            # training never saw c0=s, so these stray to the default class
            ("s", "x", "A"),
            ("s", "y", "B"),
            ("s", "y", "A"),
        ]
        self.assert_oracles_agree(train, held_out(schema, rows), 7 / 11)
        self.assert_oracles_agree(train, train, 1.0)

    def test_an_unseen_root_symbol_scores_as_the_default_class(self):
        train = flat_table([("p", "A"), ("p", "A"), ("q", "B"), ("r", "B"), ("r", "B")])
        assert induce(train).default_class == "B"
        schema = (
            AttributeSchema("c0", "discrete", ("s", "q", "p", "r")),
            AttributeSchema("k", "discrete", ("A", "B")),
        )
        rows = [("s", "B"), ("s", "B"), ("s", "A"), ("p", "A"), ("q", "A")]
        self.assert_oracles_agree(train, held_out(schema, rows), 3 / 5)

    def test_a_single_leaf_root(self):
        train = flat_table([("A",), ("B",), ("B",)], names=["k"])
        rule_set = induce(train)
        assert rule_set.tree == "B"
        schema = (AttributeSchema("k", "discrete", ("A", "C", "B")),)
        rows = [("A",), ("B",), ("C",), ("B",)]
        self.assert_oracles_agree(train, held_out(schema, rows), 2 / 4)
        self.assert_oracles_agree(train, train, 2 / 3)


class TestOracleAgreement:
    def test_matches_exhaustive_optimum_on_consistent_data(self):
        rng = random.Random(31)
        for _ in range(60):
            m = rng.randint(1, 4)
            truth = {}
            rows = []
            for _ in range(rng.randint(2, 16)):
                key = tuple(rng.randint(0, 1) for _ in range(m))
                truth.setdefault(key, rng.choice("AB"))
                rows.append(key + (truth[key],))
            if len({r[-1] for r in rows}) < 2:
                continue
            train = flat_table([tuple(map(str, r)) for r in rows])
            accuracy = evaluate(induce(train), train)
            oracle = best_tree_correct_count(rows, m) / len(rows)
            assert accuracy == oracle

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(tables=random_tables())
    def test_training_accuracy_is_a_lookup_tables(self, tables):
        # the tree grows until every node is pure or has no live column
        train = tables[0]
        assert evaluate(induce(train), train) == lookup_table_accuracy(train)


class TestRendering:
    def test_rule_line_format(self):
        rule = Rule(
            conditions=(
                Condition("a", 1, "=", "Right"),
                Condition("x", 1, "=", "1"),
            ),
            decision_attribute="x",
            decision_time=2,
            decision_value="2",
        )
        assert rule.render() == "IF a@t1=Right AND x@t1=1 THEN x@t2=2"

    def test_conditions_sorted_by_time_then_attribute(self):
        rule = Rule(
            conditions=(
                Condition("z", 2, "=", "v"),
                Condition("b", 1, "=", "u"),
                Condition("a", 2, "=", "w"),
            ),
            decision_attribute="k",
            decision_time=3,
            decision_value="c",
        )
        assert rule.render() == "IF b@t1=u AND a@t2=w AND z@t2=v THEN k@t3=c"

    def test_empty_conditions(self):
        rule = Rule((), "k", 1, "c")
        assert rule.render() == "IF TRUE THEN k@t1=c"

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(tables=random_tables())
    def test_rendered_thresholds_are_exact(self, tables):
        edge = flat_table(
            [(1000000, "A"), (1000001, "B"), (0.1234561, "A"), (0.1234562, "B")],
            kinds=["numeric", "discrete"],
        )
        for train in (edge, tables[0]):
            for rule in induce(train).rules:
                for condition in rule.conditions:
                    if condition.op != "=":
                        text = condition.render().partition(condition.op)[2]
                        assert float(text) == condition.value

    def test_rule_set_render_is_line_per_rule(self):
        train = flat_table(
            [("0", "0", "0"), ("0", "1", "1"), ("1", "0", "1"), ("1", "1", "0")]
        )
        lines = induce(train).render().splitlines()
        assert len(lines) == 4
        assert all(line.startswith("IF ") for line in lines)


class TestRuleSetInvariants:
    def test_rules_required(self):
        for rows, names in (
            ([("A",)], ["k"]),  # one record, no condition column
            ([("p", "A")], None),  # one record
            ([("p", "A"), ("q", "B")], None),
        ):
            rule_set = induce(flat_table(rows, names=names))
            assert rule_set.size == len(rule_set.rules) >= 1

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(tables=random_tables())
    def test_shape_agrees_with_the_rules(self, tables):
        train = tables[0]
        rule_set = induce(train)
        rules = rule_set.rules
        tested = {(c.attribute, c.time) for rule in rules for c in rule.conditions}
        assert rule_set.size == len(rules)
        assert rule_set.tested == tested
        for rule in rules:
            assert (rule.decision_attribute, rule.decision_time) == train.decision_column
            for c in rule.conditions:
                # a threshold test exactly on the columns the window calls numeric
                numeric = train.source.attribute(c.attribute).kind == "numeric"
                assert (c.op != "=") == numeric
        if tested:
            times = [t for _, t in rule_set.tested]
            _, t0 = train.decision_column
            assert classify_times(times, t0) == classify_rule_set(rules)

    def test_equal_rule_sets_hash_equal(self):
        # a split node is unhashable, so a rule set hashes what it compares
        train = flat_table([("p", "A"), ("q", "B"), ("p", "A")])
        first, second = induce(train), induce(train)
        other = induce(flat_table([("p", "B"), ("q", "A"), ("p", "B")]))
        assert first.size == 2 and first is not second
        assert hash(first) == hash(second)
        assert len({first, second, other}) == 2

    def test_shared_decision_enforced(self):
        rule_set = induce(
            flat_table([("0", "0", "0"), ("0", "1", "1"), ("1", "0", "1"), ("1", "1", "0")])
        )
        assert {(r.decision_attribute, r.decision_time) for r in rule_set.rules} == {
            ("k", 1)
        }
        odd = Rule((Condition("c0", 1, "=", "0"),), "j", 1, "0")
        with pytest.raises(DataError, match="share the decision"):
            classify_rule_set(rule_set.rules + (odd,))


class TestReferenceAgreement:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(tables=random_tables())
    def test_matches_loop_based_reference(self, tables):
        train, test = tables
        rule_set = induce(train)
        reference = ReferenceTree(train)
        assert rule_set.render() == "\n".join(reference.rule_lines())
        assert rule_set.default_class == reference.default
        assert evaluate(rule_set, train) == reference.accuracy(train)
        assert evaluate(rule_set, test) == reference.accuracy(test)

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(train=node_bound_tables())
    # a small node of this table sums a three-class group's terms in
    # another float than it would in class-code order
    @example(train=seeded_bound_window(16))
    # a large node of these tables sums its split info, or a group's
    # terms, in another float than it would in sorted or class-code order
    @example(train=split_info_tie_window())
    @example(train=group_order_tie_window(0))
    def test_matches_reference_either_side_of_the_small_node_bound(self, train):
        # a node of at most `_SMALL_NODE` rows groups its rows by value in
        # one pass, a larger one counts pair codes first; both must sum
        # every entropy term in the reference's order
        assert induce(train).render() == "\n".join(ReferenceTree(train).rule_lines())

    def test_matches_reference_on_noise_tables(self):
        # Noise grows deep trees full of near-tied gain ratios, where
        # summing the same entropy terms in another order can flip a
        # split; the library must add them in the reference's order.
        schema = (
            AttributeSchema("u", "discrete", ("p", "q", "r", "s")),
            AttributeSchema("v", "discrete", ("p", "q", "r")),
            AttributeSchema("x", "numeric"),
            AttributeSchema("y", "numeric"),
            AttributeSchema("k", "discrete", CLASS_POOL),
        )
        for seed in range(40):
            rng = random.Random(seed)
            records = tuple(
                (
                    rng.choice("pqrs"),
                    rng.choice("pqr"),
                    rng.choice((0, 1, 1.0, 2, 2.5, 3)),
                    rng.randint(0, 9),
                    rng.choice(CLASS_POOL),
                )
                for _ in range(200)
            )
            data = from_rows(schema, records)
            for w, pos in ((1, 1), (2, 1), (2, 2), (3, 2)):
                train = temporalise(TemporalisationSpec(w=w, pos=pos, d="k"), data)
                reference = ReferenceTree(train)
                assert induce(train).render() == "\n".join(reference.rule_lines())

    def test_every_window_of_a_sweep_matches_reference(self):
        # The learner slices codes built once over the whole training
        # sequence. Here the first and last training rows hold values no
        # other row has, so most windows' columns lack them; 1 and 1.0
        # are one value; the test tail holds values training never saw.
        schema = (
            AttributeSchema("x", "numeric"),
            AttributeSchema("y", "numeric"),
            AttributeSchema("a", "discrete", ("p", "q", "r")),
            AttributeSchema("k", "discrete", ("B", "A", "C")),
        )
        rng = random.Random(5)
        rows = [
            (
                rng.choice((0, 1, 1.0, 2, 3)),
                rng.choice((1.0, 1, 2.5, 4)),
                rng.choice("pqr"),
                rng.choice("ABC"),
            )
            for _ in range(70)
        ]
        rows[0] = (100, -7, "p", "A")
        rows[54] = (-50, 99.5, "r", "C")
        rows[60] = (42, 0.5, "q", "B")
        data = from_rows(schema, rows)
        train, test = split_chronological(data, 15)
        for w in range(1, 5):
            for pos in range(1, w + 1):
                spec = TemporalisationSpec(w=w, pos=pos, d="k")
                train_set, test_set = temporalise(spec, train), temporalise(spec, test)
                rule_set = induce(train_set)
                reference = ReferenceTree(train_set)
                lines = reference.rule_lines()
                assert rule_set.render() == "\n".join(lines)
                assert rule_set.size == len(lines)
                assert rule_set.tested == rule_line_columns(lines)
                assert rule_set.default_class == reference.default
                assert evaluate(rule_set, train_set) == reference.accuracy(train_set)
                assert evaluate(rule_set, test_set) == reference.accuracy(test_set)
