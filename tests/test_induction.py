import random
import re
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from timerules.dataset import (
    AttributeSchema,
    DataError,
    EventSequence,
    split_chronological,
)
from timerules.induction import (
    _SMALL_NODE,
    Condition,
    Rule,
    _count,
    _TreeBuilder,
    classify,
    evaluate,
    induce,
)
from timerules.semantics import classify_rule_set, classify_times
from timerules.temporalise import TemporalisationSpec, column_name, temporalise
from timerules.worlds import RobotWorldConfig, generate_periodic, generate_robot_walk

from oracles import ReferenceTree, best_tree_correct_count, condition_holds, first_match
from tables import from_rows


def empty_like(data):
    """`data` with every column, and the decision column, cut to zero rows."""
    return replace(data, columns=tuple(() for _ in data.columns), decisions=())


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


class TestCounting:
    def test_counts_in_first_appearance_order_on_both_sides_of_the_cutoff(self):
        # every entropy sum follows the count's key order, so both the
        # small-node loop and the Counter path must keep first appearance
        rng = random.Random(11)
        codes = [rng.randrange(12) for _ in range(500)]
        for size in (1, 2, _SMALL_NODE - 1, _SMALL_NODE, _SMALL_NODE + 1, 400):
            for _ in range(20):
                indices = rng.sample(range(len(codes)), size)
                keys = list(dict.fromkeys(codes[i] for i in indices))
                expected = [(k, sum(codes[i] == k for i in indices)) for k in keys]
                assert list(_count(codes, indices).items()) == expected

    def test_whole_column_counts_in_first_appearance_order(self):
        # only the root holds every row; it counts the column itself
        rng = random.Random(12)
        for size in (1, 2, _SMALL_NODE - 1, _SMALL_NODE, _SMALL_NODE + 1, 400):
            codes = [rng.randrange(12) for _ in range(size)]
            expected = [(k, codes.count(k)) for k in dict.fromkeys(codes)]
            assert list(_count(codes, None).items()) == expected


def spy_build():
    """Patch `_TreeBuilder.build` with a mock that records every call."""
    return mock.patch.object(
        _TreeBuilder, "build", autospec=True, side_effect=_TreeBuilder.build
    )


class TestPureChildren:
    def test_pure_discrete_children_are_leaves_without_rows(self):
        # in a period-8 cycle either neighbour decides the value, so the
        # root's one split has eight pure children
        data = generate_periodic(8, 64)
        for w, pos in ((2, 1), (2, 2)):
            train = temporalise(TemporalisationSpec(w=w, pos=pos, d="x"), data)
            with spy_build() as build:
                rule_set = induce(train)
            assert build.call_count == 1
            assert rule_set.size == 8
            assert rule_set.render() == "\n".join(ReferenceTree(train).rule_lines())

    def test_pure_numeric_sides_take_the_sorted_boundary_rows(self):
        # 2**53 + 2 and its float spelling are one value with one code,
        # yet each gives another midpoint with its neighbour: the threshold
        # must come from the rows a stable sort puts either side of the
        # cut, which reversing the rows swaps
        big = 2**53 + 2
        sides = (([2**53 + 1], [big, float(big)]), ([big, float(big)], [2**53 + 3]))
        for low, high in sides:
            rows = [(v, "A") for v in low] + [(v, "B") for v in high]
            rendered = set()
            for ordered in (rows, rows[::-1]):
                train = flat_table(ordered, kinds=["numeric", "discrete"])
                with spy_build() as build:
                    rule_set = induce(train)
                assert build.call_count == 1
                assert rule_set.size == 2
                assert rule_set.render() == "\n".join(ReferenceTree(train).rule_lines())
                rendered.add(rule_set.render())
            assert len(rendered) == 2

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(tables=random_tables())
    def test_handed_down_counts_equal_a_recount(self, tables):
        # entropy sums follow the counts' key order, so a child's inherited
        # counts must be what counting its rows gives, in the same order;
        # induce hands the root its counts too, so only smaller nodes count
        train, _ = tables
        original = _TreeBuilder.build
        inherited = []

        def build(self, indices, columns, counts=None):
            if counts is not None and len(indices) < train.n:
                recount = _count(self.class_codes, indices)
                assert list(counts.items()) == list(recount.items())
                inherited.append(counts)
            return original(self, indices, columns, counts)

        with mock.patch.object(_TreeBuilder, "build", build):
            induce(train)
        assume(inherited)


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
        train = flat_table([("a", "yes")])
        empty = empty_like(train)
        assert empty.n == 0 and empty.records == ()
        with pytest.raises(DataError, match="empty training data"):
            induce(empty)

    def test_numeric_threshold_splits(self):
        rows = [(1, "lo"), (2, "lo"), (6, "hi"), (5, "hi")]
        train = flat_table(rows, kinds=["numeric", "discrete"], names=["v", "k"])
        rule_set = induce(train)
        assert evaluate(rule_set, train) == 1.0
        rendered = rule_set.render()
        assert "v@t1<=3.5" in rendered
        assert "v@t1>3.5" in rendered

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
            names = [column_name(a, t) for a, t in train.condition_columns]
            for record in train.records:
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
            names = [column_name(a, t) for a, t in data.condition_columns]
            hits = 0
            for record in data.records:
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
        train = flat_table([("a", "yes")])
        empty = empty_like(train)
        assert empty.n == 0 and empty.records == ()
        with pytest.raises(DataError, match="empty"):
            evaluate(induce(train), empty)

    def test_incompatible_columns(self):
        # c0 is constant, so induced rules must test c1, absent downstream
        wide = flat_table([("a", "b", "yes"), ("a", "a", "no")])
        narrow = flat_table([("a", "yes"), ("b", "no")])
        rule_set = induce(wide)
        with pytest.raises(DataError, match="missing tested column"):
            evaluate(rule_set, narrow)


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
        rule_set = induce(tables[0])
        rules = rule_set.rules
        tested = {(c.attribute, c.time) for rule in rules for c in rule.conditions}
        assert rule_set.size == len(rules)
        assert rule_set.tested == tested
        if tested:
            times = [t for _, t in rule_set.tested]
            assert classify_times(times, rule_set.decision_time) == classify_rule_set(rules)

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
