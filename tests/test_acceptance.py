"""Acceptance gate: one test per release criterion, at the stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Every expected value here is either a frozen fixture from the
method's worked examples or recomputed by an independent oracle.
"""

import random
import time

import pytest

from timerules.dataset import AttributeSchema, EventSequence, load_csv
from timerules.induction import evaluate, induce
from timerules.semantics import RelationKind
from timerules.temporalise import TemporalisationSpec, temporalise
from timerules.verdict import (
    AccuracyInterval,
    Candidate,
    RunSpec,
    rule_generator_run_count,
    run_timers,
    select_relation,
)
from timerules.worlds import RobotWorldConfig, generate_periodic, generate_robot_walk

from oracles import (
    best_tree_correct_count,
    definition_acausal,
    definition_instantaneous,
    definition_p_causal,
)
from tables import from_rows, window_rows

I, A, P = RelationKind.INSTANTANEOUS, RelationKind.ACAUSAL, RelationKind.P_CAUSAL

ROBOT_SEED = 0
ROBOT_STEPS = 3000
ROBOT_TEST = 500


def report(criterion, text):
    print(f"PASS  criterion {criterion}: {text}")


@pytest.fixture(scope="module")
def robot_report():
    walk = generate_robot_walk(RobotWorldConfig(steps=ROBOT_STEPS, seed=ROBOT_SEED))
    spec = RunSpec(
        d="x", alpha=2, beta=5, ac_th=0.6, cl=0.90, test_count=ROBOT_TEST,
        preference="higher_accuracy", accuracy_mode="predictive",
    )
    started = time.perf_counter()
    result = run_timers(spec, walk)
    return result, time.perf_counter() - started


def test_criterion_1_window_merge_fixture(tmp_path):
    path = tmp_path / "four.csv"
    path.write_text("1,2,4,true\n2,3,5,true\n6,7,8,false\n5,2,3,true\n", "utf-8")
    data = load_csv(path, header_mode="positional")
    expected = {
        1: (
            (2, 3, 5, "true", 6, 7, 8, "false", "true"),
            (6, 7, 8, "false", 5, 2, 3, "true", "true"),
        ),
        2: (
            (1, 2, 4, "true", 6, 7, 8, "false", "true"),
            (2, 3, 5, "true", 5, 2, 3, "true", "false"),
        ),
        3: (
            (1, 2, 4, "true", 2, 3, 5, "true", "false"),
            (2, 3, 5, "true", 6, 7, 8, "false", "true"),
        ),
    }
    for pos, merged in expected.items():
        out = temporalise(TemporalisationSpec(w=3, pos=pos, d="a4"), data)
        assert window_rows(out) == merged
        assert out.field_count == 9
    report(1, "all three window-3 positions merge bit-exactly with 9 fields")


def test_criterion_2_robot_verdict_is_p_causal(robot_report):
    result, elapsed = robot_report
    forward = [o for o in result.outcomes if o.w >= 2 and o.pos == o.w]
    assert len(forward) == 4
    for outcome in forward:
        assert outcome.training_accuracy == 1.0
        assert outcome.predictive_accuracy == 1.0

    instantaneous = next(o for o in result.outcomes if o.w == 1)
    assert instantaneous.training_accuracy <= 0.35
    assert instantaneous.predictive_accuracy <= 0.35

    backward = [o for o in result.outcomes if o.w >= 2 and o.pos == 1]
    assert len(backward) == 4
    for outcome in backward:
        assert 0.40 <= outcome.predictive_accuracy <= 0.70

    assert result.final == "p-causal"
    assert result.best[P].scored("predictive")[0] == 1.0
    assert elapsed < 60.0
    report(
        2,
        f"robot sweep verdict p-causal in {elapsed:.1f}s; pos=w rows exact 100%, "
        f"instantaneous {instantaneous.predictive_accuracy:.1%}, "
        f"retrodiction within [40%, 70%]",
    )


def test_criterion_3_reclassified_outcomes_exist(robot_report):
    result, _ = robot_report
    reclassified = [
        o
        for o in result.outcomes
        if o.declared_kind == A and o.actual_kind == P
    ]
    assert reclassified
    assert any(
        o.training_accuracy == 1.0 and o.predictive_accuracy == 1.0
        for o in reclassified
    )
    rows = ", ".join(f"(w={o.w}, pos={o.pos})" for o in reclassified)
    report(3, f"declared-acausal outcomes reclassified p-causal at 100%: {rows}")


def test_criterion_4_selection_worked_example():
    def candidate(kind, accuracy, lo, hi):
        return Candidate(
            kind, accuracy, 10, AccuracyInterval(accuracy, lo, hi, n=100, cl=0.9)
        )

    selection = select_relation(
        [
            candidate(I, 0.325, 0.31, 0.34),
            candidate(A, 0.35, 0.33, 0.37),
            candidate(P, 0.37, 0.35, 0.39),
        ],
        "higher_accuracy",
    )
    assert selection.order == (I, A, P)
    assert selection.steps[0].challenger == A
    assert selection.steps[0].overlap
    assert not selection.steps[0].took_over
    assert selection.steps[0].winner_after == I
    assert selection.steps[1].challenger == P
    assert not selection.steps[1].overlap
    assert selection.steps[1].took_over
    assert selection.winner == P
    report(4, "worked selection trace: instantaneous holds vs acausal, p-causal wins")


def test_criterion_5_symmetric_series_verdict_is_acausal():
    series = generate_periodic(8, 400)
    result = run_timers(
        RunSpec(d="x", alpha=2, beta=3, ac_th=0.6, cl=0.90, test_count=80), series
    )
    forward = next(o for o in result.outcomes if (o.w, o.pos) == (2, 2))
    backward = next(o for o in result.outcomes if (o.w, o.pos) == (2, 1))
    for outcome in (forward, backward):
        assert outcome.training_accuracy == 1.0
        assert outcome.predictive_accuracy == 1.0
    assert result.intervals[A].overlaps(result.intervals[P])
    assert result.final == "acausal"
    report(5, "periodic series: both directions exact 100%, overlap, verdict acausal")


def test_criterion_6_counting_properties():
    series = generate_periodic(4, 60)
    checked = 0
    for alpha in range(1, 7):
        for beta in range(alpha, 7):
            result = run_timers(
                RunSpec(d="x", alpha=alpha, beta=beta, test_count=10), series
            )
            expected = 1 + (beta * (beta + 1) - (alpha - 1) * alpha) // 2
            assert result.generator_runs == expected
            assert rule_generator_run_count(alpha, beta) == expected
            checked += 1

    rng = random.Random(61)
    for _ in range(50):
        n, m = rng.randint(2, 30), rng.randint(1, 5)
        schema = tuple(
            AttributeSchema(f"c{j}", "discrete", ("0", "1")) for j in range(m)
        )
        data = EventSequence(
            schema=schema,
            columns=tuple(
                tuple(rng.choice("01") for _ in range(n)) for _ in range(m)
            ),
        )
        w = rng.randint(2, min(n, 6))
        pos = rng.randint(1, w)
        out = temporalise(TemporalisationSpec(w=w, pos=pos, d="c0"), data)
        assert out.n == n - w + 1
        assert out.field_count == (w - 1) * m + 1
    report(6, f"run counts match the closed form for {checked} (alpha, beta) pairs; "
              "record/field counts match on 50 fuzzed inputs")


def test_criterion_7_no_verdict_on_uniform_noise():
    classes = ("p", "q", "r", "s")
    for seed in range(5):
        rng = random.Random(seed)
        schema = (
            AttributeSchema("u", "discrete", classes),
            AttributeSchema("v", "discrete", classes),
            AttributeSchema("c", "discrete", classes),
        )
        records = tuple(
            tuple(rng.choice(classes) for _ in range(3)) for _ in range(240)
        )
        data = from_rows(schema, records)
        result = run_timers(
            RunSpec(d="c", alpha=2, beta=3, ac_th=0.9, test_count=40), data
        )
        assert result.final == "no-verdict"
        assert result.verdict_line == "No verdict"
    report(7, "uniform-random class data returns no-verdict on all 5 seeds")


def _binary_training_set(rows):
    m = len(rows[0]) - 1
    schema = tuple(
        AttributeSchema(f"b{j}", "discrete", ("0", "1")) for j in range(m)
    ) + (AttributeSchema("k", "discrete", ("A", "B")),)
    records = tuple(tuple(map(str, row[:-1])) + (row[-1],) for row in rows)
    data = from_rows(schema, records)
    return temporalise(TemporalisationSpec(w=1, pos=1, d="k"), data)


def test_criterion_8_learner_matches_exhaustive_tree_oracle():
    started = time.perf_counter()
    cases = 0

    def check(rows, m):
        nonlocal cases
        if len({row[-1] for row in rows}) < 2:
            return
        train = _binary_training_set(rows)
        accuracy = evaluate(induce(train), train)
        assert accuracy == best_tree_correct_count(rows, m) / len(rows)
        cases += 1

    # every boolean function of 2 and of 3 attributes, as complete tables
    for m in (2, 3):
        points = [
            tuple((i >> j) & 1 for j in range(m)) for i in range(2**m)
        ]
        for mask in range(2 ** len(points)):
            rows = [
                point + ("A" if (mask >> i) & 1 else "B",)
                for i, point in enumerate(points)
            ]
            check(rows, m)

    # random consistent 4-attribute datasets with up to 16 records
    rng = random.Random(83)
    for _ in range(200):
        truth = {}
        rows = []
        for _ in range(rng.randint(2, 16)):
            key = tuple(rng.randint(0, 1) for _ in range(4))
            truth.setdefault(key, rng.choice("AB"))
            rows.append(key + (truth[key],))
        check(rows, 4)

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(8, f"training accuracy equals the brute-force tree optimum on "
              f"{cases} noise-free datasets in {elapsed:.1f}s")


def test_criterion_9_classification_exclusivity():
    from timerules.induction import Condition, Rule
    from timerules.semantics import classify_rule_set

    rng = random.Random(97)
    kind_of = {
        (True, False, False): I,
        (False, True, False): P,
        (False, False, True): A,
        (False, False, False): RelationKind.MIXED,
    }
    for _ in range(10_000):
        t0 = rng.randint(1, 5)
        w = max(t0, rng.randint(1, 6))
        rules = []
        for _ in range(rng.randint(1, 4)):
            times = [rng.randint(1, w) for _ in range(rng.randint(0, 3))]
            conditions = tuple(
                Condition(f"c{j}", t, "=", "v") for j, t in enumerate(times)
            )
            rules.append(Rule(conditions, "k", t0, "cls"))
        if not any(rule.conditions for rule in rules):
            rules[0] = Rule((Condition("c0", rng.randint(1, w), "=", "v"),), "k", t0, "cls")
        rules = tuple(rules)
        kind = classify_rule_set(rules)
        flags = (
            definition_instantaneous(rules),
            definition_p_causal(rules),
            definition_acausal(rules),
        )
        assert sum(flags) <= 1
        assert kind == kind_of[flags]
    report(9, "10000 fuzzed rule sets: one kind each, independent definitions agree")
