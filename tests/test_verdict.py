import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import timerules.induction
import timerules.verdict
from timerules.dataset import AttributeSchema, DataError
from timerules.semantics import RelationKind
from timerules.verdict import (
    ACCURACY_MODES,
    INTERVAL_METHODS,
    PREFERENCES,
    AccuracyInterval,
    Candidate,
    RunSpec,
    compute_accuracy_interval,
    judge,
    rule_generator_run_count,
    run_timers,
    select_relation,
)
from timerules.verdict import TestOutcome as Outcome  # not a test class
from timerules.worlds import RobotWorldConfig, generate_periodic, generate_robot_walk

from oracles import reference_judge
from tables import from_rows

I, A, P = RelationKind.INSTANTANEOUS, RelationKind.ACAUSAL, RelationKind.P_CAUSAL
M = RelationKind.MIXED


def interval(lo, hi):
    return AccuracyInterval(lo=lo, hi=hi, n=100)


def candidate(kind, accuracy, lo, hi, size=10):
    return Candidate(kind, accuracy, size, interval(lo, hi))


class TestAccuracyInterval:
    def test_normal_hand_value(self):
        out = compute_accuracy_interval(0.80, 100, 0.95)
        assert out.lo == pytest.approx(0.7216, abs=1e-4)
        assert out.hi == pytest.approx(0.8784, abs=1e-4)
        assert out.n == 100

    def test_degenerate_accuracies_have_zero_width(self):
        for accuracy in (0.0, 1.0):
            out = compute_accuracy_interval(accuracy, 37, 0.9)
            assert out.lo == out.hi == accuracy

    def test_width_shrinks_with_n(self):
        widths = [
            compute_accuracy_interval(0.5, n, 0.9).hi
            - compute_accuracy_interval(0.5, n, 0.9).lo
            for n in (10, 100, 1000, 100000)
        ]
        assert widths == sorted(widths, reverse=True)
        assert widths[-1] < 0.01

    def test_zero_n_rejected(self):
        with pytest.raises(DataError):
            compute_accuracy_interval(0.5, 0, 0.9)

    def test_out_of_range_inputs(self):
        with pytest.raises(ValueError):
            compute_accuracy_interval(1.5, 10, 0.9)
        with pytest.raises(ValueError):
            compute_accuracy_interval(0.5, 10, 1.0)

    def test_wilson_hand_value(self):
        out = compute_accuracy_interval(0.80, 100, 0.95, method="wilson")
        assert out.lo == pytest.approx(0.711170834, abs=1e-6)
        assert out.hi == pytest.approx(0.866633067, abs=1e-6)

    def test_wilson_stays_in_unit_interval_and_contains_center(self):
        rng = random.Random(3)
        for _ in range(200):
            accuracy = rng.random()
            n = rng.randint(1, 500)
            out = compute_accuracy_interval(accuracy, n, 0.9, method="wilson")
            assert 0.0 <= out.lo <= accuracy <= out.hi <= 1.0

    def test_clamped_to_unit_interval(self):
        out = compute_accuracy_interval(0.99, 5, 0.99)
        assert out.hi == 1.0


class TestSelectRelation:
    def worked_example(self):
        return [
            candidate(I, 0.325, 0.31, 0.34),
            candidate(A, 0.35, 0.33, 0.37),
            candidate(P, 0.37, 0.35, 0.39),
        ]

    def test_worked_example_picks_p_causal(self):
        selection = select_relation(self.worked_example(), "higher_accuracy")
        assert selection.winner == P
        # the acausal challenger overlaps but is not simpler, so the
        # instantaneous candidate holds until the p-causal comparison
        assert selection.steps[0].winner_after == I
        assert selection.steps[1].took_over

    def test_all_equal_returns_instantaneous(self):
        equal = [
            candidate(kind, 0.5, 0.45, 0.55, size=7)
            for kind in (P, I, A)
        ]
        assert select_relation(equal, "higher_accuracy").winner == I
        assert select_relation(equal, "simpler_method").winner == I

    def test_disjoint_intervals_ignore_rule_size(self):
        cands = [
            candidate(I, 0.2, 0.15, 0.25, size=1),
            candidate(A, 0.5, 0.45, 0.55, size=1),
            candidate(P, 0.9, 0.85, 0.95, size=999),
        ]
        assert select_relation(cands, "higher_accuracy").winner == P

    @pytest.mark.parametrize("top", [I, A, P])
    def test_disjoint_top_interval_wins_for_every_kind(self, top):
        accuracies = {kind: 0.3 for kind in (I, A, P)}
        accuracies[top] = 0.9
        cands = [
            candidate(kind, acc, acc - 0.05, acc + 0.05, size=50)
            for kind, acc in accuracies.items()
        ]
        assert select_relation(cands, "higher_accuracy").winner == top

    def test_overlap_requires_no_larger_rule_set(self):
        cands = [
            candidate(P, 0.90, 0.85, 0.95, size=10),
            candidate(A, 0.92, 0.88, 0.96, size=50),
        ]
        # acausal is simpler but larger, so it cannot take the win
        assert select_relation(cands, "higher_accuracy").winner == P

    def test_permutation_invariance(self):
        rng = random.Random(41)
        for _ in range(300):
            cands = []
            for kind in (I, A, P):
                accuracy = rng.choice([0.2, 0.5, 0.5, 0.8])
                half = rng.choice([0.01, 0.1, 0.25])
                cands.append(
                    candidate(
                        kind,
                        accuracy,
                        max(0.0, accuracy - half),
                        min(1.0, accuracy + half),
                        size=rng.randint(1, 5),
                    )
                )
            for preference in ("higher_accuracy", "simpler_method"):
                base = select_relation(cands, preference).winner
                for _ in range(4):
                    shuffled = rng.sample(cands, len(cands))
                    assert select_relation(shuffled, preference).winner == base

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        kinds=st.lists(st.sampled_from((I, A, P)), min_size=1, max_size=3, unique=True),
        preference=st.sampled_from(("higher_accuracy", "simpler_method")),
    )
    def test_selection_ignores_candidate_order(self, data, kinds, preference):
        # few accuracies and sizes, so ties and overlaps are common
        cands = []
        for kind in kinds:
            accuracy, size, n = data.draw(
                st.tuples(
                    st.sampled_from((0.2, 0.5, 0.55, 0.8, 1.0)),
                    st.integers(1, 4),
                    st.sampled_from((10, 100, 1000)),
                )
            )
            interval = compute_accuracy_interval(accuracy, n, 0.9)
            cands.append(Candidate(kind, accuracy, size, interval))
        shuffled = data.draw(st.permutations(cands))
        assert select_relation(shuffled, preference) == select_relation(cands, preference)

    def test_empty_candidates_rejected(self):
        with pytest.raises(DataError):
            select_relation([], "higher_accuracy")

    def test_unknown_preference(self):
        with pytest.raises(ValueError):
            select_relation(self.worked_example(), "speed")

    def test_single_candidate_wins(self):
        only = candidate(A, 0.7, 0.6, 0.8)
        assert select_relation([only], "higher_accuracy").winner == A


class TestRelationType:
    def test_triplet_signature(self):
        cands = [
            Candidate(kind, accuracy, 10, compute_accuracy_interval(accuracy, 2000, 0.90))
            for kind, accuracy in ((I, 0.325), (A, 0.35), (P, 0.37))
        ]
        assert select_relation(cands, "higher_accuracy").winner == P


class TestRunCount:
    def test_known_values(self):
        assert rule_generator_run_count(2, 3) == 6
        assert rule_generator_run_count(2, 5) == 15

    def test_single_window(self):
        for alpha in range(1, 7):
            assert rule_generator_run_count(alpha, alpha) == 1 + alpha

    def test_closed_form_matches_summation(self):
        for alpha in range(1, 7):
            for beta in range(alpha, 7):
                assert rule_generator_run_count(alpha, beta) == 1 + sum(
                    range(alpha, beta + 1)
                )

    def test_bad_range(self):
        with pytest.raises(ValueError):
            rule_generator_run_count(3, 2)
        with pytest.raises(ValueError):
            rule_generator_run_count(0, 2)


class TestRunSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunSpec(d="x", alpha=3, beta=2)
        with pytest.raises(ValueError):
            RunSpec(d="x", ac_th=1.5)
        with pytest.raises(ValueError):
            RunSpec(d="x", cl=0.0)
        with pytest.raises(ValueError):
            RunSpec(d="x", preference="speed")
        with pytest.raises(ValueError):
            RunSpec(d="x", test_count=-1)
        with pytest.raises(ValueError):
            RunSpec(d="x", accuracy_mode="vibes")


def noise_sequence(seed, n=160, classes=("p", "q")):
    rng = random.Random(seed)
    schema = (
        AttributeSchema("u", "discrete", ("0", "1")),
        AttributeSchema("c", "discrete", classes),
    )
    records = tuple(
        (rng.choice(("0", "1")), rng.choice(classes)) for _ in range(n)
    )
    return from_rows(schema, records)


@st.composite
def small_sequences(draw):
    """A short sequence of discrete and numeric attributes, and a run spec.

    Numeric cells mix int and float spellings of equal values.
    """
    m = draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(("discrete", "numeric")), min_size=m, max_size=m))
    schema = tuple(
        AttributeSchema(f"a{j}", "discrete", ("p", "q", "r"))
        if kind == "discrete"
        else AttributeSchema(f"a{j}", "numeric")
        for j, kind in enumerate(kinds)
    )
    cells = [
        st.sampled_from(("p", "q", "r")) if kind == "discrete"
        else st.sampled_from((0, 1, 1.0, 2, 3.5))
        for kind in kinds
    ]
    records = draw(st.lists(st.tuples(*cells), min_size=14, max_size=40))
    alpha = draw(st.integers(1, 3))
    spec = RunSpec(
        d=draw(st.sampled_from([a.name for a in schema])),
        alpha=alpha,
        beta=draw(st.integers(alpha, 3)),
        test_count=draw(st.integers(0, 6)),
    )
    return from_rows(schema, records), spec


class TestRunTimers:
    def test_periodic_sweep_shape(self):
        report = run_timers(
            RunSpec(d="x", alpha=2, beta=3, test_count=40), generate_periodic(8, 240)
        )
        assert [(o.w, o.pos) for o in report.outcomes] == [
            (1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3),
        ]
        assert report.final == "acausal"
        assert report.verdict_line == "for attribute x, the relation is acausal"
        assert report.generator_runs == rule_generator_run_count(2, 3)

    def test_alpha_one_deduplicates_but_counts(self):
        report = run_timers(
            RunSpec(d="x", alpha=1, beta=2, test_count=20), generate_periodic(4, 100)
        )
        assert [(o.w, o.pos) for o in report.outcomes] == [(1, 1), (2, 1), (2, 2)]
        assert report.generator_runs == rule_generator_run_count(1, 2) == 4

    def test_alpha_beta_one_has_no_temporal_candidates(self):
        report = run_timers(
            RunSpec(d="c", alpha=1, beta=1, test_count=0, ac_th=0.0),
            noise_sequence(1),
        )
        assert [(o.w, o.pos) for o in report.outcomes] == [(1, 1)]
        assert report.best[A] is None
        assert report.best[P] is None
        assert report.final == "instantaneous"
        assert "no qualifying rule set" in report.render_text()

    def test_no_verdict_iff_threshold_unmet(self):
        series = generate_periodic(4, 120)
        high = run_timers(RunSpec(d="x", alpha=2, beta=2, ac_th=1.0, test_count=24), series)
        # best accuracy is exactly 1.0, so even a threshold of 1.0 is met
        assert high.final == "acausal"
        noise = noise_sequence(5)
        report = run_timers(
            RunSpec(d="c", alpha=2, beta=3, ac_th=0.9, test_count=32), noise
        )
        best = max(
            report.best[k].scored("predictive")[0]
            for k in (I, A, P)
            if report.best[k] is not None
        )
        assert (report.final == "no-verdict") == (best < 0.9)
        assert report.final == "no-verdict"
        assert report.verdict_line == "No verdict"

    def test_training_mode_uses_training_sizes(self):
        series = generate_periodic(4, 60)
        report = run_timers(
            RunSpec(d="x", alpha=2, beta=2, test_count=0, accuracy_mode="training"),
            series,
        )
        outcome = report.best[P]
        assert outcome.predictive_accuracy is None
        assert report.intervals[P].n == outcome.training_set_size

    def test_short_test_tail_falls_back_to_training(self):
        series = generate_periodic(4, 61)
        report = run_timers(RunSpec(d="x", alpha=3, beta=3, test_count=1), series)
        for outcome in report.outcomes:
            if outcome.w > 1:
                assert outcome.predictive_accuracy is None

    def test_unknown_decision_attribute(self):
        with pytest.raises(DataError, match="unknown attribute"):
            run_timers(RunSpec(d="zz"), generate_periodic(4, 60))

    def test_window_range_needs_training_data(self):
        with pytest.raises(DataError, match="training records"):
            run_timers(
                RunSpec(d="x", alpha=2, beta=30, test_count=10),
                generate_periodic(4, 40),
            )

    def test_numeric_decision_is_relabelled(self):
        schema = (
            AttributeSchema("v", "numeric"),
            AttributeSchema("tag", "discrete", ("s", "t")),
        )
        records = tuple((i % 3, ("s", "t")[i % 2]) for i in range(60))
        data = from_rows(schema, records)
        report = run_timers(RunSpec(d="v", alpha=2, beta=2, test_count=12), data)
        assert report.best[P].scored("predictive")[0] == 1.0

    def test_alpha_one_trains_each_window_once(self, monkeypatch):
        trained = []
        real_induce = timerules.verdict.induce

        def counting_induce(train):
            trained.append((train.provenance.w, train.provenance.pos))
            return real_induce(train)

        monkeypatch.setattr(timerules.verdict, "induce", counting_induce)
        run_timers(RunSpec(d="x", alpha=1, beta=2, test_count=20), generate_periodic(4, 100))
        assert trained == [(1, 1), (2, 1), (2, 2)]

    def test_sweep_never_extracts_rules(self, monkeypatch):
        # sizes and kinds are read off each tree; rules are for rendering
        def refuse(*args):
            raise AssertionError("a sweep extracted rules")

        monkeypatch.setattr(timerules.induction, "_extract_rules", refuse)
        walk = generate_robot_walk(RobotWorldConfig(steps=300, seed=4))
        report = run_timers(RunSpec(d="x", beta=3, test_count=60), walk)
        assert report.final == "p-causal"
        assert all(o.rule_size > 1 for o in report.outcomes)

    def test_conditionless_rules_report_their_declared_kind(self):
        # a constant decision grows a single bare leaf in every window
        schema = (
            AttributeSchema("u", "discrete", ("0", "1")),
            AttributeSchema("c", "discrete", ("p", "q")),
        )
        records = tuple((str(i % 2), "p") for i in range(40))
        data = from_rows(schema, records)
        report = run_timers(RunSpec(d="c", alpha=2, beta=3, test_count=10), data)
        assert all(o.rule_size == 1 for o in report.outcomes)
        assert [o.actual_kind for o in report.outcomes] == [
            o.declared_kind for o in report.outcomes
        ]
        assert report.final == "instantaneous"

    def test_workers_do_not_change_the_report(self):
        walk = generate_robot_walk(RobotWorldConfig(steps=400, seed=2))
        for alpha, beta in ((2, 3), (1, 2)):
            spec = RunSpec(d="x", alpha=alpha, beta=beta, test_count=80)
            serial = run_timers(spec, walk, workers=1)
            parallel = run_timers(spec, walk, workers=2)
            assert serial.outcomes == parallel.outcomes
            assert serial.final == parallel.final

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(case=small_sequences())
    def test_report_is_the_same_for_any_worker_count(self, case):
        data, spec = case
        serial = run_timers(spec, data, workers=1).to_dict()
        assert run_timers(spec, data, workers=2).to_dict() == serial

    def test_report_serialises_to_json(self):
        report = run_timers(
            RunSpec(d="x", alpha=2, beta=2, test_count=20), generate_periodic(4, 100)
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["final"] == "acausal"
        assert payload["generator_runs"] == 3
        assert len(payload["outcomes"]) == 3
        assert payload["best"]["p-causal"]["accuracy"] == 1.0

    def test_spec_block_lists_non_default_options_in_field_order(self):
        # the benchmark fingerprints run only the default preference,
        # accuracy mode and interval method, so nothing else pins this block
        spec = RunSpec(
            d="x", alpha=2, beta=3, ac_th=0.7, cl=0.95, preference="simpler_method",
            test_count=40, accuracy_mode="training", interval_method="wilson",
        )
        report = run_timers(spec, generate_periodic(8, 240))
        assert list(report.to_dict()["spec"].items()) == [
            ("alpha", 2),
            ("beta", 3),
            ("ac_th", 0.7),
            ("cl", 0.95),
            ("preference", "simpler_method"),
            ("test_count", 40),
            ("accuracy_mode", "training"),
            ("interval_method", "wilson"),
        ]
        assert report.d == report.spec.d == "x"
        assert report.to_dict()["decision_attribute"] == "x"

    def test_final_call_is_derived_from_the_selection(self):
        periodic = generate_periodic(8, 240)
        noise = noise_sequence(5)
        reports = [
            run_timers(RunSpec(d="x", beta=3, test_count=40), periodic),
            run_timers(RunSpec(d="c", beta=3, ac_th=0.9, test_count=32), noise),
            run_timers(RunSpec(d="c", beta=3, ac_th=0.0, test_count=32), noise),
        ]
        assert [r.selection is None for r in reports] == [False, True, False]
        for report in reports:
            assert (report.final == "no-verdict") == (report.selection is None)
            if report.selection is not None:
                assert report.final == str(report.selection.winner)

    def test_render_text_mirrors_result_tables(self):
        report = run_timers(
            RunSpec(d="x", alpha=2, beta=2, test_count=20), generate_periodic(4, 100)
        )
        text = report.render_text()
        assert text.splitlines()[0].split() == [
            "Win", "Pos", "T", "Acc", "P", "Acc", "Type", "of", "test",
            "Actual", "rules",
        ]
        assert text.strip().endswith("for attribute x, the relation is acausal")


# accuracies and thresholds share one grid, so ties and exact threshold hits happen
GRID = tuple(k / 8 for k in range(9))
WINDOWS = tuple((w, pos) for w in range(1, 6) for pos in range(1, w + 1))


@st.composite
def outcome_tables(draw):
    """A run spec and 1-15 outcomes of distinct (w, pos) and any kind, mixed included."""
    windows = draw(st.lists(st.sampled_from(WINDOWS), min_size=1, max_size=15, unique=True))
    outcomes = []
    for w, pos in windows:
        predictive = draw(st.one_of(st.none(), st.sampled_from(GRID)))
        outcomes.append(
            Outcome(
                w=w,
                pos=pos,
                actual_kind=draw(st.sampled_from(RelationKind)),
                training_accuracy=draw(st.sampled_from(GRID)),
                predictive_accuracy=predictive,
                rule_size=draw(st.integers(1, 4)),
                test_set_size=0 if predictive is None else draw(st.sampled_from((8, 40, 200))),
                training_set_size=draw(st.sampled_from((8, 40, 200))),
            )
        )
    spec = RunSpec(
        d="c",
        ac_th=draw(st.sampled_from(GRID)),
        cl=draw(st.sampled_from((0.5, 0.9, 0.99))),
        preference=draw(st.sampled_from(PREFERENCES)),
        accuracy_mode=draw(st.sampled_from(ACCURACY_MODES)),
        interval_method=draw(st.sampled_from(INTERVAL_METHODS)),
    )
    return spec, outcomes


class TestJudge:
    @settings(max_examples=500, deadline=None)
    @given(table=outcome_tables())
    def test_judge_follows_the_reference_rules(self, table):
        spec, outcomes = table
        got = judge(spec, outcomes).to_dict()
        want = reference_judge(spec, outcomes)
        assert got["final"] == want["final"]
        assert got["best"].keys() == want["best"].keys()
        for kind, best in want["best"].items():
            if best is None:
                assert got["best"][kind] is None
                continue
            mine = got["best"][kind]
            assert (mine["w"], mine["pos"], mine["accuracy"], mine["rule_size"]) == (
                best["w"], best["pos"], best["accuracy"], best["rule_size"]
            )
            assert mine["interval"]["n"] == best["interval"]["n"]
            assert mine["interval"]["lo"] == pytest.approx(best["interval"]["lo"], abs=1e-12)
            assert mine["interval"]["hi"] == pytest.approx(best["interval"]["hi"], abs=1e-12)

    def test_judge_reproduces_every_run_report(self):
        walk = generate_robot_walk(RobotWorldConfig(steps=300, seed=4))
        reports = [
            run_timers(RunSpec(d="x", beta=3, test_count=60), walk),
            run_timers(RunSpec(d="x", beta=3, test_count=40), generate_periodic(8, 240)),
            run_timers(RunSpec(d="c", beta=3, ac_th=0.9, test_count=32), noise_sequence(5)),
        ]
        assert [r.final for r in reports] == ["p-causal", "acausal", "no-verdict"]
        for report in reports:
            assert judge(report.spec, report.outcomes).to_dict() == report.to_dict()

    def test_judge_runs_no_learner(self, monkeypatch):
        report = run_timers(RunSpec(d="x", beta=3, test_count=40), generate_periodic(8, 240))

        def refuse(*args):
            raise AssertionError("judge touched the data")

        for name in ("induce", "evaluate", "temporalise"):
            monkeypatch.setattr(timerules.verdict, name, refuse)
        assert judge(report.spec, report.outcomes).to_dict() == report.to_dict()

    @pytest.mark.parametrize("kinds", [(), (M,), (M, M)])
    def test_table_without_a_competing_kind_gets_no_verdict(self, kinds):
        outcomes = [
            Outcome(w, 1, kind, 1.0, 1.0, 2, 10, 40) for w, kind in enumerate(kinds, 2)
        ]
        report = judge(RunSpec(d="c", ac_th=0.0), outcomes)
        assert report.final == "no-verdict"
        assert report.selection is None
        assert list(report.to_dict()["best"].items()) == [
            ("instantaneous", None), ("acausal", None), ("p-causal", None),
        ]
        text = report.render_text()
        assert text.count("no qualifying rule set") == 3
        assert text.endswith("No verdict")
