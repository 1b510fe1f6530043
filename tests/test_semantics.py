import random

import pytest

from timerules.dataset import DataError
from timerules.induction import Condition, Rule, induce
from timerules.semantics import (
    RelationKind,
    classify_rule_set,
    declared_kind,
    is_simpler,
    simplicity_rank,
)
from timerules.temporalise import TemporalisationSpec, temporalise
from timerules.worlds import generate_periodic

from oracles import (
    definition_acausal,
    definition_instantaneous,
    definition_p_causal,
)


def make_rules(decision_time, condition_times_per_rule, include_empty_rule=False):
    rules = []
    for i, times in enumerate(condition_times_per_rule):
        conditions = tuple(
            Condition(f"c{j}", t, "=", "v") for j, t in enumerate(times)
        )
        rules.append(Rule(conditions, "k", decision_time, f"class{i % 2}"))
    if include_empty_rule:
        rules.append(Rule((), "k", decision_time, "class0"))
    return tuple(rules)


class TestClassifyRuleSet:
    def test_previous_step_only_is_p_causal(self):
        rules = make_rules(2, [[1, 1]])
        assert classify_rule_set(rules) == RelationKind.P_CAUSAL

    def test_straddling_conditions_are_acausal(self):
        # conditions one step before and one step after the decision
        rules = make_rules(2, [[1, 3]])
        assert classify_rule_set(rules) == RelationKind.ACAUSAL

    def test_same_time_only_is_instantaneous(self):
        rules = make_rules(1, [[1, 1]])
        assert classify_rule_set(rules) == RelationKind.INSTANTANEOUS

    def test_current_plus_past_is_mixed(self):
        rules = make_rules(2, [[2, 1]])
        assert classify_rule_set(rules) == RelationKind.MIXED

    def test_future_only_is_acausal(self):
        rules = make_rules(1, [[2], [3]])
        assert classify_rule_set(rules) == RelationKind.ACAUSAL

    def test_no_conditions_unclassifiable(self):
        rules = make_rules(1, [[]])
        with pytest.raises(DataError, match="unclassifiable"):
            classify_rule_set(rules)

    def test_empty_condition_rules_are_ignored(self):
        rules = make_rules(3, [[1], [2]], include_empty_rule=True)
        assert classify_rule_set(rules) == RelationKind.P_CAUSAL


class TestReclassify:
    """The actual kind comes from the rules alone, whatever test produced them."""

    def test_acausal_test_yielding_past_rules(self):
        rules = make_rules(2, [[1], [1, 1]])
        assert declared_kind(3, 2) == RelationKind.ACAUSAL
        assert classify_rule_set(rules) == RelationKind.P_CAUSAL

    def test_agreement_case(self):
        rules = make_rules(3, [[1], [2]])
        assert declared_kind(3, 3) == RelationKind.P_CAUSAL
        assert classify_rule_set(rules) == RelationKind.P_CAUSAL

    def test_acausal_stays_acausal(self):
        rules = make_rules(2, [[3]])
        assert declared_kind(3, 2) == RelationKind.ACAUSAL
        assert classify_rule_set(rules) == RelationKind.ACAUSAL


class TestDeclaredKind:
    def test_mapping(self):
        assert declared_kind(1, 1) == RelationKind.INSTANTANEOUS
        assert declared_kind(2, 2) == RelationKind.P_CAUSAL
        assert declared_kind(2, 1) == RelationKind.ACAUSAL
        assert declared_kind(5, 3) == RelationKind.ACAUSAL
        assert declared_kind(5, 5) == RelationKind.P_CAUSAL


class TestSimplicity:
    def test_total_order(self):
        assert simplicity_rank(RelationKind.INSTANTANEOUS) == 0
        assert simplicity_rank(RelationKind.ACAUSAL) == 1
        assert simplicity_rank(RelationKind.P_CAUSAL) == 2
        assert is_simpler(RelationKind.INSTANTANEOUS, RelationKind.ACAUSAL)
        assert is_simpler(RelationKind.ACAUSAL, RelationKind.P_CAUSAL)
        assert not is_simpler(RelationKind.P_CAUSAL, RelationKind.ACAUSAL)

    def test_mixed_has_no_rank(self):
        with pytest.raises(ValueError):
            simplicity_rank(RelationKind.MIXED)

    def test_serialised_names(self):
        assert [str(k) for k in RelationKind] == [
            "instantaneous", "p-causal", "acausal", "mixed",
        ]


def random_rules(rng):
    t0 = rng.randint(1, 5)
    w = max(t0, rng.randint(1, 6))
    n_rules = rng.randint(1, 5)
    per_rule = []
    for _ in range(n_rules):
        per_rule.append([rng.randint(1, w) for _ in range(rng.randint(0, 4))])
    if not any(per_rule):
        per_rule[0] = [rng.randint(1, w)]
    return make_rules(t0, per_rule)


class TestProperties:
    def test_exactly_one_kind_and_definitions_agree(self):
        rng = random.Random(23)
        for _ in range(2000):
            rules = random_rules(rng)
            kind = classify_rule_set(rules)
            flags = (
                definition_instantaneous(rules),
                definition_p_causal(rules),
                definition_acausal(rules),
            )
            assert sum(flags) <= 1
            expected = {
                (True, False, False): RelationKind.INSTANTANEOUS,
                (False, True, False): RelationKind.P_CAUSAL,
                (False, False, True): RelationKind.ACAUSAL,
                (False, False, False): RelationKind.MIXED,
            }[flags]
            assert kind == expected

    def test_invariant_under_permutation(self):
        rng = random.Random(29)
        for _ in range(300):
            rules = random_rules(rng)
            kind = classify_rule_set(rules)
            shuffled_rules = list(rules)
            rng.shuffle(shuffled_rules)
            shuffled_rules = [
                Rule(
                    tuple(rng.sample(rule.conditions, len(rule.conditions))),
                    rule.decision_attribute,
                    rule.decision_time,
                    rule.decision_value,
                )
                for rule in shuffled_rules
            ]
            assert classify_rule_set(tuple(shuffled_rules)) == kind

    def test_backward_looking_construction_never_acausal(self):
        # pos = w leaves no later-time column for rules to test
        series = generate_periodic(4, 60)
        for w in (2, 3, 4):
            spec = TemporalisationSpec(w=w, pos=w, d="x")
            rule_set = induce(temporalise(spec, series))
            assert classify_rule_set(rule_set.rules) != RelationKind.ACAUSAL
