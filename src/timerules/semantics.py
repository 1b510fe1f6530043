"""Temporal character of rule sets: instantaneous, p-causal, acausal, mixed.

A rule set is judged by where its condition times sit relative to the
decision time t0 its rules share: all at t0 (instantaneous), all
strictly before (p-causal), none at t0 with at least one after
(acausal), anything else mixed. Conceptual simplicity orders the first
three: instantaneous < acausal < p-causal.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from .dataset import DataError
from .induction import Rule


class RelationKind(Enum):
    INSTANTANEOUS = "instantaneous"
    P_CAUSAL = "p-causal"
    ACAUSAL = "acausal"
    MIXED = "mixed"

    def __str__(self) -> str:
        return self.value


_SIMPLICITY_RANK = {
    RelationKind.INSTANTANEOUS: 0,
    RelationKind.ACAUSAL: 1,
    RelationKind.P_CAUSAL: 2,
}


def simplicity_rank(kind: RelationKind) -> int:
    """Position in the simplicity order; mixed kinds have no rank."""
    try:
        return _SIMPLICITY_RANK[kind]
    except KeyError:
        raise ValueError(f"{kind} has no place in the simplicity order") from None


def is_simpler(left: RelationKind, right: RelationKind) -> bool:
    return simplicity_rank(left) < simplicity_rank(right)


def declared_kind(w: int, pos: int) -> RelationKind:
    """The relation kind a (w, pos) test is set up to probe."""
    if w == 1:
        return RelationKind.INSTANTANEOUS
    if pos == w:
        return RelationKind.P_CAUSAL
    return RelationKind.ACAUSAL


def classify_rule_set(rules: Sequence[Rule]) -> RelationKind:
    """Judge rules by their condition times relative to their decision time.

    The rules must share one decision column, whose time is t0. Rules
    with no conditions carry no temporal evidence and are ignored; a set
    with no conditioned rule at all cannot be judged.
    """
    if len({(rule.decision_attribute, rule.decision_time) for rule in rules}) > 1:
        raise DataError("all rules in a set must share the decision column")
    conditioned = [rule for rule in rules if rule.conditions]
    if not conditioned:
        raise DataError("unclassifiable: no conditions")
    t0 = conditioned[0].decision_time
    times = [c.time for rule in conditioned for c in rule.conditions]
    if all(t == t0 for t in times):
        return RelationKind.INSTANTANEOUS
    if all(t < t0 for t in times):
        return RelationKind.P_CAUSAL
    if all(t != t0 for t in times) and any(t > t0 for t in times):
        return RelationKind.ACAUSAL
    return RelationKind.MIXED
