"""Temporal decision rule discovery and causality verdicts."""

from .dataset import (
    AttributeSchema,
    DataError,
    EventSequence,
    as_discrete,
    load_csv,
    split_chronological,
)
from .induction import Condition, Rule, RuleSet, classify, evaluate, induce
from .semantics import (
    RelationKind,
    classify_rule_set,
    declared_kind,
    simplicity_rank,
)
from .temporalise import (
    TemporalisationSpec,
    TemporalisedDataset,
    temporalise,
    temporalised_record_count,
)
from .verdict import (
    AccuracyInterval,
    Candidate,
    RunSpec,
    Selection,
    TestOutcome,
    VerdictReport,
    compute_accuracy_interval,
    judge,
    rule_generator_run_count,
    run_timers,
    select_relation,
)
from .worlds import RobotWorldConfig, generate_periodic, generate_robot_walk

__version__ = "0.1.0"

__all__ = [
    "AccuracyInterval",
    "AttributeSchema",
    "Candidate",
    "Condition",
    "DataError",
    "EventSequence",
    "RelationKind",
    "RobotWorldConfig",
    "Rule",
    "RuleSet",
    "RunSpec",
    "Selection",
    "TemporalisationSpec",
    "TemporalisedDataset",
    "TestOutcome",
    "VerdictReport",
    "as_discrete",
    "classify",
    "classify_rule_set",
    "compute_accuracy_interval",
    "declared_kind",
    "evaluate",
    "generate_periodic",
    "generate_robot_walk",
    "induce",
    "judge",
    "load_csv",
    "rule_generator_run_count",
    "run_timers",
    "select_relation",
    "simplicity_rank",
    "split_chronological",
    "temporalise",
    "temporalised_record_count",
]
