"""Window/position sweep, confidence intervals, and the final verdict.

`run_timers` evaluates the instantaneous rule set plus every (w, pos) in
the requested window range, each once, and `judge` reads the verdict off
those outcomes alone: it buckets them by the actual temporal kind of
their rules (a rule set without conditions keeps its declared kind), and
lets each kind's best compete through `select_relation`: overlapping
accuracy intervals favour the conceptually simpler kind (when it is also
no larger), disjoint intervals favour raw accuracy. The report stores
what the sweep computed and derives the rest.

A job is just (d, w, pos). The sweep's train and test sequences reach
each process-pool worker once, through the pool initializer, so the
codes the learner caches on the training sequence serve all of that
worker's jobs. A pool is handed its jobs largest window first, so the
costliest jobs do not run last while other workers sit idle; the
outcomes keep sweep order. A one-worker run imports no process-pool
module: the pool is imported on a sweep's first use of it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from statistics import NormalDist
from typing import Mapping, Sequence

from .dataset import DataError, EventSequence, as_discrete, split_chronological
from .induction import evaluate, induce
from .semantics import (
    COMPETING_KINDS,
    RelationKind,
    classify_rule_set,  # noqa: F401  unused; benchmarks/spans.py wraps it in this module
    classify_times,
    declared_kind,
    is_simpler,
    simplicity_rank,
)
from .temporalise import TemporalisationSpec, reject_missing, temporalise

PREFERENCES = ("higher_accuracy", "simpler_method")
ACCURACY_MODES = ("predictive", "training")
INTERVAL_METHODS = ("normal", "wilson")


@dataclass(frozen=True)
class RunSpec:
    """Everything one analysis run needs besides the data itself."""

    d: str
    alpha: int = 2
    beta: int = 5
    ac_th: float = 0.5
    cl: float = 0.90
    preference: str = "higher_accuracy"
    test_count: int = 0
    accuracy_mode: str = "predictive"
    interval_method: str = "normal"

    def __post_init__(self) -> None:
        rule_generator_run_count(self.alpha, self.beta)  # checks the window range
        if not 0.0 <= self.ac_th <= 1.0:
            raise ValueError(f"accuracy threshold must lie in [0, 1], got {self.ac_th}")
        if not 0.0 < self.cl < 1.0:
            raise ValueError(f"confidence level must lie in (0, 1), got {self.cl}")
        if self.preference not in PREFERENCES:
            raise ValueError(f"preference must be one of {PREFERENCES}")
        if self.test_count < 0:
            raise ValueError(f"test_count must be non-negative, got {self.test_count}")
        if self.accuracy_mode not in ACCURACY_MODES:
            raise ValueError(f"accuracy_mode must be one of {ACCURACY_MODES}")
        if self.interval_method not in INTERVAL_METHODS:
            raise ValueError(f"interval_method must be one of {INTERVAL_METHODS}")


@dataclass(frozen=True)
class AccuracyInterval:
    """A two-sided confidence interval around an observed accuracy on `n` records."""

    lo: float
    hi: float
    n: int

    def overlaps(self, other: "AccuracyInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def render(self) -> str:
        return f"[{self.lo * 100:.1f}%, {self.hi * 100:.1f}%]"


def compute_accuracy_interval(
    accuracy: float, n: int, cl: float, method: str = "normal"
) -> AccuracyInterval:
    """Confidence interval for an accuracy measured on n records.

    The default is the normal-approximation binomial interval clamped to
    [0, 1]; "wilson" selects the Wilson score interval instead.
    """
    if n < 1:
        raise DataError(f"interval requires a positive evaluation count, got {n}")
    if not 0.0 <= accuracy <= 1.0:
        raise ValueError(f"accuracy must lie in [0, 1], got {accuracy}")
    if not 0.0 < cl < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {cl}")
    if method not in INTERVAL_METHODS:
        raise ValueError(f"interval method must be one of {INTERVAL_METHODS}")
    z = NormalDist().inv_cdf((1.0 + cl) / 2.0)
    if method == "normal":
        half = z * math.sqrt(accuracy * (1.0 - accuracy) / n)
        lo, hi = accuracy - half, accuracy + half
    else:
        denom = 1.0 + z * z / n
        center = (accuracy + z * z / (2 * n)) / denom
        margin = (z / denom) * math.sqrt(
            accuracy * (1.0 - accuracy) / n + z * z / (4 * n * n)
        )
        lo, hi = center - margin, center + margin
    return AccuracyInterval(lo=max(0.0, lo), hi=min(1.0, hi), n=n)


@dataclass(frozen=True)
class TestOutcome:
    """One (w, pos) experiment: its rule kinds, accuracies, size and record counts.

    No predictive accuracy is measured when the test sequence is shorter
    than the window."""

    w: int
    pos: int
    actual_kind: RelationKind
    training_accuracy: float
    predictive_accuracy: float | None
    rule_size: int
    test_set_size: int
    training_set_size: int

    @property
    def declared_kind(self) -> RelationKind:
        """The kind the window shape (w, pos) declares."""
        return declared_kind(self.w, self.pos)

    def scored(self, mode: str) -> tuple[float, int]:
        """The accuracy `mode` selects and its record count; predictive mode
        falls back to training when there is no predictive accuracy."""
        if mode == "predictive" and self.predictive_accuracy is not None:
            return self.predictive_accuracy, self.test_set_size
        return self.training_accuracy, self.training_set_size


@dataclass(frozen=True)
class Candidate:
    """One relation kind's best showing, ready for the selection step."""

    kind: RelationKind
    accuracy: float
    rule_size: int
    interval: AccuracyInterval


@dataclass(frozen=True)
class SelectionStep:
    challenger: RelationKind
    overlap: bool
    took_over: bool
    winner_after: RelationKind


@dataclass(frozen=True)
class Selection:
    winner: RelationKind
    order: tuple[RelationKind, ...]
    steps: tuple[SelectionStep, ...]


def select_relation(candidates: Sequence[Candidate], preference: str) -> Selection:
    """Pick the winning relation kind among the competing candidates.

    Candidates are visited in accuracy order (ascending when the caller
    prefers accuracy, descending when they prefer simplicity; accuracy
    ties visit the less simple kind first so the order of the inputs
    never matters). A challenger takes the win either by being simpler
    and no larger while its interval overlaps the current winner's, or by
    plain higher accuracy when the intervals are disjoint.
    """
    if preference not in PREFERENCES:
        raise ValueError(f"preference must be one of {PREFERENCES}")
    if not candidates:
        raise DataError("relation selection needs at least one candidate")
    sign = 1.0 if preference == "higher_accuracy" else -1.0
    ordered = sorted(
        candidates, key=lambda c: (sign * c.accuracy, -simplicity_rank(c.kind))
    )
    winner = ordered[0]
    steps = []
    for challenger in ordered[1:]:
        overlap = challenger.interval.overlaps(winner.interval)
        if overlap:
            took_over = (
                is_simpler(challenger.kind, winner.kind)
                and challenger.rule_size <= winner.rule_size
            )
        else:
            took_over = challenger.accuracy > winner.accuracy
        if took_over:
            winner = challenger
        steps.append(SelectionStep(challenger.kind, overlap, took_over, winner.kind))
    return Selection(
        winner=winner.kind,
        order=tuple(c.kind for c in ordered),
        steps=tuple(steps),
    )


def rule_generator_run_count(alpha: int, beta: int) -> int:
    """How many rule-generator invocations a full sweep performs."""
    if not 0 < alpha <= beta:
        raise ValueError(
            f"window range must satisfy 0 < alpha <= beta, got {alpha}..{beta}"
        )
    return 1 + (beta * (beta + 1) - (alpha - 1) * alpha) // 2


NO_VERDICT = "no-verdict"


@dataclass(frozen=True)
class VerdictReport:
    """What one run computed; `d`, `final` and `generator_runs` derive from it.

    A kind no outcome has maps to None in `best` and `intervals`, and
    `selection` is None when no best reaches `spec.ac_th`."""

    spec: RunSpec
    outcomes: tuple[TestOutcome, ...]
    best: Mapping[RelationKind, TestOutcome | None]
    intervals: Mapping[RelationKind, AccuracyInterval | None]
    selection: Selection | None

    @property
    def d(self) -> str:
        return self.spec.d

    @property
    def final(self) -> str:
        return NO_VERDICT if self.selection is None else str(self.selection.winner)

    @property
    def generator_runs(self) -> int:
        """The paper's rule-generator run count (acceptance criterion 6 pins
        it), which counts (1, 1) twice when alpha is 1; the sweep grows it once."""
        return rule_generator_run_count(self.spec.alpha, self.spec.beta)

    @property
    def verdict_line(self) -> str:
        if self.final == NO_VERDICT:
            return "No verdict"
        return f"for attribute {self.d}, the relation is {self.final}"

    def render_text(self) -> str:
        def pct(value: float | None) -> str:
            if value is None:
                return "-"
            return f"{round(value * 100, 1):g}%"

        header = ("Win", "Pos", "T Acc", "P Acc", "Type of test", "Actual rules")
        rows = [header] + [
            (
                str(o.w),
                str(o.pos),
                pct(o.training_accuracy),
                pct(o.predictive_accuracy),
                str(o.declared_kind),
                str(o.actual_kind),
            )
            for o in self.outcomes
        ]
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            for row in rows
        ]
        lines.append("")
        for kind in COMPETING_KINDS:
            outcome = self.best.get(kind)
            if outcome is None:
                lines.append(f"best {kind}: no qualifying rule set")
                continue
            lines.append(
                f"best {kind}: {pct(outcome.scored(self.spec.accuracy_mode)[0])}"
                f" (w={outcome.w}, pos={outcome.pos},"
                f" {outcome.rule_size} rules,"
                f" interval {self.intervals[kind].render()})"
            )
        lines.append("")
        lines.append(self.verdict_line)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        spec = asdict(self.spec)
        del spec["d"]
        return {
            "decision_attribute": self.d,
            "spec": spec,
            "outcomes": [
                {
                    "w": o.w,
                    "pos": o.pos,
                    "training_accuracy": o.training_accuracy,
                    "predictive_accuracy": o.predictive_accuracy,
                    "rule_size": o.rule_size,
                    "declared": str(o.declared_kind),
                    "actual": str(o.actual_kind),
                }
                for o in self.outcomes
            ],
            "best": {
                str(kind): (
                    None
                    if self.best[kind] is None
                    else {
                        "w": self.best[kind].w,
                        "pos": self.best[kind].pos,
                        "accuracy": self.best[kind].scored(self.spec.accuracy_mode)[0],
                        "rule_size": self.best[kind].rule_size,
                        "interval": {
                            "lo": self.intervals[kind].lo,
                            "hi": self.intervals[kind].hi,
                            "n": self.intervals[kind].n,
                        },
                    }
                )
                for kind in COMPETING_KINDS
            },
            "generator_runs": self.generator_runs,
            "final": self.final,
            "verdict_line": self.verdict_line,
        }


def _run_single(
    train: EventSequence, test: EventSequence, d: str, w: int, pos: int
) -> TestOutcome:
    spec = TemporalisationSpec(w=w, pos=pos, d=d)
    train_set = temporalise(spec, train)
    rule_set = induce(train_set)
    training_accuracy = evaluate(rule_set, train_set)
    predictive_accuracy = None
    test_size = 0
    if test.n >= w:
        test_set = temporalise(spec, test)
        predictive_accuracy = evaluate(rule_set, test_set)
        test_size = test_set.n
    if rule_set.tested:
        actual = classify_times((t for _, t in rule_set.tested), pos)
    else:
        # a bare majority rule carries no temporal evidence either way
        actual = declared_kind(w, pos)
    return TestOutcome(
        w=w,
        pos=pos,
        actual_kind=actual,
        training_accuracy=training_accuracy,
        predictive_accuracy=predictive_accuracy,
        rule_size=rule_set.size,
        test_set_size=test_size,
        training_set_size=train_set.n,
    )


# set by the pool initializer, in worker processes only
_worker_data: tuple[EventSequence, EventSequence] | None = None


def _init_worker(train: EventSequence, test: EventSequence) -> None:
    """Keep the sweep's sequences in a pool worker for all of its jobs."""
    global _worker_data
    _worker_data = (train, test)


def _run_job(job: tuple[str, int, int]) -> TestOutcome:
    return _run_single(*_worker_data, *job)


def run_timers(spec: RunSpec, data: EventSequence, workers: int = 1) -> VerdictReport:
    """Sweep the window range over `data` and `judge` the outcomes for spec.d.

    The decision attribute's values are treated as class labels; numeric
    columns are relabelled accordingly before the sweep. When alpha is 1
    the window range already holds (1, 1), which still runs only once.
    The sweep is deterministic regardless of worker count, and uses no
    more workers than it has jobs: a single job starts no process pool.
    A one-worker sweep imports no process-pool module either. A pool is
    handed the jobs largest window first; the outcomes keep sweep order.
    """
    data = as_discrete(data, spec.d)
    # checked before the split, so a record is named by its place in `data`
    reject_missing(data)
    train, test = split_chronological(data, spec.test_count)
    if spec.beta >= train.n:
        raise DataError(
            f"window range up to {spec.beta} needs more than {train.n} training records"
        )

    windows = dict.fromkeys(
        [(1, 1)]
        + [(w, pos) for w in range(spec.alpha, spec.beta + 1) for pos in range(1, w + 1)]
    )
    jobs = [(spec.d, w, pos) for w, pos in windows]
    workers = min(workers, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(train, test)
        ) as executor:
            # jobs ascend in w, whose size sets a job's cost; longest first
            outcomes = tuple(executor.map(_run_job, jobs[::-1]))[::-1]
    else:
        outcomes = tuple(_run_single(train, test, *job) for job in jobs)
    return judge(spec, outcomes)


def judge(spec: RunSpec, outcomes: Sequence[TestOutcome]) -> VerdictReport:
    """The verdict `spec` reads off `outcomes`, with no data and no learner.

    A kind's best is its most accurate outcome, of those the one with the
    fewest rules, then the lowest (w, pos). No verdict is given when no
    best reaches `spec.ac_th`, or no outcome has a competing kind.
    """
    mode = spec.accuracy_mode
    best: dict[RelationKind, TestOutcome | None] = {}
    intervals: dict[RelationKind, AccuracyInterval | None] = dict.fromkeys(COMPETING_KINDS)
    candidates = []
    for kind in COMPETING_KINDS:
        outcome = best[kind] = min(
            (o for o in outcomes if o.actual_kind == kind),
            key=lambda o: (-o.scored(mode)[0], o.rule_size, o.w, o.pos),
            default=None,
        )
        if outcome is not None:
            accuracy, n = outcome.scored(mode)
            interval = intervals[kind] = compute_accuracy_interval(
                accuracy, n, spec.cl, spec.interval_method
            )
            candidates.append(Candidate(kind, accuracy, outcome.rule_size, interval))
    verdict = any(c.accuracy >= spec.ac_th for c in candidates)
    selection = select_relation(candidates, spec.preference) if verdict else None
    return VerdictReport(spec, tuple(outcomes), best, intervals, selection)
