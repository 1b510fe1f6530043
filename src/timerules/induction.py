"""Gain-ratio decision tree induction and tree classification.

The learner grows a tree over a temporalised dataset: discrete columns
split multiway on their full domain (value-absent branches become leaves
carrying the node majority), numeric columns split at midpoints between
consecutive observed values. The tree is the rule set: its root-to-leaf
paths, read off on demand, are the rules, all sharing one decision
column. A record is classified by the one leaf it reaches; a symbol no
branch covers sends it to the global default class.

The learner reads the training set's column views and their small-int
pair codes, `value_code * C + class_code` for C classes, where a numeric
value's code is its rank among the source sequence's sorted distinct
values (the presorting idea of C4.5 and SPRINT). The source sequence
codes each (decision, attribute, time offset) once, so every (w, pos) of
a sweep slices the same codes. A node counts its rows' pair codes per
column in one pass and scores every candidate split from those counts
alone, and the winning split hands back each child's class counts (as
C4.5 knows a child's class distribution once the split is scored). A
child whose counts hold one class becomes a leaf at once, with no row
list and no recount. A discrete split groups only its impure children's
rows, and each inherits its counts, which are in its own
first-appearance order. The root, the only node holding every row,
counts whole columns.

A node scans only its live columns: those with at least two distinct
values on its rows. A column that is constant on a node is constant on
every descendant, and a discrete split column is constant on each
child, so neither reaches the children. Small nodes, which dominate deep
trees, count codes with a plain dict loop instead of a `Counter`; both
insert in first-appearance order, so every entropy term is summed in
the order a row-by-row scan gives.

The sweep needs only a tree's leaf count, the columns it tests and its
accuracy. `size` and `tested` come from one cached walk of the tree,
and `Rule`/`Condition` objects are built only when `rules` or `render`
is read. Evaluation routes row indices down the tree column by column
instead of walking it once per record.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .dataset import DataError
from .temporalise import TemporalisedDataset, column_name

_GAIN_EPS = 1e-12

# Nodes of at most this many rows count codes with a dict loop, larger
# ones with `Counter`, whose set-up dominates on small nodes. Timed on a
# 2-vCPU Xeon with Python 3.11 (timeit, best of 5), the loop against
# `Counter` takes 0.4 against 2.6 us on 2 rows and 7.9 against 10.5 us
# on 64; they break even between 100 and 150 rows, and `Counter` is 1.5x
# faster on 1,000.
_SMALL_NODE = 64


@dataclass(frozen=True)
class Condition:
    """One test on a time-indexed column: `= symbol` or a threshold test."""

    attribute: str
    time: int
    op: str  # "=", "<=", ">"
    value: object

    @property
    def column(self) -> str:
        return column_name(self.attribute, self.time)

    def render(self) -> str:
        return f"{self.column}{self.op}{self.value}"


@dataclass(frozen=True)
class Rule:
    """A conjunction of conditions implying one decision value."""

    conditions: tuple[Condition, ...]
    decision_attribute: str
    decision_time: int
    decision_value: object

    def render(self) -> str:
        decision = (
            f"{column_name(self.decision_attribute, self.decision_time)}"
            f"={self.decision_value}"
        )
        if not self.conditions:
            return f"IF TRUE THEN {decision}"
        ordered = sorted(self.conditions, key=lambda c: (c.time, c.attribute))
        return "IF " + " AND ".join(c.render() for c in ordered) + f" THEN {decision}"


@dataclass(frozen=True)
class RuleSet:
    """One induced tree, read as the rule set of its root-to-leaf paths.

    `classify` and `evaluate` route records down the tree. `size` (its
    leaf count) and `tested` (the (attribute, time) columns its splits
    test) are read off the tree without building rules. `rules` are its
    leaf paths in extraction order (discrete branches in domain order, a
    numeric split's low side first), so exactly one rule holds for each
    record the tree covers; every leaf is one rule and every split's
    column is tested by the rules below it.
    """

    tree: object = field(repr=False)
    default_class: object
    decision_attribute: str
    decision_time: int

    @cached_property
    def rules(self) -> tuple[Rule, ...]:
        out: list[Rule] = []
        _extract_rules(self.tree, [], out, self.decision_attribute, self.decision_time)
        return tuple(out)

    @cached_property
    def _shape(self) -> tuple[int, frozenset[tuple[str, int]]]:
        leaves = 0
        tested = set()
        stack = [self.tree]
        while stack:
            node = stack.pop()
            if isinstance(node, _Leaf):
                leaves += 1
                continue
            tested.add((node.attribute, node.time))
            if isinstance(node, _NumericSplit):
                stack += (node.low, node.high)
            else:
                stack += node.branches.values()
        return leaves, frozenset(tested)

    @property
    def size(self) -> int:
        return self._shape[0]

    @property
    def tested(self) -> frozenset[tuple[str, int]]:
        return self._shape[1]

    def render(self) -> str:
        return "\n".join(rule.render() for rule in self.rules)


@dataclass(frozen=True)
class EvalResult:
    """Accuracies and size for one induced rule set."""

    training_accuracy: float
    predictive_accuracy: float | None
    rule_size: int
    test_set_size: int
    training_set_size: int


@dataclass
class _Leaf:
    value: object


@dataclass
class _DiscreteSplit:
    attribute: str
    time: int
    branches: dict  # symbol -> node, covering the source domain


@dataclass
class _NumericSplit:
    attribute: str
    time: int
    threshold: float
    low: object
    high: object


def _entropy(counts: Iterable[int], total: int) -> float:
    h = 0.0
    for c in counts:
        p = c / total
        h -= p * math.log2(p)
    return h


@dataclass(frozen=True)
class _Column:
    """One training column with its (value, class) pair codes.

    `pairs[i]` is `value_code * class_count + class_code` of row i; a
    numeric value's code is its rank among the source sequence's sorted
    distinct values, so ascending codes are ascending values.
    """

    attribute: str
    time: int
    numeric: bool
    domain: tuple[str, ...] | None
    values: tuple[object, ...]
    pairs: list[int]


def _count(codes: Sequence[int], indices: list[int] | None) -> dict[int, int]:
    """How often each code occurs among `codes[i]` for i in `indices`.

    `indices` None counts all of `codes`. Keys are in first-appearance
    order, whichever way the node is counted.
    """
    if indices is None:
        return Counter(codes)
    if len(indices) > _SMALL_NODE:
        return Counter(map(codes.__getitem__, indices))
    counts: dict[int, int] = {}
    for i in indices:
        code = codes[i]
        counts[code] = counts.get(code, 0) + 1
    return counts


class _TreeBuilder:
    """Gain-ratio tree growth over integer-coded training columns.

    Classes are coded by their index in the decision domain, which is
    also the majority tie-break order. The pair codes are slices of the
    ones the source sequence caches per (decision, attribute, offset); a
    node counts its rows' pair codes in one pass per live column.
    """

    def __init__(self, train: TemporalisedDataset):
        source = train.source
        d, pos = train.decision_column
        self.classes = train.decision_schema.domain or ()
        start, stop = pos - 1, pos - 1 + train.n
        self.class_codes = source.value_codes(d)[start:stop].tolist()
        # every row in order: the root's rows, which count whole columns
        self.rows = list(range(train.n))
        columns = []
        for (attr, time), values in zip(train.condition_columns, train.columns):
            schema = source.attribute(attr)
            pairs = source.pair_codes(d, attr, time - pos, start, stop)
            numeric = schema.kind == "numeric"
            columns.append(_Column(attr, time, numeric, schema.domain, values, pairs))
        # column scan order fixes gain-ratio ties: lowest (attribute, time) wins
        columns.sort(key=lambda c: (c.attribute, c.time))
        self.columns = columns

    def class_counts(self, indices: list[int]) -> dict[int, int]:
        """Class-code counts in first-appearance order among `indices`."""
        return _count(self.class_codes, indices)

    def majority(self, counts: dict[int, int]) -> object:
        best = max(counts.values())
        return self.classes[min(k for k, c in counts.items() if c == best)]

    def build(
        self,
        indices: list[int],
        columns: list[_Column],
        counts: dict[int, int] | None = None,
    ):
        """The subtree over rows `indices`, scanning only `columns`.

        The rows hold at least two classes. `counts` are their class
        counts in first-appearance order, if the caller already has them.
        A child whose class counts from the winning split hold one class
        becomes a leaf and is not built. A discrete split groups only its
        impure children's rows, which inherit their counts.
        """
        if counts is None:
            counts = self.class_counts(indices)
        best, live = self._best_split(
            indices, counts, _entropy(counts.values(), len(indices)), columns
        )
        if best is None:
            return _Leaf(self.majority(counts))

        column, cut, children = best
        values = column.values
        if column.numeric:
            ordered = sorted(indices, key=values.__getitem__)
            low, high = ordered[:cut], ordered[cut:]
            low_counts, high_counts = children
            # a side's counts are in ascending-value order, not its rows'
            # first-appearance order, so an impure side counts them again
            return _NumericSplit(
                column.attribute,
                column.time,
                (values[low[-1]] + values[high[0]]) / 2,
                self._pure_leaf(low_counts) or self.build(low, live),
                self._pure_leaf(high_counts) or self.build(high, live),
            )
        # each child holds one value of the split column
        live = [c for c in live if c is not column]
        domain = column.domain
        rows = {domain[code]: [] for code, group in children.items() if len(group) > 1}
        if rows:
            for i in indices:
                group = rows.get(values[i])
                if group is not None:
                    group.append(i)
        majority = self.majority(counts)
        branches = {}
        for code, symbol in enumerate(domain):
            group = children.get(code)
            branches[symbol] = (
                _Leaf(majority)
                if group is None
                else self._pure_leaf(group) or self.build(rows[symbol], live, group)
            )
        return _DiscreteSplit(column.attribute, column.time, branches)

    def _pure_leaf(self, counts: dict[int, int]) -> _Leaf | None:
        """The leaf of the one class `counts` hold, or None if they hold more."""
        if len(counts) == 1:
            return _Leaf(self.classes[next(iter(counts))])
        return None

    def _best_split(self, indices, counts, parent_entropy, columns):
        """The winning (column, cut, children) at this node, or None, and the live columns.

        The live columns are those of `columns` with at least two
        distinct values on `indices`, in scan order. Floating-point terms
        are summed in the order a row-by-row scan would produce: classes
        and discrete values in first-appearance order within the node,
        numeric cuts in ascending value order, the high side of a cut in
        the node's class order.

        `children` holds each child's class counts. For a discrete split
        it maps each observed value code to its child's counts, whose
        keys are in that child's first-appearance order. For a numeric
        split it is `(low_counts, high_counts)`, which are not in the
        sides' row order. `cut` is the number of rows on the low side of
        a numeric split and None for a discrete one.
        """
        total = len(indices)
        width = len(self.classes)
        rows = None if indices is self.rows else indices
        best = None
        best_key = (-1, -math.inf)  # (positive-gain flag, gain ratio)
        live = []
        for column in columns:
            by_value: dict = {}
            for pair, c in _count(column.pairs, rows).items():
                value, klass = divmod(pair, width)
                group = by_value.get(value)
                if group is None:
                    by_value[value] = {klass: c}
                else:
                    group[klass] = c
            if len(by_value) < 2:
                continue
            live.append(column)
            if not column.numeric:
                children = 0.0
                split_info = 0.0
                for group in by_value.values():
                    size = sum(group.values())
                    p = size / total
                    children += p * _entropy(group.values(), size)
                    split_info -= p * math.log2(p)
                gain = parent_entropy - children
                key = (1 if gain > _GAIN_EPS else 0, gain / split_info)
                if key > best_key:
                    best_key = key
                    best = (column, None, by_value)
                continue
            low: dict = {}
            cut = 0
            for value in sorted(by_value)[:-1]:
                for klass, c in by_value[value].items():
                    low[klass] = low.get(klass, 0) + c
                    cut += c
                high = [c - low.get(k, 0) for k, c in counts.items()]
                p_low = cut / total
                p_high = 1.0 - p_low
                children = p_low * _entropy(low.values(), cut) + p_high * _entropy(
                    [c for c in high if c > 0], total - cut
                )
                gain = parent_entropy - children
                split_info = -(p_low * math.log2(p_low) + p_high * math.log2(p_high))
                key = (1 if gain > _GAIN_EPS else 0, gain / split_info)
                if key > best_key:
                    best_key = key
                    high_counts = {k: c for k, c in zip(counts, high) if c > 0}
                    best = (column, cut, (dict(low), high_counts))
        return best, live


def _leaves(node, columns: Mapping, indices: list[int]):
    """Yield (leaf value, rows reaching that leaf) for the rows `indices`.

    `columns` maps (attribute, time) to a column. Rows whose symbol has
    no branch leave the tree; they come first, with value None.
    """
    if isinstance(node, _Leaf):
        yield node.value, indices
        return
    column = columns[node.attribute, node.time]
    if isinstance(node, _NumericSplit):
        threshold = node.threshold
        low: list[int] = []
        high: list[int] = []
        for i in indices:
            (low if column[i] <= threshold else high).append(i)
        parts = zip((node.low, node.high), (low, high))
    else:
        groups: dict = {symbol: [] for symbol in node.branches}
        stray: list[int] = []
        for i in indices:
            groups.get(column[i], stray).append(i)
        if stray:
            yield None, stray
        parts = zip(node.branches.values(), groups.values())
    for child, rows in parts:
        if rows:
            yield from _leaves(child, columns, rows)


def _extract_rules(node, path, out, decision_attribute, decision_time):
    if isinstance(node, _Leaf):
        out.append(
            Rule(tuple(path), decision_attribute, decision_time, node.value)
        )
        return
    if isinstance(node, _DiscreteSplit):
        for symbol, child in node.branches.items():
            path.append(Condition(node.attribute, node.time, "=", symbol))
            _extract_rules(child, path, out, decision_attribute, decision_time)
            path.pop()
        return
    path.append(Condition(node.attribute, node.time, "<=", node.threshold))
    _extract_rules(node.low, path, out, decision_attribute, decision_time)
    path.pop()
    path.append(Condition(node.attribute, node.time, ">", node.threshold))
    _extract_rules(node.high, path, out, decision_attribute, decision_time)
    path.pop()


def induce(train: TemporalisedDataset) -> RuleSet:
    """Grow a gain-ratio tree over `train`; its leaf paths are the rules."""
    if train.n == 0:
        raise DataError("empty training data")
    decision = train.decision_schema
    if decision.kind != "discrete":
        raise DataError("classification requires discrete decision")

    builder = _TreeBuilder(train)
    counts = _count(builder.class_codes, None)
    d, pos = train.decision_column
    return RuleSet(
        tree=builder._pure_leaf(counts) or builder.build(builder.rows, builder.columns, counts),
        default_class=builder.majority(counts),
        decision_attribute=d,
        decision_time=pos,
    )


def _reject_missing_columns(required, available, where: str) -> None:
    missing = sorted(column_name(a, t) for a, t in required if (a, t) not in available)
    if missing:
        raise DataError(f"{where} is missing tested column(s): {', '.join(missing)}")


def classify(rule_set: RuleSet, record: Mapping[str, object]) -> object:
    """The value of the leaf `record` reaches, else the default class.

    The record maps column names like "x@t1" to values and must carry
    every column the tree tests.
    """
    names = {(a, t): column_name(a, t) for a, t in rule_set.tested}
    columns = {key: (record[name],) for key, name in names.items() if name in record}
    _reject_missing_columns(names, columns, "record")
    ((value, _),) = _leaves(rule_set.tree, columns, [0])
    return rule_set.default_class if value is None else value


def evaluate(rule_set: RuleSet, data: TemporalisedDataset) -> float:
    """Fraction of records whose recorded decision the rule set reproduces."""
    if data.n == 0:
        raise DataError("cannot evaluate on an empty dataset")
    columns = dict(zip(data.condition_columns, data.columns))
    _reject_missing_columns(rule_set.tested, columns, "dataset")
    decisions = data.decisions
    hits = 0
    for value, rows in _leaves(rule_set.tree, columns, list(range(data.n))):
        predicted = rule_set.default_class if value is None else value
        hits += list(map(decisions.__getitem__, rows)).count(predicted)
    return hits / data.n
