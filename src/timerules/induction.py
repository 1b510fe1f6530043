"""Gain-ratio decision tree induction and tree classification.

The learner grows a tree over a temporalised dataset: discrete columns
split multiway on their full domain (value-absent branches become leaves
carrying the node majority), numeric columns split between consecutive
observed values, at their midpoint when it falls between them. Either
kind is one split node, a tested column with a child per outcome, so
only scoring a split and routing a row tell the kinds apart. The tree is
the rule set: its root-to-leaf paths, read off on demand, are the rules,
all sharing one decision column. A record is classified by the one leaf
it reaches; a symbol no branch covers sends it to the default class.

The learner names a column only by its (attribute, time) key and reads
the training window through two maps from keys, filled on first use:
one gives a condition column's codes, the other a column's values. The
codes are small-int pair codes, `value_code * C + class_code` for C
classes, where a numeric value's code is its rank among the source
sequence's sorted distinct values (the presorting idea of C4.5 and
SPRINT). The window slices them from the codes its source sequence
caches, so the learner does no window arithmetic of its own. A node groups its rows' pair
codes into class counts per value and scores every candidate split from
those counts alone, and the winning split hands back each child's class
counts (as C4.5 knows a child's class distribution once the split is
scored). A child whose counts hold one class becomes a leaf at once,
with no row list. Every impure child inherits its counts, which are in
its own first-appearance order, so no node counts class codes. A
discrete split with an impure child groups the node's rows by symbol in
one pass. The root, the only node holding every row, reads its window's
counts, so a code list is fetched only when a node below the root first
scans it, and a column's values only when a split on it sorts rows
(numeric) or groups them for impure children (discrete).

A node scans only its live columns: those with at least two distinct
values on its rows. A column that is constant on a node is constant on
every descendant, and a discrete split column is constant on each
child, so neither reaches the children. A node gathers each column's
codes with one `itemgetter` call. Small nodes, of at most `_SMALL_NODE`
rows below the root, dominate deep trees: `_best_split` groups their
codes by value itself in one pass. Larger nodes count their codes with
`Counter` first. That is all the node size chooses: one loop scores a
discrete column and one a numeric column's cuts at every node. Every
split's score sums its entropy and split-info terms inline, reading a
term of a total up to `_SMALL_NODE` from a table that holds the float
its formula gives. All keep first-appearance
order and subtract the same terms from 0.0 in it, so every score is the
float a row-by-row scan gives. A one-class value's term, exactly 0.0,
is skipped. A node of two rows below the root holds two classes and scores
every live column exactly alike, so it splits on the first column in
scan order whose two values differ, without counting. A tree holds one
leaf object per class, and a node looks up its majority only when an
empty branch or a leaf with no live column needs it.

The sweep needs only a tree's leaf count, the columns it tests and its
accuracy. The learner tallies them as it grows the tree: training rows
never stray, so each leaf's hits on its window are known when it is made
(C4.5's "(N/E)" leaf annotation). That window also gives the decision
column and column kinds, and `Rule`/`Condition` objects are built only
when `rules` or `render` is read. Evaluating the tree's own window
returns that tally. On any other window a one-level tree is scored from
counts: a leaf root from the class counts, a discrete root whose
branches are all leaves from its column's pair counts. Any deeper tree
routes every row down from the root, fetching only the columns the rows
reach and the decision column.

Growing a tree, routing rows down it, reading its rules and flattening
it to the preorder that rule sets compare and pickle each walk it from
an explicit stack, never by recursion: gain ratio favours cuts that peel
off one row, so a column of distinct numbers can grow a chain of splits
deeper than Python's recursion limit.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .dataset import DataError
from .temporalise import TemporalisedDataset, column_name

_GAIN_EPS = 1e-12

# Nodes of at most this many rows group their rows by value in one pass,
# larger ones count their pair codes with `Counter` first. Timed on a
# 2-vCPU Xeon with Python 3.11 (timeit, best of 7), on a 4-value, 4-class
# noise column the pass against `Counter` takes 0.6 against 2.0 us on 2
# rows, 4.9 against 5.4 us on 32 and 17.7 against 9.9 us on 128.
_SMALL_NODE = 32

# _TERMS[n][c] is (c / n) * log2(c / n), for 1 <= c <= n <= _SMALL_NODE: the
# very expression `_entropy`'s loop evaluates, so a lookup gives its float
_TERMS = tuple(
    (0.0, *((c / n) * math.log2(c / n) for c in range(1, n + 1)))
    for n in range(_SMALL_NODE + 1)
)


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

    `classify` routes a record down the tree and `evaluate` scores a
    window. The learner tallies, as it grows the tree, its `size` (leaf
    count), the (attribute, time) columns its splits test and its hits on
    `train`, the window it was grown on. That window also gives the
    decision column every rule shares and each tested column's kind: a
    column is tested against a threshold exactly when its attribute is
    numeric. `rules` are its leaf paths in extraction order (discrete
    branches in domain order, a numeric split's low side first), so
    exactly one rule holds for each record the tree covers; every leaf
    is one rule and every split's column is tested by the rules below it.
    """

    tree: object = field(repr=False)
    default_class: object
    size: int
    tested: frozenset[tuple[str, int]]
    training_hits: int
    train: TemporalisedDataset = field(repr=False, compare=False)

    @cached_property
    def rules(self) -> tuple[Rule, ...]:
        return tuple(
            Rule(conditions, *self.train.decision_column, value)
            for conditions, value in _extract_rules(self.tree)
        )

    def render(self) -> str:
        return "\n".join(rule.render() for rule in self.rules)

    # a tree is compared, hashed and pickled as its preorder, as a deep one
    # would overflow the recursion of `_Split`'s generated `__eq__` and of
    # pickle, and a `_Split` is unhashable

    @cached_property
    def _preorder(self) -> tuple:
        return _flatten(self.tree)

    def _identity(self) -> tuple:
        return (self._preorder, self.default_class, self.size, self.tested, self.training_hits)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    def __getstate__(self) -> dict:
        return {**self.__dict__, "tree": self._preorder}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, tree=_unflatten(state["tree"]))


# slotted to keep trees small: a robot walk's largest hold ~8,600 nodes;
# frozen, as every leaf of a class in a tree is one shared object
@dataclass(frozen=True, slots=True)
class _Leaf:
    value: object


@dataclass(slots=True)
class _Split:
    key: tuple[str, int]  # the tested column, (attribute, time)
    threshold: float | None  # None for a discrete split
    # discrete: every domain symbol -> child, in domain order;
    # numeric: {False: low, True: high}, keyed by `value > threshold`
    branches: dict


def _classes(data: TemporalisedDataset) -> tuple[str, ...]:
    """The domain of `data`'s decision attribute, which must be discrete."""
    decision = data.source.attribute(data.provenance.d)
    if decision.kind != "discrete":
        raise DataError("classification requires discrete decision")
    return decision.domain


def _entropy(counts: Iterable[int], total: int) -> float:
    """The entropy of class `counts` summing to `total`, terms summed in order.

    Up to `_SMALL_NODE` each term is read from `_TERMS`, which holds the
    float the loop computes, so both give the same sum. It scores a
    node's own classes; `_best_split` sums its splits' terms inline.
    """
    h = 0.0
    if total <= _SMALL_NODE:
        terms = _TERMS[total]
        for c in counts:
            h -= terms[c]
        return h
    for c in counts:
        p = c / total
        h -= p * math.log2(p)
    return h


class _Fetched(dict):
    """A map from column keys to `fetch(key)`, each fetched on its first lookup."""

    def __init__(self, fetch: Callable[[tuple[str, int]], Sequence]):
        super().__init__()
        self.fetch = fetch

    def __missing__(self, key: tuple[str, int]) -> Sequence:
        value = self[key] = self.fetch(key)
        return value


class _TreeBuilder:
    """Gain-ratio tree growth over integer-coded training columns.

    Classes are coded by their index in the decision domain, which is
    also the majority tie-break order. A column is its (attribute, time)
    key, scanned as a `(key, domain)` pair whose domain is None if the
    column is numeric. `codes[key]` and `values[key]` fetch the window's
    codes and values on first lookup. The root reads its window's
    counts; any other node groups its rows' codes per live column. It
    tallies the tree's leaves, its training misses and the columns its
    splits test. Only a leaf with no live column misses: the others are
    pure or, on an empty branch, hold no training row. Every leaf of a
    class is that class's one `_Leaf` in `leaf_of`.
    """

    def __init__(self, train: TemporalisedDataset):
        self.train = train
        self.classes = _classes(train)
        self.leaf_of = [_Leaf(value) for value in self.classes]  # by class code
        # scan order breaks only float-equal ties: lowest (attribute, time) wins (ROADMAP item 1)
        self.columns = [
            (key, train.source.attribute(key[0]).domain)
            for key in sorted(train.condition_columns)
        ]
        self.codes = _Fetched(train.codes)
        self.values = _Fetched(train.column)
        # pair code -> (value, class), filled by the root's scan of every column
        self.pairs: dict[int, tuple[int, int]] = {}
        self.leaves = 1  # a split with k branches turns a leaf into k
        self.misses = 0
        self.tested: set[tuple[str, int]] = set()

    def majority(self, counts: dict[int, int]) -> _Leaf:
        """The leaf of the most frequent class in `counts`, the lowest code of tied ones."""
        best = max(counts.values())
        return self.leaf_of[min(k for k, c in counts.items() if c == best)]

    def build(self, indices: Sequence[int], columns: list[tuple], counts: dict[int, int]):
        """The tree over rows `indices`, grown one `_grow` call per node from a stack."""
        tree: dict = {}
        stack = [(tree, None, indices, columns, counts)]
        pop, grow = stack.pop, self._grow
        while stack:
            branches, outcome, rows, live, group = pop()
            branches[outcome] = grow(rows, live, group, stack)
        return tree[None]

    def _grow(
        self, indices: Sequence[int], columns: list[tuple], counts: dict[int, int], stack: list
    ):
        """The node over rows `indices`, scanning only `columns`.

        The rows, a `range` at the root, hold at least two classes, and
        `counts` are their class counts in first-appearance order. Each
        child inherits its class counts from the winning split: one that
        holds one class becomes its class's shared leaf and is not grown,
        and an empty discrete branch the leaf of the node's majority class,
        which is looked up only when such a branch, or a node no column
        splits, needs it. Any other child is pushed on `stack` as
        `(branches, outcome, rows, live columns, counts)` and holds None in
        the split's branches, which are filled in outcome order, until it
        is grown. A discrete split builds its branches in domain order and
        groups the node's rows by symbol, in one pass, only if a child is
        impure. A node of two rows below the root takes its split from
        `_two_row_split`, which counts nothing.

        A numeric split's threshold is the midpoint of the values either
        side of the cut if it lies in [below, above), else `below` itself
        (C4.5's thresholds are observed values): a midpoint can round onto
        either side, or overflow.
        """
        # a node below the root holds at least two rows, as itemgetter needs
        gather = None if isinstance(indices, range) else itemgetter(*indices)
        if gather is not None and len(indices) == 2:
            best, live = self._two_row_split(gather, columns), []
        else:
            best, live = self._best_split(gather, len(indices), counts, columns)
        if best is None:
            self.misses += len(indices) - max(counts.values())
            return self.majority(counts)

        (key, domain), cut, children = best
        self.tested.add(key)
        branches: dict = {}
        if domain is None:
            values = self.values[key]
            ordered = sorted(indices, key=values.__getitem__)
            low, high = ordered[:cut], ordered[cut:]
            below, above = values[low[-1]], values[high[0]]
            try:
                threshold = (below + above) / 2
            except OverflowError:
                threshold = below
            if not below <= threshold < above:
                threshold = below
            for outcome, rows, group in zip((False, True), (low, high), children):
                leaf = branches[outcome] = self._pure_leaf(group)
                if leaf is None:
                    stack.append((branches, outcome, rows, live, group))
        else:
            # each child holds one value of the split column
            live = [column for column in live if column[0] != key]
            threshold = empty = by_symbol = None
            for code, symbol in enumerate(domain):
                group = children.get(code)
                if group is None:  # no row takes this branch
                    if empty is None:
                        empty = self.majority(counts)
                    branches[symbol] = empty
                elif len(group) == 1:
                    (klass,) = group
                    branches[symbol] = self.leaf_of[klass]
                else:
                    if by_symbol is None:
                        values = self.values[key]
                        by_symbol = {s: [] for s in domain}
                        for i in indices:
                            by_symbol[values[i]].append(i)
                    branches[symbol] = None
                    stack.append((branches, symbol, by_symbol[symbol], live, group))
        self.leaves += len(branches) - 1
        return _Split(key, threshold, branches)

    def _pure_leaf(self, counts: dict[int, int]) -> _Leaf | None:
        """The leaf of the one class `counts` hold, or None if they hold more."""
        if len(counts) == 1:
            return self.leaf_of[next(iter(counts))]
        return None

    def _by_value(self, key, gather) -> dict[int, dict[int, int]]:
        """Per value code of column `key`, its class counts on a node's rows.

        Both in first-appearance order: the node's pair codes are counted
        first. The root (`gather` None) reads its window's counts, which
        hold every pair code below it, into `pairs`.
        """
        pairs = self.pairs
        if gather is None:
            counts = self.train.counts(key)
            pairs.update({pair: divmod(pair, len(self.classes)) for pair in counts})
        else:
            counts = Counter(gather(self.codes[key]))
        by_value: dict = {}
        for pair, c in counts.items():
            value, klass = pairs[pair]
            group = by_value.get(value)
            if group is None:
                by_value[value] = {klass: c}
            else:
                group[klass] = c
        return by_value

    def _two_row_split(self, gather, columns):
        """`_best_split`'s winner on a node of two rows, which hold two classes.

        On such a node every live column, discrete or numeric, puts each
        row in its own one-class child and scores exactly (1, 1.0): parent
        entropy, gain and split info are each exactly 1.0 in floats. So the
        first column in scan order whose two value codes differ wins, found
        with no grouping and no entropy, and a numeric cut puts the row
        with the smaller value code, the smaller value, on the low side.
        """
        pairs = self.pairs
        for column in columns:
            first, second = gather(self.codes[column[0]])
            value, klass = pairs[first]
            other, other_class = pairs[second]
            if value == other:
                continue
            if column[1] is not None:
                return column, None, {value: {klass: 1}, other: {other_class: 1}}
            sides = ({klass: 1}, {other_class: 1})
            return column, 1, sides if value < other else sides[::-1]
        return None

    def _best_split(self, gather, total, counts, columns):
        """The winning ((key, domain), cut, children), or None, and the live columns.

        `gather` reads a column's codes at the node's `total` rows (None at
        the root), and `counts` are those rows' class counts. The live
        columns are those of `columns` with at least two distinct values on
        the rows, in scan order. Floating-point terms are summed in the
        order a row-by-row scan would produce: classes and discrete values
        in first-appearance order within the node, numeric cuts in
        ascending value order, the high side of a cut in the node's class
        order. A discrete split's info is the entropy of its value sizes.
        A small node (below the root, at most `_SMALL_NODE` rows) groups
        each column's codes here in one pass, a larger one through
        `_by_value`; the grouped counts are then scored alike at any node
        size. Each split's sums are inline, each subtracting terms
        from 0.0 in order as `_entropy` does and reading those of a total
        up to `_SMALL_NODE` from `_TERMS`; a numeric cut's high side counts
        down from the node's counts. A numeric split's info is its two
        sides' terms, as its high side's share `1.0 - p_low` is not
        `(total - cut) / total` in floats.
        Of float-equal scores the first wins, but scores equal in real
        numbers may differ in floats (ROADMAP item 1).

        `children` holds each child's class counts. For a discrete split
        it maps each observed value code to its child's counts, whose
        keys are in that child's first-appearance order. For a numeric
        split it is `(low_counts, high_counts)`, each in the
        first-appearance order of its side's rows as `build` stably sorts
        them by value. `cut` is the number of rows on the low side of a
        numeric split and None for a discrete one.
        """
        parent_entropy = _entropy(counts.values(), total)
        log2 = math.log2
        best = None
        # the winner's (positive-gain flag, gain ratio), compared lexicographically
        best_positive, best_ratio = -1, -math.inf
        live = []
        small = gather is not None and total <= _SMALL_NODE
        pairs, codes = self.pairs, self.codes
        for column in columns:
            key, domain = column
            if small:
                by_value = {}
                for pair in gather(codes[key]):
                    value, klass = pairs[pair]
                    group = by_value.get(value)
                    if group is None:
                        by_value[value] = {klass: 1}
                    else:
                        group[klass] = group.get(klass, 0) + 1
            else:
                by_value = self._by_value(key, gather)
            if len(by_value) < 2:
                continue
            live.append(column)
            if domain is not None:
                # `_entropy`'s sums inline, with the terms it reads or computes;
                # a one-class group's entropy term is exactly 0.0
                children = split_info = 0.0
                terms = _TERMS[total] if total <= _SMALL_NODE else None
                for group in by_value.values():
                    if len(group) == 1:
                        (size,) = group.values()
                    else:
                        size = sum(group.values())
                        h = 0.0
                        if size <= _SMALL_NODE:
                            row = _TERMS[size]
                            for c in group.values():
                                h -= row[c]
                        else:
                            for c in group.values():
                                q = c / size
                                h -= q * log2(q)
                        children += size / total * h
                    if terms is None:
                        q = size / total
                        split_info -= q * log2(q)
                    else:
                        split_info -= terms[size]
                gain = parent_entropy - children
                positive, ratio = gain > _GAIN_EPS, gain / split_info
                if positive > best_positive or positive == best_positive and ratio > best_ratio:
                    best_positive, best_ratio = positive, ratio
                    best = (column, None, by_value)
                continue
            # each side's class counts, the high side's in the node's class order
            low: dict = {}
            high = dict(counts)
            cut = 0
            values = sorted(by_value)
            for above, value in enumerate(values[:-1], 1):
                for klass, c in by_value[value].items():
                    low[klass] = low.get(klass, 0) + c
                    high[klass] -= c
                    cut += c
                rest = total - cut
                h_low = h_high = 0.0
                if cut <= _SMALL_NODE:
                    row = _TERMS[cut]
                    for c in low.values():
                        h_low -= row[c]
                else:
                    for c in low.values():
                        q = c / cut
                        h_low -= q * log2(q)
                if rest <= _SMALL_NODE:
                    row = _TERMS[rest]
                    for c in high.values():
                        h_high -= row[c]  # an emptied class's row[0] is 0.0
                else:
                    for c in high.values():
                        if c:
                            q = c / rest
                            h_high -= q * log2(q)
                p_low = cut / total
                p_high = 1.0 - p_low
                children = p_low * h_low + p_high * h_high
                gain = parent_entropy - children
                split_info = -(p_low * log2(p_low) + p_high * log2(p_high))
                positive, ratio = gain > _GAIN_EPS, gain / split_info
                if positive > best_positive or positive == best_positive and ratio > best_ratio:
                    best_positive, best_ratio = positive, ratio
                    high_counts = {k: high[k] for v in values[above:] for k in by_value[v]}
                    best = (column, cut, (dict(low), high_counts))
        return best, live


def _leaves(node, columns: Mapping, indices: list[int]):
    """Yield (leaf value, rows reaching that leaf) for the rows `indices`.

    `columns` maps a column's key to its values. Rows whose symbol has no
    branch leave the tree, with value None. Every part keeps the order of
    `indices`, and a discrete split's parts that of its branches.
    """
    if isinstance(node, _Leaf):
        yield node.value, indices
        return
    stack = [(node, indices)]
    while stack:
        node, indices = stack.pop()
        column = columns[node.key]
        threshold = node.threshold
        if threshold is None:
            groups: dict = {symbol: [] for symbol in node.branches}
            stray: list[int] = []
            for i in indices:
                groups.get(column[i], stray).append(i)
            if stray:
                yield None, stray
            parts = groups.values()
        else:
            low: list[int] = []
            high: list[int] = []
            for i in indices:
                (low if column[i] <= threshold else high).append(i)
            parts = (low, high)
        for child, rows in zip(node.branches.values(), parts):
            if not rows:
                continue
            if isinstance(child, _Leaf):
                yield child.value, rows
            else:
                stack.append((child, rows))


def _extract_rules(node):
    """Yield (conditions, leaf value) per leaf below `node`, in branch order.

    A split pushes its branches on the stack last first, so the walk is
    depth first in branch order.
    """
    stack = [(node, ())]
    while stack:
        node, path = stack.pop()
        if isinstance(node, _Leaf):
            yield path, node.value
            continue
        for outcome, child in reversed(node.branches.items()):
            if node.threshold is None:
                condition = Condition(*node.key, "=", outcome)
            else:
                op = ">" if outcome else "<="
                condition = Condition(*node.key, op, node.threshold)
            stack.append((child, (*path, condition)))


def _flatten(tree) -> tuple:
    """`tree`'s nodes in preorder: a leaf as `(value,)`, a split as `(key, threshold, outcomes)`."""
    nodes = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, _Leaf):
            nodes.append((node.value,))
        else:
            nodes.append((node.key, node.threshold, tuple(node.branches)))
            stack.extend(reversed(node.branches.values()))
    return tuple(nodes)


def _unflatten(nodes: Iterable[tuple]):
    """The tree `_flatten` gave `nodes` for, with one leaf object per class."""
    leaf_of: dict = {}
    top: dict = {}
    stack = [(top, None)]  # the branches each next node fills, in preorder
    for node in nodes:
        branches, outcome = stack.pop()
        if len(node) == 1:
            leaf = leaf_of.get(node)
            if leaf is None:
                leaf = leaf_of[node] = _Leaf(*node)
            node = leaf
        else:
            node = _Split(node[0], node[1], dict.fromkeys(node[2]))
            stack.extend((node.branches, o) for o in reversed(node.branches))
        branches[outcome] = node
    return top[None]


def induce(train: TemporalisedDataset) -> RuleSet:
    """Grow a gain-ratio tree over `train`; its leaf paths are the rules."""
    builder = _TreeBuilder(train)
    counts = train.counts(train.decision_column)
    tree = builder._pure_leaf(counts) or builder.build(range(train.n), builder.columns, counts)
    return RuleSet(
        tree=tree,
        default_class=builder.majority(counts).value,
        size=builder.leaves,
        tested=frozenset(builder.tested),
        training_hits=train.n - builder.misses,
        train=train,
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
    """Fraction of records whose recorded decision the rule set reproduces.

    On the window the tree was grown on, this is the learner's tally of its
    leaves' hits. On any other window a leaf root, or a discrete root
    whose branches are all leaves, is scored from `data`'s counts, whose
    codes are read through `data`'s own domains. Any other tree routes
    every row once from its root, fetching only the columns the rows
    reach. A stray scores as the default class. `data` must decide
    `train`'s decision column and hold every column the tree tests, of its
    kind there.
    """
    decision = rule_set.train.decision_column
    if data.decision_column != decision:
        found, expected = column_name(*data.decision_column), column_name(*decision)
        raise DataError(f"dataset decision column {found} is not the tree's, {expected}")
    classes = _classes(data)
    _reject_missing_columns(rule_set.tested, data.condition_columns, "dataset")
    for key in sorted(rule_set.tested):
        kind = data.source.attribute(key[0]).kind
        if kind != rule_set.train.source.attribute(key[0]).kind:
            test = "by symbol" if kind == "numeric" else "against a threshold"
            name = column_name(*key)
            raise DataError(f"dataset column {name} is {kind}, but the tree tests it {test}")
    if data is rule_set.train:
        return rule_set.training_hits / data.n
    tree, default = rule_set.tree, rule_set.default_class
    if isinstance(tree, _Leaf):
        counts = data.counts(data.decision_column)
        return sum(c for k, c in counts.items() if classes[k] == tree.value) / data.n
    hits = 0
    if tree.threshold is None and not any(isinstance(c, _Split) for c in tree.branches.values()):
        domain = data.source.attribute(tree.key[0]).domain
        for pair, c in data.counts(tree.key).items():
            value, klass = divmod(pair, len(classes))
            child = tree.branches.get(domain[value])
            if classes[klass] == (default if child is None else child.value):
                hits += c
        return hits / data.n
    decisions = data.column(data.decision_column)
    for value, reached in _leaves(tree, _Fetched(data.column), list(range(data.n))):
        predicted = default if value is None else value
        hits += list(map(decisions.__getitem__, reached)).count(predicted)
    return hits / data.n
