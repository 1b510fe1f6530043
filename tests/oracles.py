"""Independent oracles the tests check the library against.

Nothing here may import from the induction or semantics internals beyond
public data shapes: each oracle recomputes its answer from first
principles so the checks stay two-sided.
"""

from __future__ import annotations

import csv
import io
import math
import re
import sys
from collections import Counter
from statistics import NormalDist

from timerules.induction import Condition, Rule


def best_tree_correct_count(rows: list[tuple], n_attrs: int) -> int:
    """Maximum training hits any decision tree over binary attributes achieves.

    Exhaustive search expressed as a recursion: at every node either stop
    with the majority class or split on one of the remaining attributes
    and solve both sides independently. Rows are (v1, .., vn, class).
    """

    def best(indices: tuple[int, ...], attrs: frozenset[int]) -> int:
        counts = Counter(rows[i][-1] for i in indices)
        stop = max(counts.values())
        if len(counts) == 1 or not attrs:
            return stop
        best_count = stop
        for a in attrs:
            zero = tuple(i for i in indices if rows[i][a] == 0)
            one = tuple(i for i in indices if rows[i][a] == 1)
            if not zero or not one:
                continue
            remaining = attrs - {a}
            best_count = max(best_count, best(zero, remaining) + best(one, remaining))
        return best_count

    return best(tuple(range(len(rows))), frozenset(range(n_attrs)))


def first_bad_record(schema, rows) -> str | None:
    """The error naming the first cell of `rows` its attribute cannot hold.

    Scans row by row, and within a row column by column: a numeric cell
    must be an int or a finite float (bools included), a discrete cell
    equal to a symbol of the domain, and None fits either kind. None when
    every cell fits.
    """
    for i, record in enumerate(rows):
        for attribute, value in zip(schema, record):
            if value is None:
                continue
            if attribute.kind == "numeric":
                # nan is the one value unequal to itself
                finite = value == value and value not in (math.inf, -math.inf)
                if not (isinstance(value, (int, float)) and finite):
                    return (
                        f"record {i + 1}: {attribute.name} expects a number, "
                        f"got {value!r}"
                    )
            elif value not in attribute.domain:
                return f"record {i + 1}: {value!r} is outside the domain of {attribute.name}"
    return None


# Python's literal grammar for int() and float(), restricted to ASCII digits
# without "_" separators; nan and inf are spelled in any case
INT_LITERAL = re.compile(r"[+-]?[0-9]+")
FLOAT_LITERAL = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|infinity|nan)",
    re.IGNORECASE,
)


def column_kind(tokens) -> tuple[str, object]:
    """How a CSV column of stripped `tokens` must load: (kind, detail).

    "?" is a missing cell. The column is numeric when every other token
    is an int or float literal of the grammar above; an int literal
    holds an int, any other a float. A numeric column in which some
    literal reads as nan or an infinity, or an int literal has more
    digits than Python reads, is "non-finite" with the index of the
    first such token. Otherwise the column is discrete and holds its
    tokens. At least one token must be observed. Returns ("numeric",
    values), ("discrete", values) or ("non-finite", index); values hold
    None for "?".
    """
    observed = [t for t in tokens if t != "?"]
    assert observed, "a column needs an observed value"
    if not all(FLOAT_LITERAL.fullmatch(t) for t in observed):
        return "discrete", tuple(None if t == "?" else t for t in tokens)
    values = []
    for i, token in enumerate(tokens):
        if token == "?":
            values.append(None)
        elif INT_LITERAL.fullmatch(token):
            if len(token.lstrip("+-")) > sys.get_int_max_str_digits():
                return "non-finite", i
            values.append(int(token))
        elif math.isfinite(value := float(token)):
            values.append(value)
        else:
            return "non-finite", i
    return "numeric", tuple(values)


def csv_by_rows(header, records) -> bytes:
    """The UTF-8 bytes of a CSV written row by row with `csv.writer`.

    `header` (when not None) is the first row; each record's cells
    follow as `str(cell)`, with "?" for a missing (None) cell.
    """
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    if header is not None:
        writer.writerow(header)
    for record in records:
        writer.writerow(["?" if cell is None else str(cell) for cell in record])
    return buffer.getvalue().encode("utf-8")


def periodic_labels(period: int, steps: int) -> list[str]:
    """The periodic series' labels, one per step: step i holds `str(i % period)`."""
    return [str(i % period) for i in range(steps)]


# The three definitions read rules that share one decision time.


def condition_times(rules) -> list[int]:
    return [condition.time for rule in rules for condition in rule.conditions]


def definition_instantaneous(rules) -> bool:
    """Every condition in every conditioned rule sits at the decision time."""
    times = condition_times(rules)
    return bool(times) and all(t == rules[0].decision_time for t in times)


def definition_p_causal(rules) -> bool:
    """Every condition in every conditioned rule precedes the decision time."""
    times = condition_times(rules)
    return bool(times) and all(t < rules[0].decision_time for t in times)


def definition_acausal(rules) -> bool:
    """No condition at the decision time, and some condition after it."""
    times = condition_times(rules)
    return (
        bool(times)
        and all(t != rules[0].decision_time for t in times)
        and any(t > rules[0].decision_time for t in times)
    )


def condition_holds(condition, observed) -> bool:
    """Whether a value satisfies a `=`, `<=` or `>` condition."""
    if condition.op == "=":
        return observed == condition.value
    if condition.op == "<=":
        return observed <= condition.value
    return observed > condition.value


def first_match(rules, default, record) -> object:
    """The decision of the first rule whose conditions all hold, else `default`.

    This is the classic reading of a rule list, one rule at a time, with
    no tree. `record` maps column names such as "x@t1" to values.
    """
    for rule in rules:
        if all(
            condition_holds(c, record[f"{c.attribute}@t{c.time}"]) for c in rule.conditions
        ):
            return rule.decision_value
    return default


def reference_window(source, spec) -> tuple[list, list]:
    """The paper's flat records of window (w, pos, d) over `source`, built row by row.

    Window i holds source records i..i+w-1, each read cell by cell from
    `source.columns`, at window times 1..w. Its flat record holds every
    attribute of each record at a time other than pos, in time order
    (the preceding records, then the following ones) and schema order
    within a record, then d at pos. At w = 1 the conditions are every
    other attribute at t1. Returns the condition keys (attribute, t) in
    field order, and the rows: each row's condition values, then its
    decision.
    """
    w, pos, d = spec.w, spec.pos, spec.d
    names = [attribute.name for attribute in source.schema]
    j = names.index(d)
    n = len(source.columns[j])
    records = [tuple(column[i] for column in source.columns) for i in range(n)]
    rows = []
    for i in range(n - w + 1):
        window = records[i : i + w]
        if w == 1:
            conditions = tuple(value for k, value in enumerate(window[0]) if k != j)
        else:
            conditions = tuple(
                value for t, record in enumerate(window, 1) if t != pos for value in record
            )
        rows.append(conditions + (window[pos - 1][j],))
    if w == 1:
        keys = [(name, 1) for name in names if name != d]
    else:
        keys = [(name, t) for t in range(1, w + 1) if t != pos for name in names]
    return keys, rows


def lookup_table_accuracy(window) -> float:
    """The share of `window`'s rows a lookup table on their conditions gets right.

    The table maps each distinct condition tuple to the decision it
    occurs with most often, so it scores the largest class count of
    every tuple. A tree grown until each node is pure or holds no live
    column groups its training rows by their whole condition tuple,
    whatever order it splits them in, so it scores the same. The rows
    come from `reference_window`.
    """
    _, rows = reference_window(window.source, window.provenance)
    counts = Counter((row[:-1], row[-1]) for row in rows)
    best: dict = {}
    for (conditions, _), count in counts.items():
        best[conditions] = max(best.get(conditions, 0), count)
    return sum(best.values()) / len(rows)


def window_codes(window) -> dict:
    """The class codes of a window's decision column and the pair codes of each other column.

    Codes are worked out afresh from `reference_window`'s rows: a class
    is coded by its index in the decision domain, a discrete value by
    its index in its domain, a numeric value by its rank among the
    source sequence's sorted distinct values, and a pair as
    `value * C + class` for C classes. Returns a dict from each column's
    (attribute, time), the decision's (d, pos) first, to its codes in
    row order.
    """
    source, spec = window.source, window.provenance
    keys, rows = reference_window(source, spec)
    classes = source.attribute(spec.d).domain
    class_codes = [classes.index(row[-1]) for row in rows]
    codes = {(spec.d, spec.pos): class_codes}
    for k, (attribute, time) in enumerate(keys):
        symbols = source.attribute(attribute).domain
        if symbols is None:
            j = [a.name for a in source.schema].index(attribute)
            symbols = sorted(set(source.columns[j]))
        codes[attribute, time] = [
            symbols.index(row[k]) * len(classes) + c for row, c in zip(rows, class_codes)
        ]
    return codes


# --- reference tree learner -------------------------------------------------
#
# A frozen, loop-based copy of the gain-ratio learner as it stood before
# the library moved to integer-coded columns. It reads the rows of
# `reference_window`, regroups and re-sorts every column at every node and
# counts classes with `Counter`s, so it shares no code path with the
# library. The library must reproduce its trees bit for bit: the same
# rules, the same thresholds and the same default class.

_GAIN_EPS = 1e-12


def _entropy(counts: Counter, total: int) -> float:
    h = 0.0
    for c in counts.values():
        p = c / total
        h -= p * math.log2(p)
    return h


def _majority(counts: Counter, class_rank: dict) -> object:
    best = max(counts.values())
    return min(
        (value for value, c in counts.items() if c == best),
        key=lambda value: class_rank[value],
    )


class ReferenceTree:
    """Tree nodes are tuples: ("leaf", value), ("discrete", attr, time,
    {symbol: node}) and ("numeric", attr, time, threshold, low, high)."""

    def __init__(self, train):
        keys, self.rows = reference_window(train.source, train.provenance)
        self.classes = [row[-1] for row in self.rows]
        self.class_rank = {
            symbol: i
            for i, symbol in enumerate(train.source.attribute(train.provenance.d).domain)
        }
        cols = []
        for k, (attr, time) in enumerate(keys):
            schema = train.source.attribute(attr)
            cols.append((attr, time, k, schema.kind, schema.domain))
        cols.sort(key=lambda c: (c[0], c[1]))
        self.columns = cols
        self.decision_column = train.provenance.d, train.provenance.pos
        indices = list(range(len(self.rows)))
        self.root = self._build(indices)
        self.default = _majority(Counter(self.classes), self.class_rank)

    def _build(self, indices):
        counts = Counter(self.classes[i] for i in indices)
        if len(counts) == 1:
            return ("leaf", next(iter(counts)))
        best = self._best_split(indices, counts, _entropy(counts, len(indices)))
        if best is None:
            return ("leaf", _majority(counts, self.class_rank))
        if best["kind"] == "discrete":
            majority = _majority(counts, self.class_rank)
            branches = {}
            for symbol in best["domain"]:
                group = best["groups"].get(symbol)
                branches[symbol] = self._build(group) if group else ("leaf", majority)
            return ("discrete", best["attribute"], best["time"], branches)
        return (
            "numeric",
            best["attribute"],
            best["time"],
            best["threshold"],
            self._build(best["low"]),
            self._build(best["high"]),
        )

    def _best_split(self, indices, counts, parent_entropy):
        total = len(indices)
        best = None
        best_key = (-1, -math.inf)
        for attr, time, k, kind, domain in self.columns:
            if kind == "discrete":
                groups: dict = {}
                for i in indices:
                    groups.setdefault(self.rows[i][k], []).append(i)
                if len(groups) < 2:
                    continue
                children = 0.0
                split_info = 0.0
                for group in groups.values():
                    p = len(group) / total
                    children += p * _entropy(
                        Counter(self.classes[i] for i in group), len(group)
                    )
                    split_info -= p * math.log2(p)
                gain = parent_entropy - children
                key = (1 if gain > _GAIN_EPS else 0, gain / split_info)
                if key > best_key:
                    best_key = key
                    best = {
                        "kind": "discrete",
                        "attribute": attr,
                        "time": time,
                        "groups": groups,
                        "domain": domain,
                    }
            else:
                ordered = sorted(indices, key=lambda i: self.rows[i][k])
                low_counts: Counter = Counter()
                for cut in range(1, total):
                    i_prev, i_here = ordered[cut - 1], ordered[cut]
                    low_counts[self.classes[i_prev]] += 1
                    v_prev = self.rows[i_prev][k]
                    v_here = self.rows[i_here][k]
                    if v_prev == v_here:
                        continue
                    high_counts = counts - low_counts
                    p_low = cut / total
                    p_high = 1.0 - p_low
                    children = p_low * _entropy(low_counts, cut) + p_high * _entropy(
                        high_counts, total - cut
                    )
                    gain = parent_entropy - children
                    split_info = -(p_low * math.log2(p_low) + p_high * math.log2(p_high))
                    key = (1 if gain > _GAIN_EPS else 0, gain / split_info)
                    if key > best_key:
                        best_key = key
                        # C4.5 falls back to an observed value (Quinlan 1993);
                        # a float midpoint can round onto a side or overflow
                        try:
                            threshold = (v_prev + v_here) / 2
                        except OverflowError:
                            threshold = v_prev
                        if not v_prev <= threshold < v_here:
                            threshold = v_prev
                        best = {
                            "kind": "numeric",
                            "attribute": attr,
                            "time": time,
                            "threshold": threshold,
                            "low": ordered[:cut],
                            "high": ordered[cut:],
                        }
        return best

    def rule_lines(self) -> list[str]:
        """Leaf-path rules in extraction order, rendered as `RuleSet.render` lines."""
        decision_attribute, decision_time = self.decision_column
        out: list[str] = []

        def walk(node, path):
            if node[0] == "leaf":
                rule = Rule(tuple(path), decision_attribute, decision_time, node[1])
                out.append(rule.render())
            elif node[0] == "discrete":
                for symbol, child in node[3].items():
                    walk(child, path + [Condition(node[1], node[2], "=", symbol)])
            else:
                walk(node[4], path + [Condition(node[1], node[2], "<=", node[3])])
                walk(node[5], path + [Condition(node[1], node[2], ">", node[3])])

        walk(self.root, [])
        return out

    def accuracy(self, data) -> float:
        """Fraction of `data`'s rows whose decision a root-to-leaf walk reproduces."""
        keys, rows = reference_window(data.source, data.provenance)
        positions = {column: k for k, column in enumerate(keys)}
        hits = 0
        for record in rows:
            node = self.root
            while node is not None and node[0] != "leaf":
                value = record[positions[(node[1], node[2])]]
                if node[0] == "discrete":
                    node = node[3].get(value)
                else:
                    node = node[4] if value <= node[3] else node[5]
            predicted = self.default if node is None else node[1]
            hits += predicted == record[-1]
        return hits / len(rows)


# --- reference judge ----------------------------------------------------------
#
# The verdict rule of the paper, read off an outcome table: each competing
# kind's best showing, its confidence interval, the accuracy threshold and
# the sequential selection. Only the outcomes' fields are read.

SIMPLEST_FIRST = ("instantaneous", "acausal", "p-causal")


def _measured(outcome, mode):
    """(accuracy, records) that `mode` scores; predictive mode falls back to
    training when no predictive accuracy was measured."""
    if mode == "predictive" and outcome.predictive_accuracy is not None:
        return outcome.predictive_accuracy, outcome.test_set_size
    return outcome.training_accuracy, outcome.training_set_size


def _interval(accuracy, n, cl, method):
    """(lo, hi) of the normal or Wilson interval at level cl, clipped to [0, 1]."""
    z = NormalDist().inv_cdf((1 + cl) / 2)
    if method == "normal":
        half = z * math.sqrt(accuracy * (1 - accuracy) / n)
        lo, hi = accuracy - half, accuracy + half
    else:
        # (a + z²/2n ± z·sqrt(a(1 - a)/n + z²/4n²)) / (1 + z²/n)
        middle = accuracy + z * z / (2 * n)
        spread = z * math.sqrt(accuracy * (1 - accuracy) / n + z * z / (4 * n * n))
        scale = 1 + z * z / n
        lo, hi = (middle - spread) / scale, (middle + spread) / scale
    return max(0.0, lo), min(1.0, hi)


def reference_judge(spec, outcomes) -> dict:
    """The final call and each competing kind's best, as `VerdictReport.to_dict` has them.

    A kind's best is its most accurate outcome; of those, the one with
    the fewest rules; of those, the lowest (w, pos). A verdict needs some
    best to reach `ac_th`. The bests are then visited one by one, by
    ascending accuracy when accuracy is preferred and by descending
    accuracy when simplicity is, the less simple kind first on equal
    accuracy. A challenger whose interval overlaps the winner's takes
    over when its kind is simpler and it has no more rules; one whose
    interval is disjoint takes over when it is more accurate.
    """
    best = {}
    for kind in SIMPLEST_FIRST:
        pool = [o for o in outcomes if str(o.actual_kind) == kind]
        if not pool:
            best[kind] = None
            continue
        top = max(_measured(o, spec.accuracy_mode)[0] for o in pool)
        pool = [o for o in pool if _measured(o, spec.accuracy_mode)[0] == top]
        fewest = min(o.rule_size for o in pool)
        chosen = min((o for o in pool if o.rule_size == fewest), key=lambda o: (o.w, o.pos))
        accuracy, n = _measured(chosen, spec.accuracy_mode)
        lo, hi = _interval(accuracy, n, spec.cl, spec.interval_method)
        best[kind] = {
            "w": chosen.w,
            "pos": chosen.pos,
            "accuracy": accuracy,
            "rule_size": chosen.rule_size,
            "interval": {"lo": lo, "hi": hi, "n": n},
        }

    shown = [(kind, b) for kind, b in best.items() if b is not None]
    if not any(b["accuracy"] >= spec.ac_th for _, b in shown):
        return {"best": best, "final": "no-verdict"}
    # less simple first, then a stable sort by accuracy keeps that among equals
    visits = sorted(shown, key=lambda kb: SIMPLEST_FIRST.index(kb[0]), reverse=True)
    visits.sort(key=lambda kb: kb[1]["accuracy"], reverse=spec.preference == "simpler_method")
    winner, held = visits[0]
    for kind, challenger in visits[1:]:
        a, b = challenger["interval"], held["interval"]
        if a["lo"] <= b["hi"] and b["lo"] <= a["hi"]:
            takes_over = (
                SIMPLEST_FIRST.index(kind) < SIMPLEST_FIRST.index(winner)
                and challenger["rule_size"] <= held["rule_size"]
            )
        else:
            takes_over = challenger["accuracy"] > held["accuracy"]
        if takes_over:
            winner, held = kind, challenger
    return {"best": best, "final": winner}
