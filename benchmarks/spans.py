"""Spans recorded from outside the program, around the calls into each layer.

`Tracer.install()` replaces the names the pipeline calls through
(`timerules.cli.load_csv`, `timerules.cli.run_timers` and the stage
functions imported into `timerules.verdict`) with timing wrappers, and
`Tracer.layer_metrics()` turns one `analyze` run's spans into the
per-layer metrics. Spans stay in memory until the run is summarised.
Process-pool workers would not report spans back, so a traced run must
use one worker.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from dataclasses import dataclass, field

# (module, function name, layer) for every wrapped call boundary
BOUNDARIES = (
    ("timerules.cli", "load_csv", "dataset"),
    ("timerules.cli", "run_timers", "verdict"),
    ("timerules.verdict", "as_discrete", "dataset"),
    ("timerules.verdict", "split_chronological", "dataset"),
    ("timerules.verdict", "temporalise", "temporalise"),
    ("timerules.verdict", "induce", "induction"),
    ("timerules.verdict", "evaluate", "induction"),
    ("timerules.verdict", "classify_rule_set", "semantics"),
    ("timerules.verdict", "compute_accuracy_interval", "verdict"),
    ("timerules.verdict", "select_relation", "verdict"),
)
SPANNED_LAYERS = ("cli", "dataset", "temporalise", "induction", "semantics", "verdict")


@dataclass
class Span:
    """One wrapped call; `info` holds the work counts read from its arguments and result."""

    name: str
    layer: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None  # index into Tracer.spans
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


def _describe(name: str, args: tuple, result: object) -> dict:
    """Work counts taken from a call's arguments and result, outside its span."""
    if name == "load_csv":
        return {"rows": result.n}
    if name == "temporalise":
        spec = args[0]
        return {
            "job": (spec.d, spec.w, spec.pos),
            "cells": result.n * result.field_count,
            "source_cells": args[1].n * args[1].m,
        }
    if name == "induce":
        tested = {(c.attribute, c.time) for rule in result.rules for c in rule.conditions}
        return {
            "records": args[0].n,
            "rules": result.size,
            "tested": len(tested),
            "columns": len(args[0].condition_columns),
        }
    if name == "evaluate":
        return {"records": args[1].n}
    if name == "run_timers":
        return {
            "reclassified": sum(o.declared_kind != o.actual_kind for o in result.outcomes)
        }
    return {}


class Tracer:
    """Records one span per wrapped call: name, layer, start, end and parent."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.errors: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.errors = Counter()

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Run fn inside a span; exceptions are counted against the layer and re-raised."""
        span = Span(name, layer, 0, 0, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.end = time.perf_counter_ns()
            self.errors[layer] += 1
            raise
        finally:
            self._stack.pop()
        span.end = time.perf_counter_ns()
        span.info = _describe(name, args, result)
        return result

    def install(self, boundaries=BOUNDARIES) -> None:
        """Wrap every boundary's function; `uninstall` puts the originals back."""
        for module_name, name, layer in boundaries:
            module = importlib.import_module(module_name)
            original = getattr(module, name)

            def wrapper(*args, _fn=original, _name=name, _layer=layer, **kwargs):
                return self.call(_name, _layer, _fn, *args, **kwargs)

            setattr(module, name, wrapper)
            self._restore.append((module, name, original))

    def uninstall(self) -> None:
        while self._restore:
            module, name, original = self._restore.pop()
            setattr(module, name, original)

    def _sum(self, name: str, key: str | None = None) -> float:
        spans = [s for s in self.spans if s.name == name]
        if key is None:
            return sum(s.seconds for s in spans)
        return sum(s.info.get(key, 0) for s in spans)

    def _count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def _child_seconds(self, parent_name: str) -> float:
        parents = {i for i, s in enumerate(self.spans) if s.name == parent_name}
        return sum(s.seconds for s in self.spans if s.parent in parents)

    def _jobs(self) -> list[float]:
        """Wall time of each (w, pos) job, grouped by the spec passed to temporalise.

        A job runs from its first temporalise call to the end of the last
        stage call before the next job (or the sweep's selection) starts.
        """
        bounds: dict[tuple, list[int]] = {}
        current = None
        for s in self.spans:
            if s.name == "temporalise":
                current = s.info.get("job", current)
            elif s.name not in ("induce", "evaluate", "classify_rule_set"):
                current = None
                continue
            if current is None:
                continue
            start, end = bounds.setdefault(current, [s.start, s.end])
            bounds[current] = [min(start, s.start), max(end, s.end)]
        return [(end - start) / 1e9 for start, end in bounds.values()]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        main = self._sum("main")
        run_timers = self._sum("run_timers")
        jobs = self._jobs()
        induce_s = self._sum("induce")
        evaluate_s = self._sum("evaluate")
        scored = self._sum("evaluate", "records")
        cells = self._sum("temporalise", "cells")
        # every attribute's train and test sets, counted once at its w=1 job
        source = sum(
            s.info["source_cells"]
            for s in self.spans
            if s.name == "temporalise" and s.info.get("job", ())[1:] == (1, 1)
        )
        columns = self._sum("induce", "columns")
        metrics = {
            "cli.self_s": main - self._sum("load_csv") - run_timers,
            "dataset.load_csv_s": self._sum("load_csv"),
            "dataset.rows_loaded": self._sum("load_csv", "rows"),
            "dataset.as_discrete_s": self._sum("as_discrete"),
            "dataset.split_s": self._sum("split_chronological"),
            "temporalise.calls": self._count("temporalise"),
            "temporalise.busy_s": self._sum("temporalise"),
            "temporalise.cells": cells,
            "temporalise.copy_factor": cells / source if source else 0.0,
            "temporalise.tested_column_ratio": (
                self._sum("induce", "tested") / columns if columns else 0.0
            ),
            "induction.induce_calls": self._count("induce"),
            "induction.induce_s": induce_s,
            "induction.train_records": self._sum("induce", "records"),
            "induction.rules": self._sum("induce", "rules"),
            "induction.evaluate_calls": self._count("evaluate"),
            "induction.evaluate_s": evaluate_s,
            "induction.scored_records": scored,
            "induction.scored_per_s": scored / evaluate_s if evaluate_s else 0.0,
            "semantics.classify_s": self._sum("classify_rule_set"),
            "semantics.reclassified": self._sum("run_timers", "reclassified"),
            "verdict.run_timers_s": run_timers,
            "verdict.jobs": len(jobs),
            "verdict.job_sum_s": sum(jobs),
            "verdict.job_max_s": max(jobs, default=0.0),
            "verdict.select_s": self._sum("select_relation")
            + self._sum("compute_accuracy_interval"),
            "trace.unaccounted_s": run_timers - self._child_seconds("run_timers"),
        }
        metrics.update({f"{layer}.errors": self.errors[layer] for layer in SPANNED_LAYERS})
        return metrics

