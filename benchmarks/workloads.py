"""The benchmark's workloads: seeded input generators, CLI arguments and answers.

Each workload is a world with a known answer. The generator writes one CSV
from the seed; the program under test only ever sees that file through
`timerules.cli.main(["analyze", ...])`. `scale` shrinks a workload for the
smoke test (row and test counts are scaled together, windows are not).

This module imports nothing from `timerules` at import time, so the
orchestrating process stays free of the package under test.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, replace
from pathlib import Path

NOISE_SYMBOLS = ("p", "q", "r", "s")
NOISE_COLUMNS = ("u", "v", "c")
PERIOD = 8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rows: int
    test_count: int
    columns: tuple[str, ...]
    decisions: tuple[str, ...]  # the attributes analysed, in report order
    expected: str  # verdict line printed for every analysed attribute
    workers: int  # TIMERULES_MAX_WORKERS for the timed runs
    options: tuple[str, ...]  # analyze flags besides --data/--test-count/--out
    min_window: int = 2
    max_window: int = 5

    def scaled(self, scale: float) -> "Workload":
        return replace(
            self,
            rows=max(200, int(self.rows * scale)),
            test_count=max(40, int(self.test_count * scale)),
        )

    def argv(self, csv_path: Path, out_base: Path) -> list[str]:
        return [
            "analyze",
            "--data", str(csv_path),
            *self.options,
            "--test-count", str(self.test_count),
            "--out", str(out_base),
        ]

    def report_paths(self, out_base: Path) -> dict[str, Path]:
        """The JSON report `analyze --out` writes for each analysed attribute."""
        if len(self.decisions) == 1:
            return {self.decisions[0]: Path(f"{out_base}.json")}
        return {d: Path(f"{out_base}.{d}.json") for d in self.decisions}

    def expected_verdicts(self) -> list[str]:
        return [self.expected.format(d=d) for d in self.decisions]

    def generate(self, seed: int, path: Path) -> None:
        """Write this workload's CSV for `seed`; the same seed gives the same bytes."""
        GENERATORS[self.name](self, seed, path)


def _robot_csv(workload: Workload, seed: int, path: Path) -> None:
    from timerules.worlds import RobotWorldConfig, generate_robot_walk

    generate_robot_walk(RobotWorldConfig(steps=workload.rows, seed=seed)).to_csv(path)


def _noise_csv(workload: Workload, seed: int, path: Path) -> None:
    rng = random.Random(seed)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(workload.columns)
        for _ in range(workload.rows):
            writer.writerow([rng.choice(NOISE_SYMBOLS) for _ in workload.columns])


def _periodic_csv(workload: Workload, seed: int, path: Path) -> None:
    from timerules.worlds import generate_periodic

    # The seed relabels the cycle's symbols and shifts its phase; the
    # structure (each value fixed by its neighbour on either side) stays.
    rng = random.Random(seed)
    relabel = [str(v) for v in range(PERIOD)]
    rng.shuffle(relabel)
    shift = rng.randrange(PERIOD)
    cycle = generate_periodic(PERIOD, workload.rows + shift)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(cycle.attribute_names)
        for (value,) in cycle.records[shift:]:
            writer.writerow([relabel[int(value)]])


GENERATORS = {
    "robot-csv": _robot_csv,
    "noise-2w": _noise_csv,
    "periodic-long": _periodic_csv,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="robot-csv",
            why="the paper's headline robot walk via CSV: numeric x/y make induce's "
            "threshold search dominate; 1 worker, so the process pool is bypassed",
            rows=8000,
            test_count=1600,
            columns=("x", "y", "a"),
            decisions=("x",),
            expected="for attribute {d}, the relation is p-causal",
            workers=1,
            options=(
                "--decision", "x", "--min-window", "2", "--max-window", "5",
                "--threshold", "0.6", "--confidence", "0.9",
            ),
        ),
        Workload(
            name="noise-2w",
            why="uniform discrete noise, all three attributes: deep multiway trees, "
            "the 2-worker process pool and three report writes; no numeric path",
            rows=3000,
            test_count=600,
            columns=NOISE_COLUMNS,
            decisions=NOISE_COLUMNS,
            expected="No verdict",
            workers=2,
            options=("--all-attributes", "--threshold", "0.6"),
        ),
        Workload(
            name="periodic-long",
            why="a 40000-step period-8 cycle: 8-rule trees, so temporalise and "
            "evaluate dominate over induce, with the largest file load",
            rows=40000,
            test_count=8000,
            columns=("x",),
            decisions=("x",),
            expected="for attribute {d}, the relation is acausal",
            workers=1,
            options=("--decision", "x", "--threshold", "0.6"),
        ),
    )
}


def window_sizes(workload: Workload) -> list[int]:
    """Window size of every (w, pos) job of one sweep, in job order."""
    sizes = [1]
    for w in range(workload.min_window, workload.max_window + 1):
        sizes += [w] * w
    return sizes


def sweep_work(workload: Workload) -> tuple[int, int]:
    """(cells, records) that temporalising one attribute's sweep materialises.

    Summed over every (w, pos) job and over its train and test sets; the
    records are the `n - w + 1` windows of each set.
    """
    m = len(workload.columns)
    cells = records = 0
    for w in window_sizes(workload):
        fields = m if w == 1 else (w - 1) * m + 1
        for n in (workload.rows - workload.test_count, workload.test_count):
            if n >= w:
                cells += (n - w + 1) * fields
                records += n - w + 1
    return cells, records


def expected_counters(workload: Workload, reports: dict[str, dict]) -> dict[str, int]:
    """Exact work counts of one `analyze` run, worked out without tracing.

    The sizes follow from the workload's shape alone (rows, test count,
    columns, window range); rule sizes and kinds come from the written
    reports. A traced run must count exactly the same numbers.
    """
    cells, records = sweep_work(workload)
    outcomes = [o for report in reports.values() for o in report["outcomes"]]
    return {
        "temporalise.cells": cells * len(reports),
        "induction.scored_records": records * len(reports),
        "induction.rules": sum(o["rule_size"] for o in outcomes),
        "semantics.reclassified": sum(o["declared"] != o["actual"] for o in outcomes),
        "verdict.jobs": len(outcomes),
    }
