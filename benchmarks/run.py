"""Benchmark for `timerules analyze`: verdict-checked workloads with per-layer spans.

    python3 benchmarks/run.py --workload robot-csv --seed 1 --seconds 30 --trace 0

Run from anywhere; the package under test is always this checkout's
`src/timerules`, and the benchmark fails (exit code 2, no result) when
that is missing. Workloads are defined in `workloads.py`.

`--trace 0` measures the end-to-end metrics with nothing wrapped. Times
are in seconds at a fixed reference speed of the machine: each timed call
samples the machine's momentary speed with a probe loop of the
benchmark's own (`speed.py`), and its wall time is scaled by it, because
the host's load swings raw wall times of whole runs by up to half.
The raw wall medians are printed beside them.

- analyze_s: median time of one `main(["analyze", ...])` call, load to
  reports written, over the calls made in `--seconds`;
- window_records_per_s: the temporalised records of one call (train plus
  test `n - w + 1` over every (w, pos) job and analysed attribute) divided
  by analyze_s;
- setup_s: median, over SETUP_REPS fresh interpreters, of the time to
  import `timerules` and write the workload's CSV from its seed;
- peak_rss_mb: peak RSS of the analysing process plus, for a pooled
  workload, the worker count times its largest worker's peak RSS.

`--trace 1` measures the per-layer metrics. One process runs, in turn, an
untraced `analyze` at the workload's worker count (only the `run_timers`
call is timed), an untraced 1-worker one when the workload uses more
workers, and a traced 1-worker one (span wrappers from `spans.py`).

Every run is checked: exit code 0, the world's known verdict for every
analysed attribute, a fingerprint (verdict lines, per-outcome rule sizes,
SHA-256 of each JSON report) equal to the one recorded in
`fingerprints.json` for this seed (or, for an unrecorded seed or a
scaled-down workload, to the first run's), and exact work counters equal
to those computed from the workload's shape. A pooled workload's report
must also be byte-identical to a 1-worker run of the same CSV. Failures
are counted, never skipped. Human-readable lines come first; the last
stdout line is the JSON result. Details and the last traced run's spans
go to `benchmarks/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, sweep_work

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 11
DEADLINE_S = 170.0

END_TO_END = {
    "analyze_s": "s",
    "window_records_per_s": "records/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.self_s": "s",
    "cli.errors": "count",
    "dataset.load_csv_s": "s",
    "dataset.rows_loaded": "count",
    "dataset.as_discrete_s": "s",
    "dataset.split_s": "s",
    "dataset.errors": "count",
    "temporalise.calls": "count",
    "temporalise.busy_s": "s",
    "temporalise.cells": "count",
    "temporalise.copy_factor": "ratio",
    "temporalise.tested_column_ratio": "ratio",
    "temporalise.errors": "count",
    "induction.induce_calls": "count",
    "induction.induce_s": "s",
    "induction.train_records": "count",
    "induction.rules": "count",
    "induction.evaluate_calls": "count",
    "induction.evaluate_s": "s",
    "induction.scored_records": "count",
    "induction.scored_per_s": "records/s",
    "induction.errors": "count",
    "semantics.classify_s": "s",
    "semantics.reclassified": "count",
    "semantics.errors": "count",
    "verdict.run_timers_s": "s",
    "verdict.jobs": "count",
    "verdict.job_sum_s": "s",
    "verdict.job_max_s": "s",
    "verdict.select_s": "s",
    "verdict.pool_overhead_s": "s",
    "verdict.errors": "count",
    "worlds.generate_s": "s",
    "worlds.errors": "count",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}
EXACT_COUNTERS = (
    "temporalise.cells",
    "induction.rules",
    "induction.scored_records",
    "semantics.reclassified",
    "verdict.jobs",
)


def run_child(deadline: float, *args: str) -> dict:
    """Run analyse.py with args; its last stdout line is its JSON result.

    A child still running at the deadline (time.monotonic) is killed with
    its whole process group, pool workers included, and reported as failed.
    """
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "analyse.py"), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"{args[0]} child timed out"}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{args[0]} child exited {proc.returncode}: {err.strip()[-400:]}"}
    return json.loads(lines[-1])


def machine_record(workers: dict) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu_model,
        "workers": workers,
        "note": "Only the benchmark's own processes were traced or measured; "
        "no system, kernel or scheduler setting was changed or tuned.",
    }


def median(values: list) -> float:
    """The median; a middle element of the values themselves for exact counts."""
    if not values:
        return 0.0
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


class Checker:
    """Checks every run against the known answer and counts the failed ones."""

    def __init__(self, workload, recorded: dict | None):
        self.workload = workload
        self.reference = recorded
        self.counters: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures += [f"{label}: {problem}" for problem in problems]

    def check(self, label: str, rep: dict) -> bool:
        problems = self.problems(rep)
        if problems:
            self.fail(label, problems)
        else:
            self.attempted += 1
        return not problems

    def problems(self, rep: dict) -> list[str]:
        if "error" in rep:
            return [rep["error"]]
        if rep.get("rc") != 0:
            return [f"exit code {rep.get('rc')}"]
        problems = []
        fingerprint = rep["fingerprint"]
        expected = self.workload.expected_verdicts()
        if fingerprint["verdicts"] != expected:
            problems.append(f"verdicts {fingerprint['verdicts']} != {expected}")
        if self.reference is None:
            self.reference = fingerprint
        elif fingerprint != self.reference:
            differing = [k for k in fingerprint if fingerprint[k] != self.reference.get(k)]
            problems.append(f"fingerprint differs from the reference in {', '.join(differing)}")
        if self.counters is None:
            self.counters = rep["counters"]
        elif rep["counters"] != self.counters:
            problems.append(f"counters {rep['counters']} != {self.counters}")
        if "layers" in rep:
            traced = {k: rep["layers"][k] for k in EXACT_COUNTERS}
            if traced != rep["counters"]:
                problems.append(f"traced counters {traced} != untraced {rep['counters']}")
        return problems

    def check_phase(self, label: str, phase: dict) -> None:
        """Check every run of one measuring child.

        Every run of every phase is compared with the same reference
        fingerprint, so a pooled run and a 1-worker run of the same CSV
        pass together only if their reports are byte-identical.
        """
        if "error" in phase:
            self.fail(label, [phase["error"]])
            return
        for i, rep in enumerate(phase["reps"]):
            self.check(f"{label}#{i}", rep)


def run_benchmark(args: argparse.Namespace) -> tuple[dict, dict, Checker]:
    workload = WORKLOADS[args.workload].scaled(args.scale)
    recorded = None
    if args.scale == 1.0:
        table = json.loads((HERE / "fingerprints.json").read_text(encoding="utf-8"))
        recorded = table.get(workload.name, {}).get(str(args.seed))
    checker = Checker(workload, recorded)
    work = HERE / ".work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        metrics, info = _measure(args, workload, time.monotonic() + DEADLINE_S, checker, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return metrics, info, checker


def _measure(args, workload, deadline: float, checker: Checker, work: Path) -> tuple[dict, dict]:
    csv_path = work / "input.csv"
    common = ["--workload", workload.name, "--scale", str(args.scale), "--csv", str(csv_path)]

    setups = [
        run_child(deadline, "setup", "--seed", str(args.seed), *common)
        for _ in range(SETUP_REPS)
    ]
    good_setups = [s for s in setups if "error" not in s]
    for i, s in enumerate(setups):
        if "error" in s:
            checker.fail(f"setup#{i}", [s["error"]])
    if len({s["csv_sha256"] for s in good_setups}) > 1:
        checker.fail("setup", ["the same seed gave different CSV bytes"])
    if not good_setups:
        return {}, {"setup": setups}

    def measure(plan: str, seconds: float, spans: Path | None = None) -> dict:
        extra = ["--spans-out", str(spans)] if spans else []
        return run_child(
            deadline, "measure", *common, "--work-dir", str(work), "--seconds", str(seconds),
            "--plan", plan, *extra,
        )

    workers = workload.workers
    pooled = workers > 1
    info: dict = {
        "machine": machine_record(
            {"timed": workers, "traced": 1, "independence_check": 1 if pooled else None}
        ),
        "setup": setups,
    }

    if args.trace == 0:
        timed = measure(f"plain:{workers}", args.seconds)
        checker.check_phase("timed", timed)
        if pooled:  # worker independence, outside the timed runs
            checker.check_phase("1-worker", measure("plain:1", 0))
        walls = [rep["ref_s"] for rep in timed.get("reps", []) if "ref_s" in rep]
        analyze_s = median(walls)
        rss_kb = timed.get("maxrss_kb", 0)
        if pooled:  # forked workers share pages, so this is an upper bound
            rss_kb += workers * timed.get("children_maxrss_kb", 0)
        window_records = sweep_work(workload)[1] * len(workload.decisions)
        info["analyze_s_samples"] = walls
        info["analyze_wall_s"] = median([rep["wall_s"] for rep in timed.get("reps", [])])
        info["speed"] = median([rep["speed"] for rep in timed.get("reps", []) if "speed" in rep])
        return {
            "analyze_s": analyze_s,
            "window_records_per_s": window_records / analyze_s if analyze_s else 0.0,
            "setup_s": median([s["ref_s"] for s in good_setups]),
            "peak_rss_mb": rss_kb / 1024,
        }, info

    # Untraced at the workload's worker count (timing only the run_timers
    # call), untraced at 1 worker for a pooled workload (the traced run's
    # baseline and the worker-independence check), and traced at 1 worker.
    plan = [f"boundary:{workers}"] + (["plain:1"] if pooled else []) + ["traced:1"]
    spans_path = HERE / "results" / f"{workload.name}-seed{args.seed}-spans.json"
    spans_path.parent.mkdir(exist_ok=True)
    rotation = measure(",".join(plan), args.seconds, spans_path)
    checker.check_phase("rotation", rotation)
    reps = rotation.get("reps", [])
    untraced = [r for r in reps if r["mode"] == "boundary"]
    single = [r for r in reps if r["mode"] == ("plain" if pooled else "boundary")]
    traced = [r for r in reps if r["mode"] == "traced"]

    layers = [rep["layers"] for rep in traced]
    metrics = {name: median([layer[name] for layer in layers]) for name in layers[0]} if layers else {}
    busiest = max(
        metrics.get("verdict.job_sum_s", 0.0) / workers, metrics.get("verdict.job_max_s", 0.0)
    )
    metrics["verdict.pool_overhead_s"] = median([r["run_timers_s"] for r in untraced]) - busiest
    metrics["trace.overhead_s"] = median([r["wall_s"] for r in traced]) - median(
        [r.get("net_s", r["wall_s"]) for r in single]
    )
    metrics["worlds.generate_s"] = median([s["generate_s"] for s in good_setups])
    metrics["worlds.errors"] = len(setups) - len(good_setups)
    info["analyze_s_samples"] = {
        f"{mode}:{n}": [r["wall_s"] for r in reps if (r["mode"], str(r["workers"])) == (mode, n)]
        for mode, n in (step.split(":") for step in plan)
    }
    return metrics, info


def report(args, metrics: dict, info: dict, checker: Checker) -> dict:
    """Print the human-readable lines and return the result object."""
    units = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in units if name not in metrics]
    if missing:
        checker.fail("metrics", [f"not measured: {', '.join(missing)}"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  scale {args.scale}")
    print("machine " + json.dumps(info.get("machine")))
    for name, unit in units.items():
        value = metrics.get(name)
        text = "-" if value is None else f"{value:.6g}"
        note = ""
        if name == "analyze_s":
            n = len(info["analyze_s_samples"])
            note = f"  (median of {n} runs; a tail percentile needs 10 samples beyond it)"
        print(f"  {name:34s} {text:>14s} {unit}{note}")
    if not args.trace and "analyze_wall_s" in info:
        print(f"  {'analyze_wall_s':34s} {info['analyze_wall_s']:>14.6g} s  (raw wall median)")
        print(f"  {'machine_speed':34s} {info['speed']:>14.6g} ratio  (median; 1 = reference)")
    ratio = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"  {'fail_ratio':34s} {ratio:>14.6g} ratio  ({checker.failed} of {checker.attempted} runs)")
    for failure in checker.failures:
        print(f"  FAILED {failure}")
    return {
        "correct": checker.failed == 0 and not missing,
        "attempted": max(1, checker.attempted),
        "failed": checker.failed if checker.attempted else 1,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="shrink the workload (smoke test only)"
    )
    args = parser.parse_args()
    if not (ROOT / "src" / "timerules" / "__init__.py").is_file():
        print(f"benchmark: no timerules package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    metrics, info, checker = run_benchmark(args)
    result = report(args, metrics, info, checker)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    detail = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(
        json.dumps({"args": vars(args), "result": result, "failures": checker.failures, **info},
                   indent=1) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
