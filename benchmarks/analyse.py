"""The benchmark's child processes: set-up probes and the analysing process.

    python3 benchmarks/analyse.py setup --workload W --seed N --scale F --csv PATH
    python3 benchmarks/analyse.py measure --workload W --scale F --csv PATH \\
        --work-dir DIR --seconds S --plan MODE:WORKERS[,MODE:WORKERS...]

`setup` times `import timerules` in a fresh interpreter plus writing the
workload's CSV from its seed. `measure` imports `timerules` from this
checkout's `src/`, then calls `timerules.cli.main(["analyze", ...])` once
per plan step, in turn, repeating whole rounds of the plan for S seconds
(at least one round). Mode `plain` wraps nothing, `boundary` times only
the `run_timers` call, and `traced` installs every span wrapper of
`spans.py`; WORKERS sets TIMERULES_MAX_WORKERS. Alternating the steps
within one process keeps slow drifts of the machine out of their
differences. `setup` and `plain` runs also sample the machine's speed
with `speed.SpeedProbe` and report their time at its reference speed
(`ref_s`) beside the raw wall time. After each timed call, outside the
timed region, it reads the printed verdicts and the written reports. Each
subcommand prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

from speed import SpeedProbe
from workloads import WORKLOADS, expected_counters

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ANALYZE_PROBE_INTERVAL_S = 0.02
SETUP_PROBE_INTERVAL_S = 0.01


def import_timerules():
    """Import `timerules` from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import timerules

    if Path(timerules.__file__).resolve().parent != SRC / "timerules":
        raise ImportError(f"timerules was imported from {timerules.__file__}, not {SRC}")
    return timerules


def cmd_setup(args: argparse.Namespace) -> dict:
    with SpeedProbe(SETUP_PROBE_INTERVAL_S) as speed:
        start = time.perf_counter()
        import_timerules()
        imported = time.perf_counter()
        workload = WORKLOADS[args.workload].scaled(args.scale)
        try:
            workload.generate(args.seed, Path(args.csv))
        except Exception as exc:  # reported to the orchestrator as a worlds error
            return {"error": f"{type(exc).__name__}: {exc}"}
        done = time.perf_counter()
    return {
        "import_s": imported - start,
        "generate_s": done - imported,
        "ref_s": speed.corrected(done - start),
        "speed": speed.speed,
        "csv_sha256": hashlib.sha256(Path(args.csv).read_bytes()).hexdigest(),
    }


def _verdict_lines(stdout: str) -> list[str]:
    return [
        line
        for line in stdout.splitlines()
        if line == "No verdict" or line.startswith("for attribute ")
    ]


def read_outputs(workload, out_base: Path, stdout: str) -> dict:
    """Fingerprint and exact counters of one run, read from what it printed and wrote."""
    reports, raw = {}, {}
    for d, path in workload.report_paths(out_base).items():
        raw[d] = path.read_bytes()
        reports[d] = json.loads(raw[d])
    fingerprint = {
        "verdicts": _verdict_lines(stdout),
        "rule_sizes": {
            d: [o["rule_size"] for o in report["outcomes"]] for d, report in reports.items()
        },
        "reports_sha256": {d: hashlib.sha256(b).hexdigest() for d, b in raw.items()},
    }
    return {"fingerprint": fingerprint, "counters": expected_counters(workload, reports)}


def cmd_measure(args: argparse.Namespace) -> dict:
    import_timerules()
    import timerules.cli

    from spans import BOUNDARIES, Tracer

    workload = WORKLOADS[args.workload].scaled(args.scale)
    work = Path(args.work_dir)
    out_base = work / "report"
    argv = workload.argv(Path(args.csv), out_base)

    plan = [step.split(":") for step in args.plan.split(",")]
    tracer = Tracer()
    reps, last_spans = [], []
    began = time.perf_counter()
    while len(reps) % len(plan) or not reps or time.perf_counter() - began < args.seconds:
        mode, workers = plan[len(reps) % len(plan)]
        os.environ["TIMERULES_MAX_WORKERS"] = workers
        tracer.uninstall()
        if mode == "traced":
            tracer.install()
        elif mode == "boundary":
            tracer.install([b for b in BOUNDARIES if b[1] == "run_timers"])
        for path in workload.report_paths(out_base).values():
            path.unlink(missing_ok=True)
        tracer.reset()
        captured = io.StringIO()
        rep: dict = {"mode": mode, "workers": int(workers)}
        speed = SpeedProbe(ANALYZE_PROBE_INTERVAL_S)
        with speed if mode == "plain" else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(captured):
                    if mode == "traced":
                        rep["rc"] = tracer.call("main", "cli", timerules.cli.main, argv)
                    else:
                        rep["rc"] = timerules.cli.main(argv)
            except Exception as exc:  # a failed run is counted, never fatal
                rep["error"] = f"{type(exc).__name__}: {exc}"
            rep["wall_s"] = time.perf_counter() - start
        if mode == "plain":
            rep.update(
                net_s=speed.net(rep["wall_s"]),
                ref_s=speed.corrected(rep["wall_s"]),
                speed=speed.speed,
            )
        if "error" not in rep and rep["rc"] == 0:
            try:
                rep.update(read_outputs(workload, out_base, captured.getvalue()))
            except (OSError, ValueError, KeyError) as exc:
                rep["error"] = f"reading the reports failed: {type(exc).__name__}: {exc}"
        if mode == "traced":
            rep["layers"] = tracer.layer_metrics()
            last_spans = tracer.spans
        elif mode == "boundary":
            rep["run_timers_s"] = sum(s.seconds for s in tracer.spans)
        reps.append(rep)
    tracer.uninstall()

    if args.spans_out and last_spans:
        with open(args.spans_out, "w", encoding="utf-8") as handle:
            json.dump([asdict(s) for s in last_spans], handle)
    usage_self = resource.getrusage(resource.RUSAGE_SELF)
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "reps": reps,
        "maxrss_kb": usage_self.ru_maxrss,
        "children_maxrss_kb": usage_children.ru_maxrss,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--seed", type=int, required=True)
    measure = sub.add_parser("measure")
    measure.add_argument("--work-dir", required=True)
    measure.add_argument("--seconds", type=float, required=True)
    measure.add_argument(
        "--plan", required=True, help="comma-separated MODE:WORKERS steps, run in turn"
    )
    measure.add_argument("--spans-out")
    for p in (setup, measure):
        p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
        p.add_argument("--scale", type=float, default=1.0)
        p.add_argument("--csv", required=True)
    args = parser.parse_args()
    result = cmd_setup(args) if args.command == "setup" else cmd_measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
