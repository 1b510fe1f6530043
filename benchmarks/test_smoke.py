"""Smoke test of the benchmark itself, on a seed held out from fingerprints.json.

    python3 -m pytest -q benchmarks/test_smoke.py

Runs every workload at a reduced size, untraced and traced, and checks
that the verdicts hold and that every metric named in BENCHMARK.json is
printed with its unit. Also checks that a wrong verdict or fingerprint is
counted as a failure and that the benchmark refuses to run without the
package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HELD_OUT_SEED = 1001
SCALE = "0.15"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reduced_run_prints_every_metric_and_keeps_the_verdict(workload, trace):
    proc = _bench(
        "--workload", workload, "--seed", str(HELD_OUT_SEED), "--seconds", "1",
        "--trace", trace, "--scale", SCALE,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1

    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    human = "\n".join(lines[:-1])
    for metric in declared:
        assert f" {metric['name']} " in human and f" {metric['unit']}" in human
    assert "fail_ratio" in human and "FAILED" not in human


def test_declared_metrics_match_the_code():
    assert [m["name"] for m in DECLARED["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in DECLARED["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


def _passing_rep(workload) -> dict:
    return {
        "rc": 0,
        "wall_s": 1.0,
        "fingerprint": {
            "verdicts": workload.expected_verdicts(),
            "rule_sizes": {d: [8, 8] for d in workload.decisions},
            "reports_sha256": {d: "0" * 64 for d in workload.decisions},
        },
        "counters": {name: 1 for name in run.EXACT_COUNTERS},
    }


def test_wrong_verdict_or_fingerprint_counts_as_a_failure():
    workload = WORKLOADS["robot-csv"]
    good = _passing_rep(workload)
    checker = run.Checker(workload, recorded=good["fingerprint"])
    assert checker.check("good", good)

    wrong_verdict = json.loads(json.dumps(good))
    wrong_verdict["fingerprint"]["verdicts"] = ["for attribute x, the relation is acausal"]
    wrong_report = json.loads(json.dumps(good))
    wrong_report["fingerprint"]["reports_sha256"]["x"] = "1" * 64
    wrong_count = json.loads(json.dumps(good))
    wrong_count["layers"] = dict(good["counters"], **{"induction.rules": 2})
    crashed = {"error": "RuntimeError: boom", "wall_s": 0.1}
    for label, rep in [
        ("verdict", wrong_verdict),
        ("report", wrong_report),
        ("traced counters", wrong_count),
        ("crash", crashed),
        ("exit code", dict(good, rc=3)),
    ]:
        assert not checker.check(label, rep), label
    assert (checker.attempted, checker.failed) == (6, 5)


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns(
        "results", ".work", "__pycache__"))
    proc = _bench(
        "--workload", "robot-csv", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_counts_an_escaping_exception_against_its_layer():
    from spans import Tracer

    def broken():
        raise RuntimeError("boom")

    tracer = Tracer()
    with pytest.raises(RuntimeError):
        tracer.call("induce", "induction", broken)
    assert tracer.errors["induction"] == 1
    assert tracer.layer_metrics()["induction.errors"] == 1


def test_speed_probe_samples_inside_the_call_and_restores_the_alarm_handler():
    import signal
    import time

    from speed import REFERENCE_PROBE_S, SpeedProbe

    previous = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(interval_s=0.005) as speed:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.1:
            pass
        wall_s = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(speed.samples) >= 4  # one on entry, one on exit, the rest inside
    assert 0 < speed.inside_s < wall_s
    mean = sum(speed.samples) / len(speed.samples)
    expected = (wall_s - speed.inside_s) * REFERENCE_PROBE_S / mean
    assert speed.corrected(wall_s) == pytest.approx(expected)
