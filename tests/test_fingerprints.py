"""Report bytes of every benchmark workload at seeds 0-2 against its fingerprint.

Each workload of `benchmarks/workloads.py` is generated for each seed and
analysed through `timerules.cli.main` with one worker. The SHA-256 of
every JSON report must equal the one recorded in
`benchmarks/fingerprints.json`, which is only read here: a change that
alters any report byte fails this test before the benchmark runs; more
than one seed catches a change of summation order that one input hides.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from timerules.cli import main

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
SEEDS = (0, 1, 2)


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", BENCHMARKS / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve names through it
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()
RECORDED = json.loads((BENCHMARKS / "fingerprints.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reports_match_recorded_fingerprint(name, seed, tmp_path, monkeypatch):
    workload = WORKLOADS[name]
    csv_path, out_base = tmp_path / "input.csv", tmp_path / "report"
    workload.generate(seed, csv_path)
    monkeypatch.setenv("TIMERULES_MAX_WORKERS", "1")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(workload.argv(csv_path, out_base)) == 0
    digests = {
        d: hashlib.sha256(path.read_bytes()).hexdigest()
        for d, path in workload.report_paths(out_base).items()
    }
    assert digests == RECORDED[name][str(seed)]["reports_sha256"]
