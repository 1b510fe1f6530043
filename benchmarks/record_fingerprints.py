"""Record the reference fingerprint of every workload for a range of seeds.

    python3 benchmarks/record_fingerprints.py --seeds 0-39

Each fingerprint (verdict lines, per-outcome rule sizes, SHA-256 of each
JSON report) comes from one 1-worker `analyze` run of the full-size
workload and is written to `benchmarks/fingerprints.json`, which the
benchmark compares every run against. Re-record only when a change is
meant to alter the reports, and say so in that change.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import analyse
from workloads import WORKLOADS

TABLE = Path(__file__).resolve().parent / "fingerprints.json"


def fingerprint(workload, seed: int, work: Path) -> dict:
    import timerules.cli

    csv_path, out_base = work / "input.csv", work / "report"
    workload.generate(seed, csv_path)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = timerules.cli.main(workload.argv(csv_path, out_base))
    if code != 0:
        raise SystemExit(f"{workload.name} seed {seed}: analyze exited {code}")
    result = analyse.read_outputs(workload, out_base, captured.getvalue())["fingerprint"]
    if result["verdicts"] != workload.expected_verdicts():
        raise SystemExit(f"{workload.name} seed {seed}: wrong verdicts {result['verdicts']}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-39", help="inclusive range FIRST-LAST")
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    analyse.import_timerules()
    os.environ["TIMERULES_MAX_WORKERS"] = "1"
    table = json.loads(TABLE.read_text(encoding="utf-8")) if TABLE.exists() else {}
    with tempfile.TemporaryDirectory(dir=TABLE.parent) as tmp:
        for name, workload in WORKLOADS.items():
            for seed in range(first, last + 1):
                table.setdefault(name, {})[str(seed)] = fingerprint(workload, seed, Path(tmp))
                print(f"{name} seed {seed}: ok", flush=True)
    TABLE.write_text(_dump(table), encoding="utf-8")
    return 0


def _dump(table: dict) -> str:
    """JSON with one line per (workload, seed) fingerprint."""
    blocks = []
    for name in sorted(table):
        lines = [
            f'  "{seed}": {json.dumps(table[name][seed], sort_keys=True)}'
            for seed in sorted(table[name], key=int)
        ]
        blocks.append(f' "{name}": {{\n' + ",\n".join(lines) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    raise SystemExit(main())
