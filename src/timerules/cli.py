"""Command-line front end: analyze datasets, generate worlds, dump windows.

Exit codes: 0 when a run completes (any verdict, including no-verdict),
2 for usage errors, 3 for data errors. A usage error is a flag value the
command's own checks reject before any work starts; a ValueError raised
later is a fault and propagates. The TIMERULES_MAX_WORKERS environment
variable caps how many workers the sweep may fan out to; the sweep never
uses more workers than it has jobs or CPUs this process may run on.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path
from typing import get_args

from .dataset import DataError, EventSequence, HeaderMode, load_csv, read_text
from .temporalise import TemporalisationSpec, temporalise
from .verdict import ACCURACY_MODES, INTERVAL_METHODS, PREFERENCES, RunSpec, run_timers
from .worlds import RobotWorldConfig, generate_periodic, generate_robot_walk

USAGE_ERROR = 2
DATA_ERROR = 3

# the config keys of each generator kind, which are also its flag names
_GENERATOR_KEYS = {
    "robot": tuple(field.name for field in fields(RobotWorldConfig)),
    "periodic": ("period", "steps"),
}


class UsageError(Exception):
    """A command-line value that failed validation."""


@contextmanager
def _checking_arguments():
    """Report a ValueError raised while checking flag values as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def worker_count(raw: str | None, cpus: int | None) -> tuple[int, str | None]:
    """Workers a sweep may use, and a warning for an invalid cap.

    `raw` is the TIMERULES_MAX_WORKERS value (None when unset). The
    count is clamped to `min(cap, cpus)`; a cap that is not an integer
    of at least 1 falls back to one worker with a warning. `run_timers`
    clamps it further to the sweep's job count.
    """
    if raw is None:
        return 1, None
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        return 1, f"ignoring TIMERULES_MAX_WORKERS={raw!r}: expected an integer >= 1"
    return min(cap, cpus or 1), None


def _usable_cpus() -> int | None:
    """CPUs this process may run on: its affinity mask where the platform
    has one (a `taskset` or cpuset narrows it), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def _add_analyze(subparsers) -> None:
    p = subparsers.add_parser("analyze", help="run the full sweep and print a verdict")
    p.add_argument("--data", required=True, help="CSV file to analyse")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--decision", "-d", help="decision attribute name")
    group.add_argument(
        "--all-attributes",
        action="store_true",
        help="run the analysis once per attribute",
    )
    defaults = {field.name: field.default for field in fields(RunSpec)}
    p.add_argument("--min-window", type=int, default=defaults["alpha"], metavar="A")
    p.add_argument("--max-window", type=int, default=defaults["beta"], metavar="B")
    p.add_argument("--threshold", type=float, default=defaults["ac_th"], help="minimum accuracy")
    p.add_argument("--confidence", type=float, default=defaults["cl"], help="interval level")
    p.add_argument(
        "--test-count",
        type=int,
        default=None,
        help="held-out tail size (default: one fifth of the records)",
    )
    # RunSpec spells a preference with "_", the flag with "-"
    p.add_argument(
        "--preference",
        choices=[name.replace("_", "-") for name in PREFERENCES],
        default=defaults["preference"].replace("_", "-"),
    )
    p.add_argument(
        "--accuracy-mode", choices=ACCURACY_MODES, default=defaults["accuracy_mode"]
    )
    p.add_argument(
        "--interval-method", choices=INTERVAL_METHODS, default=defaults["interval_method"]
    )
    p.add_argument(
        "--header-mode", choices=get_args(HeaderMode), default="first-row-names"
    )
    p.add_argument(
        "--out",
        help="also write <out>.txt and <out>.json report files",
    )


def _add_generate(subparsers) -> None:
    p = subparsers.add_parser("generate", help="write a synthetic CSV plus manifest")
    kinds = p.add_subparsers(dest="kind", required=True)

    robot = kinds.add_parser("robot", help="bounded-board random walk")
    for field in fields(RobotWorldConfig):
        robot.add_argument(f"--{field.name}", type=int, default=field.default)
    robot.add_argument("--out", required=True, help="CSV output path")

    periodic = kinds.add_parser("periodic", help="cycling single-attribute series")
    periodic.add_argument("--period", type=int, default=8)
    periodic.add_argument("--steps", type=int, default=400)
    periodic.add_argument("--out", required=True, help="CSV output path")

    manifest = kinds.add_parser(
        "from-manifest", help="regenerate a dataset from its manifest"
    )
    manifest.add_argument("manifest", help="manifest JSON written by a previous run")
    manifest.add_argument("--out", help="override the CSV output path")


def _add_dump(subparsers) -> None:
    p = subparsers.add_parser(
        "temporalise-dump", help="write one temporalised dataset as CSV"
    )
    p.add_argument("--data", required=True)
    p.add_argument("--decision", "-d", required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--position", type=int, required=True)
    p.add_argument(
        "--header-mode", choices=get_args(HeaderMode), default="first-row-names"
    )
    p.add_argument("--out", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timerules",
        description="Temporal decision rules and causality verdicts over record sequences.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_analyze(subparsers)
    _add_generate(subparsers)
    _add_dump(subparsers)
    return parser


def _generate(kind: str, config: dict) -> EventSequence:
    if kind == "robot":
        return generate_robot_walk(RobotWorldConfig(**config))
    return generate_periodic(**config)


def _write_generated(kind: str, config: dict, data: EventSequence, out: Path) -> None:
    data.to_csv(out)
    manifest = {"kind": kind, "config": config, "csv": out.name, "rows": data.n}
    with open(out.with_suffix(".manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")
    print(f"wrote {data.n} records to {out}")


def _read_manifest(path: str) -> dict:
    """The manifest at `path`, checked to have the shape `_write_generated` writes."""
    try:
        manifest = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not a JSON manifest: {exc}") from exc
    if not (
        isinstance(manifest, dict)
        and isinstance(manifest.get("kind"), str)
        and manifest["kind"] in _GENERATOR_KEYS
        and isinstance(manifest.get("config"), dict)
        and set(manifest["config"]) == set(_GENERATOR_KEYS[manifest["kind"]])
        and all(type(value) is int for value in manifest["config"].values())
        and isinstance(manifest.get("csv"), str)
        # a bare file name, as written: the CSV lands beside its manifest
        and manifest["csv"] not in ("", ".", "..")
        and Path(manifest["csv"]).name == manifest["csv"]
    ):
        raise DataError(f"{path} is not a manifest that 'timerules generate' writes")
    return manifest


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "from-manifest":
        manifest = _read_manifest(args.manifest)
        kind, config = manifest["kind"], manifest["config"]
        out = Path(args.out) if args.out else Path(args.manifest).parent / manifest["csv"]
        try:
            data = _generate(kind, config)
        except ValueError as exc:
            # the manifest is a data file: a config the generator rejects is bad data
            raise DataError(f"{args.manifest} holds an invalid {kind} config: {exc}") from exc
    else:
        kind = args.kind
        config = {key: getattr(args, key) for key in _GENERATOR_KEYS[kind]}
        out = Path(args.out)
        with _checking_arguments():
            data = _generate(kind, config)
    _write_generated(kind, config, data, out)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    # RunSpec checks no value against the data, so its flags are checked
    # before the file is read; the decision and the default test count
    # come from the file
    with _checking_arguments():
        spec = RunSpec(
            d="",
            alpha=args.min_window,
            beta=args.max_window,
            ac_th=args.threshold,
            cl=args.confidence,
            preference=args.preference.replace("-", "_"),
            test_count=0 if args.test_count is None else args.test_count,
            accuracy_mode=args.accuracy_mode,
            interval_method=args.interval_method,
        )
    data = load_csv(args.data, header_mode=args.header_mode)
    if args.test_count is None:
        spec = replace(spec, test_count=data.n // 5)
    attributes = (
        list(data.attribute_names) if args.all_attributes else [args.decision]
    )
    specs = [replace(spec, d=name) for name in attributes]
    if args.out and len(specs) > 1:
        # each report is written to <out>.<column>, which must stay one file name
        for name in attributes:
            if any(sep in name for sep in (os.sep, os.altsep) if sep):
                raise DataError(
                    f"column {name!r} holds a path separator, so it cannot name "
                    f"its report files {args.out}.<column>.txt/.json"
                )
    workers, warning = worker_count(
        os.environ.get("TIMERULES_MAX_WORKERS"), _usable_cpus()
    )
    if warning:
        print(f"timerules: warning: {warning}", file=sys.stderr)
    for i, spec in enumerate(specs):
        report = run_timers(spec, data, workers=workers)
        if i:
            print()
        text = report.render_text()
        print(text)
        if args.out:
            base = args.out if len(specs) == 1 else f"{args.out}.{spec.d}"
            Path(f"{base}.txt").write_text(text + "\n", encoding="utf-8")
            with open(f"{base}.json", "w", encoding="utf-8") as handle:
                json.dump(report.to_dict(), handle, indent=2)
                handle.write("\n")
    return 0


def _cmd_dump(args: argparse.Namespace) -> int:
    with _checking_arguments():
        spec = TemporalisationSpec(w=args.window, pos=args.position, d=args.decision)
    data = load_csv(args.data, header_mode=args.header_mode)
    temporalise(spec, data).to_csv(args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "generate":
            return _cmd_generate(args)
        return _cmd_dump(args)
    except DataError as exc:
        print(f"timerules: data error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except OSError as exc:
        print(f"timerules: {exc}", file=sys.stderr)
        return DATA_ERROR
    except UsageError as exc:
        print(f"timerules: invalid arguments: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
