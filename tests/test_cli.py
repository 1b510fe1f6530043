import concurrent.futures
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

import timerules.cli
import timerules.verdict
from timerules.cli import build_parser, main, worker_count
from timerules.dataset import load_csv
from timerules.verdict import RunSpec, run_timers
from timerules.worlds import RobotWorldConfig, generate_robot_walk

SRC = Path(__file__).resolve().parent.parent / "src"
POOL_MODULES = ("multiprocessing", "concurrent.futures.process")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def robot_csv(tmp_path, capsys):
    out = tmp_path / "robot.csv"
    code, _, _ = run(
        capsys, "generate", "robot", "--steps", "900", "--seed", "0", "--out", str(out)
    )
    assert code == 0
    return out


@pytest.fixture
def pool_spy(monkeypatch):
    """The size of every process pool a sweep starts and the job list its
    `map` is handed, in order; jobs run in this process."""
    spy = SimpleNamespace(sizes=[], submitted=[])

    class PoolSpy:
        def __init__(self, max_workers, initializer, initargs):
            spy.sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            jobs = list(jobs)
            spy.submitted.append(jobs)
            return map(fn, jobs)

    # run_timers imports the pool class from here when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PoolSpy)
    monkeypatch.setattr(timerules.verdict, "_worker_data", None)
    return spy


def allow_cpus(monkeypatch, cpus, machine=None):
    """Let this process run on `cpus` of the machine's `machine` CPUs; a
    `cpus` of None stands for a platform without an affinity mask that
    counts `machine` CPUs."""
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
        )
    monkeypatch.setattr(os, "cpu_count", lambda: machine)


def run_fresh(script, *argv):
    """Run `script` in a new interpreter on this checkout, at the default worker cap."""
    env = {k: v for k, v in os.environ.items() if k != "TIMERULES_MAX_WORKERS"}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestColdStart:
    def test_one_worker_analyze_imports_no_pool_module(self, robot_csv):
        code, loaded = run_fresh(
            "import json, sys\n"
            "from timerules.cli import main\n"
            "code = main(['analyze', '--data', sys.argv[1], '--decision', 'x',"
            " '--max-window', '3', '--test-count', '150'])\n"
            f"print(json.dumps([code, [m for m in {POOL_MODULES!r} if m in sys.modules]]))",
            str(robot_csv),
        )
        assert code == 0
        assert loaded == []

    def test_two_worker_sweep_imports_and_runs_the_pool(self, robot_csv):
        before, after, report = run_fresh(
            "import json, sys\n"
            "from timerules.dataset import load_csv\n"
            "from timerules.verdict import RunSpec, run_timers\n"
            "walk = load_csv(sys.argv[1])\n"
            "spec = RunSpec(d='x', beta=3, test_count=150)\n"
            "run_timers(spec, walk)\n"
            "before = 'concurrent.futures.process' in sys.modules\n"
            "report = run_timers(spec, walk, workers=2).to_dict()\n"
            "after = 'concurrent.futures.process' in sys.modules\n"
            "print(json.dumps([before, after, report]))",
            str(robot_csv),
        )
        assert not before
        assert after
        one_worker = run_timers(RunSpec(d="x", beta=3, test_count=150), load_csv(robot_csv))
        assert report == json.loads(json.dumps(one_worker.to_dict()))


class TestPoolSubmission:
    @pytest.mark.parametrize("alpha", [2, 1])  # alpha 1 holds (1, 1) once
    def test_largest_windows_go_first_and_outcomes_keep_sweep_order(
        self, alpha, pool_spy
    ):
        walk = generate_robot_walk(RobotWorldConfig(steps=200, seed=3))
        spec = RunSpec(d="x", alpha=alpha, beta=5, test_count=40)
        one_worker = run_timers(spec, walk)
        pooled = run_timers(spec, walk, workers=2)
        assert pool_spy.sizes == [2]
        (submitted,) = pool_spy.submitted
        sizes = [w for _, w, _ in submitted]
        assert sizes == sorted(sizes, reverse=True)
        sweep = list(
            dict.fromkeys(
                [(1, 1)]
                + [(w, pos) for w in range(alpha, 6) for pos in range(1, w + 1)]
            )
        )
        assert sorted(submitted) == sorted(("x", w, pos) for w, pos in sweep)
        assert [(o.w, o.pos) for o in pooled.outcomes] == sweep
        assert pooled == one_worker


class TestGenerate:
    def test_robot_csv_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "walk.csv"
        code, stdout, _ = run(
            capsys, "generate", "robot", "--steps", "120", "--seed", "7",
            "--out", str(out),
        )
        assert code == 0
        assert "120 records" in stdout
        data = load_csv(out)
        assert data.n == 120
        assert data.attribute_names == ("x", "y", "a")
        manifest = json.loads((tmp_path / "walk.manifest.json").read_text())
        assert manifest["kind"] == "robot"
        assert manifest["config"]["seed"] == 7
        assert manifest["rows"] == 120

    def test_periodic_csv(self, tmp_path, capsys):
        out = tmp_path / "cycle.csv"
        code, _, _ = run(
            capsys, "generate", "periodic", "--period", "8", "--steps", "40",
            "--out", str(out),
        )
        assert code == 0
        assert load_csv(out).columns == (tuple(i % 8 for i in range(40)),)  # reloads as numeric

    def test_robot_flag_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(["generate", "robot", "--out", "w.csv"])
        defaults = asdict(RobotWorldConfig())
        assert {key: getattr(args, key) for key in defaults} == defaults

    def test_same_flags_reproduce_bytes(self, tmp_path, capsys):
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        for out in (first, second):
            run(capsys, "generate", "robot", "--steps", "60", "--seed", "3",
                "--out", str(out))
        assert first.read_bytes() == second.read_bytes()

    def test_manifest_regenerates_identical_file(self, tmp_path, capsys):
        out = tmp_path / "walk.csv"
        run(capsys, "generate", "robot", "--steps", "60", "--seed", "3",
            "--out", str(out))
        original = out.read_bytes()
        out.unlink()
        code, _, _ = run(
            capsys, "generate", "from-manifest", str(tmp_path / "walk.manifest.json")
        )
        assert code == 0
        assert out.read_bytes() == original

    def test_corrupt_manifest_is_a_data_error(self, tmp_path, capsys):
        manifest = tmp_path / "bad.manifest.json"
        manifest.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "generate", "from-manifest", str(manifest))
        assert code == 3
        assert "is not a JSON manifest" in err

    def test_manifest_that_is_not_utf8_is_a_data_error(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_bytes(b'{"kind": "robot", \xff}')
        code, _, err = run(capsys, "generate", "from-manifest", str(manifest))
        assert code == 3
        assert err == f"timerules: data error: {manifest}: line 1 is not UTF-8 text\n"

    @pytest.mark.parametrize(
        "manifest",
        [
            [1, 2],
            {"config": {"period": 8, "steps": 40}, "csv": "p.csv"},
            {"kind": "bogus", "config": {"period": 8, "steps": 40}, "csv": "p.csv"},
            {
                "kind": "robot",
                "config": {"width": 8, "height": 8, "steps": 60, "seed": 3, "colour": "red"},
                "csv": "walk.csv",
            },
            {"kind": "periodic", "config": {"period": 8, "steps": 40}, "csv": "../escaped.csv"},
            {"kind": "periodic", "config": {"period": 8, "steps": 40}, "csv": "sub/p.csv"},
        ],
        ids=["list", "no-kind", "unknown-kind", "unknown-config-key", "parent-csv", "subdir-csv"],
    )
    def test_misshapen_manifest_is_a_data_error(self, tmp_path, capsys, manifest):
        path = tmp_path / "bad.manifest.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        beside = set(tmp_path.parent.iterdir())
        code, _, err = run(capsys, "generate", "from-manifest", str(path))
        assert code == 3
        assert f"{path} is not a manifest" in err
        assert list(tmp_path.iterdir()) == [path]
        assert set(tmp_path.parent.iterdir()) == beside

    def test_manifest_config_the_generator_rejects_is_a_data_error(self, tmp_path, capsys):
        # well-formed, but no flag was given: the bad value is the file's
        path = tmp_path / "short.manifest.json"
        manifest = {"kind": "periodic", "config": {"period": 8, "steps": 0}, "csv": "z.csv"}
        path.write_text(json.dumps(manifest), encoding="utf-8")
        code, _, err = run(capsys, "generate", "from-manifest", str(path))
        assert code == 3
        assert f"{path} holds an invalid periodic config" in err
        assert "invalid arguments" not in err
        assert not list(tmp_path.glob("*.csv"))

    def test_bad_generator_flag_is_a_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "generate", "periodic", "--period", "1",
            "--out", str(tmp_path / "p.csv"),
        )
        assert code == 2
        assert "invalid arguments: period must be >= 2" in err
        assert not (tmp_path / "p.csv").exists()

    def test_unwritable_path_fails(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "generate", "periodic", "--out",
            str(tmp_path / "missing" / "cycle.csv"),
        )
        assert code == 3
        assert err


class TestAnalyze:
    def test_flag_defaults_are_the_run_spec_defaults(self):
        args = build_parser().parse_args(["analyze", "--data", "d.csv", "--decision", "c"])
        spec = RunSpec(d="c")
        assert (args.min_window, args.max_window) == (spec.alpha, spec.beta)
        assert (args.threshold, args.confidence) == (spec.ac_th, spec.cl)
        assert args.preference.replace("-", "_") == spec.preference
        assert (args.accuracy_mode, args.interval_method) == (
            spec.accuracy_mode,
            spec.interval_method,
        )

    def test_full_sweep_flags(self, tmp_path, capsys):
        out = tmp_path / "robot.csv"
        run(capsys, "generate", "robot", "--steps", "3000", "--seed", "42",
            "--out", str(out))
        code, stdout, _ = run(
            capsys, "analyze", "--data", str(out), "--decision", "x",
            "--min-window", "2", "--max-window", "5", "--threshold", "0.6",
            "--confidence", "0.9", "--test-count", "500",
        )
        assert code == 0
        # one row per (w, pos) plus the instantaneous row
        assert sum(line[:1].isdigit() for line in stdout.splitlines()) == 15
        assert stdout.strip().endswith("for attribute x, the relation is p-causal")

    def test_robot_report(self, robot_csv, capsys):
        code, stdout, _ = run(
            capsys, "analyze", "--data", str(robot_csv), "--decision", "x",
            "--min-window", "2", "--max-window", "3", "--test-count", "150",
            "--threshold", "0.6",
        )
        assert code == 0
        assert "Type of test" in stdout
        assert stdout.strip().endswith("for attribute x, the relation is p-causal")

    def test_report_files_written(self, robot_csv, tmp_path, capsys):
        base = tmp_path / "report"
        code, _, _ = run(
            capsys, "analyze", "--data", str(robot_csv), "--decision", "x",
            "--max-window", "3", "--test-count", "150", "--out", str(base),
        )
        assert code == 0
        text = (tmp_path / "report.txt").read_text()
        payload = json.loads((tmp_path / "report.json").read_text())
        assert "the relation is p-causal" in text
        assert payload["final"] == "p-causal"
        assert payload["decision_attribute"] == "x"

    def test_all_attributes_prints_one_verdict_each(self, robot_csv, capsys):
        code, stdout, _ = run(
            capsys, "analyze", "--data", str(robot_csv), "--all-attributes",
            "--max-window", "2", "--test-count", "150",
        )
        assert code == 0
        verdicts = [
            line for line in stdout.splitlines()
            if line.startswith("for attribute") or line == "No verdict"
        ]
        assert len(verdicts) == 3

    def test_each_report_is_rendered_once_for_stdout_and_its_file(
        self, robot_csv, tmp_path, capsys
    ):
        base = tmp_path / "r"
        render = timerules.verdict.VerdictReport.render_text
        with mock.patch.object(
            timerules.verdict.VerdictReport, "render_text", autospec=True, side_effect=render
        ) as spy:
            code, stdout, _ = run(
                capsys, "analyze", "--data", str(robot_csv), "--all-attributes",
                "--max-window", "2", "--test-count", "150", "--out", str(base),
            )
        assert code == 0
        assert spy.call_count == 3
        texts = [(tmp_path / f"r.{d}.txt").read_text(encoding="utf-8") for d in "xya"]
        assert stdout == "\n".join(texts)

    def test_column_name_with_a_path_separator_is_rejected_before_any_sweep(
        self, tmp_path, capsys
    ):
        # the report files would be r.a/b.txt and r.a/b.json
        path = tmp_path / "slash.csv"
        rows = "".join(f"{i % 3},{'ab'[i % 2]}\n" for i in range(30))
        path.write_text("a/b,c\n" + rows, encoding="utf-8")
        (tmp_path / "r.a").mkdir()
        code, stdout, err = run(
            capsys, "analyze", "--data", str(path), "--all-attributes",
            "--max-window", "2", "--out", str(tmp_path / "r"),
        )
        assert code == 3
        assert "column 'a/b' holds a path separator" in err
        assert stdout == ""  # no sweep ran
        assert list((tmp_path / "r.a").iterdir()) == []

    def test_no_verdict_still_exits_zero(self, robot_csv, capsys):
        code, stdout, _ = run(
            capsys, "analyze", "--data", str(robot_csv), "--decision", "x",
            "--max-window", "2", "--test-count", "150", "--threshold", "1.0",
            "--accuracy-mode", "training",
        )
        assert code == 0

    def test_default_test_count_is_a_fifth(self, robot_csv, capsys):
        code, stdout, _ = run(
            capsys, "analyze", "--data", str(robot_csv), "--decision", "x",
            "--max-window", "2",
        )
        assert code == 0
        assert "the relation is p-causal" in stdout

    def test_worker_cap_env_var(self, robot_csv, capsys, monkeypatch):
        args = (
            "analyze", "--data", str(robot_csv), "--decision", "x",
            "--max-window", "2", "--test-count", "150",
        )
        _, baseline, _ = run(capsys, *args)
        monkeypatch.setenv("TIMERULES_MAX_WORKERS", "2")
        code, fanned, _ = run(capsys, *args)
        assert code == 0
        assert fanned == baseline
        monkeypatch.setenv("TIMERULES_MAX_WORKERS", "not-a-number")
        code, fallback, _ = run(capsys, *args)
        assert code == 0
        assert fallback == baseline

    def test_one_job_sweep_starts_no_pool(
        self, robot_csv, capsys, monkeypatch, pool_spy
    ):
        # the window range 1..1 holds the single job (1, 1)
        monkeypatch.setenv("TIMERULES_MAX_WORKERS", "4")
        allow_cpus(monkeypatch, 4, machine=4)
        code, stdout, _ = run(
            capsys, "analyze", "--data", str(robot_csv), "--decision", "x",
            "--min-window", "1", "--max-window", "1",
        )
        assert code == 0
        assert pool_spy.sizes == []
        assert sum(line[:1].isdigit() for line in stdout.splitlines()) == 1

    def test_one_allowed_cpu_starts_no_pool(
        self, robot_csv, capsys, monkeypatch, pool_spy
    ):
        # as under `taskset -c 0` on a 4-CPU machine
        monkeypatch.setenv("TIMERULES_MAX_WORKERS", "4")
        allow_cpus(monkeypatch, 1, machine=4)
        code, stdout, _ = run(
            capsys, "analyze", "--data", str(robot_csv), "--decision", "x",
            "--max-window", "3", "--test-count", "150",
        )
        assert code == 0
        assert pool_spy.sizes == []
        assert "the relation is p-causal" in stdout

    def test_invalid_worker_cap_warns(self, robot_csv, capsys, monkeypatch):
        monkeypatch.setenv("TIMERULES_MAX_WORKERS", "0")
        code, stdout, err = run(
            capsys, "analyze", "--data", str(robot_csv), "--decision", "x",
            "--max-window", "2",
        )
        assert code == 0
        assert "the relation is p-causal" in stdout
        assert "warning: ignoring TIMERULES_MAX_WORKERS='0'" in err

    def test_window_larger_than_data_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text("x,y\n1,a\n2,b\n3,a\n", encoding="utf-8")
        code, _, err = run(
            capsys, "analyze", "--data", str(path), "--decision", "y",
            "--max-window", "5",
        )
        assert code == 3
        assert "data error" in err

    def test_missing_value_in_held_out_tail_names_its_record(self, tmp_path, capsys):
        path = tmp_path / "gap.csv"
        path.write_text("x,y\n1,a\n2,b\n1,a\n2,b\n1,a\n2,b\n?,a\n", encoding="utf-8")
        code, _, err = run(
            capsys, "analyze", "--data", str(path), "--decision", "x",
            "--max-window", "2", "--test-count", "2",
        )
        assert code == 3
        assert "record 7 contains a missing value" in err

    def test_missing_file_is_a_data_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "analyze", "--data", str(tmp_path / "nope.csv"),
            "--decision", "x",
        )
        assert code == 3

    @pytest.mark.parametrize("command", ["analyze", "temporalise-dump"])
    def test_file_that_is_not_utf8_is_a_data_error(self, tmp_path, capsys, command):
        data = tmp_path / "bad8.csv"
        data.write_bytes(b"x,c\n1,a\n2,\xff\n3,b\n")
        flags = ["--window", "1", "--position", "1", "--out", str(tmp_path / "d.csv")]
        code, _, err = run(
            capsys, command, "--data", str(data), "--decision", "c",
            *(flags if command == "temporalise-dump" else []),
        )
        assert code == 3
        assert err == f"timerules: data error: {data}: line 3 is not UTF-8 text\n"

    def test_unnamed_header_column_is_a_data_error(self, tmp_path, capsys):
        data = tmp_path / "blank.csv"
        data.write_text("x,c,\n" + "1,a,\n2,b,\n" * 20, encoding="utf-8")
        code, stdout, err = run(
            capsys, "analyze", "--data", str(data), "--all-attributes",
            "--out", str(tmp_path / "r"),
        )
        assert code == 3
        assert stdout == ""
        assert err == f"timerules: data error: {data}: column 3 of the header has no name\n"
        assert list(tmp_path.iterdir()) == [data]

    def test_field_over_the_csv_limit_is_a_data_error(self, tmp_path, capsys):
        data = tmp_path / "big.csv"
        data.write_text("x,c\n1," + "a" * 200000 + "\n2,b\n", encoding="utf-8")
        code, _, err = run(capsys, "analyze", "--data", str(data), "--decision", "c")
        assert code == 3
        assert err.startswith(f"timerules: data error: {data}: line 2: field larger than")
        assert err.count("\n") == 1

    def test_bad_flag_value_is_a_usage_error(self, robot_csv, capsys):
        code, _, err = run(
            capsys, "analyze", "--data", str(robot_csv), "--decision", "x",
            "--threshold", "1.5",
        )
        assert code == 2
        assert "invalid arguments" in err

    def test_min_window_zero_is_a_usage_error(self, robot_csv, capsys):
        code, _, err = run(
            capsys, "analyze", "--data", str(robot_csv), "--decision", "x",
            "--min-window", "0",
        )
        assert code == 2
        assert "invalid arguments: window range" in err

    def test_bad_flag_is_reported_before_the_file_is_read(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "analyze", "--data", str(tmp_path / "nope.csv"),
            "--decision", "x", "--min-window", "0",
        )
        assert code == 2
        assert "invalid arguments: window range" in err

    def test_value_error_inside_the_sweep_propagates(
        self, robot_csv, capsys, monkeypatch
    ):
        def failing_run_timers(spec, data, workers=1):
            raise ValueError("internal fault")

        monkeypatch.setattr(timerules.cli, "run_timers", failing_run_timers)
        with pytest.raises(ValueError, match="internal fault"):
            main(["analyze", "--data", str(robot_csv), "--decision", "x"])

    def test_unknown_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--nonsense"])
        assert excinfo.value.code == 2


class TestTemporaliseDump:
    def test_dump_headers(self, robot_csv, tmp_path, capsys):
        out = tmp_path / "dump.csv"
        code, _, _ = run(
            capsys, "temporalise-dump", "--data", str(robot_csv), "--decision", "x",
            "--window", "2", "--position", "2", "--out", str(out),
        )
        assert code == 0
        header = out.read_text().splitlines()[0].split(",")
        assert header == ["x@t1", "y@t1", "a@t1", "x@t2"]
        assert len(out.read_text().splitlines()) == 900  # header + n-w+1 rows

    def test_bad_position_is_usage_error(self, robot_csv, tmp_path, capsys):
        code, _, err = run(
            capsys, "temporalise-dump", "--data", str(robot_csv), "--decision", "x",
            "--window", "2", "--position", "3", "--out", str(tmp_path / "d.csv"),
        )
        assert code == 2


# window ranges whose sweeps run 15 and 3 jobs
WINDOWS_FOR_JOBS = {15: ("2", "5"), 3: ("1", "2")}


class TestWorkerCount:
    def test_unset_means_one_worker(self):
        assert worker_count(None, cpus=8) == (1, None)

    @pytest.mark.parametrize(
        ("raw", "jobs", "cpus", "expected"),
        [
            ("1", 15, 8, 1),
            ("2", 15, 8, 2),
            ("64", 15, 8, 8),  # clamped to the CPU count
            ("64", 3, 8, 3),  # clamped to the job count
            ("1000000", 15, 2, 2),
            ("4", 15, None, 1),  # unknown CPU count counts as one
            (" 3 ", 15, 8, 3),
        ],
    )
    def test_clamped_to_jobs_and_cpus(
        self, raw, jobs, cpus, expected, tmp_path, capsys, monkeypatch, pool_spy
    ):
        data = tmp_path / "walk.csv"
        run(capsys, "generate", "robot", "--steps", "80", "--seed", "1",
            "--out", str(data))
        monkeypatch.setenv("TIMERULES_MAX_WORKERS", raw)
        if cpus is None:  # no affinity mask, and the machine cannot count its CPUs
            allow_cpus(monkeypatch, None)
        else:  # the machine has more CPUs than this process may run on
            allow_cpus(monkeypatch, cpus, machine=2 * cpus)
        alpha, beta = WINDOWS_FOR_JOBS[jobs]
        code, stdout, _ = run(
            capsys, "analyze", "--data", str(data), "--decision", "x",
            "--min-window", alpha, "--max-window", beta,
        )
        assert code == 0
        assert sum(line[:1].isdigit() for line in stdout.splitlines()) == jobs
        assert pool_spy.sizes == ([] if expected == 1 else [expected])

    def test_without_an_affinity_mask_the_machine_count_clamps(
        self, tmp_path, capsys, monkeypatch, pool_spy
    ):
        data = tmp_path / "walk.csv"
        run(capsys, "generate", "robot", "--steps", "80", "--seed", "1",
            "--out", str(data))
        monkeypatch.setenv("TIMERULES_MAX_WORKERS", "64")
        allow_cpus(monkeypatch, None, machine=3)
        code, _, _ = run(capsys, "analyze", "--data", str(data), "--decision", "x")
        assert code == 0
        assert pool_spy.sizes == [3]

    @pytest.mark.parametrize("raw", ["0", "-3", "not-a-number", "", "2.5"])
    def test_invalid_values_warn_and_use_one_worker(self, raw):
        count, warning = worker_count(raw, cpus=8)
        assert count == 1
        assert repr(raw) in warning
