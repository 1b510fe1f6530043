"""The package namespace: `import timerules` loads no submodule, and each
public name and submodule resolves on first use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import timerules

SUBMODULES = ("dataset", "induction", "semantics", "temporalise", "verdict", "worlds")
PUBLIC_NAMES = [
    "AccuracyInterval", "AttributeSchema", "Candidate", "Condition", "DataError",
    "EventSequence", "RelationKind", "RobotWorldConfig", "Rule", "RuleSet", "RunSpec",
    "Selection", "TemporalisationSpec", "TemporalisedDataset", "TestOutcome",
    "VerdictReport", "as_discrete", "classify", "classify_rule_set",
    "compute_accuracy_interval", "declared_kind", "evaluate", "generate_periodic",
    "generate_robot_walk", "induce", "judge", "load_csv", "rule_generator_run_count",
    "run_timers", "select_relation", "simplicity_rank", "split_chronological",
    "temporalise", "temporalised_record_count",
]


def fresh_interpreter(code: str) -> object:
    """The JSON that `code`, run in a new interpreter of this package, prints last."""
    env = {**os.environ, "PYTHONPATH": str(Path(timerules.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return json.loads(result.stdout.splitlines()[-1])


def test_a_bare_import_loads_no_submodule():
    loaded = fresh_interpreter(
        "import json, sys, timerules\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('timerules.')]))"
    )
    assert loaded == []


def test_each_submodule_is_an_attribute_after_a_bare_import():
    found = fresh_interpreter(
        "import json, sys, timerules\n"
        f"print(json.dumps([getattr(timerules, m) is sys.modules['timerules.' + m]"
        f" for m in {SUBMODULES!r}]))"
    )
    # the public function `temporalise` takes the name of its submodule
    assert found == [module != "temporalise" for module in SUBMODULES]


def test_the_function_temporalise_keeps_its_name_after_its_submodule_loads():
    found = fresh_interpreter(
        "import json, sys, timerules.temporalise, timerules.cli\n"
        "from timerules import *\n"
        "function = sys.modules['timerules.temporalise'].temporalise\n"
        "print(json.dumps([timerules.temporalise is function, temporalise is function]))"
    )
    assert found == [True, True]


def test_every_public_name_is_its_defining_submodules_object():
    assert timerules.__all__ == PUBLIC_NAMES
    for name in timerules.__all__:
        value = getattr(timerules, name)
        assert value.__module__ in {f"timerules.{module}" for module in SUBMODULES}, name
        assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_an_unknown_attribute_is_named_in_the_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        getattr(timerules, "no_such_name")


def test_dir_covers_every_public_name_and_submodule():
    assert {*timerules.__all__, *SUBMODULES} <= set(dir(timerules))


def test_a_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from timerules import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(timerules.__all__)
