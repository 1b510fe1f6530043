"""Temporal decision rule discovery and causality verdicts.

`import timerules` loads none of the package's submodules. Each public
name is imported from the submodule that defines it on its first use
(PEP 562), so a script that only generates and writes a world never
loads the learner or the verdict layer. The submodules themselves are
reachable as `timerules.<module>` too, except that `timerules.temporalise`
is the function of that name, however the submodules were imported.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_ORIGINS = {
    name: module
    for module, names in (
        ("dataset", "AttributeSchema DataError EventSequence as_discrete load_csv"
         " split_chronological"),
        ("induction", "Condition Rule RuleSet classify evaluate induce"),
        ("semantics", "RelationKind classify_rule_set declared_kind simplicity_rank"),
        ("temporalise", "TemporalisationSpec TemporalisedDataset temporalise"
         " temporalised_record_count"),
        ("verdict", "AccuracyInterval Candidate RunSpec Selection TestOutcome VerdictReport"
         " compute_accuracy_interval judge rule_generator_run_count run_timers"
         " select_relation"),
        ("worlds", "RobotWorldConfig generate_periodic generate_robot_walk"),
    )
    for name in names.split()
}

__all__ = sorted(_ORIGINS)


def __getattr__(name: str) -> object:
    """Import the public name or submodule `name` on first use, and keep it."""
    module = _ORIGINS.get(name, name)
    if module not in _ORIGINS.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name in _ORIGINS:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_ORIGINS.values()})


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value: object) -> None:
        # Importing a submodule binds it on the package; the function
        # `temporalise` keeps the name its submodule shares.
        if not (name in _ORIGINS and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
