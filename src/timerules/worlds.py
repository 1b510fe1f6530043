"""Synthetic sequences with known temporal structure.

The robot walk has a deterministic forward relation (next position
follows from current position and chosen action) and an ambiguous
backward one; the periodic series is perfectly predictable in both
directions, so forward and backward tests tie. Both generators build
their attribute columns directly, which the sequence stores as they are.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .dataset import AttributeSchema, EventSequence

ACTIONS = ("L", "R", "U", "D")


@dataclass(frozen=True)
class RobotWorldConfig:
    """A bounded board random walk: dimensions, length, and seed."""

    width: int = 8
    height: int = 8
    steps: int = 3000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("board dimensions must be at least 1x1")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")


def generate_robot_walk(config: RobotWorldConfig) -> EventSequence:
    """Random walk on a 1-indexed board, recorded as (x, y, a) per step.

    Each record holds the position before the step's uniformly chosen
    action takes effect; moves that would leave the board leave the
    position unchanged. The next x is therefore a function of the current
    (x, a), and likewise for y.
    """
    rng = random.Random(config.seed)
    x = rng.randint(1, config.width)
    y = rng.randint(1, config.height)
    xs, ys, actions = [], [], []
    for _ in range(config.steps):
        action = ACTIONS[rng.randrange(len(ACTIONS))]
        xs.append(str(x))
        ys.append(str(y))
        actions.append(action)
        if action == "L":
            x = max(1, x - 1)
        elif action == "R":
            x = min(config.width, x + 1)
        elif action == "U":
            y = max(1, y - 1)
        else:
            y = min(config.height, y + 1)
    return _discrete_sequence({"x": xs, "y": ys, "a": actions})


def generate_periodic(period: int, steps: int) -> EventSequence:
    """A single attribute cycling 0..period-1, equally predictable both ways."""
    if period < 2:
        raise ValueError(f"period must be >= 2, got {period}")
    if steps < period:
        raise ValueError(f"steps must cover one full period, got {steps} < {period}")
    labels = [str(i) for i in range(period)]
    return _discrete_sequence({"x": labels * (steps // period) + labels[: steps % period]})


def _discrete_sequence(columns: dict[str, list[str]]) -> EventSequence:
    """Discrete columns by name, each domain in first-appearance order."""
    schema = tuple(
        AttributeSchema(name, "discrete", tuple(dict.fromkeys(column)))
        for name, column in columns.items()
    )
    return EventSequence(schema, tuple(map(tuple, columns.values())))
