"""Known-answer worlds: sequences whose temporal relation holds by construction.

Every world draws u and v uniformly over S symbols, and a label c for
each record:

- instantaneous: c_t = (u_t + v_t) mod S
- p-causal: c_t = u_{t-2} (uniform for the first two records)
- acausal: c uniform and u_t = c_{t-1}, so c_t is read off u_{t+1}
- noise: c uniform

Then, with probability `eps`, each label is replaced by a uniform
symbol. The generators use only `random.Random(seed)` and the library's
sequence type, so they share no code with the worlds the library ships.
A verdict is right when it names the world's relation, and for noise
when there is none.

    PYTHONPATH=src python tests/known_worlds.py [--seeds 30] [--rows 600]

prints, for every world, symbol count and noise level, how many seeds
`run_timers` gets right with `test_count` a fifth of the rows.
"""

from __future__ import annotations

import argparse
import random

from timerules import RunSpec, run_timers
from timerules.dataset import AttributeSchema, EventSequence

WORLDS = ("instantaneous", "p-causal", "acausal", "noise")
RIGHT_VERDICT = {
    "instantaneous": "instantaneous",
    "p-causal": "p-causal",
    "acausal": "acausal",
    "noise": "no-verdict",
}
SYMBOL_COUNTS = (3, 2)
NOISE_LEVELS = (0.0, 0.3, 0.6)


def known_world(world: str, symbols: int, eps: float, seed: int, rows: int) -> EventSequence:
    """`rows` records (u, v, c) of `world` over `symbols` symbols, labels noised at `eps`."""
    rng = random.Random(seed)

    def uniform() -> list[int]:
        return [rng.randrange(symbols) for _ in range(rows)]

    u, v = uniform(), uniform()
    if world == "instantaneous":
        c = [(a + b) % symbols for a, b in zip(u, v)]
    elif world == "p-causal":
        c = uniform()[:2] + u[:-2]
    elif world == "acausal":
        c = uniform()
        u = u[:1] + c[:-1]
    elif world == "noise":
        c = uniform()
    else:
        raise ValueError(f"unknown world {world!r}")
    c = [rng.randrange(symbols) if rng.random() < eps else label for label in c]
    domain = tuple(str(s) for s in range(symbols))
    schema = tuple(AttributeSchema(name, "discrete", domain) for name in "uvc")
    return EventSequence(schema, tuple(tuple(map(str, column)) for column in (u, v, c)))


def right_verdicts(world: str, symbols: int, eps: float, seeds, rows: int) -> int:
    """How many of `seeds` get `world`'s right verdict for c from the default run."""
    spec = RunSpec(d="c", test_count=rows // 5)
    return sum(
        run_timers(spec, known_world(world, symbols, eps, seed, rows)).final
        == RIGHT_VERDICT[world]
        for seed in seeds
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=30, help="seeds 0..N-1 per cell")
    parser.add_argument("--rows", type=int, default=600)
    args = parser.parse_args()
    print(f"right verdicts of {args.seeds} seeds at {args.rows} rows\n")
    print("| world (S) | " + " | ".join(f"eps = {eps}" for eps in NOISE_LEVELS) + " |")
    print("|---" * (1 + len(NOISE_LEVELS)) + "|")
    for symbols in SYMBOL_COUNTS:
        for world in WORLDS:
            counts = [
                right_verdicts(world, symbols, eps, range(args.seeds), args.rows)
                for eps in NOISE_LEVELS
            ]
            print(f"| {world} ({symbols}) | " + " | ".join(map(str, counts)) + " |")


if __name__ == "__main__":
    main()
