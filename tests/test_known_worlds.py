"""How often the verdict is right on worlds whose relation is known by construction.

Each cell runs five seeds of one world at 600 rows. A cell where most
seeds get a wrong verdict is a strict xfail naming the roadmap item
that should mend it, so a fix shows as an unexpected pass.
"""

import pytest

from known_worlds import (
    NOISE_LEVELS,
    SYMBOL_COUNTS,
    WORLDS,
    known_world,
    right_verdicts,
)

SEEDS = range(5)
ROWS = 600
MAJORITY = len(SEEDS) // 2 + 1

WRONG = {
    ("p-causal", 3, 0.3): "item 10: trees fitting the label noise read acausal",
    ("p-causal", 2, 0.3): "item 10: trees fitting the label noise read acausal",
    ("p-causal", 3, 0.6): "item 10: no verdict or acausal, as grown trees fit the noise",
    ("p-causal", 2, 0.6): "item 3: called instantaneous or acausal by chance",
    ("noise", 2, 0.0): "item 13: binary noise gets a chance verdict",
    ("noise", 2, 0.3): "item 13: binary noise gets a chance verdict",
    ("noise", 2, 0.6): "item 13: binary noise gets a chance verdict",
}
# the right verdicts a cell keeps at least, where not every seed is right
FLOOR = {("acausal", 3, 0.6): 4}


def cells():
    for symbols in SYMBOL_COUNTS:
        for world in WORLDS:
            for eps in NOISE_LEVELS:
                cell = (world, symbols, eps)
                marks = (
                    [pytest.mark.xfail(strict=True, reason=WRONG[cell])]
                    if cell in WRONG
                    else []
                )
                yield pytest.param(*cell, marks=marks, id=f"{world}-S{symbols}-eps{eps}")


@pytest.mark.parametrize("world, symbols, eps", cells())
def test_most_seeds_get_the_right_verdict(world, symbols, eps):
    cell = (world, symbols, eps)
    floor = MAJORITY if cell in WRONG else FLOOR.get(cell, len(SEEDS))
    assert right_verdicts(world, symbols, eps, SEEDS, ROWS) >= floor


@pytest.mark.parametrize("symbols", SYMBOL_COUNTS)
def test_noiseless_worlds_hold_their_relation(symbols):
    def column(data, name):
        return [int(value) for value in data.columns[data.attribute_names.index(name)]]

    worlds = {world: known_world(world, symbols, 0.0, 1, 50) for world in WORLDS}
    u, v, c = (column(worlds["instantaneous"], name) for name in "uvc")
    assert c == [(a + b) % symbols for a, b in zip(u, v)]
    u, c = column(worlds["p-causal"], "u"), column(worlds["p-causal"], "c")
    assert c[2:] == u[:-2]
    u, c = column(worlds["acausal"], "u"), column(worlds["acausal"], "c")
    assert c[:-1] == u[1:]
    assert all(data.n == 50 for data in worlds.values())
