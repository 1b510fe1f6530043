import pytest

from timerules.induction import Condition, Rule, evaluate, induce
from timerules.temporalise import TemporalisationSpec, column_name, temporalise
from timerules.worlds import (
    ACTIONS,
    RobotWorldConfig,
    generate_periodic,
    generate_robot_walk,
)

from oracles import first_match, periodic_labels, reference_window


def transition(x, y, action, width, height):
    if action == "L":
        return max(1, x - 1), y
    if action == "R":
        return min(width, x + 1), y
    if action == "U":
        return x, max(1, y - 1)
    return x, min(height, y + 1)


class TestRobotWalk:
    def test_forward_relation_is_deterministic_everywhere(self):
        config = RobotWorldConfig(steps=2000, seed=4)
        walk = generate_robot_walk(config)
        rows = [(int(x), int(y), a) for x, y, a in zip(*walk.columns)]
        for (x, y, a), (nx, ny, _) in zip(rows, rows[1:]):
            assert (nx, ny) == transition(x, y, a, config.width, config.height)

    def test_positions_stay_on_board(self):
        config = RobotWorldConfig(width=5, height=3, steps=800, seed=1)
        walk = generate_robot_walk(config)
        xs, ys, _ = walk.columns
        assert {int(x) for x in xs} <= set(range(1, 6))
        assert {int(y) for y in ys} <= set(range(1, 4))

    def test_clamp_holds_position_at_the_wall(self):
        config = RobotWorldConfig(steps=2000, seed=4)
        xs, _, actions = generate_robot_walk(config).columns
        rows = [(int(x), a) for x, a in zip(xs, actions)]
        clamped = [
            (x, nx) for (x, a), (nx, _) in zip(rows, rows[1:]) if x == 1 and a == "L"
        ]
        assert clamped  # a 2000-step walk reaches the wall
        assert all(nx == 1 for _, nx in clamped)

    def test_fixed_seed_reproduces_sequence(self):
        config = RobotWorldConfig(steps=10, seed=99)
        assert generate_robot_walk(config).columns == generate_robot_walk(config).columns
        other = generate_robot_walk(RobotWorldConfig(steps=10, seed=100))
        assert other.columns != generate_robot_walk(config).columns

    def test_actions_within_alphabet(self):
        walk = generate_robot_walk(RobotWorldConfig(steps=200, seed=0))
        assert set(walk.columns[2]) <= set(ACTIONS)

    def test_backward_prediction_is_ambiguous(self):
        # distinct previous positions reach the same position
        walk = generate_robot_walk(RobotWorldConfig(steps=2000, seed=4))
        xs = [int(x) for x in walk.columns[0]]
        predecessors = {}
        for prev, here in zip(xs, xs[1:]):
            predecessors.setdefault(here, set()).add(prev)
        assert any(len(sources) > 1 for sources in predecessors.values())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RobotWorldConfig(width=0)
        with pytest.raises(ValueError):
            RobotWorldConfig(steps=0)

    def test_schema_is_discrete(self):
        walk = generate_robot_walk(RobotWorldConfig(steps=50, seed=0))
        assert walk.attribute_names == ("x", "y", "a")
        assert all(a.kind == "discrete" for a in walk.schema)


class TestPeriodic:
    def test_two_full_cycles(self):
        series = generate_periodic(8, 16)
        assert series.columns == (tuple(str(i % 8) for i in range(16)),)

    @pytest.mark.parametrize(
        ("period", "steps"), [(2, 2), (5, 5), (3, 10), (7, 100), (8, 40005)]
    )
    def test_labels_follow_the_per_step_formula(self, period, steps):
        series = generate_periodic(period, steps)
        assert series.columns == (tuple(periodic_labels(period, steps)),)
        assert series.schema[0].domain == tuple(map(str, range(period)))

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_periodic(1, 10)
        with pytest.raises(ValueError):
            generate_periodic(8, 7)

    def test_symmetric_neighbour_relation(self):
        period = 6
        (labels,) = generate_periodic(period, 60).columns
        values = [int(v) for v in labels]
        for prev, here in zip(values, values[1:]):
            assert here == (prev + 1) % period
            assert prev == (here - 1) % period

    def test_backward_lookup_table_is_perfect(self):
        period = 8
        series = generate_periodic(period, 80)
        backward = temporalise(TemporalisationSpec(w=2, pos=1, d="x"), series)
        rules = tuple(
            Rule(
                (Condition("x", 2, "=", str(nxt)),),
                "x",
                1,
                str((nxt - 1) % period),
            )
            for nxt in range(period)
        )
        keys, records = reference_window(series, backward.provenance)
        names = [column_name(a, t) for a, t in keys]
        for record in records:
            # no default: every record must be matched by its own rule
            assert first_match(rules, None, dict(zip(names, record))) == record[-1]

    def test_instantaneous_accuracy_is_majority_share(self):
        period = 8
        series = generate_periodic(period, 80)
        flat = temporalise(TemporalisationSpec(w=1, pos=1, d="x"), series)
        rule_set = induce(flat)
        # no condition attributes exist, so only the majority rule remains
        assert rule_set.size == 1
        assert evaluate(rule_set, flat) == 1 / period
