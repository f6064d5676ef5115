"""Analytic oracles: closed forms, recursions, enumerations, BFS."""

import math

import pytest

from qpn.errors import (
    InvalidParamsError,
    MultipleGroupsError,
    NonFiniteResultError,
    NotIntegerNetError,
    StateExplosionError,
    ZeroWeightGroupError,
)
from qpn.models import ProtocolParams, entanglement_net, measurement_net, zeno_net
from qpn.net import Arc, PetriNet, PlaceDecl, PlaceKind
from qpn.oracle import (
    bfs_reach,
    blocking_oracle,
    exact_measurement_dist,
    passing_oracle,
    zeno_oracle,
)
from qpn.reference import BLOCKING_TABLE, PASSING_TABLE

C = PlaceKind.COUNTER
A = PlaceKind.AMPLITUDE


class TestZenoOracle:
    def test_single_cycle_fully_transfers(self):
        p10, p01 = zeno_oracle(1)
        assert p10 == pytest.approx(0.0, abs=1e-30)
        assert p01 == pytest.approx(1.0)

    def test_n4(self):
        p10, _ = zeno_oracle(4)
        assert p10 == pytest.approx(math.cos(math.pi / 8) ** 8, abs=1e-15)
        assert p10 == pytest.approx(0.530790, abs=1e-6)

    def test_large_n_approaches_one(self):
        p10, _ = zeno_oracle(10**6)
        assert p10 >= 0.999997

    def test_conserves_with_absorption(self):
        # p10 + p01 + absorbed-along-the-way = 1
        for n in (2, 3, 7, 50):
            p10, p01 = zeno_oracle(n)
            theta = math.pi / (2 * n)
            absorbed = sum(
                math.cos(theta) ** (2 * j) * math.sin(theta) ** 2 for j in range(n - 1)
            )
            assert p10 + p01 + absorbed == pytest.approx(1.0, abs=1e-12)

    def test_invalid(self):
        with pytest.raises(InvalidParamsError):
            zeno_oracle(0)


class TestPassingOracle:
    def test_closed_form(self):
        report = passing_oracle(320, 25)
        assert report.d1 == pytest.approx(math.cos(math.pi / 50) ** 50, abs=1e-15)
        assert round(report.d1, 3) == 0.906

    def test_published_grid(self):
        for (n, m), value in PASSING_TABLE.items():
            assert passing_oracle(n, m).d1 == pytest.approx(value, abs=5e-4)

    def test_m100_column_constant(self):
        values = {passing_oracle(n, 100).d1 for n in (2, 320, 2500, 10**6)}
        assert len(values) == 1
        assert round(values.pop(), 3) == 0.976

    def test_2500_150(self):
        assert round(passing_oracle(2500, 150).d1, 3) == 0.984

    def test_conservation_exact(self):
        for m in (2, 25, 150):
            assert passing_oracle(7, m).total == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_m(self):
        values = [passing_oracle(320, m).d1 for m in range(2, 200, 7)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestBlockingOracle:
    def test_published_rows_except_anomaly(self):
        for (n, m), value in BLOCKING_TABLE.items():
            if n == 2500:
                continue
            assert blocking_oracle(n, m).d2 == pytest.approx(value, abs=0.01), (n, m)

    def test_320_25(self):
        assert blocking_oracle(320, 25).d2 == pytest.approx(0.912, abs=0.01)

    def test_320_150(self):
        assert blocking_oracle(320, 150).d2 == pytest.approx(0.582, abs=0.01)

    def test_anomalous_row_disagrees_with_reference(self):
        # the published N=2500 row is inconsistent with the recursion that
        # reproduces every other row; it must NOT match within print precision
        deltas = [
            abs(blocking_oracle(2500, m).d2 - BLOCKING_TABLE[(2500, m)]) for m in (50, 75, 100, 150)
        ]
        assert min(deltas) > 0.01

    def test_perfect_zeno_limit(self):
        assert blocking_oracle(10**8, 25).d2 == pytest.approx(1.0, abs=1e-6)
        assert blocking_oracle(10**6, 25).d2 == pytest.approx(1.0, abs=1e-3)

    def test_conservation_exact(self):
        for n, m in ((2, 2), (320, 25), (2500, 150)):
            assert blocking_oracle(n, m).total == pytest.approx(1.0, abs=1e-12)

    def test_absorbed_remainder_matches_accumulation(self):
        # the remainder equals the per-cycle (1-a^2) R^2 accumulation
        for n, m in ((50, 10), (320, 25), (1250, 75)):
            theta = math.pi / (2 * m)
            a = math.cos(math.pi / (2 * n)) ** n
            left, right, acc = 1.0, 0.0, 0.0
            for _ in range(m):
                acc += (1 - a * a) * right * right
                damped = a * right
                left, right = (
                    math.cos(theta) * left - math.sin(theta) * damped,
                    math.sin(theta) * left + math.cos(theta) * damped,
                )
            report = blocking_oracle(n, m)
            assert report.absorbed == pytest.approx(acc, abs=1e-12)

    def test_monotone_in_n(self):
        for m in (25, 100):
            values = [blocking_oracle(n, m).d2 for n in (10, 40, 160, 640, 2560, 10240)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_invalid(self):
        with pytest.raises(InvalidParamsError):
            blocking_oracle(1, 25)
        with pytest.raises(InvalidParamsError):
            blocking_oracle(320, 1)


class TestExactMeasurementDist:
    def test_measurement_net_uniform(self):
        net, _ = measurement_net()
        dist = exact_measurement_dist(net)
        assert [tid for tid, _ in dist] == ["t1", "t2", "t3"]
        for _, p in dist:
            assert p == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert sum(p for _, p in dist) == pytest.approx(1.0, abs=1e-15)

    def test_single_transition(self):
        net = PetriNet(
            "one",
            [PlaceDecl("p1", C, 1), PlaceDecl("p2", A)],
            ["t1"],
            [Arc("p1", "t1"), Arc("t1", "p2", "0.7")],
        )
        assert exact_measurement_dist(net) == [("t1", 1.0)]

    def test_pythagorean_weights(self):
        net = PetriNet(
            "pyth",
            [PlaceDecl("p1", C, 1), PlaceDecl("p2", A), PlaceDecl("p3", A)],
            ["t1", "t2"],
            [
                Arc("p1", "t1"),
                Arc("p1", "t2"),
                Arc("t1", "p2", "0.6"),
                Arc("t2", "p3", "0.8"),
            ],
        )
        dist = dict(exact_measurement_dist(net))
        assert dist["t1"] == pytest.approx(0.36)
        assert dist["t2"] == pytest.approx(0.64)

    def test_multiple_groups_rejected(self):
        with pytest.raises(MultipleGroupsError):
            exact_measurement_dist(entanglement_net())

    def test_zero_weights_rejected(self):
        net = PetriNet(
            "zero",
            [PlaceDecl("p1", C, 1), PlaceDecl("p2", A)],
            ["t1"],
            [Arc("p1", "t1"), Arc("t1", "p2", "0")],
        )
        with pytest.raises(ZeroWeightGroupError):
            exact_measurement_dist(net)

    def test_non_finite_total_rejected(self):
        net = PetriNet(
            "huge",
            [PlaceDecl("c", C, 1), PlaceDecl("a", A), PlaceDecl("b", A)],
            ["t1", "t2"],
            [Arc("c", "t1"), Arc("c", "t2"), Arc("t1", "a", "1e200"), Arc("t2", "b", "1e200")],
        )
        with pytest.raises(NonFiniteResultError):
            exact_measurement_dist(net)


class TestBfsReach:
    def test_entanglement(self):
        order, quiescent = bfs_reach(entanglement_net())
        assert len(order) == 8
        assert len(quiescent) == 3
        assert order[0] == (1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        assert quiescent == {
            (0.0, 0.0, 2.0, 0.0, 2.0, 0.0),
            (0.0, 0.0, 1.0, 1.0, 1.0, 1.0),
            (0.0, 0.0, 0.0, 2.0, 0.0, 2.0),
        }

    def test_places_only_net(self):
        net = PetriNet("just-places", [PlaceDecl("p1", C, 1)], [], [])
        order, quiescent = bfs_reach(net)
        assert order == [(1.0,)]
        assert quiescent == {(1.0,)}

    def test_one_consumer(self):
        net = PetriNet("consume", [PlaceDecl("p1", C, 1)], ["t1"], [Arc("p1", "t1")])
        order, quiescent = bfs_reach(net)
        assert order == [(1.0,), (0.0,)]
        assert quiescent == {(0.0,)}

    def test_amplitude_net_rejected(self):
        net, _ = zeno_net(ProtocolParams(N=4))
        with pytest.raises(NotIntegerNetError):
            bfs_reach(net)

    def test_non_integer_weight_rejected(self):
        net, _ = measurement_net()
        with pytest.raises(NotIntegerNetError):
            bfs_reach(net)

    def test_state_budget(self):
        with pytest.raises(StateExplosionError):
            bfs_reach(entanglement_net(), max_states=2)
