"""Net structure and execution semantics."""

import functools
import math
import operator
import random
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpn import expr as _expr
from qpn import net as net_module
from qpn.errors import (
    CounterViolationError,
    DivisionByZeroError,
    EvaluationError,
    NetDefinitionError,
    NonFiniteResultError,
    NotEnabledError,
    QpnError,
    ZeroWeightGroupError,
)
from qpn.expr import Constant, Divide, evaluate
from qpn.models import ProtocolParams, entanglement_net, measurement_net, zeno_net
from qpn.oracle import exact_measurement_dist
from qpn.net import (
    Arc,
    ArcKind,
    PetriNet,
    PlaceDecl,
    PlaceKind,
    Policy,
    RunConfig,
    TerminalStatus,
    TransitionDecl,
    conflict_groups,
    enabled_transitions,
    fire,
    is_enabled,
    run,
    run_final,
    step,
    validate_marking,
)

A = PlaceKind.AMPLITUDE
C = PlaceKind.COUNTER


def manual_fire(net, m, tid):
    """Reference firing: snapshot weights, then consume / drain / deposit."""
    env = dict(zip(net.place_ids(), m))
    out = list(m)
    for arc in net.input_arcs(tid):
        if arc.kind == ArcKind.CONSUME:
            out[net.place_index[arc.source]] -= evaluate(arc.parsed_weight(), env)
    for arc in net.input_arcs(tid):
        if arc.kind == ArcKind.DRAIN:
            out[net.place_index[arc.source]] = 0.0
    for arc in net.output_arcs(tid):
        out[net.place_index[arc.target]] += evaluate(arc.parsed_weight(), env)
    return out


class TestValidation:
    def test_empty_net_rejected(self):
        with pytest.raises(NetDefinitionError, match=r"^net is empty$"):
            PetriNet("empty", [], [], [])

    def test_duplicate_place(self):
        with pytest.raises(NetDefinitionError, match=r"^duplicate place ids$"):
            PetriNet("dup", [PlaceDecl("p1"), PlaceDecl("p1")], [], [])

    def test_place_transition_overlap(self):
        with pytest.raises(NetDefinitionError, match=r"^ids used for both places and transitions: \['x'\]$"):
            PetriNet("overlap", [PlaceDecl("x")], ["x"], [])

    def test_dangling_arc(self):
        with pytest.raises(NetDefinitionError, match=r"^arc p1->t9 does not connect a declared place and transition$"):
            PetriNet("dangling", [PlaceDecl("p1")], ["t1"], [Arc("p1", "t9")])

    def test_counter_initial_must_be_nonnegative_integer(self):
        message = r"^counter place p1 must start at a non-negative integer, got {}$"
        with pytest.raises(NetDefinitionError, match=message.format("-1")):
            PetriNet("bad", [PlaceDecl("p1", C, -1)], [], [])
        with pytest.raises(NetDefinitionError, match=message.format(r"0\.5")):
            PetriNet("bad", [PlaceDecl("p1", C, 0.5)], [], [])

    def test_amplitude_initial_may_be_fractional(self):
        net = PetriNet("ok", [PlaceDecl("p1", A, -0.25)], [], [])
        assert net.initial_marking() == [-0.25]

    def test_weight_referencing_undeclared_place(self):
        with pytest.raises(NetDefinitionError, match=r"^arc p1->t1 references undeclared place p99$"):
            PetriNet(
                "ref",
                [PlaceDecl("p1", C, 1)],
                ["t1"],
                [Arc("p1", "t1", "m(p99)")],
            )

    def test_drain_weight_must_read_source(self):
        with pytest.raises(NetDefinitionError, match=r"^drain arc p1->t1 must have weight m\(p1\)$"):
            PetriNet(
                "drain",
                [PlaceDecl("p1", A, 1)],
                ["t1"],
                [Arc("p1", "t1", "1", ArcKind.DRAIN)],
            )

    def test_output_arc_cannot_be_guard(self):
        with pytest.raises(NetDefinitionError, match=r"^output arc t1->p1 must be a deposit, got guard$"):
            PetriNet(
                "out",
                [PlaceDecl("p1", C, 1)],
                ["t1"],
                [Arc("t1", "p1", "1", ArcKind.GUARD)],
            )

    # the arcs of a valid net, reused in broken ones once the arc memo holds them
    _WARM = (Arc("p1", "t1", "m(p2)"), Arc("t1", "p2", Constant(0.5), ArcKind.DEPOSIT))

    @pytest.mark.parametrize("places, transitions, arcs, message, hit", [
        (["p1", "p2"], ["t2"], _WARM, r"^arc p1->t1 does not connect a declared place and transition$", False),
        (["p2"], ["t1"], _WARM, r"^arc p1->t1 does not connect a declared place and transition$", False),
        # t1 and p2 are also a place and a transition, so the deposit reads as an input arc
        (["p1", "p2", "t1"], ["t1", "p2"], _WARM[1:], r"^input arc t1->p2 cannot be a deposit$", False),
        (["p1"], ["t1"], _WARM[:1], r"^arc p1->t1 references undeclared place p2$", True),
        (["p1", "p1"], ["t1"], _WARM[:1], r"^duplicate place ids$", True),
    ], ids=["missing-transition", "missing-place", "both-kinds-deposit", "undeclared-weight-place",
            "duplicate-and-undeclared"])
    def test_messages_with_a_warm_memo(self, monkeypatch, places, transitions, arcs, message, hit):
        """A net that reuses the arcs of a valid net raises what it raises with the memo cleared;
        an arc whose endpoints it declares as the entry's is not normalized again."""
        monkeypatch.setattr(net_module, "_ARCS", {})
        decls = [PlaceDecl(p) for p in places]
        with pytest.raises(NetDefinitionError, match=message):
            PetriNet("cold", decls, transitions, arcs)
        monkeypatch.setattr(net_module, "_ARCS", {})
        PetriNet("ok", [PlaceDecl("p1"), PlaceDecl("p2")], ["t1"], self._WARM)
        normalized = []
        normalize = net_module._normalize_arc
        monkeypatch.setattr(net_module, "_normalize_arc", lambda *a: normalized.append(a[0]) or normalize(*a))
        with pytest.raises(NetDefinitionError, match=message):
            PetriNet("warm", decls, transitions, arcs)
        assert (normalized == []) == hit


class TestIsEnabled:
    def test_measurement_initially_enabled(self):
        net, _ = measurement_net()
        assert is_enabled(net, net.initial_marking(), "t1")

    def test_measurement_all_zero_disabled(self):
        net, _ = measurement_net()
        assert not is_enabled(net, [0.0, 0.0, 0.0, 0.0], "t1")

    def test_entanglement_all_enabled(self):
        net = entanglement_net()
        m0 = net.initial_marking()
        assert [t for t in net.transition_ids() if is_enabled(net, m0, t)] == [
            "t1",
            "t2",
            "t3",
            "t4",
        ]

    def test_evaluation_error_is_raised_not_false(self):
        net = PetriNet(
            "div",
            [PlaceDecl("p1", A, 0.0), PlaceDecl("p2", A, 1.0)],
            ["t1"],
            [Arc("p2", "t1", "1/m(p1)")],
        )
        with pytest.raises(DivisionByZeroError):
            is_enabled(net, net.initial_marking(), "t1")

    def test_non_finite_weight_raises_not_false(self):
        net = PetriNet("inf", [PlaceDecl("p1", A, 1.0)], ["t1"], [Arc("p1", "t1", "1e300*1e300")])
        with pytest.raises(NonFiniteResultError, match="arc p1->t1"):
            is_enabled(net, net.initial_marking(), "t1")

    def test_negative_weight_disables(self):
        net = PetriNet(
            "neg",
            [PlaceDecl("p1", A, 5.0), PlaceDecl("p2", A, -3.0)],
            ["t1"],
            [Arc("p1", "t1", "m(p2)")],
        )
        assert not is_enabled(net, net.initial_marking(), "t1")

    def test_drain_requires_nonzero(self):
        net = PetriNet(
            "drain",
            [PlaceDecl("p1", A, 0.0)],
            ["t1"],
            [Arc("p1", "t1", "m(p1)", ArcKind.DRAIN)],
        )
        assert not is_enabled(net, [0.0], "t1")
        assert is_enabled(net, [1e-6], "t1")
        assert is_enabled(net, [-1e-6], "t1")
        assert not is_enabled(net, [math.nan], "t1")  # |nan| > eps is false


class TestFire:
    def test_measurement_fire_t1(self):
        net, _ = measurement_net()
        result = fire(net, net.initial_marking(), "t1")
        assert result == pytest.approx([0.0, 1.0 / math.sqrt(3.0), 0.0, 0.0])

    def test_entanglement_fire_t2(self):
        net = entanglement_net()
        assert fire(net, net.initial_marking(), "t2") == [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]

    def test_zero_deposit_changes_nothing_but_inputs(self):
        net = PetriNet(
            "zero",
            [PlaceDecl("p1", C, 1), PlaceDecl("p2", A, 0.5)],
            ["t1"],
            [Arc("p1", "t1"), Arc("t1", "p2", "0")],
        )
        assert fire(net, net.initial_marking(), "t1") == [0.0, 0.5]

    def test_not_enabled_raises(self):
        net, _ = measurement_net()
        with pytest.raises(NotEnabledError):
            fire(net, [0.0, 0.0, 0.0, 0.0], "t1")

    def test_unknown_transition_raises(self):
        from qpn.errors import QpnError

        net, _ = measurement_net()
        with pytest.raises(QpnError):
            fire(net, net.initial_marking(), "t99")

    def test_wrong_dimension_raises(self):
        from qpn.errors import QpnError

        net, _ = measurement_net()
        with pytest.raises(QpnError):
            is_enabled(net, [1.0, 0.0], "t1")

    def test_input_is_not_mutated(self):
        net, _ = measurement_net()
        m0 = net.initial_marking()
        fire(net, m0, "t2")
        assert m0 == net.initial_marking()

    def test_guard_leaves_place_untouched(self):
        net = PetriNet(
            "guard",
            [PlaceDecl("p1", C, 3), PlaceDecl("p2", C, 0)],
            ["t1"],
            [Arc("p1", "t1", "2", ArcKind.GUARD), Arc("t1", "p2", "1")],
        )
        assert fire(net, net.initial_marking(), "t1") == [3.0, 1.0]

    def test_counter_violation_on_negative_deposit(self):
        net = PetriNet(
            "cv",
            [PlaceDecl("p1", C, 1), PlaceDecl("p2", C, 0)],
            ["t1"],
            [Arc("p1", "t1"), Arc("t1", "p2", "0-1")],
        )
        with pytest.raises(CounterViolationError):
            fire(net, net.initial_marking(), "t1")

    def test_counter_violation_on_fractional_deposit(self):
        net = PetriNet(
            "cv2",
            [PlaceDecl("p1", C, 1), PlaceDecl("p2", C, 0)],
            ["t1"],
            [Arc("p1", "t1"), Arc("t1", "p2", "1/2")],
        )
        with pytest.raises(CounterViolationError):
            fire(net, net.initial_marking(), "t1")

    @pytest.mark.parametrize("kind", [A, C])
    def test_deposit_overflow_raises(self, kind):
        net = _overflowing_net(kind)
        with pytest.raises(NonFiniteResultError, match="firing t left place a at inf"):
            fire(net, net.initial_marking(), "t")

    def test_same_place_both_sides_uses_snapshot(self):
        # rewrite pattern: deposit m(p2)-m(p1) onto p1 sets it to m(p2)
        net = PetriNet(
            "swap",
            [PlaceDecl("p1", A, 0.75), PlaceDecl("p2", A, -0.25), PlaceDecl("c", C, 1)],
            ["t1"],
            [Arc("c", "t1"), Arc("t1", "p1", "m(p2)-m(p1)")],
        )
        assert fire(net, net.initial_marking(), "t1") == [-0.25, -0.25, 0.0]

    def test_consumes_apply_in_arc_order(self):
        arcs = [Arc("p1", "t1", "0.1"), Arc("p1", "t1", "0.7")]
        net = PetriNet("order", [PlaceDecl("p1", A, 1.0)], ["t1"], arcs)
        assert fire(net, [1.0], "t1") == [(1.0 - 0.1) - 0.7]  # not (1.0 - 0.7) - 0.1

    def test_consume_and_drain_on_same_place(self):
        # kind-grouped application: consume subtracts, then the drain zeroes,
        # regardless of arc declaration order
        for arcs in (
            [Arc("p1", "t1", "m(p1)", ArcKind.DRAIN), Arc("p1", "t1", "1")],
            [Arc("p1", "t1", "1"), Arc("p1", "t1", "m(p1)", ArcKind.DRAIN)],
        ):
            net = PetriNet("dc", [PlaceDecl("p1", A, 2.5)], ["t1"], arcs)
            assert fire(net, net.initial_marking(), "t1") == [0.0]


class TestConflictGroups:
    def test_measurement_single_group(self):
        net, _ = measurement_net()
        assert conflict_groups(net, net.initial_marking()) == [["t1", "t2", "t3"]]

    def test_entanglement_two_groups(self):
        net = entanglement_net()
        assert conflict_groups(net, net.initial_marking()) == [["t1", "t2"], ["t3", "t4"]]

    def test_singleton_group(self):
        net = PetriNet(
            "one",
            [PlaceDecl("p1", C, 1), PlaceDecl("p2", C, 0)],
            ["t1"],
            [Arc("p1", "t1"), Arc("t1", "p2")],
        )
        assert conflict_groups(net, net.initial_marking()) == [["t1"]]

    def test_guard_sharing_does_not_join(self):
        net = PetriNet(
            "guards",
            [PlaceDecl("g", C, 1), PlaceDecl("a", C, 1), PlaceDecl("b", C, 1)],
            ["t1", "t2"],
            [
                Arc("g", "t1", "1", ArcKind.GUARD),
                Arc("g", "t2", "1", ArcKind.GUARD),
                Arc("a", "t1"),
                Arc("b", "t2"),
            ],
        )
        assert conflict_groups(net, net.initial_marking()) == [["t1"], ["t2"]]


class TestStep:
    def test_quiescent_returns_none(self):
        net, _ = measurement_net()
        assert step(net, [0.0, 0.0, 0.0, 0.0], RunConfig(), random.Random(0)) is None

    def test_deterministic_picks_lowest_rank(self):
        net = entanglement_net()
        tid, m = step(net, net.initial_marking(), RunConfig(), random.Random(0))
        assert tid == "t1"
        assert m == [0.0, 1.0, 1.0, 0.0, 1.0, 0.0]

    def test_priority_overrides_ordinal(self):
        net = PetriNet(
            "prio",
            [PlaceDecl("p1", C, 1), PlaceDecl("p2", C), PlaceDecl("p3", C)],
            [TransitionDecl("t1", priority=5), TransitionDecl("t2", priority=1)],
            [Arc("p1", "t1"), Arc("t1", "p2"), Arc("p1", "t2"), Arc("t2", "p3")],
        )
        tid, _ = step(net, net.initial_marking(), RunConfig(), random.Random(0))
        assert tid == "t2"

    def test_single_enabled_fires_under_both_policies(self):
        net = PetriNet(
            "single",
            [PlaceDecl("p1", C, 1), PlaceDecl("p2", A)],
            ["t1"],
            [Arc("p1", "t1"), Arc("t1", "p2", "1/sqrt(2)")],
        )
        for policy in (Policy.DETERMINISTIC_PRIORITY, Policy.BORN_RANDOM):
            tid, _ = step(net, net.initial_marking(), RunConfig(policy=policy), random.Random(1))
            assert tid == "t1"

    def test_same_seed_same_choices(self):
        net, _ = measurement_net()
        config = RunConfig(policy=Policy.BORN_RANDOM, seed=1234)
        picks_a = [step(net, net.initial_marking(), config, random.Random(s))[0] for s in range(50)]
        picks_b = [step(net, net.initial_marking(), config, random.Random(s))[0] for s in range(50)]
        assert picks_a == picks_b
        assert len(set(picks_a)) == 3  # all branches show up over 50 seeds

    def test_zero_weight_group(self):
        net = PetriNet(
            "zwg",
            [PlaceDecl("p1", C, 1), PlaceDecl("p2", A)],
            ["t1", "t2"],
            [Arc("p1", "t1"), Arc("p1", "t2"), Arc("t1", "p2", "0"), Arc("t2", "p2", "0")],
        )
        with pytest.raises(ZeroWeightGroupError):
            step(net, net.initial_marking(), RunConfig(policy=Policy.BORN_RANDOM), random.Random(0))

    def test_non_finite_weight_total(self):
        """Squares of 1e200 overflow: the draw raises instead of picking the last member."""
        net = PetriNet(
            "huge",
            [PlaceDecl("c", C, 1), PlaceDecl("a", A), PlaceDecl("b", A)],
            ["t1", "t2"],
            [Arc("c", "t1"), Arc("c", "t2"), Arc("t1", "a", "1e200"), Arc("t2", "b", "1e200")],
        )
        for seed in range(5):
            config = RunConfig(policy=Policy.BORN_RANDOM, seed=seed)
            with pytest.raises(NonFiniteResultError):
                step(net, net.initial_marking(), config, random.Random(seed))
            with pytest.raises(NonFiniteResultError) as info:
                run(net, net.initial_marking(), config)
            assert info.value.step_index == 0


class TestRun:
    def test_entanglement_deterministic_two_firings(self):
        net = entanglement_net()
        trace = run(net, net.initial_marking(), RunConfig())
        assert trace.status == TerminalStatus.QUIESCENT
        assert len(trace.steps) == 2
        assert trace.fired() == ["t1", "t3"]
        assert trace.final == [0.0, 0.0, 2.0, 0.0, 2.0, 0.0]

    def test_zeno_n4_final_probability(self):
        net, mapping = zeno_net(ProtocolParams(N=4))
        trace = run(net, net.initial_marking(), RunConfig(max_steps=100))
        assert trace.status == TerminalStatus.QUIESCENT
        p11 = trace.final[net.place_index["p11"]]
        assert mapping.k * p11**2 == pytest.approx(math.cos(math.pi / 8) ** 8, abs=1e-12)
        assert mapping.k * p11**2 == pytest.approx(0.530790, abs=1e-6)

    def test_empty_run(self):
        net = PetriNet("places-only", [PlaceDecl("p1", C, 1)], [], [])
        trace = run(net, net.initial_marking(), RunConfig())
        assert trace.status == TerminalStatus.QUIESCENT
        assert trace.steps == ()
        assert trace.final == [1.0]

    def test_step_limit_status(self):
        net = PetriNet(
            "loop",
            [PlaceDecl("p1", C, 1)],
            ["t1"],
            [Arc("p1", "t1"), Arc("t1", "p1")],
        )
        trace = run(net, net.initial_marking(), RunConfig(max_steps=7))
        assert trace.status == TerminalStatus.STEP_LIMIT
        assert len(trace.steps) == 7

    def test_step_error_carries_index(self):
        net = PetriNet(
            "err",
            [PlaceDecl("p1", C, 1), PlaceDecl("p2", C, 0), PlaceDecl("p3", C, 0)],
            ["t1", "t2"],
            [
                Arc("p1", "t1"),
                Arc("t1", "p2"),
                Arc("p2", "t2"),
                Arc("t2", "p3", "0-1"),
            ],
        )
        with pytest.raises(CounterViolationError) as err:
            run(net, net.initial_marking(), RunConfig())
        assert err.value.step_index == 1

    @pytest.mark.parametrize("runner", [run, run_final])
    def test_overflow_error_carries_index(self, runner):
        net = _overflowing_net(A, initial=0.0)  # 0 -> 1e308 -> inf at the second firing
        with pytest.raises(NonFiniteResultError) as err:
            runner(net, net.initial_marking(), RunConfig())
        assert err.value.step_index == 1
        assert str(err.value) == "firing t left place a at inf (at step 1)"

    def test_evaluation_error_names_arc_and_step(self):
        # t2 empties p2, so t3's weight divides by zero at the recheck after step 1
        net = PetriNet(
            "div",
            [PlaceDecl("c", C, 1), PlaceDecl("p1", A, 1.0), PlaceDecl("p2", A, 1.0)],
            ["t1", "t2", "t3"],
            [
                Arc("c", "t1"),
                Arc("t1", "p1", "1"),
                Arc("p1", "t2", "2"),
                Arc("p2", "t2", "m(p2)", ArcKind.DRAIN),
                Arc("p1", "t3", "1/m(p2)", ArcKind.GUARD),
            ],
        )
        with pytest.raises(DivisionByZeroError) as err:
            run_final(net, net.initial_marking(), RunConfig())
        assert err.value.step_index == 1
        assert "arc p1->t3 w=1/m(p2)" in str(err.value)

    def test_power_domain_fault_is_reference_class(self):
        net = PetriNet(
            "pow",
            [PlaceDecl("c", C, 1), PlaceDecl("a", A, -2.0), PlaceDecl("b", A, 0.0)],
            ["t"],
            [Arc("c", "t"), Arc("t", "b", "m(a)^0.5")],
        )
        with pytest.raises(EvaluationError) as err:
            run(net, net.initial_marking(), RunConfig())
        assert type(err.value) is EvaluationError
        assert err.value.step_index == 0

    def test_trace_markings_chain_by_fire(self):
        net, _ = measurement_net()
        trace = run(net, net.initial_marking(), RunConfig(policy=Policy.BORN_RANDOM, seed=5))
        previous = trace.initial
        for tid, marking in trace.steps:
            assert is_enabled(net, previous, tid)
            assert fire(net, previous, tid) == marking
            previous = marking

    def test_reproducibility_bit_identical(self):
        net, _ = measurement_net()
        config = RunConfig(policy=Policy.BORN_RANDOM, seed=99, max_steps=10)
        assert run(net, net.initial_marking(), config) == run(net, net.initial_marking(), config)

    def test_counter_integrality_preserved(self):
        net = entanglement_net()
        trace = run(net, net.initial_marking(), RunConfig(policy=Policy.BORN_RANDOM, seed=3))
        for _, marking in trace.steps:
            for value in marking:
                assert abs(value - round(value)) <= 1e-9 and value >= -1e-9


class TestDepositAdditivity:
    def _two_depositors(self, w1: str, w2: str) -> PetriNet:
        return PetriNet(
            "dep",
            [PlaceDecl("a", C, 1), PlaceDecl("b", C, 1), PlaceDecl("x", A, 0.0)],
            ["t1", "t2"],
            [Arc("a", "t1"), Arc("t1", "x", w1), Arc("b", "t2"), Arc("t2", "x", w2)],
        )

    def test_sum_of_snapshot_deposits(self):
        net = self._two_depositors("0.5", "m(x)+0.25")
        m1 = fire(net, net.initial_marking(), "t1")
        d1 = 0.5
        m2 = fire(net, m1, "t2")
        d2 = m1[2] + 0.25
        assert m2[2] == pytest.approx(0.0 + d1 + d2)

    def test_constant_weights_commute(self):
        net = self._two_depositors("0.5", "0.25")
        m0 = net.initial_marking()
        forward = fire(net, fire(net, m0, "t1"), "t2")
        backward = fire(net, fire(net, m0, "t2"), "t1")
        assert forward[2] == backward[2] == 0.75


class TestBornFrequency:
    def test_measurement_frequencies_within_4_sigma(self):
        net, _ = measurement_net()
        runs = 100_000
        counts = {"t1": 0, "t2": 0, "t3": 0}
        m0 = net.initial_marking()
        config = RunConfig(policy=Policy.BORN_RANDOM, seed=0)
        for i in range(runs):
            tid, _ = step(net, m0, config, random.Random(i))
            counts[tid] += 1
        p = 1.0 / 3.0
        sigma = math.sqrt(p * (1 - p) / runs)
        for tid, count in counts.items():
            assert abs(count / runs - p) <= 4 * sigma, (tid, count / runs)


class TestRunStepEquivalence:
    """run() is literally "repeat step until quiescence": same rng, same trace."""

    def _manual_trace(self, net, m0, config):
        rng = random.Random(config.seed)
        m = list(m0)
        steps = []
        for _ in range(config.max_steps):
            result = step(net, m, config, rng)
            if result is None:
                return steps, TerminalStatus.QUIESCENT
            tid, m = result
            steps.append((tid, m))
        return steps, (
            TerminalStatus.QUIESCENT
            if step(net, m, config, rng.__class__(0)) is None
            else TerminalStatus.STEP_LIMIT
        )

    def _net_with_singleton_then_conflict(self):
        # one forced firing, then a two-way conflict: exposes any rng-draw
        # mismatch between the run engine and a manual step loop
        return PetriNet(
            "mix",
            [
                PlaceDecl("start", C, 1),
                PlaceDecl("mid", C, 0),
                PlaceDecl("left", A, 0.0),
                PlaceDecl("right", A, 0.0),
            ],
            ["go", "a", "b"],
            [
                Arc("start", "go"),
                Arc("go", "mid"),
                Arc("mid", "a"),
                Arc("mid", "b"),
                Arc("a", "left", "0.6"),
                Arc("b", "right", "0.8"),
            ],
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_born_run_equals_step_loop(self, seed):
        net = self._net_with_singleton_then_conflict()
        config = RunConfig(policy=Policy.BORN_RANDOM, seed=seed, max_steps=50)
        trace = run(net, net.initial_marking(), config)
        manual_steps, manual_status = self._manual_trace(net, net.initial_marking(), config)
        assert list(trace.steps) == manual_steps
        assert trace.status == manual_status

    @pytest.mark.parametrize("policy", [Policy.DETERMINISTIC_PRIORITY, Policy.BORN_RANDOM])
    def test_protocol_and_model_nets(self, policy):
        nets = [measurement_net()[0], entanglement_net(), zeno_net(ProtocolParams(N=5))[0]]
        for net in nets:
            config = RunConfig(policy=policy, seed=17, max_steps=200)
            trace = run(net, net.initial_marking(), config)
            manual_steps, _ = self._manual_trace(net, net.initial_marking(), config)
            assert list(trace.steps) == manual_steps


class TestSchedulerDependencies:
    """Enablement hinging on a place referenced only inside a weight expression."""

    def test_weight_dependency_rechecked(self):
        # t2 consumes from src with weight m(gate): enabled only once t1 has
        # lowered gate below the src level; gate is not an input place of t2
        net = PetriNet(
            "weightdep",
            [
                PlaceDecl("tick", C, 1),
                PlaceDecl("gate", A, 99.0),
                PlaceDecl("src", A, 1.0),
                PlaceDecl("out", A, 0.0),
            ],
            ["t1", "t2"],
            [
                Arc("tick", "t1"),
                Arc("t1", "gate", "1-m(gate)"),  # rewrites gate to 1.0
                Arc("src", "t2", "m(gate)"),
                Arc("t2", "out", "1"),
            ],
        )
        trace = run(net, net.initial_marking(), RunConfig(max_steps=10))
        assert trace.fired() == ["t1", "t2"]
        assert trace.final[net.place_index["out"]] == 1.0
        assert trace.status == TerminalStatus.QUIESCENT


def _overflowing_net(kind, initial=1e308):
    """Each firing of t deposits 1e308 into place a."""
    return PetriNet(
        "overflow",
        [PlaceDecl("c", C, 3), PlaceDecl("a", kind, initial)],
        ["t"],
        [Arc("c", "t"), Arc("t", "a", "1e308")],
    )


def manual_enabled(net, m, tid, eps=1e-12):
    """Reference enabling test: drains need |m(p)| > eps, other inputs m(p) >= w >= 0.

    Inputs are taken in arc order.  The consume arcs of one place are
    compared once, at the last of them, with the sum of their weights in arc
    order.
    """
    env = dict(zip(net.place_ids(), m))
    arcs = net.input_arcs(tid)
    last = {arc.source: i for i, arc in enumerate(arcs) if arc.kind == ArcKind.CONSUME}
    taken = {}  # place -> the sum of its consume weights so far
    for i, arc in enumerate(arcs):
        value = m[net.place_index[arc.source]]
        if arc.kind == ArcKind.DRAIN:
            if not abs(value) > eps:
                return False
            continue
        w = evaluate(arc.parsed_weight(), env)
        if not w >= 0.0:
            return False
        if arc.kind == ArcKind.CONSUME:
            w = taken[arc.source] = taken[arc.source] + w if arc.source in taken else w
            if last[arc.source] != i:
                continue
        if not value >= w - eps:
            return False
    return True


# --- the enabling tolerance at its boundary ----------------------------------------


def _boundary_cases():
    """(kind, weight text, m(q), m(p), enabled): each threshold and the float below it."""
    for kind in (ArcKind.CONSUME, ArcKind.GUARD):
        for w in (1.0, 0.1, 3.0, 0.0, 1e-12):
            at = w - 1e-12
            for weight in (repr(w), "m(q)"):
                yield kind, weight, w, at, True
                yield kind, weight, w, math.nextafter(at, -math.inf), False
    for at in (1e-12, -1e-12):
        yield ArcKind.DRAIN, "m(p)", 0.0, at, False
        yield ArcKind.DRAIN, "m(p)", 0.0, math.nextafter(at, math.copysign(math.inf, at)), True


@pytest.mark.parametrize("kind, weight, q, value, expected", list(_boundary_cases()))
def test_enabling_tolerance_boundary(kind, weight, q, value, expected):
    """Folded thresholds w - 1e-12 and drains |m(p)| > 1e-12 keep the boundary exactly."""
    net = PetriNet(
        "boundary",
        [PlaceDecl("p", A, value), PlaceDecl("q", A, q), PlaceDecl("out", A)],
        ["t"],
        [Arc("p", "t", weight, kind), Arc("t", "out", "1")],
    )
    m0 = net.initial_marking()
    assert manual_enabled(net, m0, "t") == expected
    assert is_enabled(net, m0, "t") == expected
    assert run_final(net, m0, RunConfig(max_steps=1)).firings == expected


def test_enabling_tolerance_boundary_through_cached_shapes(monkeypatch):
    """From an empty structure cache, later nets of a structure call the factories of an earlier one
    with their own threshold w - 1e-12, and keep the boundary exactly."""
    monkeypatch.setattr(net_module, "_STRUCTURES", {})
    compiled, factory = [], net_module._factory
    monkeypatch.setattr(net_module, "_factory", lambda text, slots: compiled.append(text) or factory(text, slots))
    cases = list(_boundary_cases())
    for kind, weight, q, value, expected in cases:
        test_enabling_tolerance_boundary(kind, weight, q, value, expected)
    # each structure compiles its enabling tests and its steps once
    assert len(compiled) == 2 * len(net_module._STRUCTURES) < len(cases)


# --- the consume arcs of one place are tested against their sum --------------------


def _repeated_consume_net(initial, weights, guard=None):
    """Transition t consumes each weight from p in arc order, and deposits 1 into out."""
    arcs = [Arc("p", "t", w) for w in weights] + [Arc("t", "out", "1")]
    if guard is not None:
        arcs.insert(1, Arc("p", "t", guard, ArcKind.GUARD))
    return PetriNet(
        "repeated",
        [PlaceDecl("p", A, initial), PlaceDecl("q", A, 0.1), PlaceDecl("out", A)],
        ["t"],
        arcs,
    )


def _sum_cases():
    """(weights, guard, their sum in arc order, the largest): constant, marking-dependent, mixed."""
    yield ("1", "1"), None, 2.0, 1.0
    yield ("0.1", "0.2"), None, 0.1 + 0.2, 0.2
    yield ("m(q)", "0.2"), None, 0.1 + 0.2, 0.2
    yield ("0.2", "0.3", "m(q)"), None, (0.2 + 0.3) + 0.1, 0.3
    yield ("m(q)", "0.2", "0.3"), None, (0.1 + 0.2) + 0.3, 0.3
    yield ("0.2", "m(q)", "0.3"), "0.25", (0.2 + 0.1) + 0.3, 0.3


@pytest.mark.parametrize("weights, guard, total, largest", list(_sum_cases()))
def test_repeated_consume_needs_the_sum_of_its_weights(weights, guard, total, largest):
    """Enabled from sum - 1e-12, the sum taken in arc order; disabled one float below,
    and with enough for the largest weight alone."""
    at = total - 1e-12
    for value, expected in ((at, True), (math.nextafter(at, -math.inf), False), (largest, False)):
        net = _repeated_consume_net(value, weights, guard)
        m0 = net.initial_marking()
        assert manual_enabled(net, m0, "t") == expected
        assert is_enabled(net, m0, "t") == expected
        assert run_final(net, m0, RunConfig(max_steps=1)).firings == expected


def test_repeated_consume_whose_sum_overflows_is_disabled():
    net = _repeated_consume_net(1e308, ("1e308", "1e308"))
    m0 = net.initial_marking()
    assert not manual_enabled(net, m0, "t")
    assert not is_enabled(net, m0, "t")


def test_repeated_consume_of_a_counter_place_is_disabled_below_the_sum():
    """Two consume arcs of weight 1 from a counter holding 1: t is disabled, not a counter fault."""
    from qpn.analysis import reachability_graph

    def net(initial):
        return PetriNet("rc", [PlaceDecl("p", C, initial)], ["t"], [Arc("p", "t", "1"), Arc("p", "t", "1")])

    one, two = net(1), net(2)
    assert not is_enabled(one, [1.0], "t")
    final = run_final(one, [1.0], RunConfig())
    assert (final.marking, final.firings, final.status) == ([1.0], 0, TerminalStatus.QUIESCENT)
    graph = reachability_graph(one)
    assert (graph.nodes, graph.edges) == (((1.0,),), ())
    assert is_enabled(two, [2.0], "t")
    assert run_final(two, [2.0], RunConfig()).marking == [0.0]
    graph = reachability_graph(two)
    assert (graph.nodes, graph.edges) == (((2.0,), (0.0,)), ((0, "t", 1),))


def _per_arc_test(cnet, ti):
    """The enabling test as it was generated when every input arc was compared alone."""
    terms = []
    for i, j in enumerate(cnet.trans[ti].in_arcs):
        arc = cnet.net.arcs[j]
        p = cnet.net.place_index[arc.source]
        if arc.kind == ArcKind.DRAIN:
            terms.append(f"(m[{p}] > 1e-12 or m[{p}] < -1e-12)")
            continue
        tree, value = cnet._weights[j]
        w = _expr._emit(tree, cnet._m)
        if value is None:
            name = f"e{ti}_{i}"
            terms.append(f"((({name} := {w}) - {name} == 0.0 or _fault()) and {name} >= 0.0)")
            terms.append(f"m[{p}] >= {name} - 1e-12")
            continue
        if not value >= 0.0:
            terms.append(f"{w} >= 0.0")
        terms.append(f"m[{p}] >= `{value - 1e-12!r}`")
    return " and ".join(terms) or "True"


def test_enabling_tests_without_repeated_consume_places_are_generated_as_before():
    """Summing changes no byte of a test whose consume arcs name distinct places."""
    from pathlib import Path

    from qpn import netfile
    from qpn.models import slaz_blocking_net, slaz_passing_net

    nets = [measurement_net()[0], entanglement_net(), zeno_net(ProtocolParams(N=6))[0]]
    for n, m in ((2, 2), (3, 2), (320, 25), (47, 23)):
        nets += [slaz_passing_net(ProtocolParams(N=n, M=m))[0], slaz_blocking_net(ProtocolParams(N=n, M=m))[0]]
    nets += [netfile.load(path.read_text()).net
             for path in sorted((Path(__file__).parent / "golden").glob("*.qpn"))]
    compared = repeated = 0
    for net in nets:
        cnet = net.compiled()
        for ti, ct in enumerate(cnet.trans):
            sources = [net.arcs[j].source for j in ct.in_arcs if net.arcs[j].kind == ArcKind.CONSUME]
            if len(sources) == len(set(sources)):
                assert cnet._tests[ti] == _per_arc_test(cnet, ti)
                compared += 1
            else:
                repeated += 1
    assert compared > 100 and repeated == 2  # the golden nets repeated_consume and counters


# --- firing atomicity property over random nets ------------------------------------

_WEIGHTS = ("1", "2", "0.5", "m(q0)", "m(q1)+1", "cos(m(q2))", "m(q0)*m(q1)", "0-m(q3)")


@st.composite
def _random_net_and_marking(draw):
    n_places = draw(st.integers(min_value=2, max_value=4))
    places = [PlaceDecl(f"q{i}", A, 0.0) for i in range(4)]
    n_trans = draw(st.integers(min_value=1, max_value=3))
    arcs = []
    for t in range(n_trans):
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            src = f"q{draw(st.integers(0, n_places - 1))}"
            kind = draw(st.sampled_from([ArcKind.CONSUME, ArcKind.GUARD, ArcKind.DRAIN]))
            weight = f"m({src})" if kind == ArcKind.DRAIN else draw(st.sampled_from(_WEIGHTS))
            arcs.append(Arc(src, f"t{t}", weight, kind))
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            dst = f"q{draw(st.integers(0, n_places - 1))}"
            arcs.append(Arc(f"t{t}", dst, draw(st.sampled_from(_WEIGHTS))))
    net = PetriNet("rand", places, [f"t{t}" for t in range(n_trans)], arcs)
    marking = draw(
        st.lists(
            st.floats(min_value=-8.0, max_value=8.0, allow_nan=False), min_size=4, max_size=4
        )
    )
    return net, marking


@settings(max_examples=200, deadline=None)
@given(_random_net_and_marking())
def test_firing_atomicity(net_and_marking):
    """The generated code agrees with the tree-walk reference bit for bit.

    is_enabled() matches the reference enabling test, and fire() equals the
    marking computed with all weights read pre-fire, or both raise the same
    error class.
    """
    net, marking = net_and_marking
    for tid in net.transition_ids():
        try:
            expected = manual_enabled(net, marking, tid)
        except QpnError as e:
            with pytest.raises(type(e)):
                is_enabled(net, marking, tid)
            continue
        assert is_enabled(net, marking, tid) == expected
        if not expected:
            continue
        try:
            reference = manual_fire(net, marking, tid)
        except QpnError as e:
            with pytest.raises(type(e)):
                fire(net, marking, tid)
            continue
        assert fire(net, marking, tid) == reference


@settings(max_examples=150, deadline=None)
@given(
    _random_net_and_marking(),
    st.integers(min_value=0, max_value=2**16),
    st.booleans(),
)
def test_run_engine_equals_step_loop_on_random_nets(net_and_marking, seed, born):
    """The incremental run engine and a naive step() loop never disagree."""
    from qpn.errors import QpnError

    net, marking = net_and_marking
    policy = Policy.BORN_RANDOM if born else Policy.DETERMINISTIC_PRIORITY
    config = RunConfig(policy=policy, seed=seed, max_steps=12)

    def manual():
        rng = random.Random(seed)
        m = list(marking)
        steps = []
        for _ in range(config.max_steps):
            result = step(net, m, config, rng)
            if result is None:
                return steps, TerminalStatus.QUIESCENT
            steps.append(result)
            m = result[1]
        # the run tests the last marking too, to tell QUIESCENT from STEP_LIMIT
        return steps, TerminalStatus.STEP_LIMIT if enabled_transitions(net, m) else TerminalStatus.QUIESCENT

    try:
        trace = run(net, marking, config)
    except QpnError as e:
        with pytest.raises(type(e)):
            manual()
        return
    steps, status = manual()
    assert list(trace.steps) == steps
    if status == TerminalStatus.QUIESCENT:
        assert trace.status == TerminalStatus.QUIESCENT


# --- exactness of the fused run steps on nets with counter places ---------------------

# counter m0 values validate_marking admits: signed zeros and values within 1e-9 of an integer
_COUNTER_M0 = (0.0, -0.0, 1.0, 2.0, 3.0, 1.0000000001, 0.9999999999, -1e-10, 1e-10, 2.0000000005)
_AMPLITUDE_M0 = (0.0, -0.0, 0.5, -1.25, 1e-10, 3.0)
_MIXED_WEIGHTS = (
    "1", "2", "0", "-0", "0.5", "0-1", "1.0000000001", "m(q0)", "m(q1)+1", "m(q2)*0.5",
    "cos(pi/(2*2500))", "1/m(q3)", "m(q0)-m(q1)",
)


@st.composite
def _counter_net_and_marking(draw):
    """Random nets mixing counter and amplitude places, with an admissible m0."""
    kinds = [draw(st.sampled_from([C, C, A])) for _ in range(4)]
    places = [PlaceDecl(f"q{i}", kind, 0.0) for i, kind in enumerate(kinds)]
    n_trans = draw(st.integers(min_value=1, max_value=4))
    transitions = [TransitionDecl(f"t{t}", draw(st.integers(0, 1))) for t in range(n_trans)]
    arcs = []
    for t in range(n_trans):
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            src = f"q{draw(st.integers(0, 3))}"
            kind = draw(st.sampled_from([ArcKind.CONSUME, ArcKind.CONSUME, ArcKind.GUARD, ArcKind.DRAIN]))
            weight = f"m({src})" if kind == ArcKind.DRAIN else draw(st.sampled_from(_MIXED_WEIGHTS))
            arcs.append(Arc(src, f"t{t}", weight, kind))
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            dst = f"q{draw(st.integers(0, 3))}"
            arcs.append(Arc(f"t{t}", dst, draw(st.sampled_from(_MIXED_WEIGHTS))))
    net = PetriNet("mixed", places, transitions, arcs)
    marking = [
        draw(st.sampled_from(_COUNTER_M0 if kind == C else _AMPLITUDE_M0)) for kind in kinds
    ]
    return net, marking


def _bits(m):
    """The exact bytes of a marking: -0.0 and 0.0 differ."""
    return struct.pack(f"{len(m)}d", *m)


def _step_loop(net, m0, config):
    """run() spelled as a step() loop; errors carry the step run() reports.

    An enabling test that faults before step i re-tests the marking that step
    i-1 wrote, which run() reports as part of step i-1.  After the last step
    the run still tests the marking, to tell QUIESCENT from STEP_LIMIT, so
    the loop does too.
    """
    rng = random.Random(config.seed)
    m = list(m0)
    steps = []
    for i in range(config.max_steps + 1):
        try:
            enabled = enabled_transitions(net, m)
        except QpnError as e:
            e.step_index = max(i - 1, 0)
            return steps, e
        if i == config.max_steps:
            return steps, TerminalStatus.STEP_LIMIT if enabled else TerminalStatus.QUIESCENT
        try:
            result = step(net, m, config, rng)
        except QpnError as e:
            e.step_index = i
            return steps, e
        if result is None:
            return steps, TerminalStatus.QUIESCENT
        steps.append(result)
        m = result[1]


def reference_fire(net, m, tid):
    """Tree-walk firing with the reference result checks.

    After manual_fire: a deposit target that is not finite raises, then each
    counter place the transition touches is snapped to the integer within
    1e-9 of it, or raises.
    """
    out = manual_fire(net, m, tid)
    for arc in net.output_arcs(tid):
        value = out[net.place_index[arc.target]]
        if not math.isfinite(value):
            raise NonFiniteResultError(f"firing {tid} left place {arc.target} at {value!r}")
    touched = [
        arc.source if arc.target == tid else arc.target
        for arc in net.arcs
        if arc.source == tid or (arc.target == tid and arc.kind != ArcKind.GUARD)
    ]
    for place_id in dict.fromkeys(touched):
        p = net.place_index[place_id]
        if net.places[p].kind == C:
            value = out[p]
            nearest = round(value)
            if value < -1e-9 or abs(value - nearest) > 1e-9:
                raise CounterViolationError(
                    f"firing {tid} left counter place {place_id} at {value!r}"
                )
            out[p] = nearest + 0.0
    return out


@settings(max_examples=300, deadline=None)
@given(_counter_net_and_marking(), st.integers(min_value=0, max_value=2**16), st.booleans())
def test_run_matches_step_loop_bit_for_bit_on_counter_nets(net_and_marking, seed, born):
    """Every marking, status and error of run() equals the step() loop's, to the bit."""
    net, marking = net_and_marking
    policy = Policy.BORN_RANDOM if born else Policy.DETERMINISTIC_PRIORITY
    config = RunConfig(policy=policy, seed=seed, max_steps=10)
    expected_steps, expected_end = _step_loop(net, marking, config)
    try:
        trace = run(net, marking, config)
    except QpnError as e:
        assert isinstance(expected_end, QpnError), f"run raised {e!r}, the loop ended {expected_end}"
        assert type(e) is type(expected_end)
        assert str(e) == str(expected_end)
        assert e.step_index == expected_end.step_index
        return
    assert trace.status == expected_end
    assert [(tid, _bits(m)) for tid, m in trace.steps] == [
        (tid, _bits(m)) for tid, m in expected_steps
    ]
    for _, m in trace.steps:
        validate_marking(net, m)
    final = run_final(net, marking, config)
    assert _bits(final.marking) == _bits(trace.final)
    assert final.firings == len(trace.steps)


@settings(max_examples=300, deadline=None)
@given(_counter_net_and_marking())
def test_fire_matches_reference_on_counter_nets(net_and_marking):
    """fire() equals the tree-walk firing with counter snapping, to the bit."""
    net, marking = net_and_marking
    for tid in net.transition_ids():
        try:
            if not manual_enabled(net, marking, tid):
                continue
            expected = reference_fire(net, marking, tid)
        except QpnError as e:
            with pytest.raises(type(e)) as err:
                fire(net, marking, tid)
            if not isinstance(e, EvaluationError):  # the engine also names the arc
                assert str(err.value) == str(e)
            continue
        assert _bits(fire(net, marking, tid)) == _bits(expected)


def _recheck_fault_net():
    # t1 drains p2 and deposits 1/m(p2), read pre-fire; the re-test of t2,
    # whose guard weight is 1/m(p2), then divides by zero.  t1's own
    # weight faults on the post-fire marking too, so diagnosing t1 there
    # would name the wrong arc.
    return PetriNet(
        "recheck",
        [PlaceDecl("c", C, 1), PlaceDecl("p2", A, 1.0), PlaceDecl("out", A, 0.0)],
        ["t1", "t2"],
        [
            Arc("c", "t1"),
            Arc("p2", "t1", "m(p2)", ArcKind.DRAIN),
            Arc("t1", "out", "1/m(p2)"),
            Arc("out", "t2", "1/m(p2)", ArcKind.GUARD),
        ],
    )


class TestFusedStep:
    @pytest.mark.parametrize("runner", [run, run_final])
    def test_recheck_fault_names_retested_arc(self, runner):
        net = _recheck_fault_net()
        with pytest.raises(DivisionByZeroError) as err:
            runner(net, net.initial_marking(), RunConfig())
        assert err.value.step_index == 0
        assert str(err.value).startswith("arc out->t2 w=1/m(p2): ")
        assert str(err.value).endswith("(at step 0)")

    def test_fire_leaves_a_recheck_fault_to_the_next_enabling_test(self):
        """fire and step run t1's step, whose re-test of t2 faults after the firing."""
        net = _recheck_fault_net()
        m0 = net.initial_marking()
        assert fire(net, m0, "t1") == [0.0, 0.0, 1.0]
        assert step(net, m0, RunConfig(), random.Random(0)) == ("t1", [0.0, 0.0, 1.0])
        with pytest.raises(DivisionByZeroError, match=r"^arc out->t2 w=1/m\(p2\): "):
            enabled_transitions(net, [0.0, 0.0, 1.0])

    def test_fire_checks_the_marking(self):
        net = PetriNet("c", [PlaceDecl("a", C, 1)], ["t"], [Arc("a", "t")])
        for marking in ([math.inf], [math.nan], [0.5], [-1.0]):
            with pytest.raises(QpnError):
                fire(net, marking, "t")
            with pytest.raises(QpnError):
                step(net, marking, RunConfig(), random.Random(0))

    def test_counter_snaps_like_round(self):
        # 1.0000000001 - 1 is not 0 and -0.0 is not 0.0: both snap to 0.0
        net = PetriNet(
            "snap",
            [PlaceDecl("a", C, 0), PlaceDecl("b", C, 0)],
            ["t"],
            [Arc("a", "t"), Arc("t", "b", "-0")],
        )
        out = fire(net, [1.0000000001, -0.0], "t")
        assert _bits(out) == _bits([0.0, 0.0])
        final = run_final(net, [1.0000000001, -0.0], RunConfig())
        assert _bits(final.marking) == _bits([0.0, 0.0])

    @pytest.mark.parametrize(
        "weight, overflows",
        [(repr(2.0**970), True), (repr(math.nextafter(2.0**970, 0.0)), False)],
    )
    def test_constant_deposit_overflow_bound(self, weight, overflows):
        # the largest float plus half its ulp rounds to inf; anything less stays finite
        top = sys.float_info.max
        net = PetriNet(
            "edge", [PlaceDecl("c", C, 1), PlaceDecl("a", A, top)], ["t"],
            [Arc("c", "t"), Arc("t", "a", weight)],
        )
        if overflows:
            with pytest.raises(NonFiniteResultError):
                fire(net, net.initial_marking(), "t")
            with pytest.raises(NonFiniteResultError):
                run_final(net, net.initial_marking(), RunConfig())
        else:
            assert fire(net, net.initial_marking(), "t")[1] == top
            assert run_final(net, net.initial_marking(), RunConfig()).marking[1] == top

    def test_non_finite_constant_weight(self):
        # trees built through the API may hold inf; 1/inf folds to 0.0
        net = PetriNet(
            "inf", [PlaceDecl("c", C, 2), PlaceDecl("a", A, 0.0), PlaceDecl("b", A, 0.0)], ["t", "u"],
            [Arc("c", "t"), Arc("t", "a", Divide(Constant(1.0), Constant(math.inf))),
             Arc("c", "u"), Arc("u", "b", Constant(math.inf))],
        )
        assert fire(net, net.initial_marking(), "t") == [1.0, 0.0, 0.0]
        with pytest.raises(NonFiniteResultError) as err:
            fire(net, net.initial_marking(), "u")
        assert "arc u->b" in str(err.value)

    def test_folded_weight_is_bit_identical(self):
        net = PetriNet(
            "fold", [PlaceDecl("c", C, 1), PlaceDecl("a", A, 0.25)], ["t"],
            [Arc("c", "t"), Arc("t", "a", "cos(pi/(2*2500))*m(a)-sin(pi/3)^2")],
        )
        expected = 0.25 + (math.cos(math.pi / (2.0 * 2500.0)) * 0.25 - math.pow(math.sin(math.pi / 3.0), 2.0))
        assert _bits(run_final(net, net.initial_marking(), RunConfig()).marking) == _bits([0.0, expected])


_RETEST_NETS = {
    # 1e-10 added to a counter at 1.0000000001 is snapped to 1.0: the guard turns off
    "snap-lowers": (
        [PlaceDecl("go", C, 1), PlaceDecl("a", C, 1)],
        [Arc("go", "t1"), Arc("t1", "a", "0.0000000001"), Arc("a", "t2", "1.0000000001", ArcKind.GUARD)],
        [1.0, 1.0000000001],
    ),
    # a deposit that raises a drained place to zero disables the drain
    "drain-not-monotone": (
        [PlaceDecl("go", C, 1), PlaceDecl("a", A, -1.0), PlaceDecl("out", A, 0.0)],
        [Arc("go", "t1"), Arc("t1", "a", "1"), Arc("a", "t2", "m(a)", ArcKind.DRAIN), Arc("t2", "out")],
        None,
    ),
    # raising a lowers the guard test m(x) >= m(a)
    "weight-reads-place": (
        [PlaceDecl("go", C, 1), PlaceDecl("a", A, 0.0), PlaceDecl("x", A, 0.5)],
        [Arc("go", "t1"), Arc("t1", "a", "1"), Arc("x", "t2", "m(a)", ArcKind.GUARD)],
        None,
    ),
    # consume 2 then deposit 1 lowers the place although the last change raises it
    "mixed-changes": (
        [PlaceDecl("go", C, 1), PlaceDecl("a", C, 2)],
        [Arc("go", "t1"), Arc("a", "t1", "2"), Arc("t1", "a", "1"), Arc("a", "t2", "2", ArcKind.GUARD)],
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(_RETEST_NETS))
def test_retest_after_each_firing(name):
    """Each net fires t1 only: t1 turns t2 off although t2 was enabled at first."""
    places, arcs, m0 = _RETEST_NETS[name]
    net = PetriNet(name, places, ["t1", "t2"], arcs)
    m0 = m0 or net.initial_marking()
    assert enabled_transitions(net, m0) == ["t1", "t2"]
    config = RunConfig(max_steps=5)
    trace = run(net, m0, config)
    assert trace.fired() == ["t1"]
    assert trace.status == TerminalStatus.QUIESCENT
    expected_steps, _ = _step_loop(net, m0, config)
    assert [(tid, _bits(m)) for tid, m in trace.steps] == [(tid, _bits(m)) for tid, m in expected_steps]


def test_first_faulting_retest_in_ordinal_order():
    # draining z makes the weights of t1 and t2 divide by zero; a step() loop
    # tests t1 first, and so does the run
    net = PetriNet(
        "twofaults",
        [PlaceDecl("go", C, 1), PlaceDecl("z", A, 1.0), PlaceDecl("x", A, 1.0)],
        ["t0", "t1", "t2"],
        [
            Arc("go", "t0"),
            Arc("z", "t0", "m(z)", ArcKind.DRAIN),
            Arc("x", "t2", "2/m(z)", ArcKind.GUARD),
            Arc("x", "t1", "1/m(z)", ArcKind.GUARD),
        ],
    )
    _, expected = _step_loop(net, net.initial_marking(), RunConfig())
    with pytest.raises(DivisionByZeroError) as err:
        run_final(net, net.initial_marking(), RunConfig())
    assert str(err.value) == str(expected)
    assert str(err.value).startswith("arc x->t1 w=1/m(z): ")


# --- conflict groups against a transitive closure ----------------------------------

_OUTPUTS = ("0", "0.5", "1/sqrt(3)", "2", "m(q0)", "m(q1)*0.5")


@st.composite
def _conflict_net_and_marking(draw):
    """Nets whose transitions share consume, drain and guard places, with mixed priorities."""
    n_trans = draw(st.integers(min_value=1, max_value=6))
    transitions = [TransitionDecl(f"t{t}", draw(st.integers(0, 2))) for t in range(n_trans)]
    arcs = []
    for t in range(n_trans):
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            src = f"q{draw(st.integers(0, 3))}"
            kind = draw(st.sampled_from([ArcKind.CONSUME, ArcKind.GUARD, ArcKind.DRAIN]))
            weight = f"m({src})" if kind == ArcKind.DRAIN else draw(st.sampled_from(["0", "0.5", "1"]))
            arcs.append(Arc(src, f"t{t}", weight, kind))
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            arcs.append(Arc(f"t{t}", f"q{draw(st.integers(0, 3))}", draw(st.sampled_from(_OUTPUTS))))
    places = [PlaceDecl(f"q{i}", A, 0.0) for i in range(4)]
    net = PetriNet("conflicts", places, transitions, arcs)
    marking = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]), min_size=4, max_size=4))
    return net, marking


def _closure_groups(net, m):
    """Enabled transitions linked by shared consume/drain places, closed transitively (Warshall)."""
    enabled = enabled_transitions(net, m)
    shared = {t: {a.source for a in net.input_arcs(t) if a.kind != ArcKind.GUARD} for t in enabled}
    linked = {(a, b) for a in enabled for b in enabled if a == b or shared[a] & shared[b]}
    for k in enabled:
        for a in enabled:
            for b in enabled:
                if (a, k) in linked and (k, b) in linked:
                    linked.add((a, b))
    rank = {t.id: (t.priority, i) for i, t in enumerate(net.transitions)}
    groups = {frozenset(b for b in enabled if (a, b) in linked) for a in enabled}
    ordered = sorted(groups, key=lambda g: min(rank[t] for t in g))
    return [sorted(g, key=lambda t: rank[t][1]) for g in ordered], rank


@settings(max_examples=300, deadline=None)
@given(_conflict_net_and_marking(), st.integers(min_value=0, max_value=2**16))
def test_conflict_groups_match_transitive_closure(net_and_marking, seed):
    """conflict_groups equals a closure built from the arcs, and a Born step draws
    from the lead transition's group with squared weights summed in arc order."""
    net, m = net_and_marking
    groups, rank = _closure_groups(net, m)
    assert conflict_groups(net, m) == groups
    if not groups:
        assert step(net, m, RunConfig(Policy.BORN_RANDOM, seed), random.Random(seed)) is None
        return
    members = sorted(groups[0], key=rank.get)
    env = dict(zip(net.place_ids(), m))
    # added in arc order: sum() compensates its rounding from Python 3.12 on
    squares = [[w * w for w in (evaluate(a.parsed_weight(), env) for a in net.output_arcs(t))] for t in members]
    weights = [functools.reduce(operator.add, terms, 0.0) for terms in squares]
    got = net.compiled().born_weights([net.transition_index[t] for t in members], m)
    assert [struct.pack("d", w) for w in got] == [struct.pack("d", w) for w in weights]
    total = functools.reduce(operator.add, weights, 0.0)
    config = RunConfig(Policy.BORN_RANDOM, seed)
    if total <= 0.0:
        with pytest.raises(ZeroWeightGroupError):
            step(net, m, config, random.Random(seed))
        return
    draw, acc, chosen = random.Random(seed).random() * total, 0.0, members[-1]
    for t, w in zip(members, weights):
        acc += w
        if draw < acc:
            chosen = t
            break
    assert step(net, m, config, random.Random(seed)) == (chosen, fire(net, m, chosen))


def test_born_total_adds_the_weights_in_order():
    """The squared weights 1, 1e-16, 1e-16 total 1.0 added in order, an ulp below math.fsum (and below
    sum() from Python 3.12 on): a Born draw and the oracle both scale by the in-order total."""
    net = PetriNet("ulp", [PlaceDecl("p", C, 1), PlaceDecl("a", A), PlaceDecl("b", A), PlaceDecl("c", A)],
                   ["t0", "t1", "t2"],
                   [Arc("p", "t0"), Arc("p", "t1"), Arc("p", "t2"),
                    Arc("t0", "a", "1"), Arc("t1", "b", "1e-8"), Arc("t2", "c", "1e-8")])
    m0, cnet = net.initial_marking(), net.compiled()
    weights = cnet.born_weights([0, 1, 2], m0)
    total = functools.reduce(operator.add, weights, 0.0)
    assert total == 1.0 and math.fsum(weights) == 1.0000000000000002
    members, sums = net_module._born_group(cnet, m0, [0, 1, 2])
    assert members == [0, 1, 2] and struct.pack("d", sums[-1]) == struct.pack("d", total)
    assert exact_measurement_dist(net) == [(t.id, w / total) for t, w in zip(net.transitions, weights)]
    for seed in range(50):
        draw, acc, chosen = random.Random(seed).random() * total, 0.0, "t2"
        for tid, w in zip(("t0", "t1", "t2"), weights):
            acc += w
            if draw < acc:
                chosen = tid
                break
        assert step(net, m0, RunConfig(Policy.BORN_RANDOM, seed), random.Random(seed))[0] == chosen
