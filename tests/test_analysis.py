"""Predicates, reachability graphs, invariants, empirical statistics."""

import math
import re
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpn.analysis import (
    And,
    Compare,
    Not,
    Or,
    check_invariant,
    empirical_distribution,
    evaluate_predicate,
    incidence_matrix,
    parse_predicate,
    predicate_places,
    reachability_graph,
    run_seed,
    to_dot,
)
from qpn.errors import (
    ExprSyntaxError,
    NonConstantWeightsError,
    NotIntegerNetError,
    QpnError,
    StateExplosionError,
)
from qpn.expr import MarkRef
from qpn.models import ProtocolParams, entanglement_net, measurement_net, zeno_net
from qpn.net import (
    Arc,
    ArcKind,
    PetriNet,
    PlaceDecl,
    PlaceKind,
    TransitionDecl,
    enabled_transitions,
    fire,
    is_enabled,
)
from qpn.quantum import QuantumMapping

C = PlaceKind.COUNTER


class TestPredicateParsing:
    def test_simple_comparison(self):
        pred = parse_predicate("m(p3)==m(p5)")
        assert pred == Compare(MarkRef("p3"), "==", MarkRef("p5"))

    def test_conjunction(self):
        pred = parse_predicate("m(p3)==m(p5) AND m(p4)==m(p6)")
        assert isinstance(pred, And)

    def test_precedence_and_binds_tighter_than_or(self):
        pred = parse_predicate("m(a)==1 OR m(b)==1 AND m(c)==1")
        assert isinstance(pred, Or)
        assert isinstance(pred.right, And)

    def test_not_and_grouping(self):
        pred = parse_predicate("NOT (m(a)==1 OR m(b)>2)")
        assert isinstance(pred, Not)
        assert isinstance(pred.operand, Or)

    def test_parenthesized_expression_left_side(self):
        pred = parse_predicate("(m(a)+1)*2 <= 6")
        assert isinstance(pred, Compare)
        assert pred.op == "<="

    def test_keywords_case_insensitive(self):
        assert isinstance(parse_predicate("0==0 and 1==1"), And)

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse_predicate("m(a)==1 m(b)==2")

    def test_missing_comparison(self):
        with pytest.raises(ExprSyntaxError):
            parse_predicate("m(a)+2")

    def test_collected_places(self):
        pred = parse_predicate("m(a)==1 AND NOT (m(b)<m(c))")
        assert predicate_places(pred) == {"a", "b", "c"}


class TestPredicateEvaluation:
    def test_tolerant_equality(self):
        pred = parse_predicate("m(a)==1")
        assert evaluate_predicate(pred, {"a": 1.0 + 5e-10})
        assert not evaluate_predicate(pred, {"a": 1.0 + 5e-9})

    def test_strict_less_than(self):
        pred = parse_predicate("m(a)<1")
        assert evaluate_predicate(pred, {"a": 0.9})
        assert not evaluate_predicate(pred, {"a": 1.0})
        assert not evaluate_predicate(pred, {"a": 1.0 - 5e-10})

    def test_boolean_operators(self):
        env = {"a": 1.0, "b": 2.0}
        assert evaluate_predicate(parse_predicate("m(a)==1 AND m(b)==2"), env)
        assert evaluate_predicate(parse_predicate("m(a)==9 OR m(b)==2"), env)
        assert evaluate_predicate(parse_predicate("NOT m(a)==9"), env)
        assert not evaluate_predicate(parse_predicate("m(a)!=1"), env)


class TestReachabilityGraph:
    def test_entanglement_counts(self):
        graph = reachability_graph(entanglement_net())
        assert len(graph.nodes) == 8
        assert len(graph.edges) == 12
        assert graph.root == (1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        assert len(graph.quiescent_nodes()) == 3

    def test_no_transition_net(self):
        net = PetriNet("static", [PlaceDecl("p1", C, 1)], [], [])
        graph = reachability_graph(net)
        assert len(graph.nodes) == 1
        assert graph.edges == ()

    def test_state_budget(self):
        with pytest.raises(StateExplosionError):
            reachability_graph(entanglement_net(), max_states=2)

    def test_amplitude_net_rejected(self):
        with pytest.raises(NotIntegerNetError):
            reachability_graph(zeno_net(ProtocolParams(N=4))[0])

    def test_graph_soundness(self):
        """Every stored edge re-verifies against is_enabled and fire."""
        net = entanglement_net()
        graph = reachability_graph(net)
        for src, tid, dst in graph.edges:
            before = list(graph.nodes[src])
            assert is_enabled(net, before, tid)
            assert tuple(fire(net, before, tid)) == graph.nodes[dst]

    def test_deterministic_order(self):
        a = reachability_graph(entanglement_net())
        b = reachability_graph(entanglement_net())
        assert a.nodes == b.nodes
        assert a.edges == b.edges


class TestCheckInvariant:
    def test_correlation_holds(self):
        graph = reachability_graph(entanglement_net())
        result = check_invariant(graph, "m(p3)==m(p5) AND m(p4)==m(p6)")
        assert result.holds
        assert bool(result)

    def test_counterexample_with_path(self):
        graph = reachability_graph(entanglement_net())
        result = check_invariant(graph, "m(p3)==0")
        assert not result.holds
        assert result.path == ("t1",)
        assert result.counterexample[2] == 1.0

    def test_tautology(self):
        graph = reachability_graph(entanglement_net())
        assert check_invariant(graph, "0==0").holds


class TestEmpiricalDistribution:
    def test_measurement_statistics(self):
        net, mapping = measurement_net()
        runs = 20_000
        dist = empirical_distribution(net, mapping, runs=runs, seed=42)
        sigma = math.sqrt((1 / 3) * (2 / 3) / runs)
        assert sum(dist.counts.values()) == runs
        for label in ("e1", "e2", "e3"):
            assert abs(dist.frequency((label,)) - 1 / 3) <= 4 * sigma

    def test_entanglement_outcomes_fully_correlated(self):
        net = entanglement_net()
        mapping = QuantumMapping(
            assignments=(("p3", "A=1"), ("p5", "B=0"), ("p4", "A=0"), ("p6", "B=1"))
        )
        dist = empirical_distribution(net, mapping, runs=2000, seed=7)
        for outcome in dist.counts:
            assert ("A=1" in outcome) == ("B=0" in outcome)
            assert ("A=0" in outcome) == ("B=1" in outcome)

    def test_single_run(self):
        net, mapping = measurement_net()
        dist = empirical_distribution(net, mapping, runs=1, seed=3)
        assert sum(dist.counts.values()) == 1
        (outcome,) = dist.counts
        assert dist.frequency(outcome) == 1.0
        assert dist.stderr(outcome) == 0.0

    def test_bit_reproducible(self):
        net, mapping = measurement_net()
        a = empirical_distribution(net, mapping, runs=500, seed=11)
        b = empirical_distribution(net, mapping, runs=500, seed=11)
        assert a == b

    def test_seeds_differ_but_agree_statistically(self):
        net, mapping = measurement_net()
        a = empirical_distribution(net, mapping, runs=20_000, seed=1)
        b = empirical_distribution(net, mapping, runs=20_000, seed=2)
        assert a != b
        for label in ("e1", "e2", "e3"):
            assert abs(a.frequency((label,)) - b.frequency((label,))) < 0.02

    def test_run_seed_mixing(self):
        seeds = {run_seed(0, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert run_seed(123, 45) == run_seed(123, 45)


class TestIncidenceMatrix:
    def test_entanglement_rows(self):
        net = entanglement_net()
        matrix = incidence_matrix(net)
        t1 = matrix[net.transition_index["t1"]]
        assert t1 == [-1.0, 0.0, 1.0, 0.0, 1.0, 0.0]

    def test_guard_only_net_is_zero(self):
        net = PetriNet(
            "g",
            [PlaceDecl("p1", C, 1)],
            ["t1"],
            [Arc("p1", "t1", "1", ArcKind.GUARD)],
        )
        assert incidence_matrix(net) == [[0.0]]

    def test_real_entries_allowed(self):
        net, _ = measurement_net()
        matrix = incidence_matrix(net)
        row = matrix[0]
        assert row[0] == -1.0
        assert row[1] == pytest.approx(1.0 / math.sqrt(3.0))

    def test_marking_dependent_weight_rejected(self):
        net, _ = zeno_net(ProtocolParams(N=3))
        with pytest.raises(NonConstantWeightsError):
            incidence_matrix(net)


class TestDotExport:
    def test_entanglement_dot(self):
        graph = reachability_graph(entanglement_net())
        dot = to_dot(graph)
        assert dot.startswith('digraph "entanglement" {')
        assert dot.count("->") == 12
        assert 's0 [label="p1=1 p2=1"' in dot
        assert '[label="t1"]' in dot
        assert dot.endswith("}\n")


# --- the BFS against one written from enabled_transitions and fire ------------------


@st.composite
def _counter_net(draw):
    """Counter nets with constant integer weights, guards, shared inputs and priorities.

    No transition deposits more than it consumes, so the token total never
    grows and every graph is finite.
    """
    n_places = draw(st.integers(min_value=2, max_value=4))
    places = [PlaceDecl(f"p{i}", C, draw(st.sampled_from([1, 2, 0, 3]))) for i in range(n_places)]
    place = st.integers(0, n_places - 1).map(lambda i: f"p{i}")
    n_trans = draw(st.integers(min_value=1, max_value=6))
    transitions = [TransitionDecl(f"t{t}", draw(st.integers(0, 2))) for t in range(n_trans)]
    arcs = []
    for t in range(n_trans):
        budget = 0
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            weight = draw(st.sampled_from([1, 2, 0]))
            budget += weight
            arcs.append(Arc(draw(place), f"t{t}", draw(st.sampled_from([str(weight), f"{weight}+0"]))))
        for _ in range(draw(st.integers(min_value=0, max_value=1))):
            arcs.append(Arc(draw(place), f"t{t}", str(draw(st.integers(0, 2))), ArcKind.GUARD))
        while budget and not draw(st.integers(0, 3)) == 3:
            weight = draw(st.integers(1, budget))
            budget -= weight
            arcs.append(Arc(f"t{t}", draw(place), str(weight)))
    return PetriNet("counters", places, transitions, arcs)


def _reference_graph(net):
    """Nodes, edges and parents of a BFS that fires every enabled transition in ordinal order."""
    root = tuple(net.initial_marking())
    index, nodes, parents, edges = {root: 0}, [root], [None], []
    queue = deque([0])
    while queue:
        src = queue.popleft()
        for tid in enabled_transitions(net, nodes[src]):
            key = tuple(fire(net, nodes[src], tid))
            if key not in index:
                index[key] = len(nodes)
                nodes.append(key)
                parents.append((src, tid))
                queue.append(index[key])
            edges.append((src, tid, index[key]))
    return tuple(nodes), tuple(edges), tuple(parents)


@settings(max_examples=300, deadline=None)
@given(_counter_net())
def test_graph_matches_a_bfs_of_enabled_transitions_and_fire(net):
    try:
        expected = _reference_graph(net)
    except QpnError as e:  # two consumes of one place can drive a counter negative
        with pytest.raises(type(e), match=re.escape(str(e))):
            reachability_graph(net)
        return
    graph = reachability_graph(net)
    assert (graph.nodes, graph.edges, graph.parents) == expected
