"""Predicates, reachability graphs, invariants, empirical statistics."""

import dataclasses
import functools
import math
import re
import struct
import tracemalloc
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpn import analysis as analysis_module
from qpn import net as net_module
from qpn.analysis import (
    CMP_EPSILON,
    And,
    Compare,
    Not,
    Or,
    ReachabilityGraph,
    check_invariant,
    empirical_distribution,
    evaluate_predicate,
    incidence_matrix,
    outcome,
    parse_predicate,
    predicate_places,
    reachability_graph,
    run_seed,
    to_dot,
)
from qpn import netfile
from qpn.errors import (
    CounterViolationError,
    DivisionByZeroError,
    ExprSyntaxError,
    NonConstantWeightsError,
    NotIntegerNetError,
    NonFiniteResultError,
    PredicateError,
    QpnError,
    StateExplosionError,
    StepLimitError,
    UnknownPlaceError,
    ZeroWeightGroupError,
)
from qpn.expr import Add, Constant, Cos, MarkRef, Subtract, parse
from qpn.models import ProtocolParams, entanglement_net, measurement_net, zeno_net
from qpn.net import (
    Arc,
    ArcKind,
    BornTable,
    PetriNet,
    PlaceDecl,
    PlaceKind,
    Policy,
    RunConfig,
    TerminalStatus,
    TransitionDecl,
    enabled_transitions,
    fire,
    is_enabled,
    run_final,
)
from qpn.oracle import bfs_reach
from qpn.quantum import QuantumMapping

A = PlaceKind.AMPLITUDE
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


def _deep_predicate(shape, levels):
    """A predicate built in Python that nests levels levels: AND, NOT or weight operators, or half of each."""
    def nots(pred, n):
        return functools.reduce(lambda inner, _: Not(inner), range(n), pred)

    def sums(n):
        return functools.reduce(Add, [MarkRef("p1")] * (n + 1))

    true = Compare(MarkRef("p1"), ">=", Constant(0.0))
    return {"and": lambda: functools.reduce(And, [true] * (levels + 1)),
            "not": lambda: nots(true, levels),
            "sum": lambda: Compare(sums(levels), ">=", Constant(0.0)),
            "not-sum": lambda: nots(Compare(Constant(0.0), "<=", sums(levels - levels // 2)), levels // 2),
            "minus": lambda: Compare(functools.reduce(lambda x, y: Subtract(y, x), [MarkRef("p1")] * (levels + 1)),
                                     ">=", Constant(-1e9))}[shape]()


@pytest.mark.parametrize("shape, levels", [("and", 299), ("not", 3000), ("sum", 3000), ("and", 101), ("not", 101),
                                           ("sum", 101), ("not-sum", 101), ("minus", 101)])
def test_predicate_built_in_python_deeper_than_the_bound_is_rejected(shape, levels):
    """Counted as the predicate parser counts depth, before any code is emitted; at most 101 levels are walked."""
    graph = reachability_graph(entanglement_net())
    with pytest.raises(PredicateError, match="predicate nests deeper than 100 levels"):
        check_invariant(graph, _deep_predicate(shape, levels))


@pytest.mark.parametrize("shape", ["and", "not", "sum", "not-sum", "minus"])
def test_predicate_built_in_python_at_the_bound_is_checked(shape):
    graph = reachability_graph(entanglement_net())
    pred = _deep_predicate(shape, 100)
    result = check_invariant(graph, pred)
    assert result.holds and all(evaluate_predicate(pred, dict(zip(graph.net.place_ids(), node))) for node in graph.nodes)


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


# --- Born sweeps against one reference run per seed ---------------------------------

GOLDEN = Path(__file__).parent / "golden"


def _reference_sweep(net, mapping, runs, seed):
    """empirical_distribution spelled as one run_final per seed: the counts, or the error it raises."""
    m0 = net.initial_marking()
    counts = {}
    for i in range(runs):
        config = analysis_module.RunConfig(policy=Policy.BORN_RANDOM, seed=run_seed(seed, i))
        try:
            final = run_final(net, m0, config)
        except QpnError as e:
            return e
        if final.status != TerminalStatus.QUIESCENT:
            return StepLimitError(f"run {i} did not reach quiescence within {config.max_steps} steps")
        key = outcome(net, mapping, final.marking)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _check_sweep(net, mapping, runs, seed):
    """The sweep gives the reference counts, or raises its error class, message and step."""
    expected = _reference_sweep(net, mapping, runs, seed)
    if isinstance(expected, QpnError):
        with pytest.raises(type(expected)) as raised:
            empirical_distribution(net, mapping, runs, seed=seed)
        assert (str(raised.value), raised.value.step_index) == (str(expected), expected.step_index)
    else:
        dist = empirical_distribution(net, mapping, runs, seed=seed)
        assert (dist.runs, dist.counts) == (runs, expected)
    return expected


@st.composite
def _chained_branches(draw):
    """Lanes of Born branches, each firing hands its lane's token to the next stage.

    Every branch deposits into one of a shared pool of mapped amplitude
    places, some with a weight that reads the pool, so that paths merge and
    markings hold -0.0; transitions draw priority ranks.
    """
    pool = draw(st.integers(min_value=1, max_value=4))
    places = [PlaceDecl(f"a{i}", A, draw(st.sampled_from([0.0, -0.0, 0.5]))) for i in range(pool)]
    transitions, arcs = [], []
    for lane in range(draw(st.integers(min_value=1, max_value=2))):
        stages = draw(st.integers(min_value=1, max_value=3))
        places += [PlaceDecl(f"c{lane}_{k}", C, 1.0 if k == 0 else 0.0) for k in range(stages)]
        for k in range(stages):
            shares = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=4))
            for j, share in enumerate(shares):
                tid = f"t{lane}_{k}_{j}"
                transitions.append(TransitionDecl(tid, draw(st.integers(min_value=0, max_value=2))))
                arcs.append(Arc(f"c{lane}_{k}", tid))
                weight = f"sqrt({share}/{sum(shares)})"
                if draw(st.booleans()):
                    weight += f" + m(a{draw(st.integers(min_value=0, max_value=pool - 1))})/2"
                arcs.append(Arc(tid, f"a{draw(st.integers(min_value=0, max_value=pool - 1))}", weight))
                if k + 1 < stages:
                    arcs.append(Arc(tid, f"c{lane}_{k + 1}"))
    mapping = QuantumMapping(assignments=tuple((f"a{i}", f"e{i}") for i in range(pool)))
    return PetriNet("chained", places, transitions, arcs), mapping


def _branch_net(shares):
    """One counter token split over branches; branch i deposits sqrt(a_i/S) on its own mapped place."""
    places = [PlaceDecl("src", C, 1)] + [PlaceDecl(f"b{i}", A) for i in range(len(shares))]
    arcs = [Arc("src", f"t{i}") for i in range(len(shares))]
    arcs += [Arc(f"t{i}", f"b{i}", f"sqrt({a}/{sum(shares)})") for i, a in enumerate(shares)]
    mapping = QuantumMapping(assignments=tuple((f"b{i}", f"e{i}") for i in range(len(shares))))
    return PetriNet("branches", places, [f"t{i}" for i in range(len(shares))], arcs), mapping


_SEEDS = st.integers(min_value=0, max_value=2**64 - 1)
_RUNS = st.integers(min_value=1, max_value=150)


@settings(max_examples=60, deadline=None)
@given(_chained_branches(), _RUNS, _SEEDS)
def test_sweep_counts_equal_reference_runs_on_chained_branches(case, runs, seed):
    net, mapping = case
    assert not isinstance(_check_sweep(net, mapping, runs, seed), QpnError)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=8), _RUNS, _SEEDS)
def test_sweep_counts_equal_reference_runs_on_branch_nets(shares, runs, seed):
    net, mapping = _branch_net(shares)
    _check_sweep(net, mapping, runs, seed)


@pytest.mark.parametrize("name", ["measurement.qpn", "entanglement_mapped.qpn"])
@pytest.mark.parametrize("seed", [0, 1, 20171704, 2**64 - 1])
def test_sweep_counts_equal_reference_runs_on_golden_nets(name, seed):
    doc = netfile.load((GOLDEN / name).read_text(encoding="utf-8"))
    _check_sweep(doc.net, doc.mapping, 300, seed)


def _with_stage(shares, extra_places, second_stage_arcs):
    """A branch net whose branch t0 also hands a token to a second stage, t0's successor u."""
    net, mapping = _branch_net(shares)
    places = list(net.places) + [PlaceDecl("c2", C, 0.0), *extra_places]
    arcs = list(net.arcs) + [Arc("t0", "c2"), Arc("c2", "u"), *second_stage_arcs]
    return PetriNet("staged", places, [*net.transition_ids(), "u"], arcs), mapping


def _faulting(kind):
    if kind == "zero-group":  # reached at step 1, by the runs that pick t0
        return _with_stage([1, 2, 3], [PlaceDecl("d", A)], [Arc("u", "d", "0")])
    if kind == "weight":  # u's deposit divides by zero at step 1
        return _with_stage([2, 1], [PlaceDecl("z", A), PlaceDecl("d", A)], [Arc("u", "d", "1/m(z)")])
    if kind == "overflow-total":
        net = PetriNet("huge", [PlaceDecl("c", C, 1), PlaceDecl("a", A), PlaceDecl("b", A)], ["t1", "t2"],
                       [Arc("c", "t1"), Arc("c", "t2"), Arc("t1", "a", "1e200"), Arc("t2", "b", "1e200")])
        return net, QuantumMapping(assignments=(("a", "A"), ("b", "B")))
    net, mapping = _branch_net([3, 1, 2, 4])
    places, arcs = list(net.places), list(net.arcs)
    if kind == "counter":  # t2 leaves a fractional counter
        places.append(PlaceDecl("k", C))
        arcs.append(Arc("t2", "k", "0.5"))
    else:  # "recheck": t3 drains q, and the re-test of v, guarded by 1/m(q), divides by zero
        places += [PlaceDecl("q", A, 1.0), PlaceDecl("e", A)]
        arcs += [Arc("q", "t3", "m(q)", ArcKind.DRAIN), Arc("e", "v", "1/m(q)", ArcKind.GUARD)]
        return PetriNet("recheck", places, [*net.transition_ids(), "v"], arcs), mapping
    return PetriNet(kind, places, net.transition_ids(), arcs), mapping


@pytest.mark.parametrize("kind, error, step_index", [
    ("zero-group", ZeroWeightGroupError, 1),
    ("weight", DivisionByZeroError, 1),
    ("overflow-total", NonFiniteResultError, 0),
    ("counter", CounterViolationError, 0),
    ("recheck", DivisionByZeroError, 0),
])
@pytest.mark.parametrize("seed", [3, 20171704])
def test_sweep_raises_the_reference_error(kind, error, step_index, seed):
    """A fault met on a table fill reruns that seed, which raises as a run of the reference loop does."""
    net, mapping = _faulting(kind)
    expected = _check_sweep(net, mapping, 200, seed)
    assert type(expected) is error and expected.step_index == step_index


@dataclasses.dataclass(frozen=True)
class _ShortRun(analysis_module.RunConfig):
    max_steps: int = 60


@pytest.mark.parametrize("laps, quiescent", [(60, True), (61, False)])
def test_sweep_step_limit_equals_reference(monkeypatch, laps, quiescent):
    """A run quiescent after exactly max_steps firings counts; one firing more raises StepLimitError."""
    monkeypatch.setattr(analysis_module, "RunConfig", _ShortRun)
    net, mapping = _branch_net([1, 3])
    places = list(net.places) + [PlaceDecl("n", C, float(laps - 1))]
    arcs = list(net.arcs) + [Arc("n", "tick"), Arc("tick", "b0", "0.25")]
    net = PetriNet("ticking", places, [*net.transition_ids(), "tick"], arcs)
    expected = _check_sweep(net, mapping, 50, 9)
    assert isinstance(expected, StepLimitError) != quiescent


def test_sweep_that_never_quiesces_raises_the_step_limit(monkeypatch):
    """A two-marking cycle: every run walks the table to max_steps, then reruns and raises."""
    monkeypatch.setattr(analysis_module, "RunConfig", _ShortRun)
    net = PetriNet("cycle", [PlaceDecl("p", C, 1.0), PlaceDecl("q", C, 0.0)], ["t1", "t2", "t3"],
                   [Arc("p", "t1"), Arc("t1", "q"), Arc("p", "t2"), Arc("t2", "q"), Arc("q", "t3"), Arc("t3", "p")])
    mapping = QuantumMapping(assignments=(("p", "P"),))
    expected = _check_sweep(net, mapping, 5, 1)
    assert str(expected) == "run 0 did not reach quiescence within 60 steps"


def test_sweep_beyond_the_table_bound_gives_reference_counts(monkeypatch):
    """Markings the full table has no room for are refilled on every visit, with the same counts."""
    net, mapping = _branch_net([1, 2, 3])
    places = list(net.places) + [PlaceDecl("c2", C), PlaceDecl("d", A), PlaceDecl("f", A)]
    arcs = list(net.arcs) + [Arc(f"t{i}", "c2") for i in range(3)]
    arcs += [Arc("c2", "u0"), Arc("c2", "u1"), Arc("u0", "d", "0.5"), Arc("u1", "f", "0.75")]
    net = PetriNet("two-stage", places, [*net.transition_ids(), "u0", "u1"], arcs)
    fills = []
    born_step = BornTable._step

    def counting(table, m, flags):
        fills.append(struct.pack(f"{len(m)}d", *m))
        return born_step(table, m, flags)

    monkeypatch.setattr(BornTable, "_step", counting)
    _check_sweep(net, mapping, 400, 5)
    assert len(fills) == len(set(fills)) == 4  # m0 and the three markings of the second stage
    del fills[:]
    monkeypatch.setattr(net_module, "_TABLE_MAX", 1)
    _check_sweep(net, mapping, 400, 5)
    assert len(set(fills)) == 4 and len(fills) == 401  # each run refills its second-stage marking


def test_each_sweep_run_is_one_run_final_call(monkeypatch):
    """A sweep's runs are run_final calls with their seeds and firing counts, as without a table."""
    doc = netfile.load((GOLDEN / "entanglement_mapped.qpn").read_text(encoding="utf-8"))
    calls = []

    def recording(net, m0, config, *args, **kwargs):
        final = run_final(net, m0, config, *args, **kwargs)
        calls.append((config.seed, final.firings))
        return final

    monkeypatch.setattr(analysis_module, "run_final", recording)
    empirical_distribution(doc.net, doc.mapping, 50, seed=4)
    m0 = doc.net.initial_marking()
    assert calls == [
        (run_seed(4, i), run_final(doc.net, m0, RunConfig(policy=Policy.BORN_RANDOM, seed=run_seed(4, i))).firings)
        for i in range(50)
    ]


def test_table_walks_only_born_runs_of_its_own_net_and_marking():
    net, _ = _branch_net([1, 2])
    m0 = net.initial_marking()
    table = BornTable(net, m0)
    born = RunConfig(policy=Policy.BORN_RANDOM, seed=1)
    assert run_final(net, m0, born, table=table) == run_final(net, m0, born)
    for args, config in [((net, list(m0)), born), ((net, m0), RunConfig(seed=1)),
                         ((_branch_net([1, 2])[0], m0), born)]:
        with pytest.raises(ValueError, match="a Born table walks Born runs"):
            run_final(*args, config, table=table)


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

    def test_golden_entanglement_dot(self):
        """Byte for byte the DOT text written when the BFS still stored its edges."""
        doc = netfile.load((GOLDEN / "entanglement.qpn").read_text(encoding="utf-8"))
        dot = to_dot(reachability_graph(doc.net)).encode("utf-8")
        assert dot == (GOLDEN / "entanglement.dot").read_bytes()


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


def _assert_derived_views(graph, nodes, edges):
    """The quiescent record, a second read of the derived edges and oracle.bfs_reach
    agree with the reference BFS's edges."""
    with_successors = {src for src, _, _ in edges}
    quiescent = [i for i in range(len(nodes)) if i not in with_successors]
    assert graph.quiescent_nodes() == quiescent
    assert graph.edges == edges
    assert bfs_reach(graph.net, max_states=len(nodes)) == (list(nodes), {nodes[i] for i in quiescent})


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
    _assert_derived_views(graph, expected[0], expected[1])


# --- the reachability graph against that BFS, node for node to the bit --------------

# admissible counter values: validate_marking takes 1.0000000001 and 2.9999999999,
# whose firings take the slow path and snap, and -0.0 keeps its sign at the root
_COUNTER_M0 = (0.0, -0.0, 1.0, 2.0, 3.0, 1.0000000001, 2.9999999999)


def _bits(marking):
    return struct.pack(f"{len(marking)}d", *marking)


@settings(max_examples=300, deadline=None)
@given(_counter_net(), st.data())
def test_successors_match_a_bfs_of_enabled_transitions_and_fire_to_the_bit(net, data):
    """Nodes (by their bits), edges and parents equal the reference BFS's, from
    m0 counters that take the slow path; the state budget binds at exactly the
    number of nodes."""
    m0 = [data.draw(st.sampled_from(_COUNTER_M0)) for _ in net.places]
    net.initial_marking = lambda: list(m0)
    try:
        nodes, edges, parents = _reference_graph(net)
    except QpnError as e:
        with pytest.raises(type(e), match=re.escape(str(e))):
            reachability_graph(net)
        return
    graph = reachability_graph(net, max_states=len(nodes))
    assert [_bits(node) for node in graph.nodes] == [_bits(node) for node in nodes]
    assert (graph.edges, graph.parents) == (edges, parents)
    _assert_derived_views(graph, nodes, edges)
    if len(nodes) > 1:
        with pytest.raises(StateExplosionError, match=f"^more than {len(nodes) - 1} reachable markings$"):
            reachability_graph(net, max_states=len(nodes) - 1)


def _product_net(k):
    """k sources; s_i fires a_i into x_i or b_i into y_i, so 3^k markings are reachable."""
    places, transitions, arcs = [], [], []
    for i in range(k):
        places += [PlaceDecl(f"s{i}", C, 1), PlaceDecl(f"x{i}", C), PlaceDecl(f"y{i}", C)]
        transitions += [f"a{i}", f"b{i}"]
        arcs += [Arc(f"s{i}", f"a{i}"), Arc(f"a{i}", f"x{i}"), Arc(f"s{i}", f"b{i}"), Arc(f"b{i}", f"y{i}")]
    return PetriNet("product", places, transitions, arcs)


def test_bfs_peak_memory_is_at_most_600_bytes_a_node():
    """The BFS keeps nodes, parents and the quiescent record, not the 2k*3^(k-1) edges."""
    net = _product_net(8)
    reachability_graph(net, max_states=3**8)  # the successors code is generated before the count
    tracemalloc.start()
    try:
        graph = reachability_graph(net, max_states=3**8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(graph.nodes), len(graph.quiescent_nodes())) == (3**8, 2**8)
    assert peak <= 600 * len(graph.nodes), f"{peak / len(graph.nodes):.1f} B per node"


def test_state_budget_binds_at_exactly_the_number_of_markings():
    assert len(reachability_graph(entanglement_net(), max_states=8).nodes) == 8
    with pytest.raises(StateExplosionError, match="^more than 7 reachable markings$"):
        reachability_graph(entanglement_net(), max_states=7)


def _slow_net(deposit):
    return PetriNet("slow", [PlaceDecl("p", C, 2), PlaceDecl("q", C)], ["t"],
                    [Arc("p", "t"), Arc("t", "q", deposit), Arc("t", "q", deposit)])


def test_slow_path_raises_as_the_step_does():
    """A counter left fractional, or a deposit that overflows, raises the step's error."""
    net = _slow_net("1")
    net.initial_marking = lambda: [1.5, 0.0]
    with pytest.raises(CounterViolationError, match=r"^firing t left counter place p at 0\.5$"):
        reachability_graph(net)
    with pytest.raises(NonFiniteResultError, match="^firing t left place q at inf$"):
        reachability_graph(_slow_net("1e308"))


def test_slow_path_snaps_as_the_step_does():
    net = _slow_net("1")
    net.initial_marking = lambda: [2.0000000001, 0.0]
    graph = reachability_graph(net)
    expected = ((2.0000000001, 0.0), (1.0, 2.0), (0.0, 4.0))  # 1.0000000001 snapped to 1.0
    assert [_bits(node) for node in graph.nodes] == [_bits(m) for m in expected]


# --- generated predicates against evaluate_predicate ---------------------------------

_ENV_PLACES = ("a", "b", "c")
_OPS = ("==", "!=", "<=", ">=", "<", ">")


def _one_node_graph(marking):
    net = PetriNet("env", [PlaceDecl(p, A) for p in _ENV_PLACES], [], [])
    return ReachabilityGraph(net, (tuple(marking),), (None,), (0,))


def _outcome(fn):
    try:
        return fn()
    except QpnError as e:
        return type(e), str(e)


def _assert_agree(pred, marking):
    """check_invariant on a one-node graph answers as evaluate_predicate, or raises its error."""
    expected = _outcome(lambda: evaluate_predicate(pred, dict(zip(_ENV_PLACES, marking))))
    assert _outcome(lambda: check_invariant(_one_node_graph(marking), pred).holds) == expected
    return expected


def _boundary_values():
    """(m(a), m(b)): a - b exactly +-CMP_EPSILON, and the floats just inside and beyond."""
    for b in (0.0, -0.0):
        for at in (CMP_EPSILON, -CMP_EPSILON):
            yield at, b
            yield math.nextafter(at, 0.0), b
            yield math.nextafter(at, math.copysign(math.inf, at)), b
    for a, b in ((1.0 + CMP_EPSILON, 1.0), (1.0, 1.0 + CMP_EPSILON), (3.0, 3.0 - CMP_EPSILON)):
        yield a, b
        yield math.nextafter(a, math.inf), b
        yield math.nextafter(a, -math.inf), b


@pytest.mark.parametrize("op", _OPS)
def test_compiled_comparisons_at_the_tolerance(op):
    seen = set()
    for a, b in _boundary_values():
        for pred in (Compare(MarkRef("a"), op, MarkRef("b")), parse_predicate(f"m(a) {op} m(b) + 0")):
            seen.add(_assert_agree(pred, (a, b, 0.0)))
            seen.add(_assert_agree(pred, (b, a, 0.0)))
    assert seen == {True, False}


_FAULT_CASES = [
    ("1/0 == 0", (0.0, 0.0, 0.0)),
    ("1/m(c) > 0", (0.0, 0.0, -0.0)),
    ("sqrt(m(a)) > 0", (-1.0, 0.0, 0.0)),
    ("cos(m(a)*1e300) == 0", (1e300, 0.0, 0.0)),
    (Compare(Cos(Constant(1e400)), "==", Constant(0.0)), (0.0, 0.0, 0.0)),
    ("m(a)*m(a) > 0", (1e200, 0.0, 0.0)),
    ("0 < m(b) - m(a)*m(a)", (1e200, 1.0, 0.0)),
    ("m(a)^2 > 0", (1e200, 0.0, 0.0)),
    ("(0-1)^0.5 == 0", (0.0, 0.0, 0.0)),
    ("m(a) == 0 AND m(zz) == 0", (0.0, 0.0, 0.0)),
    ("m(zz) == 1/0", (0.0, 0.0, 0.0)),
    ("1/0 == m(zz)", (0.0, 0.0, 0.0)),
]


@pytest.mark.parametrize("pred, marking", _FAULT_CASES)
def test_compiled_faults_raise_the_reference_error(pred, marking):
    if isinstance(pred, str):
        pred = parse_predicate(pred)
    outcome = _assert_agree(pred, marking)
    assert isinstance(outcome, tuple) and issubclass(outcome[0], QpnError)


@pytest.mark.parametrize("text, holds", [
    ("0 == 1 AND 1/0 == 0", False),
    ("0 == 0 OR sqrt(0-1) == 0", True),
    ("NOT (0 == 0 OR m(a)*1e300*1e300 == 0)", False),
    ("NOT 0 == 1 AND (0 == 1 AND cos(m(a)*1e300) == 0 OR m(zz) == 0 OR 1 > 0)", None),
    ("m(a) == 1 AND m(zz) == 0", False),
    ("m(a) == 0 OR m(zz) == 0", True),
])
def test_right_sides_never_reached_never_fault(text, holds):
    outcome = _assert_agree(parse_predicate(text), (0.0, 0.0, 0.0))
    if holds is not None:
        assert outcome is holds


def test_unknown_place_raises_the_reference_error_after_the_search():
    graph = reachability_graph(entanglement_net())
    with pytest.raises(UnknownPlaceError, match="^unknown place 'p99'$"):
        check_invariant(graph, "m(p3) >= 0 AND m(p99) == 0")
    assert check_invariant(graph, "m(p3) < 0 AND m(p99) == 0").path == ()


def test_tree_walker_runs_only_on_a_fault(monkeypatch):
    graph = reachability_graph(entanglement_net())

    def refuse(pred, marking):
        raise AssertionError("evaluate_predicate ran")

    monkeypatch.setattr(analysis_module, "evaluate_predicate", refuse)
    assert check_invariant(graph, "m(p3)==m(p5) AND m(p4)==m(p6)").holds
    assert check_invariant(graph, "m(p3)==0").path == ("t1",)


_SIDES = ("m(a)", "m(b)", "m(c)", "m(a)+m(b)*2", "m(a)-m(b)", "0", "1e-9", "1", "pi/4",
          "1/m(c)", "sqrt(m(a))", "cos(m(b)*1e300)", "m(a)*m(a)", "m(b)^2", "(0-1)^0.5", "m(zz)")
_VALUES = (0.0, -0.0, 1.0, -1.0, 2.0, 1e-9, -1e-9, 1.0 + 1e-9, 0.5, 1e200, -1e200, 3.0)


def _predicates():
    side = st.sampled_from(_SIDES).map(parse)
    compare = st.builds(Compare, side, st.sampled_from(_OPS), side)
    return st.recursive(
        compare,
        lambda inner: st.one_of(st.builds(And, inner, inner), st.builds(Or, inner, inner), st.builds(Not, inner)),
        max_leaves=6,
    )


@settings(max_examples=400, deadline=None)
@given(_predicates(), st.lists(st.one_of(st.sampled_from(_VALUES), st.floats(-4.0, 4.0)), min_size=3, max_size=3))
def test_compiled_predicates_match_the_tree_walk(pred, marking):
    """Truth values, or the error class and message, of nested AND/OR/NOT over
    comparisons whose sides can fault."""
    _assert_agree(pred, marking)
