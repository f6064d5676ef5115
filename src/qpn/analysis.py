"""Generic net analysis.

* marking predicates - comparisons between weight expressions combined with
  AND/OR/NOT, evaluated with the equality tolerance CMP_EPSILON;
* bounded reachability graphs for counter-only nets with constant integer
  weights, exportable as DOT text; the BFS calls one generated successors
  function per node;
* exhaustive invariant checking over a reachability graph, returning the first
  counterexample with its firing path; the predicate runs as generated code,
  and evaluate_predicate, the reference, names any fault;
* seeded empirical outcome distributions over repeated BornRandom runs;
* incidence matrices for constant-weight nets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, Union

from . import expr as _expr
from .errors import (
    ExprSyntaxError,
    NonConstantWeightsError,
    NotIntegerNetError,
    PredicateError,
    StateExplosionError,
    StepLimitError,
)
from .net import (
    ArcKind,
    BornTable,
    PetriNet,
    PlaceKind,
    Policy,
    RunConfig,
    TerminalStatus,
    _FAULTS,
    _names,
    marking_env,
    run_final,
)
from .quantum import QuantumMapping

__all__ = [
    "Compare",
    "And",
    "Or",
    "Not",
    "MarkingPredicate",
    "parse_predicate",
    "evaluate_predicate",
    "ReachabilityGraph",
    "reachability_graph",
    "InvariantResult",
    "check_invariant",
    "EmpiricalDistribution",
    "empirical_distribution",
    "outcome",
    "run_seed",
    "incidence_matrix",
    "to_dot",
]

CMP_EPSILON = 1e-9  # predicate comparisons: a == b means |a - b| <= CMP_EPSILON

_CMP_OPS = ("==", "!=", "<=", ">=", "<", ">")


# --- predicates ----------------------------------------------------------------


@dataclass(frozen=True)
class Compare:
    left: _expr.WeightExpr
    op: str  # one of ==, !=, <=, >=, <, >
    right: _expr.WeightExpr


@dataclass(frozen=True)
class And:
    left: "MarkingPredicate"
    right: "MarkingPredicate"


@dataclass(frozen=True)
class Or:
    left: "MarkingPredicate"
    right: "MarkingPredicate"


@dataclass(frozen=True)
class Not:
    operand: "MarkingPredicate"


MarkingPredicate = Union[Compare, And, Or, Not]


class _PredicateParser(_expr._Parser):
    """Comparisons of weight expressions glued with AND/OR/NOT.

    Grammar: pred := conj ("OR" conj)* ; conj := unit ("AND" unit)* ;
    unit := "NOT" unit | "(" pred ")" | expr CMP expr.  A leading "(" is
    ambiguous (grouped predicate vs parenthesized expression), resolved by
    trying the comparison first and backtracking.  A predicate's depth adds
    its AND, OR and NOT levels to the depth of its weights, and its groups
    count with theirs, against expr.MAX_DEPTH.
    """

    def parse(self) -> MarkingPredicate:
        node, _ = self.parse_or()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(
                f"trailing input {tok.text!r}", tok.line, tok.column, ("end of input",)
            )
        return node

    def parse_or(self) -> tuple[MarkingPredicate, int]:
        return self.chain(self.parse_and, {"OR": Or})

    def parse_and(self) -> tuple[MarkingPredicate, int]:
        return self.chain(self.parse_unit, {"AND": And})

    def parse_unit(self) -> tuple[MarkingPredicate, int]:
        if self.peek().text.upper() == "NOT":
            tok = self.advance()
            self.enter(tok)
            node, depth = self.parse_unit()
            self.groups -= 1
            return Not(node), self.nested(tok, depth + 1)
        saved = self.pos, self.groups
        try:
            return self.parse_comparison()
        except ExprSyntaxError:
            if self.tokens[saved[0]].kind != "(":
                raise
            self.pos, self.groups = saved
            self.enter(self.advance())
            parsed = self.parse_or()
            tok = self.peek()
            if tok.kind != ")":
                raise ExprSyntaxError("expected ')'", tok.line, tok.column, ("')'",)) from None
            self.pos += 1
            self.groups -= 1
            return parsed

    def parse_comparison(self) -> tuple[Compare, int]:
        left, left_depth = self.parse_expr()
        tok = self.peek()
        if tok.kind not in _CMP_OPS:
            raise ExprSyntaxError(
                f"expected comparison operator, found {tok.text!r}" if tok.kind != "end"
                else "expected comparison operator",
                tok.line,
                tok.column,
                _CMP_OPS,
            )
        self.pos += 1
        right, right_depth = self.parse_expr()
        return Compare(left, tok.kind, right), max(left_depth, right_depth)


def parse_predicate(text: str) -> MarkingPredicate:
    tokens = _expr._tokenize(text, operators=_CMP_OPS)
    return _PredicateParser(tokens).parse()


def evaluate_predicate(pred: MarkingPredicate, marking: Mapping[str, float]) -> bool:
    """Evaluate with tolerant comparisons: equality means within CMP_EPSILON."""
    if isinstance(pred, Compare):
        a = _expr.evaluate(pred.left, marking)
        b = _expr.evaluate(pred.right, marking)
        if pred.op == "==":
            return abs(a - b) <= CMP_EPSILON
        if pred.op == "!=":
            return abs(a - b) > CMP_EPSILON
        if pred.op == "<=":
            return a <= b + CMP_EPSILON
        if pred.op == ">=":
            return a >= b - CMP_EPSILON
        if pred.op == "<":
            return a < b - CMP_EPSILON
        if pred.op == ">":
            return a > b + CMP_EPSILON
        raise PredicateError(f"unknown comparison operator {pred.op!r}")
    if isinstance(pred, And):
        return evaluate_predicate(pred.left, marking) and evaluate_predicate(pred.right, marking)
    if isinstance(pred, Or):
        return evaluate_predicate(pred.left, marking) or evaluate_predicate(pred.right, marking)
    if isinstance(pred, Not):
        return not evaluate_predicate(pred.operand, marking)
    raise PredicateError(f"not a predicate: {pred!r}")


def predicate_places(pred: MarkingPredicate) -> frozenset[str]:
    if isinstance(pred, Compare):
        return _expr.free_places(pred.left) | _expr.free_places(pred.right)
    if isinstance(pred, (And, Or)):
        return predicate_places(pred.left) | predicate_places(pred.right)
    if isinstance(pred, Not):
        return predicate_places(pred.operand)
    raise PredicateError(f"not a predicate: {pred!r}")


# --- reachability ---------------------------------------------------------------


@dataclass(frozen=True)
class ReachabilityGraph:
    """Bounded reachability graph: nodes in BFS discovery order, root first.

    ``parents[i]`` is the (parent index, transition id) that first discovered
    node i, None for the root; ``quiescent`` lists the nodes with no enabled
    transition.  The BFS keeps no edges: ``edges`` derives them on each read.
    """

    net: PetriNet
    nodes: tuple[tuple[float, ...], ...]
    parents: tuple[tuple[int, str] | None, ...]
    quiescent: tuple[int, ...]

    @property
    def root(self) -> tuple[float, ...]:
        return self.nodes[0]

    @property
    def edges(self) -> tuple[tuple[int, str, int], ...]:
        """(source node index, transition id, target node index) in BFS order; successors runs on each node again."""
        cnet = self.net.compiled()
        successors, tids = cnet.successors(), [ct.tid for ct in cnet.trans]
        index = {node: i for i, node in enumerate(self.nodes)}
        return tuple((src, tids[ti], index[key]) for src, node in enumerate(self.nodes)
                     for ti, key in successors(node))

    def quiescent_nodes(self) -> list[int]:
        return list(self.quiescent)

    def path_to(self, node_index: int) -> list[str]:
        """Transition ids from the root to the given node."""
        path: list[str] = []
        current = node_index
        while self.parents[current] is not None:
            parent, tid = self.parents[current]
            path.append(tid)
            current = parent
        path.reverse()
        return path


def _require_integer_net(net: PetriNet) -> None:
    for place in net.places:
        if place.kind != PlaceKind.COUNTER:
            raise NotIntegerNetError(f"place {place.id} is not a counter place")
    for arc in net.arcs:
        if arc.kind == ArcKind.DRAIN:
            raise NotIntegerNetError(f"arc {arc.source}->{arc.target} is a drain")
        if _expr.free_places(arc.weight):
            raise NotIntegerNetError(
                f"arc {arc.source}->{arc.target} has a marking-dependent weight"
            )
        value = _expr.evaluate(arc.weight, {})
        if value != int(value):
            raise NotIntegerNetError(
                f"arc {arc.source}->{arc.target} has non-integer weight {value!r}"
            )


def reachability_graph(net: PetriNet, max_states: int = 10_000) -> ReachabilityGraph:
    """Complete bounded BFS exploration; transitions tried in ordinal order.

    Requires a counter-only net with constant integer weights; raises
    StateExplosionError past ``max_states`` distinct markings.  One generated
    function gives the successors of each node, which is the whole search.
    It keeps the nodes, their parents and the quiescent nodes, not the edges.
    """
    _require_integer_net(net)
    cnet = net.compiled()
    successors = cnet.successors()
    tids = [ct.tid for ct in cnet.trans]
    root = tuple(net.initial_marking())
    index: dict[tuple[float, ...], int] = {root: 0}
    nodes: list[tuple[float, ...]] = [root]
    parents: list[tuple[int, str] | None] = [None]
    quiescent: list[int] = []
    for state in nodes:  # visits the nodes appended on the way
        src = index[state]  # the int the dict holds: a new one per node would cost memory
        fired = successors(state)
        if not fired:
            quiescent.append(src)
        for ti, key in fired:
            if key not in index:
                if len(nodes) >= max_states:
                    raise StateExplosionError(f"more than {max_states} reachable markings")
                index[key] = len(nodes)
                nodes.append(key)
                parents.append((src, tids[ti]))
    del index  # freed before the tuples are built, which lowers the peak
    return ReachabilityGraph(net, tuple(nodes), tuple(parents), tuple(quiescent))


@dataclass(frozen=True)
class InvariantResult:
    holds: bool
    counterexample: tuple[float, ...] | None = None
    path: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.holds


def check_invariant(graph: ReachabilityGraph, pred: MarkingPredicate | str) -> InvariantResult:
    """Evaluate the predicate on every node; first BFS counterexample wins.

    The predicate runs as generated code; on a fault, evaluate_predicate
    re-runs it on that node and raises the reference error.
    """
    if isinstance(pred, str):
        pred = parse_predicate(pred)
    if _too_deep(pred, _expr.MAX_DEPTH):
        raise PredicateError(f"predicate nests deeper than {_expr.MAX_DEPTH} levels")
    code = _emit_predicate(pred, _names(graph.net, "m[{}]"), itertools.count())
    holds = graph.net.compiled()._define("m", [[f"    return {code}"]])[0]
    for i, node in enumerate(graph.nodes):
        try:
            if not holds(node):
                return InvariantResult(False, node, tuple(graph.path_to(i)))
        except _FAULTS:
            evaluate_predicate(pred, marking_env(graph.net, node))
            raise
    return InvariantResult(True)


def _too_deep(pred: MarkingPredicate, levels: int) -> bool:
    """Whether pred nests more than levels AND, OR, NOT and weight operators along some path, as parsing counts."""
    if isinstance(pred, Compare):
        return _expr._too_deep(pred.left, levels) or _expr._too_deep(pred.right, levels)
    if isinstance(pred, (And, Or, Not)):
        return levels == 0 or any(_too_deep(child, levels - 1) for child in vars(pred).values())
    return False


def _emit_predicate(pred: MarkingPredicate, places: Mapping[str, str], names: Iterator[int]) -> str:
    """The predicate as one generated expression over the marking vector ``m``.

    Each comparison binds its two sides to fresh names, tests them finite as
    an enabling test tests a weight, then compares them as
    evaluate_predicate does, with CMP_EPSILON as a plain constant of the
    code, not a net's literal (see expr.LITERAL); abs(a - b) <= e is written
    -e <= a - b <= e.  AND, OR and NOT keep Python's
    short-circuit.  A comparison naming an undeclared place, or anything
    else that cannot be emitted, becomes _fault(): if it is reached, the
    reference raises its error.
    """
    if isinstance(pred, (And, Or)):
        op = "and" if isinstance(pred, And) else "or"
        return f"({_emit_predicate(pred.left, places, names)} {op} {_emit_predicate(pred.right, places, names)})"
    if isinstance(pred, Not):
        return f"(not {_emit_predicate(pred.operand, places, names)})"
    if not (isinstance(pred, Compare) and pred.op in _CMP_OPS and predicate_places(pred) <= places.keys()):
        return "_fault()"
    i = next(names)
    a, b, eps = f"a{i}", f"b{i}", repr(CMP_EPSILON)
    within = f"{-CMP_EPSILON!r} <= {a} - {b} <= {eps}"
    compare = {"==": within, "!=": f"not ({within})", "<=": f"{a} <= {b} + {eps}",
               ">=": f"{a} >= {b} - {eps}", "<": f"{a} < {b} - {eps}", ">": f"{a} > {b} + {eps}"}
    sides = [f"(({x} := {_expr._emit(_expr.fold_constants(side), places)}) - {x} == 0.0 or _fault())"
             for x, side in ((a, pred.left), (b, pred.right))]
    return f"({sides[0]} and {sides[1]} and {compare[pred.op]})"


# --- empirical statistics ----------------------------------------------------------


def run_seed(seed: int, run_index: int) -> int:
    """Per-run seed: element run_index of the splitmix64 stream seeded by seed.

    Computes the splitmix64 finalizer of seed + (run_index + 1) * 2^64/phi, so
    run i is independent of execution order (parallel sweeps derive identical
    streams) and the streams of nearby seeds do not overlap.
    """
    z = (seed + (run_index + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Counts of terminal outcomes over seeded BornRandom runs.

    An outcome is the tuple of mapped-place labels holding a nonzero token
    count (|m| > 1e-9) at quiescence, in assignment order.
    """

    runs: int
    counts: dict[tuple[str, ...], int]

    def frequency(self, outcome: tuple[str, ...]) -> float:
        return self.counts.get(outcome, 0) / self.runs

    def stderr(self, outcome: tuple[str, ...]) -> float:
        f = self.frequency(outcome)
        return (f * (1.0 - f) / self.runs) ** 0.5

    def items(self) -> list[tuple[tuple[str, ...], float, float]]:
        return [(key, self.frequency(key), self.stderr(key)) for key in sorted(self.counts)]


def empirical_distribution(
    net: PetriNet,
    mapping: QuantumMapping,
    runs: int,
    seed: int = 0,
) -> EmpiricalDistribution:
    """Terminal-outcome frequencies over ``runs`` seeded BornRandom runs.

    Run i uses seed :func:`run_seed`(seed, i); identical inputs reproduce the
    distribution bit for bit.  The runs share one :class:`BornTable`, so a
    marking's Born step is computed once per sweep.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    m0 = net.initial_marking()
    table = BornTable(net, m0)
    assigned = _assigned(net, mapping)
    counts: dict[tuple[str, ...], int] = {}
    for i in range(runs):
        config = RunConfig(policy=Policy.BORN_RANDOM, seed=run_seed(seed, i))
        final = run_final(net, m0, config, table=table)
        if final.status != TerminalStatus.QUIESCENT:
            raise StepLimitError(f"run {i} did not reach quiescence within {config.max_steps} steps")
        key = _outcome(assigned, final.marking)
        counts[key] = counts.get(key, 0) + 1
    return EmpiricalDistribution(runs, counts)


def outcome(net: PetriNet, mapping: QuantumMapping, marking: Sequence[float]) -> tuple[str, ...]:
    """The labels of the mapped places a marking holds more than 1e-9 in, in mapping order."""
    return _outcome(_assigned(net, mapping), marking)


def _assigned(net: PetriNet, mapping: QuantumMapping) -> list[tuple[int, str]]:
    return [(net.place_index[p], label) for p, label in mapping.assignments]


def _outcome(assigned: list[tuple[int, str]], marking: Sequence[float]) -> tuple[str, ...]:
    return tuple(label for idx, label in assigned if abs(marking[idx]) > 1e-9)


# --- incidence ----------------------------------------------------------------------


def incidence_matrix(net: PetriNet) -> list[list[float]]:
    """Transitions x places net-effect matrix for constant-weight nets.

    Entry (t, p) sums deposits minus consumes; guard arcs contribute 0.
    Constant non-integer weights are fine (the matrix is real); any
    marking-dependent weight (including drains) raises
    NonConstantWeightsError.
    """
    rows = [[0.0] * len(net.places) for _ in net.transitions]
    for arc in net.arcs:
        if _expr.free_places(arc.weight):
            raise NonConstantWeightsError(
                f"arc {arc.source}->{arc.target} has a marking-dependent weight"
            )
        value = _expr.evaluate(arc.weight, {})
        if arc.kind == ArcKind.DEPOSIT:
            rows[net.transition_index[arc.source]][net.place_index[arc.target]] += value
        elif arc.kind == ArcKind.CONSUME:
            rows[net.transition_index[arc.target]][net.place_index[arc.source]] -= value
        # guards contribute nothing
    return rows


# --- DOT export -----------------------------------------------------------------------


def _marking_label(net: PetriNet, marking: tuple[float, ...]) -> str:
    parts = []
    for place, value in zip(net.places, marking):
        if value != 0:
            text = str(int(value)) if value == int(value) else f"{value:.6g}"
            parts.append(f"{place.id}={text}")
    return " ".join(parts) if parts else "0"


def to_dot(graph: ReachabilityGraph) -> str:
    """Graphviz text: nodes labeled with their nonzero marking entries."""
    quote = lambda s: '"' + s.replace('"', r"\"") + '"'  # noqa: E731
    lines = [f"digraph {quote(graph.net.name)} {{", "  rankdir=LR;", "  node [shape=box];"]
    for i, node in enumerate(graph.nodes):
        shape = ' shape=doubleoctagon' if i == 0 else ""
        lines.append(f"  s{i} [label={quote(_marking_label(graph.net, node))}{shape}];")
    for src, tid, dst in graph.edges:
        lines.append(f"  s{src} -> s{dst} [label={quote(tid)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
