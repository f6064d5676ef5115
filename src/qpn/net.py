"""Petri-net structure and execution.

Places carry real-valued token counts.  ``Counter`` places keep classical
semantics (non-negative integers); ``Amplitude`` places hold signed reals so a
token count can encode a probability amplitude.  Arc weights are expressions
over the current marking (see :mod:`qpn.expr`), evaluated against the pre-fire
snapshot, which makes each firing atomic.

Input arc kinds:

* ``CONSUME`` - requires m(p) >= w and subtracts w; the consume arcs of one
  place together require m(p) >= the sum of their weights;
* ``GUARD``   - same enabling test, leaves the place untouched;
* ``DRAIN``   - requires |m(p)| > EPSILON and sets the place to zero; its weight
  expression is always exactly ``m(<place>)``.

A :class:`PetriNet` is immutable after construction and can be shared across
threads; each run owns its marking and RNG exclusively.

Runs execute generated Python code (see the compiled engine below); the
tree-walking :func:`qpn.expr.evaluate` is the reference that names faults.
A deterministic run compiles each hot period of firings into a loop
specialized on its entry state: counter places that move by constant
integers get a trip count instead of per-firing checks, guard terms over
unwritten places are evaluated once, and blocks of periods run without
finiteness tests; a block whose test at its end fails is rolled back and
fired as plain steps, so every result stays bit for bit that of a step() loop.
The firings that lead from the loop's exit back to its head become its
bridge, and the loop then runs the outer cycle as laps.
A traced run (:func:`run`) is that same run, and keeps only its config and
firing count: its firings and markings are replayed as a step() loop
through the generated steps (see :class:`Steps`).  Each loop is compiled
once per net structure, and the nets of that structure call its code with
their own constants.
"""

from __future__ import annotations

import copy
import enum
import functools
import math
import random
import struct
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate
from types import CodeType
from typing import Callable, Container, Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import expr as _expr
from .errors import (
    CounterViolationError,
    DeterminismViolationError,
    EvaluationError,
    NetDefinitionError,
    NonFiniteResultError,
    NotEnabledError,
    QpnError,
    ZeroWeightGroupError,
)
from .expr import WeightExpr

__all__ = [
    "PlaceKind",
    "ArcKind",
    "Policy",
    "TerminalStatus",
    "PlaceDecl",
    "TransitionDecl",
    "Arc",
    "PetriNet",
    "Marking",
    "RunConfig",
    "Steps",
    "Trace",
    "FinalState",
    "EPSILON",
    "EPSILON_INT",
    "is_enabled",
    "enabled_transitions",
    "fire",
    "conflict_groups",
    "step",
    "run",
    "run_final",
    "marking_env",
    "validate_marking",
]

Marking = list[float]

EPSILON = 1e-12  # enabling tolerance: m(p) >= w - EPSILON, and a drain needs |m(p)| > EPSILON
EPSILON_INT = 1e-9  # integrality tolerance for counter places


class PlaceKind(enum.Enum):
    COUNTER = "counter"
    AMPLITUDE = "amplitude"


class ArcKind(enum.Enum):
    CONSUME = "consume"
    DRAIN = "drain"
    GUARD = "guard"
    DEPOSIT = "deposit"


class Policy(enum.Enum):
    DETERMINISTIC_PRIORITY = "det"
    BORN_RANDOM = "born"


class TerminalStatus(enum.Enum):
    QUIESCENT = "quiescent"
    STEP_LIMIT = "step_limit"


@dataclass(frozen=True)
class PlaceDecl:
    id: str
    kind: PlaceKind = PlaceKind.COUNTER
    initial: float = 0.0


@dataclass(frozen=True)
class TransitionDecl:
    id: str
    priority: int = 0


@dataclass(frozen=True)
class Arc:
    """Directed arc; direction is inferred from the endpoint ids.

    ``weight`` accepts expression text or a parsed tree.  ``kind`` may be left
    None for the default (CONSUME on input arcs, DEPOSIT on output arcs).
    """

    source: str
    target: str
    weight: WeightExpr | str = "1"
    kind: ArcKind | None = None

    def parsed_weight(self) -> WeightExpr:
        if isinstance(self.weight, str):
            return _expr.parse(self.weight)
        return self.weight


@dataclass(frozen=True)
class RunConfig:
    policy: Policy = Policy.DETERMINISTIC_PRIORITY
    seed: int = 0
    max_steps: int = 1_000_000

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")


class Steps:
    """The firings of a run as (transition id, marking after the firing), read-only.

    A run keeps no record of its firings: its start, its config and its
    firing count determine them, since a seeded run reproduces bit for bit
    and the run's loops are bit for bit its steps.  Iteration replays the
    run as a step() loop from the start, firing each transition's generated
    step, and gives each firing a fresh list.
    """

    __slots__ = ("_start", "_config", "_firings", "_cnet")

    def __init__(self, start: Marking, config: RunConfig, firings: int, cnet: _CompiledNet):
        self._start = start  # the marking the first firing starts from
        self._config = config
        self._firings = firings
        self._cnet = cnet

    def __len__(self) -> int:
        return self._firings

    def replay(self) -> Iterator[tuple[str, list[int], Marking]]:
        """Each firing's transition id, the places it touched and the marking after it.

        The marking is one list, updated in place from firing to firing.  Each
        firing is chosen as the run chose it: the first enabled transition in
        priority order, or a Born draw from random.Random(seed).  A trace of
        no firings replays without testing anything.
        """
        if not self._firings:
            return
        cnet = self._cnet
        m = list(self._start)
        flags, _ = cnet.enabled_flags(m)
        trans = [(ct.step, ct.tid, ct.touched) for ct in cnet.trans]
        choose = _chooser(cnet, self._config.policy, random.Random(self._config.seed), m, flags)
        for _ in range(self._firings):
            step, tid, touched = trans[choose()]
            step(m, flags)
            yield tid, touched, m

    def __iter__(self) -> Iterator[tuple[str, Marking]]:
        for tid, _, m in self.replay():
            yield tid, list(m)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Steps, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class Trace:
    initial: Marking
    steps: Steps
    status: TerminalStatus
    final: Marking

    def fired(self) -> list[str]:
        """The transition ids the run fired, in order, from a replay of its steps."""
        return [tid for tid, _, _ in self.steps.replay()]


@dataclass(frozen=True)
class FinalState:
    """The final marking of a run, the number of its firings and why it stopped."""

    marking: Marking
    firings: int
    status: TerminalStatus


def _normalize_arc(arc: Arc, places: Container[str], transitions: Container[str]) -> Arc:
    """The arc with a parsed weight and its kind; raises NetDefinitionError if it is malformed."""
    weight = arc.parsed_weight()
    if _expr._too_deep(weight, _expr.MAX_DEPTH):
        raise NetDefinitionError(
            f"arc {arc.source}->{arc.target} weight nests deeper than {_expr.MAX_DEPTH} operators"
        )
    if arc.source in places and arc.target in transitions:
        kind = arc.kind or ArcKind.CONSUME
        if kind == ArcKind.DEPOSIT:
            raise NetDefinitionError(f"input arc {arc.source}->{arc.target} cannot be a deposit")
        if kind == ArcKind.DRAIN and weight != _expr.MarkRef(arc.source):
            raise NetDefinitionError(
                f"drain arc {arc.source}->{arc.target} must have weight m({arc.source})"
            )
    elif arc.source in transitions and arc.target in places:
        if arc.kind not in (None, ArcKind.DEPOSIT):
            raise NetDefinitionError(
                f"output arc {arc.source}->{arc.target} must be a deposit, got {arc.kind.value}"
            )
        kind = ArcKind.DEPOSIT
    else:
        raise NetDefinitionError(
            f"arc {arc.source}->{arc.target} does not connect a declared place and transition"
        )
    return Arc(arc.source, arc.target, weight, kind)


class PetriNet:
    """Immutable net: ordered places/transitions, arcs with expression weights."""

    def __init__(
        self,
        name: str,
        places: Iterable[PlaceDecl],
        transitions: Iterable[TransitionDecl | str],
        arcs: Iterable[Arc],
    ):
        self.name = name
        self.places: tuple[PlaceDecl, ...] = tuple(places)
        self.transitions: tuple[TransitionDecl, ...] = tuple(
            t if isinstance(t, TransitionDecl) else TransitionDecl(t) for t in transitions
        )
        self.place_index: dict[str, int] = {p.id: i for i, p in enumerate(self.places)}
        self.transition_index: dict[str, int] = {t.id: i for i, t in enumerate(self.transitions)}
        # an id of both kinds takes every arc through _normalize_arc, which may
        # read an arc the memo keeps as an output arc as an input arc
        memo = {} if self.place_index.keys() & self.transition_index.keys() else _ARCS
        self._entries = [self._entry(arc, memo) for arc in arcs]
        self.arcs: tuple[Arc, ...] = tuple([entry.arc for entry in self._entries])
        self._validate()
        self._compiled: _CompiledNet | None = None

    # -- construction helpers --------------------------------------------------

    def _entry(self, arc: Arc, memo: dict) -> _ArcEntry:
        """The arc's entry in memo by its weight text; a miss, an endpoint this net declares otherwise, or a
        weight given as a tree, which is not kept, is normalized afresh."""
        key = (arc.source, arc.target, arc.kind, arc.weight) if type(arc.weight) is str else None
        entry = memo.get(key)
        if entry is None or entry.place not in self.place_index or entry.transition not in self.transition_index:
            entry = _arc_entry(_normalize_arc(arc, self.place_index, self.transition_index))
            if key is not None:
                _expr._remember(memo, _ARCS_MAX, key, entry)
        return entry

    def _validate(self) -> None:
        if not self.places and not self.transitions:
            raise NetDefinitionError("net is empty")
        if len(self.place_index) != len(self.places):
            raise NetDefinitionError("duplicate place ids")
        if len(self.transition_index) != len(self.transitions):
            raise NetDefinitionError("duplicate transition ids")
        overlap = self.place_index.keys() & self.transition_index.keys()
        if overlap:
            raise NetDefinitionError(f"ids used for both places and transitions: {sorted(overlap)}")
        for p in self.places:
            if not math.isfinite(p.initial):
                raise NetDefinitionError(f"place {p.id} has non-finite initial value")
            if p.kind == PlaceKind.COUNTER:
                if p.initial < 0 or p.initial != int(p.initial):
                    raise NetDefinitionError(
                        f"counter place {p.id} must start at a non-negative integer, got {p.initial}"
                    )
        for entry in self._entries:
            for ref in entry.free:
                if ref not in self.place_index:
                    raise NetDefinitionError(
                        f"arc {entry.arc.source}->{entry.arc.target} references undeclared place {ref}"
                    )

    # -- views -------------------------------------------------------------------

    def place_ids(self) -> list[str]:
        return [p.id for p in self.places]

    def transition_ids(self) -> list[str]:
        return [t.id for t in self.transitions]

    def initial_marking(self) -> Marking:
        return [float(p.initial) for p in self.places]

    def input_arcs(self, transition_id: str) -> list[Arc]:
        return [a for a in self.arcs if a.target == transition_id]

    def output_arcs(self, transition_id: str) -> list[Arc]:
        return [a for a in self.arcs if a.source == transition_id]

    def compiled(self) -> "_CompiledNet":
        if self._compiled is None:
            self._compiled = _CompiledNet(self)
        return self._compiled

    def __repr__(self) -> str:
        return (
            f"PetriNet({self.name!r}, |P|={len(self.places)}, "
            f"|T|={len(self.transitions)}, |F|={len(self.arcs)})"
        )

    def __eq__(self, other: object) -> bool:
        """Structural equality: same declarations and arcs in the same order."""
        if not isinstance(other, PetriNet):
            return NotImplemented
        return (
            self.name == other.name
            and self.places == other.places
            and self.transitions == other.transitions
            and self.arcs == other.arcs
        )


# --- marking helpers -------------------------------------------------------------


def marking_env(net: PetriNet, m: Sequence[float]) -> dict[str, float]:
    """The marking as a place id -> value mapping, for expr.evaluate."""
    return dict(zip(net.place_index, m))


def validate_marking(net: PetriNet, m: Sequence[float]) -> None:
    _check_dimension(net, m)
    for place, value in zip(net.places, m):
        if not math.isfinite(value):
            raise QpnError(f"marking of {place.id} is not finite: {value!r}")
        if place.kind == PlaceKind.COUNTER:
            if value < -EPSILON_INT or abs(value - round(value)) > EPSILON_INT:
                raise CounterViolationError(
                    f"counter place {place.id} holds {value!r}, expected a non-negative integer"
                )


# --- compiled engine ---------------------------------------------------------------
#
# Generated Python code is the only executable form of a net.  Per transition
# it holds an enabling test and a step: the step fires in place, then re-tests
# every transition whose enabling the firing can flip (its recheck set),
# updates the enabled flags and returns the change in the enabled count, so a
# run makes one call per firing.  Place-free subtrees of a weight are folded to
# literals.  Weights are evaluated before any place is written, so when one
# faults the marking is unchanged and diagnose() re-evaluates the arcs with
# expr.evaluate, the reference, to raise its error.  A fault in a re-test comes
# after the firing was written; the step reports it as _RecheckFault and the
# run finds the transition at fault, while fire_into, whose callers re-test
# nothing, leaves it for the next enabling test to name.  The code's own
# result checks (a counter left negative or fractional, a deposit that
# overflows) raise directly.
# `x - x != 0.0` is a cheap non-finiteness test (true for nan and both
# infinities).  Generated code assumes a finite pre-fire marking.

# what generated weight code raises: ZeroDivisionError and OverflowError, the
# bare ArithmeticError of a non-finite weight, and math's domain ValueError
_FAULTS = (ArithmeticError, ValueError)

# a finite x plus a constant below half an ulp of the largest float (2**971)
# stays finite, so such deposits need no overflow test
_SAFE_DEPOSIT = 2.0**970


# A deterministic run, traced or not, looks for a hot loop after each round
# of firings: _CHUNK of them, or one while it records flag states and for
# _CHUNK looks after a loop exit (and the plain steps it hands back) or from
# its first firing on a structure with hot heads.  It records the flag states
# of up to _MAX_PERIOD firings; once a state comes back, the states in
# between are a period.  A period is hot once any net of its structure
# sights it, and a run that meets its head builds the loop it enters
# (_CompiledNet.looped): compiled once per structure, called with each net's
# literals.  The loop runs whole periods per call, up to _BLOCK of them per
# speculative block.  When a loop without a bridge exits by its trip count,
# the run records the flag states from its head on, up to _MAX_BRIDGE of
# them; once the head comes back, the states in between are the bridge, and
# the loop at that head is built again to run outer laps.
_CHUNK = 64
_MAX_PERIOD = 8
_BLOCK = 64
_MAX_BRIDGE = 32


# A compiled loop (see _emit_loop) returns the firings done and the firings the run
# fires next as plain steps before it looks for a loop again: a failed block; a
# block after a trip count of 0, so that a head met again at once is not entered
# again at once; one after a trip count short of the budget; else none.  Its
# trip count is _f1, emitted after it in its module (see _emit_trip).  A loop
# with a bridge runs outer laps: each computes its hoisted code and trip count
# from the locals, runs its periods and then, while the budget holds it, the
# bridge back to the head (_BRIDGE); a bridge that misses is restored and
# handed back whole.  A loop with no bridge runs one lap.
_LOOP = """\
{load}    j = d = 0
    z = 0.0
    while True:
        try:
{hoisted}            k, {terms}= _f1(budget // {n}{args})
        except _FAULTS:
            k = 0
        while j < k:
            b = k - j if k - j < {block} else {block}
{periods}            b *= {n}
            break
        else:
            b = (k < budget // {n}) if k else budget if budget < {span} else {span}
{advance}{bridge}        break
{store}    return d + j * {n}, b"""

_BRIDGE = """\
        if j == k and budget - j * {n} >= {length}:
            d += j * {n}
            budget -= j * {n} + {length}
            j = 0
{crossing}            b = {length}
"""

# A speculative block of a loop: its lines run count times on the locals,
# which it restores from copies unless all runs end with every one finite.
_SPECULATE = """\
            {copies} = {saved}
            try:
                for _ in _range({count}):
{fast}                else:
                    if {finite}:
                        {done}
                        continue
            except _FAULTS:
                pass
            {saved} = {copies}
"""


class _RecheckFault(Exception):
    """A re-test inside a generated step faulted after the firing was written."""


def _raise_fault() -> None:
    raise ArithmeticError  # a non-finite weight; diagnose() names it


def _nonfinite(values: list[str]) -> str:
    """Generated test, true when any value is nan or infinite."""
    # x - x is 0.0 for every finite x, so the sum is 0.0 iff all are finite
    return " + ".join(f"{v} - {v}" for v in values) + " != 0.0"


def _names(net: PetriNet, template: str) -> dict[str, str]:
    """Each place id -> the code that reads the place: template filled with its index."""
    return {p.id: template.format(i) for i, p in enumerate(net.places)}


class _Loop:
    """A compiled period: run(m, budget) -> (firings done, firings to replay as steps).

    Its calls run whole periods, and with a bridge whole laps, so a run
    leaves it at its head.
    """

    __slots__ = ("run", "states", "period", "bridge", "single", "firings")

    def __init__(self, run: Callable[[Marking, int], tuple[int, int]], period: _Period):
        self.run = run
        self.states = states = period.states  # the flag state before each firing of the period
        self.period = len(states)
        self.bridge = len(period.bridge)  # the firings of its bridge, 0 for a loop that runs one lap
        # one transition enabled in every state, the bridge's included
        self.single = all(sum(state) == 1 for state in (*states, *period.bridge))
        self.firings = 0  # firings done by run, over all runs of the net


class _CompiledTransition:
    __slots__ = ("tid", "rank", "in_arcs", "out_arcs", "touched", "rivals", "reads",
                 "enabled", "step", "recheck")

    def __init__(self, tid: str, rank: int):
        self.tid = tid
        self.rank = rank
        self.in_arcs: list[int] = []            # its input arcs by position in net.arcs, in arc order
        self.out_arcs: list[int] = []           # its output arcs likewise
        self.touched: list[int] = []            # places this transition may modify
        self.rivals: frozenset[int] = frozenset()  # transitions sharing a consume/drain input
        # places the enabling test reads -> whether the test is non-decreasing in
        # that place: false once a weight reads it (a drain's weight reads its place)
        self.reads: dict[int, bool] = {}
        self.enabled: Callable[[Sequence[float]], bool]
        self.step: Callable[[Marking, bytearray], int]
        self.recheck: tuple[int, ...] = ()      # transitions whose enabling a firing can flip


class _CompiledNet:
    """Generated per-transition code and the adjacency every execution path uses."""

    def __init__(self, net: PetriNet):
        self.net = net
        self._ids = list(net.place_index)
        self.trans = [_CompiledTransition(t.id, t.priority) for t in net.transitions]
        # each arc's weight with its place-free subtrees folded, and its value when that is a finite constant
        self._weights: list[tuple[_expr.WeightExpr, float | None]] = [entry.folded for entry in net._entries]
        key, self._consts = self._structure()
        plan = _STRUCTURES.get(key)
        if plan is None:
            plan = self._generate()
            _expr._remember(_STRUCTURES, _STRUCTURES_MAX, key, plan)
        else:
            for ct, wiring in zip(self.trans, plan.wiring):
                ct.in_arcs, ct.out_arcs, ct.touched, ct.reads, ct.recheck, ct.rivals = wiring
            self.order, self.uniform_rank = plan.order, plan.uniform_rank
        self._entry, self._values = plan, _derive(plan.derived, self._consts)
        enabled, steps = (self._exec(factory, [self._values[i] for i in holes]) for factory, holes in plan.modules)
        for ct, enabled_fn, step_fn in zip(self.trans, enabled, steps):
            ct.enabled, ct.step = enabled_fn, step_fn
        self._born: list[Callable[[Sequence[float]], float]] | None = None
        self.hot = plan.hot  # the structure's hot periods by their head flag state
        self.loops: dict[bytes, _Loop] = {}  # this net's compiled periods by their head, built when a run enters one

    def _structure(self) -> tuple[tuple, list[float]]:
        """The key of the net's structure, and its folded constants in the order of the key's holes.

        The key holds the places' ids and whether each is a counter, the
        transitions, and each arc's part on its place (see _arc_entry).
        """
        net, entries = self.net, self.net._entries
        counter = {p.id: p.kind is PlaceKind.COUNTER for p in net.places}
        return ((tuple(counter.items()), tuple([(t.id, t.priority) for t in net.transitions]),
                 tuple([entry.parts[counter[entry.place]] for entry in entries])),
                [c for entry in entries for c in entry.consts])

    def _generate(self) -> _Structure:
        """Wire the net and emit its enabling tests and steps: how a net of its structure builds them.

        Emission runs over holes (see _over_holes), so each literal of its
        text is the index of the value's recipe; every decision is taken on
        the real values.
        """
        net, arcs, index = self.net, self.net.arcs, self.net.place_index
        dependents: list[set[int]] = [set() for _ in net.places]  # transitions each place can flip
        consumers: list[set[int]] = [set() for _ in net.places]  # transitions consuming or draining it
        for j, arc in enumerate(arcs):
            if arc.kind == ArcKind.DEPOSIT:
                ct = self.trans[net.transition_index[arc.source]]
                ct.out_arcs.append(j)
                p = index[arc.target]
            else:
                ti = net.transition_index[arc.target]
                ct = self.trans[ti]
                ct.in_arcs.append(j)
                p = index[arc.source]
                free = [index[r] for r in _expr.free_places(arc.weight)]
                ct.reads.setdefault(p, True)
                for q in free:
                    ct.reads[q] = False
                for q in (p, *free):
                    dependents[q].add(ti)
                if arc.kind == ArcKind.GUARD:
                    continue
                consumers[p].add(ti)
            if p not in ct.touched:
                ct.touched.append(p)
        # firing order under deterministic priority
        self.order = sorted(range(len(self.trans)), key=lambda i: (self.trans[i].rank, i))
        self.uniform_rank = len({t.rank for t in self.trans}) <= 1
        for ct in self.trans:
            # in ordinal order, so a run reports the fault a step() loop meets first
            ct.recheck = tuple(sorted({tj for p in ct.touched for tj in dependents[p]}))
            ct.rivals = frozenset(tj for j in ct.in_arcs if arcs[j].kind != ArcKind.GUARD
                                  for tj in consumers[index[arcs[j].source]])

        view, book = self._over_holes()
        sources = [_source("m", [[f"    return {test}"] for test in view._tests]),
                   _source("m, flags", [view._step(ti) for ti in range(len(self.trans))])]
        wiring = [(ct.in_arcs, ct.out_arcs, ct.touched, ct.reads, ct.recheck, ct.rivals) for ct in self.trans]
        return _Structure(book[len(self._consts):], wiring, self.order, self.uniform_rank,
                          [_module(source) for source in sources], {}, {}, None)

    def _over_holes(self) -> tuple[_CompiledNet, list]:
        """A copy of this compiled net whose folded constants are _Hole floats, and the book of their recipes.

        Emission on the copy writes each literal as the index of its
        recipe.  The copy builds the enabling terms of all transitions at
        once, which derives every value a literal takes, so the recipes, and
        the indices, are those of the structure.  This net is left as it is,
        so that its runs and emissions can go on in other threads.
        """
        book: list[tuple | None] = []  # each _Hole's recipe, the constants' None first
        holes = iter([_Hole(value, book, None) for value in self._consts])
        view = copy.copy(self)
        # emission writes a constant weight from its value
        view._weights = [(_holed(tree, holes), None) if value is None else (tree, next(holes))
                         for tree, value in self._weights]
        for name in ("_terms", "_tests"):
            vars(view).pop(name, None)
        view._terms  # noqa: B018 - derives the values in the structure's order
        return view, book

    @functools.cached_property
    def _m(self) -> dict[str, str]:
        """Each place id -> the code that reads it in a generated test or step; emission alone needs it."""
        return _names(self.net, "m[{}]")

    @functools.cached_property
    def _terms(self) -> list[list[tuple]]:
        """Each transition's enabling test as terms (see _enabling_terms)."""
        return [self._enabling_terms(ti, ct) for ti, ct in enumerate(self.trans)]

    @functools.cached_property
    def _tests(self) -> list[str]:
        """Each transition's enabling test as one expression over m."""
        return [self._test(ti, self._m) for ti in range(len(self.trans))]

    def _signs(self, tj: int, moves: dict[int, int]) -> set[int]:
        """{1} if a firing with these moves can only enable tj, {-1} if only disable it.

        A re-test skipped on a flag it cannot change would evaluate as it did
        last time.
        """
        reads = self.trans[tj].reads
        return {moves[p] if reads[p] else 0 for p in moves if p in reads}

    def _step(self, ti: int) -> list[str]:
        """Lines of ti's step: fire, re-test the recheck set, return the change in the count."""
        retests = []
        moves = self._moves(ti)
        for tj in self.trans[ti].recheck:
            test, signs = self._tests[tj], self._signs(tj, moves)
            if tj == ti:  # a step runs only while its own flag is set
                if signs != {1}:
                    retests.append(f"        if not ({test}): flags[{ti}] = 0; d -= 1")
            elif signs == {1}:
                retests.append(f"        if not flags[{tj}] and {test}: flags[{tj}] = 1; d += 1")
            elif signs == {-1}:
                retests.append(f"        if flags[{tj}] and not ({test}): flags[{tj}] = 0; d -= 1")
            else:
                retests += [f"        if {test}:",
                            f"            if not flags[{tj}]: flags[{tj}] = 1; d += 1",
                            f"        elif flags[{tj}]: flags[{tj}] = 0; d -= 1"]
        if not retests:
            return self._firing(ti, self._m) + ["    return 0"]
        return self._firing(ti, self._m) + ["    d = 0", "    try:", *retests, "    except _FAULTS:",
                                   "        raise _RecheckFault from None", "    return d"]

    def successors(self) -> Callable[[tuple[float, ...]], list[tuple[int, tuple[float, ...]]]]:
        """Generated successors(state): (ordinal, successor) of each enabled transition, in ordinal order.

        The first net of the structure that asks emits its module over holes
        (see _over_holes) and keeps it on the structure; every net calls
        that module's factory with its own literals.  Threads that ask at
        once may each emit it, and any of the equal modules serves.
        """
        entry = self._entry
        if entry.successors is None:
            entry.successors = _module(_source("state", [self._over_holes()[0]._successors()]))
        factory, holes = entry.successors
        return self._exec(factory, [self._values[i] for i in holes])[0]

    def _successors(self) -> list[str]:
        """Lines of successors(state), the whole step of the reachability BFS from one marking tuple.

        The state tuple is unpacked into locals x<p>.  Each transition runs its
        enabling test on them, then its firing with each place it touches in a
        local y<p>, and the successor tuple is built from both.  A failing
        overflow or counter test copies the successor to a list that finish()
        raises on or snaps, as the step would.
        """
        n = len(self.net.places)
        lines = [f"    {''.join(f'x{p}, ' for p in range(n))}= state"] if n else []
        lines.append("    out = []")
        olds = _names(self.net, "x{}")
        for ti, ct in enumerate(self.trans):
            values = [f"y{p}" if p in ct.touched else f"x{p}" for p in range(n)]
            copy = "; ".join(f"y{p} = s[{p}]" for p in ct.touched)
            slow = f"s = [{', '.join(values)}]; _finish({ti}, s); {copy}"
            firing = self._firing(ti, dict(zip(self.net.place_index, values)), slow)
            lines += [f"    if {self._test(ti, olds)}:", *(f"        y{p} = x{p}" for p in ct.touched),
                      *(f"    {line}" for line in firing),
                      f"        out.append(({ti}, ({''.join(f'{v}, ' for v in values)})))"]
        lines.append("    return out")
        return lines

    def _moves(self, ti: int) -> dict[int, int]:
        """Each place ti touches: 1 if a firing can only raise it, -1 if only lower it, else 0.

        Only constant weights count, and on a counter place only those of at
        least 0.5, since the counter check moves a value by up to EPSILON_INT.
        """
        ct, arcs = self.trans[ti], self.net.arcs
        index = self.net.place_index
        changes: list[tuple[str, float | None]] = []  # (place, constant added or None)
        for j in ct.in_arcs:
            if arcs[j].kind != ArcKind.GUARD:
                w = None if arcs[j].kind == ArcKind.DRAIN else self._weights[j][1]
                changes.append((arcs[j].source, None if w is None else -w))
        changes += [(arcs[j].target, self._weights[j][1]) for j in ct.out_arcs]
        moves: dict[int, int] = {}
        for place_id, change in changes:
            p = index[place_id]
            least = 0.5 if self.net.places[p].kind == PlaceKind.COUNTER else 0.0
            if change is None:
                sign = 0
            else:
                sign = 1 if change >= least else -1 if change <= -least else 0
            moves[p] = sign if moves.get(p, sign) == sign else 0
        return moves

    def _bind(self, prefix: str, arcs: list[int]) -> tuple[list[str | float], list[tuple]]:
        """The weights of the arcs at these positions as firing operands, and the operations that bind them.

        A finite constant is its own operand; any other weight is bound to
        prefix + its position in arcs, and the bound ones are tested finite together.
        """
        values, ops = [], []
        for i, j in enumerate(arcs):
            tree, value = self._weights[j]
            if value is None:
                value = f"{prefix}{i}"
                ops.append(("bind", value, tree))
            values.append(value)
        if ops:
            ops.append(("fault", [op[1] for op in ops]))
        return values, ops

    def _enabling_terms(self, ti: int, ct: _CompiledTransition) -> list[tuple]:
        """ti's enabling test as the terms of one conjunction, tested in order.

        Drains need |m(p)| > EPSILON, other inputs m(p) >= w >= 0, in arc
        order; a non-finite weight calls _fault().  The consume arcs of one
        place are compared once, at the last of them, with the sum of their
        weights in arc order (expr._sum).  A constant threshold w - EPSILON
        is a literal, the same subtraction done here.  Terms are
        ("drain", p); ("weight", name, tree), which binds a weight to name;
        ("negative", literal), a constant weight below 0; and ("ge", p,
        threshold, names), m(p) >= threshold, code reading the weights
        bound to names.
        """
        index, arcs = self.net.place_index, self.net.arcs
        consumed = [index[arcs[j].source] for j in ct.in_arcs if arcs[j].kind == ArcKind.CONSUME]
        parts: dict[int, list] = {p: [] for p in consumed if consumed.count(p) > 1}  # repeated places
        terms: list[tuple] = []
        for i, j in enumerate(ct.in_arcs):
            arc = arcs[j]
            p = index[arc.source]
            if arc.kind == ArcKind.DRAIN:
                terms.append(("drain", p))
                continue
            tree, value = self._weights[j]
            if value is None:
                w, bound = f"e{ti}_{i}", (f"e{ti}_{i}",)
                terms.append(("weight", w, tree))
            else:
                w, bound = _expr._literal(value), ()
                if not value >= 0.0:
                    terms.append(("negative", w))
            if arc.kind == ArcKind.CONSUME and p in parts:
                parts[p].append((w, value, bound))
                if len(parts[p]) < consumed.count(p):
                    continue
                w, value = _expr._sum([(code, v) for code, v, _ in parts[p]])
                bound = tuple(name for _, _, names in parts[p] for name in names)
            if value is None:
                terms.append(("ge", p, f"{w} - {EPSILON!r}", bound))
            else:
                terms.append(("ge", p, _expr._emit(_expr.Constant(value - EPSILON), {}), ()))
        return terms

    def _term(self, term: tuple, names: Mapping[str, str], tree: Callable | None) -> str:
        """One enabling-test term as generated code over names; tree, if given, rewrites a weight first."""
        kind = term[0]
        if kind == "ge":
            return f"{names[self._ids[term[1]]]} >= {term[2]}"
        if kind == "drain":
            x = names[self._ids[term[1]]]
            return f"({x} > {EPSILON!r} or {x} < {-EPSILON!r})"
        if kind == "weight":
            name, w = term[1], _expr._emit(term[2] if tree is None else tree(term[2]), names)
            return f"((({name} := {w}) - {name} == 0.0 or _fault()) and {name} >= 0.0)"
        return f"{term[1]} >= 0.0"

    def _term_reads(self, term: tuple) -> set[str]:
        """The places an enabling-test term reads, by id."""
        if term[0] == "weight":
            return set(_expr.free_places(term[2]))
        return set() if term[0] == "negative" else {self._ids[term[1]]}

    def _test(self, ti: int, names: Mapping[str, str]) -> str:
        """ti's enabling test as one boolean expression over names."""
        return " and ".join(self._term(term, names, None) for term in self._terms[ti]) or "True"

    def _ops(self, ti: int) -> list[tuple]:
        """One firing of transition ti as operations, in the order generated code runs them.

        Weights are bound before any write, so a fault leaves the marking
        unchanged; then come consumes, drains and deposits in arc order, the
        overflow test and the counter checks.  Operations are ("bind", name,
        tree); ("fault", names), which calls _fault() unless all are finite;
        ("consume", p, value), ("drain", p) and ("deposit", p, value), with a
        bound name or a finite constant as value; ("overflow", places) and
        ("counters", places), which take the slow path unless the places
        are finite, or non-negative integers; and ("zero", p), which adds
        0.0 to turn -0.0 into 0.0.
        """
        ct, arcs = self.trans[ti], self.net.arcs
        index = self.net.place_index
        binds, consumes, drains = [], [], []
        # whether a -0.0 in the place can survive the firing: x - w is -0.0 only
        # for x = -0.0, w = +0.0, and x + v only for x = v = -0.0
        keeps_zero_sign: dict[int, bool] = {}
        for i, j in enumerate(ct.in_arcs):
            p = index[arcs[j].source]
            if arcs[j].kind == ArcKind.DRAIN:
                drains.append(("drain", p))
                keeps_zero_sign[p] = False
            elif arcs[j].kind == ArcKind.CONSUME:
                tree, value = self._weights[j]
                keeps = value is None or (value == 0.0 and math.copysign(1.0, value) > 0.0)
                if value is None:  # the enabling test read the same weight, finite
                    value = f"w{i}"
                    binds.append(("bind", value, tree))
                consumes.append(("consume", p, value))
                keeps_zero_sign[p] = keeps_zero_sign.get(p, True) and keeps
        values, ops = self._bind("v", ct.out_arcs)
        deposits = []
        checked: list[int] = []  # deposit targets that may overflow
        for v, j in zip(values, ct.out_arcs):
            p = index[arcs[j].target]
            deposits.append(("deposit", p, v))
            bound = isinstance(v, str)
            if (bound or not abs(v) < _SAFE_DEPOSIT) and p not in checked:
                checked.append(p)
            keeps = bound or (v == 0.0 and math.copysign(1.0, v) < 0.0)
            keeps_zero_sign[p] = keeps_zero_sign.get(p, True) and keeps
        ops = binds + ops + consumes + drains + deposits
        if checked:
            ops.append(("overflow", checked))
        counters = [p for p in ct.touched if self.net.places[p].kind == PlaceKind.COUNTER]
        # + 0.0 turns -0.0 into 0.0, as round() does; then a non-negative
        # integral value passes as is and any other takes the slow path
        ops += [("zero", p) for p in counters if keeps_zero_sign[p]]
        if counters:
            ops.append(("counters", counters))
        return ops

    def _inlined(self, ops: list[tuple]) -> list[tuple]:
        """The operations of a firing with each bound weight moved into the write that uses it.

        A bind moves only if no write before that one touches a place the
        weight reads, so the value is the same.
        """
        trees = {op[1]: op[2] for op in ops if op[0] == "bind"}
        out, writes, touched = [], [], set()
        for op in ops:
            if op[0] in ("consume", "deposit") and op[2] in trees and not touched & _expr.free_places(trees[op[2]]):
                op = (op[0], op[1], trees.pop(op[2]))
            if op[0] in ("consume", "drain", "deposit"):
                touched.add(self._ids[op[1]])
            (out if op[0] == "bind" else writes).append(op)
        return [op for op in out if op[1] in trees] + writes

    def _lines(self, ops: list[tuple], names: Mapping[str, str], ti: int, slow: str | None) -> list[str]:
        """Operations of a firing of ti as lines of code over names.

        ``slow``, if given, replaces the call made when an overflow or
        counter test fails.  A ("sink", p) operation adds x - x of the place to z.
        """
        ids, lines = self._ids, []
        for op in ops:
            kind = op[0]
            if kind == "consume" or kind == "deposit":
                value = _expr._literal(op[2]) if isinstance(op[2], float) else _expr._emit(op[2], names)
                lines.append(f"{names[ids[op[1]]]} {'-' if kind == 'consume' else '+'}= {value}")
            elif kind == "bind":
                lines.append(f"{op[1]} = {_expr._emit(op[2], names)}")
            elif kind == "fault":
                lines.append(f"if {_nonfinite(op[1])}: _fault()")
            elif kind == "overflow":
                lines.append(f"if {_nonfinite([names[ids[p]] for p in op[1]])}: {slow or f'_finish({ti}, m)'}")
            elif kind == "counters":
                test = " or ".join(f"{x} < 0.0 or {x} % 1.0" for x in (names[ids[p]] for p in op[1]))
                lines.append(f"if {test}: {slow or f'_finish({ti}, m)'}")
            elif kind == "sink":
                lines.append(f"z += {names[ids[op[1]]]} - {names[ids[op[1]]]}")
            else:
                lines.append(f"{names[ids[op[1]]]} {'= 0.0' if kind == 'drain' else '+= 0.0'}")
        return lines

    def _firing(self, ti: int, names: Mapping[str, str], slow: str | None = None) -> list[str]:
        """Lines that apply one firing of transition ti in place, to the places names reads."""
        return [f"    {line}" for line in self._lines(self._ops(ti), names, ti, slow)]

    def sighted(self, period: list[bytes]) -> None:
        """Make the period through these flag states hot for the nets of the structure.

        The period is kept on the structure by its head, the least of its
        states, and a run of any net of the structure that meets the head
        builds its loop there (see looped).
        """
        head = min(period)
        if head not in self.hot:
            start = period.index(head)
            self.hot[head] = self._period(period[start:] + period[:start])

    def _period(self, states: list[bytes]) -> _Period:
        """The period through these flag states, with the moves of counter places that each of its firings makes."""
        index, places, arcs = self.net.place_index, self.net.places, self.net.arcs
        # the index of each arc's first folded constant
        slots = list(accumulate([len(entry.consts) for entry in self.net._entries], initial=0))
        moves = []
        for ti in (next(t for t in self.order if pre[t]) for pre in states):
            firing = []
            for j in self.trans[ti].in_arcs + self.trans[ti].out_arcs:
                arc = arcs[j]
                p = index[arc.target if arc.kind is ArcKind.DEPOSIT else arc.source]
                if arc.kind is not ArcKind.GUARD and places[p].kind is PlaceKind.COUNTER:
                    constant = self._weights[j][1] is not None  # never a drain's m(p)
                    firing.append((p, slots[j] if constant else None, 1 if arc.kind is ArcKind.DEPOSIT else -1))
            moves.append(tuple(firing))
        return _Period(states, tuple(moves), ())

    def bridged(self, trail: list[bytes]) -> None:
        """Keep these flag states, from an exit of the loop at their first back to it, as that loop's bridge.

        The bridge is kept on the structure's period, and this net's loop
        there is built again with it, keeping the count of its firings.
        """
        head, period = trail[0], self.hot[trail[0]]
        if not period.bridge:
            self.hot[head] = replace(period, bridge=tuple(trail))
        loop = self.loops.pop(head, None)  # None where another thread's run took it first
        self.looped(head).firings += loop.firings if loop else 0

    def looped(self, head: bytes) -> _Loop:
        """This net's loop at a hot head of its structure.

        The loop's code is its structure's for the period and the set of
        induction counters, emitted by the first net to enter it (see
        _emit_loop).  Every net calls that code with its literals and
        derives its trip plan from its own counter moves.
        """
        period = self.hot[head]
        induction, after, room = _levels(period.moves, self._consts)
        key = (tuple(period.states), period.bridge, _BLOCK, induction)
        code = self._entry.loops.get(key)
        if code is None:
            code = self._over_holes()[0]._emit_loop(period, induction)
            _expr._remember(self._entry.loops, _LOOPS_MAX, key, code)
        loop = self.loops[head] = self._install(code, period, induction, after, room)
        return loop

    def _install(self, code: _LoopCode, period: _Period, induction: tuple, after: dict, room: dict) -> _Loop:
        """This net's loop: its structure's code called with its literals and the plan of its counter moves.

        Per counter its move per period, lowest level and sum of move sizes, then per term its counter's level.
        """
        plan = [n for p in induction for n in (after[p][-1], min(after[p]), room[p])]
        plan += [after[induction[c]][i] for c, i, _, _ in code.terms]
        run = self._exec(code.factory, [self._values[i] for i in code.holes], _plan=tuple(plan))[0]
        return _Loop(run, period)

    def _emit_loop(self, period: _Period, induction: tuple) -> _LoopCode:
        """The period's loop as the nets of the structure build it, emitted over holes (see _over_holes).

        Firing i is the first enabled transition of states[i] in priority
        order.  Its operations run on locals x<p>, so every float operation
        is the one a step makes, and each re-test that step would make
        becomes a guard that the flag recorded in states[i + 1] comes out
        again.

        The loop is specialized on the entry state (see _emit_trip).
        Induction counters, the counter places whose every move in the
        period is a constant integer, drop their counter checks, and their
        updates unless other code reads them.  Guard terms and weight
        subtrees over places the loop never writes are computed once at
        entry; a term m(p) >= threshold on an induction counter becomes the
        value it keeps over the trip count.  The body keeps every other
        float operation in order but drops the finiteness and overflow
        tests: in blocks of up to _BLOCK periods, it tests every local it
        writes once at the end, having added x - x of each drained value to
        a sink z.  Every value a step tests finite is a weight added to a
        local or a local, and locals are written only by adding,
        subtracting or draining, so a non-finite one stays so unless
        drained.  On a break, a fault or a non-finite local it restores the
        locals of the block's start and hands the block to plain steps,
        which meet the exit or the fault as they would have (see _LOOP).
        Traced and untraced runs enter the same loop.

        A period with a bridge runs laps (see _LOOP): the entry code and the
        trip count run again at each lap, and the bridge's firings run after
        the periods with every test but the finiteness and overflow tests,
        each re-test a guard, in one block of their own.

        Code computed once is shared by its text over holes, and a counter
        term by its place, the moves of its counter up to its firing and its
        threshold's text, so the code depends on the structure, the period,
        its bridge and the induction counters alone: never on which values
        coincide on one net.
        """
        states, n, ids, x = period.states, len(period.states), self._ids, _names(self.net, "x{}")
        steps = self._transits(states, states[0])
        written, bound, reads = self._touches(steps)
        moving = {ids[p] for p in written}
        counter_of = {p: c for c, p in enumerate(induction)}
        hoisted: dict[str, str] = {}  # code computed at entry -> the local holding it
        entry_lines: list[str] = []

        def once(code: str) -> str:
            if code not in hoisted:
                hoisted[code] = f"h{len(hoisted)}"
                entry_lines.append(f"            {hoisted[code]} = {code}\n")
            return hoisted[code]

        fixed_weights: set[str] = set()  # weight names bound at entry

        def hoist(tree):
            if type(tree) not in _expr._OPERATORS:  # a leaf, a literal or code
                return tree
            free = _expr.free_places(tree)
            if free and not free & moving:
                return once(_expr._emit(tree, x))
            return type(tree)(*map(hoist, vars(tree).values()))

        counter_terms: dict[tuple, str] = {}
        plan_terms, args = [], [f"x{p}" for p in induction]  # _trip's values: counters, then as needed
        tracked = set(bound)  # places of induction counters the fast body reads
        breaks: dict[tuple, None] = {}  # (flag wanted, decided terms) of guards decided at entry
        read_terms: set[str] = set()  # decided terms that the body's code reads: the trip count keeps them
        guard_lines: list[list[str]] = []
        for i, (ti, ops, guards) in enumerate(steps):
            lines = []
            for tj, want in guards:
                codes, decided = [], []
                for term in self._terms[tj]:
                    kind, free = term[0], self._term_reads(term)
                    fixed = kind != "ge" or fixed_weights.issuperset(term[3])
                    if fixed and not free & moving:
                        if kind == "weight":
                            fixed_weights.add(term[1])
                        name = once(self._term(term, x, None))
                    elif fixed and kind == "ge" and term[1] in counter_of:
                        # the counter holds one level from each of its moves to the next
                        moved = sum(q == term[1] for firing in period.moves[:i + 1] for q, _, _ in firing)
                        at = term[1], moved, term[2]
                        if at not in counter_terms:
                            counter_terms[at] = f"g{len(counter_terms)}"
                            plan_terms.append((counter_of[term[1]], i, len(args)))
                            args.append(term[2])
                        name = counter_terms[at]
                    else:
                        name = None
                        tracked.update(free)
                    codes.append(name or self._term(term, x, hoist))
                    if name:
                        decided.append(name)
                rest = [code for code in codes if code not in decided]
                if want and rest:
                    lines.append(f"if not ({' and '.join(rest)}): break")
                elif rest:
                    lines.append(f"if {' and '.join(codes)}: break")
                    read_terms.update(decided)
                if want or not rest:
                    breaks[bool(want), tuple(decided)] = None
            guard_lines.append(lines)
        untracked = [p for p in induction if ids[p] not in tracked]
        fast = []
        for (ti, ops, _), lines in zip(steps, guard_lines):
            fast += self._lines(self._loop_ops(ops, counter_of, untracked, hoist), x, ti, "break") + lines
        bridge = ""
        if period.bridge:
            crossing = self._transits(period.bridge, states[0])
            crossed, _, more = self._touches(crossing)
            reads |= more
            body = []
            for ti, ops, guards in crossing:
                body += self._lines(self._loop_ops(ops, (), (), None), x, ti, "break")
                body += [f"if not ({self._test(tj, x)}): break" if want else f"if {self._test(tj, x)}: break"
                         for tj, want in guards]
            bridge = _BRIDGE.format(n=n, length=len(crossing),
                                    crossing=self._block(body, crossed, (), crossing, 1, f"d += {len(crossing)}"))
            written = sorted({*written, *crossed})

        terms_at = {name: t for t, name in enumerate(counter_terms.values())}  # index into _trip's known
        for name in dict.fromkeys(name for _, names in breaks for name in names):
            if name not in terms_at:
                terms_at[name] = len(counter_terms) + len(args)
                args.append(name)
        text = _LOOP.format(
            load="".join(f"    x{p} = m[{p}]\n" for p in sorted(self.net.place_index[r] for r in reads)),
            hoisted="".join(entry_lines),
            terms="".join(f"{g}, " for g in counter_terms.values() if g in read_terms),
            n=n, args="".join(f", {a}" for a in args),
            block=_BLOCK, span=_BLOCK * n, periods=self._block(fast, written, untracked, steps, "b", "j += b"),
            advance="".join(f"        if j: x{p} += j * _plan[{3 * counter_of[p]}]\n" for p in untracked),
            bridge=bridge, store="".join(f"    m[{p}] = x{p}\n" for p in written))
        terms = [(*term, name in read_terms) for term, name in zip(plan_terms, counter_terms.values())]
        layout = [(want, [terms_at[name] for name in names]) for want, names in breaks]
        signs = [{sign * ((self._consts[k] > 0) - (self._consts[k] < 0))
                  for firing in period.moves for q, k, sign in firing if q == p} - {0} for p in induction]
        factory, holes = _module(_source("m, budget", [[text]]) + "\n" + _emit_trip(signs, terms, layout, len(args)))
        return _LoopCode(factory, holes, terms, layout)

    def _transits(self, states: Sequence[bytes], after: bytes) -> list[tuple]:
        """The firings from these flag states in turn, the last followed by after, as a loop runs them.

        Firing i is the first enabled transition of states[i] in priority
        order: (transition, operations, guards), its guards each re-test its
        step makes, as (transition re-tested, flag wanted after the firing).
        """
        steps = []
        for pre, post in zip(states, [*states[1:], after]):
            ti = next(t for t in self.order if pre[t])
            moves = self._moves(ti)
            guards = [(tj, post[tj]) for tj in self.trans[ti].recheck  # those _step re-tests
                      if not ((s := self._signs(tj, moves)) == {1} and pre[tj] or s == {-1} and not pre[tj])]
            steps.append((ti, self._ops(ti), guards))
        return steps

    def _touches(self, steps: list[tuple]) -> tuple[list[int], set[str], set[str]]:
        """The places these firings write, in order; those their bound weights read; all they read or write, by id."""
        written = sorted({p for ti, _, _ in steps for p in self.trans[ti].touched})
        bound = {name for _, ops, _ in steps for op in ops if op[0] == "bind" for name in _expr.free_places(op[2])}
        reads = {self._ids[p] for p in written} | bound
        for _, _, guards in steps:
            reads.update(*(self._term_reads(term) for tj, _ in guards for term in self._terms[tj]))
        return written, bound, reads

    def _loop_ops(self, ops: list[tuple], induction: Container[int], untracked: Container[int],
                  hoist: Callable | None) -> list[tuple]:
        """A firing's operations as a loop body runs them, with hoist, if given, rewriting each weight.

        The finiteness and overflow tests go, and a drain adds x - x of its
        value to the sink first; induction counters lose their counter
        checks and `+ 0.0`, and untracked ones their updates.
        """
        out = []
        for op in self._inlined(ops):
            kind = op[0]
            if (kind in ("fault", "overflow") or kind == "zero" and op[1] in induction
                    or kind in ("consume", "deposit") and op[1] in untracked):
                continue
            if kind in ("bind", "consume", "deposit") and hoist:
                op = (kind, op[1], hoist(op[2]))
            elif kind == "counters":
                op = ("counters", [p for p in op[1] if p not in induction])
                if not op[1]:
                    continue
            elif kind == "drain":
                out.append(("sink", op[1]))
            out.append(op)
        return out

    @staticmethod
    def _block(lines: list[str], written: list[int], untracked: Container[int], steps: list[tuple],
               count: str | int, done: str) -> str:
        """A speculative block running these lines of these firings count times, then done (see _SPECULATE)."""
        saved = [f"x{p}" for p in written if p not in untracked]
        drains = any(op[0] == "drain" for _, ops, _ in steps for op in ops)
        tested = saved + ["z"] if drains else saved
        return _SPECULATE.format(saved=", ".join(saved) or "z", copies=", ".join("s" + v for v in saved) or "z",
                                 count=count, done=done, finite=f"not ({_nonfinite(tested)})" if tested else "True",
                                 fast="".join(f"                    {line}\n" for line in lines or ["pass"]))

    def finish(self, ti: int, m: Marking) -> None:
        """The slow path of a firing of ti whose overflow or counter test failed, in a step or a successor.

        Names the first deposit target that is no longer finite; else snaps
        each counter place ti touches to the integer within EPSILON_INT, or
        raises.  A deposit target without an overflow test receives only a
        finite constant below _SAFE_DEPOSIT on a finite place, so a failed
        counter test never finds one here.
        """
        ct = self.trans[ti]
        for p in (self.net.place_index[self.net.arcs[j].target] for j in ct.out_arcs):
            if not math.isfinite(m[p]):
                raise NonFiniteResultError(f"firing {ct.tid} left place {self.net.places[p].id} at {m[p]!r}")
        for p in ct.touched:
            place = self.net.places[p]
            if place.kind == PlaceKind.COUNTER:
                value = m[p]
                r = round(value)
                d = value - r
                if value < -EPSILON_INT or d > EPSILON_INT or d < -EPSILON_INT:
                    raise CounterViolationError(
                        f"firing {ct.tid} left counter place {place.id} at {value!r}"
                    )
                m[p] = r + 0.0

    def _define(self, params: str, bodies: list[list[str]]) -> list[Callable]:
        """One generated function per body from its lines, in one module compiled for this net alone."""
        parts = _source(params, bodies).split(_expr.LITERAL)  # text at even positions, literals at odd
        literals = [float(text) for text in parts[1::2]]
        return self._exec(_factory(parts[::2], list(range(len(literals)))), literals)

    def _exec(self, factory: CodeType, literals: list[float], **extra: object) -> list[Callable]:
        """The functions _f0, _f1, .. a generated module defines: its factory called with its literals.

        The factory runs in a namespace of the net's own; extra adds globals.
        """
        namespace = dict(_expr._COMPILE_GLOBALS)
        namespace.update(_fault=_raise_fault, _finish=self.finish, _FAULTS=_FAULTS, _RecheckFault=_RecheckFault,
                         _range=range, _int=int, _ceil=math.ceil, _copysign=math.copysign, _inf=math.inf,
                         **extra)
        exec(factory, namespace)  # noqa: S102 - source built from our own AST
        return namespace["_make"](*literals)

    def diagnose(self, ti: int, m: Sequence[float]) -> None:
        """Raise the reference error for a fault in transition ti's generated code.

        Evaluates the non-drain input weights, then the output weights, over
        the given marking; the first that fails raises, naming its arc.
        """
        env = marking_env(self.net, m)
        for arc in map(self.net.arcs.__getitem__, self.trans[ti].in_arcs + self.trans[ti].out_arcs):
            if arc.kind == ArcKind.DRAIN:
                continue
            try:
                _expr.evaluate(arc.weight, env)
            except EvaluationError as e:
                label = f"{arc.source}->{arc.target} w={_expr.format_expr(arc.weight)}"
                raise type(e)(f"arc {label}: {e}") from None

    def enabled(self, ti: int, m: Sequence[float]) -> bool:
        try:
            return self.trans[ti].enabled(m)
        except _FAULTS:
            self.diagnose(ti, m)
            raise

    def enabled_flags(self, m: Sequence[float]) -> tuple[bytearray, int]:
        """The enabled flag of every transition, and how many are set."""
        flags = bytearray(self.enabled(ti, m) for ti in range(len(self.trans)))
        return flags, sum(flags)

    def fire_into(self, ti: int, m: Marking) -> None:
        """Apply one firing of an enabled transition to a finite marking in place.

        Runs ti's step on scratch flags.  A re-test fault comes after the
        firing is written; it is ignored, and the next enabling test names it.
        """
        try:
            self.trans[ti].step(m, bytearray(len(self.trans)))
        except _FAULTS:
            self.diagnose(ti, m)
            raise
        except _RecheckFault:
            pass

    def born_weights(self, members: list[int], m: Sequence[float]) -> list[float]:
        """Total squared output weight of each member, summed in arc order.

        The code is generated on the first call: deterministic runs never pay
        for it.  The square of a constant weight is a literal computed here
        with the same float operation, for the reason expr._sum gives.
        """
        if self._born is None:
            bodies = []
            for ti, ct in enumerate(self.trans):
                values, ops = self._bind("v", ct.out_arcs)
                terms = [(f"{v}*{v}", None) if isinstance(v, str) else (_expr._emit(_expr.Constant(v * v), {}), v * v)
                         for v in values]
                bodies.append([f"    {line}" for line in self._lines(ops, self._m, ti, None)]
                              + [f"    return {_expr._sum(terms)[0] or '0.0'}"])
            self._born = self._define("m", bodies)
        weights = []
        for t in members:
            try:
                weights.append(self._born[t](m))
            except _FAULTS:
                self.diagnose(t, m)
                raise
        return weights


# --- compiled code ------------------------------------------------------------------------
#
# Compiled code has one home: the structure of the nets that run it.  The nets
# of one family differ mostly in their float literals.
#
# A net is emitted once per structure: the net with each folded constant a
# hole, and the outcome of each decision emission takes on a value (see
# _CompiledNet._structure).  The first net of a structure emits its enabling
# tests and steps over _Hole constants, which learns the recipe of every
# literal: a constant, a sum of them or a threshold w - EPSILON.  Each module
# is compiled once, to a factory whose body is the module with each literal
# read as an argument _k<i>, one per distinct recipe (see _module), and the
# structure keeps the factory and the recipe of each argument.  Every net of
# the structure, the first included, computes its literals from the recipes
# with the same float operations and calls the factories with them in a
# namespace of its own: its functions read the literals from closure cells,
# and every net of the structure shares their code objects.  Where the compiler would fold literals
# of the real text, such as 1e308*10 in a weight fold_constants keeps because
# it is not finite, the function does that float operation when it runs, with
# the same result.  Every value is written as a literal, finite or not, so a
# key keeps one entry.
#
# Loops and the BFS successors are emitted once per structure too, by the
# first net that needs them.  Sightings of a period are pooled over the nets
# of the structure, and a hot period is kept on the structure by its head.
# The first net that enters it emits its loop over _Hole constants, once for
# each set of induction counters, and again once the period has a bridge;
# every net calls the factory of that code with its own literals and derives
# its trip plan from its own constants (see _CompiledNet.looped).  A net's
# Born code and each check predicate are compiled for the one net that runs
# them (see _CompiledNet._define).

_STRUCTURES: dict[tuple, _Structure] = {}  # structure key -> how its nets build their code, oldest first
_STRUCTURES_MAX = 64
_LOOPS_MAX = 64  # loops kept per structure
_ARCS: dict[tuple, _ArcEntry] = {}  # (source, target, kind, weight text) -> _arc_entry, oldest first
_ARCS_MAX = 1024


class _Hole(float):
    """A folded constant of a net whose structure is being learned, or a value emission derives from them.

    It is its value in every decision, and in emitted text it is the index
    i of its recipe, book[i], whether the value is finite or not: None for a
    constant, ("+", i, j) for a sum expr._sum adds up, ("-", i, c) for a
    threshold.  An operation that derives a value some other way gives a
    plain float, whose literal (a float's repr, never an integer) the
    recipes cannot recompute, so _module fails on it.
    """

    __slots__ = ("book", "index")

    def __new__(cls, value: float, book: list, recipe: tuple | None) -> _Hole:
        hole = float.__new__(cls, value)
        hole.book, hole.index = book, len(book)
        book.append(recipe)
        return hole

    def __add__(self, other: object) -> float:
        if type(other) is not _Hole:
            return NotImplemented
        return _Hole(float(self) + other, self.book, ("+", self.index, other.index))

    def __sub__(self, other: object) -> float:
        if type(other) is not float:
            return NotImplemented
        return _Hole(float(self) - other, self.book, ("-", self.index, other))

    def __repr__(self) -> str:
        return str(self.index)


def _class(w: float, least: float) -> tuple:
    """The decisions emission takes on a constant weight w of an arc on a place whose moves count from least.

    The move it makes (_moves: against 0.5 on a counter, else the sign), its
    sign (a negative weight's term), a zero's sign (_ops' `+ 0.0`) and
    whether a deposit of it needs an overflow test.
    """
    return (w >= least) - (w <= -least), (w > 0.0) - (w < 0.0), math.copysign(1.0, w), abs(w) < _SAFE_DEPOSIT


def _skeleton(tree: _expr.WeightExpr, consts: list[float]) -> object:
    """A folded tree's node types and places, with each constant a hole, None.

    Appends the value of each hole to consts.
    """
    if type(tree) is _expr.Constant:
        consts.append(tree.value)
        return None
    if type(tree) is _expr.MarkRef:
        return tree.place
    return (type(tree), *(_skeleton(child, consts) for child in vars(tree).values()))


class _ArcEntry(NamedTuple):
    """What the nets that have an arc share of it, kept in _ARCS (see PetriNet._entry).

    The nets of a grid have a few hundred distinct arcs over thousands of arcs.
    """

    arc: Arc  # normalized
    place: str  # the endpoint a net must declare as a place
    transition: str  # and the one it must declare as a transition
    free: frozenset[str]  # the places the weight reads
    folded: tuple[WeightExpr, float | None]  # the folded weight, and its value if a finite constant
    consts: tuple[float, ...]  # the folded weight's constants, in the order of its holes
    parts: tuple[tuple, tuple]  # the arc's part of a structure key on an amplitude place, on a counter place


def _arc_entry(arc: Arc) -> _ArcEntry:
    """The entry of a normalized arc.

    Its part of a structure key holds its endpoints, its kind's value (a
    string, whose hash is cached) and its folded weight with each constant a
    hole (see _skeleton); a weight that folds to a finite
    constant is keyed by _class, the outcome of every decision emission
    takes on its value, which counts moves of at least 0.5 on a counter
    place (see _moves).
    """
    folded, consts = _expr.fold_constants(arc.weight), []
    if type(folded) is _expr.Constant and math.isfinite(folded.value):
        value, consts = folded.value, [folded.value]
        shapes = [_class(value, least) for least in (0.0, 0.5)]
    else:
        value, shapes = None, [_skeleton(folded, consts)] * 2
    place, transition = (arc.target, arc.source) if arc.kind is ArcKind.DEPOSIT else (arc.source, arc.target)
    return _ArcEntry(arc, place, transition, _expr.free_places(arc.weight), (folded, value), tuple(consts),
                     tuple([(arc.source, arc.target, arc.kind.value, shape) for shape in shapes]))


def _holed(tree: _expr.WeightExpr, holes: Iterator[_Hole]) -> _expr.WeightExpr:
    """The tree with each constant the next of holes, in _skeleton's order."""
    if type(tree) is _expr.Constant:
        return _expr.Constant(next(holes))
    if type(tree) is _expr.MarkRef:
        return tree
    return type(tree)(*(_holed(child, holes) for child in vars(tree).values()))


def _derive(recipes: list[tuple], consts: list[float]) -> list[float]:
    """The constants, then the value of each recipe in order: the literals a structure's modules take."""
    values = list(consts)
    for op, i, other in recipes:
        values.append(values[i] + values[other] if op == "+" else values[i] - other)
    return values


def _source(params: str, bodies: list[list[str]]) -> str:
    """A module defining _f<i>(params) with the body lines bodies[i]."""
    lines = []
    for ti, body in enumerate(bodies):
        lines += [f"def _f{ti}({params}):", *body]
    return "\n".join(lines)


def _module(source: str) -> tuple[CodeType, list[int]]:
    """A module emitted over holes: its factory (see _factory) and the recipe index of each of its arguments.

    The literals of one recipe read one argument, so a module takes one
    value per distinct recipe.
    """
    parts = source.split(_expr.LITERAL)
    slots: dict[int, int] = {}  # recipe index -> argument
    for text in parts[1::2]:
        slots.setdefault(int(text), len(slots))
    return _factory(parts[::2], [slots[int(text)] for text in parts[1::2]]), list(slots)


@dataclass
class _Structure:
    """How the nets of one structure build their code.

    ``derived`` are the recipes after the constants (see _Hole), from
    which _derive computes a net's literals.  ``wiring`` is each
    transition's (in_arcs, out_arcs, touched, reads, recheck, rivals), and
    ``modules`` are the enabling tests and the steps (see _module).  The
    rest is set as nets of the structure need it, and holds no net and no
    function: flag states, factories and recipes.
    """

    derived: list[tuple]
    wiring: list[tuple]
    order: list[int]
    uniform_rank: bool
    modules: list[tuple[CodeType, list[int]]]
    hot: dict[bytes, _Period]  # hot periods by head, sighted by any net of the structure
    loops: dict[tuple, _LoopCode]  # (states, bridge, _BLOCK, induction counters) -> code; see _CompiledNet.looped
    successors: tuple[CodeType, list[int]] | None  # see _CompiledNet.successors


@dataclass(frozen=True)
class _Period:
    """A hot period: the flag states from its head and its counter moves; firing i fires the first enabled
    transition of states[i] in priority order.

    ``moves`` holds, per firing, (place, index of the constant moved or
    None, sign) for each consume, drain or deposit on a counter place.
    ``bridge`` holds the flag states of the firings from an exit of its
    loop back to the head, once a run has recorded them.
    """

    states: list[bytes]
    moves: tuple[tuple[tuple[int, int | None, int], ...], ...]
    bridge: tuple[bytes, ...]


@dataclass(frozen=True)
class _LoopCode:
    """A loop as the nets of its structure build it (see _CompiledNet._emit_loop).

    ``factory`` and ``holes`` are its module (see _module), each literal
    the index of a structure value: the loop _f0, then its trip count _f1.
    ``terms`` and ``breaks`` are the layout the trip count was emitted from
    (see _emit_trip); a term is (counter, firing, threshold's argument,
    read), and a net passes the counter's level after that firing (see
    _CompiledNet._install).
    """

    factory: CodeType
    holes: list[int]
    terms: list[tuple]
    breaks: list[tuple]


def _levels(moves: tuple, consts: list[float]) -> tuple[tuple, dict[int, list[int]], dict[int, int]]:
    """The induction counters of a period with these counter moves, and each counter's levels and room.

    An induction counter is one that every firing moves by constant
    integers only.  A counter's levels are its changes since the head after
    each firing; its room is the sum of the sizes of its moves.
    """
    places = sorted({p for firing in moves for p, _, _ in firing})
    level, room, irregular = dict.fromkeys(places, 0), dict.fromkeys(places, 0), set()
    after: dict[int, list[int]] = {p: [] for p in places}
    for firing in moves:
        for p, k, sign in firing:
            if k is not None and consts[k] == int(consts[k]):
                level[p] += sign * int(consts[k])
                room[p] += abs(int(consts[k]))
            else:
                irregular.add(p)
        for p in places:
            after[p].append(level[p])
    return tuple(p for p in places if p not in irregular), after, room


def _emit_trip(signs: list[set[int]], terms: list[tuple], breaks: list[tuple], arity: int) -> str:
    """A loop's trip count _f1(k, a0, ..), straight-line code that the loop _f0 calls at entry.

    k is the budget in periods; a0, .. are the induction counters, the
    thresholds of the counter terms, then the guard values the breaks name.
    It returns the periods the loop runs, then the entry value of each term
    the loop reads.  A counter must enter as an exact non-negative integer,
    not -0.0, and the periods are cut, each by a minimum over Python
    integers, so that it stays non-negative and at most 2**53, no term the
    loop reads changes and every guard these terms decide comes out as
    recorded.  The net's integers come in _plan (see _CompiledNet._install).
    signs[c] holds the signs of counter c's moves, fixed by the structure;
    where they differ, the code tests the move d<c> per period.  Term t,
    (counter, firing, threshold's argument, read), holds as g<t> at entry
    and differs from period f<t> on (_inf: never), so the terms of a break,
    (flag wanted, indices into terms then values), all hold over one range
    of periods [lo, hi).
    """
    names = [f"{name}{c}" for c in range(len(signs)) for name in ("d", "low", "room")]
    names += [f"o{t}" for t in range(len(terms))]
    reads = [f"g{t}" for t, term in enumerate(terms) if term[3]]
    lines = [f"{''.join(f'{name}, ' for name in names)}= _plan"] if names else []
    # -0.0 and the negatives are the counters copysign reads as negative
    bad = [f"a{c} % 1.0 != 0.0 or a{c} <= 0.0 and _copysign(1.0, a{c}) < 0.0"
           + f" or a{c} + low{c} < 0.0" * (-1 in s) for c, s in enumerate(signs)]
    lines += [f"if {' or '.join(bad)}: return {', '.join(['(0', *['False'] * len(reads)])},)"] if bad else []
    lines += [f"l{c} = _int(a{c})" for c in range(len(signs))]
    moving = [c for c, s in enumerate(signs) if s]
    if moving:  # no counter passes 2**53 unless their sum can
        levels, rooms = (" + ".join(f"{name}{c}" for c in moving) for name in ("l", "room"))
        lines.append(f"if {levels} + k * ({rooms}) > {2**53}:")
        lines += [f"    if (r := ({2**53} - l{c}) // room{c}) < k: k = r" for c in moving]
    for c, s in enumerate(signs):
        cut = f"if (r := (l{c} + low{c}) // -d{c} + 1) < k: k = r"
        lines += ([f"if d{c} < 0:", f"    {cut}"] if 1 in s else [cut]) if -1 in s else []
        own = [(t, arg, read) for t, (counter, _, arg, read) in enumerate(terms) if counter == c]
        lines += [f"g{t} = l{c} + o{t} >= a{arg}" for t, arg, _ in own]
        up, down = "(_ceil(a{a}) - l{c} - o{t} + d{c} - 1) // d{c}", "(l{c} + o{t} - _ceil(a{a})) // -d{c} + 1"
        flip = ("_inf if g{t} else " + up if s == {1} else down + " if g{t} else _inf" if s == {-1}
                else f"{up} if not g{{t}} and d{{c}} > 0 else {down} if g{{t}} and d{{c}} < 0 else _inf")
        flips = [f"f{t} = " + flip.format(t=t, a=arg, c=c) for t, arg, _ in own]
        if len(s) == 2 and own:  # a counter whose moves cancel flips no term
            flips = [f"if d{c}:", *(f"    {line}" for line in flips), "else:",
                     f"    {' = '.join(f'f{t}' for t, _, _ in own)} = _inf"]
        lines += flips * bool(s) + [f"if f{t} < k: k = f{t}" for t, _, read in own if read and s]
    known = [(f"g{t}", f"f{t}", signs[c]) for t, (c, *_) in enumerate(terms)]
    known += [(f"a{i}", "", set()) for i in range(arity)]
    for want, indices in breaks:
        held = [known[i] for i in indices]
        if want:  # all hold at entry, then up to the first flip; once k is 0, no flip cuts it
            lines += [f"if not ({' and '.join(g for g, _, _ in held)}) and 0 < k: k = 0"] if held else []
            lines += [f"if {f} < k: k = {f}" for _, f, s in held if -1 in s]
            continue
        starts = [(g, f) for g, f, s in held if 1 in s]  # up to lo, where lo < hi
        ends = [f if s == {-1} else f"({f} if {g} else _inf)" for g, f, s in held if -1 in s]
        body = [f"if not {g} and {f} > lo: lo = {f}" if i else f"lo = 0 if {g} else {f}"
                for i, (g, f) in enumerate(starts)]
        lo = "lo" if starts else "0"
        body.append(f"if {' and '.join(f'{lo} < {end}' for end in [*ends, 'k'])}: k = {lo}")
        sticky = [g for g, _, s in held if 1 not in s]  # false once false: its moves never raise it
        lines += [f"if {' and '.join(sticky)}:", *(f"    {line}" for line in body)] if sticky else body
    lines.append(f"return {', '.join(['(k', *reads])},)")
    return "\n    ".join([f"def _f1({', '.join(['k', *(f'a{i}' for i in range(arity))])}):", *lines])


def _factory(text: list[str], slots: list[int]) -> CodeType:
    """The factory of a generated module, text its parts between literals and slots the argument each reads.

    It is a module defining _make(_k0, ..): the module with literal i read
    as _k<slots[i]>, whose call returns the module's functions.  They are
    globals of the namespace it runs in, as in a module, so one can call
    another.
    """
    lines = ("".join(part + f"_k{slot}" for part, slot in zip(text, slots)) + text[-1]).split("\n")
    functions = ", ".join([line[4:line.index("(")] for line in lines if line.startswith("def ")])
    declared = [f"global {functions}"] if functions else []
    arguments = ", ".join(f"_k{i}" for i in range(max(slots, default=-1) + 1))
    source = "\n    ".join([f"def _make({arguments}):", *declared, *lines, f"return [{functions}]"])
    return compile(source, "<string>", "exec")


def _running_sums(weights: Sequence[float]) -> list[float]:
    """The running sums acc += w of the weights: the bounds a draw falls below."""
    sums, acc = [], 0.0
    for w in weights:
        acc += w
        sums.append(acc)
    return sums


def _draw(sums: Sequence[float], total: float, rng: random.Random) -> int:
    """Index i with probability (sums[i] - sums[i-1]) / total; the last absorbs rounding.

    The first running sum above the draw: the sums of non-negative weights
    never fall, so bisect finds it.
    """
    i = bisect_right(sums, rng.random() * total)
    return i if i < len(sums) else len(sums) - 1


def _cumulative_draw(weights: Sequence[float], total: float, rng: random.Random) -> int:
    """Index i with probability weights[i] / total, for non-negative weights.

    A total that is not finite raises: no draw could fall below it.
    """
    if not math.isfinite(total):
        raise NonFiniteResultError(f"the weights of a Born draw sum to {total!r}")
    return _draw(_running_sums(weights), total, rng)


# --- public operations ---------------------------------------------------------------


def _transition_ordinal(net: PetriNet, transition_id: str) -> int:
    try:
        return net.transition_index[transition_id]
    except KeyError:
        raise QpnError(f"net {net.name!r} declares no transition {transition_id!r}") from None


def _check_dimension(net: PetriNet, m: Sequence[float]) -> None:
    if len(m) != len(net.places):
        raise QpnError(f"marking has {len(m)} entries, net has {len(net.places)} places")


def is_enabled(net: PetriNet, m: Sequence[float], transition_id: str) -> bool:
    """Enabling test; expression failures raise rather than answer False."""
    _check_dimension(net, m)
    return net.compiled().enabled(_transition_ordinal(net, transition_id), m)


def enabled_transitions(net: PetriNet, m: Sequence[float]) -> list[str]:
    _check_dimension(net, m)
    cnet = net.compiled()
    return [ct.tid for ct, on in zip(cnet.trans, cnet.enabled_flags(m)[0]) if on]


def fire(net: PetriNet, m: Sequence[float], transition_id: str) -> Marking:
    """One atomic firing; returns the successor marking, input untouched."""
    validate_marking(net, m)
    cnet = net.compiled()
    ti = _transition_ordinal(net, transition_id)
    if not cnet.enabled(ti, m):
        raise NotEnabledError(f"transition {transition_id} is not enabled")
    out = list(m)
    cnet.fire_into(ti, out)
    return out


def conflict_groups(net: PetriNet, m: Sequence[float]) -> list[list[str]]:
    """Partition of the enabled transitions by shared consume/drain places.

    Transitions that only share guard places land in different groups.  Groups
    are ordered by their lowest (priority, ordinal) member; members by ordinal.
    """
    _check_dimension(net, m)
    cnet = net.compiled()
    pending = {t for t, on in enumerate(cnet.enabled_flags(m)[0]) if on}
    groups = []
    for t in cnet.order:  # each group is found from its first member in priority order
        if t in pending:
            group = _group(cnet, t, pending)
            pending -= group
            groups.append([cnet.trans[i].tid for i in sorted(group)])
    return groups


def _group(cnet: _CompiledNet, lead: int, enabled: set[int]) -> set[int]:
    """The enabled transitions linked to lead by a chain of rivals."""
    group, frontier = {lead}, [lead]
    while frontier:
        for t in cnet.trans[frontier.pop()].rivals:
            if t in enabled and t not in group:
                group.add(t)
                frontier.append(t)
    return group


def _born_group(cnet: _CompiledNet, m: Sequence[float], enabled: list[int]) -> tuple[list[int], list[float]]:
    """The lead group of a Born step and the running sums of its members' weights.

    ``enabled`` lists the enabled transitions in priority order; the first
    leads, and the members keep that order.  The total is the last running
    sum, the weights added in order on every Python version (the builtin
    sum() compensates its rounding from 3.12 on).  A total that is zero or
    not finite raises: no member could be drawn.
    """
    group = _group(cnet, enabled[0], set(enabled))
    members = [t for t in enabled if t in group]
    sums = _running_sums(cnet.born_weights(members, m))
    total = sums[-1]
    if total <= 0.0:
        raise ZeroWeightGroupError(
            f"conflict group {[cnet.trans[t].tid for t in members]} has zero total squared output weight"
        )
    if not math.isfinite(total):
        raise NonFiniteResultError(f"the weights of a Born draw sum to {total!r}")
    return members, sums


def _born_choice(cnet: _CompiledNet, m: Sequence[float], enabled: list[int], rng: random.Random) -> int:
    """The member of the lead group that one Born draw picks; enabled is in priority order."""
    members, sums = _born_group(cnet, m, enabled)
    return members[_draw(sums, sums[-1], rng)]


def _chooser(cnet: _CompiledNet, policy: Policy, rng: random.Random, m: Sequence[float],
             flags: bytearray) -> Callable[[], int]:
    """How a run or a step picks each firing: the first enabled transition in priority order, or a Born draw.

    The choice reads m and flags as a run updates them in place.  Under
    BornRandom each choice draws from rng once, also for a singleton group,
    so that a run from random.Random(seed) matches a step() loop draw for draw.
    """
    order = cnet.order
    if policy == Policy.BORN_RANDOM:
        return lambda: _born_choice(cnet, m, [i for i in order if flags[i]], rng)
    if cnet.uniform_rank:  # priority order == ordinal order
        return functools.partial(flags.find, 1)
    return lambda: next(i for i in order if flags[i])


def step(
    net: PetriNet,
    m: Sequence[float],
    config: RunConfig,
    rng: random.Random,
) -> tuple[str, Marking] | None:
    """Fire one transition per the configured policy; None when quiescent."""
    validate_marking(net, m)
    cnet = net.compiled()
    flags, count = cnet.enabled_flags(m)  # tested in ordinal order, so that a fault is the one a run meets first
    if not count:
        return None
    ti = _chooser(cnet, config.policy, rng, m, flags)()
    out = list(m)
    cnet.fire_into(ti, out)
    return cnet.trans[ti].tid, out


def run(net: PetriNet, m0: Sequence[float], config: RunConfig) -> Trace:
    """Apply step() until quiescence or max_steps; its steps replay the run (see Steps)."""
    final = _execute(net, m0, config)
    start = [float(v) for v in m0]  # the marking the run starts from
    return Trace(start, Steps(list(start), config, final.firings, net.compiled()), final.status, final.marking)


def run_final(
    net: PetriNet,
    m0: Sequence[float],
    config: RunConfig,
    require_single_enabled: bool = False,
    *,
    table: BornTable | None = None,
) -> FinalState:
    """The run's final marking, firing count and status, with no Trace to replay it.

    With ``require_single_enabled`` the run asserts that at most one
    transition is enabled before every firing (conflict-free execution).
    A Born run given ``table``, a :class:`BornTable` of this net and m0,
    walks the table, and runs as without it where the walk cannot finish.
    """
    if table is not None:
        if table.net is not net or table.m0 is not m0 or config.policy != Policy.BORN_RANDOM or require_single_enabled:
            raise ValueError("a Born table walks Born runs from its own net and initial marking")
        final = table.walk(config)
        if final is not None:
            return final
    return _execute(net, m0, config, require_single_enabled=require_single_enabled)


# the markings a BornTable keeps an entry for; a run through a marking beyond
# it refills that marking's entry and does not store it
_TABLE_MAX = 4096


@dataclass(slots=True)
class _Branch:
    """A Born step from a marking: one draw over the lead group, then a member's successor.

    ``sums`` are the running sums of the members' weights in priority order,
    the last their total, and each successor is the (key, enabled flags) of
    the marking the member's firing leaves, or None when that firing faults.
    """

    sums: list[float]
    successors: list[tuple[bytes, bytearray] | None]


# the entry of a marking whose step faults before its draw, or whose total
# admits no draw: every run through it runs as without a table
_REFERENCE = "reference"

# the C seeding of random.Random: for an int seed, random.Random.seed adds
# only the reset of gauss_next, which no Born draw reads
_reseed = random.Random.__mro__[1].seed


class BornTable:
    """The Born steps from the markings that Born runs of a net from m0 meet.

    Entries are keyed by a marking's bits (struct-packed, so -0.0 and 0.0
    are different keys).  A quiescent marking's entry is the marking; any
    other marking's entry is the Born step from it (see _Branch), filled on
    the first visit from what a run computes there: the same flags, group,
    weights, total and firings.  A run then costs its seeding, and a draw
    and a dict lookup per firing.  m0 is validated once, when the table is built.
    """

    def __init__(self, net: PetriNet, m0: Sequence[float]) -> None:
        validate_marking(net, m0)
        self.net, self.m0 = net, m0
        self._cnet = net.compiled()
        self._packing = struct.Struct(f"{len(m0)}d")
        self._entries: dict[bytes, object] = {}
        try:
            flags, _ = self._cnet.enabled_flags(m0)
        except QpnError as e:
            e.step_index = 0
            raise
        self._first = self._fill(self._packing.pack(*m0), flags)
        self._rng = random.Random()  # reseeded per run: the stream of random.Random(seed)

    def _fill(self, key: bytes, flags: bytearray) -> object:
        """The entry of the marking with these bits and enabled flags, stored while the table has room."""
        m = list(self._packing.unpack(key))
        entry = self._step(m, flags) if any(flags) else m
        if len(self._entries) < _TABLE_MAX:
            self._entries[key] = entry
        return entry

    def _step(self, m: Marking, flags: bytearray) -> _Branch | str:
        """The Born step from a finite marking with these enabled flags, as a run takes it.

        The lead group and its running sums come from _born_group, which
        Born runs draw with, and each member's successor from its step on a
        copy of the marking and the flags.
        """
        cnet = self._cnet
        try:
            members, sums = _born_group(cnet, m, [t for t in cnet.order if flags[t]])
        except (QpnError, *_FAULTS):
            return _REFERENCE
        successors: list[tuple[bytes, bytearray] | None] = []
        for t in members:
            out, out_flags = list(m), bytearray(flags)
            try:
                cnet.trans[t].step(out, out_flags)
            except (QpnError, _RecheckFault, *_FAULTS):
                successors.append(None)
            else:
                successors.append((self._packing.pack(*out), out_flags))
        return _Branch(sums, successors)

    def walk(self, config: RunConfig) -> FinalState | None:
        """The Born run with this config, or None where it meets a fault or max_steps."""
        rng = self._rng
        _reseed(rng, config.seed)
        max_steps = config.max_steps
        entries = self._entries
        entry = self._first
        firings = 0
        while entry.__class__ is _Branch:
            if firings == max_steps:
                return None
            successor = entry.successors[_draw(entry.sums, entry.sums[-1], rng)]
            if successor is None:
                return None
            firings += 1
            entry = entries.get(successor[0])
            if entry is None:
                entry = self._fill(*successor)
        if entry is _REFERENCE:
            return None
        return FinalState(list(entry), firings, TerminalStatus.QUIESCENT)


def _execute(
    net: PetriNet,
    m0: Sequence[float],
    config: RunConfig,
    require_single_enabled: bool = False,
) -> FinalState:
    """Fire from m0 under config: the final marking, the firings done and why the run stopped.

    Deterministic runs look for a hot head after each round of firings (see
    _CHUNK) and enter the compiled loops of their hot periods; each call
    leaves the marking at its head, so the run goes on with the flags it had
    there.  After a loop without a bridge exits by its trip count, the run
    records the flag states up to its head's return and keeps them as its
    bridge (see _MAX_BRIDGE).
    """
    validate_marking(net, m0)
    cnet = net.compiled()
    m = [float(v) for v in m0]
    deterministic = config.policy == Policy.DETERMINISTIC_PRIORITY

    trans = cnet.trans
    n_trans = len(trans)
    try:
        flags, count = cnet.enabled_flags(m)
    except QpnError as e:
        e.step_index = 0
        raise
    choose = _chooser(cnet, config.policy, random.Random(config.seed), m, flags)
    steps = [ct.step for ct in trans]
    max_steps = config.max_steps
    hot = cnet.hot
    path: list[bytes] | None = None  # flag states recorded since the last look
    trail: list[bytes] | None = None  # flag states recorded since a loop without a bridge exited
    relook = _CHUNK if hot else 0  # looks still to make after each firing
    replay = 0  # firings a loop has left to plain steps, after which the run looks at once
    start = 0
    while True:
        if replay:
            stop, replay = start + replay, 0
        elif deterministic:  # the next firing depends on flags alone
            stop = min(start + (1 if relook or path or trail else _CHUNK), max_steps)
        else:
            stop = max_steps
        for step_index in range(start, stop):
            if count == 0:
                return FinalState(m, step_index, TerminalStatus.QUIESCENT)
            if count > 1 and require_single_enabled:
                names = [trans[i].tid for i in range(n_trans) if flags[i]]
                raise DeterminismViolationError(
                    f"{len(names)} transitions enabled simultaneously after {step_index} firings: {names}"
                )
            try:
                ti = choose()
                try:
                    count += steps[ti](m, flags)
                except _FAULTS:
                    cnet.diagnose(ti, m)
                    raise
                except _RecheckFault as fault:
                    # the firing is written: name the re-test at fault
                    for tj in trans[ti].recheck:
                        cnet.enabled(tj, m)
                    raise fault.__context__ from None
            except QpnError as e:  # from a Born draw, the generated result checks or a diagnosis
                e.step_index = step_index
                raise
        if stop == max_steps:
            break
        # a look for a hot loop: run the compiled one, or record the flag states
        start = stop
        state = bytes(flags)
        if trail is not None:
            if state == trail[0]:
                cnet.bridged(trail)
            trail = trail + [state] if state != trail[0] and len(trail) < _MAX_BRIDGE else None
        loop = cnet.loops.get(state)
        if loop is None and state in hot:
            loop = cnet.looped(state)
        if loop is not None and (loop.single or not require_single_enabled):
            path = None
            budget = (max_steps - start) // loop.period * loop.period
            if not budget:
                continue
            done, replay = loop.run(m, budget)  # m is back at the head: flags hold
            loop.firings += done
            start += done
            relook = _CHUNK
            trail = [state] if replay == 1 and not loop.bridge else None
        elif relook:
            relook -= 1
        elif path is None:
            path = [state]
        elif state in path:
            cnet.sighted(path[path.index(state):])
            path = None
        elif len(path) < _MAX_PERIOD:
            path.append(state)
        else:
            path = None
    status = TerminalStatus.QUIESCENT if count == 0 else TerminalStatus.STEP_LIMIT
    return FinalState(m, max_steps, status)
