"""Loop entry: each loop's emitted trip count against the reference, and the firings at which runs enter loops.

A compiled loop computes its trip count with straight-line code emitted
next to it in its module (``net._emit_trip``); ``test_trace._trip_count`` is
the generic reference.  They are compared on every loop entry of the wide
table grid and of the ring nets here, and on entry states that no run
reaches.  After a loop exits, and from its first firing on a structure with
hot heads, a run looks for a loop head after each firing inside its step
loop, and it records the bridge of a loop that has none; the loop calls it
makes, with the step of each, the firings done and the firings handed back,
are pinned against a reference look loop kept here, which makes one look per
pass of its outer loop.
"""

import math
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpn.net as net_module
from qpn.cli import main
from qpn.errors import QpnError
from qpn.models import ProtocolParams, blocking_expected_firings, passing_expected_firings
from qpn.models import slaz_blocking_net, slaz_passing_net
from qpn.net import Arc, ArcKind, PetriNet, PlaceDecl, PlaceKind, RunConfig, TerminalStatus, TransitionDecl, run_final
from test_nested_rings import _nested_case
from test_trace import (
    _alone,
    _check_against_step_loop,
    _loop_firings,
    _metered_ring,
    _outcome,
    _recording_trip_counts,
    _ring_behind_warm_up,
    _ring_case,
    _switched_ring,
    _trip_count,
)
from test_trace_record import _lowered

C, A = PlaceKind.COUNTER, PlaceKind.AMPLITUDE
GOLDEN = Path(__file__).parent / "golden"


def _mixed_ring(take, give, start=50):
    """A 2-transition ring of 300 laps whose lap counter c loses `take` at t0 and gains `give` at t1.

    Its moves differ in sign, so the loop's trip count tests the sign of c's
    move per period, which is give - take: nets with take, give = 1, 2;
    2, 1; and 1, 1 share the loop's code.  s1, first in priority order,
    is enabled once c reaches 80; s2, last, while c holds at least 30 and
    fires only when the ring stops.
    """
    places = [PlaceDecl("r0", C, 1.0), PlaceDecl("r1", C, 0.0), PlaceDecl("b", C, 300.0),
              PlaceDecl("c", C, float(start)), PlaceDecl("x", C, 1.0), PlaceDecl("y", C, 1.0), PlaceDecl("out", A, 0.0)]
    arcs = [Arc("b", "t0"), Arc("r0", "t0"), Arc("t0", "r1"), Arc("c", "t0", str(take)), Arc("r1", "t1"),
            Arc("t1", "r0"), Arc("t1", "c", str(give)), Arc("t1", "out", "m(out)*0.5+0.25"),
            Arc("x", "s1"), Arc("c", "s1", "80", ArcKind.GUARD), Arc("s1", "out", "1"),
            Arc("y", "s2"), Arc("c", "s2", "30", ArcKind.GUARD), Arc("s2", "out", "2")]
    transitions = [TransitionDecl("s1", 0), TransitionDecl("t0", 1), TransitionDecl("t1", 1), TransitionDecl("s2", 2)]
    return PetriNet("mixed", places, transitions, arcs)


_MIXED = [(1, 2), (2, 1), (1, 1)]


# --- the emitted trip counts against the reference -------------------------------------


def test_trip_counts_match_the_reference_on_every_entry_of_the_wide_grid(capsys):
    """Every loop entry of the 96 cells of tables_wide.csv, in both modes; the table stays byte-identical."""
    calls = []
    with _recording_trip_counts(calls):
        code = main(["tables", "--mode", "both", "--N", "2,3,5,8,13,21,34,48", "--M", "2,3,5,8,13,24"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / "tables_wide.csv").read_text()
    assert len(calls) > 500 and any(k > 1 for _, k, _ in calls)


def test_mixed_counter_rings_match_step_loop_and_the_reference():
    """One loop code for a counter that gains, loses or keeps its level per period: each net's trip count
    tests the sign of its move, and s1 or s2 switches where the step loop switches it."""
    calls = []
    with mock.patch.object(net_module, "_CHUNK", 8), _alone(), _recording_trip_counts(calls):
        emitted = 0
        for take, give in _MIXED:
            for start in (50, 29, 79, 80):
                for max_steps in (10**6, 37, 61):
                    net = _mixed_ring(take, give, start)
                    _check_against_step_loop(net, net.initial_marking(), RunConfig(max_steps=max_steps), False)
            emitted += _loop_firings(net) > 0
        assert len(net_module._STRUCTURES) == 1 and emitted == 3
    trips = {k for _, k, _ in calls}
    assert 0 in trips and len(trips) > 3


def _entries(build, config=RunConfig(), chunk=8):
    """Each loop a run of a fresh structure installs: its emitted trip count, its plan and the calls it took."""
    plans = []
    with mock.patch.object(net_module, "_CHUNK", chunk), _alone(), _recording_trip_counts([], plans):
        net = build()
        run_final(net, net.initial_marking(), config)
    return [entry for entry in plans if entry[2]]


_COUNTERS = (0.0, -0.0, 1.0, 3.0, 2.5, -1.0, -3.0, 7.0000000001, 6.9999999999,
             2.0**53 - 1, 2.0**53, 2.0**53 + 2, 1e300, math.nan, math.inf, -math.inf)
_THRESHOLDS = (0.5, -2.0, 2.0**53, 1e300, math.nan, math.inf, -math.inf)
_LOOPS = {
    "metered": lambda: _metered_ring(60),
    "switched": lambda: _switched_ring(80, 31),
    **{f"mixed-{take}-{give}": (lambda take=take, give=give: _mixed_ring(take, give)) for take, give in _MIXED},
    "passing": lambda: slaz_passing_net(ProtocolParams(N=320, M=25))[0],
    "blocking": lambda: slaz_blocking_net(ProtocolParams(N=320, M=25))[0],
}


@pytest.mark.parametrize("name", sorted(_LOOPS))
def test_trip_counts_match_the_reference_on_entry_states_no_run_reaches(name):
    """A loop's recorded entries with a counter at -0.0, off an integer, negative, near or past 2**53 or not
    finite, with a threshold that is not finite or far off, and with seeded nearby levels and thresholds,
    over budgets from one period up: the same trip count and read terms, or a fault in both."""
    entries = _entries(_LOOPS[name])
    assert entries
    rng = random.Random(name)
    checked = 0
    for trip, plan, calls in entries:
        n = len(plan[0])
        for periods, values in calls[:3]:
            variants = [values]
            for c in range(n):
                variants += [values[:c] + (x,) + values[c + 1:] for x in _COUNTERS]
            variants += [(x,) * n + values[n:] for x in _COUNTERS]
            for i in range(n, len(values)):
                variants += [values[:i] + (x,) + values[i + 1:] for x in _THRESHOLDS]
            for _ in range(100):
                variants.append(tuple(float(rng.choice([v, max(v + rng.randint(-6, 6), 0), rng.randint(0, 120)]))
                                      for v in values[:n])
                                + tuple(rng.choice([v, v + rng.randint(-6, 6), v + 0.5])
                                        if type(v) is float else rng.choice([True, False]) for v in values[n:]))
            for args in variants:
                for budget in (1, 2, periods, rng.randint(1, 10**6)):
                    expected = _outcome(_trip_count, plan, budget, *args)
                    assert _outcome(trip, budget, *args) == expected, (plan, budget, args)
                    checked += 1
    assert checked > 500


# --- the loop calls of a run ----------------------------------------------------------


def _reference_schedule(net, m0, config, single, schedule):
    """A run as the look loop made it before its looks moved into the step loop, appending each loop call to
    schedule as (step, firings done, firings handed back); returns (firings, status).

    It looks once per pass of its outer loop: after the _CHUNK firings of a
    pass, or after each firing while it records a period or a bridge or, up
    to _CHUNK looks, after a loop exit and from the first firing on a
    structure with hot heads.  A bridge is recorded from the exit of a loop
    that has none, when the loop hands back one firing, until its head comes
    back within _MAX_BRIDGE states.
    """
    cnet = net.compiled()
    m = [float(v) for v in m0]
    flags, count = cnet.enabled_flags(m)
    max_steps, path, trail, replay, start = config.max_steps, None, None, 0, 0
    relook = net_module._CHUNK if cnet.hot else 0
    while True:
        if replay:
            stop, replay = start + replay, 0
        else:
            looks = path is not None or trail is not None or relook
            stop = min(start + (1 if looks else net_module._CHUNK), max_steps)
        for step_index in range(start, stop):
            if count == 0:
                return step_index, TerminalStatus.QUIESCENT
            if count > 1 and single:
                raise QpnError("more than one transition enabled")
            count += cnet.trans[next(t for t in cnet.order if flags[t])].step(m, flags)
        if stop == max_steps:
            break
        start = stop
        state = bytes(flags)
        if trail is not None:
            if state == trail[0]:
                cnet.bridged(trail)
                trail = None
            elif len(trail) < net_module._MAX_BRIDGE:
                trail.append(state)
            else:
                trail = None
        loop = cnet.loops.get(state)
        if loop is None and state in cnet.hot:
            loop = cnet.looped(state)
        if loop is not None and (loop.single or not single):
            path = None
            budget = (max_steps - start) // loop.period * loop.period
            if not budget:
                continue
            done, replay = loop.run(m, budget)
            schedule.append((start, done, replay))
            start += done
            relook = net_module._CHUNK
            trail = [state] if replay == 1 and not loop.bridge else None
        elif relook:
            relook -= 1
        elif path is None:
            path = [state]
        elif state in path:
            cnet.sighted(path[path.index(state):])
            path = None
        elif len(path) < net_module._MAX_PERIOD:
            path.append(state)
        else:
            path = None
    return max_steps, TerminalStatus.QUIESCENT if count == 0 else TerminalStatus.STEP_LIMIT


def _schedule(net, m0, config, single, schedule):
    """run_final, appending each loop call to schedule as (step, firings done, firings handed back)."""
    fired = [0]  # plain firings, then loop firings as each call returns

    def counted(step):
        def counting(m, flags):
            fired[0] += 1
            return step(m, flags)
        return counting

    for ct in net.compiled().trans:
        ct.step = counted(ct.step)
    install = net_module._CompiledNet._install

    def installed(cnet, *args):
        loop = install(cnet, *args)
        run = loop.run

        def recorded(m, budget):
            done, replay = run(m, budget)
            schedule.append((fired[0], done, replay))
            fired[0] += done
            return done, replay

        loop.run = recorded
        return loop

    with mock.patch.object(net_module._CompiledNet, "_install", installed):
        final = run_final(net, m0, config, require_single_enabled=single)
    return final.firings, final.status


def _outcome_of(run, build, config, single):
    schedule = []
    with _alone():
        net = build()
        try:
            end = run(net, net.initial_marking(), config, single, schedule)
        except (QpnError, ArithmeticError, ValueError, net_module._RecheckFault):
            end = "raised"
    return schedule, end


def _check_schedule(build, config, single=False):
    """The code's loop calls and end equal the reference look loop's, each run from an empty structure cache."""
    expected = _outcome_of(_reference_schedule, build, config, single)
    assert _outcome_of(_schedule, build, config, single) == expected
    return expected[0]


@pytest.mark.parametrize("mode", ["passing", "blocking"])
@pytest.mark.parametrize("n, m", [(13, 5), (48, 24), (320, 25)])
def test_loop_calls_match_the_reference_look_loop_on_protocol_cells(mode, n, m):
    build, expected = ((slaz_passing_net, passing_expected_firings) if mode == "passing"
                       else (slaz_blocking_net, blocking_expected_firings))
    firings = expected(n, m)
    calls = 0
    for max_steps in (10**6, firings - 7, firings // 2):
        for single in (False, True):
            calls += len(_check_schedule(lambda: build(ProtocolParams(N=n, M=m))[0], RunConfig(max_steps=max_steps),
                                         single))
    assert calls > 0


def test_a_warm_structure_enters_its_first_loop_at_its_first_hot_head():
    """On a structure with hot heads a run looks from its first firing on, so a later cell of the table makes
    its first loop call at the first firing after which its flags are a hot head, where the reference look
    loop makes it."""
    for build in (slaz_passing_net, slaz_blocking_net):
        def second(build=build):
            first = build(ProtocolParams(N=21, M=8))[0]
            run_final(first, first.initial_marking(), RunConfig())
            return build(ProtocolParams(N=48, M=24))[0]

        schedule = _check_schedule(second, RunConfig(), True)
        with _alone():
            net = second()
            cnet = net.compiled()
            m = net.initial_marking()
            flags, _ = cnet.enabled_flags(m)
            head = 0
            while not head or bytes(flags) not in cnet.hot:  # the protocol nets fire in ordinal order
                cnet.trans[flags.find(1)].step(m, flags)
                head += 1
        assert schedule[0][0] == head < net_module._CHUNK, (schedule[0], head)


@pytest.mark.parametrize("chunk", [64, 8, 1])
def test_loop_calls_match_the_reference_look_loop_on_ring_nets(chunk):
    builds = [lambda: _metered_ring(60), lambda: _switched_ring(80, 31), lambda: _ring_behind_warm_up(40, 40),
              *(lambda take=take, give=give: _mixed_ring(take, give) for take, give in _MIXED)]
    calls = 0
    with mock.patch.object(net_module, "_CHUNK", chunk):
        for build in builds:
            for max_steps in (10**6, 97, 200):
                calls += len(_check_schedule(build, RunConfig(max_steps=max_steps)))
    assert calls > 0


def test_loop_calls_match_the_reference_look_loop_on_generated_rings():
    """The ring nets of test_trace and the nested-ring nets, hazards and single-enabled checks included,
    under a lowered look interval and block length."""
    calls = []

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(_ring_case(), _nested_case().map(lambda case: (case[0], case[2], case[3]))))
    def check(case):
        net, config, single = case
        calls.append(len(_check_schedule(lambda: PetriNet(net.name, net.places, net.transitions, net.arcs), config,
                                         single)))

    chunk, block = _lowered()
    with chunk, block:
        check()
    assert sum(calls) > 0
