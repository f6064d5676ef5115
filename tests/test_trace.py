"""The trace tier: hot periods of deterministic runs compiled into one loop.

``run_final`` runs a recurring period of firings as a generated loop over
local variables, and ``run``, the same run kept for its trace, enters it too.
A ``step()`` loop calls the plain generated code and is the reference;
``run`` is compared as well.  Every comparison is bit for bit.
"""

import contextlib
import hashlib
import math
import random
import struct
from dataclasses import fields, replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpn.net as net_module
from qpn.errors import DeterminismViolationError, QpnError
from qpn.expr import Constant, MarkRef, Pi
from qpn.models import (
    ProtocolParams,
    blocking_expected_firings,
    passing_expected_firings,
    slaz_blocking_net,
    slaz_passing_net,
    zeno_expected_firings,
    zeno_net,
)
from qpn.net import (
    Arc,
    ArcKind,
    PetriNet,
    PlaceDecl,
    PlaceKind,
    RunConfig,
    TerminalStatus,
    TransitionDecl,
    enabled_transitions,
    run,
    run_final,
    step,
)
from test_caches import _emissions

C, A = PlaceKind.COUNTER, PlaceKind.AMPLITUDE


def _bits(m):
    """The exact bytes of a marking: -0.0 and 0.0 differ."""
    return struct.pack(f"{len(m)}d", *m)


def _loop_firings(net):
    return sum(loop.firings for loop in net.compiled().loops.values())


# --- closed forms at sizes where a loop compiles ------------------------------------


@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: slaz_passing_net(ProtocolParams(N=700, M=3))[0], passing_expected_firings(700, 3)),
        (lambda: slaz_blocking_net(ProtocolParams(N=1100, M=2))[0], blocking_expected_firings(1100, 2)),
        (lambda: zeno_net(ProtocolParams(N=3000))[0], zeno_expected_firings(3000)),
    ],
    ids=["passing-700-3", "blocking-1100-2", "zeno-3000"],
)
def test_closed_form_firings_through_loops(build, expected):
    net = build()
    config = RunConfig(max_steps=expected + 8)
    final = run_final(net, net.initial_marking(), config, require_single_enabled=True)
    assert final.status == TerminalStatus.QUIESCENT
    assert final.firings == expected
    assert _loop_firings(net) > expected // 4  # the loop did a real share of the run
    marking, firings, status = _reference(build(), net.initial_marking(), config, True)
    assert (firings, status) == (expected, TerminalStatus.QUIESCENT)
    assert _bits(final.marking) == _bits(marking)
    trace = run(build(), net.initial_marking(), config)
    assert len(trace.steps) == expected
    assert _bits(final.marking) == _bits(trace.final)


# SHA-256 of the struct-packed final marking of each deep run, recorded before
# compiled loops were specialized on their entry state: every bit is pinned,
# where the tables CSV shows 9 decimals
_DEEP_DIGESTS = [
    (lambda: slaz_passing_net(ProtocolParams(N=2500, M=25))[0], passing_expected_firings(2500, 25),
     "f4bb9e65a68bb0a1da898a4c450e8b43ab3e5e9882fc1c11f18d1e1c25f415f0"),
    (lambda: slaz_blocking_net(ProtocolParams(N=2500, M=50))[0], blocking_expected_firings(2500, 50),
     "24b948d5bd7e562c1c023be2b4eab7c2cf3cf0108a74d176070ae4bfff4b2638"),
    (lambda: zeno_net(ProtocolParams(N=99577))[0], zeno_expected_firings(99577),
     "145b554ffda7e9f31a70b52d4ceee22297573bda22e694669d872a47c30297ef"),
]


@pytest.mark.parametrize("build, expected, digest", _DEEP_DIGESTS, ids=["passing-2500-25", "blocking-2500-50",
                                                                       "zeno-99577"])
def test_deep_runs_keep_every_bit(build, expected, digest):
    net = build()
    config = RunConfig(max_steps=expected + 8)
    final = run_final(net, net.initial_marking(), config, require_single_enabled=True)
    assert (final.firings, final.status) == (expected, TerminalStatus.QUIESCENT)
    assert hashlib.sha256(_bits(final.marking)).hexdigest() == digest


def test_loop_is_entered_again_after_it_exits():
    """After an exit, each firing is looked at until the loop head comes back.

    Passing N=320/M=150 runs 957 of every 980 firings in its inner loop once
    that has compiled, which takes two outer cycles.
    """
    net, _ = slaz_passing_net(ProtocolParams(N=320, M=150))
    config = RunConfig(max_steps=passing_expected_firings(320, 150))
    final = run_final(net, net.initial_marking(), config)
    assert _loop_firings(net) >= 0.96 * final.firings
    marking, firings, status = _reference(net, net.initial_marking(), config, False)
    assert (final.firings, final.status) == (firings, status)
    assert _bits(final.marking) == _bits(marking)
    assert _bits(final.marking) == _bits(run(net, net.initial_marking(), config).final)


def test_loop_is_reused_across_runs_and_budgets():
    """A cached loop serves later runs, and max_steps cuts it only at whole periods."""
    net, _ = zeno_net(ProtocolParams(N=3000))
    m0 = net.initial_marking()
    run_final(net, m0, RunConfig(max_steps=zeno_expected_firings(3000)))
    [loop] = net.compiled().loops.values()
    for max_steps in (100, 101, 102, 4001, 8997):
        firings = loop.firings
        marking, count, status = _reference(net, m0, RunConfig(max_steps=max_steps), False)
        recorded = run(net, m0, RunConfig(max_steps=max_steps))
        got = run_final(net, m0, RunConfig(max_steps=max_steps))
        assert loop.firings > firings  # from the first look for a loop, at firing 64, on
        assert (got.firings, got.status) == (count, status) == (len(recorded.steps), recorded.status)
        assert _bits(got.marking) == _bits(marking) == _bits(recorded.final)


def _switch_net(switch_on):
    """t0 fires 5000 times; s, of lower priority, is enabled from t0's switch_on-th firing."""
    places = [PlaceDecl("r", C, 1.0), PlaceDecl("b", C, 5000.0), PlaceDecl("w", C, 0.0),
              PlaceDecl("x", C, 1.0), PlaceDecl("out", A, 0.0)]
    arcs = [Arc("r", "t0"), Arc("b", "t0"), Arc("t0", "r"), Arc("t0", "w"),
            Arc("w", "s", str(switch_on), ArcKind.GUARD), Arc("x", "s"), Arc("s", "out", "0.5")]
    return PetriNet("switch", places, [TransitionDecl("t0", 0), TransitionDecl("s", 1)], arcs)


def test_cached_loop_with_two_enabled_respects_require_single_enabled():
    """A loop through states with two enabled transitions never runs under the single check.

    The first run compiles a period-1 loop in which t0 and s are both
    enabled.  In the second, that state first appears after switch_on
    firings; over this range of switch_on it falls on a look for a loop for
    some values, and the run must stop there all the same.
    """
    for switch_on in range(120, 200):
        net = _switch_net(switch_on)
        m0 = net.initial_marking()
        first = run_final(net, m0, RunConfig())
        assert (first.firings, first.status) == (5001, TerminalStatus.QUIESCENT)
        loop = net.compiled().loops[b"\x01\x01"]
        assert not loop.single and loop.firings > 0
        message = rf"after {switch_on} firings: \['t0', 's'\]"
        with pytest.raises(DeterminismViolationError, match=message):
            run_final(net, m0, RunConfig(), require_single_enabled=True)


# --- a ring differential test with seeded hazards -----------------------------------

_RING_WEIGHTS = (
    "m(a0)*0.5", "0.5*m(a1)+0.25", "m(a0)-m(a1)", "sin(m(a0))", "m(r0)*0.75",
    "cos(pi/(2*m(b)+2))", "0.25", "0-0.5", "m(a1)*m(a1)", "m(a1)^2", "m(a0)/(m(b)+1)",
)
_HAZARDS = ("div_firing", "div_retest", "negative", "fractional", "overflow", "switch_on", "drain",
            "trig_of_inf", "nan_drain", "power", "drained_overflow")


@st.composite
def _ring_case(draw):
    """A token circulating through 2-5 transitions for hundreds of laps, with hazards.

    Returns (net, config, require_single_enabled).
    """
    k = draw(st.integers(min_value=2, max_value=5))
    laps = draw(st.integers(min_value=100, max_value=400))
    places = [PlaceDecl(f"r{i}", C, 1.0 if i == 0 else 0.0) for i in range(k)]
    places += [PlaceDecl("b", C, float(laps)), PlaceDecl("a0", A, 0.5), PlaceDecl("a1", A, -0.25)]
    transitions = [TransitionDecl(f"t{i}", draw(st.integers(0, 2))) for i in range(k)]
    arcs = [Arc("b", "t0")]
    for i in range(k):
        arcs += [Arc(f"r{i}", f"t{i}"), Arc(f"t{i}", f"r{(i + 1) % k}")]
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            target = draw(st.sampled_from(["a0", "a1"]))
            arcs.append(Arc(f"t{i}", target, draw(st.sampled_from(_RING_WEIGHTS))))

    def ring():
        return f"t{draw(st.integers(0, k - 1))}"

    for hazard in sorted(draw(st.sets(st.sampled_from(_HAZARDS), min_size=1, max_size=2))):  # not in hash order
        at_lap = draw(st.integers(min_value=30, max_value=laps + 20))
        _add_hazard(draw, hazard, at_lap, ring, places, transitions, arcs)
    max_steps = draw(st.one_of(st.just(1_000_000), st.integers(min_value=k * 30, max_value=k * (laps + 10))))
    net = PetriNet("ring", places, transitions, arcs)
    return net, RunConfig(max_steps=max_steps), draw(st.booleans())


def _add_hazard(draw, hazard, at_lap, ring, places, transitions, arcs):
    """Add one of _HAZARDS, set to strike near firing at_lap of the transitions ring() draws, to the net's lists."""
    if hazard == "div_firing":  # 1/m(q) as q counts down to 0, in a deposit
        places.append(PlaceDecl("q", A, float(at_lap)))
        arcs += [Arc(ring(), "q", "0-1"), Arc(ring(), "a0", "1/m(q)")]
    elif hazard == "div_retest":  # the same in a guard, so a re-test faults
        places += [PlaceDecl("u", A, float(at_lap)), PlaceDecl("z", A, 1e9)]
        arcs += [Arc(ring(), "u", "0-1"), Arc("z", ring(), "1/m(u)", ArcKind.GUARD)]
    elif hazard == "negative":  # a counter driven below zero
        places.append(PlaceDecl("c", C, float(at_lap)))
        arcs.append(Arc(ring(), "c", "0-1"))
    elif hazard == "fractional":  # snapped while within 1e-9, then a violation
        places += [PlaceDecl("f", C, 0.0), PlaceDecl("h", A, 0.0)]
        source = ring()
        arcs += [Arc(source, "h", f"1/{at_lap}000000000"), Arc(source, "f", "m(h)")]
    elif hazard == "overflow":  # a deposit that grows until it is not finite
        places.append(PlaceDecl("g", A, 1.0))
        arcs.append(Arc(ring(), "g", f"m(g)*{draw(st.sampled_from([3, 15, 255]))}"))
    elif hazard == "switch_on":  # a second transition enabled mid-loop
        places += [PlaceDecl("w", C, 0.0), PlaceDecl("s_out", A, 0.0)]
        transitions.append(TransitionDecl("s", draw(st.integers(0, 2))))
        arcs += [Arc(ring(), "w"), Arc("w", "s", str(at_lap)), Arc("s", "s_out", "m(a0)")]
    elif hazard == "drain":  # a drain that stops the ring once the drained place reaches zero
        places.append(PlaceDecl("d", A, 1.0))
        arcs += [Arc("d", ring(), "m(d)", ArcKind.DRAIN), Arc(ring(), "d", "m(a0)*m(a0)")]
    elif hazard == "trig_of_inf":  # sin or cos of a place after it overflows
        places.append(PlaceDecl("o", A, 2.0 ** max(1000 - 8 * at_lap, -1000)))
        arcs += [Arc(ring(), "o", "m(o)*255"), Arc(ring(), "a1", f"{draw(st.sampled_from(['sin', 'cos']))}(m(o))")]
    elif hazard == "nan_drain":  # inf - inf into a drained place, whose drain test a nan fails
        places += [PlaceDecl("n", A, 2.0 ** max(1000 - 8 * at_lap, -1000)), PlaceDecl("nd", A, 1.0)]
        arcs += [Arc(ring(), "n", "m(n)*255"), Arc(ring(), "nd", "m(n)-m(n)+1"),
                 Arc("nd", ring(), "m(nd)", ArcKind.DRAIN)]
    elif hazard == "drained_overflow":  # a deposit that overflows on some laps, into a drained place
        places += [PlaceDecl("sc", C, 0.0), PlaceDecl("se", A, 0.8 - 0.01 * at_lap), PlaceDecl("sd", A, 1.0)]
        arcs += [Arc(ring(), "sc"), Arc(ring(), "se", "0.01"), Arc(ring(), "sd", _spike("sc", "se")),
                 Arc("sd", ring(), "m(sd)", ArcKind.DRAIN)]
    else:  # m(g)^2 added to g: 1/g falls by about 1 a lap, then g overflows within 12 laps
        places.append(PlaceDecl("pw", A, 1.0 / at_lap))
        arcs.append(Arc(ring(), "pw", "m(pw)^2"))


def _reference(net, m0, config, require_single_enabled):
    """run_final spelled as a step() loop: (marking, firings, status) or the error.

    A fault in an enabling test before step i re-tests what step i-1 wrote,
    which a run reports as part of step i-1.
    """
    rng = random.Random(config.seed)
    m = list(m0)
    for i in range(config.max_steps):
        try:
            enabled = enabled_transitions(net, m)
        except QpnError as e:
            e.step_index = max(i - 1, 0)
            return e
        if require_single_enabled and len(enabled) > 1:
            return DeterminismViolationError(
                f"{len(enabled)} transitions enabled simultaneously after {i} firings: {enabled}"
            )
        try:
            result = step(net, m, config, rng)
        except QpnError as e:
            e.step_index = i
            return e
        if result is None:
            return m, i, TerminalStatus.QUIESCENT
        m = result[1]
    try:
        enabled = enabled_transitions(net, m)
    except QpnError as e:
        e.step_index = config.max_steps - 1
        return e
    return m, config.max_steps, TerminalStatus.STEP_LIMIT if enabled else TerminalStatus.QUIESCENT


def _spike(c, e):
    """1e308 * (sin(c) + e) + 1, which overflows on laps c near a peak of sin once e passes 0.7977."""
    return f"1e308*(sin(m({c}))+m({e}))+1"


# hazards that strike after 1,500 laps of a 3-transition ring, well after its
# loop has compiled with the real look interval
_LATE_HAZARDS = {
    "overflow": ([PlaceDecl("g", A, 1.0)], [Arc("t1", "g", "m(g)*0.5")]),  # x1.5 a lap
    "negative": ([PlaceDecl("c", C, 1500.0)], [Arc("t2", "c", "0-1")]),
    "fractional": ([PlaceDecl("f", C, 0.0), PlaceDecl("h", A, 0.0)],
                   [Arc("t1", "h", "1/1500000000000"), Arc("t1", "f", "m(h)")]),
    "div_firing": ([PlaceDecl("q", A, 1500.0)], [Arc("t0", "q", "0-1"), Arc("t2", "a", "1/m(q)")]),
    "div_retest": ([PlaceDecl("u", A, 1500.0), PlaceDecl("z", A, 1e9)],
                   [Arc("t0", "u", "0-1"), Arc("z", "t1", "1/m(u)", ArcKind.GUARD)]),
    # from about lap 1,500 the deposit into d overflows on some laps, and t2 drains d on every lap
    "drained_overflow": ([PlaceDecl("c", C, 0.0), PlaceDecl("e", A, -0.7), PlaceDecl("d", A, 1.0)],
                         [Arc("t0", "c"), Arc("t0", "e", "0.001"), Arc("t1", "d", _spike("c", "e")),
                          Arc("d", "t2", "m(d)", ArcKind.DRAIN)]),
}


def _late_net(hazard):
    """A 3-transition ring of 3,000 laps with one of the late hazards."""
    extra_places, extra_arcs = _LATE_HAZARDS[hazard]
    places = [PlaceDecl("r0", C, 1.0), PlaceDecl("r1", C, 0.0), PlaceDecl("r2", C, 0.0),
              PlaceDecl("b", C, 3000.0), PlaceDecl("a", A, 0.5), *extra_places]
    arcs = [Arc("b", "t0"), Arc("r0", "t0"), Arc("t0", "r1"), Arc("r1", "t1"), Arc("t1", "r2"),
            Arc("r2", "t2"), Arc("t2", "r0"), Arc("t1", "a", "m(a)*0.5"), *extra_arcs]
    return PetriNet("late", places, ["t0", "t1", "t2"], arcs)


def _alone():
    """An empty structure cache: a net warms up its loops alone, as the first net of its structure does."""
    return mock.patch.object(net_module, "_STRUCTURES", {})


def _recording_loops(results):
    """Patch loop building so that every run of a compiled loop appends its (fired, replay) to results.

    Every loop of a net is built by _install, from a fresh emission or from its structure's cached code.
    """
    install = net_module._CompiledNet._install

    def compiled(cnet, *args):
        loop = install(cnet, *args)
        run_loop = loop.run

        def recorded(m, budget):
            results.append(run_loop(m, budget))
            return results[-1]

        loop.run = recorded
        return loop

    return mock.patch.object(net_module._CompiledNet, "_install", compiled)


@pytest.mark.parametrize("hazard", sorted(_LATE_HAZARDS))
def test_late_hazard_inside_a_loop_matches_step_loop(hazard):
    net = _late_net(hazard)
    m0, config = net.initial_marking(), RunConfig()
    expected = _reference(net, m0, config, True)
    assert isinstance(expected, QpnError)
    results = []
    with _recording_loops(results), pytest.raises(type(expected)) as raised:
        run_final(net, m0, config, require_single_enabled=True)
    assert (str(raised.value), raised.value.step_index) == (str(expected), expected.step_index)
    if hazard == "fractional":  # snapping f fails every block: the loop is entered and hands it back
        assert any(replay for _, replay in results)
    else:  # the other hazards strike inside the loop
        assert _loop_firings(net) > 1000


def test_loop_whose_every_block_fails_is_entered_once_per_replayed_block():
    """Snapping f fails the first period of every block, which the run then fires as plain steps.

    Each entry does no firing and hands back one block of up to _BLOCK
    periods, so the run never spins at the loop head: from its first look,
    _CHUNK firings in, to the step it stops at, it enters once per block at
    most.  The budgets end 7 firings apart across one block's stretch, so the
    last block of each run is cut short by the budget.
    """
    block = net_module._BLOCK * 3
    net = _late_net("fractional")
    fault = _reference(net, net.initial_marking(), RunConfig(), True).step_index
    for max_steps in (10**6, *range(3000, 3000 + block + 3, 7)):
        results = []
        with _alone(), _recording_loops(results):
            net = _late_net("fractional")
            _check_against_step_loop(net, net.initial_marking(), RunConfig(max_steps=max_steps), True)
        assert results
        assert all(fired == 0 and 0 < replay <= block for fired, replay in results)
        assert all(replay == block for _, replay in results[:-1])
        assert len(results) <= -(-(min(max_steps, fault) - net_module._CHUNK) // block)


def _check_against_step_loop(net, m0, config, single):
    """run_final equals a step() loop: marking bits, firings and status, or error class, message and step."""
    expected = _reference(net, m0, config, single)
    try:
        final = run_final(net, m0, config, require_single_enabled=single)
    except QpnError as e:
        assert isinstance(expected, QpnError), f"run_final raised {e!r}, the loop ended {expected}"
        assert type(e) is type(expected)
        assert str(e) == str(expected)
        assert e.step_index == expected.step_index
    else:
        assert not isinstance(expected, QpnError), f"run_final ended {final}, the loop raised {expected!r}"
        marking, firings, status = expected
        assert (final.firings, final.status) == (firings, status)
        assert _bits(final.marking) == _bits(marking)


def test_loops_match_step_loop_on_ring_nets():
    """run_final with compiled loops equals a step() loop, on every outcome.

    The look interval and the block length are lowered so that loops compile
    within the first laps and the hazards strike inside them, speculative
    blocks included.
    """
    engaged = []

    @settings(max_examples=120, deadline=None)
    @given(_ring_case())
    def check(case):
        net, config, single = case
        _check_against_step_loop(net, net.initial_marking(), config, single)
        engaged.append(_loop_firings(net) > 0)

    with mock.patch.object(net_module, "_CHUNK", 8), mock.patch.object(net_module, "_BLOCK", 4):
        check()
    assert sum(engaged) >= 0.6 * len(engaged), f"loops ran on {sum(engaged)} of {len(engaged)} examples"


def _metered_ring(laps):
    """A 3-transition ring of `laps` laps; t2, of the highest ordinal, starts each lap and counts it in c.

    The loop head is the state in which t2 alone is enabled.
    """
    places = [PlaceDecl("r0", C, 1.0), PlaceDecl("r1", C, 0.0), PlaceDecl("r2", C, 0.0),
              PlaceDecl("b", C, float(laps)), PlaceDecl("c", C, 0.0), PlaceDecl("a", A, 0.5)]
    arcs = [Arc("b", "t2"), Arc("r0", "t2"), Arc("t2", "r1"), Arc("t2", "c"), Arc("r1", "t1"),
            Arc("t1", "r2"), Arc("t1", "a", "m(a)*0.5"), Arc("r2", "t0"), Arc("t0", "r0")]
    return PetriNet("metered", places, ["t0", "t1", "t2"], arcs)


def test_a_period_sighted_once_is_entered_by_a_sibling_at_its_first_look_at_the_head():
    """One sighting by one net makes a period hot for its structure: a sibling net of the structure
    sights nothing and enters the loop at the first look of its run that meets the head."""
    sightings, looks, entries = [], [], []
    sighted, looped = net_module._CompiledNet.sighted, net_module._CompiledNet.looped

    class Looks(dict):
        def get(self, state, default=None):
            looks.append(state)
            return super().get(state, default)

    def entered(cnet, head):
        entries.append((len(looks), head))
        return looped(cnet, head)

    with _alone(), mock.patch.object(net_module._CompiledNet, "sighted",
                                     lambda cnet, period: sightings.append(period) or sighted(cnet, period)):
        first = _metered_ring(400)
        run_final(first, first.initial_marking(), RunConfig())
        assert len(sightings) == 1 and _loop_firings(first) > 0
        (head,) = first.compiled().hot
        sibling = _metered_ring(500)
        sibling.compiled().loops = Looks()
        with mock.patch.object(net_module._CompiledNet, "looped", entered):
            final = run_final(sibling, sibling.initial_marking(), RunConfig())
    assert len(sightings) == 1
    assert entries[0] == (looks.index(head) + 1, head)
    assert final.marking[sibling.place_index["c"]] == 500 and _loop_firings(sibling) > 1000


def _trip_count(plan: tuple, periods: int, *values: float) -> tuple:
    """The reference trip count: the whole periods a loop runs from its entry state, then the entry value of each
    counter term it reads.  Each loop emits it as straight-line code (net._emit_trip) over its net's plan (_plan).

    ``values`` holds the loop's induction counters, the thresholds of its
    counter terms, then the values of the guard terms it computed at entry.
    Each counter must hold an exact non-negative integer, not -0.0.  The
    periods are then cut so that every counter stays non-negative after each
    firing and exact (at most 2**53 after every move), so that no counter
    term the loop's code reads changes its value, and so that every guard
    that these terms decide comes out as in the recorded period.  A term
    flips at most once, so such a guard holds over one range of periods.
    """
    counters, terms, breaks = plan
    levels = []
    for x, (d, low, room) in zip(values, counters):
        if x % 1.0 != 0.0 or math.copysign(1.0, x) < 0.0 or x + low < 0.0:
            return (0,) + (False,) * sum(read for *_, read in terms)
        levels.append(int(x))
        if room:
            periods = min(periods, (2**53 - levels[-1]) // room)
        if d < 0:
            periods = min(periods, (levels[-1] + low) // -d + 1)
    # each term's value at entry and the first period in which it differs; the read terms' values
    held, flips, reads = [], [], []
    for c, offset, threshold, read in terms:  # counter c + offset + j * d >= threshold in period j
        d, level, threshold = counters[c][0], levels[c] + offset, values[threshold]
        held.append(level >= threshold)
        if d > 0 and not held[-1]:
            flips.append((math.ceil(threshold) - level + d - 1) // d)
        elif d < 0 and held[-1]:
            flips.append((level - math.ceil(threshold)) // -d + 1)
        else:
            flips.append(math.inf)
        if read:
            reads.append(held[-1])
            if flips[-1] < periods:
                periods = flips[-1]
    known = held + list(values)  # term values, then values[i] at len(held) + i
    flips += [math.inf] * len(values)
    for want, names in breaks:  # the guard's terms all hold in the periods [lo, hi)
        lo, hi = 0, math.inf
        for i in names:
            if known[i]:
                hi = flips[i] if flips[i] < hi else hi
            elif flips[i] > lo:
                lo = flips[i]
        if want:
            periods = min(periods, hi if lo == 0 else 0)
        elif lo < hi:
            periods = min(periods, lo)
    return (periods, *reads)


def _plan(code, induction, after, room):
    """The plan _trip_count reads for a loop's code: the layout it was emitted from, with a net's counter moves."""
    return ([(after[p][-1], min(after[p]), room[p]) for p in induction],
            [(c, after[induction[c]][i], arg, read) for c, i, arg, read in code.terms], code.breaks)


def _outcome(trip, *args):
    """A trip count's result, or "fault" where it raises what a loop takes for a trip count of 0."""
    try:
        return trip(*args)
    except net_module._FAULTS:
        return "fault"


def _recording_trip_counts(calls, plans=None):
    """Patch loop building so that every trip count a loop computes is checked against _trip_count.

    Each call that does not fault is appended to calls as (periods, trip
    count, induction counters); plans, if given, gets each loop's emitted
    trip count with its plan and the (periods, values) of its calls.
    """
    install = net_module._CompiledNet._install

    def installed(cnet, code, period, induction, after, room):
        loop = install(cnet, code, period, induction, after, room)
        plan, scope, entries = _plan(code, induction, after, room), loop.run.__globals__, []
        trip = scope["_f1"]
        if plans is not None:
            plans.append((trip, plan, entries))

        def recorded(periods, *values):
            entries.append((periods, values))
            expected = _outcome(_trip_count, plan, periods, *values)
            assert _outcome(trip, periods, *values) == expected, (plan, periods, values)
            result = trip(periods, *values)
            calls.append((periods, result[0], values[:len(plan[0])]))
            return result

        scope["_f1"] = recorded
        return loop

    return mock.patch.object(net_module._CompiledNet, "_install", installed)


def test_counter_decided_exits_match_step_loop():
    """Trip counts of 0 and 1, and trip counts cut by the budget, on exits the lap counter decides."""
    calls = []
    with mock.patch.object(net_module, "_CHUNK", 8), _recording_trip_counts(calls):
        for laps in range(8, 30):
            for max_steps in (10**6, 3 * laps - 7, 3 * laps - 1, 3 * laps, 3 * laps + 1):
                for single in (False, True):
                    with _alone():  # its loop is entered first after a warm-up, with fewer laps left
                        net = _metered_ring(laps)
                        _check_against_step_loop(net, net.initial_marking(), RunConfig(max_steps=max_steps), single)
    trips = {k for _, k, _ in calls}
    assert {0, 1} <= trips
    assert any(0 < k == periods for periods, k, _ in calls)
    assert any(0 < k < periods for periods, k, _ in calls)


def _switched_ring(laps, at):
    """A metered ring with s, first in ordinal order, enabled once t2 has counted `at` laps in c.

    s also needs m(a) >= 0.3, and t1 moves a towards 1, so the loop's guard
    that s stays disabled reads the term m(c) >= at, fixed at entry, next to
    a test of the local a.  s fires once, consuming x.
    """
    places = [PlaceDecl("r0", C, 1.0), PlaceDecl("r1", C, 0.0), PlaceDecl("r2", C, 0.0),
              PlaceDecl("b", C, float(laps)), PlaceDecl("c", C, 0.0), PlaceDecl("a", A, 0.5),
              PlaceDecl("x", C, 1.0), PlaceDecl("out", A, 0.0)]
    arcs = [Arc("b", "t2"), Arc("r0", "t2"), Arc("t2", "r1"), Arc("t2", "c"), Arc("r1", "t1"),
            Arc("t1", "r2"), Arc("t1", "a", "0.5-m(a)*0.5"), Arc("r2", "t0"), Arc("t0", "r0"),
            Arc("x", "s"), Arc("c", "s", str(at), ArcKind.GUARD), Arc("a", "s", "0.3", ArcKind.GUARD),
            Arc("s", "out", "m(a)")]
    return PetriNet("switched", places, ["s", "t0", "t1", "t2"], arcs)


def test_counter_term_read_next_to_a_moving_place_cuts_the_trip_count():
    """The trip count ends where a counter term that the loop's code reads flips, and s fires on time."""
    with mock.patch.object(net_module, "_CHUNK", 8):
        for at in range(20, 60, 3):
            for max_steps in (10**6, 3 * at - 1, 3 * at + 1):
                net = _switched_ring(80, at)
                _check_against_step_loop(net, net.initial_marking(), RunConfig(max_steps=max_steps), False)
                assert _loop_firings(net) > 0


@pytest.mark.parametrize("c0", [0.0, -0.0, 7.0000000001, 6.9999999999, 2.0**53 - 40, 2.0**53 - 1, 2.0**53],
                         ids=["zero", "negative-zero", "above-7", "below-7", "2^53-40", "2^53-1", "2^53"])
def test_counter_entry_states_match_step_loop(c0):
    """A loop entered with its lap counter at -0.0, off an integer by less than 1e-9, or near 2**53.

    The run starts one firing before the loop head and looks for a loop
    after every firing, so c enters the loop as the marking holds it.
    """
    calls = []
    with _recording_trip_counts(calls):
        with mock.patch.object(net_module, "_CHUNK", 8):
            net = _metered_ring(60)
            run_final(net, net.initial_marking(), RunConfig())  # compiles the loop
        m0 = net.initial_marking()
        m0[:3] = [0.0, 0.0, 1.0]  # t0 fires first
        m0[net.place_index["c"]] = c0
        for max_steps in (10**6, 100):
            del calls[:]
            with mock.patch.object(net_module, "_CHUNK", 1):
                _check_against_step_loop(net, m0, RunConfig(max_steps=max_steps), False)
            # the loop's induction counters are r0, r1, r2, b and c
            assert _bits(calls[0][2]) == _bits([1.0, 0.0, 0.0, 60.0, c0])


def test_counter_at_negative_zero_that_the_replay_never_moves_keeps_its_sign():
    """A lap counter c that t1, after the head, needs one token of and puts two back.

    Entered at -0.0, c gets a trip count of 0, so the loop hands back a block
    without advancing c; t1 stays disabled and the run ends quiescent with c
    still at -0.0, as in the step loop.
    """
    places = [PlaceDecl("r0", C, 1.0), PlaceDecl("r1", C, 0.0), PlaceDecl("r2", C, 0.0),
              PlaceDecl("b", C, 60.0), PlaceDecl("c", C, 1.0)]
    arcs = [Arc("b", "t2"), Arc("r0", "t2"), Arc("t2", "r1"), Arc("r1", "t1"), Arc("c", "t1"),
            Arc("t1", "r2"), Arc("t1", "c", "2"), Arc("r2", "t0"), Arc("t0", "r0")]
    net = PetriNet("consumed", places, ["t0", "t1", "t2"], arcs)
    results = []
    with mock.patch.object(net_module, "_CHUNK", 8), _recording_loops(results):
        run_final(net, net.initial_marking(), RunConfig())  # compiles the loop
        assert results
        m0 = net.initial_marking()
        m0[:3] = [0.0, 0.0, 1.0]  # t0 fires first
        m0[net.place_index["c"]] = -0.0
        for max_steps in (10**6, 2):
            del results[:]
            with mock.patch.object(net_module, "_CHUNK", 1):
                _check_against_step_loop(net, m0, RunConfig(max_steps=max_steps), False)
            assert results[:1] == [(0, 3 * net_module._BLOCK)] if max_steps > 2 else not results


def test_loop_with_a_trip_count_of_0_hands_back_a_block():
    """A period-1 loop whose counter c sits at 2**53 gets a trip count of 0 at every entry.

    Each entry hands a block of _BLOCK periods to plain steps, so the run
    does not enter the loop again after every firing.
    """
    places = [PlaceDecl("r", C, 1.0), PlaceDecl("b", C, 2000.0), PlaceDecl("c", C, 2.0**53)]
    net = PetriNet("one", places, ["t"], [Arc("r", "t"), Arc("b", "t"), Arc("t", "r"), Arc("t", "c")])
    results = []
    with mock.patch.object(net_module, "_CHUNK", 8), _recording_loops(results):
        _check_against_step_loop(net, net.initial_marking(), RunConfig(), False)
    assert results and all(fired == 0 for fired, _ in results)
    assert len(results) <= 2000 // net_module._BLOCK + 1


def _ring_behind_warm_up(warm_laps, ring_laps):
    """A two-transition warm-up ring of `warm_laps` laps, then a metered 3-transition ring.

    The warm-up transitions u0 and u1 come first in ordinal order.  Its loop
    leaves after u1 in the state where t2 alone is enabled, which is the
    head of the ring's loop; t2 counts the ring's laps in c.
    """
    places = [PlaceDecl("s0", C, 1.0), PlaceDecl("s1", C, 0.0), PlaceDecl("w", C, float(warm_laps)),
              PlaceDecl("r0", C, 1.0), PlaceDecl("r1", C, 0.0), PlaceDecl("r2", C, 0.0),
              PlaceDecl("b", C, float(ring_laps)), PlaceDecl("c", C, 0.0), PlaceDecl("a", A, 0.5)]
    arcs = [Arc("s0", "u0"), Arc("w", "u0"), Arc("u0", "s1"), Arc("s1", "u1"), Arc("u1", "s0"),
            Arc("b", "t2"), Arc("r0", "t2"), Arc("t2", "r1"), Arc("t2", "c"), Arc("r1", "t1"),
            Arc("t1", "r2"), Arc("t1", "a", "m(a)*0.5"), Arc("r2", "t0"), Arc("t0", "r0")]
    return PetriNet("warm-ring", places, ["u0", "u1", "t0", "t1", "t2"], arcs)


def test_loop_whose_head_is_another_loops_exit_state_is_entered_at_once():
    """The ring loop first runs at the warm-up loop's exit state, with its lap counter at 0.0.

    Budgets that leave the ring loop less than one period after the warm-up
    make the run fire plain steps there instead of looking again.
    """
    warm, laps = 40, 40
    with mock.patch.object(net_module, "_CHUNK", 8):
        net = _ring_behind_warm_up(warm, laps)
        run_final(net, net.initial_marking(), RunConfig())  # compiles both loops
        loops = net.compiled().loops
        assert len(loops) == 2
        ring = loops[bytes([0, 0, 0, 0, 1])]
        laps_at_entry = []
        ring_run = ring.run

        def recording(m, budget):
            laps_at_entry.append(m[net.place_index["c"]])
            return ring_run(m, budget)

        ring.run = recording
        m0 = net.initial_marking()
        for max_steps in (10**6, 2 * warm + 1, 2 * warm + 2, 2 * warm + 3, 2 * warm + 4):
            del laps_at_entry[:]
            _check_against_step_loop(net, m0, RunConfig(max_steps=max_steps), False)
            assert laps_at_entry[:1] == ([0.0] if max_steps >= 2 * warm + 3 else [])


# --- nets that take a sibling net's cached loops -------------------------------------


def _scaled(tree, factor):
    """The weight tree with each finite constant times factor."""
    if isinstance(tree, Constant):
        return Constant(tree.value * factor) if math.isfinite(tree.value) else tree
    if isinstance(tree, (MarkRef, Pi)):
        return tree
    return type(tree)(*(_scaled(getattr(tree, f.name), factor) for f in fields(tree)))


def _sibling(net, factor=0.75):
    """A net of the same structure whose arcs on amplitude places have their constants scaled by factor.

    Scaling keeps the sign of every constant, so each decision the
    structure's key holds comes out the same.
    """
    arcs = []
    for arc in net.arcs:
        place = net.places[net.place_index[arc.target if arc.kind is ArcKind.DEPOSIT else arc.source]]
        arcs.append(replace(arc, weight=_scaled(arc.weight, factor)) if place.kind is A else arc)
    return PetriNet(net.name, net.places, net.transitions, arcs)


def _warmed_sibling(net, config):
    """A sibling of net, after a plain and a traced run of net have left their loops on the structure."""
    for runner in (run_final, run):
        with contextlib.suppress(QpnError):
            runner(net, net.initial_marking(), config)
    return _sibling(net)


def _check_sibling(net, config, single):
    """The sibling of net against a step() loop; whether it ran loops built from the cache with no emission."""
    sibling, emitted = _warmed_sibling(net, config), []
    with _emissions(emitted):
        _check_against_step_loop(sibling, sibling.initial_marking(), config, single)
    return _loop_firings(sibling) > 0 and not emitted


def test_grid_cells_that_patch_a_siblings_loops_match_step_loop():
    """Cells of several N and M run the loops of the first cell of their structure, patched."""
    for build in (slaz_passing_net, slaz_blocking_net):
        emitted = []
        with _alone(), _emissions(emitted):
            for n, m in ((60, 25), (41, 24), (7, 3), (12, 9)):
                net = build(ProtocolParams(N=n, M=m))[0]
                _check_against_step_loop(net, net.initial_marking(), RunConfig(), True)
                assert _loop_firings(net) > 0
        assert len(emitted) == 2  # the first cell's loop, then its loop with its bridge


@pytest.mark.parametrize("hazard", sorted(_LATE_HAZARDS))
def test_late_hazard_in_a_loop_patched_from_a_sibling_matches_step_loop(hazard):
    with _alone():
        assert _check_sibling(_late_net(hazard), RunConfig(), True) or hazard == "fractional"


def test_loops_patched_from_a_sibling_match_step_loop_on_ring_nets():
    """Ring nets run the loops their sibling left on the structure, with the look interval
    and the block length lowered."""
    patched = []

    @settings(max_examples=100, deadline=None)
    @given(_ring_case())
    def check(case):
        net, config, single = case
        patched.append(_check_sibling(net, config, single))

    with mock.patch.object(net_module, "_CHUNK", 8), mock.patch.object(net_module, "_BLOCK", 4):
        check()
    assert sum(patched) >= 0.5 * len(patched), f"patched loops ran on {sum(patched)} of {len(patched)} examples"


def test_recorded_run_on_a_fresh_structure_builds_one_loop_per_head():
    """A traced run builds the loops run_final enters, one per head and then again with its bridge, and run_final
    then builds none."""
    with _alone():
        net, _ = slaz_passing_net(ProtocolParams(N=320, M=100))
        emitted = []
        with _emissions(emitted):
            run(net, net.initial_marking(), RunConfig())
        cnet = net.compiled()
        assert cnet.loops
        assert emitted == [states for loop in cnet.loops.values() for states in (loop.states, loop.states)]
        assert all(loop.bridge for loop in cnet.loops.values())
        loops = dict(cnet.loops)
        with _emissions(emitted):
            run_final(net, net.initial_marking(), RunConfig())
        assert cnet.loops == loops and len(emitted) == 2 * len(loops)
