"""The compact trace record of ``run()`` and the CSV ``simulate --trace`` writes from it.

A run records each firing as its transition's ordinal and the new values of
the places that transition touches.  These tests replay that record against
a ``step()`` loop, which copies every place, and compare the CSV with rows
formatted from that loop, ``repr`` of every place, byte for byte.  A
deterministic run records its hot periods through the recording variant of
their compiled loops, so the record is also checked where those loops run,
exit, fail a block and hand it back, and stop at a budget.
"""

import os
import random
import tempfile
import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpn.net as net_module
from qpn.cli import _write_trace_csv
from qpn.errors import QpnError
from qpn.models import (
    ProtocolParams,
    blocking_expected_firings,
    passing_expected_firings,
    slaz_blocking_net,
    slaz_passing_net,
    zeno_expected_firings,
    zeno_net,
)
from qpn.net import Arc, PetriNet, PlaceDecl, PlaceKind, Policy, RunConfig, Steps, TerminalStatus, _execute, run, run_final
from test_net import _bits, _counter_net_and_marking, _step_loop
from test_caches import _emissions
from test_trace import (_LATE_HAZARDS, _alone, _late_net, _metered_ring, _recording_loops, _ring_case,
                        _warmed_sibling)


def _naive_csv(net, m0, steps):
    rows = ["step,transition," + ",".join(net.place_ids()), "0,," + ",".join(repr(v) for v in m0)]
    rows += [f"{i},{tid}," + ",".join(repr(v) for v in m) for i, (tid, m) in enumerate(steps, start=1)]
    return "".join(row + "\n" for row in rows).encode()


def _recorded_firings(net):
    """The firings the recording loops of the net have done, over all its runs."""
    return sum(loop.firings for loop in net.compiled().recorders.values())


def _check_record(net, m0, config):
    """run() replays the step() loop's markings bit for bit, and writes its rows byte for byte.

    A run that faults raises the loop's error class, message and step, and
    its record arrays then hold the firings the loop did.
    """
    expected, end = _step_loop(net, m0, config)
    try:
        trace = run(net, m0, config)
    except QpnError as e:
        assert isinstance(end, QpnError) and type(e) is type(end)
        assert (str(e), e.step_index) == (str(end), end.step_index)
        ordinals, values = array("I"), array("d")
        with pytest.raises(type(end)):
            _execute(net, m0, config, (ordinals, values))
        steps = Steps([float(v) for v in m0], ordinals, values, [(ct.tid, ct.touched) for ct in net.compiled().trans])
        assert [(tid, _bits(m)) for tid, m in steps] == [(tid, _bits(m)) for tid, m in expected]
        return
    assert trace.status == end
    steps = trace.steps
    assert len(steps) == len(expected)
    assert [(tid, _bits(m)) for tid, m in steps] == [(tid, _bits(m)) for tid, m in expected]
    assert steps == tuple(expected) and tuple(expected) == steps and steps == run(net, m0, config).steps
    assert trace.fired() == [tid for tid, _ in expected]
    assert _bits(trace.final) == _bits(expected[-1][1] if expected else m0)
    if expected:
        i = random.Random(len(expected)).randrange(len(expected))
        assert (steps[i][0], _bits(steps[i][1])) == (expected[i][0], _bits(expected[i][1]))
        assert _bits(steps[-1][1]) == _bits(trace.final)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        _write_trace_csv(path, net, trace)
        with open(path, "rb") as f:
            assert f.read() == _naive_csv(net, m0, expected)


@settings(max_examples=200, deadline=None)
@given(_counter_net_and_marking(), st.integers(min_value=0, max_value=2**16), st.booleans())
def test_record_matches_step_loop_on_counter_nets(net_and_marking, seed, born):
    """Counter snaps, signed zeros and faulting re-tests change no place outside touched."""
    net, marking = net_and_marking
    policy = Policy.BORN_RANDOM if born else Policy.DETERMINISTIC_PRIORITY
    _check_record(net, marking, RunConfig(policy=policy, seed=seed, max_steps=10))


@settings(max_examples=60, deadline=None)
@given(_ring_case(), st.integers(min_value=0, max_value=2**16), st.booleans())
def test_record_matches_step_loop_on_ring_nets(case, seed, born):
    net, config, _ = case
    policy = Policy.BORN_RANDOM if born else Policy.DETERMINISTIC_PRIORITY
    _check_record(net, net.initial_marking(), RunConfig(policy=policy, seed=seed, max_steps=config.max_steps))


def test_record_of_a_run_that_fires_nothing():
    net, _ = slaz_passing_net(ProtocolParams(N=2, M=2))
    m0 = [0.0] * len(net.places)
    trace = run(net, m0, RunConfig())
    assert (len(trace.steps), trace.status, trace.final) == (0, TerminalStatus.QUIESCENT, m0)
    assert trace.steps == () and list(trace.steps) == [] and trace.fired() == []
    with pytest.raises(IndexError):
        trace.steps[0]


def test_record_takes_at_most_96_bytes_per_firing():
    """A run keeps no marking copies: about 45 B a firing on the passing net, 520 B with copies."""
    net, _ = slaz_passing_net(ProtocolParams(N=60, M=40))
    m0 = net.initial_marking()
    run(net, m0, RunConfig(max_steps=10))  # the net's code is generated before the count
    tracemalloc.start()
    try:
        trace = run(net, m0, RunConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace.steps) == passing_expected_firings(60, 40)
    assert peak <= 96 * len(trace.steps), f"{peak / len(trace.steps):.1f} B per firing"


def test_initial_marking_of_ints_prints_as_the_floats_the_run_starts_from(tmp_path):
    """Row 0 and the later rows print an untouched place alike when m0 holds ints."""
    C = PlaceKind.COUNTER
    net = PetriNet("one", [PlaceDecl("a", C, 1), PlaceDecl("b", C), PlaceDecl("c", C)], ["t"],
                   [Arc("a", "t"), Arc("t", "b")])
    trace = run(net, [1, 0, 0], RunConfig())
    assert [(type(v), v) for v in trace.initial] == [(float, 1.0), (float, 0.0), (float, 0.0)]
    path = tmp_path / "trace.csv"
    _write_trace_csv(str(path), net, trace)
    assert path.read_text().splitlines() == ["step,transition,a,b,c", "0,,1.0,0.0,0.0", "1,t,0.0,1.0,0.0"]


# --- recording loops ------------------------------------------------------------------


def _lowered():
    """The look interval, sighting threshold and block length lowered, so loops compile within the first laps."""
    return (mock.patch.object(net_module, "_CHUNK", 8), mock.patch.object(net_module, "_HOT", 2),
            mock.patch.object(net_module, "_BLOCK", 4))


def test_recording_loops_match_step_loop_on_ring_nets():
    """Loops compile early enough that the hazards strike inside the recording variant, blocks included."""
    engaged = []

    @settings(max_examples=80, deadline=None)
    @given(_ring_case())
    def check(case):
        net, config, _ = case
        _check_record(net, net.initial_marking(), config)
        engaged.append(_recorded_firings(net) > 0)

    chunk, hot, block = _lowered()
    with chunk, hot, block:
        check()
    assert sum(engaged) >= 0.6 * len(engaged), f"recording loops ran on {sum(engaged)} of {len(engaged)} examples"


@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: slaz_passing_net(ProtocolParams(N=60, M=40))[0], passing_expected_firings(60, 40)),
        (lambda: slaz_blocking_net(ProtocolParams(N=1100, M=2))[0], blocking_expected_firings(1100, 2)),
        (lambda: zeno_net(ProtocolParams(N=3000))[0], zeno_expected_firings(3000)),
    ],
    ids=["passing-60-40", "blocking-1100-2", "zeno-3000"],
)
def test_recording_loops_match_step_loop_on_protocol_nets(build, expected):
    net = build()
    _check_record(net, net.initial_marking(), RunConfig())
    assert _recorded_firings(net) > expected // 4  # over the two runs _check_record makes


@pytest.mark.parametrize("hazard", sorted(_LATE_HAZARDS))
def test_recording_loop_hands_a_failed_block_to_plain_steps(hazard):
    """The hazard fails a block of the recording loop, whose firings are dropped and fired again as steps."""
    net = _late_net(hazard)
    results = []
    with _recording_loops(results):
        _check_record(net, net.initial_marking(), RunConfig())
    assert any(replay for _, replay in results)
    if hazard != "fractional":  # snapping f fails every block, so the loop fires nothing
        assert _recorded_firings(net) > 1000


def test_recording_loop_under_budgets_that_cut_a_block_short():
    """Budgets that end part way through a block, or a period, of a clean loop and of one whose blocks fail."""
    chunk, hot, block = _lowered()
    with chunk, hot, block:
        for max_steps in range(150, 150 + 3 * 4 * 2 + 2):
            net = _metered_ring(60)
            _check_record(net, net.initial_marking(), RunConfig(max_steps=max_steps))
            assert _recorded_firings(net) > 0
    for max_steps in (3001, 3050, 3100, 3191):
        net = _late_net("fractional")
        results = []
        with _recording_loops(results):
            _check_record(net, net.initial_marking(), RunConfig(max_steps=max_steps))
        assert results and all(fired == 0 and replay > 0 for fired, replay in results)


def test_trace_record_net_runs_in_recording_loops():
    """On the net of the trace-record benchmark, run() fires at least 90% in recording loops, as run_final does."""
    net, _ = slaz_passing_net(ProtocolParams(N=320, M=100))
    m0 = net.initial_marking()
    trace = run(net, m0, RunConfig())
    assert len(trace.steps) == passing_expected_firings(320, 100)
    assert _recorded_firings(net) >= 0.9 * len(trace.steps)
    assert _bits(trace.final) == _bits(run_final(net, m0, RunConfig()).marking)


def test_recording_loops_patched_from_a_sibling_match_step_loop():
    """Grid cells record through the recording loops of the first cell of their structure, patched."""
    for build in (slaz_passing_net, slaz_blocking_net):
        emitted = []
        with _alone(), _emissions(emitted):
            for n, m in ((60, 25), (41, 24), (12, 9)):
                net = build(ProtocolParams(N=n, M=m))[0]
                _check_record(net, net.initial_marking(), RunConfig())
                assert _recorded_firings(net) > 0
        assert emitted == [True]


@pytest.mark.parametrize("hazard", sorted(_LATE_HAZARDS))
def test_recording_loop_patched_from_a_sibling_hands_a_failed_block_to_plain_steps(hazard):
    with _alone():
        sibling = _warmed_sibling(_late_net(hazard), RunConfig())
        emitted, results = [], []
        with _emissions(emitted), _recording_loops(results):
            _check_record(sibling, sibling.initial_marking(), RunConfig())
    assert not emitted and any(replay for _, replay in results)


def test_recording_loops_patched_from_a_sibling_match_step_loop_on_ring_nets():
    """Ring nets, recorded under both policies after their sibling left its loops on the structure."""
    patched = []

    @settings(max_examples=60, deadline=None)
    @given(_ring_case(), st.integers(min_value=0, max_value=2**16), st.booleans())
    def check(case, seed, born):
        net, config, _ = case
        sibling, emitted = _warmed_sibling(net, config), []
        policy = Policy.BORN_RANDOM if born else Policy.DETERMINISTIC_PRIORITY
        with _emissions(emitted):
            _check_record(sibling, sibling.initial_marking(), RunConfig(policy=policy, seed=seed,
                                                                        max_steps=config.max_steps))
        if not born:  # a Born run enters no loop
            patched.append(_recorded_firings(sibling) > 0 and not emitted)

    chunk, hot, block = _lowered()
    with chunk, hot, block:
        check()
    assert sum(patched) >= 0.4 * len(patched), f"patched loops ran on {sum(patched)} of {len(patched)} deterministic examples"
