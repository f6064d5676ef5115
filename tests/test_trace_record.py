"""The trace of ``run()`` and the CSV ``simulate --trace`` writes from it.

A run keeps its start, its config and its firing count, nothing per firing:
its firings and markings are replayed as a step() loop through the
generated steps.  These tests compare that replay with a ``step()`` loop,
which copies every place, and the CSV with rows formatted from that loop,
``repr`` of every place, byte for byte.  A deterministic run enters the
compiled loops ``run_final`` enters, so the replay is also checked against
runs where those loops run, exit, fail a block and hand it back, and stop
at a budget.
"""

import os
import random
import tempfile
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpn.net as net_module
from qpn.cli import _write_trace_csv
from qpn.errors import DivisionByZeroError, QpnError
from qpn.models import (
    ProtocolParams,
    blocking_expected_firings,
    passing_expected_firings,
    slaz_blocking_net,
    slaz_passing_net,
    zeno_expected_firings,
    zeno_net,
)
from qpn.net import (Arc, ArcKind, PetriNet, PlaceDecl, PlaceKind, Policy, RunConfig, Steps, TerminalStatus, TransitionDecl,
                     run, run_final)
from test_net import _bits, _counter_net_and_marking, _recheck_fault_net, _step_loop
from test_caches import _emissions
from test_trace import (_LATE_HAZARDS, _alone, _late_net, _loop_firings, _metered_ring, _recording_loops,
                        _ring_case, _warmed_sibling)


def _naive_csv(net, m0, steps):
    rows = ["step,transition," + ",".join(net.place_ids()), "0,," + ",".join(repr(v) for v in m0)]
    rows += [f"{i},{tid}," + ",".join(repr(v) for v in m) for i, (tid, m) in enumerate(steps, start=1)]
    return "".join(row + "\n" for row in rows).encode()


def _check_record(net, m0, config):
    """run() replays the step() loop's markings bit for bit, and writes its rows byte for byte.

    A run that faults raises the loop's error class, message and step, and
    returns no trace.
    """
    expected, end = _step_loop(net, m0, config)
    try:
        trace = run(net, m0, config)
    except QpnError as e:
        assert isinstance(end, QpnError) and type(e) is type(end)
        assert (str(e), e.step_index) == (str(end), end.step_index)
        return
    assert trace.status == end
    assert len(trace.steps) == len(expected)
    steps = list(trace.steps)
    assert [(tid, _bits(m)) for tid, m in steps] == [(tid, _bits(m)) for tid, m in expected]
    assert trace.steps == tuple(expected) and tuple(expected) == trace.steps and trace.steps == run(net, m0, config).steps
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


def _coin_net(tokens):
    """A Born net of counters: each firing consumes one token and draws a or b."""
    C = PlaceKind.COUNTER
    return PetriNet("coin", [PlaceDecl("c", C, tokens), PlaceDecl("h", C), PlaceDecl("t", C)], ["a", "b"],
                    [Arc("c", "a"), Arc("a", "h"), Arc("c", "b"), Arc("b", "t")])


def _peaks(net, config, path):
    """The firings of run(), and the tracemalloc peaks of run() and of the CSV writer, on a net whose code is built."""
    m0 = net.initial_marking()
    # a deterministic run's loops turn hot in the first run and are built in the second; a Born run enters none
    warm = config if config.policy == Policy.DETERMINISTIC_PRIORITY else RunConfig(config.policy, max_steps=1)
    for _ in range(2):
        run_final(net, m0, warm)
    tracemalloc.start()
    try:
        trace = run(net, m0, config)
        _, ran = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        _write_trace_csv(str(path), net, trace)
        _, wrote = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return len(trace.steps), ran, wrote


@pytest.mark.parametrize(
    "small, large, config",
    [
        (_coin_net(10_000), _coin_net(200_000), RunConfig(policy=Policy.BORN_RANDOM, seed=3)),
        (slaz_passing_net(ProtocolParams(N=320, M=10))[0], slaz_passing_net(ProtocolParams(N=320, M=205))[0],
         RunConfig()),
    ],
    ids=["born", "passing"],
)
def test_trace_memory_is_flat_in_the_firings(small, large, config, tmp_path):
    """run() and the writer keep nothing per firing: one bound holds at about 10k and at over 200k firings.

    The writer's peak, about 46 KB, is its file buffers and one row; a record of 4 B a firing would add 800 KB.
    """
    for net, least in ((small, 9_800), (large, 200_000)):
        firings, ran, wrote = _peaks(net, config, tmp_path / "trace.csv")
        assert firings >= least
        assert max(ran, wrote) <= 96 * 1024, f"{firings} firings: run() {ran} B, writer {wrote} B"


def test_replay_picks_by_priority_where_it_differs_from_ordinal_order():
    """t2 outranks t1, declared first, whenever both are enabled: a replay that picked by ordinal would fire t1."""
    C = PlaceKind.COUNTER
    net = PetriNet("priority", [PlaceDecl("a", C, 3), PlaceDecl("b", C), PlaceDecl("c", C)],
                   [TransitionDecl("t1", 2), TransitionDecl("t2", 1), TransitionDecl("t3", 0)],
                   [Arc("a", "t1"), Arc("t1", "c"), Arc("a", "t2"), Arc("t2", "b"), Arc("b", "t3"), Arc("t3", "c", "2")])
    assert not net.compiled().uniform_rank
    assert run(net, net.initial_marking(), RunConfig()).fired() == ["t2", "t3"] * 3
    _check_record(net, net.initial_marking(), RunConfig())


def test_born_trace_at_max_steps_matches_step_loop_draw_for_draw():
    """A Born ring that never quiesces: the replay draws from random.Random(seed) as the step() loop does."""
    A = PlaceKind.AMPLITUDE
    net = PetriNet("ring", [PlaceDecl("p", A, 1.0), PlaceDecl("q", A), PlaceDecl("r", A)], ["a", "b", "c", "d"],
                   [Arc("p", "a", "m(p)", ArcKind.DRAIN), Arc("a", "q", "m(p)*0.6"),
                    Arc("p", "b", "m(p)", ArcKind.DRAIN), Arc("b", "r", "m(p)*0.8"),
                    Arc("q", "c", "m(q)", ArcKind.DRAIN), Arc("c", "p", "m(q)/0.6"),
                    Arc("r", "d", "m(r)", ArcKind.DRAIN), Arc("d", "p", "m(r)/0.8")])
    config = RunConfig(policy=Policy.BORN_RANDOM, seed=11, max_steps=301)
    expected, end = _step_loop(net, net.initial_marking(), config)
    assert end == TerminalStatus.STEP_LIMIT and len(expected) == 301 and {"a", "b"} <= {tid for tid, _ in expected}
    _check_record(net, net.initial_marking(), config)


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


def _enabling_tests_counted(calls):
    """Patch _CompiledNet.enabled so that each enabling test a caller makes appends its transition to calls."""
    enabled = net_module._CompiledNet.enabled

    def counted(cnet, ti, *args):
        calls.append(ti)
        return enabled(cnet, ti, *args)

    return mock.patch.object(net_module._CompiledNet, "enabled", counted)


def test_replay_of_a_run_that_faulted_in_its_first_enabling_tests_tests_nothing():
    """A run whose enabling tests fault before its first firing raises; its empty steps replay without a test."""
    C = PlaceKind.COUNTER
    net = PetriNet("zero", [PlaceDecl("p", C), PlaceDecl("q", C)], ["t"], [Arc("p", "t", "1/m(p)"), Arc("t", "q")])
    m0 = net.initial_marking()
    expected, end = _step_loop(net, m0, RunConfig())
    assert expected == [] and isinstance(end, DivisionByZeroError) and end.step_index == 0
    with pytest.raises(DivisionByZeroError):
        run(net, m0, RunConfig())
    steps, calls = Steps(m0, RunConfig(), 0, net.compiled()), []
    with _enabling_tests_counted(calls):
        assert (len(steps), list(steps), list(steps.replay())) == (0, [], [])
    assert calls == []


def test_run_whose_re_test_faults_after_the_firing_returns_no_trace():
    """t1's re-test of t2 faults once t1's firing is written: run() raises as the step() loop does, with no trace."""
    net = _recheck_fault_net()
    expected, end = _step_loop(net, net.initial_marking(), RunConfig())
    assert isinstance(end, DivisionByZeroError) and [tid for tid, _ in expected] == ["t1"]
    _check_record(net, net.initial_marking(), RunConfig())


# --- traced runs through compiled loops ---------------------------------------------


def _lowered():
    """The look interval and block length lowered, so loops compile within the first laps."""
    return mock.patch.object(net_module, "_CHUNK", 8), mock.patch.object(net_module, "_BLOCK", 4)


def test_recording_loops_match_step_loop_on_ring_nets():
    """Loops compile early enough that the hazards strike inside the loops of traced runs, blocks included."""
    engaged = []

    @settings(max_examples=80, deadline=None)
    @given(_ring_case())
    def check(case):
        net, config, _ = case
        _check_record(net, net.initial_marking(), config)
        engaged.append(_loop_firings(net) > 0)

    chunk, block = _lowered()
    with chunk, block:
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
    assert _loop_firings(net) > expected // 4  # over the two runs _check_record makes


@pytest.mark.parametrize("hazard", sorted(_LATE_HAZARDS))
def test_recording_loop_hands_a_failed_block_to_plain_steps(hazard):
    """The hazard fails a block of a traced run's loop, whose firings are dropped and fired again as steps."""
    net = _late_net(hazard)
    results = []
    with _recording_loops(results):
        _check_record(net, net.initial_marking(), RunConfig())
    assert any(replay for _, replay in results)
    if hazard != "fractional":  # snapping f fails every block, so the loop fires nothing
        assert _loop_firings(net) > 1000


def test_recording_loop_under_budgets_that_cut_a_block_short():
    """Budgets that end part way through a block, or a period, of a clean loop and of one whose blocks fail."""
    chunk, block = _lowered()
    with chunk, block:
        for max_steps in range(150, 150 + 3 * 4 * 2 + 2):
            net = _metered_ring(60)
            _check_record(net, net.initial_marking(), RunConfig(max_steps=max_steps))
            assert _loop_firings(net) > 0
    for max_steps in (3001, 3050, 3100, 3191):
        net = _late_net("fractional")
        results = []
        with _recording_loops(results):
            _check_record(net, net.initial_marking(), RunConfig(max_steps=max_steps))
        assert results and all(fired == 0 and replay > 0 for fired, replay in results)


def test_trace_record_net_runs_in_recording_loops():
    """On the net of the trace-record benchmark, run() fires at least 90% in loops, as run_final does."""
    net, _ = slaz_passing_net(ProtocolParams(N=320, M=100))
    m0 = net.initial_marking()
    trace = run(net, m0, RunConfig())
    assert len(trace.steps) == passing_expected_firings(320, 100)
    assert _loop_firings(net) >= 0.9 * len(trace.steps)
    assert _bits(trace.final) == _bits(run_final(net, m0, RunConfig()).marking)


def test_recording_loops_patched_from_a_sibling_match_step_loop():
    """Traced grid cells run through the loops of the first cell of their structure, patched."""
    for build in (slaz_passing_net, slaz_blocking_net):
        emitted = []
        with _alone(), _emissions(emitted):
            for n, m in ((60, 25), (41, 24), (12, 9)):
                net = build(ProtocolParams(N=n, M=m))[0]
                _check_record(net, net.initial_marking(), RunConfig())
                assert _loop_firings(net) > 0
        assert len(emitted) == 2  # the first cell's loop, then its loop with its bridge


@pytest.mark.parametrize("hazard", sorted(_LATE_HAZARDS))
def test_recording_loop_patched_from_a_sibling_hands_a_failed_block_to_plain_steps(hazard):
    with _alone():
        sibling = _warmed_sibling(_late_net(hazard), RunConfig())
        emitted, results = [], []
        with _emissions(emitted), _recording_loops(results):
            _check_record(sibling, sibling.initial_marking(), RunConfig())
    assert not emitted and any(replay for _, replay in results)


def test_recording_loops_patched_from_a_sibling_match_step_loop_on_ring_nets():
    """Ring nets, traced under both policies after their sibling left its loops on the structure.

    The examples are derandomized: the share of them whose patched loops run
    sits near its bound, and new draws on every run made the test flaky.
    """
    patched = []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_ring_case(), st.integers(min_value=0, max_value=2**16), st.booleans())
    def check(case, seed, born):
        net, config, _ = case
        sibling, emitted = _warmed_sibling(net, config), []
        policy = Policy.BORN_RANDOM if born else Policy.DETERMINISTIC_PRIORITY
        with _emissions(emitted):
            _check_record(sibling, sibling.initial_marking(), RunConfig(policy=policy, seed=seed,
                                                                        max_steps=config.max_steps))
        if not born:  # a Born run enters no loop
            patched.append(_loop_firings(sibling) > 0 and not emitted)

    chunk, block = _lowered()
    with chunk, block:
        check()
    assert sum(patched) >= 0.4 * len(patched), f"patched loops ran on {sum(patched)} of {len(patched)} deterministic examples"
