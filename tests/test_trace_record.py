"""The compact trace record of ``run()`` and the CSV ``simulate --trace`` writes from it.

A run records each firing as its transition's ordinal and the new values of
the places that transition touches.  These tests replay that record against
a ``step()`` loop, which copies every place, and compare the CSV with rows
formatted from that loop, ``repr`` of every place, byte for byte.
"""

import os
import random
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpn.cli import _write_trace_csv
from qpn.errors import QpnError
from qpn.models import ProtocolParams, passing_expected_firings, slaz_passing_net
from qpn.net import Policy, RunConfig, TerminalStatus, run
from test_net import _bits, _counter_net_and_marking, _step_loop
from test_trace import _ring_case


def _naive_csv(net, m0, steps):
    rows = ["step,transition," + ",".join(net.place_ids()), "0,," + ",".join(repr(v) for v in m0)]
    rows += [f"{i},{tid}," + ",".join(repr(v) for v in m) for i, (tid, m) in enumerate(steps, start=1)]
    return "".join(row + "\n" for row in rows).encode()


def _check_record(net, m0, config):
    """run() replays the step() loop's markings bit for bit, and writes its rows byte for byte."""
    expected, end = _step_loop(net, m0, config)
    try:
        trace = run(net, m0, config)
    except QpnError as e:
        assert isinstance(end, QpnError) and type(e) is type(end)
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
