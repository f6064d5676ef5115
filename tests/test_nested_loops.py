"""Nested loops: a loop with a bridge runs outer laps, its periods and then the firings back to its head.

A loop whose run exits by its trip count and comes back to its head within
``net._MAX_BRIDGE`` plain firings is built again with those firings as its
bridge, and each call then runs laps: the trip count and the hoisted code
from the locals, the periods, and the bridge, whose every re-test is a guard
that the recorded flag comes out again.  Every run here is compared bit for
bit with a ``step()`` loop, every trip count of every lap with
``test_trace._trip_count``, and the loop calls with the reference look loop
of ``test_loop_entry``.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings

import qpn.net as net_module
from qpn.cli import main
from qpn.models import (
    ProtocolParams,
    blocking_expected_firings,
    passing_expected_firings,
    slaz_blocking_net,
    slaz_passing_net,
)
from qpn.net import Arc, ArcKind, PetriNet, PlaceDecl, PlaceKind, RunConfig, TransitionDecl
from test_caches import _emissions
from test_loop_entry import _check_schedule
from test_nested_rings import _nested_case
from test_trace import _alone, _check_against_step_loop, _loop_firings, _recording_trip_counts, _sibling
from test_trace_record import _lowered

GOLDEN = Path(__file__).parent / "golden"
_MODES = {"passing": (slaz_passing_net, passing_expected_firings),
          "blocking": (slaz_blocking_net, blocking_expected_firings)}


def _recording_laps(laps):
    """Patch loop building so that each loop call appends the laps it began: the trip counts it computed.

    A call begins a second lap only after a bridge that came out as recorded.
    """
    install = net_module._CompiledNet._install

    def installed(cnet, *args):
        loop = install(cnet, *args)
        run, scope = loop.run, loop.run.__globals__
        trip, count = scope["_f1"], [0]

        def counted(*values):
            count[0] += 1
            return trip(*values)

        def recorded(m, budget):
            count[0] = 0
            result = run(m, budget)
            laps.append(count[0])
            return result

        scope["_f1"], loop.run = counted, recorded
        return loop

    return mock.patch.object(net_module._CompiledNet, "_install", installed)


def _cell(mode, n, m):
    return _MODES[mode][0](ProtocolParams(N=n, M=m))[0]


@pytest.mark.parametrize("mode", sorted(_MODES))
def test_corner_cells_of_the_wide_grid_match_step_loop(mode):
    """The cells N in {2, 3, 48}, M in {2, 3, 24} on one fresh structure, as the table runs them: each equals a
    step() loop and every lap's trip count the reference.  N=2, M=24 sights the period and then its bridge; each
    later cell enters its loop at the first hot head and runs its M outer cycles in one call, whose last bridge
    misses where t10 ends the run."""
    trips, laps = [], []
    with _alone(), _recording_trip_counts(trips), _recording_laps(laps):
        for n in (2, 3, 48):
            for m in (2, 3, 24):
                net = _cell(mode, n, m)
                del laps[:]
                _check_against_step_loop(net, net.initial_marking(), RunConfig(), True)
                assert laps == ([] if m < 24 else [1, laps[-1]]) if n == 2 else [m]
    assert len(trips) > 2 * (2 + 3 + 24)  # a trip count a lap


@pytest.mark.parametrize("mode", sorted(_MODES))
@pytest.mark.parametrize("n", [5, 70])
def test_every_cut_inside_an_outer_lap_matches_step_loop(mode, n):
    """max_steps at every firing of the second outer lap, in its periods and in its bridge: each run, on a warm
    structure, equals a step() loop and makes the loop calls of the reference look loop."""
    lap = _MODES[mode][1](n, 4) // 4
    with _alone():
        warm = _warmed(mode, n)
        _check_against_step_loop(warm, warm.initial_marking(), RunConfig(), True)
        assert all(loop.bridge for loop in warm.compiled().loops.values())
        for max_steps in range(lap, 2 * lap + 2):
            net = _cell(mode, n, 4)
            _check_against_step_loop(net, net.initial_marking(), RunConfig(max_steps=max_steps), True)
    for max_steps in (lap + 3, lap + lap // 2, 2 * lap - 5, 2 * lap + 1):
        assert _check_schedule(lambda: _warmed(mode, n), RunConfig(max_steps=max_steps), True)


def _warmed(mode, n):
    """A cell of a structure that a first cell has left its loop, with its bridge, on."""
    warm = _cell(mode, 21, 8)
    net_module.run_final(warm, warm.initial_marking(), RunConfig())
    return _cell(mode, n, 4)


@pytest.mark.parametrize("mode", sorted(_MODES))
def test_a_sibling_installs_the_loop_with_its_bridge_with_no_emission(mode):
    """A sibling whose amplitude constants differ runs its outer cycles in laps of the structure's code."""
    with _alone():
        net = _cell(mode, 21, 8)
        net_module.run_final(net, net.initial_marking(), RunConfig())
        sibling, emitted, laps, trips = _sibling(_cell(mode, 34, 13)), [], [], []
        with _emissions(emitted), _recording_trip_counts(trips), _recording_laps(laps):
            _check_against_step_loop(sibling, sibling.initial_marking(), RunConfig(), True)
    assert not emitted and laps == [13] and len(trips) == 13


def test_nested_rings_run_laps_and_match_step_loop():
    """The nested-ring nets, hazards included, and then their siblings on the same structure; every lap's trip
    count equals the reference."""
    laps, examples = [], []

    @settings(max_examples=100, deadline=None)
    @given(_nested_case())
    def check(case):
        net, sibling, config, single = case
        start = len(laps)
        with _alone(), _recording_trip_counts([]), _recording_laps(laps):
            _check_against_step_loop(net, net.initial_marking(), config, single)
            _check_against_step_loop(sibling, sibling.initial_marking(), config, single)
        examples.append(max(laps[start:], default=0) > 1)

    chunk, block = _lowered()
    with chunk, block:
        check()
    # 28 to 69 of 100 examples ran laps over the hypothesis seeds 1 to 12
    assert sum(examples) >= 0.15 * len(examples), f"laps ran on {sum(examples)} of {len(examples)} examples"


def _forked(mode, n, m):
    """A cell with one more transition, tw, on a control place that its outer cycle marks after the inner loop
    exits, p24 before t5 in passing and p13 before t13 in blocking: there two transitions are enabled, and tw,
    outranked, never fires."""
    net = _cell(mode, n, m)
    arc = Arc("p24" if mode == "passing" else "p13", "tw")
    return PetriNet(net.name, net.places, [*net.transitions, TransitionDecl("tw", 1)], [*net.arcs, arc])


@pytest.mark.parametrize("mode", sorted(_MODES))
def test_a_bridge_through_two_enabled_transitions_keeps_the_single_enabled_check(mode):
    """A run without the single-enabled check leaves the loop with that bridge on the structure; a later cell
    run with the check enters no loop at its head and raises where the step() loop does, in its first outer cycle."""
    with _alone():
        warm = _forked(mode, 21, 8)
        _check_against_step_loop(warm, warm.initial_marking(), RunConfig(), False)
        net = _forked(mode, 48, 24)
        _check_against_step_loop(net, net.initial_marking(), RunConfig(), True)
        (loop,) = net.compiled().loops.values()
        assert loop.bridge and not loop.single and not loop.firings


def _counted(mode, n, m, at):
    """A cell whose outer cycle counts its laps on a place q, at t5 in passing and t13 in blocking, and one more
    transition tu, outranking all, that fires once q reaches at: t5 or t13 re-tests it last of its rechecks.
    tu moves the outer counter p6's level at its firing to u, so a late firing ends on another marking."""
    net, lap = _cell(mode, n, m), "t5" if mode == "passing" else "t13"
    places = [*net.places, PlaceDecl("q", PlaceKind.COUNTER), PlaceDecl("x", PlaceKind.COUNTER, 1.0),
              PlaceDecl("u", PlaceKind.COUNTER)]
    arcs = [*net.arcs, Arc(lap, "q"), Arc("x", "tu"), Arc("q", "tu", str(at), ArcKind.GUARD), Arc("tu", "u", "m(p6)")]
    return PetriNet(net.name, places, [*net.transitions, TransitionDecl("tu", -1)], arcs)


@pytest.mark.parametrize("mode", sorted(_MODES))
def test_a_lap_whose_bridge_flips_a_flag_misses_at_that_guard(mode):
    """On a structure whose bridge was recorded with tu disabled, a cell whose q reaches 5 in its fifth lap's
    bridge misses there, at that firing's last guard: tu fires as a plain step where the step() loop fires it,
    and a second call runs the other 19 laps."""
    laps = []
    with _alone():
        warm = _counted(mode, 21, 8, 10**6)
        _check_against_step_loop(warm, warm.initial_marking(), RunConfig(), False)
        assert all(loop.bridge for loop in warm.compiled().loops.values())
        net = _counted(mode, 48, 24, 5)
        with _recording_laps(laps):
            _check_against_step_loop(net, net.initial_marking(), RunConfig(), False)
    assert laps == [5, 19]


def test_wide_grid_runs_nine_tenths_of_its_firings_in_loops():
    """The 96 cells of tables_wide.csv, in both modes, from an empty structure cache: the table stays
    byte-identical."""
    runs = []
    execute = net_module._execute

    def counted(net, *args, **kwargs):
        final = execute(net, *args, **kwargs)
        runs.append((net, final.firings))
        return final

    out = io.StringIO()
    with _alone(), mock.patch.object(net_module, "_execute", counted), redirect_stdout(out):
        code = main(["tables", "--mode", "both", "--N", "2,3,5,8,13,21,34,48", "--M", "2,3,5,8,13,24"])
    assert code == 0 and out.getvalue() == (GOLDEN / "tables_wide.csv").read_text()
    assert len(runs) == 96
    firings = sum(count for _, count in runs)
    assert sum(_loop_firings(net) for net, _ in runs) >= 0.9 * firings
