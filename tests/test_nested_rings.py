"""Nested cycles: an inner ring metered by a counter inside an outer ring with its own counter.

Generated nets run their inner ring a number of laps per outer lap, as the
protocol nets do, with guards that read both counters, mixed priorities and
the hazards of ``test_trace._ring_case``.  Each net is paired with a sibling
of its structure whose guard thresholds coincide where the net's differ, or
the other way round.  Under a lowered look interval and block length,
``run_final`` and ``run`` are compared bit for bit with a
``step()`` loop on the loops the first net emits and on the loops its
sibling installs from the structure's code, and every trip count
``run_final`` takes with ``test_trace._trip_count``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from qpn.expr import Constant
from qpn.net import Arc, ArcKind, PetriNet, PlaceDecl, PlaceKind, RunConfig, TransitionDecl
from test_caches import _emissions
from test_trace import (
    _HAZARDS,
    _add_hazard,
    _alone,
    _check_against_step_loop,
    _loop_firings,
    _recording_trip_counts,
    _sibling,
)
from test_trace_record import _check_record, _lowered

C, A = PlaceKind.COUNTER, PlaceKind.AMPLITUDE
_WEIGHTS = ("m(a0)*0.5", "0.5*m(a1)+0.25", "m(a0)-m(a1)", "sin(m(a0))", "0.25", "m(a1)*m(a1)")


@st.composite
def _nested_case(draw):
    """Two nets of one structure with their config: (net, sibling, config, require_single_enabled).

    The outer ring o0..o<j> takes one token of the outer fuel B per lap,
    counts the lap in co and puts `fuel` tokens into the inner fuel bi.  The
    inner ring t0..t<k> takes one of bi per lap and counts it in ci.  The exit
    x needs `laps` of ci and hands the token back to the outer ring; where
    fuel exceeds laps, bi keeps the rest and priority decides between t0 and
    x.  s1 and s2 fire once each when ci and co pass their thresholds, and
    s3 once ci passes m(co) plus a constant.
    """
    outer = draw(st.integers(min_value=1, max_value=3))
    inner = draw(st.integers(min_value=1, max_value=3))
    laps_out = draw(st.integers(min_value=4, max_value=14))
    laps = draw(st.integers(min_value=3, max_value=30))
    fuel = laps + draw(st.sampled_from([0, 0, 1, 3]))
    total = laps_out * laps  # laps of the inner ring over the run

    def rank():
        return draw(st.integers(0, 2))

    places = [PlaceDecl("go", C, 1.0), PlaceDecl("B", C, float(laps_out)), PlaceDecl("co", C, 0.0),
              PlaceDecl("bi", C, 0.0), PlaceDecl("ci", C, 0.0), PlaceDecl("a0", A, 0.5), PlaceDecl("a1", A, -0.25),
              PlaceDecl("y1", C, 1.0), PlaceDecl("y2", C, 1.0), PlaceDecl("y3", C, 1.0), PlaceDecl("out", A, 0.0)]
    places += [PlaceDecl(f"oc{i}", C, 0.0) for i in range(1, outer)] + [PlaceDecl(f"r{i}", C, 0.0) for i in range(inner)]
    ring = [f"o{i}" for i in range(outer)] + [f"t{i}" for i in range(inner)] + ["x"]
    transitions = [TransitionDecl(t, rank()) for t in ring + ["s1", "s2", "s3"]]
    arcs = [Arc("go", "o0"), Arc("B", "o0"), Arc("o0", "co"), Arc("o0", "bi", str(fuel))]
    chain = [*(f"oc{i}" for i in range(1, outer)), "r0"]
    arcs += [Arc(f"o{i}", chain[i]) for i in range(outer)] + [Arc(chain[i - 1], f"o{i}") for i in range(1, outer)]
    arcs += [Arc("bi", "t0")] + [Arc(f"r{i}", f"t{i}") for i in range(inner)]
    arcs += [Arc(f"t{i}", f"r{(i + 1) % inner}") for i in range(inner)] + [Arc(f"t{inner - 1}", "ci")]
    arcs += [Arc("r0", "x"), Arc("ci", "x", str(laps)), Arc("x", "go")]
    for t in ring:
        for _ in range(draw(st.integers(min_value=0, max_value=1))):
            arcs.append(Arc(t, draw(st.sampled_from(["a0", "a1"])), draw(st.sampled_from(_WEIGHTS))))
    for hazard in sorted(draw(st.sets(st.sampled_from(_HAZARDS), max_size=2))):  # not in hash order
        at_lap = draw(st.integers(min_value=30, max_value=total + 20))
        _add_hazard(draw, hazard, at_lap, lambda: draw(st.sampled_from(ring)), places, transitions, arcs)

    thresholds = st.integers(min_value=1, max_value=laps + 2)
    k1, k2, c1, c2 = (draw(thresholds) for _ in range(4))
    extra = float(draw(st.integers(min_value=0, max_value=3)))

    def build(k2):
        side = [Arc("y1", "s1"), Arc("ci", "s1", Constant(float(k1)), ArcKind.GUARD),
                Arc("co", "s1", Constant(float(c1)), ArcKind.GUARD), Arc("s1", "out", "m(a0)"),
                Arc("y2", "s2"), Arc("ci", "s2", Constant(float(k2)), ArcKind.GUARD),
                Arc("co", "s2", Constant(float(c2)), ArcKind.GUARD), Arc("s2", "out", "0.5"),
                Arc("y3", "s3"), Arc("ci", "s3", f"m(co)+{extra}", ArcKind.GUARD), Arc("s3", "out", "m(out)*0.5")]
        return PetriNet("nested", places, transitions, arcs + side)

    # the net's thresholds on ci coincide and the sibling's differ, or the other way round
    other = k1 + 1 if k2 == k1 else k1
    net, sibling = build(k2), _sibling(build(other))
    max_steps = draw(st.one_of(st.just(1_000_000), st.integers(min_value=50, max_value=laps_out * (outer + inner * laps + 2) + 30)))
    return net, sibling, RunConfig(max_steps=max_steps), draw(st.integers(0, 3)) == 3


def test_nested_rings_match_step_loop():
    """run_final on the loops the net emits, then on the loops its sibling installs with no emission, apart from
    a loop with a bridge that the sibling records first; every trip count equals the reference's."""
    engaged, patched, trips = [], [], []

    @settings(max_examples=150, deadline=None)
    @given(_nested_case())
    def check(case):
        net, sibling, config, single = case
        with _alone(), _recording_trip_counts(trips):
            _check_against_step_loop(net, net.initial_marking(), config, single)
            emitted = []
            with _emissions(emitted, bridged=False):  # a bridge the sibling records is new code
                _check_against_step_loop(sibling, sibling.initial_marking(), config, single)
        if not single:  # a run under the single check stops before its loops compile
            engaged.append(_loop_firings(net) > 0)
            patched.append(_loop_firings(sibling) > 0 and not emitted)

    chunk, block = _lowered()
    with chunk, block:
        check()
    assert sum(engaged) >= 0.6 * len(engaged), f"loops ran on {sum(engaged)} of {len(engaged)} deterministic examples"
    assert sum(patched) >= 0.5 * len(patched), \
        f"installed loops ran on {sum(patched)} of {len(patched)} deterministic examples"
    assert len({k for _, k, _ in trips}) > 10


def test_nested_rings_record_matches_step_loop():
    """run() records through the loops the net emits, then through those its sibling installs (a loop with a
    bridge that the sibling records first it emits)."""
    engaged, patched = [], []

    @settings(max_examples=80, deadline=None)
    @given(_nested_case())
    def check(case):
        net, sibling, config, _ = case
        with _alone():
            _check_record(net, net.initial_marking(), config)
            emitted = []
            with _emissions(emitted, bridged=False):  # a bridge the sibling records is new code
                _check_record(sibling, sibling.initial_marking(), config)
        engaged.append(_loop_firings(net) > 0)
        patched.append(_loop_firings(sibling) > 0 and not emitted)

    chunk, block = _lowered()
    with chunk, block:
        check()
    assert sum(engaged) >= 0.6 * len(engaged), f"loops ran on {sum(engaged)} of {len(engaged)} examples"
    assert sum(patched) >= 0.4 * len(patched), f"installed loops ran on {sum(patched)} of {len(patched)} examples"
