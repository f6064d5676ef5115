"""The shape and structure caches of generated code, and eviction from the bounded caches.

Generated modules are compiled once per shape and later built by patching
their float literals into the cached code.  The patched code must be the code
a fresh compile() of the real text gives, instruction for instruction, with
float constants equal bit for bit.  A net whose structure is cached derives
its literals without emitting code; its functions must equal those a fresh
emission from its own weights compiles, in the same way.
"""

import contextlib
import dis
import gc
import math
import struct
import sys
import threading
import weakref
from pathlib import Path
from types import CodeType
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpn import expr as expr_module
from qpn import net as net_module
from qpn import netfile
from qpn.errors import DivisionByZeroError, QpnError
from qpn.expr import Add, Constant, Divide, MarkRef, Multiply, evaluate, parse
from qpn.models import (
    ProtocolParams,
    entanglement_net,
    measurement_net,
    slaz_blocking_net,
    slaz_passing_net,
    zeno_net,
)
from qpn.net import (
    Arc,
    ArcKind,
    PetriNet,
    PlaceDecl,
    PlaceKind,
    Policy,
    RunConfig,
    TransitionDecl,
    is_enabled,
    run,
    run_final,
)

GOLDEN = Path(__file__).parent / "golden"
A = PlaceKind.AMPLITUDE
C = PlaceKind.COUNTER


def _key(value):
    """A constant compared by its bits; code objects by their instructions."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, CodeType):
        return ("code", value.co_name, value.co_varnames, _instructions(value))
    if isinstance(value, tuple):
        return tuple(_key(v) for v in value)
    return value


def _instructions(code):
    # argval, not arg: the compiler shares one co_consts slot among equal
    # literals, where the template holds one slot per hole
    return [(ins.opname, _key(ins.argval)) for ins in dis.get_instructions(code)]


def _checking(counts):
    """net._shaped, checking every module it builds against a fresh compile of its text.

    Every module passes through it: those of net._code and those a structure
    hit builds.  Counts the modules checked, those patched from a plan, and
    the hits: those patched from a plan an earlier module made.
    """
    build = net_module._shaped

    def shaped(shape, text, literals):
        known = shape in net_module._SHAPES
        built = build(shape, text, literals)
        fresh = compile(net_module._joined(text, literals), "<string>", "exec")
        assert _instructions(built) == _instructions(fresh)
        patched = bool(net_module._SHAPES[shape])
        counts["modules"] += 1
        counts["patched"] += patched
        counts["hits"] += patched and known
        return built

    return shaped


@pytest.fixture
def checked(monkeypatch):
    counts = {"modules": 0, "patched": 0, "hits": 0}
    monkeypatch.setattr(net_module, "_SHAPES", {})
    monkeypatch.setattr(net_module, "_STRUCTURES", {})
    monkeypatch.setattr(net_module, "_shaped", _checking(counts))
    return counts


def _exercise(net, max_steps=5000):
    """Build every module of a net: tests and steps, loops and their recording variants, and the Born code."""
    cnet = net.compiled()
    m0 = net.initial_marking()
    for config in (RunConfig(max_steps=max_steps), RunConfig(Policy.BORN_RANDOM, 1, 50)):
        with contextlib.suppress(QpnError, ArithmeticError, ValueError):
            run_final(net, m0, config)
    with contextlib.suppress(QpnError, ArithmeticError, ValueError):
        run(net, m0, RunConfig(max_steps=max_steps))
    for ti in range(len(cnet.trans)):
        with contextlib.suppress(QpnError, ArithmeticError, ValueError):
            if cnet.enabled(ti, m0):
                cnet.fire_into(ti, list(m0))
    with contextlib.suppress(QpnError, ArithmeticError, ValueError):
        cnet.born_weights(list(range(len(cnet.trans))), m0)
    return cnet


def _bundled_nets():
    yield measurement_net()[0]
    yield entanglement_net()
    yield zeno_net(ProtocolParams(N=6))[0]
    yield slaz_passing_net(ProtocolParams(N=3, M=2))[0]
    yield slaz_blocking_net(ProtocolParams(N=3, M=2))[0]
    for path in sorted(GOLDEN.glob("*.qpn")):
        yield netfile.load(path.read_text()).net


def test_patched_code_equals_a_fresh_compile_on_bundled_nets(checked):
    nets = list(_bundled_nets())
    for net in nets:
        _exercise(net)
    assert checked["modules"] >= 3 * len(nets)  # at least the tests, the steps and the Born code
    assert checked["hits"] > 0


@pytest.mark.parametrize("mode", ["passing", "blocking"])
def test_patched_code_equals_a_fresh_compile_on_grid_shapes(checked, mode):
    """Grid cells of one mode share shapes, loops included, and differ in their literals."""
    build = slaz_passing_net if mode == "passing" else slaz_blocking_net
    built = []
    # the first net's period turns hot in run_final (passing) or only in run
    # (blocking), which builds just the variant it enters; the others patch
    # their literals into the code of both variants
    for n, m in ((47, 23), (48, 24), (33, 21)):
        net, _ = build(ProtocolParams(N=n, M=m))
        cnet = _exercise(net, max_steps=10**6)
        built.append((len(cnet.loops), len(cnet.recorders)))
    assert built == [(mode == "passing", 1), (1, 1), (1, 1)]
    assert checked["patched"] == checked["modules"]  # the Born code included
    assert checked["hits"] >= 4  # the tests and the steps of the last two nets


def test_patched_code_equals_a_fresh_compile_for_successors_and_predicates(checked):
    """The BFS successor function and the generated predicates patch like any module;
    two product nets of one structure share the successors shape."""
    from qpn.analysis import check_invariant, reachability_graph

    def product(c, d):
        """Two sources; s0 fires into x0 (weight c) or y0 (weight d), s1 the other way round."""
        places = [PlaceDecl(p, C, 1 if p[0] == "s" else 0) for p in ("s0", "x0", "y0", "s1", "x1", "y1")]
        arcs = [Arc("s0", "a0"), Arc("a0", "x0", str(c)), Arc("s0", "b0"), Arc("b0", "y0", str(d)),
                Arc("s1", "a1"), Arc("a1", "x1", str(d)), Arc("s1", "b1"), Arc("b1", "y1", str(c))]
        return PetriNet("product", places, ["a0", "b0", "a1", "b1"], arcs)

    for net, (c, d) in ((product(2, 3), (2, 3)), (product(5, 7), (5, 7)), (entanglement_net(), (1, 1))):
        graph = reachability_graph(net)
        for text in (f"{c * d}*m(s0)+{d}*m(x0)+{c}*m(y0)=={c * d}", "m(x0)<=1.5 OR NOT m(y0)>0.5",
                     "m(s0)!=m(s1) AND m(x0)>=2 AND m(y0)<1"):
            with contextlib.suppress(QpnError):
                check_invariant(graph, text)
    assert checked["patched"] == checked["modules"]
    assert checked["hits"] >= 4  # the second product net: its successors and its three predicates


_TEMPLATES = ("{c}", "m(q0)*{c}", "m(q1)+{c}", "cos(m(q2))", "{c}-m(q3)", "sqrt(m(q0))/{c}")


@st.composite
def _net_pair(draw):
    """Two nets of one structure whose constant weights are drawn separately."""
    n_trans = draw(st.integers(min_value=1, max_value=3))
    arcs = []
    for t in range(n_trans):
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            src = f"q{draw(st.integers(0, 3))}"
            kind = draw(st.sampled_from([ArcKind.CONSUME, ArcKind.GUARD, ArcKind.DRAIN]))
            weight = f"m({src})" if kind == ArcKind.DRAIN else draw(st.sampled_from(_TEMPLATES))
            arcs.append((src, f"t{t}", weight, kind))
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            arcs.append((f"t{t}", f"q{draw(st.integers(0, 3))}", draw(st.sampled_from(_TEMPLATES)), None))
    constant = st.floats(min_value=0.0, max_value=1e300, allow_nan=False).map(repr)
    marking = st.lists(st.floats(min_value=-8.0, max_value=8.0, allow_nan=False), min_size=4, max_size=4)
    nets = []
    for _ in range(2):
        places = [PlaceDecl(f"q{i}", A, v) for i, v in enumerate(draw(marking))]
        net_arcs = [Arc(s, t, w.format(c=draw(constant)), k) for s, t, w, k in arcs]
        nets.append(PetriNet("rand", places, [f"t{t}" for t in range(n_trans)], net_arcs))
    return nets


@settings(max_examples=60, deadline=None)
@given(_net_pair())
def test_patched_code_equals_a_fresh_compile_on_random_nets(nets):
    counts = {"modules": 0, "patched": 0, "hits": 0}
    # a function-scoped fixture would not be reset between hypothesis examples
    with mock.patch.object(net_module, "_shaped", _checking(counts)):
        for net in nets:
            _exercise(net, max_steps=3000)
    assert counts["modules"] >= 4


_LEADING_CONSTANTS = """net lead
place a init=0.75 kind=amplitude
trans t1
trans t2
arc t1 -> a w="0.1"
arc t1 -> a w="1/3"
arc t1 -> a w="m(a)"
arc t1 -> a w="0.2"
arc t2 -> a w="0.2"
arc t2 -> a w="0.3"
"""


@pytest.mark.parametrize("text", [(GOLDEN / "measurement.qpn").read_text(), _LEADING_CONSTANTS],
                         ids=["measurement", "leading-constants"])
def test_born_code_of_constant_weights_is_patched(monkeypatch, text):
    """Constant squares, and the sum of the leading run of them, are literals the
    compiler cannot fold, so the Born code patches like the rest and gives each
    transition's squared output weights summed in arc order."""
    monkeypatch.setattr(net_module, "_SHAPES", {})
    net = netfile.load(text).net
    cnet = net.compiled()
    m0 = net.initial_marking()
    before = set(net_module._SHAPES)
    weights = cnet.born_weights(list(range(len(cnet.trans))), m0)
    (born,) = set(net_module._SHAPES) - before
    assert net_module._SHAPES[born]
    env = dict(zip(net.place_ids(), m0))
    for tid, got in zip(net.transition_ids(), weights):
        expected = sum(w * w for w in (evaluate(a.weight, env) for a in net.output_arcs(tid)))
        assert struct.pack("d", got) == struct.pack("d", expected)


def test_folded_literals_compile_the_real_text(monkeypatch):
    """The compiler folds the operands of 1/0 that fold_constants keeps, so the shape
    takes the fallback; the run raises the reference error as before."""
    monkeypatch.setattr(net_module, "_SHAPES", {})
    net = PetriNet("div", [PlaceDecl("p", A, 1.0), PlaceDecl("out", A)], ["t"],
                   [Arc("p", "t", "1/0"), Arc("t", "out", "1")])
    with pytest.raises(DivisionByZeroError, match=r"arc p->t w=1/0: division by zero in 1/0"):
        is_enabled(net, net.initial_marking(), "t")
    assert () in net_module._SHAPES.values()


def test_shape_cache_is_bounded(monkeypatch):
    """Nets whose input place sits at ever higher ordinals give ever new shapes."""
    monkeypatch.setattr(net_module, "_SHAPES", {})
    for k in range(net_module._SHAPES_MAX // 2 + 10):
        places = [PlaceDecl(f"p{i}", C, 1) for i in range(k + 1)]
        net = PetriNet("wide", places, ["t"], [Arc(f"p{k}", "t", "2.5")])
        net.compiled()
        assert len(net_module._SHAPES) <= net_module._SHAPES_MAX
    assert len(net_module._SHAPES) == net_module._SHAPES_MAX


# --- the structure cache ------------------------------------------------------------


def _compiled(net):
    """net's _CompiledNet, and whether it was built from a cached structure, without emission."""
    generate, emitted = net_module._CompiledNet._generate, []

    def recording(self):
        emitted.append(self)
        return generate(self)

    with mock.patch.object(net_module._CompiledNet, "_generate", recording):
        cnet = net_module._CompiledNet(net)
    return cnet, not emitted


def _assert_emitted_as_fresh(cnet):
    """Every enabling test and step equals the code a fresh emission from the net's own weights
    compiles, instruction for instruction, with float constants compared by their bits."""
    sources = (net_module._source("m", [[f"    return {test}"] for test in cnet._tests]),
               net_module._source("m, flags", [cnet._step(ti) for ti in range(len(cnet.trans))]))
    tests, steps = ({c.co_name: c for c in compile(source.replace(expr_module.LITERAL, ""), "<string>", "exec")
                     .co_consts if isinstance(c, CodeType)} for source in sources)
    for ti, ct in enumerate(cnet.trans):
        assert _key(ct.enabled.__code__) == _key(tests[f"_f{ti}"])
        assert _key(ct.step.__code__) == _key(steps[f"_f{ti}"])


@pytest.mark.parametrize("build", [slaz_passing_net, slaz_blocking_net], ids=["passing", "blocking"])
def test_structure_hits_equal_a_fresh_emission_on_grid_shapes(monkeypatch, build):
    monkeypatch.setattr(net_module, "_STRUCTURES", {})
    hits = 0
    for n, m in ((2, 2), (3, 5), (48, 24), (13, 2), (2500, 25)):
        cnet, hit = _compiled(build(ProtocolParams(N=n, M=m))[0])
        _assert_emitted_as_fresh(cnet)
        hits += hit
    assert hits == 4 and len(net_module._STRUCTURES) == 1


# pairs of constants on the two sides of each value emission decides on: a counter
# move of 0.5, a zero's sign, a weight's sign, a deposit's overflow bound 2**970 and
# a sum past the largest float; then pairs that differ only in their value
_PAIRS = ((0.5, math.nextafter(0.5, 0.0)), (-0.5, math.nextafter(-0.5, 0.0)), (0.0, -0.0), (1e-12, -1e-12),
          (2.0**970, math.nextafter(2.0**970, 0.0)), (1e308, 9e307), (math.inf, math.nan),
          (0.5, math.nextafter(0.5, 1.0)), (1.0, 3.0), (-1.0, -2.5))


def _weight(form, c, q):
    """A weight with the constant c in it; 1/c folds to a constant unless c is a zero."""
    return {"c": Constant(c), "mul": Multiply(MarkRef(q), Constant(c)), "add": Add(Constant(c), MarkRef(q)),
            "div": Divide(Constant(1.0), Constant(c))}[form]


@st.composite
def _edge_nets(draw):
    """Two nets of one structure over counters q0, q1 and amplitudes q2, q3.

    Each constant is one of a pair; the second net takes the other one of a
    single pair, so it differs from the first in one decision or in none.
    """
    arcs = []
    forms = st.sampled_from(["c", "c", "mul", "add", "div"])
    for t in range(draw(st.integers(min_value=1, max_value=3))):
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            kind = draw(st.sampled_from([ArcKind.CONSUME, ArcKind.CONSUME, ArcKind.GUARD, ArcKind.DRAIN]))
            arcs.append((f"q{draw(st.integers(0, 3))}", f"t{t}", kind, draw(forms)))
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            arcs.append((f"t{t}", f"q{draw(st.integers(0, 3))}", None, draw(forms)))
    pairs = [draw(st.sampled_from(_PAIRS)) for _ in arcs]
    swapped = draw(st.integers(min_value=0, max_value=len(arcs)))
    places = [PlaceDecl("q0", C, 1), PlaceDecl("q1", C, 2), PlaceDecl("q2", A, 0.5), PlaceDecl("q3", A, -0.25)]
    transitions = sorted({t for s, t, _, _ in arcs if t.startswith("t")} | {s for s, _, _, _ in arcs if s.startswith("t")})
    nets = []
    for net in range(2):
        constants = [pair[net and i == swapped] for i, pair in enumerate(pairs)]
        net_arcs = [Arc(s, t, MarkRef(s) if k == ArcKind.DRAIN else _weight(form, c, "q2"), k)
                    for (s, t, k, form), c in zip(arcs, constants)]
        nets.append(PetriNet("edges", places, transitions or ["t0"], net_arcs))
    return nets


@settings(max_examples=200, deadline=None)
@given(_edge_nets())
def test_structure_hits_equal_a_fresh_emission_across_decision_boundaries(nets):
    with mock.patch.object(net_module, "_STRUCTURES", {}):
        for net in nets:
            cnet, _ = _compiled(net)
            _assert_emitted_as_fresh(cnet)


def _boundary_net(place_kind, kind, c):
    """t0 consumes the constant c from q0 or deposits it there; t1, guarded on q0, is re-tested."""
    moved = Arc("q0", "t0", Constant(c)) if kind == ArcKind.CONSUME else Arc("t0", "q0", Constant(c))
    return PetriNet("boundary", [PlaceDecl("q0", place_kind, 1), PlaceDecl("r", A, 1.0)], ["t0", "t1"],
                    [moved, Arc("r", "t0", "1") if kind == ArcKind.DEPOSIT else Arc("t0", "r", "1"),
                     Arc("q0", "t1", "1", ArcKind.GUARD)])


@pytest.mark.parametrize("place_kind, kind, a, b", [
    (C, ArcKind.CONSUME, 0.5, math.nextafter(0.5, 0.0)),  # a counter move of at least 0.5
    (C, ArcKind.CONSUME, -0.5, math.nextafter(-0.5, 0.0)),
    (C, ArcKind.DEPOSIT, 0.5, math.nextafter(0.5, 0.0)),
    (C, ArcKind.CONSUME, 0.0, -0.0),  # whether a -0.0 can survive: the counter's + 0.0
    (C, ArcKind.DEPOSIT, -0.0, 0.0),
    (C, ArcKind.CONSUME, 0.0, 0.25),
    (A, ArcKind.CONSUME, 1e-12, -1e-12),  # a negative weight's term
    (A, ArcKind.DEPOSIT, 0.0, -1e-12),  # an amplitude move's sign
    (A, ArcKind.DEPOSIT, 2.0**970, math.nextafter(2.0**970, 0.0)),  # a deposit's overflow test
], ids=["counter-consume-half", "counter-consume-minus-half", "counter-deposit-half", "consume-zero-sign",
        "deposit-zero-sign", "consume-zero", "negative", "amplitude-sign", "overflow-bound"])
def test_constants_across_a_decision_boundary_take_another_structure(monkeypatch, place_kind, kind, a, b):
    monkeypatch.setattr(net_module, "_STRUCTURES", {})
    for c, hit in ((a, False), (b, False), (a, True)):
        cnet, built_from_structure = _compiled(_boundary_net(place_kind, kind, c))
        assert built_from_structure == hit
        _assert_emitted_as_fresh(cnet)


def test_structure_hit_of_a_faulting_constant_raises_the_reference_error(monkeypatch):
    """1/0 and 2/-0 fold to no constant and share a structure; the hit compiles its text,
    since the compiler folds the literals, and raises naming its own arc."""
    monkeypatch.setattr(net_module, "_STRUCTURES", {})

    def net(numerator, zero):
        return PetriNet("div", [PlaceDecl("p", A, 1.0), PlaceDecl("out", A)], ["t"],
                        [Arc("p", "t", Divide(Constant(numerator), Constant(zero))), Arc("t", "out", "1")])

    for numerator, zero, text, hit in ((1.0, 0.0, "1/0", False), (2.0, -0.0, "2/0", True)):
        cnet, built_from_structure = _compiled(net(numerator, zero))
        assert built_from_structure == hit
        _assert_emitted_as_fresh(cnet)
        with pytest.raises(DivisionByZeroError, match=rf"^arc p->t w={text}: division by zero in {text}$"):
            cnet.enabled(0, [1.0, 0.0])


def test_sum_that_overflows_takes_another_structure(monkeypatch):
    """Two consumes from one place whose constant sum overflows emit an inf threshold, not a literal:
    a cached structure serves only nets whose sums overflow as its own did, and the key keeps both."""
    monkeypatch.setattr(net_module, "_STRUCTURES", {})

    def net(a, b):
        return PetriNet("sum", [PlaceDecl("p", A, 1e308)], ["t"], [Arc("p", "t", Constant(a)), Arc("p", "t", Constant(b))])

    for a, b, hit in ((1e308, 1e307, False), (1e300, 2e300, True), (1e308, 1e308, False), (1.5e308, 1e308, True),
                      (1e300, 1e300, True)):
        cnet, built_from_structure = _compiled(net(a, b))
        assert built_from_structure == hit
        _assert_emitted_as_fresh(cnet)
        assert cnet.enabled(0, [1e308]) == (1e308 >= a + b - 1e-12)


def test_a_repeated_arc_keeps_a_literal_per_occurrence(monkeypatch):
    """A net that gives one arc twice has one arc entry for both; a net of its structure whose two arcs
    differ there still sums its own two weights."""
    monkeypatch.setattr(net_module, "_STRUCTURES", {})
    arc = Arc("p", "t", "0.3")
    for arcs, hit in (([arc, arc], False), ([Arc("p", "t", "0.4"), Arc("p", "t", "0.3")], True)):
        net = PetriNet("twice", [PlaceDecl("p", A, 0.65)], ["t"], arcs)
        cnet, built_from_structure = _compiled(net)
        assert built_from_structure == hit
        _assert_emitted_as_fresh(cnet)
        assert cnet.enabled(0, [0.65]) == (not hit)  # 0.3 + 0.3 <= 0.65 < 0.4 + 0.3


def test_structure_cache_is_bounded(monkeypatch):
    """Nets with ever more places have ever new structures."""
    monkeypatch.setattr(net_module, "_STRUCTURES", {})
    for k in range(net_module._STRUCTURES_MAX + 10):
        places = [PlaceDecl(f"p{i}", C, 1) for i in range(k + 1)]
        PetriNet("wide", places, ["t"], [Arc(f"p{k}", "t", "2.5")]).compiled()
        assert len(net_module._STRUCTURES) <= net_module._STRUCTURES_MAX
    assert len(net_module._STRUCTURES) == net_module._STRUCTURES_MAX


def test_arcs_are_memoized_per_arc(monkeypatch):
    """An arc is normalized and folded once while its entry lives: the entry holds what a fresh fold gives,
    a faulting subtree stays unfolded, and an entry left by a dead tree of the same id is not used."""
    monkeypatch.setattr(net_module, "_ARCS", {})
    folds = []
    fold = expr_module.fold_constants
    monkeypatch.setattr(expr_module, "fold_constants", lambda tree: folds.append(tree) or fold(tree))
    places = [PlaceDecl("a", A, 1.0), PlaceDecl("b", C, 1)]
    for text in ("cos(pi/(2*2500))*m(a)", "1/0", "m(a)+1/0*2", "2*3", "m(a)*-0", "1/(1e308*10)", "m(a)", "0.25"):
        for weight in (text, parse(text)):  # keyed by the text, and by the tree
            arc = Arc("t", "a", weight)
            (entry,) = PetriNet("one", places, ["t"], [arc])._entries
            assert PetriNet("one", places, ["t"], [Arc("t", "a", weight)])._entries[0] is entry
            assert folds == [parse(text)]
            del folds[:]
            folded, consts = fold(parse(text)), []
            value = folded.value if type(folded) is Constant and math.isfinite(folded.value) else None
            shapes = ([net_module._skeleton(folded, consts)] * 2 if value is None
                      else [net_module._class(value, least) for least in (0.0, 0.5)])
            assert repr(entry[2:]) == repr(("a", "t", expr_module.free_places(parse(text)), (folded, value),
                                            (value,) if value is not None else tuple(consts),
                                            tuple(("t", "a", "deposit", shape) for shape in shapes)))
    assert net_module._ARCS[("t", "a", None, "1/0")].folded == (Divide(Constant(1.0), Constant(0.0)), None)
    stale = parse("m(b)*7")
    other = PetriNet("one", places, ["t"], [Arc("t", "a", parse("m(a)*8"))])._entries[0]
    net_module._ARCS[("t", "a", None, id(stale))] = other
    (entry,) = PetriNet("one", places, ["t"], [Arc("t", "a", stale)])._entries
    assert entry.folded[0] == Multiply(MarkRef("b"), Constant(7.0))


def test_arc_memo_is_bounded(monkeypatch):
    """Nets with ever new weights have ever new arcs."""
    monkeypatch.setattr(net_module, "_ARCS", {})
    for k in range(net_module._ARCS_MAX + 10):
        PetriNet("wide", [PlaceDecl("p", C, 1)], ["t"], [Arc("p", "t", f"{k}.5")])
        assert len(net_module._ARCS) <= net_module._ARCS_MAX
    assert len(net_module._ARCS) == net_module._ARCS_MAX


def _assert_built_as_cold(build, fresh=True):
    """A net built through a warm arc memo equals the net built with the memo cleared: its arcs,
    its structure key and constants, and, if fresh, its compiled code equals a fresh emission."""
    with mock.patch.object(net_module, "_ARCS", {}):
        cold = build()
    first, warm = build(), build()
    assert all(a is b for a, b in zip(warm._entries, first._entries))  # every arc of the second build is a hit
    assert warm == cold
    assert _key(warm.compiled()._structure()) == _key(cold.compiled()._structure())
    if fresh:
        _assert_emitted_as_fresh(warm.compiled())


@pytest.mark.parametrize("build", [slaz_passing_net, slaz_blocking_net], ids=["passing", "blocking"])
def test_memo_builds_grid_cells_as_cold(build):
    """Over the N range [2, 48] and M range [2, 24]; every twelfth cell is compared with a fresh emission."""
    cells = [(n, m) for n in (*range(2, 48, 3), 48) for m in (*range(2, 24, 2), 24)]
    for i, (n, m) in enumerate(cells):
        _assert_built_as_cold(lambda: build(ProtocolParams(N=n, M=m))[0], fresh=i % 12 == 0)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.qpn")), ids=lambda path: path.stem)
def test_memo_builds_golden_nets_as_cold(path):
    _assert_built_as_cold(lambda: netfile.load(path.read_text()).net)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_net_pair(), _edge_nets()))
def test_memo_builds_random_nets_as_cold(nets):
    for net in nets:
        _assert_built_as_cold(lambda: PetriNet(net.name, net.places, net.transitions, net.arcs))


# --- loops cached on the structure ------------------------------------------------------


def _emissions(counts):
    """Patch _CompiledNet.loop so that each emission of a loop is counted."""
    loop = net_module._CompiledNet.loop

    def counted(cnet, states, recording):
        counts.append(recording)
        return loop(cnet, states, recording)

    return mock.patch.object(net_module._CompiledNet, "loop", counted)


def _loop_key(loop):
    """A loop's code, instruction for instruction with floats by their bits, and the globals it is specialized on."""
    scope = loop.run.__globals__
    return _key(loop.run.__code__), scope["_plan"], scope["_d"], list(scope.get("_ordinals", ()))


def _assert_loops_as_fresh(cnet):
    """Every loop and recording loop of the net equals a fresh loop() compile of its period."""
    for loops, recording in ((cnet.loops, False), (cnet.recorders, True)):
        for loop in loops.values():
            assert _loop_key(loop) == _loop_key(cnet.loop(loop.states, recording))


@pytest.mark.parametrize("build", [slaz_passing_net, slaz_blocking_net], ids=["passing", "blocking"])
def test_patched_loops_equal_a_fresh_compile_on_grid_shapes(monkeypatch, build):
    """Cells of one structure patch their literals and trip plans into the code of the first cell's loops."""
    monkeypatch.setattr(net_module, "_STRUCTURES", {})
    patched = 0
    for n, m in ((47, 23), (12, 5), (320, 25), (7, 3), (321, 25), (33, 21)):
        net = build(ProtocolParams(N=n, M=m))[0]
        m0, emitted = net.initial_marking(), []
        with _emissions(emitted):
            final = run_final(net, m0, RunConfig())
            trace = run(net, m0, RunConfig())
        cnet = net.compiled()
        assert final.marking == trace.final
        patched += len(cnet.loops) + len(cnet.recorders) - len(emitted)
        _assert_loops_as_fresh(cnet)
    assert len(net_module._STRUCTURES) == 1
    assert patched >= 8


def _guarded_ring(k1, k2, d1, d2):
    """A 3-transition ring of 300 laps; t2 deposits d1 and d2 into the lap counter c.

    s1 and s2 need c to reach k1 and k2: the loop's guards that they stay
    disabled share one term when k1 and k2 are equal, and c is an induction
    counter only when d1 and d2 are integers.
    """
    places = [PlaceDecl("r0", C, 1.0), PlaceDecl("r1", C, 0.0), PlaceDecl("r2", C, 0.0), PlaceDecl("b", C, 300.0),
              PlaceDecl("c", C, 0.0), PlaceDecl("x", C, 1.0), PlaceDecl("y", C, 1.0), PlaceDecl("out", A, 0.0)]
    arcs = [Arc("b", "t0"), Arc("r0", "t0"), Arc("t0", "r1"), Arc("r1", "t1"), Arc("t1", "r2"), Arc("r2", "t2"),
            Arc("t2", "r0"), Arc("t2", "c", Constant(d1)), Arc("t2", "c", Constant(d2)), Arc("t1", "out", "m(out)*0.5+0.25"),
            Arc("x", "s1"), Arc("c", "s1", Constant(k1), ArcKind.GUARD), Arc("s1", "out", "1"),
            Arc("y", "s2"), Arc("c", "s2", Constant(k2), ArcKind.GUARD), Arc("s2", "out", "2")]
    return PetriNet("guarded", places, [TransitionDecl(t) for t in ("t0", "t1", "t2", "s1", "s2")], arcs)


def test_loops_whose_emission_decides_otherwise_are_emitted_afresh(monkeypatch):
    """A net of a cached structure gets the cached loop only where its emission would decide as that loop's did:
    on which thresholds are equal and share a term, and on which counters move by integers."""
    monkeypatch.setattr(net_module, "_STRUCTURES", {})
    monkeypatch.setattr(net_module, "_CHUNK", 8)
    monkeypatch.setattr(net_module, "_HOT", 2)
    # c never reaches the thresholds, so the run keeps to one period
    cases = [((2000.0, 2000.0, 1.0, 2.0), 1), ((2000.0, 2010.0, 1.0, 2.0), 1), ((2500.0, 2500.0, 2.0, 1.0), 0),
             ((2050.0, 2070.0, 3.0, 1.0), 0), ((2000.0, 2000.0, 0.5, 1.5), 1), ((2700.0, 2700.0, 1.5, 0.5), 0)]
    for constants, emissions in cases:
        net, emitted = _guarded_ring(*constants), []
        with _emissions(emitted):
            final = run_final(net, net.initial_marking(), RunConfig())
        cnet = net.compiled()
        assert (len(emitted), len(cnet.loops)) == (emissions, 1), constants
        assert sum(loop.firings for loop in cnet.loops.values()) > 600
        _assert_loops_as_fresh(cnet)
        assert final.marking[net.place_index["c"]] == 300 * (constants[2] + constants[3])
    assert len(net_module._STRUCTURES) == 1


def test_a_net_that_patched_a_cached_loop_is_freed(monkeypatch):
    """The structure keeps only code and recipes: the loops a net built are freed with the net."""
    monkeypatch.setattr(net_module, "_STRUCTURES", {})
    first = slaz_passing_net(ProtocolParams(N=40, M=25))[0]
    run_final(first, first.initial_marking(), RunConfig())
    net = slaz_passing_net(ProtocolParams(N=41, M=25))[0]
    emitted = []
    with _emissions(emitted):
        run_final(net, net.initial_marking(), RunConfig())
        run(net, net.initial_marking(), RunConfig())
    assert net.compiled().loops and net.compiled().recorders and emitted == [True]
    gone = weakref.ref(net)
    del net
    gc.collect()
    assert gone() is None


def test_threads_that_meet_one_hot_head_each_get_a_correct_loop(monkeypatch):
    """Threads build the plain loop of one hot period at once, on their own nets and on a shared one:
    every run equals a run of the same net on a cache of its own, bit for bit."""
    cells = [(n, 25) for n in range(40, 46)]

    def final(n, m):
        net = slaz_passing_net(ProtocolParams(N=n, M=m))[0]
        return struct.pack(f"{len(net.places)}d", *run_final(net, net.initial_marking(), RunConfig()).marking)

    expected = {}
    for n, m in cells:
        with mock.patch.object(net_module, "_STRUCTURES", {}):
            expected[n] = final(n, m)
    monkeypatch.setattr(net_module, "_STRUCTURES", {})
    warm = slaz_passing_net(ProtocolParams(N=39, M=25))[0]
    run(warm, warm.initial_marking(), RunConfig())  # the period turns hot; only its recording loop is built
    shared = slaz_passing_net(ProtocolParams(N=40, M=25))[0]
    got, errors = [], []

    def work(n, m):
        try:
            got.append((n, final(n, m)))
            got.append((40, struct.pack(f"{len(shared.places)}d",
                                        *run_final(shared, shared.initial_marking(), RunConfig()).marking)))
        except Exception as e:  # noqa: BLE001 - any failure in a worker fails the test
            errors.append(e)

    threads = [threading.Thread(target=work, args=cell) for cell in cells]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(got) == 2 * len(cells) and all(bits == expected[n] for n, bits in got)
    assert shared.compiled().loops


# --- eviction from a full cache ------------------------------------------------------


class _Racing(dict):
    """A dict whose iterator drops each key it yields, as a thread that evicted it first."""

    def __iter__(self):
        for key in list(super().__iter__()):
            self.pop(key, None)
            yield key


def test_parse_eviction_tolerates_a_racing_eviction(monkeypatch):
    full = _Racing((f"{i}+m(p)", Constant(float(i))) for i in range(expr_module._PARSED_MAX))
    monkeypatch.setattr(expr_module, "_PARSED", full)
    assert parse("m(p)+1") == Add(MarkRef("p"), Constant(1.0))
    assert full["m(p)+1"] == Add(MarkRef("p"), Constant(1.0))


def test_shape_eviction_tolerates_a_racing_eviction(monkeypatch):
    full = _Racing((f"shape {i}", ()) for i in range(net_module._SHAPES_MAX))
    monkeypatch.setattr(net_module, "_SHAPES", full)
    net = PetriNet("one", [PlaceDecl("p", C, 1)], ["t"], [Arc("p", "t", "1")])
    assert is_enabled(net, net.initial_marking(), "t")
    assert len(full) <= net_module._SHAPES_MAX


def test_caches_keep_their_bounds_under_threads(monkeypatch):
    """Threads inserting into full caches at once raise nothing and keep the bounds."""
    for module, name in ((net_module, "_SHAPES"), (net_module, "_STRUCTURES"), (net_module, "_ARCS"),
                         (expr_module, "_PARSED")):
        monkeypatch.setattr(module, name, {})
        monkeypatch.setattr(module, f"{name}_MAX", 4)
    errors = []

    def work(w):
        try:
            for k in range(150):
                places = [PlaceDecl(f"p{i}", C, 1) for i in range(k % 40 + 1)]
                PetriNet("w", places, ["t"], [Arc(f"p{k % 40}", "t", f"{w}.{k}+{k}")]).compiled()
        except Exception as e:  # noqa: BLE001 - any failure in a worker fails the test
            errors.append(e)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(net_module._SHAPES) <= 4 and len(net_module._STRUCTURES) <= 4 and len(expr_module._PARSED) <= 4
    assert len(net_module._ARCS) <= 4
