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
import math
import struct
import sys
import threading
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
    loops = 0
    # the first two compile their loop in run_final; the third only in run,
    # whose sightings add to those run_final left
    for n, m in ((47, 23), (48, 24), (33, 21)):
        net, _ = build(ProtocolParams(N=n, M=m))
        cnet = _exercise(net, max_steps=10**6)
        loops += len(cnet.loops)
        assert len(cnet.recorders) == len(cnet.loops)
    assert loops == 3
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

    def recording(self, consts):
        emitted.append(self)
        return generate(self, consts)

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
    the cached structure serves only nets whose sums overflow as its own did."""
    monkeypatch.setattr(net_module, "_STRUCTURES", {})

    def net(a, b):
        return PetriNet("sum", [PlaceDecl("p", A, 1e308)], ["t"], [Arc("p", "t", Constant(a)), Arc("p", "t", Constant(b))])

    for a, b, hit in ((1e308, 1e307, False), (1e300, 2e300, True), (1e308, 1e308, False), (1.5e308, 1e308, True)):
        cnet, built_from_structure = _compiled(net(a, b))
        assert built_from_structure == hit
        _assert_emitted_as_fresh(cnet)
        assert cnet.enabled(0, [1e308]) == (1e308 >= a + b - 1e-12)


def test_structure_cache_is_bounded(monkeypatch):
    """Nets with ever more places have ever new structures."""
    monkeypatch.setattr(net_module, "_STRUCTURES", {})
    for k in range(net_module._STRUCTURES_MAX + 10):
        places = [PlaceDecl(f"p{i}", C, 1) for i in range(k + 1)]
        PetriNet("wide", places, ["t"], [Arc(f"p{k}", "t", "2.5")]).compiled()
        assert len(net_module._STRUCTURES) <= net_module._STRUCTURES_MAX
    assert len(net_module._STRUCTURES) == net_module._STRUCTURES_MAX


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
    for module, name in ((net_module, "_SHAPES"), (net_module, "_STRUCTURES"), (expr_module, "_PARSED")):
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
