"""The shape cache of generated code, and eviction from the bounded caches.

Generated modules are compiled once per shape and later built by patching
their float literals into the cached code.  The patched code must be the code
a fresh compile() of the real text gives, instruction for instruction, with
float constants equal bit for bit.
"""

import contextlib
import dis
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
from qpn.expr import Add, Constant, MarkRef, evaluate, parse
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
    """net._code, checking every module it builds against a fresh compile of its text.

    Counts the modules checked, those patched from a plan, and the hits: those
    patched from a plan an earlier module made.
    """
    build = net_module._code

    def code(source):
        shape = expr_module.LITERAL.join(source.split(expr_module.LITERAL)[::2])
        known = shape in net_module._SHAPES
        built = build(source)
        fresh = compile(source.replace(expr_module.LITERAL, ""), "<string>", "exec")
        assert _instructions(built) == _instructions(fresh)
        patched = bool(net_module._SHAPES[shape])
        counts["modules"] += 1
        counts["patched"] += patched
        counts["hits"] += patched and known
        return built

    return code


@pytest.fixture
def checked(monkeypatch):
    counts = {"modules": 0, "patched": 0, "hits": 0}
    monkeypatch.setattr(net_module, "_SHAPES", {})
    monkeypatch.setattr(net_module, "_code", _checking(counts))
    return counts


def _exercise(net, max_steps=5000):
    """Build every module of a net: tests and steps, loops and the Born code."""
    cnet = net.compiled()
    m0 = net.initial_marking()
    for config in (RunConfig(max_steps=max_steps), RunConfig(Policy.BORN_RANDOM, 1, 50)):
        with contextlib.suppress(QpnError, ArithmeticError, ValueError):
            run_final(net, m0, config)
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
    for n, m in ((47, 23), (48, 24), (33, 21)):  # the first two run long enough to compile a loop
        net, _ = build(ProtocolParams(N=n, M=m))
        loops += len(_exercise(net, max_steps=10**6).loops)
    assert loops == 2
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
    with mock.patch.object(net_module, "_code", _checking(counts)):
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
    for module, name in ((net_module, "_SHAPES"), (expr_module, "_PARSED")):
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
    assert len(net_module._SHAPES) <= 4 and len(expr_module._PARSED) <= 4
