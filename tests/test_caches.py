"""The structure cache of generated code, the arc memo, and eviction from the bounded caches.

Generated modules are compiled as factories that take the module's float
literals as arguments, kept on the structure of the nets that run them, and
each net calls them with its own literals.  Every function built so must be
the code a fresh compile() of the module's real text gives, instruction for
instruction, with each literal it reads from a cell equal bit for bit to the
constant the fresh code loads.  A net whose structure is cached derives its
literals without emitting code; its functions must equal those a fresh
emission from its own weights compiles, in the same way.
"""

import contextlib
import dis
import functools
import gc
import math
import operator
import struct
import sys
import threading
import weakref
from dataclasses import replace
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
from qpn.expr import Add, Constant, Divide, MarkRef, Multiply, evaluate, format_expr, parse
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
        return ("code", value.co_name, value.co_varnames, _instructions(value, {}))
    if isinstance(value, tuple):
        return tuple(_key(v) for v in value)
    return value


_JUMPS = frozenset(dis.hasjrel + dis.hasjabs)
_NONFINITE = "_nonfinite_"  # a non-finite literal's name in a fresh compile's text, followed by its bits in hex


def _instructions(code, cells):
    """code's instructions as (name, argument), the same for a function built from a factory and a fresh compile.

    A read of a cell that cells maps to its value, or of a global that
    _literal_source names, is the load of that constant; RETURN_CONST is a
    load and RETURN_VALUE; the closure's COPY_FREE_VARS and EXTENDED_ARG are
    skipped, so jumps and the exception table name their targets by index.  Arguments are compared by argval,
    not arg: the compiler shares one co_consts slot among equal literals.
    """
    out, at, jumps = [], {}, []
    for ins in dis.get_instructions(code):
        at[ins.offset] = len(out)
        if ins.opname in ("COPY_FREE_VARS", "EXTENDED_ARG"):
            continue
        if ins.opname == "LOAD_DEREF" and ins.argval in cells:
            out.append(("LOAD_CONST", _key(cells[ins.argval])))
        elif ins.opname == "LOAD_GLOBAL" and ins.argval.startswith(_NONFINITE):
            value = struct.unpack("<d", bytes.fromhex(ins.argval[len(_NONFINITE):]))[0]
            out.append(("LOAD_CONST", _key(value)))
        elif ins.opname == "RETURN_CONST":
            out += [("LOAD_CONST", _key(ins.argval)), ("RETURN_VALUE", None)]
        else:
            if ins.opcode in _JUMPS:
                jumps.append(len(out))
            out.append((ins.opname, _key(ins.argval)))
    at[len(code.co_code)] = len(out)
    for i in jumps:
        out[i] = (out[i][0], at[out[i][1]])
    table = getattr(dis.Bytecode(code), "exception_entries", ())  # Python 3.11 on
    return out, [(at[e.start], at[e.end], at[e.target], e.depth, e.lasti) for e in table]


def _function_key(fn):
    """A generated function's code, with the literals it reads from its cells taken as constants."""
    code = fn.__code__
    cells = dict(zip(code.co_freevars, [cell.cell_contents for cell in fn.__closure__ or ()]))
    return code.co_name, code.co_varnames, _instructions(code, cells)


def _literal_source(value):
    """A literal as a fresh compile reads it as one constant: its repr, or a name for a non-finite value.

    The repr inf would be a plain global, and text such as 1e999 a constant
    the compiler folds with its neighbours, as in 1.0/(1e999-1e999).
    """
    return repr(value) if math.isfinite(value) else f"{_NONFINITE}{struct.pack('<d', value).hex()}"


def _literal_text(text, literals):
    """A module's real text: each literal (see _literal_source) between consecutive parts of text."""
    return "".join(part + _literal_source(value) for part, value in zip(text, literals)) + text[-1]


def _real_text(source):
    """The real text of emitted source, whose literals expr.LITERAL delimits."""
    parts = source.split(expr_module.LITERAL)
    return _literal_text(parts[::2], [float(text) for text in parts[1::2]])


def _fresh(source):
    """The functions a fresh compile of a module's real text defines, by name."""
    namespace = {}
    exec(compile(source, "<string>", "exec"), namespace)  # noqa: S102 - generated source under test
    return {name: fn for name, fn in namespace.items() if name.startswith("_f")}


@contextlib.contextmanager
def _checking(counts):
    """An empty structure cache, and every module built checked against a fresh compile of its real text.

    Every module passes through _CompiledNet._exec: the enabling tests and
    steps, of a structure hit too, the loops, the successors and the code of
    _define.  Its text is the one recorded when net._factory compiled its
    factory.  Counts the factories compiled, the modules checked and the
    hits: those built from a factory an earlier module was built from.
    """
    compile_, build = net_module._factory, net_module._CompiledNet._exec
    texts = {}  # id(factory) -> the factory, kept alive so that its id names it alone, and its text
    built_from = set()  # the ids of the factories modules were built from

    def factory(text, slots):
        code = compile_(text, slots)
        texts[id(code)] = code, text, slots
        counts["compiled"] += 1
        return code

    def exec_(cnet, code, literals, **extra):
        built = build(cnet, code, literals, **extra)
        _, text, slots = texts[id(code)]
        fresh = _fresh(_literal_text(text, [literals[slot] for slot in slots]))
        assert [fn.__name__ for fn in built] == list(fresh)
        assert [_function_key(fn) for fn in built] == [_function_key(fn) for fn in fresh.values()]
        counts["modules"] += 1
        counts["hits"] += id(code) in built_from
        built_from.add(id(code))
        return built

    with mock.patch.object(net_module, "_STRUCTURES", {}), mock.patch.object(net_module, "_factory", factory), \
            mock.patch.object(net_module._CompiledNet, "_exec", exec_):
        yield counts


@pytest.fixture
def checked():
    with _checking({"compiled": 0, "modules": 0, "hits": 0}) as counts:
        yield counts


def _exercise(net, max_steps=5000):
    """Build every module of a net: tests and steps, loops and the Born code."""
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
    """Grid cells of one mode share their structure's code, loops included, and differ in their literals."""
    build = slaz_passing_net if mode == "passing" else slaz_blocking_net
    built = []
    # the first net's period turns hot in run_final (passing) or only in run
    # (blocking), which enters the same loop; the others call its factory
    # with their literals
    for n, m in ((47, 23), (48, 24), (33, 21)):
        net, _ = build(ProtocolParams(N=n, M=m))
        cnet = _exercise(net, max_steps=10**6)
        built.append(len(cnet.loops))
    assert built == [1, 1, 1]
    # the tests, steps, Born code and loops of three nets, and the first net's loop before its bridge
    assert checked["modules"] == 13
    assert checked["compiled"] == 4 + 3  # the structure's tests, steps, loop and loop with its bridge; Born code
    assert checked["hits"] == 6  # the tests, the steps and the loops of the last two nets


def test_patched_code_equals_a_fresh_compile_for_successors_and_predicates(checked):
    """The BFS successor function and the generated predicates build like any module;
    two product nets of one structure share the successors module, and each predicate is compiled."""
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
    # two structures, each compiling its tests, steps and successors once; nine predicates
    assert checked["compiled"] == 2 * 3 + 9
    assert checked["hits"] == 3  # the second product net: its tests, steps and successors


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
    # a function-scoped fixture would not be reset between hypothesis examples
    with _checking({"compiled": 0, "modules": 0, "hits": 0}) as counts:
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
    """Constant squares, and the sum of the leading run of them, are literals computed at
    generation, which the Born code reads from its cells like any other, and it gives each
    transition's squared output weights summed in arc order."""
    net = netfile.load(text).net
    cnet = net.compiled()
    m0 = net.initial_marking()
    texts, factory = [], net_module._factory
    monkeypatch.setattr(net_module, "_factory", lambda text, slots: texts.append(text) or factory(text, slots))
    weights = cnet.born_weights(list(range(len(cnet.trans))), m0)
    (born,) = texts  # the text of the Born module, between its literals
    literals = [cell.cell_contents for fn in cnet._born for cell in fn.__closure__ or ()]
    assert len(born) - 1 == len(literals) > 0
    assert all(type(literal) is float for literal in literals)
    env = dict(zip(net.place_ids(), m0))
    for tid, got in zip(net.transition_ids(), weights):
        # added in arc order: sum() compensates its rounding from Python 3.12 on
        squares = [w * w for w in (evaluate(a.weight, env) for a in net.output_arcs(tid))]
        expected = functools.reduce(operator.add, squares, 0.0)
        assert struct.pack("d", got) == struct.pack("d", expected)


def test_folded_literals_compile_the_real_text(monkeypatch):
    """fold_constants keeps 1/0, whose operands reach the code as the factory's arguments;
    the run raises the reference error as before."""
    monkeypatch.setattr(net_module, "_STRUCTURES", {})
    net = PetriNet("div", [PlaceDecl("p", A, 1.0), PlaceDecl("out", A)], ["t"],
                   [Arc("p", "t", "1/0"), Arc("t", "out", "1")])
    with pytest.raises(DivisionByZeroError, match=r"arc p->t w=1/0: division by zero in 1/0"):
        is_enabled(net, net.initial_marking(), "t")


def test_cells_of_one_structure_share_their_code_and_differ_in_their_literals(monkeypatch):
    """Each enabling test, step and loop of two grid cells of one structure is the very same code
    object, run in each net's own namespace on each net's literals."""
    monkeypatch.setattr(net_module, "_STRUCTURES", {})
    functions = []
    for n, m in ((47, 23), (48, 24)):
        net = slaz_passing_net(ProtocolParams(N=n, M=m))[0]
        run_final(net, net.initial_marking(), RunConfig())
        run(net, net.initial_marking(), RunConfig())
        cnet = net.compiled()
        assert len(cnet.loops) == 1
        functions.append([fn for ct in cnet.trans for fn in (ct.enabled, ct.step)]
                         + [loop.run for loop in cnet.loops.values()])
    cells = lambda fn: [cell.cell_contents for cell in fn.__closure__ or ()]  # noqa: E731
    pairs = list(zip(*functions))
    assert len(pairs) == len(functions[0]) == len(functions[1])
    assert all(a.__code__ is b.__code__ and a.__globals__ is not b.__globals__ for a, b in pairs)
    assert all(len(cells(a)) == len(cells(b)) for a, b in pairs)
    assert any(cells(a) != cells(b) for a, b in pairs)


def test_a_weight_the_compiler_would_fold_builds_through_its_factory(monkeypatch):
    """1/0 compiles like any other weight: once per structure, never as its own text, and a net of its
    structure calls the same code with its own operands."""
    monkeypatch.setattr(net_module, "_STRUCTURES", {})
    sources = []
    monkeypatch.setattr(net_module, "compile", lambda source, *args: sources.append(source) or compile(source, *args),
                        raising=False)
    built = []
    for numerator in (1.0, 2.0):
        net = PetriNet("div", [PlaceDecl("p", A, 1.0), PlaceDecl("out", A)], ["t"],
                       [Arc("p", "t", Divide(Constant(numerator), Constant(0.0))), Arc("t", "out", "1")])
        ct = net.compiled().trans[0]
        text = f"{numerator:g}/0"
        with pytest.raises(DivisionByZeroError, match=rf"^arc p->t w={text}: division by zero in {text}$"):
            is_enabled(net, net.initial_marking(), "t")
        built.append(ct)
    assert len(sources) == 2 and all(source.startswith("def _make(_k0, _k1") for source in sources)
    first, second = built
    assert first.enabled.__code__ is second.enabled.__code__ and first.step.__code__ is second.step.__code__
    assert [cell.cell_contents for cell in second.enabled.__closure__] == [2.0, 0.0]


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
    """Every enabling test and step, and the BFS successors, equal the code a fresh emission from the
    net's own weights compiles, instruction for instruction, with the literals they read from their
    cells compared by their bits with the constants of the fresh code."""
    sources = (net_module._source("m", [[f"    return {test}"] for test in cnet._tests]),
               net_module._source("m, flags", [cnet._step(ti) for ti in range(len(cnet.trans))]),
               net_module._source("state", [cnet._successors()]))
    tests, steps, successors = (_fresh(_real_text(source)) for source in sources)
    for ti, ct in enumerate(cnet.trans):
        assert _function_key(ct.enabled) == _function_key(tests[f"_f{ti}"])
        assert _function_key(ct.step) == _function_key(steps[f"_f{ti}"])
    assert _function_key(cnet.successors()) == _function_key(successors["_f0"])


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
    """1/0 and 2/-0 fold to no constant and share a structure; the hit passes its own
    operands to the factory, and raises naming its own arc."""
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
    """Two consumes from one place whose constant sum overflows emit an inf threshold as a literal like
    any other: nets whose sums overflow and nets whose sums stay finite share one structure."""
    monkeypatch.setattr(net_module, "_STRUCTURES", {})

    def net(a, b):
        return PetriNet("sum", [PlaceDecl("p", A, 1e308)], ["t"], [Arc("p", "t", Constant(a)), Arc("p", "t", Constant(b))])

    for a, b, hit in ((1e308, 1e307, False), (1e300, 2e300, True), (1e308, 1e308, True), (1.5e308, 1e308, True),
                      (1e300, 1e300, True)):
        cnet, built_from_structure = _compiled(net(a, b))
        assert built_from_structure == hit
        _assert_emitted_as_fresh(cnet)
        assert cnet.enabled(0, [1e308]) == (1e308 >= a + b - 1e-12)
    assert len(net_module._STRUCTURES) == 1


def test_nets_with_a_nan_constant_share_one_structure(monkeypatch):
    """A NaN constant is a hole like any other: nets that each hold their own NaN object key alike,
    and each raises the reference error for its weight."""
    monkeypatch.setattr(net_module, "_STRUCTURES", {})
    for hit in (False, True, True):
        weight = Multiply(MarkRef("p"), Constant(float("nan")))
        net = PetriNet("nan", [PlaceDecl("p", A, 1.0), PlaceDecl("out", A)], ["t"], [Arc("p", "t", weight), Arc("t", "out", "1")])
        cnet, built_from_structure = _compiled(net)
        assert built_from_structure == hit
        _assert_emitted_as_fresh(cnet)
        with pytest.raises(QpnError, match=r"^arc p->t w=m\(p\)\*nan: "):
            cnet.enabled(0, [1.0, 0.0])
    assert len(net_module._STRUCTURES) == 1


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


def _product(weights):
    """An integer product net: source s<i> fires a<i> into x<i> with weight c or b<i> into y<i> with weight d."""
    places, transitions, arcs = [], [], []
    for i, (c, d) in enumerate(weights):
        places += [PlaceDecl(f"s{i}", C, 1), PlaceDecl(f"x{i}", C), PlaceDecl(f"y{i}", C)]
        transitions += [f"a{i}", f"b{i}"]
        arcs += [Arc(f"s{i}", f"a{i}"), Arc(f"a{i}", f"x{i}", str(c)),
                 Arc(f"s{i}", f"b{i}"), Arc(f"b{i}", f"y{i}", str(d))]
    return PetriNet("product", places, transitions, arcs)


def _graph(net):
    """The reachability graph of an integer net: its nodes, parents, quiescent nodes and edges."""
    from qpn.analysis import reachability_graph

    graph = reachability_graph(net)
    return graph.nodes, graph.parents, graph.quiescent, graph.edges


def test_nets_of_one_structure_share_their_successors(monkeypatch):
    """Two product nets of one structure, their weights c and d swapped, search with one successors module:
    the second emits none, and each graph equals the graph of a build from an empty structure cache."""
    weights = [(1, 2), (3, 1), (2, 3), (2, 2)]
    builds = [lambda: _product(weights), lambda: _product([(d, c) for c, d in weights])]
    cold = []
    for build in builds:
        with mock.patch.object(net_module, "_STRUCTURES", {}):
            cold.append(_graph(build()))
    monkeypatch.setattr(net_module, "_STRUCTURES", {})
    emitted, emit = [], net_module._CompiledNet._successors
    monkeypatch.setattr(net_module._CompiledNet, "_successors", lambda cnet: emitted.append(cnet) or emit(cnet))
    nets = [build() for build in builds]
    assert [_graph(net) for net in nets] == cold and cold[0] != cold[1] and len(cold[0][0]) == 3**4
    assert len(emitted) == 1 and emitted[0].net is nets[0]
    assert len(net_module._STRUCTURES) == 1


def test_threads_that_search_nets_of_one_structure_at_once_get_correct_graphs(monkeypatch):
    """Threads search product nets of one structure while its successors are first emitted: every graph
    equals the graph of its net on a cache of its own."""
    cells = [[(1 + (i + j) % 3, 1 + (i * j) % 3) for j in range(4)] for i in range(6)]
    expected = {}
    for i, weights in enumerate(cells):
        with mock.patch.object(net_module, "_STRUCTURES", {}):
            expected[i] = _graph(_product(weights))
    monkeypatch.setattr(net_module, "_STRUCTURES", {})
    got, errors = [], []

    def work(i):
        try:
            got.append((i, _graph(_product(cells[i]))))
        except Exception as e:  # noqa: BLE001 - any failure in a worker fails the test
            errors.append(e)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cells))]
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
    assert len(got) == len(cells) and all(graph == expected[i] for i, graph in got)
    assert len(net_module._STRUCTURES) == 1


def test_structure_cache_is_bounded(monkeypatch):
    """Nets with ever more places have ever new structures."""
    monkeypatch.setattr(net_module, "_STRUCTURES", {})
    for k in range(net_module._STRUCTURES_MAX + 10):
        places = [PlaceDecl(f"p{i}", C, 1) for i in range(k + 1)]
        PetriNet("wide", places, ["t"], [Arc(f"p{k}", "t", "2.5")]).compiled()
        assert len(net_module._STRUCTURES) <= net_module._STRUCTURES_MAX
    assert len(net_module._STRUCTURES) == net_module._STRUCTURES_MAX


def test_arcs_are_memoized_per_arc(monkeypatch):
    """An arc is normalized and folded once while its entry lives, keyed by its weight text: the entry holds
    what a fresh fold gives, and a faulting subtree stays unfolded.  An arc whose weight is a tree builds the
    same entry afresh each time and is not kept."""
    monkeypatch.setattr(net_module, "_ARCS", {})
    folds = []
    fold = expr_module.fold_constants
    monkeypatch.setattr(expr_module, "fold_constants", lambda tree: folds.append(tree) or fold(tree))
    places = [PlaceDecl("a", A, 1.0), PlaceDecl("b", C, 1)]
    for text in ("cos(pi/(2*2500))*m(a)", "1/0", "m(a)+1/0*2", "2*3", "m(a)*-0", "1/(1e308*10)", "m(a)", "0.25"):
        (entry,) = PetriNet("one", places, ["t"], [Arc("t", "a", text)])._entries
        assert PetriNet("one", places, ["t"], [Arc("t", "a", text)])._entries[0] is entry
        assert folds == [parse(text)]
        del folds[:]
        tree = parse(text)
        trees = [PetriNet("one", places, ["t"], [Arc("t", "a", tree)])._entries[0] for _ in range(2)]
        assert folds == [tree, tree] and trees[0] is not trees[1]
        del folds[:]
        folded, consts = fold(tree), []
        value = folded.value if type(folded) is Constant and math.isfinite(folded.value) else None
        shapes = ([net_module._skeleton(folded, consts)] * 2 if value is None
                  else [net_module._class(value, least) for least in (0.0, 0.5)])
        fresh = ("a", "t", expr_module.free_places(tree), (folded, value),
                 (value,) if value is not None else tuple(consts), tuple(("t", "a", "deposit", shape) for shape in shapes))
        assert repr(entry[1:]) == repr(trees[0][1:]) == repr(trees[1][1:]) == repr(fresh)
    assert net_module._ARCS[("t", "a", None, "1/0")].folded == (Divide(Constant(1.0), Constant(0.0)), None)
    assert all(type(key[3]) is str for key in net_module._ARCS) and len(net_module._ARCS) == 8


def test_arc_memo_is_bounded(monkeypatch):
    """Nets with ever new weights have ever new arcs."""
    monkeypatch.setattr(net_module, "_ARCS", {})
    for k in range(net_module._ARCS_MAX + 10):
        PetriNet("wide", [PlaceDecl("p", C, 1)], ["t"], [Arc("p", "t", f"{k}.5")])
        assert len(net_module._ARCS) <= net_module._ARCS_MAX
    assert len(net_module._ARCS) == net_module._ARCS_MAX


def _assert_built_as_cold(build, fresh=True, hits=None):
    """A net built through an arc memo that a first build warmed equals the net built with the memo
    cleared: its arcs, its structure key and constants, and, if fresh, its compiled code equals a fresh
    emission.

    Each arc of the second build is a hit, or, where hits is given, exactly the arcs it marks.
    """
    with mock.patch.object(net_module, "_ARCS", {}):
        cold = build()
    with mock.patch.object(net_module, "_ARCS", {}):  # a full memo could evict first's entries
        first, warm = build(), build()
    hit = [a is b for a, b in zip(warm._entries, first._entries)]
    assert hit == (hits if hits is not None else [True] * len(hit))
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
    """Each weight is given as its format_expr text; one with a non-finite constant, which no text
    holds, stays a tree and is built afresh."""
    for net in nets:
        weights = []
        for arc in net.arcs:
            text = format_expr(arc.weight)
            weights.append(text if "inf" not in text and "nan" not in text else arc.weight)
        arcs = [replace(arc, weight=weight) for arc, weight in zip(net.arcs, weights)]
        _assert_built_as_cold(lambda: PetriNet(net.name, net.places, net.transitions, arcs),
                              hits=[type(weight) is str for weight in weights])


# --- loops cached on the structure ------------------------------------------------------


def _emissions(counts, bridged=True):
    """Patch _CompiledNet._emit_loop so that each emission of a loop appends its flag states to counts; with
    bridged false, only each emission of a loop without a bridge."""
    emit = net_module._CompiledNet._emit_loop

    def counted(cnet, period, induction):
        if bridged or not period.bridge:
            counts.append(period.states)
        return emit(cnet, period, induction)

    return mock.patch.object(net_module._CompiledNet, "_emit_loop", counted)


def _loop_key(cnet, loop):
    """A loop's code with its trip count's, instruction for instruction with literals by their bits, the plan it
    is specialized on, and the ordinals of its period: the first enabled transition of each state in priority
    order."""
    scope = loop.run.__globals__
    fired = [next(t for t in cnet.order if state[t]) for state in loop.states]
    return _function_key(loop.run), _function_key(scope["_f1"]), scope["_plan"], fired


def _assert_loops_as_fresh(cnet):
    """Every loop of the net equals the loop it builds once its structure's loop code is dropped: a fresh emission."""
    for head, loop in list(cnet.loops.items()):
        with mock.patch.dict(cnet._entry.loops, clear=True), mock.patch.dict(cnet.loops):
            assert _loop_key(cnet, loop) == _loop_key(cnet, cnet.looped(head))


@pytest.mark.parametrize("build", [slaz_passing_net, slaz_blocking_net], ids=["passing", "blocking"])
def test_patched_loops_equal_a_fresh_compile_on_grid_shapes(checked, build):
    """Cells of one structure call the factories of the first cell's loops with their literals and
    trip plans; every loop is checked against a fresh compile of its real text as it is built."""
    patched = 0
    for n, m in ((47, 23), (12, 5), (320, 25), (7, 3), (321, 25), (33, 21)):
        net = build(ProtocolParams(N=n, M=m))[0]
        m0, emitted = net.initial_marking(), []
        with _emissions(emitted):
            final = run_final(net, m0, RunConfig())
            trace = run(net, m0, RunConfig())
        cnet = net.compiled()
        assert final.marking == trace.final
        patched += bool(cnet.loops) and not emitted
        _assert_loops_as_fresh(cnet)
    assert len(net_module._STRUCTURES) == 1
    assert patched >= 5 and checked["hits"] >= patched  # every cell after the first patches its loop


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
    """A net of a cached structure emits a loop afresh only where its set of induction counters differs.

    Equal or different thresholds, and counter moves of other integers, take
    the cached loop; half-integer moves, which leave c no induction counter,
    emit once, and their sibling takes that loop.  Sibling nets share one
    _LoopCode object.
    """
    monkeypatch.setattr(net_module, "_STRUCTURES", {})
    monkeypatch.setattr(net_module, "_CHUNK", 8)
    install, installed = net_module._CompiledNet._install, []

    def recorded(cnet, code, *args):
        installed.append(code)
        return install(cnet, code, *args)

    monkeypatch.setattr(net_module._CompiledNet, "_install", recorded)
    # c never reaches the thresholds, so the run keeps to one period
    cases = [((2000.0, 2000.0, 1.0, 2.0), 1), ((2000.0, 2010.0, 1.0, 2.0), 0), ((2500.0, 2500.0, 2.0, 1.0), 0),
             ((2050.0, 2070.0, 3.0, 1.0), 0), ((2000.0, 2000.0, 0.5, 1.5), 1), ((2700.0, 2700.0, 1.5, 0.5), 0)]
    codes = []  # the code each net's loop was installed from
    for constants, emissions in cases:
        net, emitted = _guarded_ring(*constants), []
        del installed[:]
        with _emissions(emitted):
            final = run_final(net, net.initial_marking(), RunConfig())
        codes += installed
        cnet = net.compiled()
        assert (len(emitted), len(cnet.loops)) == (emissions, 1), constants
        assert sum(loop.firings for loop in cnet.loops.values()) > 600
        _assert_loops_as_fresh(cnet)
        assert final.marking[net.place_index["c"]] == 300 * (constants[2] + constants[3])
    assert len(net_module._STRUCTURES) == 1
    integral, halves = codes[0], codes[4]
    assert len(codes) == 6 and integral is not halves
    assert all(code is integral for code in codes[:4]) and codes[5] is halves
    entry = next(iter(net_module._STRUCTURES.values()))
    assert [id(code) for code in entry.loops.values()] == [id(integral), id(halves)]


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
    assert net.compiled().loops and emitted == []
    gone = weakref.ref(net)
    del net
    gc.collect()
    assert gone() is None


def test_threads_that_meet_one_hot_head_each_get_a_correct_loop(monkeypatch):
    """Threads build the plain loop of one hot period at once, on their own nets and on a shared one, record
    its bridge and build the loop again with it: every run equals a run of the same net on a cache of its
    own, bit for bit."""
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
    run(warm, warm.initial_marking(), RunConfig())  # the period turns hot and its loop is built
    for entry in net_module._STRUCTURES.values():  # drop the loop's code and bridge, so that the threads make them
        entry.loops.clear()
        entry.hot.update([(head, replace(period, bridge=())) for head, period in entry.hot.items()])
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
    assert shared.compiled().loops and all(loop.bridge for loop in shared.compiled().loops.values())


# --- eviction from a full cache ------------------------------------------------------


class _Racing(dict):
    """A dict whose iterator drops each key it yields, as a thread that evicted it first."""

    def __iter__(self):
        for key in list(super().__iter__()):
            self.pop(key, None)
            yield key


def test_structure_eviction_tolerates_a_racing_eviction(monkeypatch):
    full = _Racing((("structure", i), None) for i in range(net_module._STRUCTURES_MAX))
    monkeypatch.setattr(net_module, "_STRUCTURES", full)
    net = PetriNet("one", [PlaceDecl("p", C, 1)], ["t"], [Arc("p", "t", "1")])
    assert is_enabled(net, net.initial_marking(), "t")
    assert len(full) <= net_module._STRUCTURES_MAX


def test_caches_keep_their_bounds_under_threads(monkeypatch):
    """Threads inserting into full caches at once raise nothing and keep the bounds."""
    for name in ("_STRUCTURES", "_ARCS"):
        monkeypatch.setattr(net_module, name, {})
        monkeypatch.setattr(net_module, f"{name}_MAX", 4)
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
    assert len(net_module._STRUCTURES) <= 4 and len(net_module._ARCS) <= 4
