"""The .qpn format: golden files, round trips, error positions."""

from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpn.expr as expr_module
import qpn.net as net_module
import qpn.netfile as netfile_module
from qpn.errors import (
    DuplicateIdError,
    InvalidInitialMarkingError,
    NetFileError,
    NetFileSyntaxError,
    UndeclaredReferenceError,
)
from qpn.models import (
    ProtocolParams,
    entanglement_net,
    measurement_net,
    slaz_blocking_net,
    slaz_passing_net,
    zeno_net,
)
from qpn.net import Arc, ArcKind, PetriNet, PlaceDecl, PlaceKind, Policy, TransitionDecl
from qpn.netfile import ConfigOverrides, NetDocument, load, save
from qpn.quantum import QuantumMapping

GOLDEN = Path(__file__).parent / "golden"


def _builder_docs():
    net, mapping = measurement_net()
    yield "measurement.qpn", NetDocument(net=net, mapping=mapping)
    yield "entanglement.qpn", NetDocument(net=entanglement_net())
    znet, zmap = zeno_net(ProtocolParams(N=4))
    yield "zeno_n4.qpn", NetDocument(net=znet, mapping=zmap)
    bnet, bmap = slaz_blocking_net(ProtocolParams(N=2, M=2))
    yield "blocking_n2_m2.qpn", NetDocument(net=bnet, mapping=bmap)
    pnet, pmap = slaz_passing_net(ProtocolParams(N=2, M=2))
    yield "passing_n2_m2.qpn", NetDocument(net=pnet, mapping=pmap)


class TestGoldenFiles:
    @pytest.mark.parametrize("filename,doc", list(_builder_docs()))
    def test_load_matches_builder(self, filename, doc):
        loaded = load((GOLDEN / filename).read_text())
        assert loaded.net == doc.net
        assert loaded.mapping == doc.mapping

    @pytest.mark.parametrize("filename,doc", list(_builder_docs()))
    def test_save_matches_golden_text(self, filename, doc):
        assert save(doc) == (GOLDEN / filename).read_text()

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.qpn")), ids=lambda path: path.stem)
    def test_warm_load_normalizes_no_arc(self, path):
        """A load validates each arc once, in PetriNet: a second load hits the arc memo and normalizes none."""
        text = path.read_text()
        first, calls, normalize = load(text), [], net_module._normalize_arc

        def counted(*args):
            calls.append(args)
            return normalize(*args)

        with mock.patch.object(net_module, "_normalize_arc", counted), \
                mock.patch.object(netfile_module, "_normalize_arc", counted):
            assert load(text).net == first.net
        assert calls == []

    def test_load_parses_each_weight_once(self):
        """load parses each of the 57 weights of blocking_n60_m60.qpn once, for the line of its error, and an
        arc memo miss takes that tree, with the memo cleared or warm."""
        text, texts, parse = (GOLDEN / "blocking_n60_m60.qpn").read_text(), [], expr_module.parse
        with mock.patch.object(net_module, "_ARCS", {}), \
                mock.patch.object(expr_module, "parse", lambda source: texts.append(source) or parse(source)):
            cold = load(text)
            assert len(texts) == len(cold.net.arcs) == 57
            del texts[:]
            assert load(text).net == cold.net
            assert len(texts) == 57

    def test_mapped_entanglement_golden(self):
        doc = load((GOLDEN / "entanglement_mapped.qpn").read_text())
        assert doc.net == entanglement_net()
        assert doc.mapping.places() == ["p3", "p5", "p4", "p6"]


class TestRoundTrip:
    def test_idempotent_save(self):
        for _, doc in _builder_docs():
            text = save(doc)
            assert save(load(text)) == text

    def test_whitespace_perturbation_normalizes(self):
        text = (GOLDEN / "measurement.qpn").read_text()
        noisy = "\n\n".join("   " + line + "   # trailing comment" for line in text.splitlines())
        assert save(load(noisy)) == text

    def test_config_round_trip(self):
        net, mapping = measurement_net()
        doc = NetDocument(
            net=net,
            mapping=mapping,
            config=ConfigOverrides(max_steps=500, policy=Policy.BORN_RANDOM, seed=77),
        )
        text = save(doc)
        assert "config max_steps=500 policy=born seed=77" in text
        loaded = load(text)
        assert loaded.config == doc.config

    def test_partial_config(self):
        text = "net x\nplace p1 init=1 kind=counter\nconfig seed=9\n"
        doc = load(text)
        assert doc.config == ConfigOverrides(max_steps=None, policy=None, seed=9)
        assert save(doc).endswith("config seed=9\n")

    def test_label_escaping(self):
        net = PetriNet("esc", [PlaceDecl("p1", PlaceKind.AMPLITUDE)], ["t1"], [])
        mapping = QuantumMapping(assignments=(("p1", 'say "hi" \\ bye'),))
        doc = NetDocument(net=net, mapping=mapping)
        assert load(save(doc)).mapping == mapping


class TestErrors:
    def test_empty_file(self):
        with pytest.raises(NetFileSyntaxError):
            load("")

    def test_missing_header(self):
        with pytest.raises(NetFileSyntaxError) as err:
            load("place p1 init=0 kind=counter\n")
        assert err.value.line == 1

    def test_undeclared_arc_endpoint_line(self):
        text = "net x\nplace p1 init=1 kind=counter\ntrans t1\narc p1 -> t9 w=\"1\"\n"
        with pytest.raises(UndeclaredReferenceError) as err:
            load(text)
        assert err.value.line == 4

    def test_undeclared_weight_reference(self):
        text = 'net x\nplace p1 init=1 kind=counter\ntrans t1\narc p1 -> t1 w="m(p9)"\n'
        with pytest.raises(UndeclaredReferenceError) as err:
            load(text)
        assert err.value.line == 4

    def test_duplicate_place(self):
        text = "net x\nplace p1 init=0 kind=counter\nplace p1 init=1 kind=counter\n"
        with pytest.raises(DuplicateIdError) as err:
            load(text)
        assert err.value.line == 3

    def test_place_transition_id_overlap(self):
        with pytest.raises(DuplicateIdError):
            load("net x\nplace a init=0 kind=counter\ntrans a\n")

    def test_invalid_counter_initial(self):
        with pytest.raises(InvalidInitialMarkingError) as err:
            load("net x\nplace p1 init=0.5 kind=counter\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("kind", ["amplitude", "counter"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_initial(self, kind, value):
        with pytest.raises(NetFileSyntaxError) as err:
            load(f"net x\nplace a init={value} kind={kind}\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("value", ["inf", "1e999"])
    def test_non_finite_k(self, value):
        with pytest.raises(NetFileSyntaxError) as err:
            load(f"net x\nplace a init=1 kind=amplitude\nk = {value}\n")
        assert err.value.line == 3

    def test_bad_weight_expression(self):
        text = 'net x\nplace p1 init=1 kind=counter\ntrans t1\narc p1 -> t1 w="1++"\n'
        with pytest.raises(NetFileSyntaxError) as err:
            load(text)
        assert err.value.line == 4

    def test_unknown_statement(self):
        with pytest.raises(NetFileSyntaxError) as err:
            load("net x\nfrobnicate p1\n")
        assert err.value.line == 2

    def test_unterminated_quote(self):
        with pytest.raises(NetFileSyntaxError):
            load('net x\nplace p1 init=0 kind=counter\ntrans t1\narc p1 -> t1 w="1\n')

    def test_duplicate_k(self):
        with pytest.raises(DuplicateIdError):
            load("net x\nk = 1\nk = 2\n")

    def test_map_undeclared_place(self):
        with pytest.raises(UndeclaredReferenceError) as err:
            load('net x\nplace p1 init=0 kind=counter\nmap p9 = "a"\n')
        assert err.value.line == 3

    def test_duplicate_map_label(self):
        text = (
            "net x\nplace p1 init=0 kind=counter\nplace p2 init=0 kind=counter\n"
            'map p1 = "a"\nmap p2 = "a"\n'
        )
        with pytest.raises(DuplicateIdError) as err:
            load(text)
        assert err.value.line == 5

    def test_unknown_attribute(self):
        with pytest.raises(NetFileSyntaxError):
            load("net x\nplace p1 init=0 kind=counter speed=9\n")

    def test_comment_only_inside_quotes_kept(self):
        doc = load('net x\nplace p1 init=0 kind=amplitude\nmap p1 = "a#b"  # real comment\n')
        assert doc.mapping.assignments == (("p1", "a#b"),)

    @pytest.mark.parametrize(
        "arc, message",
        [
            ('arc a -> t w="2" kind=drain', "drain arc a->t must have weight m(a)"),
            ("arc t -> a kind=guard", "output arc t->a must be a deposit, got guard"),
            ("arc a -> b", "arc a->b does not connect a declared place and transition"),
        ],
    )
    def test_arc_definition_error_line(self, arc, message):
        text = f"net x\nplace a init=1 kind=counter\nplace b init=0 kind=counter\ntrans t\n{arc}\n"
        with pytest.raises(NetFileSyntaxError) as err:
            load(text)
        assert err.value.line == 5
        assert str(err.value) == f"line 5: {message}"

    def test_corruptions_reported_at_their_line(self):
        """Appending a junk token to any statement names exactly that line."""
        text = (GOLDEN / "measurement.qpn").read_text()
        lines = text.splitlines()
        for target in range(len(lines)):
            corrupted = list(lines)
            corrupted[target] += " @!"
            with pytest.raises(NetFileError) as err:
                load("\n".join(corrupted) + "\n")
            assert err.value.line == target + 1, lines[target]


# --- generated round trips ---------------------------------------------------------

_IDENTS = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)
_WEIGHTS = st.sampled_from(
    ["1", "2", "0.5", "m(%s)", "cos(pi/(2*3))*m(%s)", "m(%s)-m(%s)", "1e-28", "sqrt(2)"]
)


@st.composite
def _documents(draw):
    n_places = draw(st.integers(min_value=1, max_value=5))
    place_ids = [f"p{i}" for i in range(n_places)]
    places = []
    for pid in place_ids:
        kind = draw(st.sampled_from(list(PlaceKind)))
        if kind == PlaceKind.COUNTER:
            initial = float(draw(st.integers(min_value=0, max_value=9)))
        else:
            initial = draw(
                st.floats(min_value=-10, max_value=10, allow_nan=False).map(lambda v: round(v, 4))
            )
        places.append(PlaceDecl(pid, kind, initial))
    n_trans = draw(st.integers(min_value=0, max_value=3))
    transitions = [
        TransitionDecl(f"t{i}", priority=draw(st.integers(min_value=0, max_value=3)))
        for i in range(n_trans)
    ]
    arcs = []
    if n_trans:
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            pid = draw(st.sampled_from(place_ids))
            tid = f"t{draw(st.integers(0, n_trans - 1))}"
            if draw(st.booleans()):
                template = draw(_WEIGHTS)
                weight = template.replace("%s", draw(st.sampled_from(place_ids)), 1).replace(
                    "%s", draw(st.sampled_from(place_ids)), 1
                )
                kind = draw(st.sampled_from([ArcKind.CONSUME, ArcKind.GUARD]))
                arcs.append(Arc(pid, tid, weight, kind))
            else:
                arcs.append(Arc(pid, tid, f"m({pid})", ArcKind.DRAIN))
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            template = draw(_WEIGHTS)
            weight = template.replace("%s", draw(st.sampled_from(place_ids)), 1).replace(
                "%s", draw(st.sampled_from(place_ids)), 1
            )
            arcs.append(Arc(f"t{draw(st.integers(0, n_trans - 1))}", draw(st.sampled_from(place_ids)), weight))
    net = PetriNet(draw(_IDENTS), places, transitions, arcs)
    mapping = None
    if draw(st.booleans()):
        chosen = draw(st.permutations(place_ids))[: draw(st.integers(0, n_places))]
        mapping = QuantumMapping(
            k=draw(st.sampled_from([1.0, 4.0, 1e-28])),
            assignments=tuple((pid, f"L{i}") for i, pid in enumerate(chosen)),
        )
    config = None
    if draw(st.booleans()):
        config = ConfigOverrides(
            max_steps=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=10**6))),
            policy=draw(st.one_of(st.none(), st.sampled_from(list(Policy)))),
            seed=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=2**64 - 1))),
        )
    return NetDocument(net=net, mapping=mapping, config=config)


@settings(max_examples=120, deadline=None)
@given(_documents())
def test_generated_round_trip(doc):
    text = save(doc)
    loaded = load(text)
    assert loaded.net == doc.net
    assert loaded.mapping == doc.mapping
    if doc.config is not None and doc.config.any_set():
        assert loaded.config == doc.config
    else:
        assert loaded.config is None
    assert save(loaded) == text


# --- mutated golden files -------------------------------------------------------------

_TOKENS = (
    "", "net", "place", "trans", "arc", "k", "map", "config", "->", "=", '"', "#", "p1", "t1", "zz",
    "init=", "init=-1", "init=0.5", "init=inf", "init=1e999", "kind=drain", "kind=guard",
    "kind=deposit", "kind=amplitude", "w=", 'w="1/0"', 'w="m(p1)"', 'w="m(', 'w="sqrt(0-1)"',
    "priority=x", "priority=-3", "max_steps=0", "seed=-1", "policy=born", '"e1"', "0", "-1", "nan",
)


@st.composite
def _mutated_golden(draw):
    """A golden file with lines dropped, duplicated or swapped and single tokens edited."""
    name = draw(st.sampled_from(sorted(p.name for p in GOLDEN.glob("*.qpn"))))
    lines = (GOLDEN / name).read_text().splitlines()
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "token"]))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            tokens = lines[i].split(" ")
            j = draw(st.integers(0, len(tokens)))
            new = draw(st.one_of(st.sampled_from(_TOKENS), st.text(max_size=6)))
            if j == len(tokens):
                tokens.append(new)
            else:
                tokens[j] = new
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _loaded(text):
    """The net a load builds, or its error's class, message and line."""
    try:
        return load(text).net
    except NetFileError as e:
        return type(e), str(e), e.line


_WARM = {}  # the arc memo after loading every golden file


@settings(max_examples=200, deadline=None)
@given(_mutated_golden())
def test_load_of_mutated_golden_fails_alike_on_a_cold_and_a_warm_arc_memo(text):
    """A load whose arcs hit the arc memo builds the same net, or raises the same error at the same line, as
    one whose arcs all miss and take the trees load parsed."""
    if not _WARM:
        with mock.patch.object(net_module, "_ARCS", _WARM):
            for path in GOLDEN.glob("*.qpn"):
                load(path.read_text())
    with mock.patch.object(net_module, "_ARCS", {}):
        cold = _loaded(text)
    with mock.patch.object(net_module, "_ARCS", dict(_WARM)):
        assert _loaded(text) == cold


@settings(max_examples=400, deadline=None)
@given(_mutated_golden())
def test_load_of_mutated_golden_raises_only_netfile_errors(text):
    """load either succeeds or raises a NetFileError, whatever the edit."""
    try:
        load(text)
    except NetFileError as e:
        assert e.line is None or e.line >= 1
