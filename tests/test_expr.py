"""Weight-expression language: parsing, evaluation, formatting, and the code a net generates."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpn import expr as expr_module
from qpn.analysis import parse_predicate
from qpn.errors import (
    DivisionByZeroError,
    EvaluationError,
    ExprSyntaxError,
    MalformedNumberError,
    NegativeSqrtError,
    NetDefinitionError,
    NonFiniteResultError,
    UnknownFunctionError,
    UnknownPlaceError,
)
from qpn.expr import (
    Add,
    Constant,
    Cos,
    Divide,
    MarkRef,
    Multiply,
    Negate,
    Pi,
    Power,
    Sin,
    Sqrt,
    Subtract,
    evaluate,
    fold_constants,
    format_expr,
    free_places,
    parse,
)
from qpn.net import Arc, PetriNet, PlaceDecl, PlaceKind, fire


class TestParse:
    def test_inverse_sqrt(self):
        assert parse("1/sqrt(3)") == Divide(Constant(1.0), Sqrt(Constant(3.0)))

    def test_marking_dependent_angle(self):
        tree = parse("cos(pi/(2*m(p9)))*m(p2)")
        assert tree == Multiply(
            Cos(Divide(Pi(), Multiply(Constant(2.0), MarkRef("p9")))), MarkRef("p2")
        )
        assert free_places(tree) == {"p9", "p2"}

    def test_subtraction(self):
        assert parse("m(p9)-2") == Subtract(MarkRef("p9"), Constant(2.0))

    def test_whitespace_insensitive(self):
        assert parse(" m( p9 )\t-  2 ") == parse("m(p9)-2")

    def test_precedence(self):
        assert parse("1+2*3") == Add(Constant(1.0), Multiply(Constant(2.0), Constant(3.0)))
        assert parse("2*3+1") == Add(Multiply(Constant(2.0), Constant(3.0)), Constant(1.0))

    def test_left_associative_subtraction(self):
        assert parse("5-2-1") == Subtract(Subtract(Constant(5.0), Constant(2.0)), Constant(1.0))

    def test_power_right_associative(self):
        assert parse("2^3^2") == Power(Constant(2.0), Power(Constant(3.0), Constant(2.0)))
        assert evaluate(parse("2^3^2"), {}) == 512.0

    def test_unary_minus(self):
        assert parse("-m(p1)") == Negate(MarkRef("p1"))
        assert parse("--2") == Negate(Negate(Constant(2.0)))
        assert parse("2*-3") == Multiply(Constant(2.0), Negate(Constant(3.0)))

    def test_scientific_notation(self):
        assert parse("1e-28") == Constant(1e-28)
        assert parse("1e+14") == Constant(1e14)
        assert parse("2.5E3") == Constant(2500.0)

    def test_no_implicit_multiplication(self):
        with pytest.raises(ExprSyntaxError):
            parse("2m(p9)")

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError):
            parse("tan(1)")

    def test_bare_identifier(self):
        with pytest.raises(ExprSyntaxError):
            parse("cos")
        with pytest.raises(ExprSyntaxError):
            parse("p9")

    def test_malformed_number(self):
        with pytest.raises(MalformedNumberError):
            parse("1.2.3")
        with pytest.raises(MalformedNumberError):
            parse("1e")

    def test_error_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("1 + ")
        assert err.value.line == 1
        assert err.value.column == 5

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse("cos(1")

    def test_empty(self):
        with pytest.raises(ExprSyntaxError):
            parse("")


class TestEvaluate:
    def test_inverse_sqrt_value(self):
        assert evaluate(parse("1/sqrt(3)"), {}) == pytest.approx(0.5773503, abs=1e-6)

    def test_cos_quarter_pi(self):
        assert evaluate(parse("cos(pi/(2*m(p9)))"), {"p9": 2.0}) == pytest.approx(
            0.7071068, abs=1e-6
        )

    def test_mark_read(self):
        assert evaluate(parse("m(p2)"), {"p2": 0.0}) == 0.0

    def test_unknown_place(self):
        with pytest.raises(UnknownPlaceError):
            evaluate(parse("m(p7)"), {"p2": 1.0})

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZeroError):
            evaluate(parse("1/m(p1)"), {"p1": 0.0})

    def test_negative_sqrt(self):
        with pytest.raises(NegativeSqrtError):
            evaluate(parse("sqrt(m(p1))"), {"p1": -1.0})

    def test_overflow(self):
        with pytest.raises(NonFiniteResultError):
            evaluate(parse("1e300*1e300"), {})

    @pytest.mark.parametrize("text", ["cos(1e308*10)", "sin(0-1e308*10)", "(0-2)^0.5"])
    def test_domain_error(self, text):
        with pytest.raises(EvaluationError) as err:
            evaluate(parse(text), {})
        assert type(err.value) is EvaluationError

    def test_reference_precision(self):
        # the weight expressions used by the bundled nets, against direct math
        cases = [
            ("1/sqrt(3)", {}, 1.0 / math.sqrt(3.0)),
            ("cos(pi/(2*m(p9)))*m(p2)", {"p9": 4.0, "p2": 0.5}, math.cos(math.pi / 8) * 0.5),
            ("sin(pi/(2*m(p9)))*m(p2)", {"p9": 4.0, "p2": 0.5}, math.sin(math.pi / 8) * 0.5),
            ("m(p9)-2", {"p9": 7.0}, 5.0),
            (
                "cos(pi/(2*25))*m(p2)-sin(pi/(2*25))*m(p21)",
                {"p2": 0.25, "p21": -0.5},
                math.cos(math.pi / 50) * 0.25 + math.sin(math.pi / 50) * 0.5,
            ),
            ("sin(pi/(2*320))^2*m(p21)^2", {"p21": 3.0}, math.sin(math.pi / 640) ** 2 * 9.0),
        ]
        for text, env, expected in cases:
            assert evaluate(parse(text), env) == pytest.approx(expected, abs=1e-12)

    def test_purity(self):
        tree = parse("cos(m(p1))+m(p2)^2")
        env = {"p1": 0.3, "p2": -1.7}
        assert evaluate(tree, env) == evaluate(tree, env)


class TestFreePlaces:
    def test_collects_references(self):
        assert free_places(parse("cos(pi/(2*m(p9)))*m(p2)")) == {"p9", "p2"}

    def test_constant_has_none(self):
        assert free_places(parse("3.5")) == frozenset()

    def test_set_semantics(self):
        assert free_places(parse("m(p1)+m(p1)")) == {"p1"}


class TestFormat:
    def test_examples(self):
        assert format_expr(parse("1/sqrt(3)")) == "1/sqrt(3)"
        assert format_expr(parse(" m( p9 ) - 2 ")) == "m(p9)-2"
        assert format_expr(parse("-(m(p1))")) == "-m(p1)"

    def test_parenthesization(self):
        assert format_expr(parse("(1+2)*3")) == "(1+2)*3"
        assert format_expr(parse("1+2*3")) == "1+2*3"
        assert format_expr(parse("-(1+2)")) == "-(1+2)"
        assert format_expr(parse("2^(3^2)")) == "2^3^2"
        assert format_expr(parse("(2^3)^2")) == "(2^3)^2"
        assert format_expr(parse("1-(2-3)")) == "1-(2-3)"


# --- property tests -------------------------------------------------------------

_PLACES = ("p1", "p2", "p9", "p21", "q_x")


def _exprs(depth: int = 3):
    leaves = st.one_of(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(
            lambda v: Constant(round(v, 6))
        ),
        st.integers(min_value=0, max_value=99).map(lambda v: Constant(float(v))),
        st.just(Pi()),
        st.sampled_from(_PLACES).map(MarkRef),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: Add(*ab)),
            st.tuples(children, children).map(lambda ab: Subtract(*ab)),
            st.tuples(children, children).map(lambda ab: Multiply(*ab)),
            st.tuples(children, children).map(lambda ab: Divide(*ab)),
            st.tuples(children, children).map(lambda ab: Power(*ab)),
            children.map(Negate),
            children.map(Cos),
            children.map(Sin),
            children.map(Sqrt),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def _fired(tree, env):
    """The value a net's generated code computes for tree over env.

    One transition deposits tree into a place ``out`` that starts at -0.0,
    and x + -0.0 is x for every x.
    """
    places = [PlaceDecl(p, PlaceKind.AMPLITUDE, v) for p, v in env.items()]
    places.append(PlaceDecl("out", PlaceKind.AMPLITUDE, -0.0))
    net = PetriNet("expr", places, ["t"], [Arc("t", "out", tree)])
    return fire(net, net.initial_marking(), "t")[-1]


@settings(max_examples=300, deadline=None)
@given(_exprs())
def test_format_parse_round_trip(tree):
    assert parse(format_expr(tree)) == tree


@settings(max_examples=300, deadline=None)
@given(
    _exprs(),
    st.lists(
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        min_size=len(_PLACES),
        max_size=len(_PLACES),
    ),
)
def test_compiled_matches_tree_walk(tree, values):
    """A net's generated code deposits the bits of the reference tree walk, or raises its error class."""
    env = dict(zip(_PLACES, values))
    try:
        expected = evaluate(tree, env)
    except EvaluationError as e:
        with pytest.raises(type(e)):
            _fired(tree, env)
        return
    assert struct.pack("d", _fired(tree, env)) == struct.pack("d", expected)


def _parenthesized(tree, names):
    """Emitted code for tree with every operator node in parentheses."""
    if isinstance(tree, Constant):
        return expr_module._literal(tree.value)
    if isinstance(tree, Pi):
        return "_pi"
    if isinstance(tree, MarkRef):
        return names[tree.place]
    if isinstance(tree, Negate):
        return f"(-{_parenthesized(tree.operand, names)})"
    if isinstance(tree, Power):
        return f"_pow({_parenthesized(tree.base, names)},{_parenthesized(tree.exponent, names)})"
    if isinstance(tree, (Cos, Sin, Sqrt)):
        return f"_{type(tree).__name__.lower()}({_parenthesized(tree.operand, names)})"
    op = {Add: "+", Subtract: "-", Multiply: "*", Divide: "/"}[type(tree)]
    return f"({_parenthesized(tree.left, names)}{op}{_parenthesized(tree.right, names)})"


def _compiled(code):
    """code compiled with each delimited literal read as _k<i>, as net._shaped reads it."""
    parts = code.split(expr_module.LITERAL)
    source = "".join(part if i % 2 == 0 else f"_k{i // 2}" for i, part in enumerate(parts))
    return compile(source, "<emitted>", "eval")


@settings(max_examples=300, deadline=None)
@given(_exprs())
def test_emitted_parentheses_do_not_change_the_bytecode(tree):
    """Emitted code keeps only the parentheses precedence needs, and compiles as fully parenthesized code does."""
    names = {p: f"m[{i}]" for i, p in enumerate(_PLACES)}
    emitted, full = _compiled(expr_module._emit(tree, names)), _compiled(_parenthesized(tree, names))
    assert (emitted.co_code, emitted.co_names, emitted.co_consts) == (full.co_code, full.co_names, full.co_consts)


def test_emitted_code_drops_the_parentheses_precedence_does_not_need():
    assert expr_module._emit(parse("(m(a)+m(b))+-m(c)*(m(a)-m(b))^2"), {"a": "x", "b": "y", "c": "z"}) == (
        "(x+y+-z*_pow(x-y,`2.0`))"
    )


def _same_outcome(tree, folded, env):
    """Both raise the same error class, or both give the same bits."""
    try:
        expected = evaluate(tree, env)
    except EvaluationError as e:
        with pytest.raises(type(e)):
            evaluate(folded, env)
        return None
    assert struct.pack("d", evaluate(folded, env)) == struct.pack("d", expected)
    return expected


@settings(max_examples=300, deadline=None)
@given(
    _exprs(),
    st.lists(
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        min_size=len(_PLACES),
        max_size=len(_PLACES),
    ),
)
def test_folding_is_bit_identical(tree, values):
    """Folded trees, and the code a net generates from them, evaluate to the same bits."""
    env = dict(zip(_PLACES, values))
    folded = fold_constants(tree)
    expected = _same_outcome(tree, folded, env)
    if expected is not None:
        assert struct.pack("d", _fired(tree, env)) == struct.pack("d", expected)


class TestFoldConstants:
    def test_place_free_subtree_becomes_literal(self):
        folded = fold_constants(parse("cos(pi/(2*2500))*m(p21)"))
        assert folded == Multiply(Constant(math.cos(math.pi / (2.0 * 2500.0))), MarkRef("p21"))

    def test_negation_folds_to_signed_constant(self):
        assert fold_constants(parse("-0")) == Constant(-0.0)
        assert fold_constants(parse("m(a)*-2")) == Multiply(MarkRef("a"), Constant(-2.0))

    @pytest.mark.parametrize("text", ["1/0", "sqrt(0-1)", "(0-1)^0.5", "10^400", "cos(10^400)"])
    def test_faulting_subtree_is_kept(self, text):
        tree = parse(text)
        folded = fold_constants(tree)
        assert type(folded) is type(tree)
        with pytest.raises(EvaluationError) as expected:
            evaluate(tree, {})
        with pytest.raises(type(expected.value)):
            evaluate(folded, {})

    def test_finite_parent_of_infinite_child_folds(self):
        # 1/inf is 0.0 in both the tree walk and emitted code
        assert fold_constants(parse("1/(1e308*10)")) == Constant(0.0)

    def test_negative_literal_compiles(self):
        assert _fired(parse("m(a)--2"), {"a": 1.0}) == 3.0


def test_parse_returns_cached_tree():
    assert parse("m(p19)-m(p21)") is parse("m(p19)-m(p21)")


def test_parse_cache_is_bounded():
    for i in range(expr_module._PARSED_MAX + 10):
        assert parse(f"{i}+m(p1)") == Add(Constant(float(i)), MarkRef("p1"))
    assert len(expr_module._PARSED) == expr_module._PARSED_MAX


class TestDepthBound:
    """Weights and predicates nest at most expr.MAX_DEPTH levels, in operators and in groups."""

    @pytest.mark.parametrize("text, column", [
        ("(" * 101 + "1" + ")" * 101, 101),
        ("(" * 300 + "1" + ")" * 300, 101),
        ("-" * 3000 + "1", 101),
        ("cos(" * 101 + "1" + ")" * 101, 401),
        ("2^" * 101 + "2", 202),
        ("+".join(["m(p)"] * 102), 505),
        ("(" * 50 + "m(p)" + "+m(p))" * 50 + "+m(p)" * 51, 605),
    ])
    def test_too_deep_text_names_its_line_and_column(self, text, column):
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert (err.value.line, err.value.column) == (1, column)
        assert "nested deeper than 100 levels" in str(err.value)

    @pytest.mark.parametrize("text", [
        "(" * 100 + "1" + ")" * 100,
        "-" * 100 + "m(p)",
        "cos(" * 100 + "m(p)" + ")" * 100,
        "+".join(["m(p)"] * 101),
        "m(p)-(" * 99 + "m(p)-1" + ")" * 99,
    ])
    def test_100_levels_parse_and_round_trip(self, text):
        tree = parse(text)
        assert parse(format_expr(tree)) == tree

    @pytest.mark.parametrize("text", [
        " AND ".join(["m(p)>=0"] * 300),
        "NOT " * 1200 + "m(p)>=0",
        "(" * 101 + "m(p)>=0" + ")" * 101,
        "NOT " * 50 + "(" * 51 + "m(p)" + ")" * 51 + ">=0",
        "NOT " * 50 + "-(m(p)" + "+m(p)" * 51 + ")>=0",
    ])
    def test_too_deep_predicate(self, text):
        with pytest.raises(ExprSyntaxError, match="nested deeper than 100 levels"):
            parse_predicate(text)

    @pytest.mark.parametrize("text", [
        " AND ".join(["m(p)>=0"] * 101),
        "NOT " * 50 + "-(m(p)" + "+m(p)" * 49 + ")>=0",
        "(" * 100 + "m(p)>=0" + ")" * 100,
        "(" * 50 + "(" * 50 + "m(p)" + ")" * 50 + ">=0" + ")" * 50,
    ])
    def test_predicate_of_100_levels(self, text):
        parse_predicate(text)

    def test_net_built_in_python_rejects_a_deeper_tree(self):
        def chain(levels):
            tree = MarkRef("p")
            for _ in range(levels):
                tree = Add(Constant(1.0), tree)
            return tree

        places = [PlaceDecl("p", PlaceKind.AMPLITUDE, 0.5), PlaceDecl("q", PlaceKind.AMPLITUDE, 0.0)]
        net = PetriNet("deep", places, ["t"], [Arc("t", "q", chain(100))])
        assert fire(net, net.initial_marking(), "t")[1] == evaluate(chain(100), {"p": 0.5})
        with pytest.raises(NetDefinitionError, match="t->q weight nests deeper than 100 operators"):
            PetriNet("deep", places, ["t"], [Arc("t", "q", chain(3000))])
