"""Arc-weight expression language.

Arc weights are arithmetic/trigonometric expressions over constants and
current token counts, written in ASCII:

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?
    atom   := NUMBER | "pi" | "m" "(" IDENT ")" | FUNC "(" expr ")" | "(" expr ")"
    FUNC   := "cos" | "sin" | "sqrt"

`m(p9)` reads the token count of place p9 from the marking the expression is
evaluated against.  There is no implicit multiplication; `^` is
right-associative; scientific-notation literals (`1e-28`) are accepted.

:func:`evaluate` walks the tree and is the reference semantics.  The net
engine executes weights as Python source emitted from the tree, inside the
code :mod:`qpn.net` generates for each net; tests fire nets and assert the
two agree bit for bit, and the engine diagnoses a fault in emitted code by
re-evaluating with :func:`evaluate`, so every evaluation error it reports is
the reference's.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass
from typing import Mapping, Union

from .errors import (
    DivisionByZeroError,
    EvaluationError,
    ExprSyntaxError,
    MalformedNumberError,
    NegativeSqrtError,
    NonFiniteResultError,
    UnknownFunctionError,
    UnknownPlaceError,
)

__all__ = [
    "WeightExpr",
    "Constant",
    "Pi",
    "MarkRef",
    "Negate",
    "Add",
    "Subtract",
    "Multiply",
    "Divide",
    "Power",
    "Cos",
    "Sin",
    "Sqrt",
    "parse",
    "evaluate",
    "free_places",
    "format_expr",
    "fold_constants",
]


# --- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Pi:
    pass


@dataclass(frozen=True)
class MarkRef:
    place: str


@dataclass(frozen=True)
class Negate:
    operand: "WeightExpr"


@dataclass(frozen=True)
class Add:
    left: "WeightExpr"
    right: "WeightExpr"


@dataclass(frozen=True)
class Subtract:
    left: "WeightExpr"
    right: "WeightExpr"


@dataclass(frozen=True)
class Multiply:
    left: "WeightExpr"
    right: "WeightExpr"


@dataclass(frozen=True)
class Divide:
    left: "WeightExpr"
    right: "WeightExpr"


@dataclass(frozen=True)
class Power:
    base: "WeightExpr"
    exponent: "WeightExpr"


@dataclass(frozen=True)
class Cos:
    operand: "WeightExpr"


@dataclass(frozen=True)
class Sin:
    operand: "WeightExpr"


@dataclass(frozen=True)
class Sqrt:
    operand: "WeightExpr"


WeightExpr = Union[
    Constant, Pi, MarkRef, Negate, Add, Subtract, Multiply, Divide, Power, Cos, Sin, Sqrt
]

_FUNCTIONS = {"cos": Cos, "sin": Sin, "sqrt": Sqrt}


# --- tokenizer ------------------------------------------------------------------

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'ident' | one of + - * / ^ ( ) | 'end'
    text: str
    line: int
    column: int


def _tokenize(text: str, operators: tuple[str, ...] = ()) -> list[_Token]:
    """Token stream for the expression grammar.

    ``operators`` adds extra multi-character operator tokens (longest match
    first); the predicate language in :mod:`qpn.analysis` uses it for the
    comparison operators.
    """
    ordered_ops = sorted(operators, key=len, reverse=True)
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        matched_op = next((op for op in ordered_ops if text.startswith(op, i)), None)
        if matched_op is not None:
            tokens.append(_Token(matched_op, matched_op, line, col))
            i += len(matched_op)
            col += len(matched_op)
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit() or ch == ".":
            match = _NUMBER_RE.match(text, i)
            if not match:
                raise MalformedNumberError(f"malformed number starting at {text[i:i+8]!r}", line, col)
            following = text[match.end()] if match.end() < n else ""
            if following == "." or following in ("e", "E"):
                # "1.2.3", or "1e"/"1e+" whose exponent digits are missing
                raise MalformedNumberError(
                    f"malformed number {text[i:match.end() + 1]!r}", line, col
                )
            tokens.append(_Token("num", match.group(), line, col))
            col += match.end() - i
            i = match.end()
            continue
        match = _IDENT_RE.match(text, i)
        if match:
            tokens.append(_Token("ident", match.group(), line, col))
            col += match.end() - i
            i = match.end()
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


# --- parser ---------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, expected: tuple[str, ...]) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(
                f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
                tok.line,
                tok.column,
                expected,
            )
        return self.advance()

    def parse_expr(self) -> WeightExpr:
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            right = self.parse_term()
            node = Add(node, right) if op == "+" else Subtract(node, right)
        return node

    def parse_term(self) -> WeightExpr:
        node = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            right = self.parse_factor()
            node = Multiply(node, right) if op == "*" else Divide(node, right)
        return node

    def parse_factor(self) -> WeightExpr:
        if self.peek().kind == "-":
            self.advance()
            return Negate(self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> WeightExpr:
        base = self.parse_atom()
        if self.peek().kind == "^":
            self.advance()
            return Power(base, self.parse_factor())
        return base

    def parse_atom(self) -> WeightExpr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            try:
                value = float(tok.text)
            except ValueError:
                raise MalformedNumberError(f"malformed number {tok.text!r}", tok.line, tok.column)
            if not math.isfinite(value):
                raise MalformedNumberError(f"non-finite literal {tok.text!r}", tok.line, tok.column)
            return Constant(value)
        if tok.kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")", ("')'",))
            return node
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name == "pi":
                return Pi()
            if name == "m":
                self.expect("(", ("'('",))
                ident = self.expect("ident", ("place identifier",))
                self.expect(")", ("')'",))
                return MarkRef(ident.text)
            if name in _FUNCTIONS:
                self.expect("(", ("'('",))
                node = self.parse_expr()
                self.expect(")", ("')'",))
                return _FUNCTIONS[name](node)
            if self.peek().kind == "(":
                raise UnknownFunctionError(
                    f"unknown function {name!r}", tok.line, tok.column, ("cos", "sin", "sqrt", "m")
                )
            raise ExprSyntaxError(
                f"unexpected identifier {name!r}", tok.line, tok.column,
                ("number", "'pi'", "'m(...)'", "function call", "'('"),
            )
        raise ExprSyntaxError(
            f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
            tok.line,
            tok.column,
            ("number", "'pi'", "'m(...)'", "function call", "'('", "'-'"),
        )


_PARSED: dict[str, WeightExpr] = {}  # text -> tree, oldest first
_PARSED_MAX = 4096


def parse(text: str) -> WeightExpr:
    """Parse expression text into its unique tree; whitespace-insensitive.

    Trees are immutable, so a text parsed again (arc weights such as ``"1"``
    recur within a net and across the nets of one grid) returns the cached
    tree; the cache drops its oldest entry when full.
    """
    node = _PARSED.get(text)
    if node is not None:
        return node
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ExprSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.column, ("end of input",))
    _remember(_PARSED, _PARSED_MAX, text, node)
    return node


_REMEMBER_LOCK = threading.Lock()


def _remember(cache: dict, bound: int, key: object, value: object) -> None:
    """Add an entry to a cache that drops its oldest entry when full.

    Lookups need no lock, but inserts take one: another thread's insert
    between iter() and next() would make next() raise, and two threads
    evicting at once could leave the cache past its bound.
    """
    with _REMEMBER_LOCK:
        if len(cache) >= bound:
            cache.pop(next(iter(cache)), None)  # pop, not del: tolerate a key already gone
        cache[key] = value


# --- evaluation -------------------------------------------------------------------


def evaluate(expr: WeightExpr, marking: Mapping[str, float]) -> float:
    """Evaluate against a place-id -> token-count mapping.

    Pure: the same (expr, marking) always yields the same value.  Raises
    UnknownPlaceError / DivisionByZeroError / NegativeSqrtError,
    EvaluationError for other domain faults (a negative base to a fractional
    power, cos or sin of an infinity), and NonFiniteResultError if the final
    value is not finite.
    """
    value = _eval(expr, marking)
    if not math.isfinite(value):
        raise NonFiniteResultError(f"expression evaluated to {value!r}")
    return value


def _eval(expr: WeightExpr, env: Mapping[str, float]) -> float:
    if isinstance(expr, Constant):
        return expr.value
    if isinstance(expr, Pi):
        return math.pi
    if isinstance(expr, MarkRef):
        try:
            return env[expr.place]
        except KeyError:
            raise UnknownPlaceError(f"unknown place {expr.place!r}") from None
    if isinstance(expr, Negate):
        return -_eval(expr.operand, env)
    if isinstance(expr, Add):
        return _eval(expr.left, env) + _eval(expr.right, env)
    if isinstance(expr, Subtract):
        return _eval(expr.left, env) - _eval(expr.right, env)
    if isinstance(expr, Multiply):
        return _eval(expr.left, env) * _eval(expr.right, env)
    if isinstance(expr, Divide):
        denom = _eval(expr.right, env)
        if denom == 0.0:
            raise DivisionByZeroError(f"division by zero in {format_expr(expr)}")
        return _eval(expr.left, env) / denom
    if isinstance(expr, Power):
        base = _eval(expr.base, env)
        exponent = _eval(expr.exponent, env)
        try:
            return math.pow(base, exponent)
        except ValueError:
            raise EvaluationError(f"invalid power {base!r} ^ {exponent!r}") from None
        except OverflowError:
            raise NonFiniteResultError(f"overflow in {base!r} ^ {exponent!r}") from None
    if isinstance(expr, (Cos, Sin)):
        operand = _eval(expr.operand, env)
        fn = math.cos if isinstance(expr, Cos) else math.sin
        try:
            return fn(operand)
        except ValueError:
            raise EvaluationError(f"{fn.__name__} of {operand!r}") from None
    if isinstance(expr, Sqrt):
        operand = _eval(expr.operand, env)
        if operand < 0.0:
            raise NegativeSqrtError(f"sqrt of negative value {operand!r}")
        return math.sqrt(operand)
    raise TypeError(f"not a WeightExpr: {expr!r}")


def fold_constants(expr: WeightExpr) -> WeightExpr:
    """expr with each place-free subtree whose value is finite replaced by that Constant.

    Values come from the reference evaluator, which does the same float
    operations as emitted code, so the folded tree evaluates bit for bit like
    expr.  A subtree that faults or is not finite is kept, and faults when
    evaluated as before.
    """
    return _fold(expr)[0]


def _fold(expr: WeightExpr) -> tuple[WeightExpr, bool]:
    """The folded tree, and whether it reads no place."""
    if isinstance(expr, MarkRef):
        return expr, False
    if isinstance(expr, Constant):
        return expr, True
    if isinstance(expr, Pi):
        return Constant(math.pi), True
    if isinstance(expr, (Negate, Cos, Sin, Sqrt)):
        operand, constant = _fold(expr.operand)
        expr = type(expr)(operand)
    elif isinstance(expr, Power):
        (base, c1), (exponent, c2) = _fold(expr.base), _fold(expr.exponent)
        expr, constant = Power(base, exponent), c1 and c2
    elif isinstance(expr, (Add, Subtract, Multiply, Divide)):
        (left, c1), (right, c2) = _fold(expr.left), _fold(expr.right)
        expr, constant = type(expr)(left, right), c1 and c2
    else:
        raise TypeError(f"not a WeightExpr: {expr!r}")
    if constant:
        try:
            value = _eval(expr, {})
        except EvaluationError:
            return expr, True
        if math.isfinite(value):
            return Constant(value), True
    return expr, constant


def free_places(expr: WeightExpr) -> frozenset[str]:
    """Exactly the place ids referenced via m(...) anywhere in the tree."""
    out: set[str] = set()
    _collect(expr, out)
    return frozenset(out)


def _collect(expr: WeightExpr, out: set[str]) -> None:
    if isinstance(expr, MarkRef):
        out.add(expr.place)
    elif isinstance(expr, (Negate, Cos, Sin, Sqrt)):
        _collect(expr.operand, out)
    elif isinstance(expr, (Add, Subtract, Multiply, Divide)):
        _collect(expr.left, out)
        _collect(expr.right, out)
    elif isinstance(expr, Power):
        _collect(expr.base, out)
        _collect(expr.exponent, out)


# --- formatting ---------------------------------------------------------------

# precedence: +,- = 1; *,/ = 2; unary - = 3; ^ = 4; atoms = 5
_PREC = {
    Add: 1,
    Subtract: 1,
    Multiply: 2,
    Divide: 2,
    Negate: 3,
    Power: 4,
    Constant: 5,
    Pi: 5,
    MarkRef: 5,
    Cos: 5,
    Sin: 5,
    Sqrt: 5,
}


def format_expr(expr: WeightExpr) -> str:
    """Canonical rendering: parse(format_expr(e)) is structurally equal to e.

    Canonical trees carry non-negative constants (the parser never produces a
    negative Constant; negation is a Negate node).
    """
    return _fmt(expr, 0)


def _fmt(expr: WeightExpr, context: int) -> str:
    prec = _PREC[type(expr)]
    if isinstance(expr, Constant):
        text = _fmt_number(expr.value)
        if text.startswith("-"):
            # non-canonical negative constant: render as a negation
            return _fmt(Negate(Constant(-expr.value)), context)
        return text
    if isinstance(expr, Pi):
        return "pi"
    if isinstance(expr, MarkRef):
        return f"m({expr.place})"
    if isinstance(expr, Cos):
        return f"cos({_fmt(expr.operand, 0)})"
    if isinstance(expr, Sin):
        return f"sin({_fmt(expr.operand, 0)})"
    if isinstance(expr, Sqrt):
        return f"sqrt({_fmt(expr.operand, 0)})"
    if isinstance(expr, Negate):
        text = "-" + _fmt(expr.operand, 3)
    elif isinstance(expr, Add):
        text = f"{_fmt(expr.left, 1)}+{_fmt(expr.right, 2)}"
    elif isinstance(expr, Subtract):
        text = f"{_fmt(expr.left, 1)}-{_fmt(expr.right, 2)}"
    elif isinstance(expr, Multiply):
        text = f"{_fmt(expr.left, 2)}*{_fmt(expr.right, 3)}"
    elif isinstance(expr, Divide):
        text = f"{_fmt(expr.left, 2)}/{_fmt(expr.right, 3)}"
    elif isinstance(expr, Power):
        text = f"{_fmt(expr.base, 5)}^{_fmt(expr.exponent, 3)}"
    else:
        raise TypeError(f"not a WeightExpr: {expr!r}")
    return f"({text})" if prec < context else text


def _fmt_number(value: float) -> str:
    if math.isfinite(value) and value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


# --- emitted code ---------------------------------------------------------------

_COMPILE_GLOBALS = {
    "_cos": math.cos,
    "_sin": math.sin,
    "_sqrt": math.sqrt,
    "_pow": math.pow,
    "_pi": math.pi,
    "inf": math.inf,  # the repr of a non-finite Constant built through the API
    "nan": math.nan,
    "__builtins__": {},
}


# Emitted code wraps each finite float literal in this delimiter, which it
# uses nowhere else, so qpn.net can split a generated module into its shape
# and its literals with one str.split; strip it before compiling the text.
LITERAL = "`"


def _literal(value: float) -> str:
    """A finite float as a delimited literal of emitted code."""
    return f"{LITERAL}{value!r}{LITERAL}"


def _emit(expr: WeightExpr | str, names: Mapping[str, str]) -> str:
    """Python source for expr; names maps each place id to the code that reads it.

    A str leaf is code already emitted, such as a local that holds a hoisted
    subtree's value.
    """
    if isinstance(expr, str):
        return expr
    if isinstance(expr, Constant):
        # inf and nan are names in _COMPILE_GLOBALS, not literals
        return _literal(expr.value) if math.isfinite(expr.value) else repr(expr.value)
    if isinstance(expr, Pi):
        return "_pi"
    if isinstance(expr, MarkRef):
        try:
            return names[expr.place]
        except KeyError:
            raise UnknownPlaceError(f"unknown place {expr.place!r}") from None
    if isinstance(expr, Negate):
        return f"(-{_emit(expr.operand, names)})"
    if isinstance(expr, Add):
        return f"({_emit(expr.left, names)}+{_emit(expr.right, names)})"
    if isinstance(expr, Subtract):
        return f"({_emit(expr.left, names)}-{_emit(expr.right, names)})"
    if isinstance(expr, Multiply):
        return f"({_emit(expr.left, names)}*{_emit(expr.right, names)})"
    if isinstance(expr, Divide):
        return f"({_emit(expr.left, names)}/{_emit(expr.right, names)})"
    if isinstance(expr, Power):
        return f"_pow({_emit(expr.base, names)},{_emit(expr.exponent, names)})"
    if isinstance(expr, Cos):
        return f"_cos({_emit(expr.operand, names)})"
    if isinstance(expr, Sin):
        return f"_sin({_emit(expr.operand, names)})"
    if isinstance(expr, Sqrt):
        return f"_sqrt({_emit(expr.operand, names)})"
    raise TypeError(f"not a WeightExpr: {expr!r}")


def _sum(terms: list[tuple[str, float | None]]) -> tuple[str, float | None]:
    """Generated code adding (code, value if constant) terms in order; the sum's value if constant.

    The leading run of constants is added here, with the same float
    operations, into one literal: left to the compiler, literals would be
    folded with their sentinels, and the shape could not be patched.
    """
    lead, rest = None, []
    for code, value in terms:
        if value is not None and not rest:
            lead = value if lead is None else lead + value
        else:
            rest.append(code)
    head = [] if lead is None else [_emit(Constant(lead), {})]
    return " + ".join(head + rest), None if rest else lead
