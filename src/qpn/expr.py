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
Text nests at most MAX_DEPTH levels.

:func:`evaluate` walks the tree and is the reference semantics.  The net
engine executes weights as Python source emitted from the tree, inside the
code :mod:`qpn.net` generates for each net; tests fire nets and assert the
two agree bit for bit, and the engine diagnoses a fault in emitted code by
re-evaluating with :func:`evaluate`, so every evaluation error it reports is
the reference's.  :func:`format_expr` and the emitter render a tree from one
operator table.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass
from typing import Callable, Mapping, Union

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

# The deepest a weight or predicate may nest: in operators along any path of
# its tree, and in groups (parentheses, calls, unary minuses, exponents) the
# parser is inside at once.  Every recursive walk of a tree stays far from
# Python's recursion limit, and generated code from its parenthesis limit.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent over a token stream; each parse method returns a tree and its depth."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.groups = 0  # groups the parser is inside

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

    def nested(self, tok: _Token, depth: int) -> int:
        """depth, which the text reaches at tok, if it is within MAX_DEPTH."""
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(f"nested deeper than {MAX_DEPTH} levels", tok.line, tok.column)
        return depth

    def enter(self, tok: _Token) -> None:
        """Enter the group that opens at tok; the caller leaves it, or a backtrack resets the count."""
        self.groups = self.nested(tok, self.groups + 1)

    def chain(self, operand: Callable[[], tuple], nodes: dict[str, type]) -> tuple:
        """Operands joined left to right by operators; nodes maps an operator's upper-case text to its node."""
        node, depth = operand()
        while (node_type := nodes.get(self.peek().text.upper())) is not None:
            tok = self.advance()
            right, right_depth = operand()
            node, depth = node_type(node, right), self.nested(tok, max(depth, right_depth) + 1)
        return node, depth

    def parse_expr(self) -> tuple[WeightExpr, int]:
        return self.chain(self.parse_term, {"+": Add, "-": Subtract})

    def parse_term(self) -> tuple[WeightExpr, int]:
        return self.chain(self.parse_factor, {"*": Multiply, "/": Divide})

    def parse_factor(self) -> tuple[WeightExpr, int]:
        if self.peek().kind == "-":
            tok = self.advance()
            self.enter(tok)
            node, depth = self.parse_factor()
            self.groups -= 1
            return Negate(node), self.nested(tok, depth + 1)
        return self.parse_power()

    def parse_power(self) -> tuple[WeightExpr, int]:
        base, depth = self.parse_atom()
        if self.peek().kind == "^":
            tok = self.advance()
            self.enter(tok)
            exponent, exponent_depth = self.parse_factor()
            self.groups -= 1
            return Power(base, exponent), self.nested(tok, max(depth, exponent_depth) + 1)
        return base, depth

    def parse_atom(self) -> tuple[WeightExpr, int]:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            try:
                value = float(tok.text)
            except ValueError:
                raise MalformedNumberError(f"malformed number {tok.text!r}", tok.line, tok.column)
            if not math.isfinite(value):
                raise MalformedNumberError(f"non-finite literal {tok.text!r}", tok.line, tok.column)
            return Constant(value), 0
        if tok.kind == "(":
            self.advance()
            self.enter(tok)
            parsed = self.parse_expr()
            self.expect(")", ("')'",))
            self.groups -= 1
            return parsed
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name == "pi":
                return Pi(), 0
            if name == "m":
                self.expect("(", ("'('",))
                ident = self.expect("ident", ("place identifier",))
                self.expect(")", ("')'",))
                return MarkRef(ident.text), 0
            if name in _FUNCTIONS:
                self.expect("(", ("'('",))
                self.enter(tok)
                node, depth = self.parse_expr()
                self.expect(")", ("')'",))
                self.groups -= 1
                return _FUNCTIONS[name](node), self.nested(tok, depth + 1)
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
    node, _ = parser.parse_expr()
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
    if type(expr) is Pi:
        return Constant(math.pi), True
    if type(expr) in (Constant, MarkRef):
        return expr, type(expr) is Constant
    folded = [_fold(child) for child in vars(expr).values()]
    expr, constant = type(expr)(*[node for node, _ in folded]), all(c for _, c in folded)
    if constant:
        try:
            value = _eval(expr, {})
        except EvaluationError:
            return expr, True
        if math.isfinite(value):
            return Constant(value), True
    return expr, constant


def _too_deep(expr: WeightExpr, levels: int) -> bool:
    """Whether expr nests more than levels operators along some path."""
    if type(expr) not in _OPERATORS:
        return False
    return levels == 0 or any(_too_deep(child, levels - 1) for child in vars(expr).values())


def free_places(expr: WeightExpr) -> frozenset[str]:
    """Exactly the place ids referenced via m(...) anywhere in the tree."""
    out: set[str] = set()
    _collect(expr, out)
    return frozenset(out)


def _collect(expr: WeightExpr, out: set[str]) -> None:
    if type(expr) is MarkRef:
        out.add(expr.place)
    elif type(expr) in _OPERATORS:
        for child in vars(expr).values():
            _collect(child, out)


# --- rendering ----------------------------------------------------------------

# Each operator's precedence, the context each operand is rendered in, and its
# written and emitted spelling.  Precedence runs +,- 1; *,/ 2; unary - 3; ^ 4;
# leaves 5, and Python orders the emitted infix and prefix operators the same
# way.  A node whose precedence is below its context is parenthesized.  A
# spelling that is a call delimits its operands itself: it renders as a leaf,
# with its operands in context 0.
_OPERATORS = {
    Add: (1, (1, 2), "{}+{}", "{}+{}"),
    Subtract: (1, (1, 2), "{}-{}", "{}-{}"),
    Multiply: (2, (2, 3), "{}*{}", "{}*{}"),
    Divide: (2, (2, 3), "{}/{}", "{}/{}"),
    Negate: (3, (3,), "-{}", "-{}"),
    Power: (4, (5, 3), "{}^{}", "_pow({},{})"),
    Cos: (5, (0,), "cos({})", "_cos({})"),
    Sin: (5, (0,), "sin({})", "_sin({})"),
    Sqrt: (5, (0,), "sqrt({})", "_sqrt({})"),
}
_LEAF = 5


def _render(expr: WeightExpr | str, names: Mapping[str, str] | None, context: int) -> str:
    """expr in context, with only the parentheses precedence needs.

    Written when names is None, else emitted as Python source with names
    mapping each place id to the code that reads it.  The two differ only
    in their spellings and their leaves.
    """
    operator = _OPERATORS.get(type(expr))
    if operator is None:
        return _leaf(expr, names, context)
    precedence, contexts, spelling = operator[0], operator[1], operator[2 if names is None else 3]
    if spelling[-1] == ")":
        precedence, contexts = _LEAF, (0, 0)
    text = spelling.format(*[_render(child, names, c) for child, c in zip(vars(expr).values(), contexts)])
    return f"({text})" if precedence < context else text


def _leaf(expr: WeightExpr | str, names: Mapping[str, str] | None, context: int) -> str:
    if type(expr) is Constant:
        if names is not None:
            return _literal(expr.value)
        text = _fmt_number(expr.value)
        # a non-canonical negative constant is written as a negation
        return _render(Negate(Constant(-expr.value)), None, context) if text[0] == "-" else text
    if type(expr) is Pi:
        return "pi" if names is None else "_pi"
    if type(expr) is MarkRef:
        if names is None:
            return f"m({expr.place})"
        try:
            return names[expr.place]
        except KeyError:
            raise UnknownPlaceError(f"unknown place {expr.place!r}") from None
    if type(expr) is str and names is not None:
        return expr
    raise TypeError(f"not a WeightExpr: {expr!r}")


def format_expr(expr: WeightExpr) -> str:
    """Canonical rendering: parse(format_expr(e)) is structurally equal to e.

    Canonical trees carry non-negative constants (the parser never produces a
    negative Constant; negation is a Negate node).
    """
    return _render(expr, None, 0)


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
    "__builtins__": {},
}


# Emitted code wraps each float literal, finite or not, in this delimiter,
# which it uses nowhere else, so qpn.net can split a generated module into
# its shape and its literals with one str.split: it compiles each shape once,
# with the literals as arguments, and calls that code with each module's
# literals.  The text between delimiters is the value's repr, which float()
# reads back; it is never compiled as it stands.
LITERAL = "`"


def _literal(value: float) -> str:
    """A float as a delimited literal of emitted code."""
    return f"{LITERAL}{value!r}{LITERAL}"


def _emit(expr: WeightExpr | str, names: Mapping[str, str]) -> str:
    """Python source for expr; names maps each place id to the code that reads it.

    A str leaf is code already emitted, such as a local that holds a hoisted
    subtree's value.  The source is parenthesized as a whole unless it is a
    leaf or a call, so it reads the same wherever it is placed.
    """
    return _render(expr, names, _LEAF)


def _sum(terms: list[tuple[str, float | None]]) -> tuple[str, float | None]:
    """Generated code adding (code, value if constant) terms in order; the sum's value if constant.

    The leading run of constants is added here, with the same float
    operations, into one literal, so each run of the code does fewer
    operations: qpn.net passes literals to compiled code as arguments, which
    the compiler cannot fold.
    """
    lead, rest = None, []
    for code, value in terms:
        if value is not None and not rest:
            lead = value if lead is None else lead + value
        else:
            rest.append(code)
    head = [] if lead is None else [_emit(Constant(lead), {})]
    return " + ".join(head + rest), None if rest else lead
