"""The .qpn textual net-definition format.

Line-oriented, UTF-8, ``#`` comments, one statement per line:

    net <name>
    place <id> init=<number> kind=<counter|amplitude>
    trans <id> [priority=<int>]
    arc <pid> -> <tid> w="<expr>" [kind=consume|drain|guard]
    arc <tid> -> <pid> w="<expr>"
    k = <number>
    map <pid> = "<label>"
    config max_steps=<int> policy=<det|born> seed=<uint64>

Declarations may appear in any order; loading validates the whole document
and reports exact line numbers.  :func:`save` emits the canonical form
(declaration order preserved, expressions normalized), so ``load(save(d))``
is structurally equal to ``d`` and ``save`` is idempotent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import expr as _expr
from .errors import (
    DuplicateIdError,
    ExprSyntaxError,
    InvalidInitialMarkingError,
    NetDefinitionError,
    NetFileSyntaxError,
    UndeclaredReferenceError,
)
from .net import Arc, ArcKind, PetriNet, PlaceDecl, PlaceKind, Policy, TransitionDecl, _normalize_arc
from .quantum import QuantumMapping

__all__ = ["ConfigOverrides", "NetDocument", "load", "save"]

_KIND_NAMES = {"counter": PlaceKind.COUNTER, "amplitude": PlaceKind.AMPLITUDE}
_ARC_KIND_NAMES = {"consume": ArcKind.CONSUME, "drain": ArcKind.DRAIN, "guard": ArcKind.GUARD}
_POLICY_NAMES = {"det": Policy.DETERMINISTIC_PRIORITY, "born": Policy.BORN_RANDOM}


@dataclass(frozen=True)
class ConfigOverrides:
    """Run-configuration defaults carried by a net file; fields may be unset."""

    max_steps: int | None = None
    policy: Policy | None = None
    seed: int | None = None

    def any_set(self) -> bool:
        return self.max_steps is not None or self.policy is not None or self.seed is not None


@dataclass(frozen=True)
class NetDocument:
    net: PetriNet
    mapping: QuantumMapping | None = None
    config: ConfigOverrides | None = None


# --- parsing helpers ------------------------------------------------------------


def _unquote(text: str, lineno: int) -> str:
    if len(text) < 2 or not text.startswith('"') or not text.endswith('"'):
        raise NetFileSyntaxError(f"expected a quoted string, got {text!r}", lineno)
    body = text[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _split_fields(text: str, lineno: int) -> list[str]:
    """Whitespace-separated fields before the first unquoted ``#``; quoted strings stay whole."""
    fields: list[str] = []
    current: list[str] = []
    in_quote = False
    escaped = False
    for ch in text:
        if in_quote:
            current.append(ch)
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_quote = False
            continue
        if ch == '"':
            current.append(ch)
            in_quote = True
        elif ch == "#":
            break
        elif ch.isspace():
            if current:
                fields.append("".join(current))
                current = []
        else:
            current.append(ch)
    if in_quote:
        raise NetFileSyntaxError("unterminated quoted string", lineno)
    if current:
        fields.append("".join(current))
    return fields


def _keyvalues(fields: list[str], allowed: tuple[str, ...], lineno: int) -> dict[str, str]:
    out: dict[str, str] = {}
    for field in fields:
        if "=" not in field:
            raise NetFileSyntaxError(f"expected key=value, got {field!r}", lineno)
        key, _, value = field.partition("=")
        if key not in allowed:
            raise NetFileSyntaxError(
                f"unknown attribute {key!r} (allowed: {', '.join(allowed)})", lineno
            )
        if key in out:
            raise NetFileSyntaxError(f"duplicate attribute {key!r}", lineno)
        if not value:
            raise NetFileSyntaxError(f"attribute {key!r} has no value", lineno)
        out[key] = value
    return out


def _number(text: str, lineno: int, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise NetFileSyntaxError(f"{what} is not a number: {text!r}", lineno) from None
    if not math.isfinite(value):
        raise NetFileSyntaxError(f"{what} is not a finite number: {text!r}", lineno)
    return value


def _integer(text: str, lineno: int, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise NetFileSyntaxError(f"{what} is not an integer: {text!r}", lineno) from None


# --- load -------------------------------------------------------------------------


def load(text: str) -> NetDocument:
    """Parse and fully validate a .qpn document."""
    name: str | None = None
    places: list[PlaceDecl] = []
    place_lines: dict[str, int] = {}
    transitions: list[TransitionDecl] = []
    trans_lines: dict[str, int] = {}
    raw_arcs: list[tuple[Arc, int]] = []
    k_value: float | None = None
    k_line: int | None = None
    assignments: list[tuple[str, str]] = []
    map_lines: dict[str, int] = {}
    labels_seen: dict[str, int] = {}
    config: ConfigOverrides | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = _split_fields(raw, lineno)
        if not fields:
            continue
        keyword = fields[0]

        if keyword == "net":
            if name is not None:
                raise DuplicateIdError("duplicate net header", lineno)
            if len(fields) != 2:
                raise NetFileSyntaxError("usage: net <name>", lineno)
            name = fields[1]
            continue
        if name is None:
            raise NetFileSyntaxError("missing net header before first statement", lineno)

        if keyword == "place":
            if len(fields) < 2:
                raise NetFileSyntaxError("usage: place <id> init=<number> kind=<kind>", lineno)
            pid = fields[1]
            if pid in place_lines:
                raise DuplicateIdError(f"place {pid} already declared", lineno)
            attrs = _keyvalues(fields[2:], ("init", "kind"), lineno)
            initial = _number(attrs.get("init", "0"), lineno, "init")
            kind_name = attrs.get("kind", "counter")
            if kind_name not in _KIND_NAMES:
                raise NetFileSyntaxError(f"unknown place kind {kind_name!r}", lineno)
            kind = _KIND_NAMES[kind_name]
            if kind == PlaceKind.COUNTER and (initial < 0 or initial != int(initial)):
                raise InvalidInitialMarkingError(
                    f"counter place {pid} must start at a non-negative integer, got {initial}",
                    lineno,
                )
            places.append(PlaceDecl(pid, kind, initial))
            place_lines[pid] = lineno
        elif keyword == "trans":
            if len(fields) < 2:
                raise NetFileSyntaxError("usage: trans <id> [priority=<int>]", lineno)
            tid = fields[1]
            if tid in trans_lines:
                raise DuplicateIdError(f"transition {tid} already declared", lineno)
            attrs = _keyvalues(fields[2:], ("priority",), lineno)
            priority = _integer(attrs.get("priority", "0"), lineno, "priority")
            transitions.append(TransitionDecl(tid, priority))
            trans_lines[tid] = lineno
        elif keyword == "arc":
            if len(fields) < 4 or fields[2] != "->":
                raise NetFileSyntaxError(
                    'usage: arc <src> -> <dst> w="<expr>" [kind=<kind>]', lineno
                )
            src, dst = fields[1], fields[3]
            attrs = _keyvalues(fields[4:], ("w", "kind"), lineno)
            weight_text = _unquote(attrs["w"], lineno) if "w" in attrs else "1"
            try:
                weight = _expr.parse(weight_text)
            except ExprSyntaxError as e:
                raise NetFileSyntaxError(f"bad weight expression: {e}", lineno) from None
            kind: ArcKind | None = None
            if "kind" in attrs:
                if attrs["kind"] not in _ARC_KIND_NAMES:
                    raise NetFileSyntaxError(f"unknown arc kind {attrs['kind']!r}", lineno)
                kind = _ARC_KIND_NAMES[attrs["kind"]]
            raw_arcs.append((Arc(src, dst, weight, kind), lineno))
        elif keyword == "k":
            if len(fields) == 3 and fields[1] == "=":
                value_text = fields[2]
            elif len(fields) == 2 and fields[1].startswith("="):
                value_text = fields[1][1:]
            else:
                raise NetFileSyntaxError("usage: k = <number>", lineno)
            if k_value is not None:
                raise DuplicateIdError("k already set", lineno)
            k_value = _number(value_text, lineno, "k")
            k_line = lineno
            if not k_value > 0:
                raise NetFileSyntaxError(f"k must be positive, got {k_value}", lineno)
        elif keyword == "map":
            if len(fields) != 4 or fields[2] != "=":
                raise NetFileSyntaxError('usage: map <pid> = "<label>"', lineno)
            pid = fields[1]
            if pid in map_lines:
                raise DuplicateIdError(f"place {pid} already mapped", lineno)
            label = _unquote(fields[3], lineno)
            if label in labels_seen:
                raise DuplicateIdError(f"label {label!r} already used", lineno)
            assignments.append((pid, label))
            map_lines[pid] = lineno
            labels_seen[label] = lineno
        elif keyword == "config":
            if config is not None:
                raise DuplicateIdError("duplicate config line", lineno)
            attrs = _keyvalues(fields[1:], ("max_steps", "policy", "seed"), lineno)
            policy = None
            if "policy" in attrs:
                if attrs["policy"] not in _POLICY_NAMES:
                    raise NetFileSyntaxError(f"unknown policy {attrs['policy']!r}", lineno)
                policy = _POLICY_NAMES[attrs["policy"]]
            max_steps = (
                _integer(attrs["max_steps"], lineno, "max_steps") if "max_steps" in attrs else None
            )
            if max_steps is not None and max_steps < 1:
                raise NetFileSyntaxError("max_steps must be >= 1", lineno)
            seed = _integer(attrs["seed"], lineno, "seed") if "seed" in attrs else None
            if seed is not None and not (0 <= seed < 2**64):
                raise NetFileSyntaxError("seed must fit in 64 bits", lineno)
            config = ConfigOverrides(max_steps=max_steps, policy=policy, seed=seed)
        else:
            raise NetFileSyntaxError(f"unknown statement {keyword!r}", lineno)

    if name is None:
        raise NetFileSyntaxError("missing net header", 1)

    declared = place_lines.keys() | trans_lines.keys()
    overlap = place_lines.keys() & trans_lines.keys()
    if overlap:
        pid = sorted(overlap)[0]
        raise DuplicateIdError(f"id {pid} used for both a place and a transition", trans_lines[pid])
    for arc, lineno in raw_arcs:
        for endpoint in (arc.source, arc.target):
            if endpoint not in declared:
                raise UndeclaredReferenceError(f"undeclared arc endpoint {endpoint}", lineno)
        for ref in _expr.free_places(arc.parsed_weight()):
            if ref not in place_lines:
                raise UndeclaredReferenceError(
                    f"weight references undeclared place {ref}", lineno
                )
        try:
            _normalize_arc(arc, place_lines, trans_lines)
        except NetDefinitionError as e:
            raise NetFileSyntaxError(str(e), lineno) from None
    for pid, lineno in map_lines.items():
        if pid not in place_lines:
            raise UndeclaredReferenceError(f"mapped place {pid} is not declared", lineno)

    try:
        net = PetriNet(name, places, transitions, [arc for arc, _ in raw_arcs])
    except NetDefinitionError as e:
        raise NetFileSyntaxError(str(e)) from e

    mapping = None
    if k_value is not None or assignments:
        mapping = QuantumMapping(
            k=k_value if k_value is not None else 1.0, assignments=tuple(assignments)
        )
    return NetDocument(net=net, mapping=mapping, config=config)


# --- save -------------------------------------------------------------------------


def save(doc: NetDocument) -> str:
    """Canonical text: declaration order, normalized expressions, stable keys."""
    net = doc.net
    lines = [f"net {net.name}"]
    for place in net.places:
        lines.append(
            f"place {place.id} init={_expr._fmt_number(place.initial)} kind={place.kind.value}"
        )
    for trans in net.transitions:
        suffix = f" priority={trans.priority}" if trans.priority != 0 else ""
        lines.append(f"trans {trans.id}{suffix}")
    for arc in net.arcs:
        weight = _quote(_expr.format_expr(arc.parsed_weight()))
        suffix = ""
        if arc.kind in (ArcKind.DRAIN, ArcKind.GUARD):
            suffix = f" kind={arc.kind.value}"
        lines.append(f"arc {arc.source} -> {arc.target} w={weight}{suffix}")
    if doc.mapping is not None:
        lines.append(f"k = {_expr._fmt_number(doc.mapping.k)}")
        for pid, label in doc.mapping.assignments:
            lines.append(f"map {pid} = {_quote(label)}")
    if doc.config is not None and doc.config.any_set():
        parts = ["config"]
        if doc.config.max_steps is not None:
            parts.append(f"max_steps={doc.config.max_steps}")
        if doc.config.policy is not None:
            parts.append(f"policy={doc.config.policy.value}")
        if doc.config.seed is not None:
            parts.append(f"seed={doc.config.seed}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
