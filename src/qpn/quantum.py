"""Bridge between markings and quantum pure states.

A :class:`QuantumMapping` pairs a positive scale constant ``k`` with an ordered
assignment of places to eigenstate labels.  The token count of an assigned
place encodes a signed real amplitude ``C = sqrt(k) * M(p)``, so the outcome
probability of a projective measurement in that basis is ``k * M(p)^2``.

Probabilities are reported, never silently normalized: nets that model
absorption legitimately leak probability, and conservation is something a test
checks rather than an assumption the library bakes in.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .errors import AllZeroError, NotNormalizedError, QpnError, UnknownPlaceError
from .net import Marking, PetriNet, _cumulative_draw

__all__ = [
    "QuantumMapping",
    "StateVector",
    "Probabilities",
    "amplitudes",
    "probabilities",
    "superpose",
    "measure",
]


@dataclass(frozen=True)
class QuantumMapping:
    """Scale constant plus place -> eigenstate-label assignments."""

    k: float = 1.0
    assignments: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not (self.k > 0):
            raise QpnError(f"k must be positive, got {self.k}")
        places = [p for p, _ in self.assignments]
        labels = [l for _, l in self.assignments]
        if len(set(places)) != len(places):
            raise QpnError("assigned places must be distinct")
        if len(set(labels)) != len(labels):
            raise QpnError("eigenstate labels must be distinct")

    def places(self) -> list[str]:
        return [p for p, _ in self.assignments]


@dataclass(frozen=True)
class StateVector:
    """Ordered (eigenstate label, signed real amplitude) pairs."""

    entries: tuple[tuple[str, float], ...]

    def amplitude(self, label: str) -> float:
        for l, a in self.entries:
            if l == label:
                return a
        raise KeyError(label)

    def norm_squared(self) -> float:
        return sum(a * a for _, a in self.entries)


@dataclass(frozen=True)
class Probabilities:
    """Per-label probabilities plus their (not necessarily 1) total."""

    entries: tuple[tuple[str, float], ...]
    total: float

    def probability(self, label: str) -> float:
        for l, p in self.entries:
            if l == label:
                return p
        raise KeyError(label)


def _assigned_values(q: QuantumMapping, net: PetriNet, m: Sequence[float]) -> list[tuple[str, float]]:
    out = []
    for place_id, label in q.assignments:
        try:
            idx = net.place_index[place_id]
        except KeyError:
            raise UnknownPlaceError(f"mapping assigns undeclared place {place_id}") from None
        out.append((label, m[idx]))
    return out


def amplitudes(q: QuantumMapping, net: PetriNet, m: Sequence[float]) -> StateVector:
    """Amplitude C_i = sqrt(k) * M(p_i), one entry per assignment in order."""
    root_k = math.sqrt(q.k)
    return StateVector(tuple((label, root_k * v) for label, v in _assigned_values(q, net, m)))


def probabilities(q: QuantumMapping, net: PetriNet, m: Sequence[float]) -> Probabilities:
    """Probability k * M(p_i)^2 per assigned place, plus the raw sum."""
    entries = tuple((label, q.k * v * v) for label, v in _assigned_values(q, net, m))
    return Probabilities(entries, sum(p for _, p in entries))


def superpose(m1: Sequence[float], m2: Sequence[float]) -> Marking:
    """Entrywise sum of two markings over the same net."""
    if len(m1) != len(m2):
        raise QpnError(f"marking dimensions differ: {len(m1)} vs {len(m2)}")
    return [a + b for a, b in zip(m1, m2)]


def measure(
    q: QuantumMapping,
    net: PetriNet,
    m: Sequence[float],
    rng: random.Random,
    normalize: bool = False,
) -> tuple[str, str]:
    """Sample an assigned place with probability k * M(p)^2.

    Returns (place id, eigenstate label).  Without ``normalize`` the
    distribution must already sum to 1 within 1e-6; with it, probabilities are
    renormalized by their total.  Deterministic for a fixed rng state.
    """
    probs = probabilities(q, net, m)
    if probs.total <= 0.0:
        raise AllZeroError("every assigned place has zero marking")
    if not normalize and abs(probs.total - 1.0) > 1e-6:
        raise NotNormalizedError(
            f"probabilities sum to {probs.total!r}; pass normalize=True to renormalize"
        )
    return q.assignments[_cumulative_draw([p for _, p in probs.entries], probs.total, rng)]
