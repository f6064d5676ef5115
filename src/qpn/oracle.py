"""Independent references used to validate net simulations.

These are closed forms and small recursions computed without the Petri-net
engine, so a net run and its oracle are two genuinely different routes to the
same number:

* :func:`zeno_oracle` - survival/transfer probabilities after N weak-rotation
  cycles with per-cycle observation;
* :func:`passing_oracle` / :func:`blocking_oracle` - detector probabilities of
  the nested-interferometer protocol in its two operating modes;
* :func:`exact_measurement_dist` - enumerated choice distribution of a single
  conflict group;
* :func:`bfs_reach` - reachable and quiescent markings of integer-weighted
  counter nets, a view of :func:`qpn.analysis.reachability_graph`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import expr as _expr
from .analysis import reachability_graph
from .errors import InvalidParamsError, MultipleGroupsError, NonFiniteResultError, ZeroWeightGroupError
from .net import PetriNet, conflict_groups, marking_env

__all__ = [
    "DetectionReport",
    "zeno_oracle",
    "passing_oracle",
    "blocking_oracle",
    "exact_measurement_dist",
    "bfs_reach",
]


def _check_cycles(least: int, **counts: int) -> None:
    """Raise InvalidParamsError unless every count is in [least, 2^53].

    2^53 is the largest cycle count a float counter place holds exactly.
    """
    if not all(least <= n <= 2**53 for n in counts.values()):
        got = ", ".join(f"{name}={n}" for name, n in counts.items())
        raise InvalidParamsError(f"cycle counts must be in [{least}, 2^53], got {got}")


@dataclass(frozen=True)
class DetectionReport:
    """Where the probability mass ends up after one protocol run.

    d1/d2 are the detector probabilities; absorbed is the blocker-side loss;
    discarded is the mass dumped on the monitoring detector in passing mode.
    The four always sum to 1 (within float rounding).
    """

    d1: float
    d2: float
    absorbed: float
    discarded: float

    @property
    def total(self) -> float:
        return self.d1 + self.d2 + self.absorbed + self.discarded


def zeno_oracle(n_cycles: int) -> tuple[float, float]:
    """(p10, p01) after N cycles of rotation by pi/2N with observation.

    p10 = cos^(2N), p01 = cos^(2(N-1)) * sin^2, both at angle pi/(2N): the
    initial state survives with probability approaching 1 as N grows.
    """
    _check_cycles(1, N=n_cycles)
    theta = math.pi / (2 * n_cycles)
    c, s = math.cos(theta), math.sin(theta)
    p10 = c ** (2 * n_cycles)
    p01 = c ** (2 * (n_cycles - 1)) * s * s
    return p10, p01


def passing_oracle(n_inner: int, m_outer: int) -> DetectionReport:
    """Passing mode: survival cos^(2M)(pi/2M) at D1, rest discarded at D3.

    Every outer cycle the channel-side component completes a full inner
    rotation and is dumped on D3, so the result is independent of N.
    """
    _check_cycles(1, N=n_inner, M=m_outer)
    d1 = math.cos(math.pi / (2 * m_outer)) ** (2 * m_outer)
    return DetectionReport(d1=d1, d2=0.0, absorbed=0.0, discarded=1.0 - d1)


def blocking_oracle(n_inner: int, m_outer: int) -> DetectionReport:
    """Blocking mode: damped two-arm rotation iterated for M outer cycles.

    Per outer cycle the channel arm first survives the blocked inner chain
    with amplitude factor a = cos^N(pi/2N) (the rest is absorbed), then the
    outer beamsplitter rotates the pair by pi/2M:

        L' = cos(theta) * L - sin(theta) * a * R
        R' = sin(theta) * L + cos(theta) * a * R

    starting from (L, R) = (1, 0).  D2 = R_M^2, D1 = L_M^2, absorbed is the
    remainder.
    """
    _check_cycles(2, N=n_inner, M=m_outer)
    theta = math.pi / (2 * m_outer)
    c, s = math.cos(theta), math.sin(theta)
    a = math.cos(math.pi / (2 * n_inner)) ** n_inner
    left, right = 1.0, 0.0
    for _ in range(m_outer):
        damped = a * right
        left, right = c * left - s * damped, s * left + c * damped
    d1 = left * left
    d2 = right * right
    return DetectionReport(d1=d1, d2=d2, absorbed=1.0 - d1 - d2, discarded=0.0)


def exact_measurement_dist(net: PetriNet) -> list[tuple[str, float]]:
    """Choice distribution of the initial marking's single conflict group.

    Probability of each member is proportional to its total squared output
    weight, normalized over the group; a total that is not finite raises.
    """
    m0 = net.initial_marking()
    groups = conflict_groups(net, m0)
    if len(groups) != 1:
        raise MultipleGroupsError(
            f"initial marking has {len(groups)} conflict groups, need exactly 1"
        )
    env = marking_env(net, m0)
    weights, total = [], 0.0
    for tid in groups[0]:
        weight = 0.0
        for arc in net.output_arcs(tid):
            w = _expr.evaluate(arc.weight, env)
            weight += w * w
        weights.append(weight)
        total += weight  # in order, as a Born draw totals them
    if not math.isfinite(total):
        raise NonFiniteResultError(f"conflict group's squared output weights sum to {total!r}")
    if total <= 0.0:
        raise ZeroWeightGroupError("conflict group has zero total squared output weight")
    return [(tid, w / total) for tid, w in zip(groups[0], weights)]


def bfs_reach(net: PetriNet, max_states: int = 10_000) -> tuple[list[tuple[float, ...]], set[tuple[float, ...]]]:
    """Breadth-first closure under firing from the initial marking.

    Returns (markings in discovery order, quiescent subset): a view of
    :func:`qpn.analysis.reachability_graph`.  Only defined for counter-only
    nets with constant integer weights; raises StateExplosionError past
    ``max_states`` states.
    """
    graph = reachability_graph(net, max_states)
    return list(graph.nodes), {graph.nodes[i] for i in graph.quiescent_nodes()}
