"""Builders for the five bundled nets.

* :func:`measurement_net` - one token split over three branches, a conflict
  group whose resolution realizes projective measurement;
* :func:`entanglement_net` - two correlated token sources, the Bell-pair
  picture (firing either source fixes both "qubits" at once);
* :func:`zeno_net` - an N-cycle weak-rotation loop with per-cycle observation,
  the quantum Zeno effect;
* :func:`slaz_blocking_net` / :func:`slaz_passing_net` - the two operating
  modes of the SLAZ2013 direct counterfactual communication protocol, nested
  chained interferometers with N inner and M outer cycles.

The interferometer nets run under deterministic priority with exactly one
transition enabled at every non-quiescent step; a control token threads
through the phases of each cycle while amplitude places carry the evolving
state.  Amplitude places are rewritten with compensating deposits
(``m(px)-m(py)`` and ``0-m(px)``) rather than drain arcs because a drain
cannot fire while its place sits at zero, and interferometer arms legitimately
hold zero amplitude.  Loss-accumulator places (``p_abs``, ``p_d3``) hold
probability (k times squared amplitude) directly, so run reports conserve
total probability.

A few declared transitions of the interferometer nets are defensive
scavengers: their drain inputs are provably empty at the only moments their
control input is marked, so they never fire in a normal run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParamsError
from .expr import _fmt_number
from .net import (
    Arc,
    ArcKind,
    FinalState,
    PetriNet,
    PlaceDecl,
    PlaceKind,
    Policy,
    RunConfig,
    run_final,
)
from .oracle import DetectionReport, _check_cycles
from .quantum import QuantumMapping

__all__ = [
    "ProtocolParams",
    "measurement_net",
    "entanglement_net",
    "zeno_net",
    "slaz_blocking_net",
    "slaz_passing_net",
    "zeno_report",
    "detection_report",
    "run_to_quiescence",
]

_COUNTER = PlaceKind.COUNTER
_AMPLITUDE = PlaceKind.AMPLITUDE


@dataclass(frozen=True)
class ProtocolParams:
    """Inner cycle count N, outer cycle count M, amplitude scale constant k."""

    N: int
    M: int = 1
    k: float = 1.0

    def __post_init__(self) -> None:
        _check_cycles(1, N=self.N, M=self.M)
        if not (self.k > 0):
            raise InvalidParamsError(f"k must be positive, got {self.k}")


def _scaled(text: str, factor: float) -> str:
    return text if factor == 1.0 else f"{text}*{_fmt_number(factor)}"


# --- measurement -------------------------------------------------------------------


def measurement_net() -> tuple[PetriNet, QuantumMapping]:
    """One source place feeding three transitions that deposit 1/sqrt(3) each.

    All three compete for the single token of p1, so a BornRandom run picks
    exactly one branch, each with probability 1/3.
    """
    w = "1/sqrt(3)"
    net = PetriNet(
        "measurement",
        places=[
            PlaceDecl("p1", _COUNTER, 1),
            PlaceDecl("p2", _AMPLITUDE),
            PlaceDecl("p3", _AMPLITUDE),
            PlaceDecl("p4", _AMPLITUDE),
        ],
        transitions=["t1", "t2", "t3"],
        arcs=[
            Arc("p1", "t1"),
            Arc("p1", "t2"),
            Arc("p1", "t3"),
            Arc("t1", "p2", w),
            Arc("t2", "p3", w),
            Arc("t3", "p4", w),
        ],
    )
    mapping = QuantumMapping(k=1.0, assignments=(("p2", "e1"), ("p3", "e2"), ("p4", "e3")))
    return net, mapping


# --- entanglement ------------------------------------------------------------------


def entanglement_net() -> PetriNet:
    """Two token sources with paired deposits: p3/p5 and p4/p6 always agree.

    Firing t1 or t3 marks both p3 and p5; firing t2 or t4 marks both p4 and
    p6, so observing one side fixes the other - the Bell-pair correlation.
    """
    return PetriNet(
        "entanglement",
        places=[
            PlaceDecl("p1", _COUNTER, 1),
            PlaceDecl("p2", _COUNTER, 1),
            PlaceDecl("p3", _COUNTER),
            PlaceDecl("p4", _COUNTER),
            PlaceDecl("p5", _COUNTER),
            PlaceDecl("p6", _COUNTER),
        ],
        transitions=["t1", "t2", "t3", "t4"],
        arcs=[
            Arc("p1", "t1"),
            Arc("p1", "t2"),
            Arc("p2", "t3"),
            Arc("p2", "t4"),
            Arc("t1", "p3"),
            Arc("t1", "p5"),
            Arc("t2", "p4"),
            Arc("t2", "p6"),
            Arc("t3", "p3"),
            Arc("t3", "p5"),
            Arc("t4", "p4"),
            Arc("t4", "p6"),
        ],
    )


# --- quantum Zeno ------------------------------------------------------------------


def zeno_net(params: ProtocolParams) -> tuple[PetriNet, QuantumMapping]:
    """N-cycle weak-rotation loop; p11/p12 end up holding the final amplitudes.

    p9 stores the fixed cycle count N, so the per-cycle angle is the
    marking-dependent pi/(2*m(p9)).  The first rotation happens at injection
    (t2), the last at the final split (t6); the loop body (t3 rotate into the
    p6 buffer, t4 absorb the stale amplitude, t5 return the buffer) runs the
    remaining N-2 cycles, metered by the p7 budget against the p10 tally.
    After the run, k*M(p11)^2 = cos^(2N)(pi/2N) and
    k*M(p12)^2 = cos^(2(N-1))(pi/2N)*sin^2(pi/2N).
    """
    if params.N < 2:
        raise InvalidParamsError(f"zeno net needs N >= 2, got {params.N}")
    n, k = params.N, params.k
    cos_theta = "cos(pi/(2*m(p9)))"
    sin_theta = "sin(pi/(2*m(p9)))"
    net = PetriNet(
        "zeno",
        places=[
            PlaceDecl("p1", _COUNTER),                # control: init -> inject
            PlaceDecl("p2", _AMPLITUDE),              # evolving amplitude
            PlaceDecl("p3", _COUNTER, 1),             # start token
            PlaceDecl("p4", _COUNTER),                # control: loop entry
            PlaceDecl("p5", _COUNTER),                # control: rotate -> absorb
            PlaceDecl("p6", _AMPLITUDE),              # rotation buffer
            PlaceDecl("p7", _COUNTER),                # loop budget (N-2, from t1)
            PlaceDecl("p8", _COUNTER),                # control: absorb -> return
            PlaceDecl("p9", _COUNTER, n),             # cycle count, constant
            PlaceDecl("p10", _COUNTER),               # completed loop iterations
            PlaceDecl("p11", _AMPLITUDE),             # final amplitude, surviving arm
            PlaceDecl("p12", _AMPLITUDE),             # final amplitude, transferred arm
            PlaceDecl("p13", _COUNTER, 1),            # photon trigger
        ],
        transitions=["t1", "t2", "t3", "t4", "t5", "t6"],
        arcs=[
            # t1 init: hand out the loop budget
            Arc("p3", "t1"),
            Arc("t1", "p7", "m(p9)-2"),
            Arc("t1", "p1"),
            # t2 inject: first rotation, leaked component observed away
            Arc("p1", "t2"),
            Arc("p13", "t2"),
            Arc("t2", "p2", _scaled(cos_theta, 1.0 / math.sqrt(k))),
            Arc("t2", "p4"),
            # t3 rotate current amplitude into the buffer
            Arc("p4", "t3"),
            Arc("p7", "t3"),
            Arc("t3", "p6", f"{cos_theta}*m(p2)"),
            Arc("t3", "p10"),
            Arc("t3", "p5"),
            # t4 absorb the stale amplitude (the observation)
            Arc("p5", "t4"),
            Arc("p2", "t4", "m(p2)", ArcKind.DRAIN),
            Arc("t4", "p8"),
            # t5 return the buffer
            Arc("p8", "t5"),
            Arc("p6", "t5", "m(p6)", ArcKind.DRAIN),
            Arc("t5", "p2", "m(p6)"),
            Arc("t5", "p4"),
            # t6 final split once the tally reaches N-2
            Arc("p4", "t6"),
            Arc("p10", "t6", "m(p9)-2"),
            Arc("p2", "t6", "m(p2)", ArcKind.DRAIN),
            Arc("t6", "p11", f"{cos_theta}*m(p2)"),
            Arc("t6", "p12", f"{sin_theta}*m(p2)"),
        ],
    )
    mapping = QuantumMapping(k=k, assignments=(("p11", "|10>"), ("p12", "|01>")))
    return net, mapping


def zeno_expected_firings(n: int) -> int:
    return 3 * n - 3


# --- SLAZ2013 blocking mode ----------------------------------------------------------


def slaz_blocking_net(params: ProtocolParams) -> tuple[PetriNet, QuantumMapping]:
    """Blocking mode: the channel is obstructed, logic "1".

    Per outer cycle the control token enters the inner loop (t11/t18, N
    iterations), where the channel-arm amplitude p21 is damped by
    cos(pi/2N) per iteration and the blocked remainder accumulates in p_abs
    as probability; the outer beamsplitter pair (t1/t6) then rotates
    (p2, p21) by pi/2M through the p5/p11 buffers.  After M cycles detector
    probabilities are k*M(p2)^2 at D1 and k*M(p21)^2 at D2.

    t15/t16 are scavengers (see module docstring); the p6/p22 fuel counters
    meter the outer and inner loops, p7/p23 tally completed cycles.
    """
    n, m, k = params.N, params.M, params.k
    if n < 2 or m < 2:
        raise InvalidParamsError(f"blocking net needs N, M >= 2, got N={n}, M={m}")
    cos_m, sin_m = f"cos(pi/(2*{m}))", f"sin(pi/(2*{m}))"
    cos_n, sin_n = f"cos(pi/(2*{n}))", f"sin(pi/(2*{n}))"
    absorb = _scaled(f"{sin_n}^2*m(p21)^2", k)
    net = PetriNet(
        "slaz-blocking",
        places=[
            PlaceDecl("p1", _COUNTER, 1),             # control: cycle start
            PlaceDecl("p2", _AMPLITUDE, 1.0 / math.sqrt(k)),  # left arm |100>
            PlaceDecl("p3", _COUNTER),                # control: inner exit -> relay
            PlaceDecl("p4", _COUNTER),                # control: pre-beamsplitter
            PlaceDecl("p5", _AMPLITUDE),              # new left-arm buffer
            PlaceDecl("p6", _COUNTER, m * m),         # outer fuel (t1 burns M per cycle)
            PlaceDecl("p7", _COUNTER),                # outer cycle tally
            PlaceDecl("p8", _COUNTER),                # control: t1 -> t6
            PlaceDecl("p9", _COUNTER),                # control: t6 -> t2
            PlaceDecl("p10", _COUNTER),               # control: t2 -> t14
            PlaceDecl("p11", _AMPLITUDE),             # new right-arm buffer
            PlaceDecl("p12", _COUNTER),               # control: t14 -> t3
            PlaceDecl("p13", _COUNTER),               # control: t3 -> t13
            PlaceDecl("p14", _COUNTER),               # control: cycle boundary
            PlaceDecl("p15", _COUNTER),               # control: inner rotate turn
            PlaceDecl("p16", _COUNTER),               # control: inner swap turn
            PlaceDecl("p17", _COUNTER),               # control: entry hop 1
            PlaceDecl("p18", _COUNTER),               # control: t13 -> t8
            PlaceDecl("p19", _AMPLITUDE),             # inner rotation buffer
            PlaceDecl("p20", _COUNTER),               # control: entry hop 2
            PlaceDecl("p21", _AMPLITUDE),             # right arm |010>
            PlaceDecl("p22", _COUNTER),               # inner fuel (refilled N*N per cycle)
            PlaceDecl("p23", _COUNTER),               # inner iteration tally
            PlaceDecl("p_abs", _AMPLITUDE),           # blocker absorption (probability)
        ],
        transitions=[f"t{i}" for i in range(1, 19)],
        arcs=[
            # entry: refuel the inner loop and thread the control token
            Arc("p1", "t7"),
            Arc("t7", "p22", _fmt_number(n * n)),
            Arc("t7", "p17"),
            Arc("p17", "t17"),
            Arc("t17", "p20"),
            Arc("p20", "t12"),
            Arc("t12", "p15"),
            # inner loop, N iterations: damp p21, absorb the blocked remainder
            Arc("p15", "t11"),
            Arc("p22", "t11", _fmt_number(n)),
            Arc("t11", "p19", f"{cos_n}*m(p21)"),
            Arc("t11", "p_abs", absorb),
            Arc("t11", "p23"),
            Arc("t11", "p16"),
            Arc("p16", "t18"),
            Arc("t18", "p21", "m(p19)-m(p21)"),
            Arc("t18", "p19", "0-m(p19)"),
            Arc("t18", "p15"),
            # inner exit once the tally reaches N
            Arc("p15", "t4"),
            Arc("p23", "t4", _fmt_number(n)),
            Arc("t4", "p3"),
            Arc("p3", "t5"),
            Arc("t5", "p4"),
            # outer beamsplitter: compute both new arms from the same snapshot
            Arc("p4", "t1"),
            Arc("p6", "t1", _fmt_number(m)),
            Arc("t1", "p5", f"{cos_m}*m(p2)-{sin_m}*m(p21)"),
            Arc("t1", "p7"),
            Arc("t1", "p8"),
            Arc("p8", "t6"),
            Arc("t6", "p11", f"{sin_m}*m(p2)+{cos_m}*m(p21)"),
            Arc("t6", "p9"),
            # clear both arms, then store the buffers
            Arc("p9", "t2"),
            Arc("t2", "p2", "0-m(p2)"),
            Arc("t2", "p10"),
            Arc("p10", "t14"),
            Arc("t14", "p21", "0-m(p21)"),
            Arc("t14", "p12"),
            Arc("p12", "t3"),
            Arc("t3", "p2", "m(p5)"),
            Arc("t3", "p5", "0-m(p5)"),
            Arc("t3", "p13"),
            Arc("p13", "t13"),
            Arc("t13", "p21", "m(p11)"),
            Arc("t13", "p11", "0-m(p11)"),
            Arc("t13", "p18"),
            Arc("p18", "t8"),
            Arc("t8", "p14"),
            # loop back while fuel remains, otherwise finish
            Arc("p14", "t9"),
            Arc("p6", "t9", _fmt_number(m), ArcKind.GUARD),
            Arc("t9", "p1"),
            Arc("p14", "t10"),
            Arc("p7", "t10", _fmt_number(m)),
            # scavengers: dead, their amplitude inputs are zero at the boundary
            Arc("p14", "t15"),
            Arc("p11", "t15", "m(p11)", ArcKind.DRAIN),
            Arc("t15", "p14"),
            Arc("p14", "t16"),
            Arc("p19", "t16", "m(p19)", ArcKind.DRAIN),
            Arc("t16", "p14"),
        ],
    )
    mapping = QuantumMapping(k=k, assignments=(("p2", "|100>"), ("p21", "|010>")))
    return net, mapping


def blocking_expected_firings(n: int, m: int) -> int:
    return m * (2 * n + 13)


# --- SLAZ2013 passing mode ------------------------------------------------------------


def slaz_passing_net(params: ProtocolParams) -> tuple[PetriNet, QuantumMapping]:
    """Passing mode: the channel is free, logic "0".

    Each outer cycle runs the beamsplitter pair (t1/t6) first, then the inner
    loop: a full two-arm rotation per iteration (t11 and t24 feed the p19/p25
    buffers, t18 swaps both back), so after N iterations the channel-arm
    amplitude has rotated entirely into p31, which t21 dumps on the D3
    accumulator p_d3.  The channel arm is therefore always emptied before the
    next beamsplitter and before detection, and the D1 probability k*M(p2)^2
    ends at cos^(2M)(pi/2M) independent of N, with k*M(p21)^2 negligible.

    t16/t25 are scavengers; the remaining extra transitions relay the control
    token between phases.
    """
    n, m, k = params.N, params.M, params.k
    if n < 2 or m < 2:
        raise InvalidParamsError(f"passing net needs N, M >= 2, got N={n}, M={m}")
    cos_m, sin_m = f"cos(pi/(2*{m}))", f"sin(pi/(2*{m}))"
    cos_n, sin_n = f"cos(pi/(2*{n}))", f"sin(pi/(2*{n}))"
    discard = _scaled("m(p31)^2", k)
    net = PetriNet(
        "slaz-passing",
        places=[
            PlaceDecl("p1", _COUNTER, 1),             # control: cycle start
            PlaceDecl("p2", _AMPLITUDE, 1.0 / math.sqrt(k)),  # left arm |100>
            PlaceDecl("p3", _COUNTER),                # control: inner exit -> discard
            PlaceDecl("p4", _COUNTER),                # control: discard done
            PlaceDecl("p5", _AMPLITUDE),              # new left-arm buffer
            PlaceDecl("p6", _COUNTER, m * m),         # outer fuel
            PlaceDecl("p7", _COUNTER),                # outer cycle tally
            PlaceDecl("p8", _COUNTER),                # control: t1 -> t22
            PlaceDecl("p9", _COUNTER),                # control: t6 -> t2
            PlaceDecl("p10", _COUNTER),               # control: t2 -> t26
            PlaceDecl("p11", _AMPLITUDE),             # new right-arm buffer
            PlaceDecl("p12", _COUNTER),               # control: t14 -> t19
            PlaceDecl("p13", _COUNTER),               # control: t3 -> t23
            PlaceDecl("p14", _COUNTER),               # control: cycle boundary
            PlaceDecl("p15", _COUNTER),               # control: inner rotate turn
            PlaceDecl("p16", _COUNTER),               # control: t11 -> t24
            PlaceDecl("p17", _COUNTER),               # control: store done -> refuel
            PlaceDecl("p18", _COUNTER),               # control: t24 -> t18
            PlaceDecl("p19", _AMPLITUDE),             # inner buffer, returning arm
            PlaceDecl("p20", _COUNTER),               # control: entry hop 2
            PlaceDecl("p21", _AMPLITUDE),             # right arm |010>
            PlaceDecl("p22", _COUNTER),               # inner fuel (refilled 2N*N per cycle)
            PlaceDecl("p23", _COUNTER),               # inner tally (two per iteration)
            PlaceDecl("p24", _COUNTER),               # control: t21 -> t5
            PlaceDecl("p25", _AMPLITUDE),             # inner buffer, exit arm
            PlaceDecl("p26", _COUNTER),               # control: entry hop 1
            PlaceDecl("p27", _COUNTER),               # control: t5 -> t15
            PlaceDecl("p28", _COUNTER),               # control: t22 -> t6
            PlaceDecl("p29", _COUNTER),               # control: t26 -> t14
            PlaceDecl("p30", _COUNTER),               # control: t23 -> t13
            PlaceDecl("p31", _AMPLITUDE),             # inner exit arm |001>
            PlaceDecl("p32", _COUNTER),               # control: t13 -> t8
            PlaceDecl("p33", _COUNTER),               # control: t19 -> t3
            PlaceDecl("p_d3", _AMPLITUDE),            # D3 discard accumulator (probability)
        ],
        transitions=[f"t{i}" for i in range(1, 27)],
        arcs=[
            # outer beamsplitter: compute both new arms from the same snapshot
            Arc("p1", "t1"),
            Arc("p6", "t1", _fmt_number(m)),
            Arc("t1", "p5", f"{cos_m}*m(p2)-{sin_m}*m(p21)"),
            Arc("t1", "p7"),
            Arc("t1", "p8"),
            Arc("p8", "t22"),
            Arc("t22", "p28"),
            Arc("p28", "t6"),
            Arc("t6", "p11", f"{sin_m}*m(p2)+{cos_m}*m(p21)"),
            Arc("t6", "p9"),
            # clear and store both arms
            Arc("p9", "t2"),
            Arc("t2", "p2", "0-m(p2)"),
            Arc("t2", "p10"),
            Arc("p10", "t26"),
            Arc("t26", "p29"),
            Arc("p29", "t14"),
            Arc("t14", "p21", "0-m(p21)"),
            Arc("t14", "p12"),
            Arc("p12", "t19"),
            Arc("t19", "p33"),
            Arc("p33", "t3"),
            Arc("t3", "p2", "m(p5)"),
            Arc("t3", "p5", "0-m(p5)"),
            Arc("t3", "p13"),
            Arc("p13", "t23"),
            Arc("t23", "p30"),
            Arc("p30", "t13"),
            Arc("t13", "p21", "m(p11)"),
            Arc("t13", "p11", "0-m(p11)"),
            Arc("t13", "p32"),
            Arc("p32", "t8"),
            Arc("t8", "p17"),
            # refuel and thread control into the inner loop
            Arc("p17", "t7"),
            Arc("t7", "p22", _fmt_number(2 * n * n)),
            Arc("t7", "p26"),
            Arc("p26", "t17"),
            Arc("t17", "p20"),
            Arc("p20", "t12"),
            Arc("t12", "p15"),
            # inner loop, N iterations of a full two-arm rotation
            Arc("p15", "t11"),
            Arc("p22", "t11", _fmt_number(2 * n)),
            Arc("t11", "p19", f"{cos_n}*m(p21)-{sin_n}*m(p31)"),
            Arc("t11", "p23"),
            Arc("t11", "p16"),
            Arc("p16", "t24"),
            Arc("t24", "p25", f"{sin_n}*m(p21)+{cos_n}*m(p31)"),
            Arc("t24", "p23"),
            Arc("t24", "p18"),
            Arc("p18", "t18"),
            Arc("t18", "p21", "m(p19)-m(p21)"),
            Arc("t18", "p31", "m(p25)-m(p31)"),
            Arc("t18", "p19", "0-m(p19)"),
            Arc("t18", "p25", "0-m(p25)"),
            Arc("t18", "p15"),
            # inner exit at tally 2N
            Arc("p15", "t4"),
            Arc("p23", "t4", _fmt_number(2 * n)),
            Arc("t4", "p3"),
            # discard the rotated-out component on D3
            Arc("p3", "t21"),
            Arc("t21", "p_d3", discard),
            Arc("t21", "p31", "0-m(p31)"),
            Arc("t21", "p24"),
            Arc("p24", "t5"),
            Arc("t5", "p27"),
            Arc("p27", "t15"),
            Arc("t15", "p4"),
            Arc("p4", "t20"),
            Arc("t20", "p14"),
            # loop back or finish
            Arc("p14", "t9"),
            Arc("p6", "t9", _fmt_number(m), ArcKind.GUARD),
            Arc("t9", "p1"),
            Arc("p14", "t10"),
            Arc("p7", "t10", _fmt_number(m)),
            # scavengers
            Arc("p14", "t16"),
            Arc("p19", "t16", "m(p19)", ArcKind.DRAIN),
            Arc("t16", "p14"),
            Arc("p14", "t25"),
            Arc("p25", "t25", "m(p25)", ArcKind.DRAIN),
            Arc("t25", "p14"),
        ],
    )
    mapping = QuantumMapping(k=k, assignments=(("p2", "|100>"), ("p21", "|010>")))
    return net, mapping


def passing_expected_firings(n: int, m: int) -> int:
    return m * (3 * n + 20)


# --- run helpers ------------------------------------------------------------------


def run_to_quiescence(net: PetriNet, max_steps: int) -> FinalState:
    """Deterministic run asserting the single-enabled-transition invariant."""
    config = RunConfig(policy=Policy.DETERMINISTIC_PRIORITY, max_steps=max_steps)
    final = run_final(net, net.initial_marking(), config, require_single_enabled=True)
    if final.status.value != "quiescent":
        raise InvalidParamsError(f"run did not reach quiescence within {max_steps} steps")
    return final


def zeno_report(params: ProtocolParams) -> tuple[float, float]:
    """Run the Zeno net; returns (k*M(p11)^2, k*M(p12)^2)."""
    net, mapping = zeno_net(params)
    final = run_to_quiescence(net, max_steps=zeno_expected_firings(params.N) + 8)
    m = final.marking
    i11, i12 = net.place_index["p11"], net.place_index["p12"]
    return mapping.k * m[i11] ** 2, mapping.k * m[i12] ** 2


def detection_report(mode: str, params: ProtocolParams) -> DetectionReport:
    """Build and run one protocol net; extract the detector probabilities.

    ``mode`` is "blocking" or "passing".  D1 reads k*M(p2)^2, D2 reads
    k*M(p21)^2; absorbed/discarded read the accumulator places directly.
    """
    if mode == "blocking":
        net, mapping = slaz_blocking_net(params)
        budget = blocking_expected_firings(params.N, params.M) + 8
    elif mode == "passing":
        net, mapping = slaz_passing_net(params)
        budget = passing_expected_firings(params.N, params.M) + 8
    else:
        raise InvalidParamsError(f"unknown mode {mode!r}")
    final = run_to_quiescence(net, max_steps=budget)
    m = final.marking
    k = mapping.k
    d1 = k * m[net.place_index["p2"]] ** 2
    d2 = k * m[net.place_index["p21"]] ** 2
    if mode == "blocking":
        absorbed = m[net.place_index["p_abs"]]
        discarded = 0.0
    else:
        absorbed = 0.0
        discarded = m[net.place_index["p_d3"]]
    return DetectionReport(d1=d1, d2=d2, absorbed=absorbed, discarded=discarded)
