"""Marking <-> quantum state bridge."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpn.errors import AllZeroError, NonFiniteResultError, NotNormalizedError, QpnError, UnknownPlaceError
from qpn.models import measurement_net, zeno_net, ProtocolParams
from qpn.net import PetriNet, PlaceDecl, PlaceKind, RunConfig, run
from qpn.quantum import QuantumMapping, amplitudes, measure, probabilities, superpose

A = PlaceKind.AMPLITUDE


def _net(values: dict[str, float]) -> PetriNet:
    return PetriNet("q", [PlaceDecl(pid, A, v) for pid, v in values.items()], ["t0"], [])


class TestMapping:
    def test_k_must_be_positive(self):
        with pytest.raises(QpnError):
            QuantumMapping(k=0.0)

    def test_distinct_places_and_labels(self):
        with pytest.raises(QpnError):
            QuantumMapping(assignments=(("p1", "a"), ("p1", "b")))
        with pytest.raises(QpnError):
            QuantumMapping(assignments=(("p1", "a"), ("p2", "a")))


class TestAmplitudes:
    def test_identity_at_k_one(self):
        net = _net({"p11": 0.8})
        q = QuantumMapping(k=1.0, assignments=(("p11", "|10>"),))
        sv = amplitudes(q, net, net.initial_marking())
        assert sv.amplitude("|10>") == pytest.approx(0.8)

    def test_token_scaling_encoding(self):
        # 10^14 tokens at k = 1e-28 encode a unit amplitude
        net = _net({"p": 1e14})
        q = QuantumMapping(k=1e-28, assignments=(("p", "s"),))
        assert amplitudes(q, net, net.initial_marking()).amplitude("s") == pytest.approx(1.0)

    def test_sqrt_k_scaling(self):
        net = _net({"p": 0.5})
        q = QuantumMapping(k=4.0, assignments=(("p", "s"),))
        sv = amplitudes(q, net, net.initial_marking())
        assert sv.amplitude("s") == pytest.approx(1.0)
        assert sv.norm_squared() == pytest.approx(1.0)

    def test_sign_preserved(self):
        net = _net({"p": -0.6})
        q = QuantumMapping(k=1.0, assignments=(("p", "s"),))
        assert amplitudes(q, net, net.initial_marking()).amplitude("s") == pytest.approx(-0.6)

    def test_unknown_place(self):
        net = _net({"p": 1.0})
        q = QuantumMapping(assignments=(("nope", "s"),))
        with pytest.raises(UnknownPlaceError):
            amplitudes(q, net, net.initial_marking())


class TestProbabilities:
    def test_measurement_branch_is_one_third(self):
        net, mapping = measurement_net()
        from qpn.net import fire

        m = fire(net, net.initial_marking(), "t1")
        probs = probabilities(mapping, net, m)
        assert probs.probability("e1") == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert probs.total == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_all_zero(self):
        net = _net({"p": 0.0, "q": 0.0})
        q = QuantumMapping(assignments=(("p", "a"), ("q", "b")))
        probs = probabilities(q, net, [0.0, 0.0])
        assert [p for _, p in probs.entries] == [0.0, 0.0]
        assert probs.total == 0.0

    def test_zeno_final_probability(self):
        net, mapping = zeno_net(ProtocolParams(N=4))
        trace = run(net, net.initial_marking(), RunConfig(max_steps=100))
        probs = probabilities(mapping, net, trace.final)
        assert probs.probability("|10>") == pytest.approx(math.cos(math.pi / 8) ** 8, abs=1e-12)

    def test_total_reports_leak(self):
        net = _net({"p": 0.5, "q": 0.5})
        q = QuantumMapping(assignments=(("p", "a"), ("q", "b")))
        assert probabilities(q, net, [0.5, 0.5]).total == pytest.approx(0.5)

    def test_total_adds_in_order(self):
        """The total is the last running sum measure() draws against, on every Python version:
        the builtin sum() would give 1.0000000000000002 here from 3.12 on."""
        net = _net({"p": 1.0, "q": 1e-8, "r": 1e-8})
        q = QuantumMapping(assignments=(("p", "a"), ("q", "b"), ("r", "c")))
        m = net.initial_marking()
        assert probabilities(q, net, m).total == 1.0
        assert amplitudes(q, net, m).norm_squared() == 1.0


class TestSuperpose:
    def test_entrywise_sum(self):
        assert superpose([1.0, 0.0], [0.0, 1.0]) == [1.0, 1.0]

    def test_destructive_interference(self):
        assert superpose([0.6, 0.0], [-0.6, 0.0]) == [0.0, 0.0]

    def test_identity(self):
        assert superpose([0.3, -0.7], [0.0, 0.0]) == [0.3, -0.7]

    def test_dimension_mismatch(self):
        with pytest.raises(QpnError):
            superpose([1.0], [1.0, 2.0])

    def test_probability_cross_term(self):
        # |a+b|^2 = |a|^2 + |b|^2 + 2*k*a*b per place: squaring is not additive
        net = _net({"p": 0.0, "q": 0.0})
        k = 2.5
        q = QuantumMapping(k=k, assignments=(("p", "a"), ("q", "b")))
        m1, m2 = [0.6, -0.2], [0.3, 0.5]
        combined = probabilities(q, net, superpose(m1, m2))
        p1 = probabilities(q, net, m1)
        p2 = probabilities(q, net, m2)
        for i, (label, value) in enumerate(combined.entries):
            cross = 2.0 * k * m1[i] * m2[i]
            assert value == pytest.approx(p1.entries[i][1] + p2.entries[i][1] + cross, abs=1e-12)


class TestMeasure:
    def test_degenerate_distribution(self):
        net = _net({"p": 1.0, "q": 0.0, "r": 0.0})
        q = QuantumMapping(assignments=(("p", "a"), ("q", "b"), ("r", "c")))
        for seed in range(20):
            assert measure(q, net, [1.0, 0.0, 0.0], random.Random(seed)) == ("p", "a")

    def test_measurement_outputs_uniform(self):
        net, mapping = measurement_net()
        w = 1.0 / math.sqrt(3.0)
        marking = [0.0, w, w, w]
        counts = {"e1": 0, "e2": 0, "e3": 0}
        runs = 100_000
        rng = random.Random(2024)
        for _ in range(runs):
            _, label = measure(mapping, net, marking, rng)
            counts[label] += 1
        sigma = math.sqrt((1 / 3) * (2 / 3) / runs)
        for label, count in counts.items():
            assert abs(count / runs - 1 / 3) <= 4 * sigma

    def test_bell_style_half_half(self):
        net = _net({"p": 1 / math.sqrt(2), "q": 1 / math.sqrt(2)})
        q = QuantumMapping(assignments=(("p", "0"), ("q", "1")))
        runs = 30_000
        heads = sum(
            1
            for i in range(runs)
            if measure(q, net, net.initial_marking(), random.Random(i))[1] == "0"
        )
        sigma = math.sqrt(0.25 / runs)
        assert abs(heads / runs - 0.5) <= 4 * sigma

    def test_not_normalized_guard(self):
        net = _net({"p": 0.5})
        q = QuantumMapping(assignments=(("p", "a"),))
        with pytest.raises(NotNormalizedError):
            measure(q, net, [0.5], random.Random(0))
        assert measure(q, net, [0.5], random.Random(0), normalize=True) == ("p", "a")

    def test_all_zero(self):
        net = _net({"p": 0.0})
        q = QuantumMapping(assignments=(("p", "a"),))
        with pytest.raises(AllZeroError):
            measure(q, net, [0.0], random.Random(0), normalize=True)

    def test_non_finite_total(self):
        """Probabilities of 1e200 amplitudes sum to inf: no label can be drawn."""
        net = _net({"p": 1e200, "r": 1e200})
        q = QuantumMapping(assignments=(("p", "a"), ("r", "b")))
        for seed in range(5):
            with pytest.raises(NonFiniteResultError):
                measure(q, net, [1e200, 1e200], random.Random(seed), normalize=True)

    def test_deterministic_under_fixed_rng(self):
        net, mapping = measurement_net()
        w = 1.0 / math.sqrt(3.0)
        marking = [0.0, w, w, w]
        a = [measure(mapping, net, marking, random.Random(i)) for i in range(100)]
        b = [measure(mapping, net, marking, random.Random(i)) for i in range(100)]
        assert a == b


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=3, max_size=3),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.01, max_value=50.0),
)
def test_scale_invariance(values, k, c):
    """(k, m) and (k/c^2, c*m) give the same probabilities within 1e-12."""
    net = _net({"p0": 0.0, "p1": 0.0, "p2": 0.0})
    assignments = (("p0", "a"), ("p1", "b"), ("p2", "c"))
    base = probabilities(QuantumMapping(k=k, assignments=assignments), net, values)
    scaled = probabilities(
        QuantumMapping(k=k / c**2, assignments=assignments), net, [c * v for v in values]
    )
    for (_, x), (_, y) in zip(base.entries, scaled.entries):
        assert x == pytest.approx(y, rel=1e-12, abs=1e-12)
    assert base.total == pytest.approx(scaled.total, rel=1e-12, abs=1e-12)
