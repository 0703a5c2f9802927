"""Quality metric tests; the numeric examples are frozen by hand."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubolab.model import (
    QuboProblem,
    bits_to_str,
    brute_force_solve,
    int_to_bits,
    qubo_cost_vector,
)
from qubolab.quality import (
    Distribution,
    QualityReport,
    RelativeError,
    hellinger_fidelity,
    random_baseline,
    relative_error,
    solution_rates,
    state_fidelity,
)
from qubolab.simulator import SampleSet, StateVector, sample


def test_fidelity_identical_distributions():
    p = Distribution({"00": 0.25, "01": 0.75})
    assert abs(hellinger_fidelity(p, p) - 1.0) < 1e-12


def test_fidelity_disjoint_supports():
    p = Distribution({"00": 1.0})
    q = Distribution({"11": 1.0})
    assert hellinger_fidelity(p, q) == 0.0


def test_fidelity_half_overlap_example():
    p = Distribution({"00": 1.0})
    q = Distribution({"00": 0.5, "01": 0.5})
    assert abs(hellinger_fidelity(p, q) - 0.5) < 1e-12


def test_distribution_rejects_unnormalized():
    with pytest.raises(ValueError):
        Distribution({"0": 0.4, "1": 0.4})
    with pytest.raises(ValueError):
        Distribution({"0": -0.1, "1": 1.1})


@settings(max_examples=40)
@given(
    st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
    st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
)
def test_fidelity_symmetric_and_bounded(wa, wb):
    keys = [format(i, "03b") for i in range(8)]
    p = Distribution({keys[i]: w / sum(wa) for i, w in enumerate(wa)})
    q = Distribution({keys[i]: w / sum(wb) for i, w in enumerate(wb)})
    f_pq = hellinger_fidelity(p, q)
    f_qp = hellinger_fidelity(q, p)
    assert abs(f_pq - f_qp) < 1e-12
    assert -1e-12 <= f_pq <= 1.0 + 1e-9


def test_distribution_rejects_malformed_keys():
    for probs in ({"200000": 1.0}, {"0b": 1.0}, {"0": 0.5, "01": 0.5}, {10: 0.5, 11: 0.5}):
        with pytest.raises(ValueError):
            Distribution(probs)


def test_distribution_from_sampleset_and_state():
    d = Distribution.from_sampleset(SampleSet({"00": 3, "10": 1}, shots=4))
    assert d.probs == {"00": 0.75, "10": 0.25}
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 2 ** -0.5
    d = Distribution.from_state(StateVector(amps, 2))
    assert set(d.probs) == {"00", "11"}
    assert abs(d.probs["00"] - 0.5) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_state_fidelity_equals_fidelity_against_from_state(seed, n):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps[rng.random(1 << n) < 0.2] = 0.0
    amps[0] = 1.0
    state = StateVector(amps / np.linalg.norm(amps), n)
    samples = sample(state, 200, seed)
    empirical = Distribution.from_sampleset(samples)
    exact = Distribution.from_state(state)
    assert state_fidelity(empirical, state) == hellinger_fidelity(empirical, exact)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10))
def test_from_state_equals_per_string_comprehension(seed, n):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps[rng.random(1 << n) < 0.3] = 0.0
    amps[-1] = 1.0
    state = StateVector(amps / np.linalg.norm(amps), n)
    expected = {
        bits_to_str(int_to_bits(v, n)): float(p)
        for v, p in enumerate(state.probabilities())
        if p > 0.0
    }
    got = Distribution.from_state(state).probs
    assert list(got.items()) == list(expected.items())


def test_fidelity_rejects_mismatched_bit_widths():
    p = Distribution({"00": 1.0})
    with pytest.raises(ValueError):
        hellinger_fidelity(p, Distribution({"000": 1.0}))
    with pytest.raises(ValueError):
        hellinger_fidelity(p, Distribution({"0": 0.5, "01": 0.5}))
    with pytest.raises(ValueError):
        state_fidelity(p, StateVector.plus_state(3))


# ---------------------------------------------------------------------------
# relative error


def two_cost_qubo():
    # costs: bit 0 -> 1, bit 1 -> 3
    return QuboProblem(Q=[[2.0]], constant=1.0)


def test_relative_error_zero_when_concentrated_on_optimum():
    qubo = two_cost_qubo()
    err = relative_error(Distribution({"0": 1.0}), qubo, c_opt=1.0)
    assert err.value == 0.0 and not err.is_absolute


def test_relative_error_uniform_over_costs_c_and_3c():
    qubo = two_cost_qubo()
    err = relative_error(Distribution({"0": 0.5, "1": 0.5}), qubo, c_opt=1.0)
    assert abs(err.value - 1.0) < 1e-12


def test_relative_error_fallback_at_zero_optimum():
    qubo = QuboProblem(Q=[[2.0]], constant=0.0)  # costs {0, 2}
    err = relative_error(Distribution({"0": 0.5, "1": 0.5}), qubo, c_opt=0.0)
    assert err.is_absolute
    assert abs(err.value - 1.0) < 1e-12  # mean cost 1, absolute difference


def test_random_baseline_deterministic_and_positive():
    rng = np.random.default_rng(2)
    q = np.triu(rng.uniform(-1, 1, (4, 4)))
    qubo = QuboProblem(Q=q, constant=0.0)
    a = random_baseline(4, qubo, trials=5, seed=9)
    b = random_baseline(4, qubo, trials=5, seed=9)
    assert a == b
    assert a.value > 0.0


def test_random_baseline_converges_to_uniform_error():
    rng = np.random.default_rng(3)
    q = np.triu(rng.uniform(0.5, 2.0, (6, 6)))
    qubo = QuboProblem(Q=q, constant=-3.0)  # keeps the optimum away from zero
    report = brute_force_solve(qubo)
    uniform_mean = qubo_cost_vector(qubo).mean()
    uniform_err = abs(uniform_mean - report.optimal_cost) / abs(report.optimal_cost)
    base = random_baseline(6, qubo, trials=200, seed=4)
    assert abs(base.value - uniform_err) / uniform_err < 0.05


def test_random_baseline_beats_trained_state_direction():
    # a distribution concentrated on the optimum scores below the baseline
    rng = np.random.default_rng(5)
    q = np.triu(rng.uniform(0.5, 2.0, (4, 4)))
    qubo = QuboProblem(Q=q, constant=1.0)
    report = brute_force_solve(qubo)
    exact = relative_error(
        Distribution({report.optimal_set[0]: 1.0}), qubo, report.optimal_cost
    )
    base = random_baseline(4, qubo, trials=50, seed=6)
    assert exact.value < base.value


# ---------------------------------------------------------------------------
# solution rates


def test_solution_rates_arithmetic_example():
    counts = {"000": 300, "001": 60, "010": 40}
    samples = SampleSet(counts, shots=400)
    table = {"000": (False, 0.0), "001": (True, 5.0), "010": (True, 3.0)}
    feasible, optimal = solution_rates(samples, lambda s: table[s], c_opt=3.0)
    assert feasible == 25.0
    assert optimal == 10.0


def test_solution_rates_all_optimal_and_none_feasible():
    samples = SampleSet({"11": 10}, shots=10)
    assert solution_rates(samples, lambda s: (True, 1.0), 1.0) == (100.0, 100.0)
    assert solution_rates(samples, lambda s: (False, 0.0), 1.0) == (0.0, 0.0)


def test_solution_rates_optimal_never_exceeds_feasible():
    rng = np.random.default_rng(7)
    for _ in range(20):
        keys = [format(v, "04b")[::-1] for v in range(16)]
        counts = {k: int(rng.integers(0, 30)) for k in keys}
        counts = {k: c for k, c in counts.items() if c}
        if not counts:
            continue
        samples = SampleSet(counts, shots=sum(counts.values()))
        verdict = {k: (bool(rng.integers(2)), float(rng.integers(3))) for k in keys}
        feasible, optimal = solution_rates(samples, lambda s: verdict[s], c_opt=1.0)
        assert 0.0 <= optimal <= feasible <= 100.0


def test_solution_rates_rejects_empty():
    with pytest.raises(ValueError):
        solution_rates(SampleSet({}, shots=0), lambda s: (True, 0.0), 0.0)


def test_quality_report_validation():
    QualityReport(1.0, 0.1, 0.5, 50.0, 10.0)
    with pytest.raises(ValueError):
        QualityReport(1.5, 0.1, 0.5, 50.0, 10.0)
    with pytest.raises(ValueError):
        QualityReport(0.5, 0.1, 0.5, 101.0, 10.0)


def test_relative_error_is_namedtuple():
    err = RelativeError(0.25, False)
    assert err.value == 0.25
    assert err.is_absolute is False
