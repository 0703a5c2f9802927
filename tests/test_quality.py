"""Quality metric tests; the numeric examples are frozen by hand."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qubolab.model import (
    QuboProblem,
    brute_force_solve,
    index_bits,
    qubo_cost_vector,
    render_bits,
)
from qubolab.quality import (
    _GUARD,
    Distribution,
    RelativeError,
    hellinger_fidelity,
    random_baseline,
    relative_error,
    solution_rates,
    state_fidelity,
)
from qubolab.simulator import SampleSet, StateVector, sample
from qubolab.usecases import TrpSpec, decode_trp

from util import (
    bits_to_str,
    bundled_qubos,
    hellinger_by_key,
    int_to_bits,
    qubo_cost,
    random_qubo,
    route_to_bits,
)


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


@st.composite
def distribution_pairs(draw):
    """Two distributions over the same 1..8 bits, each on a random support in
    random key order (so overlapping, nested or disjoint), with zero and
    tiny probabilities among the keys."""
    n = draw(st.integers(1, 8))
    keys = st.integers(0, (1 << n) - 1).map(lambda v: format(v, f"0{n}b"))

    def distribution():
        support = draw(st.lists(keys, min_size=1, max_size=12, unique=True))
        weights = [draw(st.floats(0.01, 1.0))]
        weights += [draw(st.just(0.0) | st.floats(0.0, 1.0)) for _ in support[1:]]
        total = sum(weights)
        return Distribution({k: w / total for k, w in zip(support, weights)})

    return distribution(), distribution()


@settings(max_examples=200, deadline=None)
@given(distribution_pairs())
@example((Distribution({"01": 0.5, "10": 0.5}), Distribution({"00": 0.25, "11": 0.75})))
@example((Distribution({"0": 0.0, "1": 1.0}), Distribution({"0": 1.0, "1": 0.0})))
@example((Distribution({"1": 1.0, "0": 0.0}), Distribution({"0": 0.3, "1": 0.7})))
def test_hellinger_fidelity_equals_the_per_key_sum(pair):
    # the same float64, disjoint supports and zero-probability keys included
    p, q = pair
    got, want = hellinger_fidelity(p, q), hellinger_by_key(p, q)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_distribution_rejects_malformed_keys():
    for probs in ({"200000": 1.0}, {"0b": 1.0}, {"0": 0.5, "01": 0.5}, {10: 0.5, 11: 0.5}):
        with pytest.raises(ValueError):
            Distribution(probs)


def test_distribution_from_one_shot_is_certain_and_from_no_shot_refuses():
    assert Distribution.from_sampleset(SampleSet({"101": 1})).probs == {"101": 1.0}
    with pytest.raises(ValueError, match="empty sample set"):
        Distribution.from_sampleset(SampleSet({}))


def test_distribution_from_sampleset_and_state():
    d = Distribution.from_sampleset(SampleSet({"00": 3, "10": 1}))
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


@pytest.mark.parametrize("name, qubo", list(bundled_qubos()))
def test_relative_error_is_exactly_zero_on_every_minimizer(name, qubo):
    report = brute_force_solve(qubo)
    minimizers = np.flatnonzero(qubo.cost_vector() == report.optimal_cost)
    assert minimizers.size >= 1
    for s in render_bits(index_bits(minimizers, qubo.num_vars)):
        err = relative_error(Distribution({s: 1.0}), qubo, report.optimal_cost)
        assert err.value == 0.0, s


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 10),
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(0, 1023), st.floats(0.01, 1.0)), min_size=1, max_size=40),
)
def test_relative_error_equals_the_per_string_mean(n, seed, entries):
    qubo = random_qubo(np.random.default_rng(seed), n)
    weights = {}
    for index, weight in entries:
        key = bits_to_str(int_to_bits(index % (1 << n), n))
        weights[key] = weights.get(key, 0.0) + weight
    total = sum(weights.values())
    p = Distribution({k: w / total for k, w in weights.items()})
    mean = sum(v * qubo_cost(qubo, k) for k, v in p.probs.items())
    err = relative_error(p, qubo, c_opt=1.0)
    scale = np.abs(qubo_cost_vector(qubo)).max()
    assert abs(err.value - abs(mean - 1.0)) <= 1e-12 * scale


@pytest.mark.parametrize("key", ["0", "010", "0101"])
def test_relative_error_refuses_another_width(key):
    qubo = QuboProblem(Q=np.triu(np.ones((2, 2))), constant=0.0)
    with pytest.raises(ValueError, match="bit widths differ"):
        relative_error(Distribution({key: 1.0}), qubo, c_opt=1.0)


def test_random_baseline_deterministic_and_positive():
    rng = np.random.default_rng(2)
    q = np.triu(rng.uniform(-1, 1, (4, 4)))
    qubo = QuboProblem(Q=q, constant=0.0)
    a = random_baseline(qubo, trials=5, seed=9)
    b = random_baseline(qubo, trials=5, seed=9)
    assert a == b
    assert a.value > 0.0


def test_random_baseline_of_one_trial_is_that_trial_and_of_none_refuses():
    qubo = random_qubo(np.random.default_rng(12), 4)
    rng = np.random.default_rng(3)  # the one trial's draws, as random_baseline makes them
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    probs = np.abs(amps) ** 2 / (np.abs(amps) ** 2).sum()
    expected = abs(probs @ qubo_cost_vector(qubo) - 2.0) / 2.0
    base = random_baseline(qubo, trials=1, seed=3, c_opt=2.0)
    assert not base.is_absolute
    assert abs(base.value - expected) <= 1e-12 * expected
    with pytest.raises(ValueError, match="trials must be >= 1"):
        random_baseline(qubo, trials=0, c_opt=2.0)


def test_random_baseline_converges_to_uniform_error():
    rng = np.random.default_rng(3)
    q = np.triu(rng.uniform(0.5, 2.0, (6, 6)))
    qubo = QuboProblem(Q=q, constant=-3.0)  # keeps the optimum away from zero
    report = brute_force_solve(qubo)
    uniform_mean = qubo_cost_vector(qubo).mean()
    uniform_err = abs(uniform_mean - report.optimal_cost) / abs(report.optimal_cost)
    base = random_baseline(qubo, trials=200, seed=4)
    assert abs(base.value - uniform_err) / uniform_err < 0.05


@pytest.mark.parametrize("name, qubo", list(bundled_qubos()))
def test_random_baseline_matches_the_uniform_error_on_bundled_problems(name, qubo):
    # a normalized complex-Gaussian state's probabilities are Dirichlet(1, ..., 1),
    # so one trial's mean cost has expectation mean(cost) and variance
    # Var_pop(cost) / (2^n + 1); every trial costs at least C*
    cost, trials = qubo.cost_vector(), 50
    c_opt = brute_force_solve(qubo).optimal_cost
    expected = (cost.mean() - c_opt) / abs(c_opt)
    sigma = np.sqrt(cost.var() / (cost.size + 1)) / (abs(c_opt) * np.sqrt(trials))
    base = random_baseline(qubo, trials=trials, seed=0, c_opt=c_opt)
    assert not base.is_absolute
    assert abs(base.value - expected) < 5 * sigma, (base.value - expected) / sigma


@settings(max_examples=60, deadline=None)
@example(n=4, seed=28, const=0)  # C* = 0
@given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1), const=st.integers(-8, 8))
def test_random_baseline_matches_the_closed_form_on_hypothesis_qubos(n, seed, const):
    # the same Dirichlet law as on the bundled problems, on QUBOs of k/4
    # entries, whose optimum is often exactly 0: there the absolute form
    rng = np.random.default_rng(seed)
    qubo = QuboProblem(np.triu(rng.integers(-8, 9, (n, n)) / 4.0), const / 4.0)
    cost, trials = qubo.cost_vector(), 50
    assume(cost.var() > 0.0)
    c_opt = brute_force_solve(qubo).optimal_cost
    scale = 1.0 if abs(c_opt) < _GUARD else abs(c_opt)
    expected = (cost.mean() - c_opt) / scale
    sigma = np.sqrt(cost.var() / (cost.size + 1)) / (scale * np.sqrt(trials))
    base = random_baseline(qubo, trials=trials, seed=seed, c_opt=c_opt)
    assert base.is_absolute == (abs(c_opt) < _GUARD)
    assert abs(base.value - expected) < 5 * sigma, (base.value - expected) / sigma


def test_random_baseline_beats_trained_state_direction():
    # a distribution concentrated on the optimum scores below the baseline
    rng = np.random.default_rng(5)
    q = np.triu(rng.uniform(0.5, 2.0, (4, 4)))
    qubo = QuboProblem(Q=q, constant=1.0)
    report = brute_force_solve(qubo)
    exact = relative_error(
        Distribution({report.optimal_set[0]: 1.0}), qubo, report.optimal_cost
    )
    base = random_baseline(qubo, trials=50, seed=6)
    assert exact.value < base.value


# ---------------------------------------------------------------------------
# solution rates


def test_solution_rates_arithmetic_example():
    counts = {"000": 300, "001": 60, "010": 40}
    samples = SampleSet(counts)
    table = {"000": (False, 0.0), "001": (True, 5.0), "010": (True, 3.0)}
    feasible, optimal = solution_rates(samples, lambda s: table[s], c_opt=3.0)
    assert feasible == 25.0
    assert optimal == 10.0


def test_solution_rates_all_optimal_and_none_feasible():
    samples = SampleSet({"11": 10})
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
        samples = SampleSet(counts)
        verdict = {k: (bool(rng.integers(2)), float(rng.integers(3))) for k in keys}
        feasible, optimal = solution_rates(samples, lambda s: verdict[s], c_opt=1.0)
        assert 0.0 <= optimal <= feasible <= 100.0


def test_solution_rates_counts_a_tour_half_a_unit_long_as_feasible_not_optimal():
    # unit distances but for the two diagonals of 1.25: the best tour is 4.0
    # long and the two crossing tours are 0.5 longer
    distances = np.ones((4, 4)) - np.eye(4)
    distances[0, 2] = distances[2, 0] = distances[1, 3] = distances[3, 1] = 1.25
    spec = TrpSpec(distances)
    best, near = (bits_to_str(route_to_bits(order, 4)) for order in ([0, 1, 2, 3], [0, 1, 3, 2]))

    def decoder(s):
        _, ok, length = decode_trp(s, spec)
        return ok, length

    assert decoder(best) == (True, 4.0) and decoder(near) == (True, 4.5)
    samples = SampleSet({best: 3, near: 1})
    assert solution_rates(samples, decoder, c_opt=4.0) == (100.0, 75.0)


def test_solution_rates_rejects_empty():
    with pytest.raises(ValueError):
        solution_rates(SampleSet({}), lambda s: (True, 0.0), 0.0)


def test_relative_error_is_namedtuple():
    err = RelativeError(0.25, False)
    assert err.value == 0.25
    assert err.is_absolute is False
