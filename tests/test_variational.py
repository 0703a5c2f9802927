"""Ansatz construction and landscape tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from util import p1_qaoa_energy, random_qubo

from qubolab import cli
from qubolab.model import IsingModel, qubo_cost_vector, to_ising
from qubolab.simulator import (
    Gate,
    StateVector,
    apply_gate,
    cx_chain_permutation,
    ry_cx_kernel,
    run_circuit,
)
from qubolab.variational import (
    ANSATZE,
    Landscape,
    ansatz_circuit,
    ansatz_params,
    ansatz_state,
    cost_landscape,
    num_params,
    qaoa_circuit,
    qaoa_objective,
    vqe_circuit,
    vqe_objective,
)


def align_phase(amps: np.ndarray, reference: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(reference)))
    phase = amps[k] / reference[k]
    return amps / phase


def random_ising(seed: int, n: int):
    qubo = random_qubo(np.random.default_rng(seed), n)
    return to_ising(qubo), qubo


# ---------------------------------------------------------------------------
# parameter bookkeeping


def test_qaoa_parameter_count_is_twice_depth():
    assert num_params("qaoa", 2, 3) == 4
    table = ansatz_params("qaoa", 2, 3, [0.1, 0.2, 0.3, 0.4])
    np.testing.assert_array_equal(table[0], [0.1, 0.2])
    np.testing.assert_array_equal(table[1], [0.3, 0.4])
    circ = qaoa_circuit(random_ising(0, 3)[0], table)
    assert [g.angle for g in circ.gates if g.kind == "RX"] == [0.2] * 3 + [0.4] * 3


def test_qaoa_vector_roundtrip():
    table = ansatz_params("qaoa", 2, 3, [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(table[0], [1.0, 2.0])
    np.testing.assert_array_equal(table[1], [3.0, 4.0])
    np.testing.assert_array_equal(table.ravel(), [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        ansatz_params("qaoa", 2, 3, [1.0, 2.0, 3.0])


def test_vqe_parameter_counts():
    assert num_params("vqe", 2, 4) == 12
    assert num_params("vqe", 1, 8) == 16
    for n, layers in [(4, 2), (8, 1)]:
        circ = vqe_circuit(ansatz_params("vqe", layers, n, np.arange(n * (layers + 1))))
        angles = [g.angle for g in circ.gates if g.kind == "RY"]
        assert angles == list(range(n * (layers + 1)))
    with pytest.raises(ValueError):
        ansatz_params("vqe", 2, 4, np.zeros(11))
    with pytest.raises(ValueError, match="two qubits"):
        ansatz_params("vqe", 1, 1, np.zeros(2))
    with pytest.raises(ValueError, match="one layer"):
        ansatz_params("vqe", 0, 3, np.zeros(3))


def test_num_params_refuses_an_unknown_ansatz():
    with pytest.raises(ValueError, match="no ansatz named 'sa'"):
        num_params("sa", 1, 4)
    with pytest.raises(ValueError, match="no ansatz named 'sa'"):
        ansatz_params("sa", 1, 4, np.zeros(8))


def test_builders_reject_wrong_length():
    with pytest.raises(ValueError, match="needs 2 parameters, got 1"):
        qaoa_circuit(random_ising(1, 3)[0], ansatz_params("qaoa", 1, 3, [0.1]))
    with pytest.raises(ValueError, match="needs 6 parameters, got 5"):
        vqe_circuit(ansatz_params("vqe", 1, 3, np.zeros(5)))


@st.composite
def ansatz_vectors(draw, angles=st.floats(allow_nan=False, allow_infinity=False)):
    """An ansatz on 2..5 qubits with 1..3 layers, and a vector of as many
    ``angles`` as it takes."""
    algorithm = draw(st.sampled_from(ANSATZE))
    n, layers = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    count = num_params(algorithm, layers, n)
    return algorithm, n, layers, draw(st.lists(angles, min_size=count, max_size=count))


@settings(max_examples=200, deadline=None)
@given(ansatz_vectors())
def test_valid_vectors_round_trip_bit_for_bit(case):
    algorithm, n, layers, vector = case
    table = ansatz_params(algorithm, layers, n, vector)
    assert table.shape == ((2, layers) if algorithm == "qaoa" else (layers + 1, n))
    assert table.ravel().tobytes() == np.array(vector, dtype=float).tobytes()


@st.composite
def malformed_inputs(draw):
    """A valid case with one defect, and the message that names it: a vector
    of another length, a NaN or +-inf entry, or ``layers`` given as a bool,
    a float or a string."""
    algorithm, n, layers, vector = draw(ansatz_vectors(angles=st.floats(-7.0, 7.0)))
    defect = draw(st.sampled_from(["length", "non-finite", "layers"]))
    if defect == "length":
        size = draw(st.integers(0, len(vector) + 3).filter(lambda k: k != len(vector)))
        return algorithm, n, layers, (vector + [0.5] * 3)[:size], "needs \\d+ parameters"
    if defect == "non-finite":
        vector[draw(st.integers(0, len(vector) - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf])
        )
        return algorithm, n, layers, vector, "non-finite"
    layers = draw(st.one_of(st.booleans(), st.floats(), st.text(max_size=3)))
    return algorithm, n, layers, vector, "layers must be an integer"


@settings(max_examples=200, deadline=None)
@given(malformed_inputs())
def test_every_reader_refuses_a_malformed_vector(case):
    algorithm, n, layers, vector, message = case
    ising, _ = random_ising(n, n)
    factory = {"qaoa": qaoa_objective, "vqe": vqe_objective}[algorithm]
    readers = [
        lambda: ansatz_params(algorithm, layers, n, vector),
        lambda: factory(ising, layers)(vector),
        lambda: ansatz_state(ising, algorithm, layers, vector),
        lambda: ansatz_circuit(ising, algorithm, layers, vector),
    ]
    for read in readers:
        with pytest.raises(ValueError, match=message):
            read()


# ---------------------------------------------------------------------------
# QAOA states


def test_qaoa_zero_angles_gives_uniform_state():
    ising, _ = random_ising(2, 4)
    params = ansatz_params("qaoa", 1, 4, [0.0, 0.0])
    fast = ansatz_state(ising, "qaoa", 1, [0.0, 0.0])
    np.testing.assert_allclose(
        fast.amplitudes, StateVector.plus_state(4).amplitudes, atol=1e-12
    )
    gate = run_circuit(qaoa_circuit(ising, params))
    np.testing.assert_allclose(gate.amplitudes, fast.amplitudes, atol=1e-12)


def test_qaoa_expectation_at_zero_is_mean_cost():
    ising, qubo = random_ising(3, 5)
    value = qaoa_objective(ising, 1)([0.0, 0.0])
    mean = qubo_cost_vector(qubo).mean()
    assert abs(value - mean) < 1e-9


@pytest.mark.parametrize("draw", range(6))
def test_fast_path_matches_gate_path_up_to_global_phase(draw):
    rng = np.random.default_rng(100 + draw)
    n = int(rng.integers(2, 7))
    p = int(rng.integers(1, 4))
    ising, _ = random_ising(int(rng.integers(1000)), n)
    vec = rng.uniform(0, np.pi, size=2 * p)
    fast = ansatz_state(ising, "qaoa", p, vec)
    gate = run_circuit(qaoa_circuit(ising, ansatz_params("qaoa", p, n, vec)))
    np.testing.assert_allclose(
        align_phase(gate.amplitudes, fast.amplitudes), fast.amplitudes, atol=1e-10
    )


def phase_then_rx_gates(ising, table):
    """ansatz_state's QAOA spelled out with apply_gate: per layer the diagonal
    phase exp(-i gamma cost), then RX(2 beta) on every qubit."""
    n = ising.num_qubits
    state = StateVector.plus_state(n)
    betas, gammas = table
    for gamma, beta in zip(gammas, betas):
        phase = np.exp(-1j * gamma * ising.cost_vector())
        state = StateVector(state.amplitudes * phase, n)
        for q in range(n):
            state = apply_gate(state, Gate("RX", (q,), 2.0 * beta))
    return state


@pytest.mark.parametrize("n", [*range(1, 13), 16])
def test_qaoa_kernel_equals_phase_then_rx_gates(n):
    rng = np.random.default_rng(400 + n)
    ising, _ = random_ising(500 + n, n)
    for p in range(1, 4):
        vec = rng.uniform(-np.pi, np.pi, 2 * p)
        fast = ansatz_state(ising, "qaoa", p, vec).amplitudes
        params = ansatz_params("qaoa", p, n, vec)
        assert np.array_equal(fast, phase_then_rx_gates(ising, params).amplitudes)


def test_qaoa_state_normalized_for_random_params():
    ising, _ = random_ising(4, 6)
    rng = np.random.default_rng(8)
    for _ in range(5):
        state = ansatz_state(ising, "qaoa", 2, rng.uniform(0, np.pi, 4))
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-9


def test_rzz_count_per_layer_matches_couplings():
    ising, qubo = random_ising(5, 6)
    circ = qaoa_circuit(ising, ansatz_params("qaoa", 3, 6, np.full(6, 0.5)))
    rzz = sum(1 for g in circ.gates if g.kind == "RZZ")
    nonzero_upper = int(np.count_nonzero(np.triu(qubo.Q, k=1)))
    assert rzz == 3 * nonzero_upper


def test_single_coupling_gives_one_rzz_per_layer():
    ising = IsingModel(h_quad={(0, 1): 0.5}, h_lin=np.zeros(2), h_const=0.0)
    circ = qaoa_circuit(ising, ansatz_params("qaoa", 2, 2, np.full(4, 0.5)))
    assert sum(1 for g in circ.gates if g.kind == "RZZ") == 2


# ---------------------------------------------------------------------------
# VQE states


def test_vqe_zero_angles_gives_zero_state():
    state = run_circuit(vqe_circuit(ansatz_params("vqe", 2, 5, np.zeros(15))))
    np.testing.assert_allclose(
        state.amplitudes, StateVector.zero_state(5).amplitudes, atol=1e-12
    )


def test_vqe_gate_sequence_layout():
    circ = vqe_circuit(ansatz_params("vqe", 1, 3, np.zeros(6)))
    kinds = [g.kind for g in circ.gates]
    assert kinds == ["RY", "RY", "RY", "CX", "CX", "RY", "RY", "RY"]
    assert circ.gates[3].qubits == (0, 1) and circ.gates[4].qubits == (1, 2)


def test_vqe_state_normalized():
    rng = np.random.default_rng(9)
    vector = rng.uniform(0, 2 * np.pi, num_params("vqe", 2, 4))
    state = run_circuit(vqe_circuit(ansatz_params("vqe", 2, 4, vector)))
    assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-9


def test_vqe_objective_at_zero_is_zero_bitstring_cost():
    ising, qubo = random_ising(6, 4)
    obj = vqe_objective(ising, layers=2)
    zero_cost = qubo_cost_vector(qubo)[0]
    assert abs(obj(np.zeros(12)) - zero_cost) < 1e-9


# ---------------------------------------------------------------------------
# landscape


def test_landscape_shape_and_axes():
    ising, _ = random_ising(7, 3)
    scape = cost_landscape(ising, resolution=12)
    assert scape.grid.shape == (12, 12)
    assert scape.axis[0] == 0.0 and abs(scape.axis[-1] - np.pi) < 1e-12
    assert len(scape.axis) == 12


def test_landscape_gamma_zero_column_is_mean_cost():
    ising, qubo = random_ising(8, 4)
    scape = cost_landscape(ising, resolution=9)
    mean = qubo_cost_vector(qubo).mean()
    np.testing.assert_allclose(scape.grid[:, 0], mean, atol=1e-9)


def test_landscape_matches_pointwise_expectation():
    ising, _ = random_ising(9, 3)
    scape = cost_landscape(ising, resolution=5)
    for i in [0, 2, 4]:
        for j in [1, 3]:
            params = ansatz_params("qaoa", 1, 3, [scape.axis[i], scape.axis[j]])
            gate = run_circuit(qaoa_circuit(ising, params)).probabilities()
            assert abs(scape.grid[i, j] - gate @ ising.cost_vector()) < 1e-9


@pytest.mark.parametrize("shots, seed", [(None, None), (300, 5)], ids=["exact", "seeded"])
def test_landscape_is_the_qaoa_expectation_grid(shots, seed):
    ising, _ = random_ising(14, 4)
    scape = cost_landscape(ising, resolution=6, shots=shots, seed=seed)
    cost = ising.cost_vector()
    rng = np.random.default_rng(seed)
    grid = np.empty((6, 6))
    for j, gamma in enumerate(scape.axis):
        for i, beta in enumerate(scape.axis):
            params = ansatz_params("qaoa", 1, 4, [beta, gamma])
            probs = ansatz_state(ising, "qaoa", 1, [beta, gamma]).probabilities()
            if shots is None:
                grid[i, j] = float(probs @ cost)
                gate = run_circuit(qaoa_circuit(ising, params)).probabilities()
                assert abs(grid[i, j] - gate @ cost) < 1e-9
            else:
                draws = rng.multinomial(shots, probs / probs.sum())
                grid[i, j] = float(draws @ cost) / shots
    assert np.array_equal(scape.grid, grid)


def test_landscape_shot_mode_is_seed_deterministic():
    ising, _ = random_ising(10, 3)
    a = cost_landscape(ising, resolution=4, shots=200, seed=1)
    b = cost_landscape(ising, resolution=4, shots=200, seed=1)
    c = cost_landscape(ising, resolution=4, shots=200, seed=2)
    np.testing.assert_array_equal(a.grid, b.grid)
    assert not np.array_equal(a.grid, c.grid)
    exact = cost_landscape(ising, resolution=4)
    assert not np.array_equal(a.grid, exact.grid)


def test_landscape_validation():
    with pytest.raises(ValueError):
        Landscape(np.zeros((3, 4)), np.zeros(3))
    ising, _ = random_ising(11, 2)
    with pytest.raises(ValueError):
        cost_landscape(ising, resolution=1)


def test_qaoa_objective_shot_mode_noise_and_determinism():
    ising, _ = random_ising(12, 4)
    vec = np.array([0.7, 1.1])
    noisy = qaoa_objective(ising, 1, shots=500, seed=3)
    again = qaoa_objective(ising, 1, shots=500, seed=3)
    exact = qaoa_objective(ising, 1)
    first = noisy(vec)
    assert first != exact(vec)
    assert first == again(vec)
    # the noise stream is stateful: successive calls see fresh draws
    assert noisy(vec) != first


@pytest.mark.parametrize("n", range(2, 13))
def test_vqe_kernel_matches_gate_path(n):
    rng = np.random.default_rng(200 + n)
    ising, _ = random_ising(300 + n, n)
    kernel = ry_cx_kernel(cx_chain_permutation(n))
    for layers in range(1, 4):
        vector = rng.uniform(0.0, 2.0 * np.pi, num_params("vqe", layers, n))
        gate = run_circuit(vqe_circuit(ansatz_params("vqe", layers, n, vector)))
        amps = kernel(vector.reshape(layers + 1, n))
        assert np.array_equal(amps, gate.amplitudes)
        state = ansatz_state(ising, "vqe", layers, vector)
        assert np.array_equal(state.amplitudes, gate.amplitudes)
        assert np.array_equal(state.probabilities(), gate.probabilities())
        expected = float(gate.probabilities() @ ising.cost_vector())
        assert vqe_objective(ising, layers)(vector) == expected


# the state changes buffer at the permutation between walls and, for odd n,
# at every RY wall; odd and even n with one to three layers pin every parity
@pytest.mark.parametrize(
    "n", [2, 3, 8, 9, 15, 16],
    ids=lambda n: f"{'odd' if n % 2 else 'even'}-{n}",
)
def test_vqe_kernel_equals_gates_for_odd_and_even_n(n):
    rng = np.random.default_rng(900 + n)
    kernel = ry_cx_kernel(cx_chain_permutation(n))  # one kernel, its buffers reused
    for layers in range(1, 4):
        vector = rng.uniform(0.0, 2.0 * np.pi, num_params("vqe", layers, n))
        gate = run_circuit(vqe_circuit(ansatz_params("vqe", layers, n, vector))).amplitudes
        assert np.array_equal(kernel(vector.reshape(layers + 1, n)), gate)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_params_reject_non_finite_angles(bad):
    with pytest.raises(ValueError, match="non-finite"):
        ansatz_params("qaoa", 2, 0, [0.1, bad, 0.3, 0.4])
    with pytest.raises(ValueError, match="non-finite"):
        ansatz_params("qaoa", 1, 0, [0.1, bad])
    with pytest.raises(ValueError, match="non-finite"):
        ansatz_params("vqe", 1, 3, np.r_[np.zeros(5), bad])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_objectives_raise_on_non_finite_angles(bad):
    ising, _ = random_ising(13, 3)
    with pytest.raises(ValueError, match="non-finite"):
        vqe_objective(ising, 1)(np.full(6, bad))
    with pytest.raises(ValueError, match="non-finite"):
        qaoa_objective(ising, 1)([bad, 0.2])
    # raises at the one parse, before cos(inf) can warn
    with pytest.raises(ValueError, match="non-finite"):
        ansatz_state(ising, "qaoa", 1, [0.1, bad])


def test_vqe_objective_validation():
    ising, _ = random_ising(3, 3)
    with pytest.raises(ValueError):
        vqe_objective(ising, layers=0)
    with pytest.raises(ValueError):
        vqe_objective(ising, layers=1)(np.zeros(5))


_ONE_QUBIT = IsingModel(h_quad={}, h_lin=np.zeros(1), h_const=0.0)
_WIDE = IsingModel(h_quad={}, h_lin=np.zeros(27), h_const=0.0)


# every refusal comes when the objective is built, before any evaluation or
# 2^n array: layers first, then a one-qubit VQE, the shot count and the cap
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: qaoa_objective(_WIDE, 0, shots=0), "need at least one layer"),
        (lambda: vqe_objective(_ONE_QUBIT, 0, shots=0), "need at least one layer"),
        (lambda: qaoa_objective(_WIDE, 1.5, shots=0), "layers must be an integer"),
        (lambda: vqe_objective(_ONE_QUBIT, True, shots=0), "layers must be an integer"),
        (lambda: vqe_objective(_ONE_QUBIT, 1, shots=0), "needs two qubits"),
        (lambda: qaoa_objective(_WIDE, 1, shots=0), "shots must be an integer >= 1"),
        (lambda: vqe_objective(_WIDE, 1, shots=0), "shots must be an integer >= 1"),
        (lambda: qaoa_objective(_WIDE, 1), "27 qubits exceed the cap of 26"),
        (lambda: vqe_objective(_WIDE, 1), "27 qubits exceed the cap of 26"),
        (lambda: cost_landscape(_WIDE, 2, shots=0), "shots must be an integer >= 1"),
        (lambda: cost_landscape(_WIDE, 2), "27 qubits exceed the cap of 26"),
    ],
    ids=[
        "qaoa-layers", "vqe-layers", "qaoa-float-layers", "vqe-bool-layers",
        "vqe-one-qubit", "qaoa-shots", "vqe-shots",
        "qaoa-cap", "vqe-cap", "landscape-shots", "landscape-cap",
    ],
)
def test_objective_factories_refuse_in_order(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_qaoa_objective_parses_vectors_for_its_layers():
    ising, _ = random_ising(3, 3)
    with pytest.raises(ValueError, match="qaoa with 2 layers needs 4 parameters, got 2"):
        qaoa_objective(ising, 2)([0.1, 0.2])


@pytest.mark.parametrize("shots", [0, -5, 2.5, True, "10"])
def test_objectives_and_landscape_refuse_bad_shots_when_built(shots):
    # checked where the count enters, before any evaluation
    ising, _ = random_ising(3, 3)
    builders = [
        lambda: qaoa_objective(ising, 1, shots=shots),
        lambda: vqe_objective(ising, 1, shots=shots),
        lambda: cost_landscape(ising, resolution=2, shots=shots),
    ]
    for build in builders:
        with pytest.raises(ValueError, match="shots must be an integer"):
            build()


# ---------------------------------------------------------------------------
# the p=1 closed form, and kernels that keep their buffers between calls


@st.composite
def ising_models(draw):
    """Ising models on 1..10 qubits with random couplings (some zero), and
    random fields or none."""
    n = draw(st.integers(1, 10))
    coefficient = st.floats(-2.0, 2.0, allow_nan=False)
    weights = {(i, j): draw(st.just(0.0) | coefficient) for i in range(n) for j in range(i + 1, n)}
    h_lin = [draw(coefficient) for _ in range(n)] if draw(st.booleans()) else np.zeros(n)
    return IsingModel({k: w for k, w in weights.items() if w}, h_lin, draw(coefficient))


def assert_p1_energy(ising, beta, gamma):
    """The kernel's p=1 energy within 1e-12 of the closed form, relative to
    it or, for energies near 0, to the sum of |coefficients| (a bound on |C|).
    The floor is the smallest normal float: with subnormal coefficients the
    relative bound underflows to 0, while the kernel's probability-weighted
    sum rounds each subnormal term on its own."""
    scale = abs(ising.h_const) + np.abs(ising.h_lin).sum() + sum(map(abs, ising.h_quad.values()))
    expected = p1_qaoa_energy(ising, beta, gamma)
    actual = qaoa_objective(ising, 1)([beta, gamma])
    assert abs(actual - expected) <= max(1e-12 * max(abs(expected), scale), np.finfo(float).tiny)


@settings(max_examples=80, deadline=None)
@given(ising_models(), st.floats(0.0, np.pi), st.floats(0.0, np.pi))
@example(IsingModel({}, [0.0], 5e-324), 0.0, 0.0)  # 0.5 * 5e-324 rounds to 0 twice
def test_qaoa_objective_equals_the_p1_closed_form(ising, beta, gamma):
    assert_p1_energy(ising, beta, gamma)


@pytest.mark.parametrize(
    "instance", ["Ex0p1", "Ex0p2", "Ex1p1", "Ex1p2", "Ex1p3", "Ex2p1", "Ex2p2", "Ex2p3", "Ex2p4"]
)
def test_qaoa_objective_equals_the_p1_closed_form_on_bundled_instances(instance):
    ising = cli._Problem.build({"name": "lama", "instance": instance}).ising
    for beta, gamma in [(0.7, 0.3), (2.9, 1.7), (0.1, 3.0)]:
        assert_p1_energy(ising, beta, gamma)


@pytest.mark.parametrize("shots", [None, 200], ids=["exact", "shots"])
def test_objective_buffers_are_invisible(shots):
    """Objectives own their kernel's buffers: called in alternation on one
    Ising model they give the bytes each gives alone, and a state that
    ``ansatz_state`` returned does not move under later calls."""
    ising, _ = random_ising(77, 6)
    rng = np.random.default_rng(78)
    points = {"qaoa": rng.uniform(0.0, np.pi, (12, 4)), "vqe": rng.uniform(0.0, 7.0, (12, 18))}
    factories = {"qaoa": qaoa_objective, "vqe": vqe_objective}

    def alone(algorithm):
        objective = factories[algorithm](ising, 2, shots, 5)
        return np.array([objective(x) for x in points[algorithm]]).tobytes()

    expected = {algorithm: alone(algorithm) for algorithm in factories}
    states = {a: ansatz_state(ising, a, 2, points[a][0]) for a in factories}
    kept = {a: state.amplitudes.copy() for a, state in states.items()}
    objectives = {a: factory(ising, 2, shots, 5) for a, factory in factories.items()}
    values = {a: [] for a in factories}
    for k in range(12):
        for algorithm, objective in objectives.items():
            values[algorithm].append(objective(points[algorithm][k]))
        ansatz_state(ising, "qaoa", 2, points["qaoa"][k])
    for algorithm in factories:
        assert np.array(values[algorithm]).tobytes() == expected[algorithm]
        assert states[algorithm].amplitudes.tobytes() == kept[algorithm].tobytes()
