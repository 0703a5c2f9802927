"""Ansatz construction and landscape tests."""

from __future__ import annotations

import numpy as np
import pytest

from util import random_qubo

from qubolab.model import IsingModel, qubo_cost_vector, to_ising
from qubolab.simulator import (
    Gate,
    StateVector,
    apply_gate,
    cx_chain_permutation,
    ry_cx_amplitudes,
    run_circuit,
)
from qubolab.variational import (
    Landscape,
    QaoaParams,
    VqeParams,
    ansatz_params,
    cost_landscape,
    num_params,
    qaoa_circuit,
    qaoa_objective,
    qaoa_state_fast,
    vqe_circuit,
    vqe_objective,
    vqe_state,
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
    params = ansatz_params("qaoa", 2, 3, [0.1, 0.2, 0.3, 0.4])
    np.testing.assert_array_equal(params.betas, [0.1, 0.2])
    np.testing.assert_array_equal(params.gammas, [0.3, 0.4])
    circ = qaoa_circuit(random_ising(0, 3)[0], params)
    assert [g.angle for g in circ.gates if g.kind == "RX"] == [0.2] * 3 + [0.4] * 3


def test_qaoa_vector_roundtrip():
    params = ansatz_params("qaoa", 2, 3, [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(params.betas, [1.0, 2.0])
    np.testing.assert_array_equal(params.gammas, [3.0, 4.0])
    np.testing.assert_array_equal(
        np.concatenate([params.betas, params.gammas]), [1.0, 2.0, 3.0, 4.0]
    )
    with pytest.raises(ValueError):
        ansatz_params("qaoa", 2, 3, [1.0, 2.0, 3.0])


def test_vqe_parameter_counts():
    assert num_params("vqe", 2, 4) == 12
    assert num_params("vqe", 1, 8) == 16
    for n, layers in [(4, 2), (8, 1)]:
        circ = vqe_circuit(VqeParams(np.arange(n * (layers + 1)), layers, n))
        angles = [g.angle for g in circ.gates if g.kind == "RY"]
        assert angles == list(range(n * (layers + 1)))
    with pytest.raises(ValueError):
        VqeParams(np.zeros(11), layers=2, num_qubits=4)
    with pytest.raises(ValueError, match="two qubits"):
        VqeParams(np.zeros(2), layers=1, num_qubits=1)
    with pytest.raises(ValueError, match="one layer"):
        VqeParams(np.zeros(3), layers=0, num_qubits=3)


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


# ---------------------------------------------------------------------------
# QAOA states


def test_qaoa_zero_angles_gives_uniform_state():
    ising, _ = random_ising(2, 4)
    params = QaoaParams([0.0], [0.0], 1)
    fast = qaoa_state_fast(ising, params)
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
    fast = qaoa_state_fast(ising, ansatz_params("qaoa", p, n, vec))
    gate = run_circuit(qaoa_circuit(ising, ansatz_params("qaoa", p, n, vec)))
    np.testing.assert_allclose(
        align_phase(gate.amplitudes, fast.amplitudes), fast.amplitudes, atol=1e-10
    )


def phase_then_rx_gates(ising, params):
    """qaoa_state_fast spelled out with apply_gate: per layer the diagonal
    phase exp(-i gamma cost), then RX(2 beta) on every qubit."""
    n = ising.num_qubits
    state = StateVector.plus_state(n)
    for gamma, beta in zip(params.gammas, params.betas):
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
        params = ansatz_params("qaoa", p, n, rng.uniform(-np.pi, np.pi, 2 * p))
        fast = qaoa_state_fast(ising, params).amplitudes
        assert np.array_equal(fast, phase_then_rx_gates(ising, params).amplitudes)


def test_qaoa_state_normalized_for_random_params():
    ising, _ = random_ising(4, 6)
    rng = np.random.default_rng(8)
    for _ in range(5):
        state = qaoa_state_fast(
            ising, ansatz_params("qaoa", 2, 6, rng.uniform(0, np.pi, 4))
        )
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-9


def test_rzz_count_per_layer_matches_couplings():
    ising, qubo = random_ising(5, 6)
    circ = qaoa_circuit(ising, ansatz_params("qaoa", 3, 6, np.full(6, 0.5)))
    rzz = sum(1 for g in circ.gates if g.kind == "RZZ")
    nonzero_upper = int(np.count_nonzero(np.triu(qubo.Q, k=1)))
    assert rzz == 3 * nonzero_upper


def test_single_coupling_gives_one_rzz_per_layer():
    ising = IsingModel(h_quad={(0, 1): 0.5}, h_lin=np.zeros(2), h_const=0.0, num_qubits=2)
    circ = qaoa_circuit(ising, ansatz_params("qaoa", 2, 2, np.full(4, 0.5)))
    assert sum(1 for g in circ.gates if g.kind == "RZZ") == 2


# ---------------------------------------------------------------------------
# VQE states


def test_vqe_zero_angles_gives_zero_state():
    state = run_circuit(vqe_circuit(VqeParams(np.zeros(15), 2, 5)))
    np.testing.assert_allclose(
        state.amplitudes, StateVector.zero_state(5).amplitudes, atol=1e-12
    )


def test_vqe_gate_sequence_layout():
    circ = vqe_circuit(VqeParams(np.zeros(6), 1, 3))
    kinds = [g.kind for g in circ.gates]
    assert kinds == ["RY", "RY", "RY", "CX", "CX", "RY", "RY", "RY"]
    assert circ.gates[3].qubits == (0, 1) and circ.gates[4].qubits == (1, 2)


def test_vqe_state_normalized():
    rng = np.random.default_rng(9)
    vector = rng.uniform(0, 2 * np.pi, num_params("vqe", 2, 4))
    state = run_circuit(vqe_circuit(VqeParams(vector, 2, 4)))
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
    assert scape.beta_axis[0] == 0.0 and abs(scape.beta_axis[-1] - np.pi) < 1e-12
    assert len(scape.gamma_axis) == 12


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
            params = QaoaParams([scape.beta_axis[i]], [scape.gamma_axis[j]], 1)
            gate = run_circuit(qaoa_circuit(ising, params)).probabilities()
            assert abs(scape.grid[i, j] - gate @ ising.cost_vector()) < 1e-9


@pytest.mark.parametrize("shots, seed", [(None, None), (300, 5)], ids=["exact", "seeded"])
def test_landscape_is_the_qaoa_expectation_grid(shots, seed):
    ising, _ = random_ising(14, 4)
    scape = cost_landscape(ising, resolution=6, shots=shots, seed=seed)
    cost = ising.cost_vector()
    rng = np.random.default_rng(seed)
    grid = np.empty((6, 6))
    for j, gamma in enumerate(scape.gamma_axis):
        for i, beta in enumerate(scape.beta_axis):
            params = QaoaParams([beta], [gamma], 1)
            probs = qaoa_state_fast(ising, params).probabilities()
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
        Landscape(np.zeros((3, 4)), np.zeros(3), np.zeros(3))
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
    perm = cx_chain_permutation(n)
    for layers in range(1, 4):
        vector = rng.uniform(0.0, 2.0 * np.pi, num_params("vqe", layers, n))
        gate = run_circuit(vqe_circuit(VqeParams(vector, layers, n)))
        amps = ry_cx_amplitudes(vector.reshape(layers + 1, n), perm)
        assert np.array_equal(amps, gate.amplitudes)
        state = vqe_state(VqeParams(vector, layers, n))
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
    perm = cx_chain_permutation(n)
    for layers in range(1, 4):
        vector = rng.uniform(0.0, 2.0 * np.pi, num_params("vqe", layers, n))
        gate = run_circuit(vqe_circuit(VqeParams(vector, layers, n))).amplitudes
        assert np.array_equal(ry_cx_amplitudes(vector.reshape(layers + 1, n), perm), gate)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_params_reject_non_finite_angles(bad):
    with pytest.raises(ValueError, match="non-finite"):
        QaoaParams([0.1, bad], [0.3, 0.4], layers=2)
    with pytest.raises(ValueError, match="non-finite"):
        ansatz_params("qaoa", 1, 0, [0.1, bad])
    with pytest.raises(ValueError, match="non-finite"):
        VqeParams(np.r_[np.zeros(5), bad], layers=1, num_qubits=3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_objectives_raise_on_non_finite_angles(bad):
    ising, _ = random_ising(13, 3)
    with pytest.raises(ValueError, match="non-finite"):
        vqe_objective(ising, 1)(np.full(6, bad))
    with pytest.raises(ValueError, match="non-finite"):
        qaoa_objective(ising, 1)([bad, 0.2])
    # raises at the parameter type, before cos(inf) can warn
    with pytest.raises(ValueError, match="non-finite"):
        qaoa_state_fast(ising, QaoaParams([0.1], [bad], layers=1))


def test_vqe_objective_validation():
    ising, _ = random_ising(3, 3)
    with pytest.raises(ValueError):
        vqe_objective(ising, layers=0)
    with pytest.raises(ValueError):
        vqe_objective(ising, layers=1)(np.zeros(5))


_ONE_QUBIT = IsingModel(h_quad={}, h_lin=np.zeros(1), h_const=0.0, num_qubits=1)
_WIDE = IsingModel(h_quad={}, h_lin=np.zeros(27), h_const=0.0, num_qubits=27)


# every refusal comes when the objective is built, before any evaluation or
# 2^n array: layers first, then a one-qubit VQE, the shot count and the cap
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: qaoa_objective(_WIDE, 0, shots=0), "need at least one layer"),
        (lambda: vqe_objective(_ONE_QUBIT, 0, shots=0), "need at least one layer"),
        (lambda: vqe_objective(_ONE_QUBIT, 1, shots=0), "needs two qubits"),
        (lambda: qaoa_objective(_WIDE, 1, shots=0), "shots must be an integer >= 1"),
        (lambda: vqe_objective(_WIDE, 1, shots=0), "shots must be an integer >= 1"),
        (lambda: qaoa_objective(_WIDE, 1), "27 qubits exceed the cap of 26"),
        (lambda: vqe_objective(_WIDE, 1), "27 qubits exceed the cap of 26"),
        (lambda: cost_landscape(_WIDE, 2, shots=0), "shots must be an integer >= 1"),
        (lambda: cost_landscape(_WIDE, 2), "27 qubits exceed the cap of 26"),
    ],
    ids=[
        "qaoa-layers", "vqe-layers", "vqe-one-qubit", "qaoa-shots", "vqe-shots",
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
