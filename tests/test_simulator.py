"""Statevector simulator tests: gate algebra, layout, sampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubolab.model import bits_to_str, int_to_bits, str_to_bits
from qubolab.simulator import (
    Circuit,
    Gate,
    SampleSet,
    StateVector,
    apply_gate,
    expectation_diagonal,
    gate_matrix,
    phase_mixer_state,
    run_circuit,
    sample,
)
from qubolab.simulator import _rx_walls


def basis(bits: str) -> StateVector:
    b = str_to_bits(bits)
    amps = np.zeros(1 << len(b), dtype=complex)
    amps[int(sum(v << i for i, v in enumerate(b)))] = 1.0
    return StateVector(amps, len(b))


def full_unitary(gate: Gate, n: int) -> np.ndarray:
    cols = []
    for v in range(1 << n):
        amps = np.zeros(1 << n, dtype=complex)
        amps[v] = 1.0
        cols.append(apply_gate(StateVector(amps, n), gate).amplitudes)
    return np.array(cols).T


# ---------------------------------------------------------------------------
# single gates


def test_hadamard_on_zero():
    out = apply_gate(basis("0"), Gate("H", (0,)))
    np.testing.assert_allclose(out.amplitudes, [2 ** -0.5, 2 ** -0.5], atol=1e-12)


def test_cx_flips_target_when_control_set():
    out = apply_gate(basis("10"), Gate("CX", (0, 1)))
    np.testing.assert_allclose(out.amplitudes, basis("11").amplitudes, atol=1e-12)
    out = apply_gate(basis("01"), Gate("CX", (0, 1)))  # control clear -> no-op
    np.testing.assert_allclose(out.amplitudes, basis("01").amplitudes, atol=1e-12)


def test_rzz_phase_on_00():
    theta = 0.77
    out = apply_gate(basis("00"), Gate("RZZ", (0, 1), theta))
    np.testing.assert_allclose(
        out.amplitudes[0], np.exp(-0.5j * theta), atol=1e-12
    )
    out = apply_gate(basis("10"), Gate("RZZ", (0, 1), theta))
    idx = 1  # bit 0 set
    np.testing.assert_allclose(out.amplitudes[idx], np.exp(0.5j * theta), atol=1e-12)


def test_swap_exchanges_bits():
    out = apply_gate(basis("10"), Gate("SWAP", (0, 1)))
    np.testing.assert_allclose(out.amplitudes, basis("01").amplitudes, atol=1e-12)


def test_cz_sign_only_on_11():
    for bits, sign in [("00", 1), ("10", 1), ("01", 1), ("11", -1)]:
        out = apply_gate(basis(bits), Gate("CZ", (0, 1)))
        np.testing.assert_allclose(
            out.amplitudes, sign * basis(bits).amplitudes, atol=1e-12
        )


def test_sx_squares_to_x():
    sx = gate_matrix(Gate("SX", (0,)))
    np.testing.assert_allclose(sx @ sx, gate_matrix(Gate("X", (0,))), atol=1e-12)


def test_rx_pi_is_x_up_to_phase():
    rx = gate_matrix(Gate("RX", (0,), np.pi))
    np.testing.assert_allclose(rx, -1j * gate_matrix(Gate("X", (0,))), atol=1e-12)


def test_measure_is_statevector_noop():
    state = apply_gate(basis("0"), Gate("H", (0,)))
    out = apply_gate(state, Gate("MEASURE", (0,)))
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)


# ---------------------------------------------------------------------------
# layout: gates on arbitrary qubit pairs


def test_cx_high_control_low_target_three_qubits():
    gate = Gate("CX", (2, 0))
    u = full_unitary(gate, 3)
    expected = np.zeros((8, 8), dtype=complex)
    for v in range(8):
        bits = int_to_bits(v, 3)
        if bits[2] == 1:
            bits[0] ^= 1
        expected[int(sum(b << i for i, b in enumerate(bits))), v] = 1.0
    np.testing.assert_allclose(u, expected, atol=1e-12)


def test_rzz_on_nonadjacent_qubits():
    theta = 1.3
    u = full_unitary(Gate("RZZ", (0, 2), theta), 3)
    diag = []
    for v in range(8):
        bits = int_to_bits(v, 3)
        sign = 1.0 if bits[0] == bits[2] else -1.0
        diag.append(np.exp(-0.5j * theta * sign))
    np.testing.assert_allclose(u, np.diag(diag), atol=1e-12)


def test_two_qubit_gate_order_matters():
    # CX(0,1) and CX(1,0) differ
    u01 = full_unitary(Gate("CX", (0, 1)), 2)
    u10 = full_unitary(Gate("CX", (1, 0)), 2)
    assert not np.allclose(u01, u10)
    np.testing.assert_allclose(
        u01 @ basis("10").amplitudes, basis("11").amplitudes, atol=1e-12
    )
    np.testing.assert_allclose(
        u10 @ basis("01").amplitudes, basis("11").amplitudes, atol=1e-12
    )


def test_all_gates_unitary_in_three_qubit_register():
    gates = [
        Gate("H", (1,)),
        Gate("X", (2,)),
        Gate("SX", (0,)),
        Gate("RX", (1,), 0.4),
        Gate("RY", (2,), -1.1),
        Gate("RZ", (0,), 2.2),
        Gate("RZZ", (0, 2), 0.9),
        Gate("CX", (1, 2)),
        Gate("CZ", (2, 0)),
        Gate("SWAP", (0, 1)),
    ]
    for gate in gates:
        u = full_unitary(gate, 3)
        np.testing.assert_allclose(
            u.conj().T @ u, np.eye(8), atol=1e-10, err_msg=gate.kind
        )


# ---------------------------------------------------------------------------
# circuits


def test_empty_circuit_preserves_state():
    state = StateVector.plus_state(2)
    out = run_circuit(Circuit(2), state)
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)


def test_hadamard_wall_gives_uniform_superposition():
    circ = Circuit(4)
    for q in range(4):
        circ.h(q)
    out = run_circuit(circ)
    np.testing.assert_allclose(out.amplitudes, np.full(16, 0.25), atol=1e-12)
    np.testing.assert_allclose(
        out.amplitudes, StateVector.plus_state(4).amplitudes, atol=1e-12
    )


def test_cx_ladder_keeps_zero_state():
    circ = Circuit(5)
    for q in range(4):
        circ.cx(q, q + 1)
    out = run_circuit(circ)
    np.testing.assert_allclose(
        out.amplitudes, StateVector.zero_state(5).amplitudes, atol=1e-12
    )


def test_random_circuit_preserves_norm():
    rng = np.random.default_rng(7)
    circ = Circuit(5)
    kinds = ["H", "SX", "RX", "RY", "RZ", "RZZ", "CX", "CZ", "SWAP"]
    for _ in range(60):
        kind = kinds[rng.integers(len(kinds))]
        if kind in ("RZZ", "CX", "CZ", "SWAP"):
            q1, q2 = rng.choice(5, size=2, replace=False)
            angle = float(rng.uniform(-3, 3)) if kind == "RZZ" else None
            circ.append(Gate(kind, (int(q1), int(q2)), angle))
        else:
            angle = float(rng.uniform(-3, 3)) if kind in ("RX", "RY", "RZ") else None
            circ.append(Gate(kind, (int(rng.integers(5)),), angle))
    out = run_circuit(circ)
    assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-9


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("H", (0, 1))
    with pytest.raises(ValueError):
        Gate("CX", (1, 1))
    with pytest.raises(ValueError):
        Gate("RX", (0,))
    with pytest.raises(ValueError):
        Gate("H", (0,), 0.5)
    with pytest.raises(ValueError):
        Gate("FOO", (0,))
    for angle in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="non-finite RZZ angle"):
            Gate("RZZ", (0, 1), angle)
    with pytest.raises(ValueError):
        Circuit(2).h(2)
    with pytest.raises(ValueError):
        apply_gate(basis("00"), Gate("CX", (0, 5)))


@pytest.mark.parametrize("cost", [[1.0], [], [1.0, 2.0, 3.0], np.zeros((2, 2))])
def test_phase_mixer_state_rejects_diagonal_without_qubits(cost):
    with pytest.raises(ValueError, match="not 2\\^n"):
        phase_mixer_state(cost, [(0.1, 0.2)])


def phase_mixer_gate_by_gate(cost, steps, mixer_first):
    """phase_mixer_state spelled out with apply_gate: per step the diagonal
    phase and an RX gate on every qubit, in the kernel's order."""
    n = cost.size.bit_length() - 1
    state = StateVector.plus_state(n)
    for phi, theta in steps:
        rx = [Gate("RX", (q,), theta) for q in range(n)]
        if mixer_first:
            for gate in rx:
                state = apply_gate(state, gate)
        # a named array, as in the kernel: numpy evaluates `a * temporary`
        # into the temporary above 256 KiB, and that loop can round differently
        phase = np.exp(-1j * phi * cost)
        state = StateVector(state.amplitudes * phase, n)
        if not mixer_first:
            for gate in rx:
                state = apply_gate(state, gate)
    return state


# an odd n leaves each RX wall's result in the kernel's other buffer, an even
# n in the same one; one to four steps cover both parities of buffer swaps
@pytest.mark.parametrize("mixer_first", [False, True], ids=["phase-first", "mixer-first"])
@pytest.mark.parametrize(
    "n", [1, 2, 3, 4, 7, 8, 15, 16],
    ids=lambda n: f"{'odd' if n % 2 else 'even'}-{n}",
)
def test_phase_mixer_state_equals_gates_for_odd_and_even_n(n, mixer_first):
    rng = np.random.default_rng(700 + 2 * n + mixer_first)
    cost = rng.uniform(-3.0, 3.0, size=1 << n)
    for p in range(1, 5):
        steps = rng.uniform(-np.pi, np.pi, size=(p, 2))
        fast = phase_mixer_state(cost, steps, mixer_first=mixer_first).amplitudes
        reference = phase_mixer_gate_by_gate(cost, steps, mixer_first).amplitudes
        assert np.array_equal(fast, reference)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
def test_kernel_rx_entries_equal_gate_matrix_bit_for_bit(thetas):
    walls = _rx_walls(thetas)
    for theta, mat in zip(thetas, walls):
        assert mat.tobytes() == gate_matrix(Gate("RX", (0,), theta)).tobytes()


def test_state_validation():
    with pytest.raises(ValueError):
        StateVector(np.ones(4, dtype=complex), 2)  # unnormalized
    with pytest.raises(ValueError):
        StateVector(np.array([1.0 + 0j]), 2)  # wrong length


@pytest.mark.parametrize(
    "amps",
    [[np.nan, 1.0], [1.0, complex(0.0, np.nan)], [np.inf, 0.0], [np.nan, np.nan]],
)
def test_state_rejects_non_finite_amplitudes(amps):
    with pytest.raises(ValueError, match="non-finite"):
        StateVector(np.array(amps, dtype=complex), 1)


# ---------------------------------------------------------------------------
# sampling


def test_sample_basis_state_all_counts_on_it():
    out = sample(basis("010"), shots=500, seed=1)
    assert out.counts == {"010": 500}
    assert out.shots == 500


def test_sample_uniform_single_qubit_frequency_bound():
    state = StateVector.plus_state(1)
    out = sample(state, shots=100_000, seed=3)
    freq = out.counts.get("0", 0) / 100_000
    assert abs(freq - 0.5) < 0.01


def test_sample_seed_determinism():
    state = StateVector.plus_state(3)
    a = sample(state, shots=1000, seed=11)
    b = sample(state, shots=1000, seed=11)
    c = sample(state, shots=1000, seed=12)
    assert a.counts == b.counts
    assert a.counts != c.counts


def test_sample_hellinger_fidelity_high_on_six_qubit_state():
    rng = np.random.default_rng(21)
    amps = rng.normal(size=64) + 1j * rng.normal(size=64)
    amps /= np.linalg.norm(amps)
    state = StateVector(amps, 6)
    out = sample(state, shots=100_000, seed=5)
    probs = state.probabilities()
    emp = np.zeros(64)
    for s, c in out.counts.items():
        emp[int(sum(int(ch) << i for i, ch in enumerate(s)))] = c / 100_000
    fidelity = float(np.sum(np.sqrt(emp * probs))) ** 2
    assert fidelity >= 0.99


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(1, 3000))
def test_sample_equals_per_string_comprehension(seed, n, shots):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    state = StateVector(amps / np.linalg.norm(amps), n)
    probs = state.probabilities()
    draws = np.random.default_rng(seed).multinomial(shots, probs / probs.sum())
    expected = {bits_to_str(int_to_bits(v, n)): int(c) for v, c in enumerate(draws) if c}
    got = sample(state, shots, seed)
    assert got.shots == shots
    assert list(got.counts.items()) == list(expected.items())


def test_sampleset_validation():
    with pytest.raises(ValueError):
        SampleSet({"00": 3, "01": 2}, shots=4)
    with pytest.raises(ValueError):
        SampleSet({"01": 1, "2": 1, "abc": 2}, shots=4)
    with pytest.raises(ValueError):
        SampleSet({"01": 2, "21": 2}, shots=4)
    with pytest.raises(ValueError):
        SampleSet({"00": -1, "01": 2}, shots=1)
    # str(10) and str(11) would pass as the bitstrings "10" and "11"
    for counts in ({10: 1, 11: 1}, {"10": 1, 11: 1}):
        with pytest.raises(ValueError, match="is not a str"):
            SampleSet(counts, shots=2)


# ---------------------------------------------------------------------------
# expectations


def test_expectation_on_basis_state_is_its_cost():
    cost = np.arange(8.0)  # bits @ (1, 2, 4): the cost of index v is v
    assert abs(expectation_diagonal(basis("110"), cost) - 3.0) < 1e-12


def test_expectation_on_uniform_state_is_mean():
    values = np.arange(16.0)
    state = StateVector.plus_state(4)
    assert abs(expectation_diagonal(state, values) - values.mean()) < 1e-12


def test_expectation_zero_cost():
    assert expectation_diagonal(StateVector.plus_state(3), np.zeros(8)) == 0.0


def test_expectation_rejects_wrong_length():
    with pytest.raises(ValueError):
        expectation_diagonal(StateVector.plus_state(2), np.zeros(3))


def test_probability_string_roundtrip():
    # amplitudes index little-endian: "110" has bits 0,1 set -> index 3
    state = basis("110")
    assert state.amplitudes[3] == 1.0
    assert bits_to_str(int_to_bits(3, 3)) == "110"
