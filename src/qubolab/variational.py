"""QAOA and two-local VQE ansatz construction plus the p=1 cost landscape.

Parameter vector conventions:
  * QAOA: ``concat(betas, gammas)`` — 2p entries for p layers.
  * VQE: one RY angle per (layer, qubit), n(L+1) entries; layer-major order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import IsingModel, require_finite
from .simulator import Circuit, Gate, StateVector, cx_chain_permutation
from .simulator import phase_mixer_state, ry_cx_amplitudes
# unused here; perfbench/spans.py traces these names in this module
from .simulator import apply_gate, run_circuit  # noqa: F401

_TWO_PI = 2.0 * np.pi


@dataclass
class QaoaParams:
    betas: np.ndarray
    gammas: np.ndarray
    layers: int

    def __post_init__(self):
        self.betas = np.asarray(self.betas, dtype=float).reshape(-1)
        self.gammas = np.asarray(self.gammas, dtype=float).reshape(-1)
        if len(self.betas) != self.layers or len(self.gammas) != self.layers:
            raise ValueError(
                f"need {self.layers} betas and gammas, got "
                f"{len(self.betas)} and {len(self.gammas)}"
            )
        require_finite("QAOA angle", self.betas, self.gammas)

    @property
    def num_params(self) -> int:
        return 2 * self.layers

    @classmethod
    def from_vector(cls, vector) -> "QaoaParams":
        vector = np.asarray(vector, dtype=float).reshape(-1)
        if len(vector) % 2:
            raise ValueError("QAOA parameter vector must have even length")
        p = len(vector) // 2
        return cls(vector[:p], vector[p:], p)

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.betas, self.gammas])


@dataclass
class VqeParams:
    thetas: np.ndarray
    layers: int
    num_qubits: int

    def __post_init__(self):
        self.thetas = np.asarray(self.thetas, dtype=float).reshape(-1)
        if self.num_qubits < 2 or self.layers < 1:
            raise ValueError("the two-local ansatz needs two qubits and one layer")
        want = self.num_qubits * (self.layers + 1)
        if len(self.thetas) != want:
            raise ValueError(f"need {want} angles, got {len(self.thetas)}")
        require_finite("VQE angle", self.thetas)

    @property
    def num_params(self) -> int:
        return len(self.thetas)


@dataclass
class Landscape:
    grid: np.ndarray
    beta_axis: np.ndarray
    gamma_axis: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.beta_axis = np.asarray(self.beta_axis, dtype=float).reshape(-1)
        self.gamma_axis = np.asarray(self.gamma_axis, dtype=float).reshape(-1)
        if self.grid.shape != (len(self.beta_axis), len(self.gamma_axis)):
            raise ValueError("grid shape does not match axes")


@dataclass
class ParametricCircuit:
    """Circuit template whose rotation angles may reference a parameter.

    Each op's angle is either None (fixed gate), a float (fixed rotation), or
    a ``(param_index, coefficient)`` pair meaning angle = coefficient * param.
    """

    num_qubits: int
    num_params: int
    ops: list = field(default_factory=list)

    def add(self, kind, qubits, angle=None):
        if isinstance(angle, tuple):
            idx, coef = angle
            if not 0 <= idx < self.num_params:
                raise ValueError(f"parameter index {idx} out of range")
            angle = (int(idx), float(coef))
        self.ops.append((kind, tuple(qubits), angle))
        return self

    def bind(self, vector) -> Circuit:
        vector = np.asarray(vector, dtype=float).reshape(-1)
        if len(vector) != self.num_params:
            raise ValueError(
                f"expected {self.num_params} parameters, got {len(vector)}"
            )
        circ = Circuit(self.num_qubits)
        for kind, qubits, angle in self.ops:
            if isinstance(angle, tuple):
                angle = angle[1] * vector[angle[0]]
            circ.append(Gate(kind, qubits, angle))
        return circ


def qaoa_circuit(ising: IsingModel, p: int) -> ParametricCircuit:
    """Gate-level QAOA ansatz: Hadamard wall, then p alternating phase/mixer
    layers. Parameters are ``concat(betas, gammas)``; phase angles carry the
    Ising coefficients (RZ_i(2 gamma h'_i), RZZ_ij(2 gamma h_ij))."""
    if p < 1:
        raise ValueError("need at least one layer")
    n = ising.num_qubits
    circ = ParametricCircuit(n, 2 * p)
    for q in range(n):
        circ.add("H", (q,))
    couplings = sorted(ising.h_quad.items())
    for layer in range(p):
        beta_idx, gamma_idx = layer, p + layer
        for i, h in enumerate(ising.h_lin):
            if h != 0.0:
                circ.add("RZ", (i,), (gamma_idx, 2.0 * h))
        for (i, j), h in couplings:
            if h != 0.0:
                circ.add("RZZ", (i, j), (gamma_idx, 2.0 * h))
        for q in range(n):
            circ.add("RX", (q,), (beta_idx, 2.0))
    return circ


def qaoa_state_fast(ising: IsingModel, params: QaoaParams) -> StateVector:
    """Diagonal-phase QAOA evolution on ``phase_mixer_state``: per layer,
    multiply amplitudes by exp(-i gamma * cost(b)), then mix with RX(2 beta).

    The gate-level ``qaoa_circuit`` is its oracle and differs only by a global
    phase (the constant term h'' enters here but not there)."""
    return phase_mixer_state(
        ising.cost_vector(), list(zip(params.gammas, 2.0 * params.betas))
    )


def vqe_circuit(num_qubits: int, layers: int) -> ParametricCircuit:
    """Two-local ansatz: L blocks of [RY wall, CX chain], then a closing RY
    wall; n(L+1) parameters, layer-major."""
    if num_qubits < 2:
        raise ValueError("need at least two qubits")
    if layers < 1:
        raise ValueError("need at least one layer")
    circ = ParametricCircuit(num_qubits, num_qubits * (layers + 1))
    for layer in range(layers):
        for q in range(num_qubits):
            circ.add("RY", (q,), (layer * num_qubits + q, 1.0))
        for q in range(num_qubits - 1):
            circ.add("CX", (q, q + 1))
    for q in range(num_qubits):
        circ.add("RY", (q,), (layers * num_qubits + q, 1.0))
    return circ


def vqe_state(params: VqeParams) -> StateVector:
    """The two-local ansatz state at ``params`` on the real-valued
    ``ry_cx_amplitudes`` kernel; ``vqe_circuit`` through ``run_circuit`` is
    its oracle."""
    n = params.num_qubits
    thetas = params.thetas.reshape(params.layers + 1, n)
    return StateVector(ry_cx_amplitudes(thetas, cx_chain_permutation(n)), n)


def _energy(probs: np.ndarray, cost: np.ndarray, shots: int | None, rng) -> float:
    """<cost> under ``probs``: exact for ``shots=None``, otherwise the mean
    over ``shots`` multinomial draws from the generator ``rng``."""
    if shots is None:
        return float(probs @ cost)
    draws = rng.multinomial(shots, probs / probs.sum())
    return float(draws @ cost) / shots


def qaoa_expectation(
    ising: IsingModel,
    params: QaoaParams,
    shots: int | None = None,
    rng=None,
) -> float:
    """<H_C> in the QAOA state; exact by default, empirical when shots given."""
    state = qaoa_state_fast(ising, params)
    if shots is not None:
        rng = np.random.default_rng(rng)
    return _energy(state.probabilities(), ising.cost_vector(), shots, rng)


def cost_landscape(
    ising: IsingModel,
    resolution: int = 50,
    shots: int | None = None,
    seed: int | None = None,
) -> Landscape:
    """p=1 QAOA energy over the [0, pi]^2 grid; grid[i][j] = E(beta_i, gamma_j)."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    axis = np.linspace(0.0, np.pi, resolution)
    rng = np.random.default_rng(seed)
    grid = np.empty((resolution, resolution))
    for j, gamma in enumerate(axis):
        for i, beta in enumerate(axis):
            params = QaoaParams([beta], [gamma], 1)
            grid[i, j] = qaoa_expectation(ising, params, shots, rng)
    return Landscape(grid, axis.copy(), axis.copy())


def qaoa_objective(ising: IsingModel, shots: int | None = None, seed: int | None = None):
    """Objective over ``concat(betas, gammas)`` vectors, for the optimizer."""
    rng = np.random.default_rng(seed)

    def objective(vector) -> float:
        return qaoa_expectation(
            ising, QaoaParams.from_vector(vector), shots=shots, rng=rng
        )

    return objective


def vqe_objective(
    ising: IsingModel,
    layers: int,
    shots: int | None = None,
    seed: int | None = None,
):
    """Objective over two-local RY angle vectors, for the optimizer, on the
    real-valued ``ry_cx_amplitudes`` kernel (each CX chain one precomputed
    permutation); the gate-level ``vqe_circuit`` is its oracle."""
    n = ising.num_qubits
    vqe_circuit(n, layers)  # rejects n < 2 and layers < 1
    perm = cx_chain_permutation(n)
    cost = ising.cost_vector()
    rng = np.random.default_rng(seed)

    def objective(vector) -> float:
        thetas = VqeParams(vector, layers, n).thetas
        amps = ry_cx_amplitudes(thetas.reshape(layers + 1, n), perm)
        return _energy(amps * amps, cost, shots, rng)

    return objective
