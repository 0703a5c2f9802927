"""QAOA and two-local VQE ansatz construction plus the p=1 cost landscape.

Parameter vector conventions (``num_params`` holds both counts):
  * QAOA: ``concat(betas, gammas)`` — 2p entries for p layers.
  * VQE: one RY angle per (layer, qubit), n(L+1) entries; layer-major order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import IsingModel, require_finite, require_integer
from .simulator import Circuit, Gate, StateVector, cx_chain_permutation
from .simulator import phase_mixer_state, ry_cx_amplitudes
# unused here; perfbench/spans.py traces these names in this module
from .simulator import apply_gate, run_circuit  # noqa: F401


def num_params(algorithm: str, layers: int, num_qubits: int) -> int:
    """Length of the named ansatz's parameter vector: 2p for QAOA, n(L+1)
    for the two-local VQE. Refuses an unknown ansatz, one without layers and
    a VQE on fewer than two qubits."""
    if algorithm not in ("qaoa", "vqe"):
        raise ValueError(f"no ansatz named {algorithm!r}; need qaoa or vqe")
    if layers < 1:
        raise ValueError("need at least one layer")
    if algorithm == "qaoa":
        return 2 * layers
    if num_qubits < 2:
        raise ValueError("the two-local ansatz needs two qubits")
    return num_qubits * (layers + 1)


@dataclass
class QaoaParams:
    betas: np.ndarray
    gammas: np.ndarray
    layers: int

    def __post_init__(self):
        num_params("qaoa", self.layers, 0)  # rejects layers < 1
        self.betas = np.asarray(self.betas, dtype=float).reshape(-1)
        self.gammas = np.asarray(self.gammas, dtype=float).reshape(-1)
        if len(self.betas) != self.layers or len(self.gammas) != self.layers:
            raise ValueError(
                f"need {self.layers} betas and gammas, got "
                f"{len(self.betas)} and {len(self.gammas)}"
            )
        require_finite("QAOA angle", self.betas, self.gammas)


@dataclass
class VqeParams:
    thetas: np.ndarray
    layers: int
    num_qubits: int

    def __post_init__(self):
        self.thetas = np.asarray(self.thetas, dtype=float).reshape(-1)
        want = num_params("vqe", self.layers, self.num_qubits)
        if len(self.thetas) != want:
            raise ValueError(f"need {want} angles, got {len(self.thetas)}")
        require_finite("VQE angle", self.thetas)


def ansatz_params(algorithm: str, layers: int, num_qubits: int, vector):
    """``vector`` as the named ansatz's ``QaoaParams`` or ``VqeParams``;
    ``ValueError`` unless ``layers`` is an integer (a train result's field
    is read as written) and ``vector`` holds ``num_params`` finite angles."""
    require_integer("layers", layers)
    vector = np.asarray(vector, dtype=float).reshape(-1)
    want = num_params(algorithm, layers, num_qubits)
    if len(vector) != want:
        raise ValueError(
            f"{algorithm} with {layers} layers needs {want} parameters, got {len(vector)}"
        )
    if algorithm == "qaoa":
        return QaoaParams(vector[:layers], vector[layers:], layers)
    return VqeParams(vector, layers, num_qubits)


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


def qaoa_circuit(ising: IsingModel, params: QaoaParams) -> Circuit:
    """Gate-level QAOA ansatz at ``params``: Hadamard wall, then per layer
    the phase gates RZ_i(2 gamma h'_i), RZZ_ij(2 gamma h_ij) and the mixer
    RX(2 beta) on every qubit."""
    n = ising.num_qubits
    circ = Circuit(n)
    for q in range(n):
        circ.h(q)
    couplings = sorted(ising.h_quad.items())
    # 2h is rounded before the product, so reported gate angles stay as they were
    for beta, gamma in zip(params.betas, params.gammas):
        for i, h in enumerate(ising.h_lin):
            if h != 0.0:
                circ.rz(i, (2.0 * h) * gamma)
        for (i, j), h in couplings:
            if h != 0.0:
                circ.rzz(i, j, (2.0 * h) * gamma)
        for q in range(n):
            circ.rx(q, 2.0 * beta)
    return circ


def qaoa_state_fast(ising: IsingModel, params: QaoaParams) -> StateVector:
    """Diagonal-phase QAOA evolution on ``phase_mixer_state``: per layer,
    multiply amplitudes by exp(-i gamma * cost(b)), then mix with RX(2 beta).

    The gate-level ``qaoa_circuit`` is its oracle and differs only by a global
    phase (the constant term h'' enters here but not there)."""
    return phase_mixer_state(
        ising.cost_vector(), list(zip(params.gammas, 2.0 * params.betas))
    )


def vqe_circuit(params: VqeParams) -> Circuit:
    """Two-local ansatz at ``params``: L blocks of [RY wall, CX chain], then a
    closing RY wall."""
    n = params.num_qubits
    circ = Circuit(n)
    *blocks, closing = params.thetas.reshape(params.layers + 1, n)
    for wall in blocks:
        for q, theta in enumerate(wall):
            circ.append(Gate("RY", (q,), theta))
        for q in range(n - 1):
            circ.cx(q, q + 1)
    for q, theta in enumerate(closing):
        circ.append(Gate("RY", (q,), theta))
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


def _objective(ising: IsingModel, algorithm: str, layers, shots, seed, probabilities):
    """The energy over parameter vectors that both ansätze share: ``layers``,
    ``shots`` and the cost diagonal are read once; each vector is parsed by
    ``ansatz_params`` and scored by ``_energy`` of ``probabilities(params)``,
    with shots drawn from one generator seeded by ``seed``."""
    n = ising.num_qubits
    num_params(algorithm, layers, n)  # rejects layers < 1 and a one-qubit VQE
    if shots is not None:
        require_integer("shots", shots, least=1)
    cost = ising.cost_vector()
    rng = np.random.default_rng(seed)

    def objective(vector) -> float:
        params = ansatz_params(algorithm, layers, n, vector)
        return _energy(probabilities(params), cost, shots, rng)

    return objective


def qaoa_objective(
    ising: IsingModel, layers: int, shots: int | None = None, seed: int | None = None
):
    """Objective over ``concat(betas, gammas)`` vectors, on ``qaoa_state_fast``."""

    def probabilities(params: QaoaParams) -> np.ndarray:
        return qaoa_state_fast(ising, params).probabilities()

    return _objective(ising, "qaoa", layers, shots, seed, probabilities)


def vqe_objective(
    ising: IsingModel, layers: int, shots: int | None = None, seed: int | None = None
):
    """Objective over two-local RY angle vectors on the real-valued
    ``ry_cx_amplitudes`` kernel (each CX chain one precomputed permutation);
    the gate-level ``vqe_circuit`` is its oracle."""
    n = ising.num_qubits

    def probabilities(params: VqeParams) -> np.ndarray:
        amps = ry_cx_amplitudes(params.thetas.reshape(layers + 1, n), perm)
        return amps * amps

    objective = _objective(ising, "vqe", layers, shots, seed, probabilities)
    perm = cx_chain_permutation(n)  # after the body's checks, before any call
    return objective


def cost_landscape(
    ising: IsingModel, resolution: int = 50, shots: int | None = None, seed: int | None = None
) -> Landscape:
    """p=1 QAOA energy over the [0, pi]^2 grid; grid[i][j] = E(beta_i, gamma_j),
    evaluated column by column with one ``qaoa_objective``."""
    require_integer("resolution", resolution, least=2)
    energy = qaoa_objective(ising, 1, shots, seed)
    axis = np.linspace(0.0, np.pi, resolution)
    grid = np.empty((resolution, resolution))
    for j, gamma in enumerate(axis):
        for i, beta in enumerate(axis):
            grid[i, j] = energy([beta, gamma])
    return Landscape(grid, axis.copy(), axis.copy())
