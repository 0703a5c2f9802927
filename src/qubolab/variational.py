"""QAOA and two-local VQE ansatz construction plus the p=1 cost landscape.

The one module that tells the ansätze apart. A parameter vector is parsed
once, by ``ansatz_params``, into its ansatz's angle table:
  * QAOA: ``concat(betas, gammas)``, 2p entries for p layers, as the (2, p)
    table of betas then gammas.
  * VQE: one RY angle per (layer, qubit), n(L+1) entries in layer-major
    order, as the (L+1, n) table of RY walls.
The kernels and the gate builders take that table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import IsingModel, require_finite, require_integer
from .simulator import Circuit, Gate, StateVector, cx_chain_permutation
from .simulator import phase_mixer_kernel, ry_cx_kernel
# unused here; perfbench/spans.py traces these names in this module
from .simulator import apply_gate, run_circuit  # noqa: F401

# each ansatz by name, with the range [0, high) its training starts draw
# every angle from
START_RANGE = {"qaoa": np.pi, "vqe": 2.0 * np.pi}
ANSATZE = tuple(START_RANGE)


def _table_shape(algorithm: str, layers: int, num_qubits: int) -> tuple[int, int]:
    """Shape of the named ansatz's angle table: (2, p) for QAOA, (L+1, n) for
    the two-local VQE. Refuses an unknown ansatz, ``layers`` that is not an
    integer (a train result's field is read as written) or is below 1, and a
    VQE on fewer than two qubits."""
    if algorithm not in START_RANGE:
        raise ValueError(f"no ansatz named {algorithm!r}; need {' or '.join(ANSATZE)}")
    require_integer("layers", layers)
    if layers < 1:
        raise ValueError("need at least one layer")
    if algorithm == "qaoa":
        return 2, layers
    if num_qubits < 2:
        raise ValueError("the two-local ansatz needs two qubits")
    return layers + 1, num_qubits


def num_params(algorithm: str, layers: int, num_qubits: int) -> int:
    """Length of the named ansatz's parameter vector: 2p for QAOA, n(L+1)
    for the two-local VQE; refuses what ``_table_shape`` refuses."""
    rows, columns = _table_shape(algorithm, layers, num_qubits)
    return rows * columns


def ansatz_params(algorithm: str, layers: int, num_qubits: int, vector) -> np.ndarray:
    """The one parse of a parameter vector: ``vector`` as the named ansatz's
    angle table, whose ``ravel()`` is ``vector``; ``ValueError`` unless
    ``layers`` is an integer >= 1 and ``vector`` holds ``num_params``
    finite angles."""
    shape = _table_shape(algorithm, layers, num_qubits)
    vector = np.asarray(vector, dtype=float).reshape(-1)
    if len(vector) != shape[0] * shape[1]:
        raise ValueError(
            f"{algorithm} with {layers} layers needs {shape[0] * shape[1]} parameters, "
            f"got {len(vector)}"
        )
    require_finite(f"{algorithm} angle", vector)
    return vector.reshape(shape)


@dataclass(eq=False)
class Landscape:
    """``grid[i][j]`` is the energy at ``(beta, gamma) = (axis[i], axis[j])``."""

    grid: np.ndarray
    axis: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.axis = np.asarray(self.axis, dtype=float).reshape(-1)
        if self.grid.shape != (len(self.axis), len(self.axis)):
            raise ValueError("grid shape does not match the axis")


def qaoa_circuit(ising: IsingModel, table: np.ndarray) -> Circuit:
    """Gate-level QAOA ansatz at the (2, p) angle ``table``: Hadamard wall,
    then per layer the phase gates RZ_i(2 gamma h'_i), RZZ_ij(2 gamma h_ij)
    and the mixer RX(2 beta) on every qubit."""
    n = ising.num_qubits
    circ = Circuit(n)
    for q in range(n):
        circ.append(Gate("H", (q,)))
    couplings = sorted(ising.h_quad.items())
    # 2h is rounded before the product, so reported gate angles stay as they were
    for beta, gamma in zip(*table):
        for i, h in enumerate(ising.h_lin):
            if h != 0.0:
                circ.append(Gate("RZ", (i,), (2.0 * h) * gamma))
        for (i, j), h in couplings:
            if h != 0.0:
                circ.append(Gate("RZZ", (i, j), (2.0 * h) * gamma))
        for q in range(n):
            circ.append(Gate("RX", (q,), 2.0 * beta))
    return circ


def vqe_circuit(table: np.ndarray) -> Circuit:
    """Two-local ansatz at the (L+1, n) angle ``table``: L blocks of [RY wall,
    CX chain], then a closing RY wall."""
    n = table.shape[1]
    circ = Circuit(n)
    *blocks, closing = table
    for wall in blocks:
        for q, theta in enumerate(wall):
            circ.append(Gate("RY", (q,), theta))
        for q in range(n - 1):
            circ.append(Gate("CX", (q, q + 1)))
    for q, theta in enumerate(closing):
        circ.append(Gate("RY", (q,), theta))
    return circ


def _amplitudes(ising: IsingModel, algorithm: str):
    """The named ansatz's amplitudes as a function of its angle table, on a
    kernel set up here once, whose next call overwrites them: complex from
    ``phase_mixer_kernel``, real from ``ry_cx_kernel``. The gate-level
    ``qaoa_circuit`` and ``vqe_circuit`` are their oracles, QAOA's up to the
    global phase of the constant h'', which the kernel's diagonal holds. The
    QAOA kernel takes the diagonal as ``ising.distinct_costs()``, so every
    kernel of one model shares one distinct-value table."""
    if algorithm == "qaoa":
        evolve = phase_mixer_kernel(ising.distinct_costs())
        return lambda table: evolve(table[1], 2.0 * table[0])
    return ry_cx_kernel(cx_chain_permutation(ising.num_qubits))


def ansatz_state(ising: IsingModel, algorithm: str, layers: int, vector) -> StateVector:
    """The named ansatz's state at the parameter ``vector``, on its own kernel."""
    table = ansatz_params(algorithm, layers, ising.num_qubits, vector)
    return StateVector(_amplitudes(ising, algorithm)(table), ising.num_qubits)


def ansatz_circuit(ising: IsingModel, algorithm: str, layers: int, vector) -> Circuit:
    """The named ansatz's gate-level circuit at the parameter ``vector``."""
    table = ansatz_params(algorithm, layers, ising.num_qubits, vector)
    if algorithm == "qaoa":
        return qaoa_circuit(ising, table)
    return vqe_circuit(table)


def _energy(probs: np.ndarray, cost: np.ndarray, shots: int | None, rng) -> float:
    """<cost> under ``probs``: exact for ``shots=None``, otherwise the mean
    over ``shots`` multinomial draws from the generator ``rng``."""
    if shots is None:
        return float(probs @ cost)
    draws = rng.multinomial(shots, probs / probs.sum())
    return float(draws @ cost) / shots


def _objective(ising: IsingModel, algorithm: str, layers, shots, seed):
    """The energy over parameter vectors that both ansätze share: ``layers``,
    ``shots`` and the cost diagonal are read once; each vector is parsed by
    ``ansatz_params`` and scored by ``_energy`` of its squared amplitudes,
    with shots drawn from one generator seeded by ``seed``."""
    n = ising.num_qubits
    num_params(algorithm, layers, n)  # refuses bad layers and a one-qubit VQE
    if shots is not None:
        require_integer("shots", shots, least=1)
    cost = ising.cost_vector()
    amplitudes = _amplitudes(ising, algorithm)
    rng = np.random.default_rng(seed)

    def objective(vector) -> float:
        amps = amplitudes(ansatz_params(algorithm, layers, n, vector))
        return _energy(np.abs(amps) ** 2, cost, shots, rng)

    return objective


def qaoa_objective(
    ising: IsingModel, layers: int, shots: int | None = None, seed: int | None = None
):
    """Objective over ``concat(betas, gammas)`` vectors, on ``phase_mixer_kernel``."""
    return _objective(ising, "qaoa", layers, shots, seed)


def vqe_objective(
    ising: IsingModel, layers: int, shots: int | None = None, seed: int | None = None
):
    """Objective over two-local RY angle vectors, on ``ry_cx_kernel``."""
    return _objective(ising, "vqe", layers, shots, seed)


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
    return Landscape(grid, axis)
