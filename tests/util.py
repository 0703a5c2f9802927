"""Shared helpers for the test suite, and the per-value references that the
package's vectorised code is tested against."""

from __future__ import annotations

import numpy as np

from qubolab.model import (
    BinaryEncoding,
    IsingModel,
    QcioProblem,
    QuboProblem,
    QuioProblem,
    as_bits,
    upper_triangularize,
)
from qubolab.simulator import Circuit, Gate, StateVector
from qubolab.transpiler import Layout


def random_qubo(rng: np.random.Generator, n: int, density: float = 0.6) -> QuboProblem:
    """Random upper-triangular QUBO with entries in [-2, 2]."""
    Q = rng.uniform(-2.0, 2.0, size=(n, n))
    Q[rng.random((n, n)) > density] = 0.0
    Q = np.triu(Q)
    return QuboProblem(Q=Q, constant=float(rng.uniform(-1.0, 1.0)))


def random_qcio(rng: np.random.Generator, n: int) -> tuple[QcioProblem, BinaryEncoding]:
    """Random integer problem over {0..3}^n with one random equality constraint."""
    M = rng.uniform(-1.0, 1.0, size=(n, n))
    l = rng.uniform(-1.0, 1.0, size=n)
    c = float(rng.uniform(-1.0, 1.0))
    A = np.zeros((n, n))
    A[0] = rng.integers(0, 2, size=n).astype(float)
    if not A[0].any():
        A[0, 0] = 1.0
    x_feas = rng.integers(0, 4, size=n)
    r = np.zeros(n)
    r[0] = float(A[0] @ x_feas)
    qcio = QcioProblem(
        dim_n=n, M=M, l=l, c=c, A=A, r=r,
        lower=np.zeros(n, dtype=int), upper=np.full(n, 3),
    )
    return qcio, BinaryEncoding.levels(n)


def symmetrized(Q: np.ndarray) -> np.ndarray:
    return upper_triangularize(Q)


def qcio_cost(qcio: QcioProblem, x: np.ndarray) -> float:
    """x'Mx + lx + c of one integer point."""
    x = np.asarray(x, dtype=np.float64)
    return float(x @ qcio.M @ x + qcio.l @ x + qcio.c)


def constraint_residual(qcio: QcioProblem, x: np.ndarray) -> np.ndarray:
    """Ax - r of one integer point."""
    return qcio.A @ np.asarray(x, dtype=np.float64) - qcio.r


def quio_cost(quio: QuioProblem, x: np.ndarray) -> float:
    """The penalized cost of one integer point."""
    x = np.asarray(x, dtype=np.float64)
    return float(x @ quio.M_rho @ x + quio.l_rho @ x + quio.c_rho)


def qubo_cost(qubo: QuboProblem, bits: np.ndarray | str) -> float:
    """b'Qb + constant for a single bitstring; the per-string reference that
    ``QuboProblem.cost_vector`` and the quality metrics are tested against."""
    b = np.asarray(as_bits(bits), dtype=np.float64).ravel()
    if b.size != qubo.num_vars:
        raise ValueError(f"expected {qubo.num_vars} bits, got {b.size}")
    return float(b @ qubo.Q @ b + qubo.constant)


def diag_cost(ising: IsingModel, bits: np.ndarray) -> float:
    """The Ising diagonal of one bitstring; the per-string reference that
    ``IsingModel.cost_vector`` is tested against."""
    z = 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)
    cost = ising.h_const + float(ising.h_lin @ z)
    for (i, j), w in ising.h_quad.items():
        cost += w * z[i] * z[j]
    return cost


def int_to_bits(value: int, num_bits: int) -> np.ndarray:
    """Bits of ``value`` as an array with bit i (weight 2^i) at index i; the
    per-value reference that ``index_bits`` is tested against."""
    return (value >> np.arange(num_bits)) & 1


def bits_to_int(bits: np.ndarray) -> int:
    bits = np.asarray(bits)
    return int((bits.astype(np.int64) << np.arange(bits.size)).sum())


def bits_to_str(bits: np.ndarray) -> str:
    """The per-row reference that ``render_bits`` is tested against."""
    return "".join("1" if b else "0" for b in np.asarray(bits).ravel())


def expectation_diagonal(state: StateVector, diag_cost) -> float:
    """<state| D |state> for the diagonal operator D whose length-2^n value
    vector is ``diag_cost``."""
    probs = state.probabilities()
    values = np.asarray(diag_cost, dtype=float)
    if values.shape != probs.shape:
        raise ValueError("diagonal length does not match state dimension")
    return float(probs @ values)


def route_to_bits(order: list[int], m: int) -> np.ndarray:
    """Assignment bits of a tour, inverse of decode_trp for feasible inputs."""
    bits = np.zeros(m * m, dtype=np.int64)
    for t, i in enumerate(order):
        bits[i * m + t] = 1
    return bits


def permutation_unitary(wire_permutation: list) -> np.ndarray:
    """Unitary that relocates each wire's content per ``wire_permutation``."""
    n = len(wire_permutation)
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=complex)
    for v in range(dim):
        target = 0
        for w in range(n):
            if (v >> w) & 1:
                target |= 1 << wire_permutation[w]
        mat[target, v] = 1.0
    return mat


def embed_circuit(circuit: Circuit, layout: Layout, num_physical: int) -> Circuit:
    """The logical circuit rewritten onto physical wires (no routing)."""
    out = Circuit(num_physical)
    for gate in circuit.gates:
        out.append(
            Gate(gate.kind, tuple(layout.physical(q) for q in gate.qubits), gate.angle)
        )
    return out
