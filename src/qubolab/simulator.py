"""Dense statevector simulation of the small gate set used by the workbench.

Amplitude layout follows the model module: bit i of a string is qubit i and
carries weight 2^i, so amplitudes[v] belongs to the bitstring of integer v.
Rotation gates use the exp(-i theta/2 * P) convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import BRUTE_FORCE_CAP, index_bits, parse_bits, render_bits
from .model import require_dense, require_each, require_finite, require_integer

_ONE_QUBIT = ("H", "X", "SX", "RX", "RY", "RZ")
_TWO_QUBIT = ("RZZ", "CX", "CZ", "SWAP")
_ROTATIONS = ("RX", "RY", "RZ", "RZZ")
GATE_KINDS = _ONE_QUBIT + _TWO_QUBIT + ("MEASURE",)


@dataclass(frozen=True)
class Gate:
    """A single gate application: kind, operand qubits, optional angle."""

    kind: str
    qubits: tuple
    angle: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity = len(self.qubits)
        if self.kind in _ONE_QUBIT and arity != 1:
            raise ValueError(f"{self.kind} takes one qubit, got {arity}")
        if self.kind in _TWO_QUBIT and arity != 2:
            raise ValueError(f"{self.kind} takes two qubits, got {arity}")
        if self.kind == "MEASURE" and arity < 1:
            raise ValueError("MEASURE needs at least one qubit")
        if len(set(self.qubits)) != arity:
            raise ValueError(f"repeated operand in {self.kind} on {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError("negative qubit index")
        if self.kind in _ROTATIONS:
            if self.angle is None:
                raise ValueError(f"{self.kind} requires an angle")
            object.__setattr__(self, "angle", float(self.angle))
            require_finite(f"{self.kind} angle", self.angle)
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")


def gate_matrix(gate: Gate) -> np.ndarray:
    """Unitary of ``gate``; for two-qubit gates the first listed qubit is the
    high bit of the matrix index."""
    th = gate.angle
    if gate.kind == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    if gate.kind == "X":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if gate.kind == "SX":
        return 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
    if gate.kind == "RX":
        c, s = np.cos(th / 2), np.sin(th / 2)
        return np.array([[c, -1j * s], [-1j * s, c]])
    if gate.kind == "RY":
        c, s = np.cos(th / 2), np.sin(th / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if gate.kind == "RZ":
        return np.diag([np.exp(-0.5j * th), np.exp(0.5j * th)])
    if gate.kind == "RZZ":
        p = np.exp(0.5j * th)
        return np.diag([1 / p, p, p, 1 / p])
    if gate.kind == "CX":
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    if gate.kind == "CZ":
        return np.diag([1, 1, 1, -1]).astype(complex)
    if gate.kind == "SWAP":
        return np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
    raise ValueError(f"{gate.kind} has no unitary")


@dataclass
class Circuit:
    """An ordered gate list on a fixed register."""

    num_qubits: int
    gates: list = field(default_factory=list)

    def __post_init__(self):
        # circuits may target wide devices; only simulation is capped
        if self.num_qubits < 1:
            raise ValueError(f"need at least one qubit, got {self.num_qubits}")
        for g in self.gates:
            self._check(g)

    def _check(self, gate: Gate):
        if any(q >= self.num_qubits for q in gate.qubits):
            raise ValueError(f"gate {gate.kind} on {gate.qubits} exceeds register")

    def append(self, gate: Gate) -> "Circuit":
        self._check(gate)
        self.gates.append(gate)
        return self


@dataclass(eq=False)
class StateVector:
    amplitudes: np.ndarray
    num_qubits: int

    def __post_init__(self):
        # dense simulation only; 2^26 complex doubles ~ 1 GiB
        if not 1 <= self.num_qubits <= BRUTE_FORCE_CAP:
            raise ValueError(f"need 1..{BRUTE_FORCE_CAP} qubits, got {self.num_qubits}")
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if self.amplitudes.size != 1 << self.num_qubits:
            raise ValueError(
                f"{self.amplitudes.size} amplitudes for {self.num_qubits} qubits"
            )
        require_finite("amplitude", self.amplitudes)  # NaN passes the norm check
        norm = float(np.sum(np.abs(self.amplitudes) ** 2))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state not normalized: sum |a|^2 = {norm}")

    @classmethod
    def zero_state(cls, num_qubits: int) -> "StateVector":
        amps = np.zeros(1 << num_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(amps, num_qubits)

    @classmethod
    def plus_state(cls, num_qubits: int) -> "StateVector":
        dim = 1 << num_qubits
        return cls(np.full(dim, dim ** -0.5, dtype=complex), num_qubits)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass
class SampleSet:
    """Counts of sampled bitstrings; ``shots`` is their sum, set once here."""

    counts: dict
    shots: int = field(init=False)

    def __post_init__(self):
        if not isinstance(self.counts, dict):
            raise ValueError(f"counts must be an object, got {self.counts!r}")
        require_each(require_integer, "count", self.counts.values())
        self.counts = {k: int(v) for k, v in self.counts.items()}
        parse_bits(self.counts)
        if any(v < 0 for v in self.counts.values()):
            raise ValueError("negative count")
        self.shots = sum(self.counts.values())


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate; MEASURE is treated as a statevector no-op."""
    n = state.num_qubits
    if any(q >= n for q in gate.qubits):
        raise ValueError(f"gate {gate.kind} on {gate.qubits} exceeds {n} qubits")
    if gate.kind == "MEASURE":
        return StateVector(state.amplitudes.copy(), n)
    k = len(gate.qubits)
    mat = gate_matrix(gate).reshape([2] * (2 * k))
    # qubit q lives on axis n-1-q of the [2]*n view
    axes = [n - 1 - q for q in gate.qubits]
    psi = state.amplitudes.reshape([2] * n)
    psi = np.tensordot(mat, psi, axes=(list(range(k, 2 * k)), axes))
    psi = np.moveaxis(psi, list(range(k)), axes)
    return StateVector(np.ascontiguousarray(psi).reshape(-1), n)


def run_circuit(circuit: Circuit, initial: StateVector | None = None) -> StateVector:
    if initial is None:
        initial = StateVector.zero_state(circuit.num_qubits)
    if initial.num_qubits != circuit.num_qubits:
        raise ValueError("initial state size does not match circuit register")
    state = initial
    for gate in circuit.gates:
        state = apply_gate(state, gate)
    return state


_WALL_BLOCK = 256  # steps whose RX matrices a kernel holds at once


def _rx_walls(thetas, out: np.ndarray) -> np.ndarray:
    """RX(theta) for every angle in ``thetas``, written into the first
    ``len(thetas)`` matrices of the complex (m, 2, 2) array ``out`` and
    returned as that view, with ``gate_matrix``'s arithmetic, so each entry
    equals its ``Gate`` matrix: cos and sin of the halved angles as
    contiguous arrays, and the exact ``-1j * s``."""
    half = np.asarray(thetas, dtype=float) / 2
    walls = out[: len(half)]
    walls[:, 0, 0] = walls[:, 1, 1] = np.cos(half)
    np.multiply(-1j, np.sin(half), out=walls[:, 0, 1])
    walls[:, 1, 0] = walls[:, 0, 1]
    return walls


def _wall_legs(a: np.ndarray, b: np.ndarray, n: int) -> tuple:
    """The per-gate ``(source, target)`` views of an n-gate wall between the
    equal flat buffers ``a`` and ``b``: one list for a wall that starts in
    ``a``, one for a wall that starts in ``b``.

    Gate q reads its buffer through the F-ordered fastest-bit view
    ``reshape(half, 2).T`` and writes the other buffer's (2, half) view, so
    the two buffers swap roles at every gate. The product is the one
    ``apply_gate`` computes, and it puts the gate's bit slowest: each gate
    rotates the layout by one bit, so after n gates it is natural again. An
    odd n leaves the state in the other buffer.
    """
    half = a.size // 2
    a_to_b = (a.reshape(half, 2).T, b.reshape(2, half))
    b_to_a = (b.reshape(half, 2).T, a.reshape(2, half))
    return ([a_to_b, b_to_a] * n)[:n], ([b_to_a, a_to_b] * n)[:n]


def _wall(mats, legs: tuple, at: int) -> int:
    """Apply ``mats[q]`` to qubit q, for every q, to the state in buffer
    ``at`` of the pair that ``legs`` (from ``_wall_legs``) spans: one
    ``np.dot`` per gate. Returns the index of the buffer that then holds it."""
    for mat, (source, target) in zip(mats, legs[at]):
        np.dot(mat, source, out=target)
    return at ^ (len(legs[at]) & 1)


def _phase_factors(phi, distinct, table: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(-i phi cost[v]) for every v, written into ``out``, from the
    distinct-value pair ``distinct = (values, where)`` of ``cost``: the
    product and the complex ``exp`` of each of the k values go into the
    k-entry complex ``table``, and ``take`` gathers them."""
    values, where = distinct
    np.multiply(-1j * phi, values, out=table)
    return np.exp(table, out=table).take(where, out=out)


def phase_mixer_kernel(distinct, mixer_first: bool = False):
    """``evolve(phis, thetas)``: |+...+> through the steps ``zip(phis, thetas)``
    on a length-2^n cost diagonal, n >= 1, given as ``distinct = (values,
    where) = np.unique(cost, return_inverse=True)`` (``IsingModel.distinct_costs``).
    Each step multiplies amplitude v by exp(-i phi cost[v]), then applies
    RX(theta) to every qubit (the RX wall first with ``mixer_first``).

    ``_phase_factors`` exponentiates the k distinct values only. Each factor
    is the same IEEE product as on the whole diagonal (its real operand has a
    zero imaginary part, so each part rounds once, fused or not, in numpy's
    SIMD body and tail alike) and the same complex ``exp``; -0.0 and 0.0,
    which ``np.unique`` merges, give the same factor. So every state keeps
    its bits. Set up here once: the two complex buffers, which ``_wall``
    moves the state between (one ``np.dot`` per gate) and whose free one
    takes the factors, the factor table, and the RX matrices of
    ``_WALL_BLOCK`` steps, refilled per block. ``evolve`` returns the state's
    buffer unvalidated, and its next call overwrites it. QAOA, the landscape
    and Trotter run on it; the same gates through ``apply_gate`` are its
    oracle."""
    values, where = distinct
    n = where.size.bit_length() - 1
    if where.ndim != 1 or where.size < 2 or where.size != 1 << n:
        raise ValueError(f"cost diagonal of length {where.size} is not 2^n with n >= 1")
    buffers = (np.empty(where.size, dtype=complex), np.empty(where.size, dtype=complex))
    legs = _wall_legs(*buffers, n)
    table = np.empty(values.size, dtype=complex)
    walls = np.empty((_WALL_BLOCK, 2, 2), dtype=complex)

    def evolve(phis, thetas) -> np.ndarray:
        buffers[0].fill(where.size ** -0.5)
        at = 0  # index of the buffer that holds the state
        for first in range(0, len(thetas), _WALL_BLOCK):
            block = slice(first, first + _WALL_BLOCK)
            for phi, rx in zip(phis[block], _rx_walls(thetas[block], walls)):
                if mixer_first:
                    at = _wall([rx] * n, legs, at)
                psi, phase = buffers[at], buffers[1 - at]
                psi *= _phase_factors(phi, distinct, table, phase)
                if not mixer_first:
                    at = _wall([rx] * n, legs, at)
        return buffers[at]

    return evolve


def cx_chain_permutation(num_qubits: int) -> np.ndarray:
    """Index map of the chain CX(0,1) CX(1,2) ... CX(n-2,n-1): the chain
    takes amplitudes ``a`` to ``a[perm]``."""
    require_dense(num_qubits)
    index = np.arange(1 << num_qubits)
    perm = index
    for q in range(num_qubits - 1):
        perm = perm[index ^ (((index >> q) & 1) << (q + 1))]
    return perm


def ry_cx_kernel(perm: np.ndarray):
    """``amplitudes(angles)``: the real amplitudes of |0...0> after RY walls
    separated by CX chains; ``angles[l][q]`` is the RY angle on qubit q in wall
    l. The two buffers are set up here once; ``perm`` (from
    ``cx_chain_permutation``) gathers the state into the other one between
    walls, and ``_wall`` moves it between them. A call writes its RY
    matrices, with ``gate_matrix``'s arithmetic, into a table the kernel
    keeps and reallocates only for more layers than before. Every gate is
    real, so the state stays real. The next call overwrites the buffer a
    call returns; ``run_circuit`` on the same gates is the oracle."""
    n = perm.size.bit_length() - 1
    buffers = (np.empty(perm.size), np.empty(perm.size))
    legs = _wall_legs(*buffers, n)
    tables = np.empty((0, n, 2, 2))

    def amplitudes(angles) -> np.ndarray:
        nonlocal tables
        if len(tables) < len(angles):
            tables = np.empty((len(angles), n, 2, 2))
        buffers[0].fill(0.0)
        buffers[0][0] = 1.0
        at = 0  # index of the buffer that holds the state
        c, s = np.cos(angles / 2), np.sin(angles / 2)
        walls = tables[: len(angles)]
        walls[..., 0, 0] = walls[..., 1, 1] = c
        walls[..., 1, 0] = s
        np.negative(s, out=walls[..., 0, 1])
        for layer, mats in enumerate(walls):
            if layer:
                buffers[at].take(perm, out=buffers[1 - at])
                at ^= 1
            at = _wall(mats, legs, at)
        return buffers[at]

    return amplitudes


def sample(state: StateVector, shots: int, seed: int) -> SampleSet:
    """Multinomial shot sampling; deterministic for a fixed seed."""
    require_integer("shots", shots, least=1)
    probs = state.probabilities()
    probs = probs / probs.sum()
    draws = np.random.default_rng(seed).multinomial(shots, probs)
    drawn = np.flatnonzero(draws)
    keys = render_bits(index_bits(drawn, state.num_qubits))
    return SampleSet(dict(zip(keys, draws[drawn].tolist())))

