"""Dense statevector simulation of the small gate set used by the workbench.

Amplitude layout follows the model module: bit i of a string is qubit i and
carries weight 2^i, so amplitudes[v] belongs to the bitstring of integer v.
Rotation gates use the exp(-i theta/2 * P) convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import index_bits, parse_bits, render_bits, require_finite

# dense simulation only; 2^26 complex doubles ~ 1 GiB
MAX_QUBITS = 26

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

    # thin builders
    def h(self, q):
        return self.append(Gate("H", (q,)))

    def x(self, q):
        return self.append(Gate("X", (q,)))

    def sx(self, q):
        return self.append(Gate("SX", (q,)))

    def rx(self, q, theta):
        return self.append(Gate("RX", (q,), theta))

    def rz(self, q, theta):
        return self.append(Gate("RZ", (q,), theta))

    def rzz(self, q1, q2, theta):
        return self.append(Gate("RZZ", (q1, q2), theta))

    def cx(self, control, target):
        return self.append(Gate("CX", (control, target)))

    def cz(self, q1, q2):
        return self.append(Gate("CZ", (q1, q2)))

    def swap(self, q1, q2):
        return self.append(Gate("SWAP", (q1, q2)))

    def measure(self, *qubits):
        return self.append(Gate("MEASURE", tuple(qubits)))


@dataclass
class StateVector:
    amplitudes: np.ndarray
    num_qubits: int

    def __post_init__(self):
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(f"need 1..{MAX_QUBITS} qubits, got {self.num_qubits}")
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
    counts: dict
    shots: int

    def __post_init__(self):
        self.counts = {k: int(v) for k, v in self.counts.items()}
        parse_bits(self.counts)
        if any(v < 0 for v in self.counts.values()):
            raise ValueError("negative count")
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts do not sum to shots")


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


def _rx_walls(thetas) -> np.ndarray:
    """RX(theta) for every angle in ``thetas``, as a (len, 2, 2) array with
    ``gate_matrix``'s arithmetic, so each entry equals its ``Gate`` matrix."""
    half = np.asarray(thetas, dtype=float) / 2
    c, s = np.cos(half), np.sin(half)
    off = -1j * s
    return np.stack([c, off, off, c], axis=-1).reshape(-1, 2, 2)


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


def phase_mixer_state(cost, steps, mixer_first: bool = False) -> StateVector:
    """Evolve |+...+> through ``steps``, a sequence of ``(phi, theta)`` pairs.

    Each step multiplies amplitude v by exp(-i phi cost[v]) and then applies
    RX(theta) to every qubit; with ``mixer_first`` the RX wall comes first.
    ``cost`` is the length-2^n diagonal, n >= 1. The state lives in one of
    two complex buffers: ``_wall`` moves it between them, one ``np.dot`` per
    gate, and the phase factors go into the buffer it does not occupy. It is
    validated once at the end. QAOA states, the p=1 landscape and Trotter
    annealing all run on this kernel; applying the same gates one at a time
    with ``apply_gate`` is its oracle.
    """
    cost = np.asarray(cost, dtype=float)
    n = cost.size.bit_length() - 1
    if cost.ndim != 1 or cost.size < 2 or cost.size != 1 << n:
        raise ValueError(f"cost diagonal of length {cost.size} is not 2^n with n >= 1")
    steps = np.reshape(np.asarray(steps, dtype=float), (len(steps), 2))
    psi = np.full(cost.size, cost.size ** -0.5, dtype=complex)
    buffers = (psi, np.empty_like(psi))
    legs = _wall_legs(*buffers, n)
    at = 0  # index of the buffer that holds the state
    for phi, rx in zip(steps[:, 0], _rx_walls(steps[:, 1])):
        if mixer_first:
            at = _wall([rx] * n, legs, at)
        psi, phase = buffers[at], buffers[1 - at]
        np.multiply(-1j * phi, cost, out=phase)
        psi *= np.exp(phase, out=phase)
        if not mixer_first:
            at = _wall([rx] * n, legs, at)
    return StateVector(buffers[at], n)


def cx_chain_permutation(num_qubits: int) -> np.ndarray:
    """Index map of the chain CX(0,1) CX(1,2) ... CX(n-2,n-1): the chain
    takes amplitudes ``a`` to ``a[perm]``."""
    index = np.arange(1 << num_qubits)
    perm = index
    for q in range(num_qubits - 1):
        perm = perm[index ^ (((index >> q) & 1) << (q + 1))]
    return perm


def ry_cx_amplitudes(angles, perm: np.ndarray) -> np.ndarray:
    """Real amplitudes of |0...0> after RY walls separated by CX chains.

    ``angles[l][q]`` is the RY angle on qubit q in wall l; ``perm`` (from
    ``cx_chain_permutation``) is applied between consecutive walls by
    gathering the state into the other of two buffers, the same pair that
    ``_wall`` moves the state between. Every gate is real, so the state
    stays real; ``run_circuit`` on the same gates is the oracle.
    """
    angles = np.asarray(angles, dtype=float)
    n = angles.shape[1]
    buffers = (np.zeros(1 << n), np.empty(1 << n))
    buffers[0][0] = 1.0
    legs = _wall_legs(*buffers, n)
    at = 0  # index of the buffer that holds the state
    c, s = np.cos(angles / 2), np.sin(angles / 2)
    walls = np.stack([c, -s, s, c], axis=-1).reshape(*angles.shape, 2, 2)
    for layer, mats in enumerate(walls):
        if layer:
            np.take(buffers[at], perm, out=buffers[1 - at])
            at ^= 1
        at = _wall(mats, legs, at)
    return buffers[at]


def sample(state: StateVector, shots: int, seed: int) -> SampleSet:
    """Multinomial shot sampling; deterministic for a fixed seed."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = state.probabilities()
    probs = probs / probs.sum()
    draws = np.random.default_rng(seed).multinomial(shots, probs)
    drawn = np.flatnonzero(draws)
    keys = render_bits(index_bits(drawn, state.num_qubits))
    return SampleSet(dict(zip(keys, draws[drawn].tolist())), shots)


def expectation_diagonal(state: StateVector, diag_cost) -> float:
    """<state| D |state> for the diagonal operator D whose length-2^n value
    vector is ``diag_cost``."""
    probs = state.probabilities()
    values = np.asarray(diag_cost, dtype=float)
    if values.shape != probs.shape:
        raise ValueError("diagonal length does not match state dimension")
    return float(probs @ values)
