"""Connectivity-aware circuit lowering: SWAP routing over a coupling graph,
basis-gate decomposition, two-qubit-gate counting, and the multiplicative
circuit score.

Routing is greedy per-gate shortest-path insertion with seeded tie-breaks —
deliberately simpler than production transpilers, so counted CX totals are an
upper-bound analog with reproducible per-seed spread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simulator import Circuit, Gate, gate_matrix, run_circuit, StateVector

UNITARY_QUBIT_CAP = 6

# 27-qubit heavy-hex lattice (rows of hexagons sharing cell borders)
_HEAVY_HEX_27 = [
    (0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7),
    (7, 10), (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15),
    (13, 14), (14, 16), (15, 18), (16, 19), (17, 18), (18, 21), (19, 20),
    (19, 22), (21, 23), (22, 25), (23, 24), (24, 25), (25, 26),
]


@dataclass
class CouplingMap:
    """Undirected connectivity graph over physical qubits."""

    num_qubits: int
    edges: list

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("need at least one physical qubit")
        seen = set()
        normalized = []
        for a, b in self.edges:
            a, b = int(a), int(b)
            if a == b:
                raise ValueError(f"self-loop on qubit {a}")
            if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise ValueError(f"edge ({a}, {b}) out of range")
            e = (min(a, b), max(a, b))
            if e not in seen:
                seen.add(e)
                normalized.append(e)
        self.edges = sorted(normalized)
        self._adjacency = {q: [] for q in range(self.num_qubits)}
        for a, b in self.edges:
            self._adjacency[a].append(b)
            self._adjacency[b].append(a)
        for q in self._adjacency:
            self._adjacency[q].sort()

    def neighbors(self, q: int) -> list:
        return list(self._adjacency[q])

    def distances(self, source: int) -> np.ndarray:
        """BFS hop counts from ``source``; unreachable qubits get -1."""
        dist = np.full(self.num_qubits, -1, dtype=int)
        dist[source] = 0
        frontier = [source]
        while frontier:
            nxt = []
            for q in frontier:
                for r in self._adjacency[q]:
                    if dist[r] < 0:
                        dist[r] = dist[q] + 1
                        nxt.append(r)
            frontier = nxt
        return dist

    def is_connected(self) -> bool:
        return bool(np.all(self.distances(0) >= 0))

    @classmethod
    def line(cls, n: int) -> "CouplingMap":
        return cls(n, [(q, q + 1) for q in range(n - 1)])

    @classmethod
    def ring(cls, n: int) -> "CouplingMap":
        if n < 3:
            raise ValueError("ring needs at least 3 qubits")
        return cls(n, [(q, (q + 1) % n) for q in range(n)])

    @classmethod
    def full(cls, n: int) -> "CouplingMap":
        return cls(n, [(a, b) for a in range(n) for b in range(a + 1, n)])

    @classmethod
    def heavy_hex_27(cls) -> "CouplingMap":
        return cls(27, list(_HEAVY_HEX_27))


@dataclass
class ErrorMap:
    """Per-instruction error rates: 1q per qubit, 2q per edge, measure per
    qubit. RZ is virtual and always error-free."""

    single: dict
    two: dict
    measure: dict

    def __post_init__(self):
        self.single = {int(q): float(e) for q, e in self.single.items()}
        self.two = {
            (min(int(a), int(b)), max(int(a), int(b))): float(e)
            for (a, b), e in self.two.items()
        }
        self.measure = {int(q): float(e) for q, e in self.measure.items()}
        for pool in (self.single.values(), self.two.values(), self.measure.values()):
            for e in pool:
                if not 0.0 <= e <= 1.0:
                    raise ValueError(f"error rate {e} outside [0, 1]")

    @classmethod
    def uniform(
        cls, coupling: CouplingMap, single: float, two: float, measure: float
    ) -> "ErrorMap":
        return cls(
            {q: single for q in range(coupling.num_qubits)},
            {e: two for e in coupling.edges},
            {q: measure for q in range(coupling.num_qubits)},
        )

    def rate(self, gate: Gate) -> float:
        if gate.kind == "RZ":
            return 0.0
        if gate.kind == "MEASURE":
            missing = [q for q in gate.qubits if q not in self.measure]
            if missing:
                raise ValueError(f"no measurement error entry for qubit {missing[0]}")
            # treated as one instruction per measured qubit
            survival = 1.0
            for q in gate.qubits:
                survival *= 1.0 - self.measure[q]
            return 1.0 - survival
        if len(gate.qubits) == 1:
            q = gate.qubits[0]
            if q not in self.single:
                raise ValueError(f"no 1q error entry for qubit {q}")
            return self.single[q]
        a, b = gate.qubits
        e = (min(a, b), max(a, b))
        if e not in self.two:
            raise ValueError(f"no 2q error entry for edge {e}")
        return self.two[e]


@dataclass
class Layout:
    """Injective logical -> physical assignment; index = logical qubit."""

    assignment: list

    def __post_init__(self):
        self.assignment = [int(p) for p in self.assignment]
        if len(set(self.assignment)) != len(self.assignment):
            raise ValueError("layout must be injective")
        if any(p < 0 for p in self.assignment):
            raise ValueError("negative physical index")

    @classmethod
    def trivial(cls, n: int) -> "Layout":
        return cls(list(range(n)))

    def physical(self, logical: int) -> int:
        return self.assignment[logical]


@dataclass
class RoutedCircuit:
    """Routing result: the physical circuit, the layouts before and after,
    and the net wire permutation produced by inserted SWAPs
    (wire_permutation[w] = where wire w's content ends up)."""

    circuit: Circuit
    initial_layout: Layout
    final_layout: Layout
    wire_permutation: list


def route(
    circuit: Circuit, coupling: CouplingMap, layout: Layout, seed: int = 0
) -> RoutedCircuit:
    """Map a logical circuit onto the coupling graph, inserting SWAP chains
    along seeded shortest paths so every 2q gate lands on an edge."""
    n_log, n_phys = circuit.num_qubits, coupling.num_qubits
    if len(layout.assignment) != n_log:
        raise ValueError("layout does not cover the logical register")
    if any(p >= n_phys for p in layout.assignment):
        raise ValueError("layout exceeds the physical register")
    rng = np.random.default_rng(seed)
    position = list(layout.assignment)  # logical -> physical
    occupant = {p: l for l, p in enumerate(position)}  # physical -> logical
    sigma = list(range(n_phys))  # wire -> current position of its content
    out = Circuit(n_phys)

    def do_swap(p, q):
        out.swap(p, q)
        lp, lq = occupant.get(p), occupant.get(q)
        if lp is not None:
            position[lp] = q
        if lq is not None:
            position[lq] = p
        occupant[p], occupant[q] = lq, lp
        for w in range(n_phys):
            if sigma[w] == p:
                sigma[w] = q
            elif sigma[w] == q:
                sigma[w] = p

    for gate in circuit.gates:
        if len(gate.qubits) == 1 or gate.kind == "MEASURE":
            out.append(
                Gate(gate.kind, tuple(position[q] for q in gate.qubits), gate.angle)
            )
            continue
        a, b = gate.qubits
        pa, pb = position[a], position[b]
        dist = coupling.distances(pb)
        if dist[pa] < 0:
            raise ValueError(f"qubits {pa} and {pb} are disconnected")
        while dist[pa] > 1:
            options = [
                r for r in coupling.neighbors(pa) if dist[r] == dist[pa] - 1
            ]
            step = int(options[rng.integers(len(options))])
            do_swap(pa, step)
            pa = step
        out.append(Gate(gate.kind, (pa, pb), gate.angle))
    return RoutedCircuit(
        out,
        layout,
        Layout(list(position)),
        sigma,
    )


def _zyz_angles(u: np.ndarray) -> tuple:
    """Euler angles (theta, phi, lam) with U ~ RZ(phi) RY(theta) RZ(lam)."""
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    v = u / np.sqrt(det)
    a, b = v[0, 0], v[1, 0]
    theta = 2.0 * np.arctan2(abs(b), abs(a))
    angle_a = np.angle(a) if abs(a) > 1e-12 else 0.0
    angle_b = np.angle(b) if abs(b) > 1e-12 else 0.0
    phi = -angle_a + angle_b
    lam = -angle_a - angle_b
    return theta, phi, lam


def _emit_1q(out: Circuit, q: int, u: np.ndarray):
    """ZXZXZ synthesis: U ~ RZ(phi+pi) SX RZ(theta+pi) SX RZ(lam)."""
    theta, phi, lam = _zyz_angles(u)
    out.rz(q, lam)
    out.sx(q)
    out.rz(q, theta + np.pi)
    out.sx(q)
    out.rz(q, phi + np.pi)


def _emit_cx(out: Circuit, control: int, target: int, basis: str):
    if basis == "CZ":
        _emit_1q(out, target, gate_matrix(Gate("H", (0,))))
        out.cz(control, target)
        _emit_1q(out, target, gate_matrix(Gate("H", (0,))))
    else:
        out.cx(control, target)


def decompose(circuit: Circuit, basis: str = "CX") -> Circuit:
    """Rewrite onto {RZ, SX, X, <basis 2q gate>, MEASURE}.

    RZZ becomes CX RZ CX (exactly, no frame gates); SWAP becomes 3 CX; other
    single-qubit gates go through ZXZXZ synthesis. ECR backends are treated
    as CX-equivalent.
    """
    if basis == "ECR":
        basis = "CX"
    if basis not in ("CX", "CZ"):
        raise ValueError(f"unsupported two-qubit basis {basis!r}")
    out = Circuit(circuit.num_qubits)
    for gate in circuit.gates:
        kind = gate.kind
        if kind in ("RZ", "SX", "X", "MEASURE"):
            out.append(gate)
        elif kind in ("H", "RX", "RY"):
            _emit_1q(out, gate.qubits[0], gate_matrix(gate))
        elif kind == "RZZ":
            i, j = gate.qubits
            _emit_cx(out, i, j, basis)
            out.rz(j, gate.angle)
            _emit_cx(out, i, j, basis)
        elif kind == "SWAP":
            a, b = gate.qubits
            _emit_cx(out, a, b, basis)
            _emit_cx(out, b, a, basis)
            _emit_cx(out, a, b, basis)
        elif kind == "CX":
            _emit_cx(out, gate.qubits[0], gate.qubits[1], basis)
        elif kind == "CZ":
            if basis == "CZ":
                out.append(gate)
            else:
                c, t = gate.qubits
                _emit_1q(out, t, gate_matrix(Gate("H", (0,))))
                out.cx(c, t)
                _emit_1q(out, t, gate_matrix(Gate("H", (0,))))
        else:
            raise ValueError(f"cannot decompose gate kind {kind!r}")
    return out


def count_two_qubit(circuit: Circuit) -> int:
    return sum(1 for g in circuit.gates if g.kind in ("CX", "CZ"))


def circuit_score(circuit: Circuit, errmap: ErrorMap) -> float:
    """Product over instructions of (1 - error rate); 1.0 for empty circuits."""
    score = 1.0
    for gate in circuit.gates:
        score *= 1.0 - errmap.rate(gate)
    return score


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Dense matrix of the circuit (test oracle); capped at 6 qubits."""
    n = circuit.num_qubits
    if n > UNITARY_QUBIT_CAP:
        raise ValueError(f"unitary extraction capped at {UNITARY_QUBIT_CAP} qubits")
    dim = 1 << n
    cols = np.empty((dim, dim), dtype=complex)
    for v in range(dim):
        amps = np.zeros(dim, dtype=complex)
        amps[v] = 1.0
        cols[:, v] = run_circuit(circuit, StateVector(amps, n)).amplitudes
    return cols


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
