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

from .model import require_each, require_real
from .simulator import Circuit, Gate, gate_matrix

_H = gate_matrix(Gate("H", (0,)))

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
        # all-pairs hop counts, one BFS per source: hops[a][b], -1 if unreachable
        self.hops = [self._bfs(q) for q in range(self.num_qubits)]

    def _bfs(self, source: int) -> list:
        dist = [-1] * self.num_qubits
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

    def neighbors(self, q: int) -> list:
        return list(self._adjacency[q])

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
        for name in ("single", "two", "measure"):
            rates = getattr(self, name)
            if not isinstance(rates, dict):
                raise ValueError(f"{name} error rates must be an object, got {rates!r}")
            require_each(require_real, f"{name} error rate", rates.values())
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


@dataclass
class RoutedCircuit:
    """Routing result: the physical circuit, the layout after routing, and
    the net wire permutation produced by inserted SWAPs
    (wire_permutation[w] = where wire w's content ends up)."""

    circuit: Circuit
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
    start = layout.assignment  # logical qubit -> the wire it starts on
    where = list(range(n_phys))  # wire -> current position of its content
    held = list(range(n_phys))  # position -> wire whose content it holds
    out = Circuit(n_phys)

    def do_swap(p, q):
        out.append(Gate("SWAP", (p, q)))
        wp, wq = held[p], held[q]
        held[p], held[q] = wq, wp
        where[wp], where[wq] = q, p

    for gate in circuit.gates:
        if len(gate.qubits) == 1 or gate.kind == "MEASURE":
            out.append(
                Gate(gate.kind, tuple(where[start[q]] for q in gate.qubits), gate.angle)
            )
            continue
        a, b = gate.qubits
        pa, pb = where[start[a]], where[start[b]]
        dist = coupling.hops[pb]
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
    return RoutedCircuit(out, Layout([where[w] for w in start]), where)


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
    out.append(Gate("RZ", (q,), lam))
    out.append(Gate("SX", (q,)))
    out.append(Gate("RZ", (q,), theta + np.pi))
    out.append(Gate("SX", (q,)))
    out.append(Gate("RZ", (q,), phi + np.pi))


def _emit_2q(out: Circuit, kind: str, control: int, target: int, basis: str):
    """A CX or CZ in ``basis``: as is, or as the other one conjugated by H on
    the target (H CZ H = CX and H CX H = CZ)."""
    if kind == basis:
        out.append(Gate(kind, (control, target)))
    else:
        _emit_1q(out, target, _H)
        out.append(Gate(basis, (control, target)))
        _emit_1q(out, target, _H)


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
            _emit_2q(out, "CX", i, j, basis)
            out.append(Gate("RZ", (j,), gate.angle))
            _emit_2q(out, "CX", i, j, basis)
        elif kind == "SWAP":
            a, b = gate.qubits
            for control, target in ((a, b), (b, a), (a, b)):
                _emit_2q(out, "CX", control, target, basis)
        elif kind in ("CX", "CZ"):
            _emit_2q(out, kind, *gate.qubits, basis)
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
