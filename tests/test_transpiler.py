"""Routing, decomposition, counting, and scoring tests.

The unitary oracle checks equivalence of every rewrite up to the recorded
wire permutation and a global phase.
"""

from __future__ import annotations

import numpy as np
import pytest

from qubolab import transpiler
from qubolab.simulator import Circuit, Gate, gate_matrix
from qubolab.transpiler import (
    CouplingMap,
    ErrorMap,
    Layout,
    RoutedCircuit,
    circuit_score,
    count_two_qubit,
    decompose,
    route,
)

from util import embed_circuit, permutation_unitary, unitary_of


def assert_equal_up_to_phase(u, v, atol=1e-9):
    idx = np.unravel_index(int(np.argmax(np.abs(v))), v.shape)
    phase = u[idx] / v[idx]
    assert abs(abs(phase) - 1.0) < 1e-9
    np.testing.assert_allclose(u, phase * v, atol=atol)


def random_circuit(rng, n, depth=12) -> Circuit:
    circ = Circuit(n)
    one_q = ["H", "X", "SX", "RX", "RY", "RZ"]
    two_q = ["RZZ", "CX", "CZ", "SWAP"]
    for _ in range(depth):
        if n >= 2 and rng.random() < 0.45:
            kind = two_q[rng.integers(len(two_q))]
            a, b = map(int, rng.choice(n, size=2, replace=False))
            angle = float(rng.uniform(-3, 3)) if kind == "RZZ" else None
            circ.append(Gate(kind, (a, b), angle))
        else:
            kind = one_q[rng.integers(len(one_q))]
            angle = float(rng.uniform(-3, 3)) if kind.startswith("R") else None
            circ.append(Gate(kind, (int(rng.integers(n)),), angle))
    return circ


# ---------------------------------------------------------------------------
# coupling maps


def test_presets():
    assert CouplingMap.line(4).edges == [(0, 1), (1, 2), (2, 3)]
    assert len(CouplingMap.ring(5).edges) == 5
    assert len(CouplingMap.full(4).edges) == 6
    hh = CouplingMap.heavy_hex_27()
    assert hh.num_qubits == 27
    assert len(hh.edges) == 28
    assert min(hh.hops[0]) >= 0
    assert max(len(hh.neighbors(q)) for q in range(27)) == 3


def test_coupling_validation_and_normalization():
    cmap = CouplingMap(3, [(1, 0), (0, 1), (2, 1)])
    assert cmap.edges == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        CouplingMap(3, [(0, 0)])
    with pytest.raises(ValueError):
        CouplingMap(3, [(0, 3)])


def test_bfs_distances():
    line = CouplingMap.line(5)
    assert line.hops[0] == [0, 1, 2, 3, 4]
    split = CouplingMap(4, [(0, 1), (2, 3)])
    assert split.hops[0] == [0, 1, -1, -1]


def bfs_distances(coupling, source):
    """One BFS from ``source`` over ``coupling.neighbors``, as ``route`` ran
    for every two-qubit gate before the hop table: the table's oracle."""
    dist = np.full(coupling.num_qubits, -1, dtype=int)
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for q in frontier:
            for r in coupling.neighbors(q):
                if dist[r] < 0:
                    dist[r] = dist[q] + 1
                    nxt.append(r)
        frontier = nxt
    return dist


def test_hop_table_equals_bfs_from_every_source():
    rng = np.random.default_rng(7)
    maps = [CouplingMap.line(7), CouplingMap.ring(7), CouplingMap.full(7),
            CouplingMap.heavy_hex_27(), CouplingMap(4, [(0, 1), (2, 3)])]
    for _ in range(20):  # sparse random graphs, often disconnected
        n = int(rng.integers(2, 12))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        keep = rng.random(len(pairs)) < 0.25
        maps.append(CouplingMap(n, [p for p, k in zip(pairs, keep) if k]))
    for coupling in maps:
        for source in range(coupling.num_qubits):
            assert coupling.hops[source] == bfs_distances(coupling, source).tolist()


def test_layout_validation():
    with pytest.raises(ValueError):
        Layout([0, 0, 1])
    assert Layout.trivial(3).assignment == [0, 1, 2]


# ---------------------------------------------------------------------------
# routing


def test_route_coupled_pair_inserts_no_swap():
    circ = Circuit(2, [Gate("RZZ", (0, 1), 0.5)])
    routed = route(circ, CouplingMap.line(2), Layout.trivial(2))
    kinds = [g.kind for g in routed.circuit.gates]
    assert kinds == ["RZZ"]
    assert routed.final_layout.assignment == [0, 1]
    assert routed.wire_permutation == [0, 1]


def test_route_distance_two_inserts_one_swap():
    circ = Circuit(3, [Gate("RZZ", (0, 2), 1.0)])
    routed = route(circ, CouplingMap.line(3), Layout.trivial(3))
    kinds = [g.kind for g in routed.circuit.gates]
    assert kinds.count("SWAP") == 1
    assert kinds.count("RZZ") == 1
    # logical 0 moved to wire 1; the RZZ acts on the (1, 2) edge
    assert routed.final_layout.assignment == [1, 0, 2]
    rzz = [g for g in routed.circuit.gates if g.kind == "RZZ"][0]
    assert set(rzz.qubits) == {1, 2}


def test_route_seed_determinism_and_variation():
    rng = np.random.default_rng(0)
    circ = random_circuit(rng, 3, depth=10)
    ring = CouplingMap.ring(6)
    a = route(circ, ring, Layout([0, 2, 4]), seed=5)
    b = route(circ, ring, Layout([0, 2, 4]), seed=5)
    assert a.circuit.gates == b.circuit.gates
    variants = {
        tuple(route(circ, ring, Layout([0, 2, 4]), seed=s).circuit.gates)
        for s in range(8)
    }
    assert len(variants) > 1  # equal-length paths around the ring


def test_route_rejects_disconnected_and_bad_layout():
    split = CouplingMap(4, [(0, 1), (2, 3)])
    circ = Circuit(2, [Gate("CX", (0, 1))])
    with pytest.raises(ValueError):
        route(circ, split, Layout([0, 2]))
    with pytest.raises(ValueError):
        route(circ, CouplingMap.line(3), Layout([0]))
    with pytest.raises(ValueError):
        route(circ, CouplingMap.line(3), Layout([0, 5]))


def test_route_identity_on_full_connectivity():
    rng = np.random.default_rng(1)
    circ = random_circuit(rng, 4, depth=15)
    routed = route(circ, CouplingMap.full(4), Layout.trivial(4), seed=3)
    assert routed.circuit.gates == circ.gates
    assert routed.wire_permutation == [0, 1, 2, 3]


def test_route_preserves_unitary_up_to_recorded_permutation():
    rng = np.random.default_rng(2)
    for trial in range(8):
        n = 3
        circ = random_circuit(rng, n, depth=10)
        coupling = CouplingMap.line(4) if trial % 2 else CouplingMap.ring(4)
        layout = Layout(list(map(int, rng.choice(4, size=n, replace=False))))
        routed = route(circ, coupling, layout, seed=trial)
        u_routed = unitary_of(routed.circuit)
        u_embedded = unitary_of(embed_circuit(circ, layout, 4))
        perm = permutation_unitary(routed.wire_permutation)
        assert_equal_up_to_phase(u_routed, perm @ u_embedded, atol=1e-9)


def test_route_maps_measure_operands():
    circ = Circuit(2, [Gate("H", (0,)), Gate("MEASURE", (0, 1))])
    routed = route(circ, CouplingMap.line(4), Layout([3, 1]))
    measure = routed.circuit.gates[-1]
    assert measure.kind == "MEASURE"
    assert measure.qubits == (3, 1)


def reference_route(circuit, coupling, layout, seed=0):
    """The routing loop ``route`` replaced, kept as its oracle: a fresh BFS
    per two-qubit gate, a logical -> physical list, a physical -> logical
    dict and a wire -> position list, the last rescanned over every wire on
    each SWAP."""
    n_phys = coupling.num_qubits
    rng = np.random.default_rng(seed)
    position = list(layout.assignment)
    occupant = {p: l for l, p in enumerate(position)}
    sigma = list(range(n_phys))
    out = Circuit(n_phys)

    def do_swap(p, q):
        out.append(Gate("SWAP", (p, q)))
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
            out.append(Gate(gate.kind, tuple(position[q] for q in gate.qubits), gate.angle))
            continue
        a, b = gate.qubits
        pa, pb = position[a], position[b]
        dist = bfs_distances(coupling, pb)
        while dist[pa] > 1:
            options = [r for r in coupling.neighbors(pa) if dist[r] == dist[pa] - 1]
            step = int(options[rng.integers(len(options))])
            do_swap(pa, step)
            pa = step
        out.append(Gate(gate.kind, (pa, pb), gate.angle))
    return RoutedCircuit(out, Layout(list(position)), sigma)


def reference_decompose(circuit, basis="CX"):
    """The lowering ``decompose`` replaced, kept as its oracle: CX and CZ
    each written out with their own H conjugation."""
    h = gate_matrix(Gate("H", (0,)))

    def emit_cx(out, control, target):
        if basis == "CZ":
            transpiler._emit_1q(out, target, h)
            out.append(Gate("CZ", (control, target)))
            transpiler._emit_1q(out, target, h)
        else:
            out.append(Gate("CX", (control, target)))

    if basis == "ECR":
        basis = "CX"
    out = Circuit(circuit.num_qubits)
    for gate in circuit.gates:
        kind = gate.kind
        if kind in ("RZ", "SX", "X", "MEASURE"):
            out.append(gate)
        elif kind in ("H", "RX", "RY"):
            transpiler._emit_1q(out, gate.qubits[0], gate_matrix(gate))
        elif kind == "RZZ":
            i, j = gate.qubits
            emit_cx(out, i, j)
            out.append(Gate("RZ", (j,), gate.angle))
            emit_cx(out, i, j)
        elif kind == "SWAP":
            a, b = gate.qubits
            emit_cx(out, a, b)
            emit_cx(out, b, a)
            emit_cx(out, a, b)
        elif kind == "CX":
            emit_cx(out, *gate.qubits)
        elif basis == "CZ":
            out.append(gate)
        else:
            c, t = gate.qubits
            transpiler._emit_1q(out, t, h)
            out.append(Gate("CX", (c, t)))
            transpiler._emit_1q(out, t, h)
    return out


_TOPOLOGIES = {
    "line": CouplingMap.line(7),
    "ring": CouplingMap.ring(7),
    "full": CouplingMap.full(7),
    "heavy_hex_27": CouplingMap.heavy_hex_27(),
}


@pytest.mark.parametrize("topology", sorted(_TOPOLOGIES))
@pytest.mark.parametrize("basis", ["CX", "CZ", "ECR"])
def test_route_and_decompose_equal_reference_loops(topology, basis):
    coupling = _TOPOLOGIES[topology]
    rng = np.random.default_rng(sum(map(ord, topology + basis)))
    for trial in range(12):
        n = int(rng.integers(2, 7))
        circ = random_circuit(rng, n, depth=int(rng.integers(5, 40)))
        circ.append(Gate("MEASURE", range(n)))
        if trial % 3:
            placed = rng.choice(coupling.num_qubits, size=n, replace=False)
            layout = Layout(list(map(int, placed)))
        else:
            layout = Layout.trivial(n)
        routed = route(circ, coupling, layout, seed=trial)
        expected = reference_route(circ, coupling, layout, seed=trial)
        assert routed.circuit.gates == expected.circuit.gates
        assert routed.final_layout.assignment == expected.final_layout.assignment
        assert routed.wire_permutation == expected.wire_permutation
        lowered = decompose(routed.circuit, basis=basis)
        assert lowered.gates == reference_decompose(routed.circuit, basis=basis).gates


# ---------------------------------------------------------------------------
# decomposition


def test_rzz_decomposes_to_two_cx_one_rz():
    circ = Circuit(2, [Gate("RZZ", (0, 1), 0.8)])
    out = decompose(circ)
    kinds = [g.kind for g in out.gates]
    assert kinds == ["CX", "RZ", "CX"]
    assert_equal_up_to_phase(unitary_of(out), unitary_of(circ), atol=1e-9)


def test_swap_decomposes_to_three_cx():
    circ = Circuit(2, [Gate("SWAP", (0, 1))])
    out = decompose(circ)
    assert [g.kind for g in out.gates] == ["CX", "CX", "CX"]
    assert_equal_up_to_phase(unitary_of(out), unitary_of(circ), atol=1e-9)


@pytest.mark.parametrize("kind,angle", [("H", None), ("RX", 0.9), ("RY", -1.7), ("X", None), ("SX", None), ("RZ", 0.4)])
def test_single_qubit_synthesis_matches_unitary(kind, angle):
    circ = Circuit(1).append(Gate(kind, (0,), angle))
    out = decompose(circ)
    assert all(g.kind in ("RZ", "SX", "X") for g in out.gates)
    assert_equal_up_to_phase(unitary_of(out), unitary_of(circ), atol=1e-9)


@pytest.mark.parametrize("basis", ["CX", "CZ", "ECR"])
def test_decomposed_alphabet_and_equivalence(basis):
    rng = np.random.default_rng(4)
    circ = random_circuit(rng, 3, depth=14)
    out = decompose(circ, basis=basis)
    want_two = "CZ" if basis == "CZ" else "CX"
    allowed = {"RZ", "SX", "X", want_two, "MEASURE"}
    assert {g.kind for g in out.gates} <= allowed
    assert_equal_up_to_phase(unitary_of(out), unitary_of(circ), atol=1e-9)


def test_decompose_rejects_unknown_basis():
    with pytest.raises(ValueError):
        decompose(Circuit(1, [Gate("H", (0,))]), basis="ISWAP")


# ---------------------------------------------------------------------------
# counting and scoring


def test_count_two_qubit():
    assert count_two_qubit(Circuit(2)) == 0
    circ = decompose(
        Circuit(3, [Gate("RZZ", (0, 1), 0.3), Gate("SWAP", (1, 2)), Gate("CX", (0, 1))])
    )
    assert count_two_qubit(circ) == 2 + 3 + 1


def test_qaoa_count_on_full_topology_is_twice_couplings():
    from qubolab.model import to_ising, QuboProblem
    from qubolab.variational import ansatz_params, qaoa_circuit

    q = np.array([[1.0, 2.0, 0.0], [0.0, -1.0, 3.0], [0.0, 0.0, 0.5]])
    ising = to_ising(QuboProblem(Q=q, constant=0.0))
    bound = qaoa_circuit(ising, ansatz_params("qaoa", 1, 3, [0.3, 0.7]))
    routed = route(bound, CouplingMap.full(3), Layout.trivial(3))
    counted = count_two_qubit(decompose(routed.circuit))
    assert counted == 2 * 2  # two nonzero couplings, 2 CX each


def test_vqe_count_on_line_topology():
    from qubolab.variational import ansatz_params, vqe_circuit

    n, layers = 5, 3
    bound = vqe_circuit(ansatz_params("vqe", layers, n, np.zeros(n * (layers + 1))))
    routed = route(bound, CouplingMap.line(n), Layout.trivial(n))
    assert count_two_qubit(decompose(routed.circuit)) == layers * (n - 1)


def test_circuit_score_examples():
    cmap = CouplingMap.line(3)
    errmap = ErrorMap.uniform(cmap, single=0.01, two=0.01, measure=0.01)
    assert circuit_score(Circuit(3), errmap) == 1.0
    circ = Circuit(3, [Gate("X", (0,)), Gate("SX", (1,)), Gate("CX", (0, 1))])
    assert abs(circuit_score(circ, errmap) - (1 - 0.01) ** 3) < 1e-12
    dead = ErrorMap({0: 1.0, 1: 0.0, 2: 0.0}, {e: 0.0 for e in cmap.edges}, {q: 0.0 for q in range(3)})
    assert circuit_score(Circuit(3).append(Gate("X", (0,))), dead) == 0.0


def test_circuit_score_rz_is_free():
    errmap = ErrorMap({0: 0.5}, {}, {0: 0.5})
    circ = Circuit(1, [Gate("RZ", (0,), 1.0), Gate("RZ", (0,), 2.0)])
    assert circuit_score(circ, errmap) == 1.0


def test_circuit_score_measure_per_qubit():
    errmap = ErrorMap({}, {}, {0: 0.1, 1: 0.2})
    score = circuit_score(Circuit(2, [Gate("MEASURE", (0, 1))]), errmap)
    assert abs(score - 0.9 * 0.8) < 1e-12


def test_circuit_score_missing_entry():
    errmap = ErrorMap({0: 0.0}, {}, {})
    with pytest.raises(ValueError):
        circuit_score(Circuit(2).append(Gate("X", (1,))), errmap)
    with pytest.raises(ValueError):
        circuit_score(Circuit(2, [Gate("CX", (0, 1))]), errmap)
    with pytest.raises(ValueError):
        circuit_score(Circuit(1, [Gate("MEASURE", (0,))]), errmap)


def test_circuit_score_monotone_in_each_rate():
    rng = np.random.default_rng(6)
    cmap = CouplingMap.ring(4)
    circ = Circuit(4, [
        Gate("H", (0,)), Gate("CX", (0, 1)), Gate("CX", (1, 2)), Gate("SX", (3,)),
        Gate("MEASURE", (0, 1, 2, 3)),
    ])
    for _ in range(20):
        single = {q: rng.uniform(0, 0.2) for q in range(4)}
        two = {e: rng.uniform(0, 0.2) for e in cmap.edges}
        meas = {q: rng.uniform(0, 0.2) for q in range(4)}
        base = circuit_score(circ, ErrorMap(single, two, meas))
        bumped = dict(single)
        bumped[0] = min(1.0, single[0] + 0.1)
        assert circuit_score(circ, ErrorMap(bumped, two, meas)) <= base
        bumped_two = dict(two)
        bumped_two[(0, 1)] = min(1.0, two[(0, 1)] + 0.1)
        assert circuit_score(circ, ErrorMap(single, bumped_two, meas)) <= base


def test_error_map_validation():
    with pytest.raises(ValueError):
        ErrorMap({0: 1.5}, {}, {})
    em = ErrorMap({}, {(1, 0): 0.1}, {})
    assert em.two == {(0, 1): 0.1}


# ---------------------------------------------------------------------------
# unitary oracle


def test_unitary_of_basics():
    np.testing.assert_allclose(unitary_of(Circuit(2)), np.eye(4), atol=1e-12)
    h = unitary_of(Circuit(1, [Gate("H", (0,))]))
    np.testing.assert_allclose(h, gate_matrix(Gate("H", (0,))), atol=1e-12)
    np.testing.assert_allclose(
        unitary_of(Circuit(2, [Gate("CX", (0, 1))] * 2)), np.eye(4), atol=1e-12
    )


def test_unitary_of_cap():
    with pytest.raises(ValueError):
        unitary_of(Circuit(7))


def test_end_to_end_route_and_decompose_equivalence():
    rng = np.random.default_rng(8)
    for trial in range(6):
        circ = random_circuit(rng, 3, depth=8)
        coupling = CouplingMap.line(3)
        routed = route(circ, coupling, Layout.trivial(3), seed=trial)
        lowered = decompose(routed.circuit)
        perm = permutation_unitary(routed.wire_permutation)
        assert_equal_up_to_phase(
            unitary_of(lowered), perm @ unitary_of(circ), atol=1e-9
        )
        assert isinstance(routed, RoutedCircuit)
