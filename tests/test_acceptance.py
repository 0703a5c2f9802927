"""Acceptance suite: the end-to-end guarantees the workbench ships with.

Each test is one numbered acceptance check, self-contained and seeded:

 1. problem sizes (charging-station qubit counts, tour variable counts)
 2. ansatz parameter counts
 3. transform-chain consistency (integer cost -> QUBO -> Ising diagonal)
 4. fast diagonal QAOA path vs gate-level circuit
 5. energy-landscape grid runtime and mixer-only column
 6. VQE training concentrates probability on the optimal set
 7. routing + basis decomposition preserve unitaries; gate-count identities
 8. circuit score closed form and monotonicity
 9. Trotterized annealing: adiabatic trend and exact-integrator overlap
10. feasible/optimal solution-rate methodology on both use cases
11. quality metrics: exact hand values and large-shot sampling fidelity
12. command-line determinism
"""

import itertools
import json
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from qubolab import cli
from qubolab.annealer import AnnealSchedule, SaConfig, qa_trotter, sa_sample
from qubolab.model import (
    brute_force_solve,
    build_quio,
    encode_binary,
    min_penalty,
    qubo_cost_vector,
    str_to_bits,
    to_ising,
)
from qubolab.optimizer import multistart, uniform_sampler
from qubolab.quality import (
    Distribution,
    hellinger_fidelity,
    relative_error,
    solution_rates,
)
from qubolab.simulator import (
    Circuit,
    Gate,
    run_circuit,
    sample,
)
from qubolab.transpiler import (
    CouplingMap,
    ErrorMap,
    Layout,
    circuit_score,
    count_two_qubit,
    decompose,
    route,
)
from qubolab.usecases import (
    build_lama,
    decode_lama,
    decode_trp,
    example_series,
    gen_cities,
    lama_objective,
)
from qubolab.variational import (
    ansatz_params,
    ansatz_state,
    cost_landscape,
    num_params,
    qaoa_circuit,
    vqe_circuit,
    vqe_objective,
)

from util import (
    all_bitstrings,
    bits_to_int,
    build_trp,
    embed_circuit,
    expectation_diagonal,
    permutation_unitary,
    random_qcio,
    random_qubo,
    route_to_bits,
    unitary_of,
)


def lama_qubo(name):
    qcio, enc = build_lama(example_series()[name])
    rho = min_penalty(qcio, enc)
    return encode_binary(build_quio(qcio, rho), enc), rho


def assert_equal_up_to_phase(actual, reference, atol):
    anchor = np.argmax(np.abs(reference))
    phase = reference.flat[anchor] / actual.flat[anchor]
    assert abs(abs(phase) - 1.0) < atol
    assert np.allclose(actual * phase, reference, atol=atol)


# ---------------------------------------------------------------------------
# 1. problem sizes


def test_01_problem_sizes():
    start = time.perf_counter()
    slots_cars = {"Ex0p1": (3, 1), "Ex1p1": (4, 1), "Ex2p1": (4, 2),
                  "Ex3p1": (8, 2), "Ex4p1": (8, 3)}
    expected = {"Ex0p1": 6, "Ex1p1": 8, "Ex2p1": 16, "Ex3p1": 32, "Ex4p1": 48}
    for name, qubits in expected.items():
        spec = example_series()[name]
        assert (spec.num_timeslots, spec.num_cars) == slots_cars[name]
        _, enc = build_lama(spec)
        assert enc.num_bits == qubits
    for m, n in [(6, 36), (7, 49), (8, 64)]:
        assert build_trp(gen_cities(m, "symmetric")).num_vars == n
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 2. ansatz parameter counts


def test_02_parameter_counts():
    # a vector of the count builds the ansatz; one entry fewer or more is refused
    ising = to_ising(random_qubo(np.random.default_rng(0), 4))
    cases = [("qaoa", p, 4, 2 * p) for p in (1, 2, 3)]
    cases += [("vqe", 2, 4, 12), ("vqe", 1, 8, 16)]
    cases += [("vqe", layers, n, n * (layers + 1)) for n, layers in [(2, 1), (5, 3), (6, 2)]]
    for algorithm, layers, n, count in cases:
        assert num_params(algorithm, layers, n) == count
        params = ansatz_params(algorithm, layers, n, np.full(count, 0.5))
        if algorithm == "qaoa":
            kinds = [g.kind for g in qaoa_circuit(ising, params).gates]
            assert kinds.count("RX") == n * layers
        else:
            kinds = [g.kind for g in vqe_circuit(params).gates]
            assert kinds.count("RY") == count
        for wrong in (count - 1, count + 1):
            with pytest.raises(ValueError, match=f"needs {count} parameters, got {wrong}"):
                ansatz_params(algorithm, layers, n, np.full(wrong, 0.5))


# ---------------------------------------------------------------------------
# 3. transform-chain consistency


def qcio_penalized_costs(qcio, enc, rho):
    """Penalized integer cost of every bitstring, reconstructed directly."""
    bits = all_bitstrings(enc.num_bits)
    X = bits @ enc.B.T
    cost = ((X @ qcio.M) * X).sum(axis=1) + X @ qcio.l + qcio.c
    residual = X @ qcio.A.T - qcio.r
    return cost + rho * (residual**2).sum(axis=1)


def trp_direct_costs(spec, rho):
    """Tour QUBO cost of every bitstring from the assignment-matrix view."""
    m = spec.num_cities
    scaled = spec.distances / spec.distances.max()
    mats = all_bitstrings(m * m).reshape(-1, m, m)
    dist = np.einsum("vit,ij,vjt->v", mats, scaled, np.roll(mats, -1, axis=2))
    pen = ((1.0 - mats.sum(axis=1)) ** 2).sum(axis=1)
    pen += ((1.0 - mats.sum(axis=2)) ** 2).sum(axis=1)
    return dist + rho * pen


def test_03_transform_chain_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        qcio, enc = random_qcio(rng, n)
        rho = float(rng.uniform(0.5, 4.0))
        qubo = encode_binary(build_quio(qcio, rho), enc)
        costs = qubo_cost_vector(qubo)
        assert np.allclose(costs, qcio_penalized_costs(qcio, enc, rho), atol=1e-9)
        assert np.allclose(to_ising(qubo).cost_vector(), costs, atol=1e-9)
    small = [name for name, spec in example_series().items() if spec.num_qubits <= 16]
    assert len(small) == 9
    for name in small:
        qcio, enc = build_lama(example_series()[name])
        rho = 2.0
        qubo = encode_binary(build_quio(qcio, rho), enc)
        costs = qubo_cost_vector(qubo)
        assert np.allclose(costs, qcio_penalized_costs(qcio, enc, rho), atol=1e-9)
        assert np.allclose(to_ising(qubo).cost_vector(), costs, atol=1e-9)
    for m in (3, 4):
        spec = gen_cities(m, "symmetric")
        qubo = build_trp(spec, 1.5)
        costs = qubo_cost_vector(qubo)
        assert np.allclose(costs, trp_direct_costs(spec, 1.5), atol=1e-9)
        assert np.allclose(to_ising(qubo).cost_vector(), costs, atol=1e-9)
    assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# 4. QAOA path consistency


def test_04_qaoa_fast_vs_gate_path():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 11))
        p = int(rng.integers(1, 4))
        ising = to_ising(random_qubo(rng, n))
        vec = rng.uniform(0.0, np.pi, 2 * p)
        fast = ansatz_state(ising, "qaoa", p, vec)
        gate = run_circuit(qaoa_circuit(ising, ansatz_params("qaoa", p, n, vec)))
        assert_equal_up_to_phase(gate.amplitudes, fast.amplitudes, atol=1e-10)

    qubo = random_qubo(np.random.default_rng(17), 6)
    ising = to_ising(qubo)
    state = ansatz_state(ising, "qaoa", 1, [0.0, 0.0])
    energy = expectation_diagonal(state, ising.cost_vector())
    assert abs(energy - qubo_cost_vector(qubo).mean()) < 1e-9


# ---------------------------------------------------------------------------
# 5. landscape grid


def test_05_landscape_grid():
    qubo, _ = lama_qubo("Ex1p1")
    ising = to_ising(qubo)
    assert ising.num_qubits == 8
    start = time.perf_counter()
    scape = cost_landscape(ising, resolution=50)
    assert time.perf_counter() - start < 60.0
    assert scape.grid.shape == (50, 50)
    assert scape.axis[0] == 0.0
    # gamma = 0 applies no phase separation, so beta cannot matter
    assert float(np.ptp(scape.grid[:, 0])) < 1e-9


# ---------------------------------------------------------------------------
# 6. VQE training


def test_06_vqe_training_concentrates_on_optima():
    start = time.perf_counter()
    qubo, _ = lama_qubo("Ex0p1")
    ising = to_ising(qubo)
    report = multistart(
        vqe_objective(ising, 2),
        uniform_sampler(ising.num_qubits * 3, 0.0, 2.0 * np.pi),
        num_starts=50,
        seed=0,
        max_iter=1000,
    )
    state = run_circuit(vqe_circuit(ansatz_params("vqe", 2, ising.num_qubits, report.best_params)))
    probs = np.abs(state.amplitudes) ** 2
    optimal_set = brute_force_solve(qubo).optimal_set
    mass = sum(probs[bits_to_int(str_to_bits(s))] for s in optimal_set)
    assert mass >= 0.9
    assert time.perf_counter() - start < 600.0


# ---------------------------------------------------------------------------
# 7. transpiler equivalence


def random_logical_circuit(rng, n):
    one_q = ["H", "X", "SX", "RX", "RY", "RZ"]
    two_q = ["CX", "CZ", "SWAP", "RZZ"]
    circ = Circuit(n)
    for _ in range(int(rng.integers(4, 12))):
        kind = str(rng.choice(one_q + two_q if n >= 2 else one_q))
        if kind in two_q:
            a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
            angle = float(rng.uniform(0, 2 * np.pi)) if kind == "RZZ" else None
            circ.append(Gate(kind, (a, b), angle))
        else:
            angle = float(rng.uniform(0, 2 * np.pi)) if kind in ("RX", "RY", "RZ") else None
            circ.append(Gate(kind, (int(rng.integers(n)),), angle))
    return circ


def test_07_transpiler_preserves_unitaries_and_counts():
    rng = np.random.default_rng(23)
    for trial in range(50):
        n = int(rng.integers(1, 4))
        circ = random_logical_circuit(rng, n)
        n_phys = max(n, 3)
        coupling = CouplingMap.line(n_phys) if trial % 2 else CouplingMap.ring(n_phys)
        layout = Layout([int(p) for p in rng.permutation(n_phys)[:n]])
        routed = route(circ, coupling, layout, seed=trial)
        lowered = decompose(routed.circuit, basis="CX")
        reference = unitary_of(embed_circuit(circ, layout, n_phys))
        actual = unitary_of(lowered)
        perm = permutation_unitary(routed.wire_permutation)
        assert_equal_up_to_phase(actual, perm @ reference, atol=1e-9)

    swap = decompose(Circuit(2, [Gate("SWAP", (0, 1))]), basis="CX")
    assert [g.kind for g in swap.gates] == ["CX", "CX", "CX"]
    rzz = decompose(Circuit(2, [Gate("RZZ", (0, 1), 0.7)]), basis="CX")
    assert [g.kind for g in rzz.gates] == ["CX", "RZ", "CX"]
    assert count_two_qubit(rzz) == 2


# ---------------------------------------------------------------------------
# 8. circuit score


def test_08_circuit_score_closed_form_and_monotone():
    coupling = CouplingMap.line(3)
    e = 0.01
    errmap = ErrorMap.uniform(coupling, single=e, two=e, measure=e)
    circ = Circuit(3, [
        Gate("CX", (0, 1)), Gate("SX", (0,)), Gate("X", (1,)), Gate("CX", (1, 2)), Gate("SX", (2,)),
        Gate("MEASURE", (0,)), Gate("MEASURE", (1,)), Gate("MEASURE", (2,)),
    ])
    assert circuit_score(circ, errmap) == pytest.approx((1 - e) ** 8, rel=1e-14)
    single = Circuit(2, [Gate("CX", (0, 1))])
    one_gate_map = ErrorMap.uniform(CouplingMap.line(2), 0.25, 0.25, 0.25)
    assert circuit_score(single, one_gate_map) == 1.0 - 0.25

    rng = np.random.default_rng(3)
    for _ in range(100):
        base = ErrorMap(
            {q: float(rng.uniform(0, 0.05)) for q in range(3)},
            {edge: float(rng.uniform(0, 0.1)) for edge in coupling.edges},
            {q: float(rng.uniform(0, 0.1)) for q in range(3)},
        )
        bumped = ErrorMap(
            {q: min(1.0, r + float(rng.uniform(0, 0.1))) for q, r in base.single.items()},
            {edge: min(1.0, r + float(rng.uniform(0, 0.1))) for edge, r in base.two.items()},
            {q: min(1.0, r + float(rng.uniform(0, 0.1))) for q, r in base.measure.items()},
        )
        assert circuit_score(circ, bumped) <= circuit_score(circ, base) + 1e-12


# ---------------------------------------------------------------------------
# 9. Trotterized annealing


def test_09_trotter_trend_and_exact_overlap():
    start = time.perf_counter()
    from qubolab.model import QuboProblem

    qubo3 = QuboProblem(
        Q=[[-1.0, 2.0, 0.0], [0.0, -1.0, 2.0], [0.0, 0.0, -1.0]], constant=0.0
    )
    ising3 = to_ising(qubo3)
    ground = int(np.argmin(qubo_cost_vector(qubo3)))
    probs = []
    for total in (0.5, 5.0, 50.0):
        state = qa_trotter(ising3, AnnealSchedule(total), dt=0.01)
        probs.append(float(np.abs(state.amplitudes[ground]) ** 2))
    assert probs[0] <= probs[1] <= probs[2]
    assert probs[2] > 0.9

    # two-qubit oracle: integrate the Schrodinger equation directly
    qubo2 = QuboProblem(Q=[[-1.0, 1.5], [0.0, -2.0]], constant=0.0)
    ising2 = to_ising(qubo2)
    schedule = AnnealSchedule(50.0)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    sum_x = np.kron(np.eye(2), x) + np.kron(x, np.eye(2))
    diag = np.diag(ising2.cost_vector())

    def rhs(t, psi):
        h = -0.5 * schedule.a(t) * sum_x + 0.5 * schedule.b(t) * diag
        return -1j * (h @ psi)

    psi0 = np.full(4, 0.5, dtype=complex)
    exact = solve_ivp(
        rhs, (0.0, 50.0), psi0, rtol=1e-10, atol=1e-12, method="DOP853"
    ).y[:, -1]
    trotter = qa_trotter(ising2, schedule, dt=0.01)
    overlap = abs(np.vdot(exact, trotter.amplitudes)) ** 2
    assert overlap >= 0.99
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 10. solution-rate methodology


def test_10_solution_rates_both_use_cases():
    spec = gen_cities(5, "symmetric")
    qubo = build_trp(spec, 2.0)
    assert qubo.num_vars == 25
    best_length = min(
        decode_trp(route_to_bits(list(order), 5), spec)[2]
        for order in itertools.permutations(range(5))
    )

    def trp_decoder(s):
        _, ok, length = decode_trp(s, spec)
        return ok, length

    samples = sa_sample(qubo, SaConfig(num_reads=1000, sweeps=1000, seed=0))
    feasible, optimal = solution_rates(samples, trp_decoder, best_length)
    assert feasible > 0.0
    assert optimal > 0.0  # the enumerated best tour was sampled
    assert optimal <= feasible

    lama_spec = example_series()["Ex0p1"]
    qubo, _ = lama_qubo("Ex0p1")
    c_opt = None
    for s in brute_force_solve(qubo).optimal_set:
        schedule, ok = decode_lama(s, lama_spec)
        assert ok
        c_opt = lama_objective(schedule)

    def lama_decoder(s):
        schedule, ok = decode_lama(s, lama_spec)
        return ok, lama_objective(schedule) if ok else np.inf

    samples = sa_sample(qubo, SaConfig(num_reads=400, sweeps=1000, seed=1))
    feasible, optimal = solution_rates(samples, lama_decoder, c_opt)
    assert optimal > 0.0
    assert optimal <= feasible <= 100.0


# ---------------------------------------------------------------------------
# 11. quality metrics


def test_11_quality_metrics():
    from qubolab.model import QuboProblem

    # hand-checked fidelity values
    point = Distribution({"0": 1.0})
    mixed = Distribution({"0": 0.25, "1": 0.75})
    assert hellinger_fidelity(point, mixed) == 0.25
    assert hellinger_fidelity(point, Distribution({"1": 1.0})) == 0.0
    assert hellinger_fidelity(mixed, mixed) == pytest.approx(1.0, abs=1e-12)

    # hand-checked relative error: mean 25 against optimum 10
    qubo = QuboProblem(Q=[[50.0]], constant=5.0)
    dist = Distribution({"0": 0.6, "1": 0.4})
    err = relative_error(dist, qubo, 10.0)
    assert err.value == 1.5 and not err.is_absolute
    absolute = relative_error(dist, qubo, 0.0)
    assert absolute.is_absolute and absolute.value == 25.0

    # empirical sampling closes in on the exact distribution
    qubo6, _ = lama_qubo("Ex0p1")
    ising = to_ising(qubo6)
    state = ansatz_state(ising, "qaoa", 1, [0.7, 0.4])
    empirical = Distribution.from_sampleset(sample(state, 100_000, seed=2))
    assert hellinger_fidelity(empirical, Distribution.from_state(state)) >= 0.99


# ---------------------------------------------------------------------------
# 12. CLI determinism


def test_12_cli_determinism(tmp_path):
    problem = tmp_path / "problem.json"
    assert cli.main(["build", "lama", "--instance", "Ex0p1", "-o", str(problem)]) == 0

    for command in (
        ["landscape", str(problem), "--grid", "12", "--shots", "400", "--seed", "9"],
        ["train", str(problem), "--starts", "3", "--max-iter", "50", "--seed", "4"],
        ["anneal", str(problem), "--reads", "100", "--sweeps", "100", "--seed", "8"],
    ):
        out1, out2 = tmp_path / "a.out", tmp_path / "b.out"
        assert cli.main(command + ["-o", str(out1)]) == 0
        assert cli.main(command + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "use_case": {"name": "lama", "instance": "Ex0p1"},
        "algorithm": "qaoa",
        "layers": 1, "starts": 3, "max_iter": 50, "shots": 1000,
        "seeds": [0, 1], "routing_seeds": 3, "topology": "heavy_hex_27",
    }))
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli.main(["run", str(config), "-o", str(r1)]) == 0
    assert cli.main(["run", str(config), "-o", str(r2)]) == 0
    doc1, doc2 = json.loads(r1.read_text()), json.loads(r2.read_text())
    doc1.pop("timestamp")
    doc2.pop("timestamp")
    assert doc1 == doc2
