"""Annealing backend tests: Metropolis sampler and Trotter evolution."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from util import bits_to_str, int_to_bits, random_qubo

from qubolab.annealer import AnnealSchedule, SaConfig, qa_trotter, sa_sample
from qubolab.model import (
    QuboProblem,
    brute_force_solve,
    str_to_bits,
    to_ising,
)
from qubolab.simulator import Gate, SampleSet, StateVector, apply_gate
from qubolab.usecases import build_trp, gen_cities


def two_var_qubo():
    return QuboProblem(Q=[[-1.0, 2.0], [0.0, -1.0]], constant=0.0)


# ---------------------------------------------------------------------------
# schedules


def test_linear_schedule_boundaries_exact():
    sched = AnnealSchedule.linear(3.0)
    assert sched.a(0.0) == 1.0 and sched.b(0.0) == 0.0
    assert sched.a(3.0) == 0.0 and sched.b(3.0) == 1.0


def test_schedule_rejects_bad_boundaries():
    with pytest.raises(ValueError):
        AnnealSchedule.linear(-1.0)


def test_sa_config_validation():
    with pytest.raises(ValueError):
        SaConfig(num_reads=0)
    with pytest.raises(ValueError):
        SaConfig(num_reads=1, sweeps=0)
    with pytest.raises(ValueError):
        SaConfig(num_reads=1, t_hot=0.1, t_cold=0.2)
    assert SaConfig(np.int64(3), sweeps=np.int32(2)).num_reads == 3
    temps = SaConfig(num_reads=1, sweeps=100).temperatures(two_var_qubo())
    assert temps[0] == 2.0 and abs(temps[-1] - 0.02) < 1e-12
    assert np.all(np.diff(temps) < 0.0)


@pytest.mark.parametrize(
    "counts",
    [(2.5, 10), (True, 3), (4, False), (4, 10.0), ("4", 10), (None, 10), (4, np.float64(3))],
)
def test_sa_config_rejects_non_integer_counts(counts):
    with pytest.raises(ValueError, match="must be an integer"):
        SaConfig(*counts)


@pytest.mark.parametrize(
    "temps",
    [
        {"t_hot": np.inf},
        {"t_hot": np.inf, "t_cold": 0.1},
        {"t_hot": np.nan, "t_cold": 0.1},
        {"t_hot": 5.0, "t_cold": np.nan},
        {"t_cold": -np.inf},
    ],
)
def test_sa_config_rejects_non_finite_temperatures(temps):
    with pytest.raises(ValueError, match="non-finite"):
        SaConfig(num_reads=4, **temps)


@pytest.mark.parametrize("total_time", [np.inf, np.nan])
def test_schedule_rejects_non_finite_total_time(total_time):
    with pytest.raises(ValueError, match="non-finite"):
        AnnealSchedule.linear(total_time)


# ---------------------------------------------------------------------------
# simulated annealing


def test_sa_read_count_and_determinism():
    qubo = two_var_qubo()
    cfg = SaConfig(num_reads=64, sweeps=50, seed=5)
    a = sa_sample(qubo, cfg)
    b = sa_sample(qubo, cfg)
    assert sum(a.counts.values()) == 64
    assert a.counts == b.counts
    c = sa_sample(qubo, SaConfig(num_reads=64, sweeps=50, seed=6))
    assert a.counts != c.counts


def test_sa_finds_two_variable_optima_with_high_frequency():
    samples = sa_sample(two_var_qubo(), SaConfig(num_reads=1000, seed=1))
    hits = samples.counts.get("10", 0) + samples.counts.get("01", 0)
    assert hits / 1000 > 0.5


def test_sa_flat_landscape_has_no_systematic_bias():
    qubo = QuboProblem(Q=np.zeros((4, 4)), constant=0.0)
    samples = sa_sample(qubo, SaConfig(num_reads=1600, sweeps=20, seed=2))
    expected = 1600 / 16
    chi2 = sum(
        (samples.counts.get("".join(map(str, int_to_bits(v, 4))), 0) - expected) ** 2
        / expected
        for v in range(16)
    )
    assert chi2 < 50.0  # df=15; generous sanity bound


def reference_sa_sample(qubo, cfg):
    """The read-major Metropolis loop ``sa_sample`` replaced, kept as its
    oracle: (reads, n) states and fields, one ``random(reads)`` per flip."""
    n = qubo.num_vars
    rng = np.random.default_rng(cfg.seed)
    temps = cfg.temperatures(qubo)
    reads = cfg.num_reads
    sym = qubo.Q + qubo.Q.T
    np.fill_diagonal(sym, 0.0)
    diag = np.diag(qubo.Q).copy()
    states = rng.integers(0, 2, size=(reads, n)).astype(float)
    field = states @ sym  # field[r, k] = sum_j sym[k, j] * b[r, j]
    for temp in temps:
        for k in range(n):
            flip = 1.0 - 2.0 * states[:, k]
            d_energy = flip * (diag[k] + field[:, k])
            accept = (d_energy <= 0.0) | (
                rng.random(reads) < np.exp(np.minimum(-d_energy / temp, 0.0))
            )
            delta = np.where(accept, flip, 0.0)
            states[:, k] += delta
            field += np.outer(delta, sym[k])
    counts = {}
    for row in states.astype(int):
        key = bits_to_str(row)
        counts[key] = counts.get(key, 0) + 1
    return SampleSet(counts, reads)


def assert_same_samples(fast, reference):
    assert fast.shots == reference.shots
    assert list(fast.counts.items()) == list(reference.counts.items())


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.integers(1, 40),
    st.integers(1, 25),
    st.one_of(st.none(), st.floats(0.05, 20.0)),
)
def test_sa_kernel_equals_reference_loop(seed, n, reads, sweeps, t_hot):
    rng = np.random.default_rng(seed)
    qubo = random_qubo(rng, n)
    t_cold = None if t_hot is None else float(rng.uniform(0.001, 0.9)) * t_hot
    cfg = SaConfig(reads, sweeps, t_hot=t_hot, t_cold=t_cold, seed=int(rng.integers(1000)))
    assert_same_samples(sa_sample(qubo, cfg), reference_sa_sample(qubo, cfg))


@pytest.mark.parametrize("cities", [4, 5, 9])  # 9 cities: 81-bit keys
def test_sa_kernel_equals_reference_loop_on_tours(cities):
    qubo = build_trp(gen_cities(cities, rho=2.0))
    cfg = SaConfig(num_reads=400, sweeps=30, seed=cities)
    assert_same_samples(sa_sample(qubo, cfg), reference_sa_sample(qubo, cfg))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [1, 6, 12])
def test_sa_kernel_equals_reference_loop_when_cold(n):
    # -d/T reaches thousands: exp overflows on every downhill move, and once
    # the reads sit in local minima whole sweeps reject every bit
    qubo = random_qubo(np.random.default_rng(40 + n), n)
    cfg = SaConfig(num_reads=60, sweeps=40, t_hot=1e-3, t_cold=1e-5, seed=n)
    assert_same_samples(sa_sample(qubo, cfg), reference_sa_sample(qubo, cfg))


@pytest.mark.parametrize("n, sweeps", [(1, 3), (5, 8), (12, 11)])
def test_sa_kernel_accepts_every_visit_when_hot(n, sweeps):
    # |d/T| ~ 1e-30 rounds exp to 1 > u, so every bit flips in every sweep
    qubo = random_qubo(np.random.default_rng(60 + n), n)
    cfg = SaConfig(num_reads=50, sweeps=sweeps, t_hot=1e30, t_cold=1e29, seed=n)
    samples = sa_sample(qubo, cfg)
    assert_same_samples(samples, reference_sa_sample(qubo, cfg))
    start = np.random.default_rng(cfg.seed).integers(0, 2, size=(cfg.num_reads, n))
    expected = {}
    for row in start ^ (sweeps & 1):
        key = bits_to_str(row)
        expected[key] = expected.get(key, 0) + 1
    assert samples.counts == expected


def test_sa_respects_fixed_temperatures():
    qubo = two_var_qubo()
    samples = sa_sample(qubo, SaConfig(num_reads=100, sweeps=30, t_hot=5.0, t_cold=0.05, seed=3))
    assert sum(samples.counts.values()) == 100


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    shift=st.integers(-64, 64).map(lambda k: k / 4),
)
def test_constant_shift_moves_the_optimum_by_the_shift_alone(seed, n, shift):
    # a metamorphic relation: with dyadic Q and constants every sum is exact,
    # so brute force moves C* by exactly the shift and no minimizer, and SA,
    # whose flips never see the constant, draws the same counts
    rng = np.random.default_rng(seed)
    Q = np.triu(rng.integers(-16, 17, size=(n, n)) / 8)
    constant = rng.integers(-16, 17) / 4
    base = QuboProblem(Q=Q, constant=constant)
    shifted = QuboProblem(Q=Q, constant=constant + shift)
    report, moved = brute_force_solve(base), brute_force_solve(shifted)
    assert moved.optimal_set == report.optimal_set
    assert moved.optimal_cost == report.optimal_cost + shift
    cfg = SaConfig(num_reads=40, sweeps=20, seed=seed % 1000)
    assert_same_samples(sa_sample(shifted, cfg), sa_sample(base, cfg))


# ---------------------------------------------------------------------------
# Trotterized annealing


def three_qubit_ising():
    qubo = QuboProblem(
        Q=[[-1.0, 2.0, 0.0], [0.0, -1.0, 2.0], [0.0, 0.0, -1.0]], constant=0.0
    )
    report = brute_force_solve(qubo)
    assert report.optimal_set == ["101"]
    return to_ising(qubo), report


def test_trotter_zero_steps_keeps_plus_state():
    ising, _ = three_qubit_ising()
    state = qa_trotter(ising, AnnealSchedule.linear(0.001), dt=0.01)
    np.testing.assert_allclose(
        state.amplitudes, StateVector.plus_state(3).amplitudes, atol=1e-12
    )


def test_trotter_norm_preserved():
    ising, _ = three_qubit_ising()
    state = qa_trotter(ising, AnnealSchedule.linear(5.0), dt=0.05)
    assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-6


def test_trotter_success_probability_grows_with_anneal_time():
    ising, report = three_qubit_ising()
    idx = int(str_to_bits(report.optimal_set[0]) @ (1 << np.arange(3)))
    probs = []
    for T in (0.5, 5.0, 50.0):
        state = qa_trotter(ising, AnnealSchedule.linear(T), dt=0.01)
        probs.append(state.probabilities()[idx])
    assert probs[0] <= probs[1] <= probs[2]
    assert probs[2] > 0.9


def test_trotter_matches_exact_integration_at_two_qubits():
    qubo = two_var_qubo()
    ising = to_ising(qubo)
    T = 50.0
    sched = AnnealSchedule.linear(T)
    cost = ising.cost_vector()
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    eye = np.eye(2)
    sum_x = np.kron(eye, x) + np.kron(x, eye)  # qubit 0 is the low index bit

    def rhs(t, psi):
        h = -0.5 * sched.a(t) * sum_x @ psi + 0.5 * sched.b(t) * cost * psi
        return -1j * h

    sol = solve_ivp(
        rhs,
        (0.0, T),
        StateVector.plus_state(2).amplitudes,
        rtol=1e-10,
        atol=1e-12,
    )
    exact = sol.y[:, -1]
    trotter = qa_trotter(ising, sched, dt=0.01).amplitudes
    overlap = abs(np.vdot(exact, trotter)) ** 2
    assert overlap > 0.99
    # both anneal into the doubly degenerate ground space {01, 10}
    ground = trotter[1], trotter[2]
    assert abs(ground[0]) ** 2 + abs(ground[1]) ** 2 > 0.99


def test_trotter_rejects_oversize_and_bad_dt():
    from qubolab.model import IsingModel

    big = IsingModel({}, np.zeros(13), 0.0, 13)
    with pytest.raises(ValueError):
        qa_trotter(big, AnnealSchedule.linear(1.0), dt=0.1)
    ising, _ = three_qubit_ising()
    with pytest.raises(ValueError):
        qa_trotter(ising, AnnealSchedule.linear(1.0), dt=0.0)
    for dt in (np.inf, np.nan):
        with pytest.raises(ValueError, match="non-finite"):
            qa_trotter(ising, AnnealSchedule.linear(1.0), dt=dt)
    # past the step cap, and an infinite total_time / dt, before any step list
    for total_time in (1.0, 1e300):
        with pytest.raises(ValueError, match="Trotter steps"):
            qa_trotter(ising, AnnealSchedule.linear(total_time), dt=1e-300)


def gate_by_gate_trotter(ising, schedule, dt):
    """qa_trotter spelled out with apply_gate: per step an RX wall, then the phase."""
    n = ising.num_qubits
    steps = int(round(schedule.total_time / dt))
    dt_eff = schedule.total_time / steps
    cost = ising.cost_vector()
    state = StateVector.plus_state(n)
    for k in range(steps):
        t_k = (k + 0.5) * dt_eff
        for q in range(n):
            state = apply_gate(state, Gate("RX", (q,), -schedule.a(t_k) * dt_eff))
        phase = np.exp(-0.5j * schedule.b(t_k) * dt_eff * cost)
        state = StateVector(state.amplitudes * phase, n)
    return state


@pytest.mark.parametrize("n", range(1, 13))
def test_trotter_kernel_matches_gate_by_gate_reference(n):
    rng = np.random.default_rng(100 + n)
    Q = np.triu(rng.uniform(-2.0, 2.0, size=(n, n)))
    ising = to_ising(QuboProblem(Q=Q, constant=float(rng.uniform(-1.0, 1.0))))
    for _ in range(2):
        schedule = AnnealSchedule.linear(float(rng.uniform(0.2, 3.0)))
        dt = float(rng.uniform(0.02, 0.2))
        fast = qa_trotter(ising, schedule, dt).amplitudes
        reference = gate_by_gate_trotter(ising, schedule, dt).amplitudes
        assert np.array_equal(fast, reference)
