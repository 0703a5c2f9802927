"""Use-case builder and decoder tests.

The optimal-schedule counts of the bundled charging series were pinned by an
offline calibration search (enumerating integer schedules per window/energy
choice); they are asserted here via the QUBO brute-force oracle.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from qubolab.model import (
    brute_force_solve,
    build_quio,
    encode_binary,
    int_to_bits,
    min_penalty,
    qubo_cost,
    str_to_bits,
)
from qubolab.usecases import (
    LamaSpec,
    TrpSpec,
    build_lama,
    build_trp,
    decode_lama,
    decode_trp,
    example_series,
    gen_cities,
    ising_spin_form,
    lama_objective,
    route_to_bits,
)


def lama_qubo(spec, rho):
    qcio, enc = build_lama(spec)
    return encode_binary(build_quio(qcio, rho), enc), qcio, enc


# ---------------------------------------------------------------------------
# charging schedules


def test_lama_qubit_counts_match_series_sizes():
    for (T, C), n in [((3, 1), 6), ((4, 1), 8), ((4, 2), 16), ((8, 2), 32), ((8, 3), 48)]:
        spec = LamaSpec(T, C, [list(range(T))] * C, [T] * C)
        qcio, enc = build_lama(spec)
        assert enc.num_bits == n
        assert spec.num_qubits == n
        assert qcio.dim_n == C * T


def test_lama_rejects_excess_energy_demand():
    with pytest.raises(ValueError):
        LamaSpec(3, 1, [[0]], [4])  # one slot holds at most level 3


def test_lama_rejects_empty_window():
    with pytest.raises(ValueError):
        LamaSpec(3, 1, [[]], [0])


def test_decode_lama_zero_bits():
    spec0 = LamaSpec(3, 1, [[0, 1]], [0])
    schedule, feasible = decode_lama("000000", spec0)
    assert feasible and np.all(schedule.levels == 0)
    spec1 = LamaSpec(3, 1, [[0, 1]], [1])
    _, feasible = decode_lama("000000", spec1)
    assert not feasible


def test_decode_lama_full_level_in_single_slot():
    spec = LamaSpec(3, 1, [[1]], [3])
    bits = np.zeros(6, dtype=int)
    bits[2] = 1  # slot 1 low bit
    bits[3] = 1  # slot 1 high bit -> level 3
    schedule, feasible = decode_lama(bits, spec)
    assert feasible
    assert schedule.levels[0].tolist() == [0, 3, 0]


def test_decode_lama_rejects_wrong_length():
    with pytest.raises(ValueError):
        decode_lama("0000", LamaSpec(3, 1, [[0]], [0]))


def test_decoders_refuse_non_binary_strings():
    # read digit by digit, "200000" is a feasible level-2 schedule
    with pytest.raises(ValueError):
        decode_lama("200000", example_series()["Ex0p1"])
    with pytest.raises(ValueError):
        decode_trp("200010001", gen_cities(3, "symmetric"))


def test_decoders_refuse_non_binary_arrays():
    spec = example_series()["Ex0p1"]
    for bits in ([2, 0, 0, 0, 0, 0], [0.5, 1, 0, 1, 0, 0], [-1, 1, 0, 1, 0, 0]):
        with pytest.raises(ValueError, match="is not 0 or 1"):
            decode_lama(np.array(bits), spec)
    # truncated to int64, [1.5, 0, ...] would be the permutation matrix of 0, 1, 2
    cities = gen_cities(3, "symmetric")
    for bits in ([2, 0, 0, 0, 1, 0, 0, 0, 1], [1.5, 0, 0, 0, 1, 0, 0, 0, 1]):
        with pytest.raises(ValueError, match="is not 0 or 1"):
            decode_trp(np.array(bits), cities)

def test_lama_feasible_schedules_cost_the_unpenalized_objective():
    spec = example_series()["Ex0p1"]
    rho = 2.0
    qubo, qcio, enc = lama_qubo(spec, rho)
    for v in range(1 << enc.num_bits):
        bits = int_to_bits(v, enc.num_bits)
        schedule, feasible = decode_lama(bits, spec)
        if feasible:
            assert abs(qubo_cost(qubo, bits) - lama_objective(schedule)) < 1e-9


@pytest.mark.parametrize(
    "name,count",
    [
        ("Ex0p1", 1), ("Ex0p2", 3),
        ("Ex1p1", 1), ("Ex1p2", 3), ("Ex1p3", 1),
        ("Ex2p1", 3), ("Ex2p2", 3), ("Ex2p3", 6), ("Ex2p4", 19),
    ],
)
def test_example_series_optimal_schedule_counts(name, count):
    spec = example_series()[name]
    qcio, enc = build_lama(spec)
    rho = min_penalty(qcio, enc)
    qubo = encode_binary(build_quio(qcio, rho), enc)
    report = brute_force_solve(qubo)
    assert len(report.optimal_set) == count
    for s in report.optimal_set:
        schedule, feasible = decode_lama(s, spec)
        assert feasible


def test_example_series_declared_sizes():
    sizes = {"Ex0": 6, "Ex1": 8, "Ex2": 16, "Ex3": 32, "Ex4": 48}
    for name, spec in example_series().items():
        assert spec.num_qubits == sizes[name[:3]]


# ---------------------------------------------------------------------------
# truck routing


def test_trp_variable_counts():
    for m, n in [(6, 36), (7, 49), (8, 64)]:
        qubo = build_trp(gen_cities(m, "symmetric"))
        assert qubo.num_vars == n


def test_gen_cities_symmetric_ring_distances():
    spec = gen_cities(4, "symmetric")
    assert abs(spec.distances[0, 1] - 2.0 * np.sin(np.pi / 4)) < 1e-12
    assert abs(spec.distances[0, 1] - np.sqrt(2.0)) < 1e-12
    spec6 = gen_cities(6, "symmetric")
    adjacent = [spec6.distances[i, (i + 1) % 6] for i in range(6)]
    assert np.allclose(adjacent, adjacent[0])


def test_gen_cities_asymmetric_is_seed_deterministic():
    a = gen_cities(5, "asymmetric", seed=42)
    b = gen_cities(5, "asymmetric", seed=42)
    np.testing.assert_array_equal(a.distances, b.distances)
    c = gen_cities(5, "asymmetric", seed=43)
    assert not np.array_equal(a.distances, c.distances)


def test_trp_sparsity_pattern_is_layout_independent():
    q_sym = build_trp(gen_cities(5, "symmetric"))
    q_asym = build_trp(gen_cities(5, "asymmetric", seed=3))
    np.testing.assert_array_equal(q_sym.Q != 0.0, q_asym.Q != 0.0)


def test_trp_penalty_block_vanishes_exactly_on_permutations():
    spec = gen_cities(4, "asymmetric", seed=9, rho=1.7)
    spec_free = TrpSpec(4, spec.distances, spec.layout, rho=0.0)
    qubo = build_trp(spec)
    qubo_free = build_trp(spec_free)
    for order in itertools.permutations(range(4)):
        bits = route_to_bits(list(order), 4)
        penalty = qubo_cost(qubo, bits) - qubo_cost(qubo_free, bits)
        assert abs(penalty) < 1e-9


@pytest.mark.parametrize(
    "rho, message",
    [
        (-1.0, "must be nonnegative"),
        (-1e-300, "must be nonnegative"),
        (np.inf, "non-finite penalty weight"),
        (np.nan, "non-finite penalty weight"),
        ("2", "must be a real number"),
        (True, "must be a real number"),
    ],
)
def test_trp_spec_rejects_bad_penalty(rho, message):
    distances = gen_cities(4).distances
    with pytest.raises(ValueError, match=message):
        TrpSpec(4, distances, rho=rho)
    with pytest.raises(ValueError, match=message):
        gen_cities(4, rho=rho)


def test_trp_penalty_block_at_least_rho_off_permutations():
    rho = 0.9
    spec = gen_cities(3, "symmetric", rho=rho)
    spec_free = TrpSpec(3, spec.distances, spec.layout, rho=0.0)
    qubo = build_trp(spec)
    qubo_free = build_trp(spec_free)
    for v in range(1 << 9):
        bits = int_to_bits(v, 9)
        _, feasible, _ = decode_trp(bits, spec)
        penalty = qubo_cost(qubo, bits) - qubo_cost(qubo_free, bits)
        if feasible:
            assert abs(penalty) < 1e-9
        else:
            assert penalty >= rho - 1e-9


def test_decode_trp_identity_tour():
    spec = gen_cities(4, "symmetric")
    bits = route_to_bits([0, 1, 2, 3], 4)
    route, feasible, length = decode_trp(bits, spec)
    assert feasible
    assert route.order == [0, 1, 2, 3]
    expected = sum(spec.distances[i, (i + 1) % 4] for i in range(4))
    assert abs(length - expected) < 1e-12


def test_decode_trp_infeasible_cases():
    spec = gen_cities(3, "symmetric")
    _, feasible, length = decode_trp(np.zeros(9, dtype=int), spec)
    assert not feasible and length == np.inf
    bits = np.zeros(9, dtype=int)
    bits[0 * 3 + 0] = 1  # two cities in time step 0
    bits[1 * 3 + 0] = 1
    bits[2 * 3 + 1] = 1
    _, feasible, _ = decode_trp(bits, spec)
    assert not feasible


def test_decode_trp_rejects_wrong_length():
    with pytest.raises(ValueError):
        decode_trp("0000", gen_cities(3, "symmetric"))


def test_trp_qubo_cost_of_tours_is_scaled_length():
    spec = gen_cities(4, "asymmetric", seed=5, rho=2.0)
    qubo = build_trp(spec)
    scale = spec.distances.max()
    for order in itertools.permutations(range(4)):
        bits = route_to_bits(list(order), 4)
        _, feasible, length = decode_trp(bits, spec)
        assert feasible
        assert abs(qubo_cost(qubo, bits) - length / scale) < 1e-9


def test_symmetric_four_city_optimum_is_the_ring_in_all_phases():
    spec = gen_cities(4, "symmetric", rho=2.0)
    report = brute_force_solve(build_trp(spec))
    assert len(report.optimal_set) == 8  # 4 rotations x 2 directions
    tour_lengths = {}
    for order in itertools.permutations(range(4)):
        _, _, length = decode_trp(route_to_bits(list(order), 4), spec)
        tour_lengths[order] = length
    best = min(tour_lengths.values())
    for s in report.optimal_set:
        route, feasible, length = decode_trp(str_to_bits(s), spec)
        assert feasible
        assert abs(length - best) < 1e-9


def test_symmetric_optimum_set_closed_under_dihedral_group():
    spec = gen_cities(5, "symmetric")
    lengths = {
        order: decode_trp(route_to_bits(list(order), 5), spec)[2]
        for order in itertools.permutations(range(5))
    }
    best = min(lengths.values())
    optima = {o for o, v in lengths.items() if abs(v - best) < 1e-9}
    for order in list(optima):
        rotated = tuple(order[1:] + order[:1])
        reflected = tuple(reversed(order))
        assert rotated in optima
        assert reflected in optima


# ---------------------------------------------------------------------------
# spin form


def test_ising_spin_form_single_diagonal():
    from qubolab.model import QuboProblem

    spin = ising_spin_form(QuboProblem(Q=[[1.0]], constant=0.0))
    np.testing.assert_allclose(spin.h, [0.5])
    assert spin.c == 0.5
    assert spin.J == {}


def test_ising_spin_form_zero_qubo():
    from qubolab.model import QuboProblem

    spin = ising_spin_form(QuboProblem(Q=np.zeros((3, 3)), constant=0.0))
    assert spin.J == {}
    np.testing.assert_array_equal(spin.h, np.zeros(3))
    assert spin.c == 0.0


def test_ising_spin_form_matches_qubo_cost_by_enumeration():
    from util import random_qubo

    qubo = random_qubo(np.random.default_rng(13), 8)
    spin = ising_spin_form(qubo)
    for v in range(1 << 8):
        bits = int_to_bits(v, 8)
        spins = 2.0 * bits - 1.0
        assert abs(spin.evaluate(spins) - qubo_cost(qubo, bits)) < 1e-9


def test_trp_spin_form_matches_on_tour_qubo():
    qubo = build_trp(gen_cities(3, "symmetric", rho=1.3))
    spin = ising_spin_form(qubo)
    for v in range(1 << 9):
        bits = int_to_bits(v, 9)
        spins = 2.0 * bits - 1.0
        assert abs(spin.evaluate(spins) - qubo_cost(qubo, bits)) < 1e-9
