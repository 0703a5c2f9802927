"""Use-case builder and decoder tests.

The optimal-schedule counts of the bundled charging series were pinned by an
offline calibration search (enumerating integer schedules per window/energy
choice); they are asserted here via the QUBO brute-force oracle.
"""

from __future__ import annotations

import itertools
import json
import re

import numpy as np
import pytest

from qubolab import cli
from qubolab.model import (
    QuboProblem,
    brute_force_solve,
    build_quio,
    encode_binary,
    min_penalty,
    str_to_bits,
    to_ising,
    upper_triangularize,
)
from qubolab.serialize import from_dict
from qubolab.usecases import (
    NUM_LEVELS,
    LamaSpec,
    TrpSpec,
    build_lama,
    decode_lama,
    decode_trp,
    example_series,
    gen_cities,
    lama_objective,
    trp_model,
)

from util import (
    build_trp,
    constraint_residual,
    diag_cost,
    int_to_bits,
    qubo_cost,
    random_qubo,
    route_to_bits,
)


def lama_qubo(spec, rho):
    qcio, enc = build_lama(spec)
    return encode_binary(build_quio(qcio, rho), enc), qcio, enc


# ---------------------------------------------------------------------------
# charging schedules


def test_lama_qubit_counts_match_series_sizes():
    for (T, C), n in [((3, 1), 6), ((4, 1), 8), ((4, 2), 16), ((8, 2), 32), ((8, 3), 48)]:
        spec = LamaSpec(T, [list(range(T))] * C, [T] * C)
        qcio, enc = build_lama(spec)
        assert enc.num_bits == n
        assert spec.num_qubits == n
        assert qcio.dim_n == C * T


def test_lama_rejects_excess_energy_demand():
    with pytest.raises(ValueError):
        LamaSpec(3, [[0]], [4])  # one slot holds at most level 3


@pytest.mark.parametrize("num_levels", [2, 3, 8])
def test_lama_rejects_levels_the_two_bit_encoding_cannot_hold(num_levels):
    # at 2 levels "010000" would decode as a feasible level-2 schedule, and at
    # 8 levels 0..7 would sit on 2-bit variables: the level count is the
    # constant NUM_LEVELS, and a document that names one is refused by name
    assert NUM_LEVELS == 4 and not hasattr(LamaSpec(3, [[0, 1]], [2]), "num_levels")
    doc = {"type": "LamaSpec", "num_timeslots": 3, "availability": [[0, 1]],
           "required_energy": [2], "num_levels": num_levels}
    with pytest.raises(ValueError, match="num_levels"):
        from_dict(doc)


def test_lama_rejects_empty_window():
    with pytest.raises(ValueError):
        LamaSpec(3, [[]], [0])


def test_decode_lama_zero_bits():
    spec0 = LamaSpec(3, [[0, 1]], [0])
    levels, feasible = decode_lama("000000", spec0)
    assert feasible and np.all(levels == 0)
    spec1 = LamaSpec(3, [[0, 1]], [1])
    _, feasible = decode_lama("000000", spec1)
    assert not feasible


def test_decode_lama_full_level_in_single_slot():
    spec = LamaSpec(3, [[1]], [3])
    bits = np.zeros(6, dtype=int)
    bits[2] = 1  # slot 1 low bit
    bits[3] = 1  # slot 1 high bit -> level 3
    levels, feasible = decode_lama(bits, spec)
    assert feasible
    assert levels.tolist() == [[0, 3, 0]]


def test_decode_lama_rejects_wrong_length():
    with pytest.raises(ValueError):
        decode_lama("0000", LamaSpec(3, [[0]], [0]))


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
        levels, feasible = decode_lama(bits, spec)
        if feasible:
            assert abs(qubo_cost(qubo, bits) - lama_objective(levels)) < 1e-9


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
        _, feasible = decode_lama(s, spec)
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


def reference_build_trp(spec, rho):
    """The hand-folded tour QUBO ``build_trp`` replaced, kept as its oracle:
    the distance block plus one outer product and diagonal update per one-hot
    row, with the constant summed 2m times."""
    m = spec.num_cities
    d = spec.distances / spec.distances.max()
    N = m * m
    W = np.zeros((N, N))
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            for t in range(m):
                W[i * m + t, j * m + (t + 1) % m] += d[i, j]
    constant = 0.0
    for i in range(m):  # each city appears exactly once
        v = np.zeros(N)
        v[i * m : (i + 1) * m] = 1.0
        W += rho * np.outer(v, v)
        W[np.diag_indices(N)] -= 2.0 * rho * v
        constant += rho
    for t in range(m):  # each time step hosts exactly one city
        v = np.zeros(N)
        v[t::m] = 1.0
        W += rho * np.outer(v, v)
        W[np.diag_indices(N)] -= 2.0 * rho * v
        constant += rho
    return QuboProblem(Q=upper_triangularize(W), constant=constant)


_DYADIC_RHOS = (0.0, 0.5, 1.0, 1.5, 2.0)


@pytest.mark.parametrize("layout", ["symmetric", "asymmetric"])
@pytest.mark.parametrize("m", range(3, 10))
def test_trp_chain_equals_hand_folded_reference(m, layout):
    for rho in (*_DYADIC_RHOS, 0.1, 1.3):
        spec = gen_cities(m, layout, seed=m)
        qubo, expected = build_trp(spec, rho), reference_build_trp(spec, rho)
        np.testing.assert_array_equal(qubo.Q, expected.Q)
        # rho * |r|^2 rounds once; the reference's running sum rounds at
        # every step, so the two agree whenever the multiples of rho are exact
        assert qubo.constant == rho * 2 * m
        if rho in _DYADIC_RHOS:
            assert qubo.constant == expected.constant


def test_trp_model_is_one_hot_rows_over_one_bit_variables():
    qcio, enc = trp_model(gen_cities(4, "asymmetric", seed=2))
    assert qcio.dim_n == 16 and enc.num_bits == 16
    np.testing.assert_array_equal(enc.B, np.eye(16))
    np.testing.assert_array_equal(qcio.r, [1.0] * 8 + [0.0] * 8)
    np.testing.assert_array_equal(qcio.A[8:], 0.0)
    for order in itertools.permutations(range(4)):
        x = route_to_bits(list(order), 4)
        np.testing.assert_array_equal(constraint_residual(qcio, x), 0.0)


def test_trp_spec_needs_three_cities():
    with pytest.raises(ValueError, match="at least three cities"):
        TrpSpec([[0.0, 1.0], [1.0, 0.0]])
    for m in range(-2, 3):
        for layout in ("symmetric", "asymmetric"):
            with pytest.raises(ValueError, match="at least three cities"):
                gen_cities(m, layout)


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
    spec = gen_cities(4, "asymmetric", seed=9)
    qubo = build_trp(spec, 1.7)
    qubo_free = build_trp(spec, 0.0)
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
def test_trp_spec_rejects_bad_penalty(tmp_path, capsys, rho, message):
    # the spec holds no penalty; the weight is refused where it is read
    out = tmp_path / "out.json"
    if isinstance(rho, float):  # a flag reads numbers only
        assert cli.main(["build", "trp", "--cities", "4", f"--rho={rho!r}", "-o", str(out)]) == 1
        assert re.search(message, capsys.readouterr().err)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "use_case": {"name": "trp", "cities": 4, "rho": rho}, "algorithm": "sa", "seeds": [0],
    }))
    assert cli.main(["run", str(config), "-o", str(out)]) == 1
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()
    with pytest.raises(ValueError, match=message):
        build_quio(trp_model(gen_cities(4))[0], rho)


def test_trp_penalty_block_at_least_rho_off_permutations():
    rho = 0.9
    spec = gen_cities(3, "symmetric")
    qubo = build_trp(spec, rho)
    qubo_free = build_trp(spec, 0.0)
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
    order, feasible, length = decode_trp(bits, spec)
    assert feasible
    assert order == [0, 1, 2, 3]
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
    spec = gen_cities(4, "asymmetric", seed=5)
    qubo = build_trp(spec, 2.0)
    scale = spec.distances.max()
    for order in itertools.permutations(range(4)):
        bits = route_to_bits(list(order), 4)
        _, feasible, length = decode_trp(bits, spec)
        assert feasible
        assert abs(qubo_cost(qubo, bits) - length / scale) < 1e-9


def test_symmetric_four_city_optimum_is_the_ring_in_all_phases():
    spec = gen_cities(4, "symmetric")
    report = brute_force_solve(build_trp(spec, 2.0))
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
# Ising form: the one transform, to_ising, checked on the use-case QUBOs


def _assert_ising_matches_by_enumeration(qubo):
    ising = to_ising(qubo)
    n = qubo.num_vars
    for v in range(1 << n):
        bits = int_to_bits(v, n)
        assert abs(diag_cost(ising, bits) - qubo_cost(qubo, bits)) < 1e-9


def test_ising_spin_form_single_diagonal():
    qubo = QuboProblem(Q=[[1.0]], constant=0.0)
    ising = to_ising(qubo)
    np.testing.assert_allclose(ising.h_lin, [-0.5])
    assert ising.h_const == 0.5
    assert ising.h_quad == {}
    _assert_ising_matches_by_enumeration(qubo)


def test_ising_spin_form_zero_qubo():
    qubo = QuboProblem(Q=np.zeros((3, 3)), constant=0.0)
    ising = to_ising(qubo)
    assert ising.h_quad == {}
    np.testing.assert_array_equal(ising.h_lin, np.zeros(3))
    assert ising.h_const == 0.0
    _assert_ising_matches_by_enumeration(qubo)


def test_ising_spin_form_matches_qubo_cost_by_enumeration():
    _assert_ising_matches_by_enumeration(random_qubo(np.random.default_rng(13), 8))


def test_trp_spin_form_matches_on_tour_qubo():
    _assert_ising_matches_by_enumeration(build_trp(gen_cities(3, "symmetric"), 1.3))
