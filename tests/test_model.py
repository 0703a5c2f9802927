"""Transform chain and brute-force oracle tests.

Derived expectations were worked out by hand (penalty expansion, level
encoding, Pauli substitution) and are frozen here as literals.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qubolab import model, optimizer, simulator, usecases, variational
from qubolab.model import (
    BinaryEncoding,
    IsingModel,
    QcioProblem,
    QuboProblem,
    SolveReport,
    brute_force_solve,
    build_quio,
    encode_binary,
    index_bits,
    min_penalty,
    parse_bits,
    quadratic_table,
    qubo_cost_vector,
    render_bits,
    require_integer,
    require_real,
    str_to_bits,
    to_ising,
    upper_triangularize,
)
from qubolab.quality import Distribution, relative_error
from qubolab.simulator import StateVector
from qubolab.usecases import gen_cities

from util import (
    all_bitstrings,
    bits_to_int,
    bits_to_str,
    constraint_residual,
    decode,
    diag_cost,
    enumerated_costs,
    int_to_bits,
    qcio_cost,
    qubo_cost,
    quio_cost,
    random_qcio,
    random_qubo,
)


# ---------------------------------------------------------------------------
# the integer rule and the number rule

_SCALARS = st.one_of(
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.floats(),
    st.floats(width=32).map(np.float32),
    st.complex_numbers(max_magnitude=10),
    st.text(max_size=3),
    st.none(),
)


@given(_SCALARS, st.one_of(st.none(), st.integers(-5, 5)))
def test_integer_and_number_rules(value, least):
    """A bool of either kind is neither an integer nor a number, a float is
    not an integer, and ``least`` bounds integers alone."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_))
    real = integer or isinstance(value, (float, np.floating))
    if integer and (least is None or value >= least):
        require_integer("count", value, least)
    else:
        with pytest.raises(ValueError, match="count must be an integer"):
            require_integer("count", value, least)
    if real:
        require_real("weight", value)
    else:
        with pytest.raises(ValueError, match="weight must be a real number"):
            require_real("weight", value)


# ---------------------------------------------------------------------------
# bit helpers


def test_bit_roundtrip():
    bits = int_to_bits(9, 6)
    assert bits.tolist() == [1, 0, 0, 1, 0, 0]  # 9 = 2^0 + 2^3, bit i has weight 2^i
    assert bits_to_int(bits) == 9
    assert bits_to_str(bits) == "100100"
    assert str_to_bits("100100").tolist() == bits.tolist()


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(0, 30))
def test_codec_equals_per_string_reference_and_round_trips(data, n):
    values = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=20))
    rows = index_bits(values, n)
    keys = render_bits(rows)
    assert keys == [bits_to_str(int_to_bits(v, n)) for v in values]
    assert render_bits(rows.astype(bool)) == keys
    np.testing.assert_array_equal(parse_bits(keys), rows)
    for key, row in zip(keys, rows):
        np.testing.assert_array_equal(str_to_bits(key), row)


@pytest.mark.parametrize(
    "keys", [["2"], ["01", "0x"], ["0 1"], ["1", "é"], ["01", "0"], ["", "1"]]
)
def test_parser_refuses_non_binary_characters_and_mixed_widths(keys):
    with pytest.raises(ValueError):
        parse_bits(keys)
    if len(keys) == 1:
        with pytest.raises(ValueError):
            str_to_bits(keys[0])


@pytest.mark.parametrize(
    "keys", [[10, 11], ["01", 10], [b"01"], [("0", "1")]], ids=["ints", "mixed", "bytes", "tuple"]
)
def test_parser_refuses_keys_that_are_not_str(keys):
    with pytest.raises(ValueError, match="is not a str"):
        parse_bits(keys)


def test_all_bitstrings_enumerates_in_integer_order():
    mat = all_bitstrings(3)
    assert mat.shape == (8, 3)
    assert [bits_to_int(row) for row in mat] == list(range(8))


# ---------------------------------------------------------------------------
# build_quio


def test_build_quio_rho_zero_is_identity():
    qcio, _ = random_qcio(np.random.default_rng(0), 3)
    quio = build_quio(qcio, 0.0)
    np.testing.assert_array_equal(quio.M_rho, qcio.M)
    np.testing.assert_array_equal(quio.l_rho, qcio.l)
    assert quio.c_rho == qcio.c


def test_build_quio_identity_constraint_with_zero_rhs():
    qcio, _ = random_qcio(np.random.default_rng(1), 2)
    qcio.A = np.eye(2)
    qcio.r = np.zeros(2)
    quio = build_quio(qcio, 1.0)
    np.testing.assert_allclose(quio.M_rho, qcio.M + np.eye(2))
    np.testing.assert_allclose(quio.l_rho, qcio.l)
    assert quio.c_rho == qcio.c


def test_build_quio_expands_penalty_by_hand():
    # 1*(x - 2)^2 = x^2 - 4x + 4
    qcio = QcioProblem(M=[[0.0]], l=[0.0], c=0.0, A=[[1.0]], r=[2.0])
    quio = build_quio(qcio, 1.0)
    np.testing.assert_allclose(quio.M_rho, [[1.0]])
    np.testing.assert_allclose(quio.l_rho, [-4.0])
    assert quio.c_rho == 4.0


def test_build_quio_rejects_negative_rho():
    qcio = QcioProblem(M=[[0.0]], l=[0.0], c=0.0, A=[[1.0]], r=[2.0])
    with pytest.raises(ValueError):
        build_quio(qcio, -0.5)


# ---------------------------------------------------------------------------
# upper_triangularize


def test_upper_triangularize_folds_lower_entries():
    out = upper_triangularize(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_array_equal(out, [[0.0, 2.0], [0.0, 0.0]])


def test_upper_triangularize_leaves_upper_and_diagonal_alone():
    up = np.array([[1.0, 5.0], [0.0, -2.0]])
    np.testing.assert_array_equal(upper_triangularize(up), up)
    diag = np.diag([3.0, -1.0, 0.5])
    np.testing.assert_array_equal(upper_triangularize(diag), diag)


def test_upper_triangularize_preserves_quadratic_form():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = rng.integers(1, 7)
        mat = rng.uniform(-3.0, 3.0, size=(n, n))
        folded = upper_triangularize(mat)
        for _ in range(10):  # 100 (matrix, vector) pairs in total
            x = rng.uniform(-2.0, 2.0, size=n)
            assert abs(x @ folded @ x - x @ mat @ x) < 1e-9


# ---------------------------------------------------------------------------
# encode_binary / qubo_cost


def test_encode_binary_level_encoding_by_hand():
    # (b1 + 2 b2)^2 with b^2 = b: Q = [[1, 4], [0, 4]]
    quio = build_quio(QcioProblem([[1.0]], [0.0], 0.0, [[0.0]], [0.0]), 0.0)
    enc = BinaryEncoding.levels(1)
    qubo = encode_binary(quio, enc)
    np.testing.assert_allclose(qubo.Q, [[1.0, 4.0], [0.0, 4.0]])
    assert qubo.constant == 0.0


def test_encode_binary_zero_problem_gives_zero_qubo():
    quio = build_quio(QcioProblem([[0.0]], [0.0], 0.0, [[0.0]], [0.0]), 0.0)
    qubo = encode_binary(quio, BinaryEncoding.levels(1))
    np.testing.assert_array_equal(qubo.Q, np.zeros((2, 2)))


def test_encode_binary_identity_encoding_merges_linear_terms():
    quio = build_quio(
        QcioProblem(np.diag([2.0, 3.0]), [1.0, -1.0], 0.5, np.zeros((2, 2)), [0.0, 0.0]),
        0.0,
    )
    enc = BinaryEncoding(B=np.eye(2), bits_per_var=[1, 1])
    qubo = encode_binary(quio, enc)
    np.testing.assert_allclose(qubo.Q, np.diag([3.0, 2.0]))
    assert qubo.constant == 0.5


@pytest.mark.parametrize("bits_per_var", [2, [2.5]])
def test_binary_encoding_refuses_a_malformed_bit_count(bits_per_var):
    with pytest.raises(ValueError, match="bits_per_var must be"):
        BinaryEncoding(B=[[1.0, 2.0]], bits_per_var=bits_per_var)


def test_encode_binary_rejects_dimension_mismatch():
    quio = build_quio(QcioProblem([[1.0]], [0.0], 0.0, [[0.0]], [0.0]), 0.0)
    with pytest.raises(ValueError):
        encode_binary(quio, BinaryEncoding.levels(2))


def test_qubo_cost_level_encoding_values():
    qubo = QuboProblem(Q=[[1.0, 4.0], [0.0, 4.0]], constant=0.0)
    assert qubo_cost(qubo, "11") == 9.0  # x = 3 under the level encoding
    assert qubo_cost(qubo, "10") == 1.0
    assert qubo_cost(qubo, "00") == 0.0


def test_qubo_cost_all_zero_bits_returns_constant():
    qubo = random_qubo(np.random.default_rng(3), 5)
    assert qubo_cost(qubo, "00000") == qubo.constant


def test_qubo_cost_rejects_wrong_length():
    qubo = QuboProblem(Q=[[1.0, 4.0], [0.0, 4.0]], constant=0.0)
    with pytest.raises(ValueError):
        qubo_cost(qubo, "101")


def test_qubo_cost_rejects_non_binary_string():
    qubo = QuboProblem(Q=[[1.0, 4.0], [0.0, 4.0]], constant=0.0)
    with pytest.raises(ValueError, match="'2'"):
        qubo_cost(qubo, "2x")


@pytest.mark.parametrize(
    "bits", [[2, 7], [1, -1], [0.5, 1.0], [np.nan, 0.0]], ids=["2-7", "minus-one", "half", "nan"]
)
def test_qubo_cost_rejects_non_binary_array(bits):
    # read as bits, [2, 7] would cost 4 + 56 + 196 = 256 on this QUBO
    qubo = QuboProblem(Q=[[1.0, 4.0], [0.0, 4.0]], constant=0.0)
    with pytest.raises(ValueError, match="is not 0 or 1"):
        qubo_cost(qubo, np.array(bits))


def test_qubo_cost_takes_binary_arrays_of_any_dtype():
    qubo = QuboProblem(Q=[[1.0, 4.0], [0.0, 4.0]], constant=0.5)
    for bits in (np.array([1, 1]), np.array([1.0, 1.0]), np.array([True, True]), [1, 1]):
        assert qubo_cost(qubo, bits) == qubo_cost(qubo, "11") == 9.5


def test_qubo_problem_rejects_lower_triangular_entries():
    with pytest.raises(ValueError):
        QuboProblem(Q=[[1.0, 0.0], [2.0, 4.0]], constant=0.0)


def test_qubo_cost_vector_matches_scalar_costs():
    qubo = random_qubo(np.random.default_rng(4), 6)
    vec = qubo_cost_vector(qubo)
    for v in range(64):
        assert abs(vec[v] - qubo_cost(qubo, int_to_bits(v, 6))) < 1e-12


def test_qubo_cost_vector_across_row_blocks():
    # 14 variables: the range 1000..13001 starts and stops inside the table
    qubo = random_qubo(np.random.default_rng(8), 14)
    vec = qubo_cost_vector(qubo, 1000, 13001)
    assert vec.shape == (12001,)
    for v in [1000, 4095, 4096, 4097, 8191, 8192, 13000]:
        assert abs(vec[v - 1000] - qubo_cost(qubo, int_to_bits(v, 14))) < 1e-9
    ising = to_ising(qubo)
    for v in [0, 4095, 4096, 16383]:
        assert abs(ising.cost_vector()[v] - diag_cost(ising, int_to_bits(v, 14))) < 1e-9


@settings(max_examples=60, deadline=None)
@example(n=16, shift=0, seed=0)
@example(n=0, shift=4, seed=1)
@given(n=st.integers(0, 16), shift=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_quadratic_table_equals_the_enumeration_on_dyadic_coefficients(n, shift, seed):
    # entries k / 2^shift with |k| <= 64: both summation orders are exact
    rng = np.random.default_rng(seed)
    Q = np.triu(rng.integers(-64, 65, size=(n, n)) * (rng.random((n, n)) < 0.7)) / 2.0**shift
    const = int(rng.integers(-64, 65)) / 2.0**shift
    np.testing.assert_array_equal(quadratic_table(Q, const), enumerated_costs(Q, const))


@settings(max_examples=60, deadline=None)
@example(n=16, exponent=0, seed=0)
@given(n=st.integers(0, 16), exponent=st.integers(-6, 6), seed=st.integers(0, 2**32 - 1))
def test_quadratic_table_stays_within_n_ulp_of_the_enumeration_on_floats(n, exponent, seed):
    rng = np.random.default_rng(seed)
    Q = np.triu(rng.uniform(-2.0, 2.0, size=(n, n))) * 10.0**exponent
    const = float(rng.uniform(-2.0, 2.0)) * 10.0**exponent
    # the constant goes in last on both sides, so its size bounds that rounding
    bound = n * np.finfo(float).eps * (np.abs(Q).sum() + abs(const))
    assert np.abs(quadratic_table(Q, const) - enumerated_costs(Q, const)).max() <= bound


@pytest.mark.parametrize("n", [19, 20])
def test_table_ranges_are_the_bytes_of_slices_of_the_whole(n):
    # 19 and 20 variables span two and four 2^18-entry chunks
    rng = np.random.default_rng(40 + n)
    qubo = random_qubo(rng, n)
    whole = qubo_cost_vector(qubo)
    bound = n * np.finfo(float).eps * (np.abs(qubo.Q).sum() + abs(qubo.constant))
    for v in [*rng.integers(0, whole.size, 40), whole.size - 1]:
        assert abs(whole[v] - qubo_cost(qubo, int_to_bits(v, n))) <= bound
    chunk = 1 << 18
    spans = [(chunk - 5, chunk + 7), (1000, whole.size - 999), (chunk, whole.size)]
    spans += [(start, start + chunk) for start in range(0, whole.size, chunk)]
    for start, stop in spans:
        assert qubo_cost_vector(qubo, start, stop).tobytes() == whole[start:stop].tobytes()
    # scoring reads the whole table, brute force its chunks: the optimum scores 0
    report = brute_force_solve(qubo)
    assert len(report.optimal_set) == 1
    p = Distribution({report.optimal_set[0]: 1.0})
    assert relative_error(p, qubo, report.optimal_cost).value == 0.0


# ---------------------------------------------------------------------------
# to_ising


def test_to_ising_single_diagonal_entry():
    ising = to_ising(QuboProblem(Q=[[1.0]], constant=0.0))
    np.testing.assert_allclose(ising.h_lin, [-0.5])
    assert ising.h_const == 0.5
    assert ising.h_quad == {}


def test_to_ising_single_coupling():
    ising = to_ising(QuboProblem(Q=[[0.0, 4.0], [0.0, 0.0]], constant=0.0))
    assert ising.h_quad == {(0, 1): 1.0}
    np.testing.assert_allclose(ising.h_lin, [-1.0, -1.0])
    assert ising.h_const == 1.0


def test_to_ising_zero_qubo():
    ising = to_ising(QuboProblem(Q=np.zeros((3, 3)), constant=0.0))
    assert ising.h_quad == {}
    np.testing.assert_array_equal(ising.h_lin, np.zeros(3))
    assert ising.h_const == 0.0


@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_ising_diagonal_identity(seed, n):
    qubo = random_qubo(np.random.default_rng(seed), n)
    ising = to_ising(qubo)
    costs = qubo_cost_vector(qubo)
    np.testing.assert_allclose(ising.cost_vector(), costs, atol=1e-9)


def test_cost_vector_is_memoised_and_read_only():
    qubo = random_qubo(np.random.default_rng(6), 5)
    for model in (qubo, to_ising(qubo)):
        vec = model.cost_vector()
        assert model.cost_vector() is vec
        with pytest.raises(ValueError):
            vec[0] = 1.0
    np.testing.assert_array_equal(qubo.cost_vector(), qubo_cost_vector(qubo))


@pytest.mark.parametrize(
    "start, stop",
    [(0, 16), (5, 4), (-1, 3)],
    ids=["stop-past-2^n", "stop-below-start", "negative-start"],
)
def test_cost_table_refuses_a_range_outside_the_table(start, stop):
    qubo = QuboProblem(np.eye(3), 0.0)
    for table in (lambda: qubo_cost_vector(qubo, start, stop),
                  lambda: quadratic_table(qubo.Q, 0.0, start, stop)):
        with pytest.raises(ValueError, match=f"start={start}, stop={stop} is not within 0..2\\^3"):
            table()
    # the bounds themselves are a range: empty at either end, or all of it
    for start, stop in ((0, 0), (8, 8), (0, 8)):
        whole = qubo.cost_vector()[start:stop]
        assert qubo_cost_vector(qubo, start, stop).tobytes() == whole.tobytes()


def test_ising_distinct_costs_are_a_read_only_memo_outside_the_fields():
    ising = to_ising(random_qubo(np.random.default_rng(12), 7))
    twin = replace(ising)  # built from the constructor fields, as the codec builds
    values, where = ising.distinct_costs()
    assert ising.distinct_costs()[0] is values and ising.distinct_costs()[1] is where
    assert np.array_equal(values, np.unique(ising.cost_vector()))
    assert np.array_equal(values[where], ising.cost_vector())
    for array in (values, where):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # no constructor field, so repr and a rebuild ignore the memo
    assert "_distinct" not in {f.name for f in fields(IsingModel) if f.init}
    assert repr(ising) == repr(twin)
    assert replace(ising)._distinct is None


@settings(max_examples=40, deadline=None)
@example(n=0, dyadic=True, seed=0)
@example(n=10, dyadic=False, seed=0)
@given(n=st.integers(0, 10), dyadic=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_ising_cost_vector_equals_the_per_string_diagonal(n, dyadic, seed):
    rng = np.random.default_rng(seed)
    if dyadic:  # k / 16 with |k| <= 64: both sides are exact
        draw = lambda size: rng.integers(-64, 65, size) / 16.0  # noqa: E731
    else:
        draw = lambda size: rng.uniform(-2.0, 2.0, size)  # noqa: E731
    weights = draw((n, n))
    h_quad = {(i, j): float(weights[i, j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.7}
    ising = IsingModel(h_quad, draw(n), float(draw(1)[0]))
    reference = np.array([diag_cost(ising, int_to_bits(v, n)) for v in range(1 << n)])
    if dyadic:
        np.testing.assert_array_equal(ising.cost_vector(), reference)
    else:
        # the bit form's sum of |Q'| and |const'| is at most 9 times this scale
        scale = abs(ising.h_const) + np.abs(ising.h_lin).sum() + sum(map(abs, h_quad.values()))
        bound = n * np.finfo(float).eps * 9 * scale
        assert np.abs(ising.cost_vector() - reference).max() <= bound


def test_value_equal_array_holders_compare_as_a_bool():
    # the generated __eq__ compared the ndarray fields and raised "The truth
    # value of an array with more than one element is ambiguous"
    for make in (
        lambda: QuboProblem(np.eye(2), 0.0),
        lambda: IsingModel({(0, 1): 1.0}, np.zeros(2), 0.0),
        lambda: QcioProblem(np.eye(2), np.zeros(2), 0.0, np.eye(2), np.ones(2)),
        lambda: gen_cities(3),
        lambda: StateVector.plus_state(2),
    ):
        a, b = make(), make()
        assert (a == b) is False and (a != b) is True and (a == a) is True
    # so every dataclass of the package with an ndarray field compares by identity
    holders = {
        cls for module in (model, optimizer, simulator, usecases, variational)
        for cls in vars(module).values()
        if is_dataclass(cls) and any("ndarray" in str(f.type) for f in fields(cls))
    }
    assert len(holders) == 9
    assert not [cls for cls in holders if cls.__dataclass_params__.eq]


def test_ising_model_refuses_a_field_vector_of_another_length():
    # h_lin sets the qubit count, so a coupling past it is refused
    with pytest.raises(ValueError, match=r"coupling \(0,2\) must satisfy 0 <= i < j < n"):
        IsingModel({(0, 2): 1.0}, [1.0, 2.0], 0.0)
    assert IsingModel({(0, 2): 1.0}, [1.0, 2.0, 0.0], 0.0).num_qubits == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["h_lin", "h_quad", "h_const"])
def test_ising_model_refuses_non_finite_coefficients_by_name(field, bad):
    coefficients = {"h_quad": {(0, 1): 0.5}, "h_lin": [1.0, 2.0], "h_const": 0.0}
    if field == "h_lin":
        coefficients["h_lin"] = [1.0, bad]
    elif field == "h_quad":
        coefficients["h_quad"] = {(0, 1): bad}
    else:
        coefficients["h_const"] = bad
    with pytest.raises(ValueError, match=f"non-finite {field}"):
        IsingModel(**coefficients)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_ising_cost_vector_refuses_weights_whose_bit_form_overflows():
    # 4 * 1e308 is inf: the table would hold inf and NaN, not +-1e308
    ising = IsingModel({(0, 1): 1e308}, [0.0, 0.0], 0.0)
    with pytest.raises(ValueError, match="non-finite bit form of h_quad, h_lin and h_const"):
        ising.cost_vector()


def test_ising_diag_cost_scalar_matches_vector():
    qubo = random_qubo(np.random.default_rng(5), 4)
    ising = to_ising(qubo)
    vec = ising.cost_vector()
    for v in range(16):
        assert abs(diag_cost(ising, int_to_bits(v, 4)) - vec[v]) < 1e-12


# ---------------------------------------------------------------------------
# transform-chain consistency


@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.floats(0.0, 5.0))
@settings(max_examples=30, deadline=None)
def test_transform_chain_consistency(seed, n, rho):
    qcio, enc = random_qcio(np.random.default_rng(seed), n)
    quio = build_quio(qcio, rho)
    qubo = encode_binary(quio, enc)
    for bits in all_bitstrings(enc.num_bits):
        x = decode(enc, bits)
        expected = qcio_cost(qcio, x) + rho * float(
            constraint_residual(qcio, x) @ constraint_residual(qcio, x)
        )
        assert abs(qubo_cost(qubo, bits) - quio_cost(quio, x)) < 1e-9
        assert abs(qubo_cost(qubo, bits) - expected) < 1e-9


# ---------------------------------------------------------------------------
# brute force


def test_brute_force_two_variable_degenerate_optimum():
    qubo = QuboProblem(Q=[[-1.0, 2.0], [0.0, -1.0]], constant=0.0)
    report = brute_force_solve(qubo)
    assert report.optimal_cost == -1.0
    assert set(report.optimal_set) == {"01", "10"}
    assert report.evaluations == 4


def test_brute_force_zero_qubo_everything_optimal():
    qubo = QuboProblem(Q=np.zeros((4, 4)), constant=2.5)
    report = brute_force_solve(qubo)
    assert report.optimal_cost == 2.5
    assert len(report.optimal_set) == 16


@pytest.mark.parametrize("n", [0, 1, 6, 19])
def test_brute_force_optimal_set_equals_per_string_rendering(n):
    # the top bit is free, so every minimizer has a twin; at 19 variables the
    # twins lie in different 2^18-row chunks
    rng = np.random.default_rng(30 + n)
    Q = np.triu(rng.choice([-1.0, 0.0, 0.0, 1.0], size=(n, n)))
    Q[:, n - 1 :] = 0.0
    qubo = QuboProblem(Q=Q, constant=0.0)
    vec = qubo_cost_vector(qubo)
    minimizers = np.flatnonzero(vec <= vec.min() + 1e-9)
    expected = [bits_to_str(int_to_bits(v, n)) for v in minimizers]
    assert brute_force_solve(qubo).optimal_set == expected
    if n == 0:
        assert expected == [""]


def test_brute_force_respects_cap():
    # 2^27 costs would take a GiB; the cap refuses before enumerating any
    qubo = QuboProblem(Q=np.zeros((27, 27)), constant=0.0)
    with pytest.raises(ValueError, match="27 variables exceed the enumeration cap of 26"):
        brute_force_solve(qubo)


def two_pass_brute_force(qubo: QuboProblem) -> SolveReport:
    """The two-pass enumeration ``brute_force_solve`` replaced, kept as its
    oracle: the minimum over every chunk first, then a second pass that
    recomputes each chunk's costs to collect the minimizers."""
    N = qubo.num_vars
    total = 1 << N
    chunk = min(total, 1 << 18)
    best = np.inf
    for start in range(0, total, chunk):
        best = min(best, qubo_cost_vector(qubo, start, min(start + chunk, total)).min())
    minimizers = []
    for start in range(0, total, chunk):
        costs = qubo_cost_vector(qubo, start, min(start + chunk, total))
        minimizers.append(start + np.flatnonzero(costs <= best + 1e-9))
    return SolveReport(
        optimal_cost=float(best),
        optimal_set=render_bits(index_bits(np.concatenate(minimizers), N)),
        evaluations=total,
    )


@settings(max_examples=40, deadline=None)
@example(n=19, seed=1)
@example(n=20, seed=2)  # 19 and 20 variables span two and four 2^18 chunks
@given(n=st.integers(0, 20), seed=st.integers(0, 2**32 - 1))
def test_brute_force_equals_two_pass_reference(n, seed):
    # entries on a coarse grid tie often; the diagonal offsets of k * 4e-10
    # put costs both inside and outside the 1e-9 band around the minimum
    rng = np.random.default_rng(seed)
    Q = np.triu(rng.choice([-1.0, 0.0, 0.0, 1.0], size=(n, n)))
    Q += np.diag(rng.integers(0, 4, size=n) * 4e-10)
    qubo = QuboProblem(Q=Q, constant=0.0)
    assert brute_force_solve(qubo) == two_pass_brute_force(qubo)


def test_brute_force_chunking_agrees_with_single_pass():
    # 20 variables forces several 2^18 chunks
    rng = np.random.default_rng(11)
    Q = np.triu(rng.uniform(-1.0, 1.0, size=(20, 20)))
    Q[np.abs(Q) < 0.7] = 0.0
    qubo = QuboProblem(Q=Q, constant=0.0)
    report = brute_force_solve(qubo)
    vec = qubo_cost_vector(qubo, 0, 1 << 20)
    assert abs(report.optimal_cost - vec.min()) < 1e-12
    assert len(report.optimal_set) == int((vec <= vec.min() + 1e-9).sum())


# ---------------------------------------------------------------------------
# min_penalty


def test_min_penalty_unconstrained_is_zero():
    qcio = QcioProblem(np.diag([1.0, 1.0]), [0.0, 0.0], 0.0, np.zeros((2, 2)), [0.0, 0.0])
    assert min_penalty(qcio, BinaryEncoding.levels(2)) == 0.0


def test_min_penalty_linear_toy_lands_on_first_valid_grid_point():
    # min x s.t. x = 2 over 0..3; penalized cost x + rho (x - 2)^2 keeps
    # x=1 tied with x=2 up to rho = 1, so the first clean grid point is 1.1
    qcio = QcioProblem([[0.0]], [1.0], 0.0, [[1.0]], [2.0])
    enc = BinaryEncoding.levels(1)
    rho = min_penalty(qcio, enc)
    assert abs(rho - 1.1) < 1e-12


def test_min_penalty_grid_neighbors_stay_feasible():
    qcio = QcioProblem([[0.0]], [1.0], 0.0, [[1.0]], [2.0])
    enc = BinaryEncoding.levels(1)
    rho = min_penalty(qcio, enc)
    for k in range(10):
        qubo = encode_binary(build_quio(qcio, rho + 0.1 * k), enc)
        for s in brute_force_solve(qubo).optimal_set:
            x = decode(enc, str_to_bits(s))
            assert np.allclose(constraint_residual(qcio, x), 0.0, atol=1e-9)


def test_min_penalty_decodes_feasible_at_and_above_threshold():
    rng = np.random.default_rng(21)
    qcio, enc = random_qcio(rng, 2)
    rho = min_penalty(qcio, enc)
    qubo = encode_binary(build_quio(qcio, rho), enc)
    for s in brute_force_solve(qubo).optimal_set:
        x = decode(enc, str_to_bits(s))
        assert np.allclose(constraint_residual(qcio, x), 0.0, atol=1e-9)


def test_min_penalty_reports_unreachable_ceiling():
    # min c x s.t. x = 1 over x in {0, 1}: x = 0 costs rho, x = 1 costs c, so
    # only a weight above c leaves the feasible point the one minimizer
    enc = BinaryEncoding.levels(1, bits_per_var=1)
    qcio = QcioProblem([[0.0]], [100.0], 0.0, [[1.0]], [1.0])
    with pytest.raises(ValueError, match="no valid penalty weight found up to ceiling 50.0"):
        min_penalty(qcio, enc)
    qcio = QcioProblem([[0.0]], [40.0], 0.0, [[1.0]], [1.0])
    assert abs(min_penalty(qcio, enc) - 40.1) < 1e-9


def test_min_penalty_rejects_unsatisfiable_constraints():
    qcio = QcioProblem([[0.0]], [0.0], 0.0, [[1.0]], [7.0])  # x=7 not encodable
    with pytest.raises(ValueError):
        min_penalty(qcio, BinaryEncoding.levels(1))
