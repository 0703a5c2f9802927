"""``min_penalty`` against ``full_rho_scan``, the scan from rho = 0 it
replaced: the grid index it starts at is a proven lower bound, so the two
return the same rho or raise the same error."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubolab.model import BinaryEncoding, QcioProblem, _first_grid_index, min_penalty
from qubolab.usecases import build_lama, example_series

from util import full_rho_scan

# the automatic penalty of every bundled charging instance of at most 16 bits
BUNDLED_RHO = {
    "Ex0p1": 1.1, "Ex0p2": 3.1, "Ex1p1": 1.1, "Ex1p2": 3.1, "Ex1p3": 1.1,
    "Ex2p1": 5.1000000000000005, "Ex2p2": 3.1, "Ex2p3": 3.1, "Ex2p4": 3.1,
}


def outcome(scan, qcio, enc):
    """The rho ``scan`` returns, or the message of the ``ValueError`` it raises."""
    try:
        return scan(qcio, enc)
    except ValueError as exc:
        return str(exc)


def assert_same_rho(qcio, enc):
    fast = outcome(min_penalty, qcio, enc)
    assert fast == outcome(full_rho_scan, qcio, enc)
    return fast


def test_bundled_instances_are_the_nine_of_at_most_16_bits():
    small = [name for name, spec in example_series().items() if spec.num_qubits <= 16]
    assert small == list(BUNDLED_RHO)


@pytest.mark.parametrize("name", list(BUNDLED_RHO))
def test_min_penalty_equals_the_full_scan_on_bundled_instances(name):
    qcio, enc = build_lama(example_series()[name])
    assert assert_same_rho(qcio, enc) == BUNDLED_RHO[name]


@pytest.mark.parametrize(
    "qcio, enc, expected",
    [
        # unconstrained: rho = 0 already passes
        (QcioProblem(np.eye(2), [0.0, 0.0], 0.0, np.zeros((2, 2)), [0.0, 0.0]),
         BinaryEncoding.levels(2), 0.0),
        # min x s.t. x = 2: x = 1 ties with x = 2 at rho = 1
        (QcioProblem([[0.0]], [1.0], 0.0, [[1.0]], [2.0]), BinaryEncoding.levels(1), 1.1),
        # min c x s.t. x = 1 over {0, 1}: the first weight above c
        (QcioProblem([[0.0]], [40.0], 0.0, [[1.0]], [1.0]),
         BinaryEncoding.levels(1, bits_per_var=1), 40.1),
        (QcioProblem([[0.0]], [100.0], 0.0, [[1.0]], [1.0]),
         BinaryEncoding.levels(1, bits_per_var=1),
         "no valid penalty weight found up to ceiling 50.0"),
        # x = 7 is not encodable in two bits
        (QcioProblem([[0.0]], [0.0], 0.0, [[1.0]], [7.0]), BinaryEncoding.levels(1),
         "no encodable point satisfies the constraints"),
    ],
    ids=["unconstrained", "linear-tie", "ceiling-40.1", "unreachable-ceiling", "unsatisfiable"],
)
def test_min_penalty_equals_the_full_scan_on_toys(qcio, enc, expected):
    fast = assert_same_rho(qcio, enc)
    assert fast == expected if isinstance(expected, str) else abs(fast - expected) < 1e-12


@st.composite
def qcio_problems(draw):
    """QCIOs of 1-4 variables of 1-2 bits, integer or float coefficients
    scaled over six decades, and one or two equality rows satisfied by a
    drawn encodable point (or, now and then, by none)."""
    n, bits = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    integer = draw(st.booleans())
    scale = 10.0 ** draw(st.integers(-2, 3))

    def coefficients(shape):
        values = rng.integers(-3, 4, shape) if integer else rng.uniform(-3.0, 3.0, shape)
        return scale * values

    A = np.zeros((n, n))
    rows = draw(st.integers(1, min(2, n)))
    A[:rows] = rng.integers(0, 3, (rows, n)) if integer else rng.uniform(0.0, 2.0, (rows, n))
    x = rng.integers(0, 1 << bits, n)
    r = A @ x + (draw(st.integers(0, 1)) if draw(st.booleans()) else 0.0)
    qcio = QcioProblem(
        M=coefficients((n, n)), l=coefficients(n), c=float(coefficients(())), A=A, r=r
    )
    return qcio, BinaryEncoding.levels(n, bits)


@settings(max_examples=150, deadline=None)
@given(qcio_problems())
def test_min_penalty_equals_the_full_scan_on_hypothesis_problems(problem):
    assert_same_rho(*problem)


def test_witness_steps_down_from_a_total_that_equals_c_star():
    # the linear toy's tables: x = 1 costs 1 with penalty 1, x = 2 is c* = 2;
    # the estimate (2 - 1) / 1 / 0.1 = 10 gives 1 + (10 * 0.1) * 1 == 2, not
    # below c*, so the loop steps down to 9 and the scan starts at 10
    base, penalty = np.array([1.0, 2.0]), np.array([1.0, 0.0])
    assert base[0] + (10 * 0.1) * penalty[0] == 2.0
    assert _first_grid_index(base, penalty, penalty <= 1e-9, 2.0) == 10
    qcio = QcioProblem([[0.0]], [1.0], 0.0, [[1.0]], [2.0])
    assert assert_same_rho(qcio, BinaryEncoding.levels(1)) == 1.1


def test_no_witness_or_noisy_feasible_penalties_start_the_scan_at_zero():
    feasible = np.array([False, True])
    # no infeasible point is cheaper than c*
    assert _first_grid_index(np.array([3.0, 2.0]), np.array([1.0, 0.0]), feasible, 2.0) == 0
    # a feasible penalty of -1e-10: rho * 1e-10 can reach _ATOL / 2, so no bound
    assert _first_grid_index(np.array([1.0, 2.0]), np.array([1.0, -1e-10]), feasible, 2.0) == 0
    # rounding noise of -1e-15 keeps the bound
    assert _first_grid_index(np.array([1.0, 2.0]), np.array([1.0, -1e-15]), feasible, 2.0) == 10
