"""Metamorphic relations: transforms of a QUBO whose effect on the output is
known without an oracle. The coefficients stay far from overflow and from
subnormals, where scaling by a power of two is exact."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qubolab.annealer import SaConfig, sa_sample
from qubolab.model import QuboProblem, brute_force_solve, upper_triangularize
from qubolab.quality import Distribution, relative_error

# any float of magnitude 1e-3..1e3, or zero: every sum SA forms stays normal
FLOATS = st.just(0.0) | st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)
# multiples of 1/16 up to 256: every cost of n <= 9 bits, and every product
# with a probability k/64, is exact in float64 in any summation order
DYADIC = st.integers(-(2**12), 2**12).map(lambda k: k / 16)


def qubos(coefficients):
    """Upper-triangular QUBOs on 2..9 bits with entries and constant drawn
    from ``coefficients``."""

    def build(n):
        size = n * (n + 1) // 2
        entries = st.lists(coefficients, min_size=size, max_size=size)

        def fill(values):
            Q = np.zeros((n, n))
            Q[np.triu_indices(n)] = values
            return Q

        return st.builds(QuboProblem, entries.map(fill), coefficients)

    return st.integers(2, 9).flatmap(build)


def scaled(qubo: QuboProblem, factor: float) -> QuboProblem:
    return QuboProblem(qubo.Q * factor, qubo.constant * factor)


@settings(max_examples=60, deadline=None)
@given(qubo=qubos(FLOATS), seed=st.integers(0, 2**32 - 1))
def test_sa_counts_are_invariant_under_scaling_by_four(qubo, seed):
    # the default ladder scales with max |Q|, so every field, temperature and
    # Metropolis weight is scaled by 4 or unchanged, bit for bit
    cfg = SaConfig(num_reads=16, sweeps=20, seed=seed)
    base = sa_sample(qubo, cfg).counts
    assert list(sa_sample(scaled(qubo, 4.0), cfg).counts.items()) == list(base.items())


@settings(max_examples=60, deadline=None)
@given(data=st.data(), qubo=qubos(DYADIC))
def test_relabelling_the_variables_permutes_the_optimal_set(data, qubo):
    n = qubo.num_vars
    perm = data.draw(st.permutations(range(n)))
    relabelled = QuboProblem(upper_triangularize(qubo.Q[perm][:, perm]), qubo.constant)
    base, moved = brute_force_solve(qubo), brute_force_solve(relabelled)
    assert moved.optimal_cost == base.optimal_cost
    # bit a of the relabelled problem is bit perm[a] of the original
    expected = {"".join(bits[p] for p in perm) for bits in base.optimal_set}
    assert set(moved.optimal_set) == expected
    assert len(moved.optimal_set) == len(base.optimal_set)


@settings(max_examples=60, deadline=None)
@given(qubo=qubos(DYADIC), seed=st.integers(0, 2**32 - 1))
def test_relative_error_is_invariant_under_scaling_by_three(qubo, seed):
    # 64 reads give probabilities k/64, so every cost and mean is exact and
    # |3a| / |3b| rounds as |a| / |b|; next to C* = 0 the error is absolute
    p = Distribution.from_sampleset(sa_sample(qubo, SaConfig(num_reads=64, sweeps=10, seed=seed)))
    tripled = scaled(qubo, 3.0)
    base = relative_error(p, qubo, brute_force_solve(qubo).optimal_cost)
    moved = relative_error(p, tripled, brute_force_solve(tripled).optimal_cost)
    assert moved.is_absolute == base.is_absolute
    assert moved.value == (3 * base.value if base.is_absolute else base.value)
