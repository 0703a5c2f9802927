"""qubolab's COBYLA against scipy's, its oracle.

scipy >= 1.16 runs PRIMA's COBYLA, which ``qubolab.cobyla`` transcribes for
unconstrained problems. Both must evaluate the same points in the same order
(compared as bytes), see the same values, and return the same point, value
and evaluation count, whether they stop on the trust-region radius or on the
budget.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize as scipy_minimize

from qubolab import cli
from qubolab.cobyla import cobyla
from qubolab.optimizer import _TOL, uniform_sampler
from qubolab.variational import START_RANGE, num_params, qaoa_objective, vqe_objective

EX0P1 = {"name": "lama", "instance": "Ex0p1"}


def recording(fun):
    calls = []

    def recorded(x):
        value = fun(x)
        calls.append((x.tobytes(), value))
        return value

    return recorded, calls


def scipy_run(fun, x0, max_iter):
    recorded, calls = recording(fun)
    result = scipy_minimize(
        recorded, x0, method="COBYLA", tol=_TOL, options={"maxiter": max_iter}
    )
    return calls, result.x.tobytes(), float(result.fun), int(result.nfev)


def qubolab_run(fun, x0, max_iter):
    recorded, calls = recording(fun)
    x, f, nf = cobyla(recorded, x0, rhoend=_TOL, maxfun=max_iter)
    return calls, x.tobytes(), float(f), nf


def assert_same_run(fun, x0, max_iter):
    """Both solvers from ``x0``; returns qubolab's evaluation count."""
    expected = scipy_run(fun, x0, max_iter)
    actual = qubolab_run(fun, x0, max_iter)
    assert actual[0] == expected[0]  # every evaluated point and value, in order
    assert actual[1:] == expected[1:]  # returned x, fun and nfev
    return actual[3]


def objective(kind, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    c = rng.normal(size=n)
    if kind == "smooth":
        return lambda x: float(np.sum((a @ (x - c)) ** 2) + (x - c) @ (x - c))
    if kind == "rugged":
        return lambda x: float(
            np.sum(np.sin(3.0 * x + c)) + 0.1 * (x @ x) + 0.5 * np.sum(np.abs(x - c))
        )
    level = float(c[0])
    return lambda x: level


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["smooth", "rugged", "constant"]),
    n=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_same_evaluations_as_scipy(kind, n, seed, data):
    max_iter = data.draw(st.integers(n + 2, 500), label="max_iter")
    x0 = np.random.default_rng([seed, 1]).uniform(-3.0, 3.0, size=n)
    assert_same_run(objective(kind, n, seed), x0, max_iter)


@pytest.mark.parametrize(
    "kind, n, max_iter, stop",
    [
        ("smooth", 2, 500, "tolerance"),
        ("smooth", 5, 500, "tolerance"),
        ("constant", 20, 500, "tolerance"),
        ("rugged", 3, 500, "tolerance"),
        ("smooth", 12, 40, "max_iter"),
        ("rugged", 20, 22, "max_iter"),
        ("rugged", 7, 150, "max_iter"),
    ],
)
def test_both_stops_match_scipy(kind, n, max_iter, stop):
    x0 = np.random.default_rng(n).uniform(-3.0, 3.0, size=n)
    nf = assert_same_run(objective(kind, n, 11), x0, max_iter)
    assert (nf >= max_iter) == (stop == "max_iter")


def assert_same_multistart(algorithm, layers, starts, max_iter, shots, seed, ising):
    """``cli._train``'s starts, each solver on its own copy of the objective,
    so a shot-noise generator advances alike on both sides."""
    factory = {"qaoa": qaoa_objective, "vqe": vqe_objective}[algorithm]
    sampler = uniform_sampler(
        num_params(algorithm, layers, ising.num_qubits), 0.0, START_RANGE[algorithm]
    )
    theirs = factory(ising, layers, shots, seed)
    ours = factory(ising, layers, shots, seed)
    for k in range(starts):
        x0 = sampler(np.random.default_rng([seed, k]))
        expected = scipy_run(theirs, x0, max_iter)
        actual = qubolab_run(ours, x0, max_iter)
        assert actual[0] == expected[0]
        assert actual[1:] == expected[1:]


@pytest.mark.parametrize("seed", [0, 1406931578])
@pytest.mark.parametrize(
    "algorithm, layers, starts, max_iter",
    [("qaoa", 1, 5, 40), ("vqe", 2, 1, 150)],
    ids=["qaoa", "vqe"],
)
def test_small_train_configs_match_scipy(algorithm, layers, starts, max_iter, seed):
    ising = cli._Problem.build(EX0P1).ising
    assert_same_multistart(algorithm, layers, starts, max_iter, 10000, seed, ising)


def test_acceptance_06_first_starts_match_scipy():
    # test_06: exact two-layer VQE on Ex0p1 at its penalty, seed 0, max_iter 1000
    ising = cli._Problem.build(EX0P1).ising
    assert_same_multistart("vqe", 2, 3, 1000, None, 0, ising)


@pytest.mark.parametrize(
    "x0, max_iter, message",
    [
        ([np.nan, 0.0], 10, "finite"),
        ([], 10, "non-empty"),
        ([0.0, 0.0], 3, "maxfun"),
    ],
)
def test_refuses_bad_input_before_evaluating(x0, max_iter, message):
    calls = []
    with pytest.raises(ValueError, match=message):
        cobyla(calls.append, np.array(x0), rhoend=_TOL, maxfun=max_iter)
    assert calls == []
