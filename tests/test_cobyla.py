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

from qubolab import cli, cobyla as cobyla_module
from qubolab.cobyla import _trstlp, cobyla
from qubolab.optimizer import _TOL, uniform_sampler
from qubolab.variational import START_RANGE, num_params, qaoa_objective, vqe_objective
from util import matrix_trstlp

EX0P1 = {"name": "lama", "instance": "Ex0p1"}


def recording(fun):
    calls = []

    def recorded(x):
        value = fun(x)
        calls.append((x.tobytes(), np.float64(value).tobytes()))
        return value

    return recorded, calls


def scipy_run(fun, x0, max_iter):
    recorded, calls = recording(fun)
    result = scipy_minimize(
        recorded, x0, method="COBYLA", tol=_TOL, options={"maxiter": max_iter}
    )
    return calls, result.x.tobytes(), np.float64(result.fun).tobytes(), int(result.nfev)


def qubolab_run(fun, x0, max_iter):
    recorded, calls = recording(fun)
    x, f, nf = cobyla(recorded, x0, rhoend=_TOL, maxfun=max_iter)
    return calls, x.tobytes(), np.float64(f).tobytes(), nf


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
    if kind == "unbounded-linear":
        return lambda x: float(-np.sum(x))
    if kind == "unbounded-quadratic":
        return lambda x: float(-(x @ x))
    if kind == "huge":
        return lambda x: float(1e40 * np.sum(np.cos(x)))
    if kind == "tiny":
        return lambda x: float(1e-300 * ((x - 1) @ (x - 1)))
    if kind == "piecewise-constant":
        return lambda x: float(np.floor(np.sum(x)))
    if kind in ("inf-region", "nan-region"):
        edge = np.inf if kind == "inf-region" else np.nan
        smooth = objective("smooth", n, seed)
        return lambda x: edge if x[0] > 2 else smooth(x)
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


EDGE_KINDS = [
    "unbounded-linear", "unbounded-quadratic", "huge", "tiny", "piecewise-constant",
    "inf-region", "nan-region",
]


@pytest.mark.parametrize("budget", ["n+2", 60, 1000])
@pytest.mark.parametrize("n", [1, 2, 5, 12])
@pytest.mark.parametrize("kind", EDGE_KINDS)
def test_edge_objectives_match_scipy(kind, n, budget):
    # values that overflow, underflow, stay flat, or turn inf or NaN
    max_iter = n + 2 if budget == "n+2" else budget
    x0 = np.random.default_rng([n, 5]).uniform(-3.0, 3.0, size=n)
    assert_same_run(objective(kind, n, 3), x0, max_iter)


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


EDGE_ENTRIES = [
    0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 3e12, -1e13, 1e300,
    np.inf, -np.inf, np.nan,
]


ENTRIES = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from(EDGE_ENTRIES),
    st.floats(allow_nan=True, allow_infinity=True),
)
# a gradient of such entries has a norm near EPS**2 (about 4.9e-32), where
# qradd stops taking the column
TINY_ENTRIES = st.floats(1e-33, 1e-30) | st.floats(-1e-30, -1e-33)


@settings(max_examples=500, deadline=None)
@given(
    g=st.integers(1, 20).flatmap(
        lambda n: st.lists(ENTRIES, min_size=n, max_size=n)
        | st.lists(TINY_ENTRIES, min_size=n, max_size=n)
    ),
    # past 1.35e154, delta**2 overflows
    delta=st.floats(1e-6, 1e3) | st.floats(-8, 160).map(lambda e: 10.0**e),
)
def test_trust_region_step_matches_the_matrix_form(g, delta):
    # one carried column of z against PRIMA's eye(n) cascade, d = 0 algebra,
    # multiplier and finiteness checks
    g = np.array(g)
    with np.errstate(invalid="ignore"):  # the oracle's inf * 0 in c @ eye(n)
        expected = matrix_trstlp(g.copy(), delta)
    assert _trstlp(g.copy(), delta).tobytes() == expected.tobytes()


def test_updatepole_is_idempotent_on_real_simplices(monkeypatch):
    """The state every iteration starts from, and every ρ reduction sees, is
    the output of ``_initialize`` or of the last ``_updatepole``; a second
    ``_updatepole`` on it changes nothing, so COBYLA does not call one."""
    states = []

    def record(fval, sim, simi):
        states.append((fval.copy(), sim.copy(), simi.copy()))

    def recorded_initialize(objective, x0):
        fval, sim, simi = initialize(objective, x0)
        record(fval, sim, simi)
        return fval, sim, simi

    def recorded_updatepole(fval, sim, simi):
        sim, simi, damaging = updatepole(fval, sim, simi)
        if not damaging:
            record(fval, sim, simi)
        return sim, simi, damaging

    initialize, updatepole = cobyla_module._initialize, cobyla_module._updatepole
    monkeypatch.setattr(cobyla_module, "_initialize", recorded_initialize)
    monkeypatch.setattr(cobyla_module, "_updatepole", recorded_updatepole)
    ising = cli._Problem.build(EX0P1).ising
    for algorithm, layers, shots, max_iter in [
        ("qaoa", 1, 10000, 40), ("vqe", 2, 10000, 150), ("vqe", 2, None, 1000)
    ]:
        fun = {"qaoa": qaoa_objective, "vqe": vqe_objective}[algorithm](ising, layers, shots, 0)
        sampler = uniform_sampler(
            num_params(algorithm, layers, ising.num_qubits), 0.0, START_RANGE[algorithm]
        )
        cobyla(fun, sampler(np.random.default_rng([0, 0])), rhoend=_TOL, maxfun=max_iter)
    assert len(states) > 1000
    for fval, sim, simi in states:
        again = fval.copy()
        sim_again, simi_again, damaging = updatepole(again, sim.copy(), simi.copy())
        assert not damaging
        assert again.tobytes() == fval.tobytes()
        assert sim_again.tobytes() == sim.tobytes()
        assert simi_again.tobytes() == simi.tobytes()


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
