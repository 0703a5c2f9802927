"""Optimizer harness tests: recording, budgets, multi-start protocol."""

from __future__ import annotations

import numpy as np
import pytest

from qubolab.optimizer import MultiStartReport, OptTrace, minimize, multistart, uniform_sampler


def quadratic(x):
    return float((x[0] - 1.0) ** 2)


def test_converges_on_one_dimensional_quadratic():
    trace = minimize(quadratic, [0.0])
    assert abs(trace.iterates[-1][0][0] - 1.0) < 1e-3
    assert trace.final_cost < 1e-6
    assert trace.termination == "tolerance"


def test_every_call_recorded_and_final_matches():
    calls = []

    def spy(x):
        calls.append(float(x[0]))
        return quadratic(x)

    trace = minimize(spy, [3.0])
    # every recorded iterate except a possible synthetic terminal one maps 1:1
    assert len(trace.iterates) in (len(calls), len(calls) + 1)
    assert trace.final_cost == trace.iterates[-1][1]


def test_budget_respected_with_warmup_slack():
    trace = minimize(quadratic, [40.0], max_iter=5)
    assert trace.termination == "max_iter"
    assert len(trace.iterates) <= 5 + 1 + 2  # budget + dim warm-up + terminal


@pytest.mark.parametrize("dim", [1, 3, 12])
def test_budget_below_cobyla_minimum_is_refused(dim):
    # COBYLA needs len(x0) + 2 evaluations; scipy would raise a smaller budget
    # with only a warning, so the harness refuses it before any evaluation
    calls = []

    def spy(x):
        calls.append(x)
        return float(x @ x)

    message = f"max_iter must be an integer >= {dim + 2}, got {dim + 1}"
    with pytest.raises(ValueError, match=message):
        minimize(spy, np.ones(dim), max_iter=dim + 1)
    assert calls == []
    trace = minimize(spy, np.ones(dim), max_iter=dim + 2)
    assert trace.termination == "max_iter"


def test_constant_objective_terminates_by_tolerance():
    trace = minimize(lambda x: 7.5, np.zeros(3))
    assert trace.termination == "tolerance"
    assert trace.final_cost == 7.5


def test_non_finite_objective_aborts():
    state = {"n": 0}

    def poisoned(x):
        state["n"] += 1
        return np.nan if state["n"] > 3 else float(x @ x)

    with pytest.raises(ValueError, match="non-finite"):
        minimize(poisoned, np.ones(2))


def test_trace_validation():
    with pytest.raises(ValueError):
        OptTrace([(np.zeros(1), 1.0)], final_cost=2.0, termination="tolerance")
    with pytest.raises(ValueError):
        OptTrace([(np.zeros(1), 1.0)], final_cost=1.0, termination="whenever")
    with pytest.raises(ValueError):
        OptTrace([], final_cost=0.0, termination="tolerance")


def test_deterministic_given_same_start():
    a = minimize(quadratic, [5.0])
    b = minimize(quadratic, [5.0])
    assert a.final_cost == b.final_cost
    assert all(
        np.array_equal(xa, xb) and ca == cb
        for (xa, ca), (xb, cb) in zip(a.iterates, b.iterates)
    )


# ---------------------------------------------------------------------------
# multistart


def rastrigin_like(x):
    # several local minima on the line; global at 0
    return float(x[0] ** 2 + 2.0 * (1.0 - np.cos(4.0 * x[0])))


def test_multistart_best_is_min_over_traces():
    report = multistart(
        rastrigin_like, uniform_sampler(1, -4.0, 4.0), num_starts=20, seed=1
    )
    finals = [t.final_cost for t in report.traces]
    assert report.best_cost == min(finals)
    assert all(report.best_cost <= f for f in finals)
    assert abs(report.best_cost) < 1e-4  # some start lands in the global basin


def test_multistart_seed_determinism():
    sampler = uniform_sampler(2, 0.0, np.pi)
    objective = lambda x: float((x[0] - 1.0) ** 2 + (x[1] - 2.0) ** 2)
    a = multistart(objective, sampler, num_starts=5, seed=42)
    b = multistart(objective, sampler, num_starts=5, seed=42)
    np.testing.assert_array_equal(a.best_params, b.best_params)
    assert a.best_cost == b.best_cost
    c = multistart(objective, sampler, num_starts=5, seed=43)
    assert not np.array_equal(a.best_params, c.best_params)


def test_multistart_single_start_equals_plain_minimize():
    sampler = uniform_sampler(1, -2.0, 2.0)
    report = multistart(quadratic, sampler, num_starts=1, seed=7)
    x0 = sampler(np.random.default_rng([7, 0]))
    solo = minimize(quadratic, x0)
    assert report.best_cost == solo.final_cost
    assert len(report.traces) == 1


def test_multistart_keeps_every_trace():
    report = multistart(
        quadratic, uniform_sampler(1, -1.0, 1.0), num_starts=8, seed=3
    )
    assert len(report.traces) == 8
    assert isinstance(report, MultiStartReport)
