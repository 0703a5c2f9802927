"""Derivative-free parameter optimization with multi-start protocol.

Wraps COBYLA (linear-approximation trust region) behind a recording harness:
every objective call lands in the trace, and the solver's returned optimum is
appended as the terminal iterate so ``final_cost`` is the run's answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import require_integer

_TOL = 1e-6  # COBYLA's final trust-region radius


@dataclass
class OptTrace:
    iterates: list  # [(params, cost), ...] in evaluation order
    final_cost: float
    termination: str  # "max_iter" | "tolerance"

    def __post_init__(self):
        if self.termination not in ("max_iter", "tolerance"):
            raise ValueError(f"unknown termination {self.termination!r}")
        if not self.iterates:
            raise ValueError("empty trace")
        if self.final_cost != self.iterates[-1][1]:
            raise ValueError("final_cost must equal the last iterate's cost")


@dataclass
class MultiStartReport:
    traces: list
    best_params: np.ndarray
    best_cost: float


def minimize(objective, x0, max_iter: int = 1000) -> OptTrace:
    """Local descent from ``x0``; stops on a ``_TOL``-sized trust region or after
    ``max_iter`` objective evaluations. Non-finite objective values abort, and
    a ``max_iter`` below COBYLA's minimum of ``len(x0) + 2`` is refused (scipy
    would raise it with only a warning)."""
    # scipy.optimize costs about half a second to import; only training needs it
    from scipy.optimize import minimize as scipy_minimize

    x0 = np.asarray(x0, dtype=float).reshape(-1)
    require_integer("max_iter", max_iter, least=len(x0) + 2)
    iterates = []

    def recorded(x):
        value = float(objective(np.asarray(x, dtype=float)))
        if not np.isfinite(value):
            raise ValueError(
                f"objective returned non-finite value {value} at {np.asarray(x)}"
            )
        iterates.append((np.array(x, dtype=float), value))
        return value

    result = scipy_minimize(
        recorded, x0, method="COBYLA", tol=_TOL, options={"maxiter": max_iter}
    )
    last_x, last_f = iterates[-1]
    final_f = float(result.fun)
    if not (np.array_equal(result.x, last_x) and final_f == last_f):
        iterates.append((np.array(result.x, dtype=float), final_f))
    termination = "max_iter" if result.nfev >= max_iter else "tolerance"
    return OptTrace(iterates, iterates[-1][1], termination)


def uniform_sampler(dim: int, low: float, high: float):
    """Start-point factory drawing each coordinate uniformly from [low, high)."""

    def sampler(rng) -> np.ndarray:
        return rng.uniform(low, high, size=dim)

    return sampler


def multistart(
    objective,
    sampler,
    num_starts: int = 50,
    seed: int = 0,
    max_iter: int = 1000,
) -> MultiStartReport:
    """Independent descents from seeded random starts; keeps every trace and
    the argmin. Start k draws from its own stream derived from (seed, k)."""
    require_integer("num_starts", num_starts, least=1)
    traces = []
    for k in range(num_starts):
        rng = np.random.default_rng([seed, k])
        traces.append(minimize(objective, sampler(rng), max_iter=max_iter))
    best = min(range(num_starts), key=lambda k: traces[k].final_cost)
    return MultiStartReport(
        traces=traces,
        best_params=traces[best].iterates[-1][0].copy(),
        best_cost=traces[best].final_cost,
    )
