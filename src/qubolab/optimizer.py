"""Derivative-free parameter optimization with multi-start protocol.

Wraps COBYLA (linear-approximation trust region, ``qubolab.cobyla``) behind a
recording harness: every objective call lands in the trace, and the solver's
returned optimum is appended as the terminal iterate so ``final_cost`` is the
run's answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import require_integer

_TOL = 1e-6  # COBYLA's final trust-region radius


@dataclass(eq=False)
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


@dataclass(eq=False)
class MultiStartReport:
    traces: list
    best_params: np.ndarray
    best_cost: float


def minimize(objective, x0, max_iter: int = 1000) -> OptTrace:
    """Local descent from ``x0``; stops on a ``_TOL``-sized trust region or after
    ``max_iter`` objective evaluations. Non-finite objective values abort, and
    a ``max_iter`` below COBYLA's minimum of ``len(x0) + 2`` is refused."""
    # only training needs the solver, so the other commands never import it
    from .cobyla import FUNCMAX, cobyla

    x0 = np.asarray(x0, dtype=float).reshape(-1)
    require_integer("max_iter", max_iter, least=len(x0) + 2)
    iterates = []

    def recorded(x):  # x is cobyla's copy of its point; the trace keeps its own
        point = x.copy()
        value = float(objective(x))
        if not math.isfinite(value):
            raise ValueError(f"objective returned non-finite value {value} at {point}")
        iterates.append((point, value))
        return value

    best_x, best_f, nfev = cobyla(recorded, x0, rhoend=_TOL, maxfun=max_iter)
    final_f = float(best_f)
    if final_f >= FUNCMAX:  # cobyla's clip: take the value recorded nearest its point
        final_f = min(iterates, key=lambda it: np.add.reduce((it[0] - best_x) ** 2))[1]
    last_x, last_f = iterates[-1]
    if not ((best_x == last_x).all() and final_f == last_f):
        iterates.append((best_x.copy(), final_f))
    termination = "max_iter" if nfev >= max_iter else "tolerance"
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
