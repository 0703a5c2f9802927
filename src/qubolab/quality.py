"""Result-quality metrics: Hellinger fidelity, relative cost error, the
random-statevector baseline, and feasible/optimal solution rates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    QuboProblem,
    brute_force_solve,
    index_bits,
    parse_bits,
    qubo_cost,
    qubo_cost_vector,
    render_bits,
    require_finite,
)
from .simulator import SampleSet, StateVector

_NORM_ATOL = 1e-9


@dataclass
class Distribution:
    """Probability distribution over bitstrings of one width; must sum to one."""

    probs: dict

    def __post_init__(self):
        self.probs = {k: float(v) for k, v in self.probs.items()}
        parse_bits(self.probs)
        if any(v < 0.0 for v in self.probs.values()):
            raise ValueError("negative probability")
        total = sum(self.probs.values())
        require_finite("probability", total)  # NaN fails every comparison below
        if abs(total - 1.0) > _NORM_ATOL:
            raise ValueError(f"probabilities sum to {total}, not 1")

    @classmethod
    def from_sampleset(cls, samples: SampleSet) -> "Distribution":
        if samples.shots < 1:
            raise ValueError("empty sample set")
        return cls({s: c / samples.shots for s, c in samples.counts.items()})

    @classmethod
    def from_state(cls, state: StateVector) -> "Distribution":
        probs = state.probabilities()
        support = np.flatnonzero(probs > 0.0)
        keys = render_bits(index_bits(support, state.num_qubits))
        return cls(dict(zip(keys, probs[support].tolist())))

    @property
    def num_bits(self) -> int:
        """The width every key has (the constructor refuses mixed widths)."""
        return len(next(iter(self.probs)))


class RelativeError(NamedTuple):
    """Error value plus a flag marking the |C*| ~ 0 absolute-error fallback."""

    value: float
    is_absolute: bool


@dataclass
class QualityReport:
    fidelity: float
    relative_error: float
    random_baseline: float
    feasible_pct: float
    optimal_pct: float

    def __post_init__(self):
        if not 0.0 <= self.fidelity <= 1.0 + _NORM_ATOL:
            raise ValueError(f"fidelity {self.fidelity} outside [0, 1]")
        for name in ("feasible_pct", "optimal_pct"):
            v = getattr(self, name)
            if not 0.0 <= v <= 100.0:
                raise ValueError(f"{name} {v} outside [0, 100]")


def hellinger_fidelity(p: Distribution, q: Distribution) -> float:
    """(sum_b sqrt(p_b q_b))^2 — symmetric, 1 iff equal, 0 on disjoint support.

    Raises ValueError when the two distributions have different bit widths."""
    if p.num_bits != q.num_bits:
        raise ValueError(f"bit widths differ: {p.num_bits} vs {q.num_bits}")
    overlap = sum(
        np.sqrt(v * q.probs[s]) for s, v in p.probs.items() if s in q.probs
    )
    return float(overlap) ** 2


def state_fidelity(p: Distribution, state: StateVector) -> float:
    """``hellinger_fidelity(p, Distribution.from_state(state))``, bit for bit,
    reading the exact probabilities only on the support of ``p``."""
    n = state.num_qubits
    if p.num_bits != n:
        raise ValueError(f"bit widths differ: {p.num_bits} vs {n} qubits")
    index = parse_bits(p.probs) @ (1 << np.arange(n))
    terms = np.sqrt(np.fromiter(p.probs.values(), float) * state.probabilities()[index])
    # the same left-to-right sum over p's order as hellinger_fidelity
    return float(sum(terms)) ** 2


def _mean_cost(p: Distribution, qubo: QuboProblem) -> float:
    return sum(v * qubo_cost(qubo, s) for s, v in p.probs.items())


def _guarded_error(mean: float, c_opt: float, guard: float) -> RelativeError:
    if abs(c_opt) < guard:
        return RelativeError(abs(mean - c_opt), True)
    return RelativeError(abs(mean - c_opt) / abs(c_opt), False)


def relative_error(
    p: Distribution, qubo: QuboProblem, c_opt: float, guard: float = 1e-12
) -> RelativeError:
    """|<cost>_p - C*| / |C*|; falls back to the absolute difference (flagged)
    when C* sits inside the guard band around zero."""
    return _guarded_error(_mean_cost(p, qubo), c_opt, guard)


def random_baseline(
    n: int,
    qubo: QuboProblem,
    trials: int = 50,
    seed: int = 0,
    c_opt: float | None = None,
    guard: float = 1e-12,
) -> RelativeError:
    """Mean relative error of Haar-like random statevectors (normalized
    complex-Gaussian amplitudes); the paper's untrained-circuit reference."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if qubo.num_vars != n:
        raise ValueError("qubit count does not match QUBO size")
    if c_opt is None:
        c_opt = brute_force_solve(qubo).optimal_cost
    cost = qubo_cost_vector(qubo)
    rng = np.random.default_rng(seed)
    dim = 1 << n
    values = np.empty(trials)
    for t in range(trials):
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        probs = np.abs(amps) ** 2
        probs /= probs.sum()
        values[t] = probs @ cost
    errors = [_guarded_error(float(v), c_opt, guard) for v in values]
    return RelativeError(
        float(np.mean([e.value for e in errors])), errors[0].is_absolute
    )


def solution_rates(samples: SampleSet, decoder, c_opt: float) -> tuple:
    """Percentage of reads that decode feasible / hit the optimal cost.

    ``decoder`` maps a bitstring to (feasible, cost); a read is optimal iff
    feasible and its cost matches c_opt within 1e-9.
    """
    total = sum(samples.counts.values())
    if total == 0:
        raise ValueError("empty sample set")
    feasible = optimal = 0
    for s, count in samples.counts.items():
        ok, cost = decoder(s)
        if ok:
            feasible += count
            if abs(cost - c_opt) <= 1e-9:
                optimal += count
    return 100.0 * feasible / total, 100.0 * optimal / total
