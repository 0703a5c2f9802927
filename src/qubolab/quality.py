"""Result-quality metrics: Hellinger fidelity, relative cost error, the
random-statevector baseline, and feasible/optimal solution rates."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    QuboProblem,
    brute_force_solve,
    index_bits,
    parse_bits,
    render_bits,
    require_each,
    require_finite,
    require_real,
)
from .simulator import SampleSet, StateVector

_NORM_ATOL = 1e-9
# |C*| below this scores the absolute, not the relative, cost error
_GUARD = 1e-12


@dataclass
class Distribution:
    """Probability distribution over bitstrings of one width; must sum to one."""

    probs: dict

    def __post_init__(self):
        if not isinstance(self.probs, dict):
            raise ValueError(f"probs must be an object, got {self.probs!r}")
        require_each(require_real, "probability", self.probs.values())
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
        shots = samples.shots
        if shots < 1:
            raise ValueError("empty sample set")
        return cls({s: c / shots for s, c in samples.counts.items()})

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


def hellinger_fidelity(p: Distribution, q: Distribution) -> float:
    """(sum_b sqrt(p_b q_b))^2 — symmetric, 1 iff equal, 0 on disjoint support.

    Raises ValueError when the two distributions have different bit widths."""
    if p.num_bits != q.num_bits:
        raise ValueError(f"bit widths differ: {p.num_bits} vs {q.num_bits}")
    return _overlap(p, np.fromiter(map(q.probs.get, p.probs, itertools.repeat(0.0)), float))


def _overlap(p: Distribution, q_on_p: np.ndarray) -> float:
    """(sum_b sqrt(p_b q_b))^2, where ``q_on_p`` holds q's probability of each
    of ``p``'s keys in ``p``'s order; the sum runs left to right over that order."""
    terms = np.sqrt(np.fromiter(p.probs.values(), float) * q_on_p)
    return float(sum(terms)) ** 2


def _support_index(p: Distribution, num_qubits: int) -> np.ndarray:
    """``p``'s keys as 2^n-table indices, in ``p``'s order; refuses another width."""
    if p.num_bits != num_qubits:
        raise ValueError(f"bit widths differ: {p.num_bits} vs {num_qubits} qubits")
    return parse_bits(p.probs) @ (1 << np.arange(num_qubits))


def state_fidelity(p: Distribution, state: StateVector) -> float:
    """``hellinger_fidelity(p, Distribution.from_state(state))``, bit for bit,
    reading the exact probabilities only on the support of ``p``."""
    index = _support_index(p, state.num_qubits)
    return _overlap(p, state.probabilities()[index])


def _guarded_error(mean: float, c_opt: float) -> RelativeError:
    if abs(c_opt) < _GUARD:
        return RelativeError(abs(mean - c_opt), True)
    return RelativeError(abs(mean - c_opt) / abs(c_opt), False)


def relative_error(p: Distribution, qubo: QuboProblem, c_opt: float) -> RelativeError:
    """|<cost>_p - C*| / |C*|; falls back to the absolute difference (flagged)
    when C* sits inside the ``_GUARD`` band around zero. Each cost is read
    from ``qubo.cost_vector()``, the table brute force takes C* from, so a
    ``p`` on minimizers scores exactly 0."""
    index = _support_index(p, qubo.num_vars)
    terms = np.fromiter(p.probs.values(), float) * qubo.cost_vector()[index]
    # a left-to-right sum over p's order
    return _guarded_error(sum(terms.tolist()), c_opt)


def random_baseline(
    qubo: QuboProblem, trials: int = 50, seed: int = 0, c_opt: float | None = None
) -> RelativeError:
    """Mean relative error of Haar-like random statevectors on the QUBO's
    ``num_vars`` qubits (normalized complex-Gaussian amplitudes); the paper's
    untrained-circuit reference.

    Each trial draws the real parts, then the imaginary parts, from the one
    seeded stream (the draws ``rng.normal`` makes) into a real and a complex
    buffer allocated once per call, after ``cost_vector`` has refused a QUBO
    too wide for its table; probabilities |a|^2 are formed in place."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if c_opt is None:
        c_opt = brute_force_solve(qubo).optimal_cost
    cost = qubo.cost_vector()
    rng = np.random.default_rng(seed)
    values = np.empty(trials)
    probs = np.empty(cost.size)
    amps = np.empty(cost.size, dtype=complex)
    for t in range(trials):
        amps.real = rng.standard_normal(out=probs)
        amps.imag = rng.standard_normal(out=probs)
        np.square(np.abs(amps, out=probs), out=probs)
        probs /= probs.sum()
        values[t] = probs @ cost
    errors = [_guarded_error(float(v), c_opt) for v in values]
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
