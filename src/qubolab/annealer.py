"""Two annealing backends: a Metropolis simulated-annealing QUBO sampler
(classical stand-in for hardware reads) and a first-order Trotterized
Schroedinger evolution of H(t) = -a(t)/2 * sum X_i + b(t)/2 * H_C at tiny
scale. Trotter times are abstract units, never hardware microseconds.
"""

from __future__ import annotations

import numbers
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .model import IsingModel, QuboProblem, render_bits, require_finite
from .simulator import SampleSet, StateVector, phase_mixer_state
from .simulator import apply_gate  # noqa: F401  unused; perfbench/spans.py traces it here

TROTTER_QUBIT_CAP = 12
_BOUNDARY_ATOL = 1e-12


@dataclass
class AnnealSchedule:
    """Annealing functions a(t), b(t) on [0, T] with fixed boundary values."""

    total_time: float
    a: callable
    b: callable

    def __post_init__(self):
        require_finite("total_time", self.total_time)
        if self.total_time <= 0.0:
            raise ValueError("total_time must be positive")
        T = self.total_time
        ts = np.linspace(0.0, T, 33)
        a_vals = [self.a(t) for t in ts]
        b_vals = [self.b(t) for t in ts]
        require_finite("schedule value", a_vals, b_vals)
        for name, value, want in [
            ("a(0)", self.a(0.0), 1.0),
            ("b(0)", self.b(0.0), 0.0),
            ("a(T)", self.a(T), 0.0),
            ("b(T)", self.b(T), 1.0),
        ]:
            if abs(value - want) > _BOUNDARY_ATOL:
                raise ValueError(f"schedule boundary {name} = {value}, want {want}")
        if np.any(np.diff(a_vals) > _BOUNDARY_ATOL) or np.any(
            np.diff(b_vals) < -_BOUNDARY_ATOL
        ):
            raise ValueError("schedule functions must be monotone")

    @classmethod
    def linear(cls, total_time: float) -> "AnnealSchedule":
        T = float(total_time)
        return cls(T, lambda t: 1.0 - t / T, lambda t: t / T)


@dataclass
class SaConfig:
    num_reads: int
    sweeps: int = 1000
    t_hot: float | None = None
    t_cold: float | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("num_reads", "sweeps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        for name, value in (("t_hot", self.t_hot), ("t_cold", self.t_cold)):
            if value is not None:
                require_finite(name, value)
        if self.t_hot is not None and self.t_cold is not None:
            if not self.t_hot > self.t_cold > 0.0:
                raise ValueError("need t_hot > t_cold > 0")

    def temperatures(self, qubo: QuboProblem) -> np.ndarray:
        """Geometric ladder; defaults scale with the largest QUBO entry so
        initial single-bit flips are usually accepted."""
        hot = self.t_hot
        if hot is None:
            hot = float(np.max(np.abs(qubo.Q))) or 1.0
        cold = 0.01 * hot if self.t_cold is None else self.t_cold
        if not hot > cold > 0.0:
            raise ValueError("need t_hot > t_cold > 0")
        if self.sweeps == 1:
            return np.array([hot])
        return hot * (cold / hot) ** (np.arange(self.sweeps) / (self.sweeps - 1))


def sa_sample(qubo: QuboProblem, cfg: SaConfig) -> SampleSet:
    """Metropolis chains over bitstrings, all reads advanced in lockstep.

    Single-bit flip energies come from incrementally maintained local fields.
    The fields and the +-1 flip values are held as (n, reads) arrays, so bit
    k's row is contiguous, and each sweep draws its uniforms as one
    (n, reads) block: the same stream, in the same order, as n draws of
    ``reads``. A sweep starts with scale = flip * -T; bit k's visit takes
    weight = (field_k + diag_k) / scale_k, which equals -flip * d / T
    exactly because flip is +-1 and division is sign-symmetric, and accepts
    where u < exp(weight). A positive weight gives exp >= 1 > u, the same
    decision as clipping it at 0, and an overflow to inf still accepts. When
    a read accepts, the fields of all reads take the outer product of bit
    k's couplings and delta = flip * accept, one (n, 1) x (1, reads) BLAS
    product, so a sweep costs O(reads * n^2), the same as the initial setup.
    Flip k changes only at bit k's own visit, so the sweep negates every
    accepted flip at its end, by subtracting flip * accept twice (exact for
    +-1). The read-major loop kept in the test suite is the oracle: its
    counts equal these in keys and order.
    """
    n = qubo.num_vars
    rng = np.random.default_rng(cfg.seed)
    temps = cfg.temperatures(qubo)
    reads = cfg.num_reads
    sym = qubo.Q + qubo.Q.T
    np.fill_diagonal(sym, 0.0)
    diag = np.diag(qubo.Q).copy()
    states = rng.integers(0, 2, size=(reads, n)).astype(float)
    field = np.ascontiguousarray((states @ sym).T)  # field[k, r] = sum_j sym[k, j] * b[r, j]
    flips = np.ascontiguousarray((1.0 - 2.0 * states).T)  # +1 flips bit 0 -> 1
    uniforms, scale, deltas, update = (np.empty((n, reads)) for _ in range(4))
    accepts = np.empty((n, reads), dtype=bool)
    weight = np.empty(reads)
    rows = list(
        zip(field, diag, scale, uniforms, accepts, flips, deltas[:, None], sym[:, :, None])
    )
    with np.errstate(over="ignore"):
        for temp in temps:
            rng.random(out=uniforms)
            np.multiply(flips, -temp, out=scale)
            for field_k, diag_k, scale_k, u, accept, flip, delta, sym_k in rows:
                np.add(field_k, diag_k, out=weight)
                np.divide(weight, scale_k, out=weight)
                np.exp(weight, out=weight)
                np.less(u, weight, out=accept)
                if not np.count_nonzero(accept):
                    continue
                # each entry is one product by +-1 or +-0, exact; BLAS may
                # return +0 for -0, which moves no value of the field
                np.multiply(flip, accept, out=delta)
                np.dot(sym_k, delta, out=update)
                field += update
            np.multiply(flips, accepts, out=deltas)
            flips -= deltas  # twice: -flip where accepted; reads that do
            flips -= deltas  # not accept subtract +-0
    # Counter keeps the order in which reads first reach each bitstring
    return SampleSet(Counter(render_bits(flips.T < 0.0)), reads)


def qa_trotter(ising: IsingModel, schedule: AnnealSchedule, dt: float) -> StateVector:
    """First-order Trotter evolution from |+...+>, midpoint-sampled schedule:
    per step, RX(-a(t_k) dt) on every qubit, then the diagonal phase
    exp(-i b(t_k) dt/2 * cost(b)), on ``phase_mixer_state`` (mixer first);
    the same steps gate by gate through ``apply_gate`` are its oracle."""
    n = ising.num_qubits
    if n > TROTTER_QUBIT_CAP:
        raise ValueError(f"dense Trotter evolution capped at {TROTTER_QUBIT_CAP} qubits")
    require_finite("dt", dt)
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    steps = int(round(schedule.total_time / dt))
    if steps == 0:
        return StateVector.plus_state(n)
    dt_eff = schedule.total_time / steps
    times = [(k + 0.5) * dt_eff for k in range(steps)]
    pairs = [(0.5 * schedule.b(t) * dt_eff, -schedule.a(t) * dt_eff) for t in times]
    return phase_mixer_state(ising.cost_vector(), pairs, mixer_first=True)


@dataclass
class SweepRow:
    """One row of a solution-rate sweep (``qubolab sweep``) CSV."""

    axis_value: float
    feasible_pct: float
    optimal_pct: float
    reads: int
