"""Two annealing backends: a Metropolis simulated-annealing QUBO sampler
(classical stand-in for hardware reads) and a first-order Trotterized
Schroedinger evolution of H(t) = -a(t)/2 * sum X_i + b(t)/2 * H_C at tiny
scale. Trotter times are abstract units, never hardware microseconds.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .model import BRUTE_FORCE_CAP, IsingModel, QuboProblem, render_bits
from .model import require_finite, require_integer
from .simulator import SampleSet, StateVector, phase_mixer_kernel
from .simulator import apply_gate  # noqa: F401  unused; perfbench/spans.py traces it here

TROTTER_QUBIT_CAP = 12
# 200x the default 5 000 steps: 12 qubits take ~0.3 ms a step, about five minutes
# at the cap, where the schedule arrays take ~30 MB; a tiny dt is refused, not run
TROTTER_STEP_CAP = 1_000_000
SA_ENTRY_CAP = 1 << BRUTE_FORCE_CAP  # sweeps and reads * bits: SA's arrays stay dense-sized


@dataclass
class AnnealSchedule:
    """The linear anneal on [0, T]: a(t) = 1 - t/T falls from 1 to 0 while
    b(t) = t/T rises from 0 to 1."""

    total_time: float

    def __post_init__(self):
        require_finite("total_time", self.total_time)
        if self.total_time <= 0.0:
            raise ValueError("total_time must be positive")
        self.total_time = float(self.total_time)

    def a(self, t: float) -> float:
        return 1.0 - t / self.total_time

    def b(self, t: float) -> float:
        return t / self.total_time


@dataclass
class SaConfig:
    num_reads: int
    sweeps: int = 1000
    t_hot: float | None = None
    t_cold: float | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("num_reads", "sweeps"):
            require_integer(name, getattr(self, name), least=1)
        if self.sweeps > SA_ENTRY_CAP:
            raise ValueError(f"sweeps = {self.sweeps} exceeds the cap of {SA_ENTRY_CAP}")
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
        # one sweep runs at hot: (cold / hot) ** 0 is 1
        return hot * (cold / hot) ** (np.arange(self.sweeps) / max(self.sweeps - 1, 1))


def sa_sample(qubo: QuboProblem, cfg: SaConfig) -> SampleSet:
    """Metropolis chains over bitstrings, all reads advanced in lockstep.

    Single-bit flip energies come from incrementally maintained local fields,
    held with the +-1 flip values as (n, reads) arrays so bit k's row is
    contiguous; each sweep draws its uniforms as one (n, reads) block, the
    same stream in the same order as n draws of ``reads``. A sweep starts
    with scale = flip * -T; bit k's visit takes weight = (field_k + diag_k) /
    scale_k, which equals -flip * d / T exactly because flip is +-1 and
    division is sign-symmetric, and accepts where u < exp(weight). A positive
    weight gives exp >= 1 > u, the same decision as clipping it at 0, and an
    overflow to inf still accepts. When a read accepts, the fields of all
    reads take the outer product of bit k's couplings and delta = flip *
    accept, one (n, 1) x (1, reads) BLAS product, so a sweep costs
    O(reads * n^2), the same as the initial setup; the visit then negates the
    accepted flips (flip -= delta twice, exact for +-1): flip k is read only
    at its own visit and by the next sweep's scale. The test suite's
    read-major loop is the oracle: its counts equal these in keys and order.
    """
    n, reads = qubo.num_vars, cfg.num_reads
    if reads * n > SA_ENTRY_CAP:
        raise ValueError(f"num_reads * bits = {reads} * {n} exceeds the cap of {SA_ENTRY_CAP}")
    rng = np.random.default_rng(cfg.seed)
    temps = cfg.temperatures(qubo)
    sym = qubo.Q + qubo.Q.T
    np.fill_diagonal(sym, 0.0)
    diag = np.diag(qubo.Q).copy()
    states = rng.integers(0, 2, size=(reads, n)).astype(float)
    field = np.ascontiguousarray((states @ sym).T)  # field[k, r] = sum_j sym[k, j] * b[r, j]
    flips = np.ascontiguousarray((1.0 - 2.0 * states).T)  # +1 flips bit 0 -> 1
    uniforms, scale, update = (np.empty((n, reads)) for _ in range(3))
    accept, weight, delta = np.empty(reads, dtype=bool), np.empty(reads), np.empty((1, reads))
    rows = list(zip(field, diag, scale, uniforms, flips[:, None], sym[:, :, None]))
    with np.errstate(over="ignore"):
        for temp in temps:
            rng.random(out=uniforms)
            np.multiply(flips, -temp, out=scale)
            for field_k, diag_k, scale_k, u, flip, sym_k in rows:
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
                flip -= delta  # twice: -flip where accepted; reads that do
                flip -= delta  # not accept subtract +-0
    # Counter keeps the order in which reads first reach each bitstring
    return SampleSet(Counter(render_bits(flips.T < 0.0)))


def qa_trotter(ising: IsingModel, schedule: AnnealSchedule, dt: float) -> StateVector:
    """First-order Trotter evolution from |+...+>, midpoint-sampled schedule:
    per step, RX(-a(t_k) dt) on every qubit, then the diagonal phase
    exp(-i b(t_k) dt/2 * cost(b)), on ``phase_mixer_kernel`` (mixer first);
    the same steps gate by gate through ``apply_gate`` are its oracle."""
    n = ising.num_qubits
    if n > TROTTER_QUBIT_CAP:
        raise ValueError(f"dense Trotter evolution capped at {TROTTER_QUBIT_CAP} qubits")
    require_finite("dt", dt)
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    ratio = schedule.total_time / dt
    # past cap + 1/2 it rounds above the cap; inf is refused before round() overflows
    if ratio > TROTTER_STEP_CAP + 0.5:
        raise ValueError(f"total_time / dt = {ratio!r} exceeds {TROTTER_STEP_CAP} Trotter steps")
    steps = int(round(ratio))
    if steps == 0:
        return StateVector.plus_state(n)
    dt_eff = schedule.total_time / steps
    t = (np.arange(steps) + 0.5) * dt_eff
    evolve = phase_mixer_kernel(ising.distinct_costs(), mixer_first=True)
    return StateVector(evolve(0.5 * schedule.b(t) * dt_eff, -schedule.a(t) * dt_eff), n)


@dataclass
class SweepRow:
    """One row of a solution-rate sweep (``qubolab sweep``) CSV."""

    axis_value: float
    feasible_pct: float
    optimal_pct: float
    reads: int
