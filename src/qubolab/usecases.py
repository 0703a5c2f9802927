"""Charging-schedule and truck-routing problem builders plus decoders.

The charging use case schedules cars on a single station with four charging
levels per slot, minimizing the sum of squared slot loads subject to
per-car energy demands inside availability windows. The routing use case is
the cyclic tour assignment b_{city,time} with one-hot row/column penalties.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .model import (
    BinaryEncoding,
    QcioProblem,
    QuboProblem,
    as_bits,
    require_finite,
    to_ising,
    upper_triangularize,
)

NUM_LEVELS = 4  # charging levels 0..3, two bits per variable


@dataclass
class LamaSpec:
    """One charging station, ``num_cars`` cars, ``num_timeslots`` slots.

    availability[c] lists the slots car c may charge in; required_energy[c]
    is its demand in level units summed over those slots.
    """

    num_timeslots: int
    num_cars: int
    availability: list[list[int]]
    required_energy: list[int]
    num_levels: int = NUM_LEVELS

    def __post_init__(self) -> None:
        T, C = self.num_timeslots, self.num_cars
        if T < 1 or C < 1:
            raise ValueError("need at least one slot and one car")
        if len(self.availability) != C or len(self.required_energy) != C:
            raise ValueError("availability and required_energy must have one entry per car")
        self.availability = [sorted(int(t) for t in w) for w in self.availability]
        self.required_energy = [int(e) for e in self.required_energy]
        max_level = self.num_levels - 1
        for c, window in enumerate(self.availability):
            if not window:
                raise ValueError(f"car {c} has no available slots")
            if window[0] < 0 or window[-1] >= T:
                raise ValueError(f"car {c} availability outside 0..{T - 1}")
            if len(set(window)) != len(window):
                raise ValueError(f"car {c} lists a slot twice")
            if not 0 <= self.required_energy[c] <= max_level * len(window):
                raise ValueError(
                    f"car {c} demands {self.required_energy[c]} energy units, "
                    f"window holds at most {max_level * len(window)}"
                )

    @property
    def num_qubits(self) -> int:
        return 2 * self.num_cars * self.num_timeslots


@dataclass
class Schedule:
    """Charging levels per (car, slot)."""

    levels: np.ndarray

    def __post_init__(self) -> None:
        self.levels = np.asarray(self.levels, dtype=np.int64)

    def slot_loads(self) -> np.ndarray:
        return self.levels.sum(axis=0)


def build_lama(spec: LamaSpec) -> tuple[QcioProblem, BinaryEncoding]:
    """Integer model of the charging problem plus its two-bit level encoding.

    Variable x_{c,t} (index c*T + t) is the level car c charges at in slot t.
    The objective sum_t (sum_c x_{c,t})^2 flattens the load profile; the
    constraint rows pin each car's energy inside its window and zero it
    outside. Uses 2*C*T qubits.
    """
    T, C = spec.num_timeslots, spec.num_cars
    n = C * T
    M = np.zeros((n, n))
    for t in range(T):
        idx = [c * T + t for c in range(C)]
        M[np.ix_(idx, idx)] = 1.0
    A = np.zeros((n, n))
    r = np.zeros(n)
    row = 0
    for c, window in enumerate(spec.availability):
        for t in window:
            A[row, c * T + t] = 1.0
        r[row] = spec.required_energy[c]
        row += 1
    for c, window in enumerate(spec.availability):
        for t in range(T):
            if t not in window:
                A[row, c * T + t] = 1.0
                r[row] = 0.0
                row += 1
    if row > n:
        raise ValueError("constraint rows exceed variable count")  # unreachable for valid specs
    qcio = QcioProblem(
        dim_n=n,
        M=M,
        l=np.zeros(n),
        c=0.0,
        A=A,
        r=r,
        lower=np.zeros(n, dtype=int),
        upper=np.full(n, spec.num_levels - 1),
    )
    return qcio, BinaryEncoding.levels(n)


def decode_lama(bits: np.ndarray | str, spec: LamaSpec) -> tuple[Schedule, bool]:
    """Schedule encoded by ``bits`` and whether it satisfies every constraint."""
    bits = np.asarray(as_bits(bits), dtype=np.int64).ravel()
    T, C = spec.num_timeslots, spec.num_cars
    if bits.size != 2 * C * T:
        raise ValueError(f"expected {2 * C * T} bits, got {bits.size}")
    levels = (bits[0::2] + 2 * bits[1::2]).reshape(C, T)
    feasible = True
    for c, window in enumerate(spec.availability):
        inside = levels[c, window].sum()
        outside = levels[c].sum() - inside
        if inside != spec.required_energy[c] or outside != 0:
            feasible = False
    return Schedule(levels=levels), feasible


def lama_objective(schedule: Schedule) -> int:
    """Sum of squared slot loads, the unpenalized cost of a schedule."""
    loads = schedule.slot_loads()
    return int((loads * loads).sum())


def example_series() -> dict[str, LamaSpec]:
    """The bundled charging instances.

    Within each series the availability windows widen (one car) or their
    pairwise overlap grows (several cars), which densifies the QUBO. The
    brute-force optimal-schedule counts of the first nine are
    1, 3 / 1, 3, 1 / 3, 3, 6, 19, matching the original study of the model.
    """
    ex = {
        "Ex0p1": LamaSpec(3, 1, [[0, 1]], [2]),
        "Ex0p2": LamaSpec(3, 1, [[0, 1, 2]], [4]),
        "Ex1p1": LamaSpec(4, 1, [[0, 1]], [2]),
        "Ex1p2": LamaSpec(4, 1, [[0, 1, 2]], [4]),
        "Ex1p3": LamaSpec(4, 1, [[0, 1, 2, 3]], [4]),
        "Ex2p1": LamaSpec(4, 2, [[0, 1], [1, 2]], [4, 4]),
        "Ex2p2": LamaSpec(4, 2, [[0, 1, 2], [1, 2, 3]], [4, 4]),
        "Ex2p3": LamaSpec(4, 2, [[0, 1, 2, 3], [1, 2, 3]], [4, 4]),
        "Ex2p4": LamaSpec(4, 2, [[0, 1, 2, 3], [0, 1, 2, 3]], [4, 4]),
        "Ex3p1": LamaSpec(8, 2, [[0, 1, 2, 3], [3, 4, 5, 6, 7]], [4, 4]),
        "Ex3p2": LamaSpec(8, 2, [list(range(8)), list(range(8))], [8, 8]),
        "Ex4p1": LamaSpec(8, 3, [[0, 1, 2], [2, 3, 4], [4, 5, 6, 7]], [4, 4, 4]),
        "Ex4p2": LamaSpec(8, 3, [list(range(8))] * 3, [8, 8, 8]),
    }
    return ex


# ---------------------------------------------------------------------------
# truck routing


@dataclass
class TrpSpec:
    """Cyclic tour over ``num_cities`` with pairwise distances and penalty rho."""

    num_cities: int
    distances: np.ndarray
    layout: str = "symmetric"
    rho: float = 1.0

    def __post_init__(self) -> None:
        m = self.num_cities
        self.distances = np.asarray(self.distances, dtype=np.float64)
        if self.distances.shape != (m, m):
            raise ValueError(f"distance matrix must be {m}x{m}")
        if self.layout not in ("symmetric", "asymmetric"):
            raise ValueError("layout must be 'symmetric' or 'asymmetric'")
        if np.any(np.diag(self.distances) != 0.0):
            raise ValueError("distance matrix must have zero diagonal")
        if not np.allclose(self.distances, self.distances.T):
            raise ValueError("distance matrix must be symmetric")
        if isinstance(self.rho, bool) or not isinstance(self.rho, numbers.Real):
            raise ValueError(f"penalty weight must be a real number, got {self.rho!r}")
        require_finite("penalty weight", self.rho)
        if self.rho < 0:
            raise ValueError("penalty weight must be nonnegative")

    @property
    def num_vars(self) -> int:
        return self.num_cities**2


@dataclass
class Route:
    """order[t] is the city visited at time t; the tour closes cyclically."""

    order: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not isinstance(self.order, (list, tuple)) or not all(
            isinstance(c, numbers.Integral) and not isinstance(c, bool) for c in self.order
        ):
            raise ValueError(f"route order must be a list of city indices, got {self.order!r}")
        self.order = [int(c) for c in self.order]
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError(f"route order {self.order} visits cities 0..m-1 not once each")


def gen_cities(m: int, layout: str = "symmetric", seed: int = 0, rho: float = 1.0) -> TrpSpec:
    """City layout generator.

    symmetric: m points equidistant on the unit circle (adjacent chord length
    2 sin(pi/m)); asymmetric: seeded uniform points in the unit square. Both
    use Euclidean distances.
    """
    if m < 3:
        raise ValueError("need at least three cities")
    if layout == "symmetric":
        angles = 2.0 * np.pi * np.arange(m) / m
        points = np.column_stack([np.cos(angles), np.sin(angles)])
    elif layout == "asymmetric":
        points = np.random.default_rng(seed).uniform(0.0, 1.0, size=(m, 2))
    else:
        raise ValueError("layout must be 'symmetric' or 'asymmetric'")
    delta = points[:, None, :] - points[None, :, :]
    distances = np.sqrt((delta**2).sum(axis=2))
    return TrpSpec(num_cities=m, distances=distances, layout=layout, rho=rho)


def build_trp(spec: TrpSpec) -> QuboProblem:
    """Tour QUBO over m^2 assignment bits b_{i,t} (index i*m + t).

    The distance block charges d_ij for city j following city i (time wraps);
    distances are rescaled so the largest coefficient is 1, which keeps rho
    sweeps comparable across instances. The penalty block is
    rho * [sum_i (1 - sum_t b_{i,t})^2 + sum_t (1 - sum_i b_{i,t})^2].
    """
    m = spec.num_cities
    if m < 3:
        raise ValueError("need at least three cities")
    d_max = spec.distances.max()
    if d_max <= 0.0:
        raise ValueError("distances are all zero")
    d = spec.distances / d_max
    N = m * m
    W = np.zeros((N, N))
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            for t in range(m):
                W[i * m + t, j * m + (t + 1) % m] += d[i, j]
    constant = 0.0
    rho = spec.rho
    for i in range(m):  # each city appears exactly once
        v = np.zeros(N)
        v[i * m : (i + 1) * m] = 1.0
        W += rho * np.outer(v, v)
        W[np.diag_indices(N)] -= 2.0 * rho * v
        constant += rho
    for t in range(m):  # each time step hosts exactly one city
        v = np.zeros(N)
        v[t::m] = 1.0
        W += rho * np.outer(v, v)
        W[np.diag_indices(N)] -= 2.0 * rho * v
        constant += rho
    return QuboProblem(Q=upper_triangularize(W), constant=constant)


def decode_trp(bits: np.ndarray | str, spec: TrpSpec) -> tuple[Route | None, bool, float]:
    """Route encoded by ``bits``, feasibility, and raw cyclic tour length.

    Infeasible bitstrings (not a permutation matrix) decode to
    (None, False, inf).
    """
    bits = np.asarray(as_bits(bits), dtype=np.int64).ravel()
    m = spec.num_cities
    if bits.size != m * m:
        raise ValueError(f"expected {m * m} bits, got {bits.size}")
    mat = bits.reshape(m, m)  # rows: cities, columns: time steps
    if not (np.all(mat.sum(axis=0) == 1) and np.all(mat.sum(axis=1) == 1)):
        return None, False, math.inf
    order = [int(np.argmax(mat[:, t])) for t in range(m)]
    length = sum(
        spec.distances[order[t], order[(t + 1) % m]] for t in range(m)
    )
    return Route(order=order), True, float(length)


def route_to_bits(order: list[int], m: int) -> np.ndarray:
    """Assignment bits of a tour, inverse of decode_trp for feasible inputs."""
    bits = np.zeros(m * m, dtype=np.int64)
    for t, i in enumerate(order):
        bits[i * m + t] = 1
    return bits


# ---------------------------------------------------------------------------
# spin form


@dataclass
class SpinModel:
    """H(x) = sum h_i x_i + sum J_ij x_i x_j + c over spins x in {-1, +1}."""

    J: dict[tuple[int, int], float]
    h: np.ndarray
    c: float
    num_spins: int = 0

    def __post_init__(self) -> None:
        self.h = np.asarray(self.h, dtype=np.float64).ravel()
        self.c = float(self.c)
        if self.num_spins == 0:
            self.num_spins = self.h.size
        self.J = {(int(i), int(j)): float(w) for (i, j), w in self.J.items()}

    def evaluate(self, spins: np.ndarray) -> float:
        x = np.asarray(spins, dtype=np.float64)
        value = self.c + float(self.h @ x)
        for (i, j), w in self.J.items():
            value += w * x[i] * x[j]
        return value


def ising_spin_form(qubo: QuboProblem) -> SpinModel:
    """Spin-variable form of the QUBO under b = (1 + x)/2.

    ``to_ising`` substitutes b = (1 - z)/2, so x = -z: the couplings and the
    constant carry over and the linear terms change sign.
    """
    ising = to_ising(qubo)
    return SpinModel(
        J=ising.h_quad, h=-ising.h_lin, c=ising.h_const, num_spins=ising.num_qubits
    )
