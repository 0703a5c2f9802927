"""Charging-schedule and truck-routing problem builders plus decoders.

The charging use case schedules cars on a single station with four charging
levels per slot, minimizing the sum of squared slot loads subject to
per-car energy demands inside availability windows. The routing use case is
the cyclic tour assignment b_{city,time} with one-hot row/column penalties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    BinaryEncoding,
    QcioProblem,
    as_bits,
    number_array,
    require_each,
    require_finite,
    require_integer,
)

NUM_LEVELS = 4  # charging levels 0..3, two bits per variable


@dataclass
class LamaSpec:
    """One charging station, one car per availability window, ``num_timeslots`` slots.

    availability[c] lists the slots car c may charge in; required_energy[c]
    is its demand in level units summed over those slots. Every car charges
    at one of the ``NUM_LEVELS`` levels per slot. ``num_cars`` is
    ``len(availability)``, set once here: decoders read it per bitstring.
    """

    num_timeslots: int
    availability: list[list[int]]
    required_energy: list[int]
    num_cars: int = field(init=False)

    def __post_init__(self) -> None:
        require_integer("num_timeslots", self.num_timeslots, least=1)
        T = self.num_timeslots
        windows, energy = self.availability, self.required_energy
        seq = (list, tuple)
        if not isinstance(windows, seq) or not all(isinstance(v, seq) for v in [energy, *windows]):
            raise ValueError("availability must be a list of slot lists, required_energy a list")
        require_each(require_integer, "required_energy", energy)
        for window in windows:
            require_each(require_integer, "availability", window)
        self.availability = [sorted(int(t) for t in w) for w in windows]
        self.required_energy = [int(e) for e in energy]
        self.num_cars = len(self.availability)
        if not self.num_cars:
            raise ValueError("need at least one car")
        if len(self.required_energy) != self.num_cars:
            raise ValueError("availability and required_energy must have one entry per car")
        max_level = NUM_LEVELS - 1
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


def build_lama(spec: LamaSpec) -> tuple[QcioProblem, BinaryEncoding]:
    """Integer model of the charging problem plus its two-bit level encoding.

    Variable x_{c,t} (index c*T + t) is the level car c charges at in slot t,
    0..3 through its two bits.
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
    return QcioProblem(M=M, l=np.zeros(n), c=0.0, A=A, r=r), BinaryEncoding.levels(n)


def decode_lama(bits: np.ndarray | str, spec: LamaSpec) -> tuple[np.ndarray, bool]:
    """(car, slot) charging levels encoded by ``bits``, and whether they meet every constraint."""
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
    return levels, feasible


def lama_objective(levels: np.ndarray) -> int:
    """Sum of squared slot loads of (car, slot) ``levels``, the unpenalized cost."""
    loads = levels.sum(axis=0)
    return int((loads * loads).sum())


def example_series() -> dict[str, LamaSpec]:
    """The bundled charging instances.

    Within each series the availability windows widen (one car) or their
    pairwise overlap grows (several cars), which densifies the QUBO. The
    brute-force optimal-schedule counts of the first nine are
    1, 3 / 1, 3, 1 / 3, 3, 6, 19, matching the original study of the model.
    """
    ex = {
        "Ex0p1": LamaSpec(3, [[0, 1]], [2]),
        "Ex0p2": LamaSpec(3, [[0, 1, 2]], [4]),
        "Ex1p1": LamaSpec(4, [[0, 1]], [2]),
        "Ex1p2": LamaSpec(4, [[0, 1, 2]], [4]),
        "Ex1p3": LamaSpec(4, [[0, 1, 2, 3]], [4]),
        "Ex2p1": LamaSpec(4, [[0, 1], [1, 2]], [4, 4]),
        "Ex2p2": LamaSpec(4, [[0, 1, 2], [1, 2, 3]], [4, 4]),
        "Ex2p3": LamaSpec(4, [[0, 1, 2, 3], [1, 2, 3]], [4, 4]),
        "Ex2p4": LamaSpec(4, [[0, 1, 2, 3], [0, 1, 2, 3]], [4, 4]),
        "Ex3p1": LamaSpec(8, [[0, 1, 2, 3], [3, 4, 5, 6, 7]], [4, 4]),
        "Ex3p2": LamaSpec(8, [list(range(8)), list(range(8))], [8, 8]),
        "Ex4p1": LamaSpec(8, [[0, 1, 2], [2, 3, 4], [4, 5, 6, 7]], [4, 4, 4]),
        "Ex4p2": LamaSpec(8, [list(range(8))] * 3, [8, 8, 8]),
    }
    return ex


# ---------------------------------------------------------------------------
# truck routing


@dataclass(eq=False)
class TrpSpec:
    """Cyclic tour over the cities of a symmetric, zero-diagonal distance
    matrix. ``num_cities`` is its side, set once here: decoders read it
    per bitstring. The penalty weight is the bundle's, not the spec's."""

    distances: np.ndarray
    num_cities: int = field(init=False)

    def __post_init__(self) -> None:
        self.distances = number_array("distances", self.distances)
        require_finite("distances", self.distances)
        m = self.num_cities = len(self.distances) if self.distances.ndim else 0
        if m < 3:
            raise ValueError("need at least three cities")
        if self.distances.shape != (m, m):
            raise ValueError(f"distance matrix must be {m}x{m}")
        if np.any(np.diag(self.distances) != 0.0):
            raise ValueError("distance matrix must have zero diagonal")
        if not np.allclose(self.distances, self.distances.T):
            raise ValueError("distance matrix must be symmetric")

    @property
    def num_qubits(self) -> int:
        return self.num_cities**2

    def tour_length(self, order) -> float:
        """Raw cyclic length of visiting the cities in ``order``."""
        m = self.num_cities
        return float(sum(self.distances[order[t], order[(t + 1) % m]] for t in range(m)))


def gen_cities(m: int, layout: str = "symmetric", seed: int = 0) -> TrpSpec:
    """City layout generator.

    symmetric: m points equidistant on the unit circle (adjacent chord length
    2 sin(pi/m)); asymmetric: seeded uniform points in the unit square. Both
    use Euclidean distances, which are all the spec keeps: the layout and
    seed only make them, and the penalty weight goes to ``build_quio``.
    """
    require_integer("num_cities", m)
    if m < 3:  # TrpSpec's own check, made before any points are drawn
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
    return TrpSpec(distances)


def trp_model(spec: TrpSpec) -> tuple[QcioProblem, BinaryEncoding]:
    """Integer model of the tour problem plus its one-bit encoding (values 0..1).

    Variable b_{i,t} (index i*m + t) is 1 when city i is visited at time t.
    The objective charges d_ij for city j following city i (time wraps);
    distances are rescaled so the largest coefficient is 1, which keeps rho
    sweeps comparable across instances. The constraints are the 2m one-hot
    rows of Lucas (arXiv:1302.5843); the remaining rows of A are zero padding.
    """
    m = spec.num_cities
    d_max = spec.distances.max()
    if d_max <= 0.0:
        raise ValueError("distances are all zero")
    n = m * m
    successor = np.roll(np.eye(m), 1, axis=1)  # time t -> t + 1 (mod m)
    A = np.zeros((n, n))
    for i in range(m):
        A[i, i * m : (i + 1) * m] = 1.0  # city i appears exactly once
        A[m + i, i::m] = 1.0  # time step i hosts exactly one city
    qcio = QcioProblem(
        M=np.kron(spec.distances / d_max, successor),
        l=np.zeros(n),
        c=0.0,
        A=A,
        r=np.repeat([1.0, 0.0], [2 * m, n - 2 * m]),
    )
    return qcio, BinaryEncoding.levels(n, 1)


def decode_trp(bits: np.ndarray | str, spec: TrpSpec) -> tuple[list[int] | None, bool, float]:
    """Tour encoded by ``bits`` (``order[t]`` is the city visited at time t),
    feasibility, and raw cyclic tour length; infeasible bitstrings (not a
    permutation matrix) decode to (None, False, inf)."""
    bits = np.asarray(as_bits(bits), dtype=np.int64).ravel()
    m = spec.num_cities
    if bits.size != m * m:
        raise ValueError(f"expected {m * m} bits, got {bits.size}")
    mat = bits.reshape(m, m)  # rows: cities, columns: time steps
    if not (np.all(mat.sum(axis=0) == 1) and np.all(mat.sum(axis=1) == 1)):
        return None, False, math.inf
    order = [int(np.argmax(mat[:, t])) for t in range(m)]
    return order, True, spec.tour_length(order)

