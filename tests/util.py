"""Shared helpers for the test suite, and the per-value references that the
package's vectorised code is tested against."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from qubolab.cobyla import _SQRT_REALMAX, _SQRT_REALMIN, EPS, REALMIN, _isminor

from qubolab.model import (
    BinaryEncoding,
    IsingModel,
    QcioProblem,
    QuboProblem,
    QuioProblem,
    as_bits,
    build_quio,
    encode_binary,
    index_bits,
    min_penalty,
    to_ising,
    upper_triangularize,
)
from qubolab.quality import _GUARD, Distribution, RelativeError
from qubolab.serialize import from_dict
from qubolab.simulator import Circuit, Gate, StateVector, run_circuit
from qubolab.transpiler import Layout
from qubolab.usecases import TrpSpec, build_lama, example_series, gen_cities, trp_model

UNITARY_QUBIT_CAP = 6


def random_qubo(rng: np.random.Generator, n: int, density: float = 0.6) -> QuboProblem:
    """Random upper-triangular QUBO with entries in [-2, 2]."""
    Q = rng.uniform(-2.0, 2.0, size=(n, n))
    Q[rng.random((n, n)) > density] = 0.0
    Q = np.triu(Q)
    return QuboProblem(Q=Q, constant=float(rng.uniform(-1.0, 1.0)))


def random_qcio(rng: np.random.Generator, n: int) -> tuple[QcioProblem, BinaryEncoding]:
    """Random integer problem over {0..3}^n with one random equality constraint."""
    M = rng.uniform(-1.0, 1.0, size=(n, n))
    l = rng.uniform(-1.0, 1.0, size=n)
    c = float(rng.uniform(-1.0, 1.0))
    A = np.zeros((n, n))
    A[0] = rng.integers(0, 2, size=n).astype(float)
    if not A[0].any():
        A[0, 0] = 1.0
    x_feas = rng.integers(0, 4, size=n)
    r = np.zeros(n)
    r[0] = float(A[0] @ x_feas)
    return QcioProblem(M=M, l=l, c=c, A=A, r=r), BinaryEncoding.levels(n)


def symmetrized(Q: np.ndarray) -> np.ndarray:
    return upper_triangularize(Q)


def qcio_cost(qcio: QcioProblem, x: np.ndarray) -> float:
    """x'Mx + lx + c of one integer point."""
    x = np.asarray(x, dtype=np.float64)
    return float(x @ qcio.M @ x + qcio.l @ x + qcio.c)


def constraint_residual(qcio: QcioProblem, x: np.ndarray) -> np.ndarray:
    """Ax - r of one integer point."""
    return qcio.A @ np.asarray(x, dtype=np.float64) - qcio.r


def quio_cost(quio: QuioProblem, x: np.ndarray) -> float:
    """The penalized cost of one integer point."""
    x = np.asarray(x, dtype=np.float64)
    return float(x @ quio.M_rho @ x + quio.l_rho @ x + quio.c_rho)


def qubo_cost(qubo: QuboProblem, bits: np.ndarray | str) -> float:
    """b'Qb + constant for a single bitstring; the per-string reference that
    ``QuboProblem.cost_vector`` and the quality metrics are tested against."""
    b = np.asarray(as_bits(bits), dtype=np.float64).ravel()
    if b.size != qubo.num_vars:
        raise ValueError(f"expected {qubo.num_vars} bits, got {b.size}")
    return float(b @ qubo.Q @ b + qubo.constant)


def all_bitstrings(num_bits: int) -> np.ndarray:
    """(2^n, n) float 0/1 rows of the integers 0..2^n-1, bit i in column i."""
    return index_bits(np.arange(1 << num_bits), num_bits).astype(np.float64)


def enumerated_costs(Q: np.ndarray, const: float) -> np.ndarray:
    """b'Qb + const of every bitstring as ``((b @ Q) * b).sum`` over the float
    rows of ``all_bitstrings``: the O(n^2 2^n) enumeration that
    ``model.quadratic_table`` is tested against."""
    b = all_bitstrings(len(Q))
    return ((b @ Q) * b).sum(axis=1) + const


def diag_cost(ising: IsingModel, bits: np.ndarray) -> float:
    """The Ising diagonal of one bitstring; the per-string reference that
    ``IsingModel.cost_vector`` is tested against."""
    z = 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)
    cost = ising.h_const + float(ising.h_lin @ z)
    for (i, j), w in ising.h_quad.items():
        cost += w * z[i] * z[j]
    return cost


def int_to_bits(value: int, num_bits: int) -> np.ndarray:
    """Bits of ``value`` as an array with bit i (weight 2^i) at index i; the
    per-value reference that ``index_bits`` is tested against."""
    return (value >> np.arange(num_bits)) & 1


def bits_to_int(bits: np.ndarray) -> int:
    bits = np.asarray(bits)
    return int((bits.astype(np.int64) << np.arange(bits.size)).sum())


def bits_to_str(bits: np.ndarray) -> str:
    """The per-row reference that ``render_bits`` is tested against."""
    return "".join("1" if b else "0" for b in np.asarray(bits).ravel())


def expectation_diagonal(state: StateVector, diag_cost) -> float:
    """<state| D |state> for the diagonal operator D whose length-2^n value
    vector is ``diag_cost``."""
    probs = state.probabilities()
    values = np.asarray(diag_cost, dtype=float)
    if values.shape != probs.shape:
        raise ValueError("diagonal length does not match state dimension")
    return float(probs @ values)


def p1_qaoa_energy(ising: IsingModel, beta: float, gamma: float) -> float:
    """<C> in the p=1 QAOA state RX(2 beta)^n exp(-i gamma C)|+...+>, for
    C = sum_u h_u Z_u + sum_uv J_uv Z_u Z_v + h'', in closed form from the
    single-layer <Z_u> and <Z_u Z_v> of Ozaeta, van Dam & McMahon
    (arXiv:2012.03421): O(n) per term and no 2^n vector, so it shares
    nothing with the state kernel it checks."""
    n = ising.num_qubits
    h = ising.h_lin
    coupling = np.zeros((n, n))
    for (u, v), weight in ising.h_quad.items():
        coupling[u, v] = coupling[v, u] = weight

    def cos_prod(angles) -> float:  # prod_w cos(2 gamma angle_w)
        return float(np.prod(np.cos(2.0 * gamma * angles)))

    s2, s4 = math.sin(2.0 * beta), math.sin(4.0 * beta)
    energy = ising.h_const
    for u in range(n):
        others = np.arange(n) != u
        z_u = s2 * math.sin(2.0 * gamma * h[u]) * cos_prod(coupling[u, others])
        energy += h[u] * z_u
    for (u, v), weight in ising.h_quad.items():
        rest = (np.arange(n) != u) & (np.arange(n) != v)
        ju, jv = coupling[u, rest], coupling[v, rest]
        z_uv = 0.5 * s4 * math.sin(2.0 * gamma * weight) * (
            math.cos(2.0 * gamma * h[u]) * cos_prod(ju)
            + math.cos(2.0 * gamma * h[v]) * cos_prod(jv)
        ) - 0.5 * s2 * s2 * (
            math.cos(2.0 * gamma * (h[u] + h[v])) * cos_prod(ju + jv)
            - math.cos(2.0 * gamma * (h[u] - h[v])) * cos_prod(ju - jv)
        )
        energy += weight * z_uv
    return float(energy)


def route_to_bits(order: list[int], m: int) -> np.ndarray:
    """Assignment bits of a tour, inverse of decode_trp for feasible inputs."""
    bits = np.zeros(m * m, dtype=np.int64)
    for t, i in enumerate(order):
        bits[i * m + t] = 1
    return bits


def permutation_unitary(wire_permutation: list) -> np.ndarray:
    """Unitary that relocates each wire's content per ``wire_permutation``."""
    n = len(wire_permutation)
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=complex)
    for v in range(dim):
        target = 0
        for w in range(n):
            if (v >> w) & 1:
                target |= 1 << wire_permutation[w]
        mat[target, v] = 1.0
    return mat


def embed_circuit(circuit: Circuit, layout: Layout, num_physical: int) -> Circuit:
    """The logical circuit rewritten onto physical wires (no routing)."""
    out = Circuit(num_physical)
    for gate in circuit.gates:
        out.append(
            Gate(gate.kind, tuple(layout.assignment[q] for q in gate.qubits), gate.angle)
        )
    return out


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Dense matrix of the circuit (test oracle); capped at 6 qubits."""
    n = circuit.num_qubits
    if n > UNITARY_QUBIT_CAP:
        raise ValueError(f"unitary extraction capped at {UNITARY_QUBIT_CAP} qubits")
    dim = 1 << n
    cols = np.empty((dim, dim), dtype=complex)
    for v in range(dim):
        amps = np.zeros(dim, dtype=complex)
        amps[v] = 1.0
        cols[:, v] = run_circuit(circuit, StateVector(amps, n)).amplitudes
    return cols


def build_trp(spec: TrpSpec, rho: float = 1.0) -> QuboProblem:
    """Tour QUBO over m^2 assignment bits at penalty weight ``rho`` (1.0, the
    CLI's "auto" for tours, by default)."""
    qcio, enc = trp_model(spec)
    return encode_binary(build_quio(qcio, rho), enc)


def per_trial_random_baseline(qubo: QuboProblem, trials: int, seed: int, c_opt: float) -> RelativeError:
    """``random_baseline`` with fresh arrays per trial: ``rng.normal`` real
    parts, then imaginary parts, |a|^2 normalised and scored against the
    cost table; the relative error, or the absolute one when C* is within
    ``_GUARD`` of zero."""
    cost = qubo.cost_vector()
    rng = np.random.default_rng(seed)
    values = np.empty(trials)
    for t in range(trials):
        amps = rng.normal(size=cost.size) + 1j * rng.normal(size=cost.size)
        probs = np.abs(amps) ** 2
        probs /= probs.sum()
        values[t] = probs @ cost
    is_absolute = abs(c_opt) < _GUARD
    scale = 1.0 if is_absolute else abs(c_opt)
    return RelativeError(float(np.mean([abs(float(v) - c_opt) / scale for v in values])), is_absolute)


def bundled_qubos():
    """The QUBO of every bundled charging instance up to 16 qubits at its
    automatic penalty, and of 3- and 4-city tours in both layouts."""
    for name, spec in example_series().items():
        if spec.num_qubits <= 16:
            qcio, enc = build_lama(spec)
            yield name, encode_binary(build_quio(qcio, min_penalty(qcio, enc)), enc)
    for cities in (3, 4):
        for layout in ("symmetric", "asymmetric"):
            yield f"{cities}-{layout}", build_trp(gen_cities(cities, layout))


def bundled_isings():
    """The Ising model of every ``bundled_qubos`` problem, by the same name."""
    for name, qubo in bundled_qubos():
        yield name, to_ising(qubo)


def full_rho_scan(qcio: QcioProblem, enc: BinaryEncoding) -> float:
    """``model.min_penalty`` as it scanned before its proven lower bound:
    every grid point from rho = 0, the same tables and the same test, so
    the two must return the same rho (or raise the same error)."""
    squares = QuioProblem(qcio.A.T @ qcio.A, -2.0 * qcio.r @ qcio.A, float(qcio.r @ qcio.r))
    qubos = [encode_binary(quio, enc) for quio in (build_quio(qcio, 0.0), squares)]
    base, penalty = (q.cost_vector() for q in qubos)
    feasible = penalty <= 1e-9
    if not np.any(feasible):
        raise ValueError("no encodable point satisfies the constraints")
    c_star = base[feasible].min()
    for k in range(501):
        rho = k * 0.1
        total = base + rho * penalty
        opt = total <= total.min() + 1e-9
        if np.all(feasible[opt]) and np.all(np.abs(base[opt] - c_star) <= 1e-9):
            return rho
    raise ValueError("no valid penalty weight found up to ceiling 50.0")


def load_json(path):
    return from_dict(json.loads(Path(path).read_text()))


def decode(enc: BinaryEncoding, bits: np.ndarray) -> np.ndarray:
    """Integer vector encoded by ``bits``."""
    return enc.B @ np.asarray(bits, dtype=np.float64)


def hellinger_by_key(p: Distribution, q: Distribution) -> float:
    """(sum_b sqrt(p_b q_b))^2 as one ``np.sqrt`` per key both hold, summed
    left to right over ``p``'s order: ``hellinger_fidelity``'s reference."""
    overlap = sum(
        np.sqrt(v * q.probs[s]) for s, v in p.probs.items() if s in q.probs
    )
    return float(overlap) ** 2


# ---------------------------------------------------------------------------
# COBYLA's trust-region step in PRIMA's matrix form: the Givens cascade
# rotates the gradient into ``z = eye(n)`` one (n, 2) product at a time and
# ``trstlp`` carries its ``d = 0`` first stage through. ``qubolab.cobyla``
# carries one column of ``z`` instead and must return the same bytes.


def matrix_trstlp(g, delta):
    """The trust-region step: ``-delta * g / |g|`` as PRIMA's ``trstlp``
    computes it when ``g`` is its only column. Its first stage, which
    reduces constraint violations, returns ``d = 0`` and ``z = I``."""
    n = g.size
    a = g.reshape((n, 1)).copy()
    if (maxval := max(abs(a[:, 0]))) > 1e12:
        a[:, 0] *= max(2 * REALMIN, 1 / maxval)
    d = np.zeros(n)
    z = np.eye(n)
    zdota = np.zeros(n)
    # add the column to the empty QR factorization of the active set
    nact = matrix_qradd(a[:, 0], z, zdota)
    if nact == 0 or np.isnan(zdota[0]) or abs(zdota[0]) <= EPS**2:
        return d
    sdirn = -1 / zdota[0] * z[:, 0]
    dd = delta * delta - np.dot(d, d)
    ss = np.dot(sdirn, sdirn)
    sd = np.dot(sdirn, d)
    if dd <= 0 or ss <= EPS * delta * delta or np.isnan(sd):
        return d
    sqrtd = max(np.sqrt(ss * dd + sd * sd), abs(sd), np.sqrt(ss * dd))
    if sd > 0:
        step = dd / (sqrtd + sd)
    else:
        step = (sqrtd - sd) / ss
    if step <= 0 or not np.isfinite(step):
        return d
    dnew = d + step * sdirn
    # the column's multiplier, clipped at 0, is never negative, so the step
    # is taken whole (frac = 1) and kept if it and the multiplier are finite
    vmult = max(0, -np.linalg.lstsq(a[:, [0]], dnew, rcond=None)[0][0])
    frac = 1.0
    dnew = (1 - frac) * d + frac * dnew
    if not (np.isfinite(np.sum(abs(dnew))) and np.isfinite(vmult)):
        return d
    return dnew


def matrix_qradd(c, q, rdiag):
    """PRIMA's ``qradd_Rdiag`` for an empty factorization: rotates ``c`` into
    the first column of ``q`` and returns 1, or 0 when ``c`` is negligible."""
    m = q.shape[1]
    cq = c @ q
    cqa = abs(c) @ abs(q)
    cq = np.where(_isminor(cq, cqa), 0.0, cq)
    for k in range(m - 2, -1, -1):
        if abs(cq[k + 1]) > 0:
            rot = matrix_planerot(cq[k : k + 2])
            # the Fortran-ordered copy PRIMA's q[:, [k, k + 1]] makes, so the
            # matmul gets the same operand layouts
            q[:, k : k + 2] = np.asfortranarray(q[:, k : k + 2]) @ rot.T
            cq[k] = np.hypot(cq[k], cq[k + 1])
    if abs(cq[0]) > EPS**2 and not _isminor(cq[0], cqa[0]):
        rdiag[0] = cq[0]
        return 1
    return 0


def matrix_planerot(x):
    """The 2x2 Givens rotation G with ``(G @ x)[1] == 0``, in Python floats
    (the same IEEE operations); the norm is ``np.linalg.norm``'s own
    ``sqrt(x.dot(x))``."""
    a, b = float(x[0]), float(x[1])
    if math.isnan(a) or math.isnan(b):
        c, s = 1, 0
    elif math.isinf(a) and math.isinf(b):
        c = 1 / np.sqrt(2) * np.sign(a)
        s = 1 / np.sqrt(2) * np.sign(b)
    elif abs(a) <= 0 and abs(b) <= 0:
        c, s = 1, 0
    elif abs(b) <= EPS * abs(a):
        c, s = np.sign(a), 0
    elif abs(a) <= EPS * abs(b):
        c, s = 0, np.sign(b)
    elif _SQRT_REALMIN < abs(a) < _SQRT_REALMAX and _SQRT_REALMIN < abs(b) < _SQRT_REALMAX:
        r = math.sqrt(x.dot(x))
        c, s = a / r, b / r
    elif abs(a) > abs(b):
        t = b / a
        u = max(1, abs(t), math.sqrt(1 + t * t)) * np.sign(a)
        c, s = 1 / u, t / u
    else:
        t = a / b
        u = max(1, abs(t), math.sqrt(1 + t * t)) * np.sign(b)
        c, s = t / u, 1 / u
    return np.array([[c, s], [-s, c]])
