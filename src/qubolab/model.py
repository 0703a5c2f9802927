"""Problem representations and the QCIO -> QUIO -> QUBO -> Ising transform chain.

The chain starts from a quadratic constrained integer optimization problem
(QCIO), folds the equality constraints into a quadratic penalty (QUIO),
encodes the bounded integers into bits (QUBO), and finally rewrites the
binary cost as a diagonal Hamiltonian over qubits (Ising form). Brute-force
enumeration and the penalty-weight scan live here as well, since they are
the oracles everything else is verified against. Every cost table is one
``quadratic_table``: the "Yates" doubling cost[x + 2^k] = cost[x] + Q[k,k] +
sum_{j<k} x_j Q[j,k] over the low 18 bits, plus per 2^18-entry chunk the
subset sums of its high bits' terms, so a range is that slice's bytes.

Bit convention used across the package: bit i of a bitstring is qubit i and
carries weight 2^i, so the integer value of bits b is sum_i b_i 2^i. String
renderings put bit 0 leftmost, i.e. ``s[i]`` is bit i. Every module renders
and parses bitstrings through the codec below.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

# An array of 2^n entries past this many bits (qubits) refuses rather than thrashes.
BRUTE_FORCE_CAP = 26

_ATOL = 1e-9
_CHUNK_BITS = 18  # brute force's chunks and cost tables' low bits: 2^18 entries
_PENALTY_STEP = 0.1
_PENALTY_CEILING = 50.0


# ---------------------------------------------------------------------------
# validation and the bitstring codec


def require_finite(name: str, *values) -> None:
    """Raise ``ValueError`` unless every number in ``values`` (scalars or
    arrays, real or complex) is finite: the one finite check that every
    validator of the package goes through."""
    for value in values:
        if not np.isfinite(value).all():
            raise ValueError(f"non-finite {name}")


def require_integer(name: str, value, least: int | None = None) -> None:
    """The one integer rule: raise ``ValueError`` unless ``value`` is an
    integer (never a bool or a float, so nothing is truncated) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def require_real(name: str, value) -> None:
    """The one number rule: raise ``ValueError`` unless ``value`` is a real
    number (never a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def require_penalty(rho) -> None:
    """The one penalty-weight rule: raise ``ValueError`` unless ``rho`` is
    a finite real number >= 0."""
    require_real("penalty weight 'rho'", rho)
    require_finite("penalty weight 'rho'", rho)
    if rho < 0:
        raise ValueError(f"penalty weight must be nonnegative, got 'rho' = {rho!r}")


def require_each(rule, name: str, values) -> None:
    """``rule(name, v)`` for every ``v`` in ``values``, a sequence or dict
    view. The rules above depend on the type alone, so one value of each
    type is checked: a C-level pass instead of a Python call per value."""
    for value in dict(zip(map(type, values), values)).values():
        rule(name, value)


def number_array(name: str, value, dtype=np.float64) -> np.ndarray:
    """``value`` as a float64 (or int64) array after ``require_real`` (or
    ``require_integer``) on every entry, so a ragged list raises too."""
    entries = np.asarray(value, dtype=object).ravel()
    require_each(require_integer if dtype == np.int64 else require_real, name, entries)
    return np.asarray(value, dtype=dtype)


def require_dense(num_qubits: int) -> None:
    """Raise ``ValueError`` for a register past ``BRUTE_FORCE_CAP``: the check
    that goes before any array of 2^num_qubits entries is allocated."""
    if num_qubits > BRUTE_FORCE_CAP:
        raise ValueError(
            f"{num_qubits} qubits exceed the cap of {BRUTE_FORCE_CAP} for 2^n-entry arrays"
        )


def index_bits(index, num_bits: int) -> np.ndarray:
    """(k, num_bits) 0/1 rows of the k integers ``index``: row j holds bit i
    (weight 2^i) of ``index[j]`` in column i."""
    index = np.asarray(index, dtype=np.int64)
    return (index[:, None] >> np.arange(num_bits)) & 1


def render_bits(rows) -> list[str]:
    """Bitstrings of the (k, n) 0/1 rows ``rows``, in row order, with
    ``s[i]`` the character of column i: the one renderer of the package."""
    rows = np.asarray(rows)
    k, n = rows.shape
    text = (rows.astype(np.uint8) + ord("0")).tobytes().decode("ascii")
    return [text[j * n : (j + 1) * n] for j in range(k)]


def _not_a_bit(entry) -> ValueError:
    """The error for a bitstring character or array entry other than 0, 1."""
    return ValueError(f"bit {entry!r} is not 0 or 1")


def str_to_bits(s: str) -> np.ndarray:
    """0/1 array of the bitstring ``s``, bit i at index i; raises
    ``ValueError`` on any character other than 0 and 1."""
    raw = s.encode()
    # translate leaves the bytes that are not 0 or 1; on the long joined
    # text of parse_bits it is ~15x faster than str.strip("01")
    if raw.translate(None, b"01"):
        raise _not_a_bit(s.strip("01")[0])
    return np.frombuffer(raw, dtype=np.uint8) - ord("0")


def as_bits(bits) -> np.ndarray:
    """0/1 array of ``bits``: a bitstring goes through ``str_to_bits``, an
    array is returned as it is; raises ``ValueError`` on any entry other
    than 0 and 1."""
    if isinstance(bits, str):
        return str_to_bits(bits)
    bits = np.asarray(bits)
    bad = bits[(bits != 0) & (bits != 1)]
    if bad.size:
        raise _not_a_bit(bad[0].item())
    return bits


def parse_bits(keys) -> np.ndarray:
    """(k, n) 0/1 rows of the k bitstrings ``keys``, the inverse of
    ``render_bits``; raises ``ValueError`` on a key that is not a ``str``,
    keys of different widths or a character other than 0 and 1."""
    keys = list(keys)
    try:
        widths = set(map(len, keys))
        text = "".join(keys)
    except TypeError:  # only str keys join; look for the culprit on failure
        bad = next(k for k in keys if not isinstance(k, str))
        raise ValueError(f"bitstring key {bad!r} is not a str") from None
    if len(widths) > 1:
        raise ValueError(f"bitstrings of mixed widths {sorted(widths)}")
    return str_to_bits(text).reshape(len(keys), widths.pop() if keys else 0)


def _subset_sums(start, weights) -> np.ndarray:
    """out[x + 2^i] = out[x] + weights[i] for x < 2^i, from out[0] = start."""
    out = np.empty((1 << len(weights),) + np.shape(start))
    out[0] = start
    for i, weight in enumerate(weights):
        np.add(out[: 1 << i], weight, out=out[1 << i : 2 << i])
    return out


def quadratic_table(Q: np.ndarray, const: float, start: int = 0, stop: int | None = None) -> np.ndarray:
    """b'Qb + const, Q upper-triangular, of the bitstrings with integer values
    ``start..stop-1`` (default: all 2^n; ``ValueError`` unless 0 <= start <=
    stop <= 2^n); an entry's sums depend on its index alone. Bit k of the
    low table adds Q[k,k] and its column's subset sums."""
    require_dense(n := len(Q))
    stop = 1 << n if stop is None else stop
    if not 0 <= start <= stop <= 1 << n:
        raise ValueError(f"range start={start}, stop={stop} is not within 0..2^{n}")
    low = min(n, _CHUNK_BITS)
    table = np.zeros(1 << low)
    for k in range(low):
        np.add(table[: 1 << k], _subset_sums(Q[k, k], Q[:k, k]), out=table[1 << k : 2 << k])
    high = quadratic_table(Q[low:, low:], 0.0) if n > low else [0.0]
    linear = _subset_sums(np.zeros(low), Q[:low, low:].T)
    chunks = []
    for h in range(start >> low, ((stop - 1) >> low) + 1):
        chunk = _subset_sums(high[h], linear[h]) + table + const
        chunks.append(chunk[max(start - (h << low), 0) : stop - (h << low)])
    return np.concatenate(chunks) if chunks else np.zeros(0)


# ---------------------------------------------------------------------------
# problem representations


@dataclass(eq=False)
class QcioProblem:
    """Quadratic constrained integer problem min x'Mx + lx + c s.t. Ax = r.

    Parameters
    ----------
    M:
        n x n cost matrix; n is the number of integer variables.
    l:
        Linear cost row vector of length n.
    c:
        Constant cost offset.
    A:
        n x n constraint matrix (rows may be zero padding).
    r:
        Constraint right-hand side of length n.

    The variables' domain is set by the ``BinaryEncoding`` paired with the
    problem, not by the problem itself.
    """

    M: np.ndarray
    l: np.ndarray
    c: float
    A: np.ndarray
    r: np.ndarray

    def __post_init__(self) -> None:
        self.M = number_array("M", self.M)
        self.l = number_array("l", self.l).ravel()
        require_real("c", self.c)
        self.c = float(self.c)
        self.A = number_array("A", self.A)
        self.r = number_array("r", self.r).ravel()
        require_finite("M, l, c, A or r", self.M, self.l, self.c, self.A, self.r)
        if self.M.ndim != 2 or self.M.shape[0] != self.M.shape[1]:
            raise ValueError(f"M must be square, got {self.M.shape}")
        n = self.dim_n
        if self.A.shape != (n, n):
            raise ValueError(f"A must be {n}x{n}, got {self.A.shape}")
        if self.l.shape != (n,) or self.r.shape != (n,):
            raise ValueError("l and r must have length n")

    @property
    def dim_n(self) -> int:
        """Number of integer variables."""
        return len(self.M)


@dataclass(eq=False)
class QuioProblem:
    """Unconstrained integer problem after folding constraints in at a penalty weight."""

    M_rho: np.ndarray
    l_rho: np.ndarray
    c_rho: float

    @property
    def dim_n(self) -> int:
        return self.M_rho.shape[0]


@dataclass(eq=False)
class BinaryEncoding:
    """Linear map x = B b from N bits to n integers.

    Each integer row of B touches its own contiguous block of bits; the
    two-bit level encoding uses weights (1, 2) per variable.
    """

    B: np.ndarray
    bits_per_var: list[int]

    def __post_init__(self) -> None:
        self.B = number_array("B", self.B)
        require_finite("B", self.B)
        bits = number_array("bits_per_var", self.bits_per_var, np.int64)
        if bits.ndim != 1:
            raise ValueError(f"bits_per_var must be a list, got {self.bits_per_var!r}")
        self.bits_per_var = bits.tolist()
        n, N = self.B.shape
        if len(self.bits_per_var) != n:
            raise ValueError("bits_per_var must have one entry per integer variable")
        if sum(self.bits_per_var) != N:
            raise ValueError("bits_per_var must sum to the bit count")
        # each row must own exactly its contiguous block
        offset = 0
        for i, k in enumerate(self.bits_per_var):
            block = np.zeros(N, dtype=bool)
            block[offset : offset + k] = True
            if np.any(self.B[i, ~block] != 0.0):
                raise ValueError(f"row {i} touches bits outside its block")
            offset += k

    @property
    def num_bits(self) -> int:
        return self.B.shape[1]

    @property
    def num_vars(self) -> int:
        return self.B.shape[0]

    @classmethod
    def levels(cls, num_vars: int, bits_per_var: int = 2) -> "BinaryEncoding":
        """Positional encoding with weights 1, 2, 4, ... for every variable."""
        B = np.kron(np.eye(num_vars), 2.0 ** np.arange(bits_per_var))
        return cls(B=B, bits_per_var=[bits_per_var] * num_vars)


@dataclass(eq=False)
class QuboProblem:
    """min b'Qb + constant over bitstrings, Q upper-triangular; its two
    fields are the whole document, and ``num_vars`` is the side of Q."""

    Q: np.ndarray
    constant: float
    _cost: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.Q = number_array("Q", self.Q)
        require_real("constant", self.constant)
        self.constant = float(self.constant)
        if self.Q.ndim != 2 or self.Q.shape[0] != self.Q.shape[1]:
            raise ValueError("Q must be square")
        if np.any(np.tril(self.Q, k=-1) != 0.0):
            raise ValueError("Q must be upper-triangular")
        require_finite("Q or constant", self.Q, self.constant)

    @property
    def num_vars(self) -> int:
        return len(self.Q)

    def cost_vector(self) -> np.ndarray:
        """``qubo_cost_vector`` of every bitstring, the rows brute force enumerates;
        memoised and read-only, as ``IsingModel.cost_vector`` is."""
        if self._cost is None:
            self._cost = qubo_cost_vector(self)
            self._cost.flags.writeable = False
        return self._cost


@dataclass(eq=False)
class IsingModel:
    """Diagonal cost Hamiltonian sum h_ij Z_i Z_j + sum h'_i Z_i + h'' I.

    The basis-state expectation of this operator reproduces the QUBO cost of
    the corresponding bitstring, with Z eigenvalue z_i = 1 - 2 b_i.
    """

    h_quad: dict[tuple[int, int], float]
    h_lin: np.ndarray
    h_const: float
    _cost: np.ndarray | None = field(default=None, init=False, repr=False)
    _distinct: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.h_lin = np.asarray(self.h_lin, dtype=np.float64).ravel()
        self.h_const = float(self.h_const)
        self.h_quad = {
            (int(i), int(j)): float(w) for (i, j), w in self.h_quad.items()
        }
        n = self.num_qubits
        for i, j in self.h_quad:
            if not 0 <= i < j < n:
                raise ValueError(f"coupling ({i},{j}) must satisfy 0 <= i < j < n")
        require_finite("h_lin", self.h_lin)
        require_finite("h_quad", list(self.h_quad.values()))
        require_finite("h_const", self.h_const)

    @property
    def num_qubits(self) -> int:
        """One qubit per entry of ``h_lin``."""
        return self.h_lin.size

    def cost_vector(self) -> np.ndarray:
        """The diagonal cost of every bitstring, indexed by integer value: the
        ``quadratic_table`` of the bit form (z_i = 1 - 2 b_i) Q_ij = 4 w_ij,
        Q_ii = -2 h'_i - 2 sum_j w_ij and constant h'' + sum h' + sum w.
        Computed on the first call; every call returns that same read-only
        array, so the coefficients must not be changed after it."""
        if self._cost is None:
            W = np.zeros((self.num_qubits, self.num_qubits))
            for (i, j), w in self.h_quad.items():
                W[i, j] = w
            Q = 4.0 * W - 2.0 * np.diag(self.h_lin + W.sum(axis=0) + W.sum(axis=1))
            const = self.h_const + self.h_lin.sum() + W.sum()
            require_finite("bit form of h_quad, h_lin and h_const", Q, const)
            self._cost = quadratic_table(Q, const)
            self._cost.flags.writeable = False
        return self._cost

    def distinct_costs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(values, where) = np.unique(self.cost_vector(), return_inverse=True)``:
        the k sorted distinct values of the diagonal and, per bitstring, the
        index of its value, so ``values[where]`` is the diagonal (-0.0 and 0.0
        count as one value). The kernels exponentiate the k values instead of
        all 2^n entries. Memoised and read-only beside ``cost_vector``, and
        like it no constructor field, so ``repr`` and a rebuild from the
        fields (the codec's walk) skip it."""
        if self._distinct is None:
            self._distinct = np.unique(self.cost_vector(), return_inverse=True)
            for array in self._distinct:
                array.flags.writeable = False
        return self._distinct


@dataclass
class SolveReport:
    """Exhaustive-enumeration result: the optimum and everything attaining it."""

    optimal_cost: float
    optimal_set: list[str] = field(default_factory=list)
    evaluations: int = 0

    def __post_init__(self) -> None:
        require_real("optimal_cost", self.optimal_cost)
        self.optimal_cost = float(self.optimal_cost)
        require_finite("optimal_cost", self.optimal_cost)
        if not isinstance(self.optimal_set, (list, tuple)):
            raise ValueError(f"optimal_set must be a list of bitstrings, got {self.optimal_set!r}")
        self.optimal_set = list(self.optimal_set)
        parse_bits(self.optimal_set)  # refuses entries that are not bitstrings
        require_integer("evaluations", self.evaluations, least=0)


# ---------------------------------------------------------------------------
# transforms


def build_quio(qcio: QcioProblem, rho: float) -> QuioProblem:
    """Fold Ax = r into the cost at penalty weight rho.

    M_rho = M + rho A'A,  l_rho = l - 2 rho r'A,  c_rho = c + rho |r|^2,
    so that cost_rho(x) = cost(x) + rho |Ax - r|^2.
    """
    require_penalty(rho)
    M_rho = qcio.M + rho * qcio.A.T @ qcio.A
    l_rho = qcio.l - 2.0 * rho * qcio.r @ qcio.A
    c_rho = qcio.c + rho * float(qcio.r @ qcio.r)
    return QuioProblem(M_rho=M_rho, l_rho=l_rho, c_rho=c_rho)


def upper_triangularize(mat: np.ndarray) -> np.ndarray:
    """Fold the strict lower triangle onto the upper one, preserving x'Mx."""
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    return np.triu(mat) + np.triu(mat.T, k=1)


def encode_binary(quio: QuioProblem, enc: BinaryEncoding) -> QuboProblem:
    """Substitute x = B b, using b^2 = b to absorb linear terms into the diagonal."""
    if enc.num_vars != quio.dim_n:
        raise ValueError(
            f"encoding has {enc.num_vars} integer rows, problem has {quio.dim_n}"
        )
    B = enc.B
    Q = upper_triangularize(B.T @ quio.M_rho @ B + np.diag(quio.l_rho @ B))
    return QuboProblem(Q=Q, constant=quio.c_rho)


def qubo_cost_vector(qubo: QuboProblem, start: int = 0, stop: int | None = None) -> np.ndarray:
    """``quadratic_table`` of the bitstrings ``start..stop-1`` (default: all):
    brute force's chunks hold the bytes of the slices of the scored table."""
    return quadratic_table(qubo.Q, qubo.constant, start, stop)


def to_ising(qubo: QuboProblem) -> IsingModel:
    """Rewrite the QUBO cost as a diagonal Hamiltonian via b_i -> (I - Z_i)/2."""
    N = qubo.num_vars
    h_lin = np.zeros(N)
    h_const = qubo.constant
    h_quad: dict[tuple[int, int], float] = {}
    for i in range(N):
        q_ii = qubo.Q[i, i]
        h_lin[i] -= q_ii / 2.0
        h_const += q_ii / 2.0
        for j in range(i + 1, N):
            q_ij = qubo.Q[i, j]
            if q_ij == 0.0:
                continue
            h_quad[(i, j)] = q_ij / 4.0
            h_lin[i] -= q_ij / 4.0
            h_lin[j] -= q_ij / 4.0
            h_const += q_ij / 4.0
    return IsingModel(h_quad=h_quad, h_lin=h_lin, h_const=h_const)


# ---------------------------------------------------------------------------
# oracles


def brute_force_solve(qubo: QuboProblem) -> SolveReport:
    """Enumerate every bitstring and collect all minimizers (tolerance 1e-9)."""
    N = qubo.num_vars
    if N > BRUTE_FORCE_CAP:
        raise ValueError(f"{N} variables exceed the enumeration cap of {BRUTE_FORCE_CAP}")
    total = 1 << N
    chunk = min(total, 1 << _CHUNK_BITS)
    best = np.inf
    near = []  # per chunk: the indices and costs within _ATOL of the running minimum
    for start in range(0, total, chunk):
        costs = qubo_cost_vector(qubo, start, min(start + chunk, total))
        best = min(best, costs.min())
        keep = np.flatnonzero(costs <= best + _ATOL)
        near.append((start + keep, costs[keep]))
    # the running minimum never falls below the final one, so no minimizer was dropped
    minimizers = np.concatenate([index[cost <= best + _ATOL] for index, cost in near])
    return SolveReport(
        optimal_cost=float(best),
        optimal_set=render_bits(index_bits(minimizers, N)),
        evaluations=total,
    )


def _first_grid_index(base, penalty, feasible, c_star) -> int:
    """The lowest index k of the rho grid at which ``min_penalty``'s test can
    pass; every lower index provably fails (see ``min_penalty``)."""
    below = ~feasible & (base < c_star)
    # feasible entries' rounding noise below 0 must stay << _ATOL at every rho
    if not below.any() or penalty.min() < -_ATOL / (4 * _PENALTY_CEILING):
        return 0
    ratio = (c_star - base[below]) / penalty[below]
    best = ratio.argmax()
    b = np.flatnonzero(below)[best]
    k = int(min(ratio[best] / _PENALTY_STEP, _PENALTY_CEILING / _PENALTY_STEP))
    # the scan's own float operations; their value is monotone in k
    while k >= 0 and not base[b] + (k * _PENALTY_STEP) * penalty[b] < c_star:
        k -= 1
    return k + 1


def min_penalty(qcio: QcioProblem, enc: BinaryEncoding) -> float:
    """Smallest grid penalty weight whose QUBO optima all solve the constrained problem.

    Scans rho = 0, 0.1, 0.2, ... up to 50 and brute-forces the penalized problem
    at every grid point; returns the first rho for which every minimizer decodes
    to a feasible integer vector attaining the constrained optimum.

    The scan starts at a proven lower bound (``_first_grid_index``). Take
    the infeasible point b (penalty > _ATOL) with base(b) < c* that
    maximises (c* - base) / penalty, and step its grid index down from
    that ratio / 0.1 until ``base_b + (k * 0.1) * penalty_b < c*`` holds in
    the scan's own float operations. That value is monotone in k, so it is
    below c* at every lower index too, and there the test fails. If the
    argmin of the totals is infeasible, it is among the optima. If it is
    feasible with a penalty >= 0, its total is at least its base, so at
    least c*, which is more than b's total: impossible. If it is feasible
    with a penalty just below 0 (rounding noise of the table), its total
    is within rho * |noise| << _ATOL of c*, so b lies within _ATOL of the
    minimum, among the optima, and is infeasible. The bound is not used
    (the scan starts at 0) when some penalty is below -_ATOL / (4 * 50),
    which keeps rho * |noise| <= _ATOL / 4 at every grid point. Every index
    from the bound on is tested as before, so the result is that of the
    scan from 0 (``tests/util.py::full_rho_scan``); on Ex2p1 (rho = 5.1)
    the scan makes 2 passes over the 2^16 totals instead of 52.
    """
    # the cost and the squared residual |ABb - r|^2 as two QUBOs in the bits
    squares = QuioProblem(qcio.A.T @ qcio.A, -2.0 * qcio.r @ qcio.A, float(qcio.r @ qcio.r))
    qubos = [encode_binary(quio, enc) for quio in (build_quio(qcio, 0.0), squares)]
    base, penalty = (quadratic_table(q.Q, q.constant) for q in qubos)
    feasible = penalty <= _ATOL
    if not np.any(feasible):
        raise ValueError("no encodable point satisfies the constraints")
    c_star = base[feasible].min()
    first = _first_grid_index(base, penalty, feasible, c_star)
    for k in range(first, round(_PENALTY_CEILING / _PENALTY_STEP) + 1):
        rho = k * _PENALTY_STEP
        total = base + rho * penalty
        opt = total <= total.min() + _ATOL
        if np.all(feasible[opt]) and np.all(np.abs(base[opt] - c_star) <= _ATOL):
            return rho
    raise ValueError(f"no valid penalty weight found up to ceiling {_PENALTY_CEILING}")
