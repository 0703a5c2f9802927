"""Command-line workbench: build problems, train, sample, anneal, transpile,
score, sweep, and run full seeded experiment batches.

Everything is deterministic given the flags/config (all randomness is
seeded), results declare a schema version, and runtime failures exit 1 while
usage errors exit 2 (argparse's convention).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .annealer import AnnealSchedule, SaConfig, SweepRow, qa_trotter, sa_sample
from .model import (
    BRUTE_FORCE_CAP,
    IsingModel,
    SolveReport,
    brute_force_solve,
    build_quio,
    encode_binary,
    min_penalty,
    number_array,
    require_integer,
    require_penalty,
    require_real,
    to_ising,
)
from .optimizer import multistart, uniform_sampler
from .quality import (
    Distribution,
    hellinger_fidelity,
    random_baseline,
    relative_error,
    solution_rates,
    state_fidelity,
)
from .serialize import (
    SCHEMA_VERSION,
    from_dict,
    landscape_to_csv,
    sweeps_to_csv,
    to_dict,
    traces_to_csv,
    write_json,
)
from .simulator import Gate, StateVector, sample as sample_state
from .simulator import run_circuit  # noqa: F401  unused; perfbench/spans.py traces it here
from .transpiler import (
    CouplingMap,
    ErrorMap,
    Layout,
    circuit_score,
    count_two_qubit,
    decompose,
    route,
)
from .usecases import (
    build_lama,
    decode_lama,
    decode_trp,
    example_series,
    gen_cities,
    lama_objective,
    trp_model,
)
from .variational import (
    ANSATZE,
    START_RANGE,
    ansatz_circuit,
    ansatz_state,
    cost_landscape,
    num_params,
    qaoa_objective,
    vqe_objective,
)

_PENALTY_SCAN_CAP = 16  # min_penalty enumerates 2^N points
_TOUR_ORACLE_CAP = 9  # permutation enumeration for TRP optima
# every optional `run` config field with its default, which the same-named
# subcommand flags share; an int default makes the field an integer (never
# truncated; routing_seeds may list them), a float one a finite number > 0
_RUN_FIELDS = {
    "layers": 1,
    "starts": 50,
    "max_iter": 1000,
    "shots": 10000,
    "routing_seeds": 0,
    "topology": "full",
    "basis": "CX",
    "error_map": None,
    "reads": 400,
    "sweeps": 1000,
    "total_time": 50.0,
    "dt": 0.01,
}
# the integer fields that hold seeds (>= 0); every other one is a count (>= 1)
_SEED_FIELDS = ("seeds", "routing_seeds")
# the string fields of a `run` config and the values they take; the
# `transpile` flags take the same topologies and bases
_CHOICES = {
    "algorithm": (*ANSATZE, "sa", "qa-trotter", "brute"),
    "topology": ("line", "ring", "full", "heavy_hex_27"),
    "basis": ("CX", "CZ", "ECR"),
}
# the fields besides "name" that each use case takes, in `use_case` and as flags
_USE_CASE_FIELDS = {"lama": ("instance", "rho"), "trp": ("cities", "layout", "seed", "rho")}


def _out_path(name) -> Path:
    """Resolve an output path; QUBOLAB_OUTDIR redirects bare relative names."""
    path = Path(name)
    base = os.environ.get("QUBOLAB_OUTDIR")
    if base and not path.is_absolute():
        return Path(base) / path
    return path


def _load_raw(path, kind=None, *fields) -> dict:
    """The JSON document at ``path``; with ``kind``, one of that "type" that
    has each of ``fields``."""
    doc = json.loads(Path(path).read_text())
    if kind and (not isinstance(doc, dict) or doc.get("type") != kind):
        raise ValueError(f"{path} is not a {kind} document")
    for key in fields:
        if key not in doc:
            raise ValueError(f"{kind} {path} has no {key!r} field")
    return doc


def _best_params(trained: dict) -> np.ndarray:
    """A train result's ``best_params``, checked once as a flat list of real
    numbers (never a bool, a string or a nested list)."""
    params = number_array("best_params", trained["best_params"])
    if params.ndim != 1:
        raise ValueError(f"best_params must be a flat list, got {trained['best_params']!r}")
    return params


def _load_distribution(path) -> Distribution:
    """The Distribution document at ``path``, or the empirical distribution
    of a SampleSet one (as ``sample`` and ``anneal --backend sa`` write)."""
    doc = _load_raw(path)
    kind = doc.get("type") if isinstance(doc, dict) else None
    if kind not in ("Distribution", "SampleSet"):
        raise ValueError(f"{path} is not a Distribution or SampleSet document")
    dist = from_dict(doc)
    return Distribution.from_sampleset(dist) if kind == "SampleSet" else dist


def _save_raw(path, doc: dict):
    write_json(_out_path(path), doc)


def _floats(text: str) -> list:
    return [float(tok) for tok in text.split(",") if tok.strip()]


# ---------------------------------------------------------------------------
# problems


def _check_use_case(use_case) -> None:
    """Raise ``ValueError`` naming the first field of a ``use_case`` entry
    that is missing, foreign to the named use case (a typo such as
    ``layuot``) or of the wrong type: ``cities`` and ``seed`` >= 0 are integers
    (a bool, float or string is refused, never truncated) and ``rho`` is "auto"
    or a penalty weight (``require_penalty``: a finite real number >= 0)."""
    if not isinstance(use_case, dict):
        raise ValueError(f"config field 'use_case' needs an object, got {use_case!r}")
    name = use_case.get("name")
    if not isinstance(name, str) or name not in _USE_CASE_FIELDS:
        raise ValueError(f"use_case field 'name' needs 'lama' or 'trp', got {name!r}")
    for key in use_case:
        if key != "name" and key not in _USE_CASE_FIELDS[name]:
            raise ValueError(f"use_case field {key!r} is not a {name} field")
    if name == "trp" and "cities" not in use_case:
        raise ValueError("use_case field 'cities' is required for trp")
    for key, least in (("cities", None), ("seed", 0)):
        require_integer(f"use_case field {key!r}", use_case.get(key, 0), least)
    rho = use_case.get("rho", "auto")
    if rho != "auto":
        require_penalty(rho)


def _flag_use_case(args) -> dict:
    """The ``use_case`` entry that ``build``'s and ``sweep``'s flags spell:
    the named use case's fields only, with ``--rho`` read as "auto" or a
    number."""
    rho = args.rho
    if rho != "auto":
        try:
            rho = float(rho)
        except ValueError:
            raise ValueError(f"--rho needs 'auto' or a number, got {rho!r}") from None
    fields = {key: getattr(args, key) for key in _USE_CASE_FIELDS[args.use_case]}
    return dict(fields, name=args.use_case, rho=rho)


class _Problem:
    """Hydrated bundle: QUBO plus use-case decoding context, and the one place
    that tells the use cases apart. The Ising model, oracle results and
    Trotter states are computed on first use and shared by every seed of a
    batch; a call that raises caches nothing, so each seed meets the same
    error."""

    def __init__(self, doc: dict):
        for key in ("use_case", "qubo", "spec"):
            if key not in doc:
                raise ValueError(f"problem bundle has no {key!r} field")
        self.doc = doc
        self.use_case = doc["use_case"]
        self.qubo = from_dict(doc["qubo"])
        if (found := type(self.qubo).__name__) != "QuboProblem":
            raise ValueError(f"bundle field 'qubo' holds a {found}, not a QuboProblem")
        self.spec = from_dict(doc["spec"])
        kind = type(self.spec).__name__
        if (self.use_case, kind) not in (("lama", "LamaSpec"), ("trp", "TrpSpec")):
            raise ValueError(f"bundle use_case {self.use_case!r} does not match its {kind} spec")
        if self.spec.num_qubits != self.num_qubits:
            raise ValueError(
                f"bundle {kind} spec needs {self.spec.num_qubits} bits, its qubo {self.num_qubits}"
            )
        self._trotter_states = {}

    @classmethod
    def build(cls, use_case: dict) -> _Problem:
        """The problem a `run` config's ``use_case`` entry names: ``{"name":
        "lama", "instance", "rho"}`` or ``{"name": "trp", "cities", "layout",
        "seed", "rho"}``, and no other key. ``rho`` "auto" (the default) is the
        minimal valid penalty for lama and 1.0 for trp."""
        _check_use_case(use_case)
        name, rho = use_case["name"], use_case.get("rho", "auto")
        doc = {
            "schema_version": SCHEMA_VERSION,
            "type": "ProblemBundle",
            "use_case": name,
        }
        if name == "lama":
            series = example_series()
            instance = use_case.get("instance")
            if not isinstance(instance, str) or instance not in series:
                known = ", ".join(sorted(series))
                raise ValueError(f"unknown instance {instance!r}; available: {known}")
            spec = series[instance]
            qcio, enc = build_lama(spec)
            if rho == "auto":
                if enc.num_bits > _PENALTY_SCAN_CAP:
                    raise ValueError(
                        f"automatic penalty needs <= {_PENALTY_SCAN_CAP} bits; pass --rho"
                    )
                rho = min_penalty(qcio, enc)
            doc["instance"] = instance
        else:
            spec = gen_cities(
                use_case["cities"], use_case.get("layout", "symmetric"),
                seed=use_case.get("seed", 0),
            )
            qcio, enc = trp_model(spec)
            rho = 1.0 if rho == "auto" else rho
        rho = float(rho)
        doc.update(rho=rho, spec=to_dict(spec))
        doc["qubo"] = to_dict(encode_binary(build_quio(qcio, rho), enc))
        return cls(doc)

    @functools.cached_property
    def ising(self) -> IsingModel:
        """``to_ising`` of the QUBO; its memoised cost diagonal goes with it."""
        return to_ising(self.qubo)

    def trotter_state(self, total_time: float, dt: float) -> StateVector:
        """``qa_trotter`` under the linear schedule; seed-independent, so
        evolved once per (total_time, dt). The Trotter anneal stage."""
        key = (total_time, dt)
        if key not in self._trotter_states:
            schedule = AnnealSchedule(total_time)
            self._trotter_states[key] = qa_trotter(self.ising, schedule, dt=dt)
        return self._trotter_states[key]

    @functools.cached_property
    def report(self) -> SolveReport:
        """``brute_force_solve`` of the QUBO, enumerated once."""
        return brute_force_solve(self.qubo)

    @property
    def num_qubits(self) -> int:
        return self.qubo.num_vars

    def decoder(self):
        """Bitstring -> (feasible, objective in use-case units); a charging
        schedule that is not feasible has no objective (None)."""
        spec = self.spec
        if self.use_case == "lama":

            def decode(s):
                levels, ok = decode_lama(s, spec)
                return ok, (lama_objective(levels) if ok else None)

        else:

            def decode(s):
                _, ok, length = decode_trp(s, spec)
                return ok, length

        return decode

    def optimal_cost(self) -> float:
        """Constrained optimum in decoder units (oracle; capped sizes)."""
        return self._optimum

    @functools.cached_property
    def _optimum(self) -> float:
        if self.use_case == "lama":
            if self.num_qubits > BRUTE_FORCE_CAP:
                raise ValueError("instance too large for the brute-force oracle")
            decoded = map(self.decoder(), self.report.optimal_set)
            cost = next((cost for ok, cost in decoded if ok), None)
            if cost is None:
                raise ValueError(
                    "no feasible minimizer at this penalty; increase --rho"
                )
            return cost
        m = self.spec.num_cities
        if m > _TOUR_ORACLE_CAP:
            raise ValueError("instance too large for the tour-enumeration oracle")
        return min(map(self.spec.tour_length, itertools.permutations(range(m))))

    def rates(self, samples) -> tuple:
        """Feasible and optimal percentages of ``samples``, scored against the
        oracle optimum; raises ``ValueError`` past the oracle's cap."""
        return solution_rates(samples, self.decoder(), self.optimal_cost())


def _load_problem(path) -> _Problem:
    return _Problem(_load_raw(path, "ProblemBundle"))


# ---------------------------------------------------------------------------
# pipeline stages: the subcommands and `run` call the same functions


def _train(ising: IsingModel, algorithm, layers, starts, max_iter, seed, shots=None):
    """Seeded COBYLA multistart on the ansatz energy; exact for ``shots=None``.
    The factories are looked up by name per call, so a wrapper set on this
    module's names (perfbench/spans.py) sees every objective."""
    factory = {"qaoa": qaoa_objective, "vqe": vqe_objective}[algorithm]
    objective = factory(ising, layers, shots, seed)
    sampler = uniform_sampler(
        num_params(algorithm, layers, ising.num_qubits), 0.0, START_RANGE[algorithm]
    )
    return multistart(
        objective, sampler, num_starts=starts, seed=seed, max_iter=max_iter
    )


def _sample(ising: IsingModel, algorithm: str, layers, params, shots, seed):
    """The ansatz state at ``params`` and ``shots`` seeded samples of it."""
    state = ansatz_state(ising, algorithm, layers, params)
    return state, sample_state(state, shots, seed)


def _sa_anneal(problem: _Problem, reads, sweeps, seed):
    """The SA anneal stage; the Trotter one is ``_Problem.trotter_state``."""
    return sa_sample(problem.qubo, SaConfig(num_reads=reads, sweeps=sweeps, seed=seed))


def _cost_scores(problem: _Problem, dist: Distribution, seed) -> tuple:
    """``relative_error`` of ``dist`` and the seeded ``random_baseline``, both
    against the brute-force QUBO optimum."""
    c_opt = problem.report.optimal_cost
    err = relative_error(dist, problem.qubo, c_opt)
    base = random_baseline(problem.qubo, c_opt=c_opt, seed=seed)
    return err, base


def _transpile(ising, algorithm, layers, params, coupling, basis, errmap, seeds):
    """Build the ansatz at ``params`` (0.5 everywhere when None), then route
    it on ``coupling``, lower and score it against ``errmap`` once per routing
    seed: one row per seed."""
    n = ising.num_qubits
    if params is None:
        params = np.full(num_params(algorithm, layers, n), 0.5)
    circ = ansatz_circuit(ising, algorithm, layers, params)
    circ.append(Gate("MEASURE", range(n)))
    rows = []
    for seed in seeds:
        routed = route(circ, coupling, Layout.trivial(n), seed=seed)
        lowered = decompose(routed.circuit, basis=basis)
        rows.append(
            {
                "seed": int(seed),
                "two_qubit_count": count_two_qubit(lowered),
                "circuit_score": circuit_score(lowered, errmap),
                "final_layout": list(routed.final_layout.assignment),
            }
        )
    return rows


def _topology(name: str, n: int) -> CouplingMap:
    if name == "line":
        return CouplingMap.line(max(n, 2))
    if name == "ring":
        return CouplingMap.ring(max(n, 3))
    if name == "full":
        return CouplingMap.full(max(n, 2))
    if name == "heavy_hex_27":
        if n > 27:
            raise ValueError("heavy_hex_27 holds at most 27 qubits")
        return CouplingMap.heavy_hex_27()
    raise ValueError(f"unknown topology {name!r}")


def _error_map(path, coupling: CouplingMap) -> ErrorMap:
    if path:
        return from_dict(_load_raw(path, "ErrorMap"))
    return ErrorMap.uniform(coupling, single=0.001, two=0.01, measure=0.02)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_build(args) -> int:
    problem = _Problem.build(_flag_use_case(args))
    _save_raw(args.output, problem.doc)
    print(
        f"built {args.use_case} problem: {problem.num_qubits} variables, "
        f"rho={problem.doc['rho']}"
    )
    return 0


def _cmd_solve_brute(args) -> int:
    problem = _load_problem(args.problem)
    report = problem.report
    print(f"optimal cost {report.optimal_cost!r}")
    print(f"optimal set ({len(report.optimal_set)}): {' '.join(report.optimal_set[:16])}")
    if args.output:
        _save_raw(args.output, to_dict(report))
    return 0


def _cmd_landscape(args) -> int:
    problem = _load_problem(args.problem)
    ising = problem.ising
    scape = cost_landscape(ising, resolution=args.grid, shots=args.shots, seed=args.seed)
    landscape_to_csv(scape, _out_path(args.output))
    print(
        f"landscape {args.grid}x{args.grid}: min {float(scape.grid.min())!r} "
        f"max {float(scape.grid.max())!r}"
    )
    return 0


def _cmd_train(args) -> int:
    problem = _load_problem(args.problem)
    report = _train(
        problem.ising, args.algorithm, args.layers, args.starts, args.max_iter,
        args.seed, shots=args.shots,
    )
    result = {
        "schema_version": SCHEMA_VERSION,
        "type": "TrainResult",
        "algorithm": args.algorithm,
        "layers": args.layers,
        "num_starts": args.starts,
        "best_cost": report.best_cost,
        "best_params": [float(v) for v in report.best_params],
        "final_costs": [t.final_cost for t in report.traces],
    }
    _save_raw(args.output, result)
    if args.traces:
        traces_to_csv(report.traces, _out_path(args.traces))
    print(f"trained {args.algorithm}: best cost {report.best_cost!r}")
    return 0


def _cmd_sample(args) -> int:
    problem = _load_problem(args.problem)
    result = _load_raw(args.train_result, "TrainResult", "algorithm", "layers", "best_params")
    _, samples = _sample(
        problem.ising, result["algorithm"], result["layers"],
        _best_params(result), args.shots, args.seed,
    )
    _save_raw(args.output, to_dict(samples))
    top = max(samples.counts, key=samples.counts.get)
    print(f"sampled {args.shots} shots; mode {top} x{samples.counts[top]}")
    return 0


def _cmd_anneal(args) -> int:
    problem = _load_problem(args.problem)
    if args.backend == "sa":
        samples = _sa_anneal(problem, args.reads, args.sweeps, args.seed)
        _save_raw(args.output, to_dict(samples))
        try:
            feas, opt = problem.rates(samples)
            print(f"sa: {args.reads} reads, feasible {feas}% optimal {opt}%")
        except ValueError as exc:  # the reason `run` records as oracle_note
            print(f"sa: {args.reads} reads ({exc})")
        return 0
    dist = Distribution.from_state(problem.trotter_state(args.total_time, args.dt))
    _save_raw(args.output, to_dict(dist))
    best = max(dist.probs, key=dist.probs.get)
    print(f"trotter T={args.total_time}: peak {best} p={dist.probs[best]!r}")
    return 0


def _cmd_transpile(args) -> int:
    problem = _load_problem(args.problem)
    params = None
    if args.params:
        trained = _load_raw(args.params, "TrainResult", "best_params")
        for key in ("algorithm", "layers"):  # optional; as written, so true is not 1
            if key in trained and repr(trained[key]) != repr(getattr(args, key)):
                raise ValueError(
                    f"{args.params} was trained with {key} {trained[key]!r}, "
                    f"not the --{key} {getattr(args, key)!r} asked for"
                )
        params = _best_params(trained)
    coupling = _topology(args.topology, problem.num_qubits)
    [record] = _transpile(
        problem.ising, args.algorithm, args.layers, params, coupling,
        args.basis, _error_map(args.error_map, coupling), [args.seed],
    )
    record.update(
        {
            "schema_version": SCHEMA_VERSION,
            "type": "TranspileReport",
            "topology": args.topology,
            "basis": args.basis,
        }
    )
    if args.output:
        _save_raw(args.output, record)
    print(
        f"two_qubit_count {record['two_qubit_count']} "
        f"circuit_score {record['circuit_score']!r}"
    )
    return 0


def _cmd_score(args) -> int:
    p, q = _load_distribution(args.p), _load_distribution(args.q)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "type": "ScoreReport",
        "fidelity": hellinger_fidelity(p, q),
    }
    if args.problem:
        err, base = _cost_scores(_load_problem(args.problem), p, args.seed)
        payload["relative_error"] = err.value
        payload["relative_error_is_absolute"] = err.is_absolute
        payload["random_baseline"] = base.value
    if args.output:
        _save_raw(args.output, payload)
    for key in ("fidelity", "relative_error", "random_baseline"):
        if key in payload:
            print(f"{key} {payload[key]!r}")
    return 0


def _cmd_sweep(args) -> int:
    """SA solution rates over penalty weights (the QUBO's rho) or annealing
    times (whole sweep counts), scored against the flags' problem."""
    values = sorted(_floats(args.values))
    if not values:
        raise ValueError("empty --values list")
    # bad flags and sweep counts fail before the oracle runs
    SaConfig(args.reads, args.sweeps, seed=args.seed)
    if args.axis == "time":
        for value in values:
            if not value.is_integer():
                raise ValueError(f"time-axis value {value!r} is not a whole sweep count")
            SaConfig(args.reads, int(value), seed=args.seed)
    use_case = _flag_use_case(args)
    problem = _Problem.build(use_case)
    problem.optimal_cost()  # the oracle must exist before any anneal
    rows = []
    for value in values:
        if args.axis == "penalty":
            point = _Problem.build(dict(use_case, rho=value))
            samples = _sa_anneal(point, args.reads, args.sweeps, args.seed)
        else:
            samples = _sa_anneal(problem, args.reads, int(value), args.seed)
        rows.append(SweepRow(value, *problem.rates(samples), args.reads))
    sweeps_to_csv(rows, _out_path(args.output))
    for row in rows:
        print(
            f"{args.axis} {row.axis_value!r}: feasible {row.feasible_pct!r}% "
            f"optimal {row.optimal_pct!r}%"
        )
    return 0


# ---------------------------------------------------------------------------
# experiment batches


def _settings(config: dict) -> dict:
    """``config`` over the ``_RUN_FIELDS`` defaults; raises ``ValueError``
    naming the first field that is unknown or of the wrong type, a count
    below 1, a negative seed, a time that is not finite and > 0, a
    ``_CHOICES`` value outside its choices or a non-path ``error_map``."""
    for name in config:
        if name not in _RUN_FIELDS and name not in ("use_case", "algorithm", "seeds"):
            raise ValueError(f"unknown config field {name!r}")
    settings = {**_RUN_FIELDS, "algorithm": None, **config}
    for name, choices in _CHOICES.items():
        if settings[name] not in choices:
            raise ValueError(
                f"config field {name!r} needs one of {', '.join(choices)}, "
                f"got {settings[name]!r}"
            )
    if not isinstance(settings["error_map"], (str, type(None))):
        raise ValueError(
            f"config field 'error_map' needs null or a path, got {settings['error_map']!r}"
        )
    for name, default in [("seeds", 0), *_RUN_FIELDS.items()]:
        value, field = settings[name], f"config field {name!r}"
        if isinstance(default, float):
            require_real(field, value)
            if not 0 < value < np.inf:
                raise ValueError(f"{field} must be a finite number > 0, got {value!r}")
        elif isinstance(default, int):
            listed = name in _SEED_FIELDS and isinstance(value, list)
            for item in value if listed else [value]:
                require_integer(field, item, least=0 if name in _SEED_FIELDS else 1)
    return settings


def _variational_record(problem, settings, seed, device) -> dict:
    algorithm, layers = settings["algorithm"], settings["layers"]
    ising = problem.ising
    report = _train(
        ising, algorithm, layers, settings["starts"], settings["max_iter"], seed
    )
    state, samples = _sample(
        ising, algorithm, layers, report.best_params, settings["shots"], seed
    )
    empirical = Distribution.from_sampleset(samples)
    record = {
        "seed": seed,
        "best_cost": report.best_cost,
        "best_params": [float(v) for v in report.best_params],
        "fidelity": state_fidelity(empirical, state),
        "counts": dict(samples.counts),
    }
    try:
        err, base = _cost_scores(problem, empirical, seed)
        record["relative_error"] = err.value
        record["random_baseline"] = base.value
        record["feasible_pct"], record["optimal_pct"] = problem.rates(samples)
    except ValueError as exc:
        record["oracle_note"] = str(exc)
    if device:
        coupling, errmap = device
        record["transpile"] = _transpile(
            ising, algorithm, layers, report.best_params, coupling,
            settings["basis"], errmap, settings["routing_seeds"],
        )
    return record


def _anneal_record(problem, settings, seed) -> dict:
    if settings["algorithm"] == "sa":
        samples = _sa_anneal(problem, settings["reads"], settings["sweeps"], seed)
    else:
        state = problem.trotter_state(
            float(settings["total_time"]), float(settings["dt"])
        )
        samples = sample_state(state, settings["shots"], seed)
    record = {"seed": seed, "counts": dict(samples.counts)}
    try:
        record["feasible_pct"], record["optimal_pct"] = problem.rates(samples)
    except ValueError as exc:
        record["oracle_note"] = str(exc)
    return record


def run(config: dict) -> dict:
    """Execute one experiment batch; every record is seeded, failures are
    captured per seed without aborting the batch."""
    if not isinstance(config, dict):
        raise ValueError(f"a run config needs a JSON object, got {config!r}")
    seeds = config.get("seeds")
    if not isinstance(seeds, list) or not seeds:
        raise ValueError("config needs a nonempty 'seeds' list")
    if "use_case" not in config:
        raise ValueError("config needs a 'use_case' object")
    settings = _settings(config)
    algorithm = settings["algorithm"]
    problem = _Problem.build(config["use_case"])
    routing = settings["routing_seeds"]
    if not isinstance(routing, list):
        settings["routing_seeds"] = routing = range(routing)
    device = None  # read once, before any seed trains
    if algorithm in ANSATZE and routing:
        coupling = _topology(settings["topology"], problem.num_qubits)
        device = coupling, _error_map(settings["error_map"], coupling)
    records = []
    for seed in map(int, seeds):
        try:
            if algorithm == "brute":
                report = problem.report
                record = {
                    "seed": seed,
                    "optimal_cost": report.optimal_cost,
                    "optimal_set": list(report.optimal_set),
                    "evaluations": report.evaluations,
                }
            elif algorithm in ANSATZE:
                record = _variational_record(problem, settings, seed, device)
            else:
                record = _anneal_record(problem, settings, seed)
        except Exception as exc:  # per-seed isolation
            record = {"seed": seed, "error": str(exc)}
        records.append(record)
    canonical = json.dumps(config, sort_keys=True)
    return {
        "schema_version": SCHEMA_VERSION,
        "type": "ExperimentResult",
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "records": records,
    }


def _cmd_run(args) -> int:
    config = _load_raw(args.config)
    result = run(config)
    _save_raw(args.output, result)
    failures = [r for r in result["records"] if "error" in r]
    print(
        f"ran {config['algorithm']} over {len(result['records'])} seeds "
        f"({len(failures)} failed); hash {result['config_hash'][:12]}"
    )
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# parser


_PROBLEM = ("problem", "problem bundle JSON from `build`")


def _command(sub, name, func, help, *positionals, seed=True, output_required=True):
    """Subcommand ``name`` running ``func``, with its ``(name, help)``
    positionals, ``--seed`` (unless ``seed`` is false) and ``-o/--output``."""
    p = sub.add_parser(name, help=help)
    for arg, arg_help in positionals:
        p.add_argument(arg, help=arg_help)
    if seed:
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=output_required)
    p.set_defaults(func=func)
    return p


def _add_run_fields(p, *names):
    """``--<name>`` for each named ``_RUN_FIELDS`` entry, defaulting to it
    and taking its ``_CHOICES`` or the type of its default."""
    for name in names:
        default = _RUN_FIELDS[name]
        kind = {"choices": _CHOICES[name]} if name in _CHOICES else {"type": type(default)}
        p.add_argument("--" + name.replace("_", "-"), default=default, **kind)


def _add_use_case_args(p):
    """The use case and its flags, as ``_flag_use_case`` reads them; ``--seed``
    comes from ``_command``."""
    p.add_argument("use_case", choices=["lama", "trp"])
    p.add_argument("--instance", default="Ex0p1", help="charging example name")
    p.add_argument("--cities", type=int, default=4)
    p.add_argument("--layout", choices=["symmetric", "asymmetric"], default="symmetric")
    p.add_argument("--rho", default="auto", help="penalty weight or 'auto'")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qubolab",
        description="QUBO workbench: problem building, variational training, "
        "annealing, transpilation, and quality scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "build", _cmd_build, "emit a problem bundle JSON")
    _add_use_case_args(p)

    _command(sub, "solve-brute", _cmd_solve_brute, "exact enumeration of a problem bundle",
             _PROBLEM, seed=False, output_required=False)

    p = _command(sub, "landscape", _cmd_landscape, "p=1 QAOA energy grid as CSV", _PROBLEM)
    p.add_argument("--grid", type=int, default=50)
    p.add_argument("--shots", type=int, default=None)

    p = _command(sub, "train", _cmd_train, "multi-start variational optimization", _PROBLEM)
    p.add_argument("--algorithm", choices=ANSATZE, default=ANSATZE[0])
    _add_run_fields(p, "layers", "starts", "max_iter")
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--traces", help="optional CSV of per-run convergence")

    p = _command(sub, "sample", _cmd_sample, "shots from a trained state",
                 _PROBLEM, ("train_result", "JSON from `train`"))
    _add_run_fields(p, "shots")

    p = _command(sub, "anneal", _cmd_anneal, "simulated annealing or Trotter evolution", _PROBLEM)
    p.add_argument("--backend", choices=["sa", "trotter"], default="sa")
    _add_run_fields(p, "reads", "sweeps", "total_time", "dt")

    p = _command(sub, "transpile", _cmd_transpile, "route + decompose + count + score",
                 _PROBLEM, output_required=False)
    p.add_argument("--algorithm", choices=ANSATZE, default=ANSATZE[0])
    _add_run_fields(p, "layers", "basis")
    p.add_argument("--topology", choices=_CHOICES["topology"], default="heavy_hex_27")
    p.add_argument("--error-map", help="ErrorMap JSON; uniform defaults otherwise")
    p.add_argument("--params", help="train result JSON to bind angles from")

    p = _command(sub, "score", _cmd_score, "quality metrics from two distribution files",
                 ("p", "empirical Distribution or SampleSet JSON"),
                 ("q", "reference Distribution or SampleSet JSON"), output_required=False)
    p.add_argument("--problem", help="bundle JSON enabling cost-error metrics")

    p = _command(sub, "sweep", _cmd_sweep, "SA solution-rate scan over penalty or time")
    _add_use_case_args(p)
    p.add_argument("--axis", choices=["penalty", "time"], default="penalty")
    p.add_argument("--values", required=True, help="comma-separated axis values")
    _add_run_fields(p, "reads", "sweeps")

    _command(sub, "run", _cmd_run, "seeded experiment batch from a config JSON",
             ("config", "ExperimentConfig JSON"), seed=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        require_integer("--seed", getattr(args, "seed", 0), least=0)
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
