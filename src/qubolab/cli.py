"""Command-line workbench: build problems, train, sample, anneal, transpile,
score, sweep, and run full seeded experiment batches.

Everything is deterministic given the flags/config (all randomness is
seeded), results declare a schema version, and runtime failures exit 1 while
usage errors exit 2 (argparse's convention).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .annealer import AnnealSchedule, SaConfig, qa_trotter, sa_sample, sweep
from .model import (
    BRUTE_FORCE_CAP,
    IsingModel,
    brute_force_solve,
    build_quio,
    encode_binary,
    min_penalty,
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
    save_json,
    sweeps_to_csv,
    to_dict,
    traces_to_csv,
)
from .simulator import run_circuit, sample as sample_state
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
    TrpSpec,
    build_lama,
    build_trp,
    decode_lama,
    decode_trp,
    example_series,
    gen_cities,
    lama_objective,
    route_to_bits,
)
from .variational import (
    QaoaParams,
    cost_landscape,
    qaoa_circuit,
    qaoa_objective,
    qaoa_state_fast,
    vqe_circuit,
    vqe_objective,
)

_PENALTY_SCAN_CAP = 16  # min_penalty enumerates 2^N points
_TOUR_ORACLE_CAP = 9  # permutation enumeration for TRP optima


def _out_path(name) -> Path:
    """Resolve an output path; QUBOLAB_OUTDIR redirects bare relative names."""
    path = Path(name)
    base = os.environ.get("QUBOLAB_OUTDIR")
    if base and not path.is_absolute():
        return Path(base) / path
    return path


def _load_raw(path) -> dict:
    return json.loads(Path(path).read_text())


def _save_raw(path, doc: dict):
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    _out_path(path).write_text(text)


def _floats(text: str) -> list:
    return [float(tok) for tok in text.split(",") if tok.strip()]


# ---------------------------------------------------------------------------
# problem bundles


def _lama_bundle(instance: str, rho) -> dict:
    series = example_series()
    if instance not in series:
        raise ValueError(
            f"unknown instance {instance!r}; available: {', '.join(sorted(series))}"
        )
    spec = series[instance]
    qcio, enc = build_lama(spec)
    if rho == "auto":
        if enc.num_bits > _PENALTY_SCAN_CAP:
            raise ValueError(
                f"automatic penalty needs <= {_PENALTY_SCAN_CAP} bits; pass --rho"
            )
        rho = min_penalty(qcio, enc)
    rho = float(rho)
    qubo = encode_binary(build_quio(qcio, rho), enc)
    return {
        "schema_version": SCHEMA_VERSION,
        "type": "ProblemBundle",
        "use_case": "lama",
        "instance": instance,
        "rho": rho,
        "spec": to_dict(spec),
        "qcio": to_dict(qcio),
        "encoding": to_dict(enc),
        "qubo": to_dict(qubo),
    }


def _trp_bundle(cities: int, layout: str, seed: int, rho: float) -> dict:
    spec = gen_cities(cities, layout, seed=seed, rho=rho)
    qubo = build_trp(spec)
    return {
        "schema_version": SCHEMA_VERSION,
        "type": "ProblemBundle",
        "use_case": "trp",
        "rho": float(rho),
        "spec": to_dict(spec),
        "qubo": to_dict(qubo),
    }


class _Problem:
    """Hydrated bundle: QUBO plus use-case decoding context."""

    def __init__(self, doc: dict):
        if doc.get("type") != "ProblemBundle":
            raise ValueError("not a problem bundle (run `qubolab build` first)")
        self.doc = doc
        self.use_case = doc["use_case"]
        self.qubo = from_dict(doc["qubo"])
        self.spec = from_dict(doc["spec"])

    @property
    def num_qubits(self) -> int:
        return self.qubo.num_vars

    def decoder(self):
        if self.use_case == "lama":
            spec = self.spec

            def decode(s):
                schedule, ok = decode_lama(s, spec)
                return ok, lama_objective(schedule)

            return decode
        spec = self.spec

        def decode(s):
            _, ok, length = decode_trp(s, spec)
            return ok, length

        return decode

    def optimal_cost(self) -> float:
        """Constrained optimum in decoder units (oracle; capped sizes)."""
        if self.use_case == "lama":
            if self.num_qubits > BRUTE_FORCE_CAP:
                raise ValueError("instance too large for the brute-force oracle")
            report = brute_force_solve(self.qubo)
            decode = self.decoder()
            feasible = [decode(s) for s in report.optimal_set if decode(s)[0]]
            if not feasible:
                raise ValueError(
                    "no feasible minimizer at this penalty; increase --rho"
                )
            return feasible[0][1]
        m = self.spec.num_cities
        if m > _TOUR_ORACLE_CAP:
            raise ValueError("instance too large for the tour-enumeration oracle")
        best = np.inf
        for order in itertools.permutations(range(m)):
            _, _, length = decode_trp(route_to_bits(list(order), m), self.spec)
            best = min(best, length)
        return float(best)


def _load_problem(path) -> _Problem:
    return _Problem(_load_raw(path))


# ---------------------------------------------------------------------------
# circuits, topologies, error maps


def _trained_state(ising: IsingModel, algorithm: str, layers: int, params):
    vector = np.asarray(params, dtype=float)
    if algorithm == "qaoa":
        return qaoa_state_fast(ising, QaoaParams.from_vector(vector))
    return run_circuit(vqe_circuit(ising.num_qubits, layers).bind(vector))


def _ansatz_circuit(ising: IsingModel, algorithm: str, layers: int, params=None):
    n = ising.num_qubits
    if algorithm == "qaoa":
        template = qaoa_circuit(ising, layers)
    elif algorithm == "vqe":
        template = vqe_circuit(n, layers)
    else:
        raise ValueError(f"no circuit form for algorithm {algorithm!r}")
    if params is None:
        params = np.full(template.num_params, 0.5)
    circ = template.bind(np.asarray(params, dtype=float))
    circ.measure(*range(n))
    return circ


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
        errmap = from_dict(_load_raw(path))
        if not isinstance(errmap, ErrorMap):
            raise ValueError("error-map file does not contain an ErrorMap")
        return errmap
    return ErrorMap.uniform(coupling, single=0.001, two=0.01, measure=0.02)


def _transpile_once(circ, coupling, errmap, basis, seed):
    routed = route(circ, coupling, Layout.trivial(circ.num_qubits), seed=seed)
    lowered = decompose(routed.circuit, basis=basis)
    return {
        "seed": int(seed),
        "two_qubit_count": count_two_qubit(lowered),
        "circuit_score": circuit_score(lowered, errmap),
        "final_layout": list(routed.final_layout.assignment),
    }


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_build(args) -> int:
    if args.use_case == "lama":
        bundle = _lama_bundle(args.instance, args.rho)
    else:
        rho = 1.0 if args.rho == "auto" else float(args.rho)
        bundle = _trp_bundle(args.cities, args.layout, args.seed, rho)
    _save_raw(args.output, bundle)
    qubo = from_dict(bundle["qubo"])
    print(f"built {args.use_case} problem: {qubo.num_vars} variables, rho={bundle['rho']}")
    return 0


def _cmd_solve_brute(args) -> int:
    problem = _load_problem(args.problem)
    report = brute_force_solve(problem.qubo)
    print(f"optimal cost {report.optimal_cost!r}")
    print(f"optimal set ({len(report.optimal_set)}): {' '.join(report.optimal_set[:16])}")
    if args.output:
        save_json(_out_path(args.output), report)
    return 0


def _cmd_landscape(args) -> int:
    problem = _load_problem(args.problem)
    ising = to_ising(problem.qubo)
    scape = cost_landscape(ising, resolution=args.grid, shots=args.shots, seed=args.seed)
    landscape_to_csv(scape, _out_path(args.output))
    print(
        f"landscape {args.grid}x{args.grid}: min {scape.grid.min()!r} "
        f"max {scape.grid.max()!r}"
    )
    return 0


def _cmd_train(args) -> int:
    problem = _load_problem(args.problem)
    ising = to_ising(problem.qubo)
    if args.algorithm == "qaoa":
        objective = qaoa_objective(ising, shots=args.shots, seed=args.seed)
        sampler = uniform_sampler(2 * args.layers, 0.0, np.pi)
    else:
        objective = vqe_objective(ising, args.layers, shots=args.shots, seed=args.seed)
        sampler = uniform_sampler(
            ising.num_qubits * (args.layers + 1), 0.0, 2.0 * np.pi
        )
    report = multistart(
        objective,
        sampler,
        num_starts=args.starts,
        seed=args.seed,
        max_iter=args.max_iter,
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
    result = _load_raw(args.train_result)
    if result.get("type") != "TrainResult":
        raise ValueError("second argument must be a train result file")
    state = _trained_state(
        to_ising(problem.qubo), result["algorithm"], result["layers"],
        result["best_params"],
    )
    samples = sample_state(state, args.shots, args.seed)
    save_json(_out_path(args.output), samples)
    top = max(samples.counts, key=samples.counts.get)
    print(f"sampled {args.shots} shots; mode {top} x{samples.counts[top]}")
    return 0


def _cmd_anneal(args) -> int:
    problem = _load_problem(args.problem)
    if args.backend == "sa":
        cfg = SaConfig(num_reads=args.reads, sweeps=args.sweeps, seed=args.seed)
        samples = sa_sample(problem.qubo, cfg)
        save_json(_out_path(args.output), samples)
        decode = problem.decoder()
        try:
            c_opt = problem.optimal_cost()
            feas, opt = solution_rates(samples, decode, c_opt)
            print(f"sa: {args.reads} reads, feasible {feas}% optimal {opt}%")
        except ValueError:
            print(f"sa: {args.reads} reads (no oracle at this size)")
        return 0
    ising = to_ising(problem.qubo)
    state = qa_trotter(ising, AnnealSchedule.linear(args.total_time), dt=args.dt)
    dist = Distribution.from_state(state)
    save_json(_out_path(args.output), dist)
    best = max(dist.probs, key=dist.probs.get)
    print(f"trotter T={args.total_time}: peak {best} p={dist.probs[best]!r}")
    return 0


def _cmd_transpile(args) -> int:
    problem = _load_problem(args.problem)
    params = None
    if args.params:
        params = _load_raw(args.params)["best_params"]
    circ = _ansatz_circuit(to_ising(problem.qubo), args.algorithm, args.layers, params)
    coupling = _topology(args.topology, circ.num_qubits)
    errmap = _error_map(args.error_map, coupling)
    record = _transpile_once(circ, coupling, errmap, args.basis, args.seed)
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
    p = from_dict(_load_raw(args.p))
    q = from_dict(_load_raw(args.q))
    if not isinstance(p, Distribution) or not isinstance(q, Distribution):
        raise ValueError("score expects two Distribution files")
    fidelity = hellinger_fidelity(p, q)
    print(f"fidelity {fidelity!r}")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "type": "ScoreReport",
        "fidelity": fidelity,
    }
    if args.problem:
        problem = _load_problem(args.problem)
        report = brute_force_solve(problem.qubo)
        err = relative_error(p, problem.qubo, report.optimal_cost)
        base = random_baseline(
            problem.num_qubits, problem.qubo, c_opt=report.optimal_cost, seed=args.seed
        )
        payload["relative_error"] = err.value
        payload["relative_error_is_absolute"] = err.is_absolute
        payload["random_baseline"] = base.value
        print(f"relative_error {err.value!r}")
        print(f"random_baseline {base.value!r}")
    if args.output:
        _save_raw(args.output, payload)
    return 0


def _cmd_sweep(args) -> int:
    values = _floats(args.values)
    if not values:
        raise ValueError("empty --values list")
    cfg = SaConfig(num_reads=args.reads, sweeps=args.sweeps, seed=args.seed)
    if args.use_case == "lama":
        bundle = _lama_bundle(args.instance, args.rho)
    else:
        rho = 1.0 if args.rho == "auto" else float(args.rho)
        bundle = _trp_bundle(args.cities, args.layout, args.seed, rho)
    problem = _Problem(bundle)
    decoder = problem.decoder()
    c_opt = problem.optimal_cost()
    if args.axis == "penalty":
        if problem.use_case == "lama":
            qcio = from_dict(bundle["qcio"])
            enc = from_dict(bundle["encoding"])
            family = lambda rho: encode_binary(build_quio(qcio, rho), enc)
        else:
            spec = problem.spec
            family = lambda rho: build_trp(
                TrpSpec(spec.num_cities, spec.distances, spec.layout, rho)
            )
        rows = sweep("penalty", values, family, decoder, c_opt, cfg)
    else:
        rows = sweep("time", values, problem.qubo, decoder, c_opt, cfg)
    sweeps_to_csv(rows, _out_path(args.output))
    for row in rows:
        print(
            f"{args.axis} {row.axis_value!r}: feasible {row.feasible_pct!r}% "
            f"optimal {row.optimal_pct!r}%"
        )
    return 0


# ---------------------------------------------------------------------------
# experiment batches


def _experiment_problem(config: dict) -> _Problem:
    uc = config["use_case"]
    if uc["name"] == "lama":
        return _Problem(_lama_bundle(uc["instance"], uc.get("rho", "auto")))
    return _Problem(
        _trp_bundle(
            uc["cities"], uc.get("layout", "symmetric"), uc.get("seed", 0),
            uc.get("rho", 1.0),
        )
    )


def _routing_seeds(config: dict) -> list:
    raw = config.get("routing_seeds", 0)
    if isinstance(raw, int):
        return list(range(raw))
    return [int(s) for s in raw]


def _variational_record(problem, config, seed) -> dict:
    algorithm = config["algorithm"]
    layers = int(config.get("layers", 1))
    shots = int(config.get("shots", 10000))
    starts = int(config.get("starts", 50))
    max_iter = int(config.get("max_iter", 1000))
    ising = to_ising(problem.qubo)
    if algorithm == "qaoa":
        objective = qaoa_objective(ising)
        sampler = uniform_sampler(2 * layers, 0.0, np.pi)
    else:
        objective = vqe_objective(ising, layers)
        sampler = uniform_sampler(ising.num_qubits * (layers + 1), 0.0, 2.0 * np.pi)
    report = multistart(
        objective, sampler, num_starts=starts, seed=seed, max_iter=max_iter
    )
    state = _trained_state(ising, algorithm, layers, report.best_params)
    samples = sample_state(state, shots, seed)
    empirical = Distribution.from_sampleset(samples)
    record = {
        "seed": int(seed),
        "best_cost": report.best_cost,
        "best_params": [float(v) for v in report.best_params],
        "fidelity": state_fidelity(empirical, state),
        "counts": dict(samples.counts),
    }
    try:
        c_opt_qubo = brute_force_solve(problem.qubo).optimal_cost
        err = relative_error(empirical, problem.qubo, c_opt_qubo)
        record["relative_error"] = err.value
        record["random_baseline"] = random_baseline(
            problem.num_qubits, problem.qubo, seed=seed, c_opt=c_opt_qubo
        ).value
        feas, opt = solution_rates(samples, problem.decoder(), problem.optimal_cost())
        record["feasible_pct"] = feas
        record["optimal_pct"] = opt
    except ValueError as exc:
        record["oracle_note"] = str(exc)
    transpile_cfg = {
        "topology": config.get("topology", "full"),
        "basis": config.get("basis", "CX"),
    }
    routing = _routing_seeds(config)
    if routing:
        circ = _ansatz_circuit(ising, algorithm, layers, report.best_params)
        coupling = _topology(transpile_cfg["topology"], circ.num_qubits)
        errmap = _error_map(config.get("error_map"), coupling)
        record["transpile"] = [
            _transpile_once(circ, coupling, errmap, transpile_cfg["basis"], rs)
            for rs in routing
        ]
    return record


def _anneal_record(problem, config, seed) -> dict:
    algorithm = config["algorithm"]
    if algorithm == "sa":
        cfg = SaConfig(
            num_reads=int(config.get("reads", 400)),
            sweeps=int(config.get("sweeps", 1000)),
            seed=seed,
        )
        samples = sa_sample(problem.qubo, cfg)
    else:
        ising = to_ising(problem.qubo)
        schedule = AnnealSchedule.linear(float(config.get("total_time", 50.0)))
        state = qa_trotter(ising, schedule, dt=float(config.get("dt", 0.01)))
        samples = sample_state(state, int(config.get("shots", 10000)), seed)
    record = {"seed": int(seed), "counts": dict(samples.counts)}
    try:
        feas, opt = solution_rates(samples, problem.decoder(), problem.optimal_cost())
        record["feasible_pct"] = feas
        record["optimal_pct"] = opt
    except ValueError as exc:
        record["oracle_note"] = str(exc)
    return record


def run(config: dict) -> dict:
    """Execute one experiment batch; every record is seeded, failures are
    captured per seed without aborting the batch."""
    seeds = config.get("seeds")
    if not seeds:
        raise ValueError("config needs a nonempty 'seeds' list")
    algorithm = config.get("algorithm")
    if algorithm not in ("qaoa", "vqe", "sa", "qa-trotter", "brute"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    problem = _experiment_problem(config)
    records = []
    for seed in seeds:
        try:
            if algorithm == "brute":
                report = brute_force_solve(problem.qubo)
                record = {
                    "seed": int(seed),
                    "optimal_cost": report.optimal_cost,
                    "optimal_set": list(report.optimal_set),
                    "evaluations": report.evaluations,
                }
            elif algorithm in ("qaoa", "vqe"):
                record = _variational_record(problem, config, int(seed))
            else:
                record = _anneal_record(problem, config, int(seed))
        except Exception as exc:  # per-seed isolation
            record = {"seed": int(seed), "error": str(exc)}
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


def _add_common_problem_arg(p):
    p.add_argument("problem", help="problem bundle JSON from `build`")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubolab",
        description="QUBO workbench: problem building, variational training, "
        "annealing, transpilation, and quality scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="emit a problem bundle JSON")
    p.add_argument("use_case", choices=["lama", "trp"])
    p.add_argument("--instance", default="Ex0p1", help="charging example name")
    p.add_argument("--cities", type=int, default=4)
    p.add_argument("--layout", choices=["symmetric", "asymmetric"], default="symmetric")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rho", default="auto", help="penalty weight or 'auto'")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("solve-brute", help="exact enumeration of a problem bundle")
    _add_common_problem_arg(p)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_solve_brute)

    p = sub.add_parser("landscape", help="p=1 QAOA energy grid as CSV")
    _add_common_problem_arg(p)
    p.add_argument("--grid", type=int, default=50)
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_landscape)

    p = sub.add_parser("train", help="multi-start variational optimization")
    _add_common_problem_arg(p)
    p.add_argument("--algorithm", choices=["qaoa", "vqe"], default="qaoa")
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--starts", type=int, default=50)
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--traces", help="optional CSV of per-run convergence")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sample", help="shots from a trained state")
    _add_common_problem_arg(p)
    p.add_argument("train_result", help="JSON from `train`")
    p.add_argument("--shots", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("anneal", help="simulated annealing or Trotter evolution")
    _add_common_problem_arg(p)
    p.add_argument("--backend", choices=["sa", "trotter"], default="sa")
    p.add_argument("--reads", type=int, default=400)
    p.add_argument("--sweeps", type=int, default=1000)
    p.add_argument("--total-time", type=float, default=50.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_anneal)

    p = sub.add_parser("transpile", help="route + decompose + count + score")
    _add_common_problem_arg(p)
    p.add_argument("--algorithm", choices=["qaoa", "vqe"], default="qaoa")
    p.add_argument("--layers", type=int, default=1)
    p.add_argument(
        "--topology",
        choices=["line", "ring", "full", "heavy_hex_27"],
        default="heavy_hex_27",
    )
    p.add_argument("--basis", choices=["CX", "CZ", "ECR"], default="CX")
    p.add_argument("--error-map", help="ErrorMap JSON; uniform defaults otherwise")
    p.add_argument("--params", help="train result JSON to bind angles from")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_transpile)

    p = sub.add_parser("score", help="quality metrics from two distribution files")
    p.add_argument("p", help="empirical Distribution JSON")
    p.add_argument("q", help="reference Distribution JSON")
    p.add_argument("--problem", help="bundle JSON enabling cost-error metrics")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("sweep", help="SA solution-rate scan over penalty or time")
    p.add_argument("use_case", choices=["lama", "trp"])
    p.add_argument("--instance", default="Ex0p1")
    p.add_argument("--cities", type=int, default=4)
    p.add_argument("--layout", choices=["symmetric", "asymmetric"], default="symmetric")
    p.add_argument("--axis", choices=["penalty", "time"], default="penalty")
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--rho", default="auto", help="penalty for the time axis")
    p.add_argument("--reads", type=int, default=400)
    p.add_argument("--sweeps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("run", help="seeded experiment batch from a config JSON")
    p.add_argument("config", help="ExperimentConfig JSON")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
