"""Output checks on `qubolab run` result documents.

The oracles are computed here, not read from the program: C*_qubo by
``brute_force_solve`` on the bundle that `qubolab build` writes, and for
truck routing the shortest tour by enumerating city orders over the raw
distance matrix. Each function returns a list of violation strings; an empty
list means the record passed.
"""

from __future__ import annotations

import itertools
import json

from qubolab.model import brute_force_solve
from qubolab.serialize import from_dict
from qubolab.usecases import decode_lama, decode_trp, lama_objective

_TOL = 1e-9


class Oracle:
    """Optimum of one problem bundle in QUBO units and in decoder units."""

    def __init__(self, bundle: dict):
        self.use_case = bundle["use_case"]
        self.qubo = from_dict(bundle["qubo"])
        self.spec = from_dict(bundle["spec"])
        self.num_bits = self.qubo.num_vars
        report = brute_force_solve(self.qubo)
        self.qubo_optimum = report.optimal_cost
        if self.use_case == "trp":
            self.optimum = _shortest_tour(self.spec.distances)
        else:
            objectives = [
                lama_objective(schedule)
                for schedule, ok in (decode_lama(s, self.spec) for s in report.optimal_set)
                if ok
            ]
            self.optimum = min(objectives)

    def rates(self, counts: dict, shots: int) -> tuple:
        """(feasible_pct, optimal_pct) of sampled bitstrings."""
        feasible = optimal = 0
        for bits, count in counts.items():
            if self.use_case == "trp":
                _, ok, cost = decode_trp(bits, self.spec)
            else:
                schedule, ok = decode_lama(bits, self.spec)
                cost = lama_objective(schedule) if ok else None
            if ok:
                feasible += count
                if abs(cost - self.optimum) <= _TOL:
                    optimal += count
        return 100.0 * feasible / shots, 100.0 * optimal / shots


def _shortest_tour(distances) -> float:
    m = len(distances)
    best = float("inf")
    for rest in itertools.permutations(range(1, m)):
        order = (0,) + rest
        length = sum(distances[order[t]][order[(t + 1) % m]] for t in range(m))
        best = min(best, float(length))
    return best


def _shots(config: dict) -> int:
    if config["algorithm"] == "sa":
        return int(config.get("reads", 400))
    return int(config.get("shots", 10000))


def check_record(record: dict, seed: int, config: dict, oracle: Oracle) -> list:
    """Violations of one seed record of ``config``."""
    if "error" in record:
        return [f"seed {seed}: program error: {record['error']}"]
    problems = []
    if record.get("seed") != seed:
        problems.append(f"seed {seed}: record carries seed {record.get('seed')}")
    shots = _shots(config)
    counts = record.get("counts", {})
    bad_keys = [
        k for k in counts
        if len(k) != oracle.num_bits or set(k) - {"0", "1"}
    ]
    if bad_keys:
        problems.append(f"seed {seed}: malformed bitstrings {bad_keys[:3]}")
    if any(not isinstance(v, int) or v < 1 for v in counts.values()):
        problems.append(f"seed {seed}: counts must be positive integers")
    if sum(counts.values()) != shots:
        problems.append(f"seed {seed}: counts sum to {sum(counts.values())}, not {shots}")
    if "feasible_pct" not in record or "optimal_pct" not in record:
        problems.append(f"seed {seed}: no solution rates ({record.get('oracle_note')})")
    else:
        feasible, optimal = record["feasible_pct"], record["optimal_pct"]
        if not 0.0 <= optimal <= feasible <= 100.0:
            problems.append(
                f"seed {seed}: need 0 <= optimal_pct {optimal} <= "
                f"feasible_pct {feasible} <= 100"
            )
        if not bad_keys:
            want = oracle.rates(counts, shots)
            if abs(want[0] - feasible) > _TOL or abs(want[1] - optimal) > _TOL:
                problems.append(
                    f"seed {seed}: rates {feasible}/{optimal}, oracle gives "
                    f"{want[0]}/{want[1]}"
                )
    if config["algorithm"] in ("qaoa", "vqe"):
        problems += _check_variational(record, seed, config, oracle)
    return problems


def _check_variational(record, seed, config, oracle) -> list:
    problems = []
    layers = int(config.get("layers", 1))
    if config["algorithm"] == "qaoa":
        want_params = 2 * layers
    else:
        want_params = oracle.num_bits * (layers + 1)
    if len(record["best_params"]) != want_params:
        problems.append(f"seed {seed}: {len(record['best_params'])} parameters")
    if record["best_cost"] < oracle.qubo_optimum - _TOL:
        problems.append(
            f"seed {seed}: best_cost {record['best_cost']} below C* "
            f"{oracle.qubo_optimum}"
        )
    if not 0.0 <= record["fidelity"] <= 1.0 + _TOL:
        problems.append(f"seed {seed}: fidelity {record['fidelity']} outside [0, 1]")
    if not record.get("relative_error", 0.0) >= 0.0:
        problems.append(f"seed {seed}: negative relative_error")
    routing = config.get("routing_seeds", 0)
    transpile = record.get("transpile", [])
    if len(transpile) != routing:
        problems.append(f"seed {seed}: {len(transpile)} routing results, want {routing}")
    for entry in transpile:
        if not (isinstance(entry["two_qubit_count"], int) and entry["two_qubit_count"] >= 0):
            problems.append(f"seed {seed}: bad two_qubit_count {entry['two_qubit_count']}")
        if not 0.0 < entry["circuit_score"] <= 1.0:
            problems.append(f"seed {seed}: circuit_score {entry['circuit_score']} outside (0, 1]")
    return problems


def check_result(doc: dict, config: dict, oracle: Oracle) -> list:
    """Per-record violation lists of one result document, in seed order;
    a missing or extra record counts as a failed record."""
    records = doc.get("records", [])
    seeds = config["seeds"]
    out = [
        check_record(rec, seed, config, oracle) for rec, seed in zip(records, seeds)
    ]
    out += [["record missing"]] * (len(seeds) - len(records))
    out += [["unexpected record"]] * (len(records) - len(seeds))
    return out


def same_records(first: dict, second: dict) -> bool:
    """Two result documents agree on everything but ``timestamp``."""
    def strip(doc):
        return json.dumps({k: v for k, v in doc.items() if k != "timestamp"}, sort_keys=True)

    return strip(first) == strip(second)
