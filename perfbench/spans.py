"""Span tracing of qubolab from outside the package.

``Tracer.install()`` replaces functions of each module, at the names the
callers look them up by, with wrappers that record one span per call:
(name, start, end, parent span index, batch id, count). ``count`` is a
work measure read from the call's arguments or result (qubits of a gate,
flip attempts of an SA run, ...). ``uninstall()`` puts the originals back.
No module source is touched; spans stay in memory until ``write``.

``layer_metrics`` turns the spans into the per-layer numbers listed in
perfbench/README.md.
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict

import qubolab.annealer as annealer
import qubolab.cli as cli
import qubolab.quality as quality
import qubolab.simulator as simulator
import qubolab.variational as variational
from qubolab.model import IsingModel
from qubolab.quality import Distribution


def _gate_qubits(args, kwargs, result):
    return args[0].num_qubits


def _sa_flips(args, kwargs, result):
    qubo, cfg = args
    return cfg.num_reads * cfg.sweeps * qubo.num_vars


def _trotter_steps(args, kwargs, result):
    schedule = args[1]
    dt = kwargs["dt"] if "dt" in kwargs else args[2]
    return int(round(schedule.total_time / dt))


def _two_qubit(args, kwargs, result):
    return result


def _multistart_counts(args, kwargs, result):
    return (
        len(result.traces),
        sum(t.termination == "max_iter" for t in result.traces),
    )


def _tour_oracle(args, kwargs, result):
    return int(args[0].use_case == "trp")


# (span name, owner object, attribute, count function). A function that
# several modules import by name is patched in each of them.
_PLAIN = [
    ("optimizer.multistart", cli, "multistart", _multistart_counts),
    ("model.cost_vector", IsingModel, "cost_vector", None),
    ("model.brute_force", cli, "brute_force_solve", None),
    ("model.brute_force", quality, "brute_force_solve", None),
    ("model.min_penalty", cli, "min_penalty", None),
    ("simulator.apply_gate", simulator, "apply_gate", _gate_qubits),
    ("simulator.apply_gate", variational, "apply_gate", _gate_qubits),
    ("simulator.apply_gate", annealer, "apply_gate", _gate_qubits),
    ("simulator.run_circuit", cli, "run_circuit", None),
    ("simulator.run_circuit", variational, "run_circuit", None),
    ("simulator.sample", cli, "sample_state", None),
    ("annealer.sa", cli, "sa_sample", _sa_flips),
    ("annealer.trotter", cli, "qa_trotter", _trotter_steps),
    ("transpiler.route", cli, "route", None),
    ("transpiler.decompose", cli, "decompose", None),
    ("transpiler.score", cli, "circuit_score", None),
    ("transpiler.count", cli, "count_two_qubit", _two_qubit),
    ("quality.hellinger", cli, "hellinger_fidelity", None),
    ("quality.relative_error", cli, "relative_error", None),
    ("quality.random_baseline", cli, "random_baseline", None),
    ("quality.solution_rates", cli, "solution_rates", None),
    ("usecases.decode", cli, "decode_lama", None),
    ("usecases.decode", cli, "decode_trp", None),
    ("serialize.to_dict", cli, "to_dict", None),
    ("serialize.from_dict", cli, "from_dict", None),
    ("cli.optimal_cost", cli._Problem, "optimal_cost", _tour_oracle),
]
_CLASSMETHODS = [
    ("quality.from_state", Distribution, "from_state"),
    ("quality.from_sampleset", Distribution, "from_sampleset"),
]
# objective factories: the closure they return is what the optimizer calls
_FACTORIES = [
    ("variational.objective", cli, "qaoa_objective"),
    ("variational.objective", cli, "vqe_objective"),
]


class Tracer:
    """In-memory span recorder for one process; single-threaded use only."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.batch = -1

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.batch, None)
            if count is not None:
                work = count(args, kwargs, result)
                spans[index] = (name, start, end, parent, self.batch, work)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        for name, owner, attr, count in _PLAIN:
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr), count))
        for name, owner, attr in _CLASSMETHODS:
            func = owner.__dict__[attr].__func__
            self._patch(owner, attr, classmethod(self.wrap(name, func)))
        for name, owner, attr in _FACTORIES:
            factory = getattr(owner, attr)
            self._patch(owner, attr, self._factory(name, factory))

    def _factory(self, name, factory):
        def make(*args, **kwargs):
            return self.wrap(name, factory(*args, **kwargs))

        return make

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Spans as gzip CSV: index,name,start_s,end_s,parent,batch,count."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,start_s,end_s,parent,batch,count\n")
            for i, (name, start, end, parent, batch, count) in enumerate(self.spans):
                if isinstance(count, tuple):
                    count = "/".join(str(c) for c in count)
                fh.write(
                    f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{batch},"
                    f"{'' if count is None else count}\n"
                )


def unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("us_per_call", "us_per_eval", "us_per_step")):
        return "us"
    if name.endswith("ns_per_flip"):
        return "ns"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "B"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_ref"):
        return "ratio"
    if name.endswith("_per_seed"):
        return "calls/seed"
    return "count"


def layer_metrics(spans, passes: int, seed_records: int, batch=None) -> dict:
    """Per-layer numbers per pass from a finished trace.

    Times are seconds and counts are totals, both divided by ``passes``;
    ``self`` time is a span's duration minus its direct children's. With
    ``batch``, a predicate on batch ids, only those batches' spans count.
    """
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    work = defaultdict(int)
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    max_iter_starts = 0
    tour_oracles = 0
    for i, (name, start, end, parent, batch_id, count) in enumerate(spans):
        if batch is not None and not batch(batch_id):
            continue
        duration = end - start
        calls[name] += 1
        total[name] += duration
        self_s[name] += duration - child_s[i]
        if name == "optimizer.multistart":
            work[name] += count[0]
            max_iter_starts += count[1]
        elif name == "cli.optimal_cost":
            tour_oracles += count
        elif name == "simulator.apply_gate":
            work[name] += (1 << count) * 16 * 2
        elif count is not None:
            work[name] += count

    def per_pass(value):
        return value / passes

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    nfev = calls["variational.objective"]
    starts = work["optimizer.multistart"]
    quality_names = [n for n in total if n.startswith("quality.")]
    oracle_calls = calls["model.brute_force"] + tour_oracles
    return {
        "optimizer.nfev": per_pass(nfev),
        "optimizer.starts": per_pass(starts),
        "optimizer.max_iter_frac": ratio(max_iter_starts, starts),
        "optimizer.self_s": per_pass(self_s["optimizer.multistart"]),
        "optimizer.self_us_per_eval": ratio(self_s["optimizer.multistart"], nfev, 1e6),
        "variational.objective.calls": per_pass(nfev),
        "variational.objective.s": per_pass(total["variational.objective"]),
        "variational.objective.us_per_call": ratio(
            total["variational.objective"], nfev, 1e6
        ),
        "variational.objective.self_s": per_pass(self_s["variational.objective"]),
        "model.cost_vector.calls": per_pass(calls["model.cost_vector"]),
        "model.cost_vector.s": per_pass(total["model.cost_vector"]),
        "model.brute_force.calls": per_pass(calls["model.brute_force"]),
        "model.brute_force.s": per_pass(total["model.brute_force"]),
        "model.min_penalty.s": per_pass(total["model.min_penalty"]),
        "simulator.apply_gate.calls": per_pass(calls["simulator.apply_gate"]),
        "simulator.apply_gate.s": per_pass(total["simulator.apply_gate"]),
        "simulator.apply_gate.us_per_call": ratio(
            total["simulator.apply_gate"], calls["simulator.apply_gate"], 1e6
        ),
        "simulator.run_circuit.s": per_pass(total["simulator.run_circuit"]),
        "simulator.sample.s": per_pass(total["simulator.sample"]),
        "simulator.bytes_computed": per_pass(work["simulator.apply_gate"]),
        "annealer.sa.s": per_pass(total["annealer.sa"]),
        "annealer.sa.flip_attempts": per_pass(work["annealer.sa"]),
        "annealer.sa.ns_per_flip": ratio(total["annealer.sa"], work["annealer.sa"], 1e9),
        "annealer.trotter.s": per_pass(total["annealer.trotter"]),
        "annealer.trotter.steps": per_pass(work["annealer.trotter"]),
        "annealer.trotter.us_per_step": ratio(
            total["annealer.trotter"], work["annealer.trotter"], 1e6
        ),
        "transpiler.route.calls": per_pass(calls["transpiler.route"]),
        "transpiler.route.s": per_pass(total["transpiler.route"]),
        "transpiler.decompose.s": per_pass(total["transpiler.decompose"]),
        "transpiler.score.s": per_pass(total["transpiler.score"]),
        "transpiler.two_qubit_gates": per_pass(work["transpiler.count"]),
        "quality.s": per_pass(sum(total[n] for n in quality_names)),
        "quality.from_state.s": per_pass(total["quality.from_state"]),
        "quality.random_baseline.s": per_pass(total["quality.random_baseline"]),
        "quality.solution_rates.s": per_pass(total["quality.solution_rates"]),
        "usecases.decode.calls": per_pass(calls["usecases.decode"]),
        "usecases.decode.s": per_pass(total["usecases.decode"]),
        "serialize.to_dict.s": per_pass(total["serialize.to_dict"]),
        "serialize.from_dict.s": per_pass(total["serialize.from_dict"]),
        "cli.self_s": per_pass(self_s["cli.run"]),
        "cli.oracle_calls_per_seed": ratio(oracle_calls, seed_records),
    }
