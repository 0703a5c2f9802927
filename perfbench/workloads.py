"""Workload definitions: the `qubolab run` configs each pass executes.

A workload is a list of config templates; one pass of the benchmark runs
each of them once. ``configs(name, seed, group)`` fills in the ``seeds`` of
every template from the workload seed and a seed group index (pass *i* uses
group *i*), so the program only ever sees the finished config and the same
(seed, group) always yields the same inputs. The reasons for each choice are
in perfbench/README.md.
"""

from __future__ import annotations

import copy
import random

# thread-count variables of the BLAS/OpenMP runtimes numpy may load
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_EX0P1 = {"name": "lama", "instance": "Ex0p1"}

WORKLOADS = {
    # 6 qubits: objective calls are sub-millisecond, so COBYLA's own cost per
    # evaluation and per-gate simulator overhead dominate; the only workload
    # that routes and decomposes circuits. Every start stops at max_iter
    # (QAOA starts would end on tolerance after 59-337 evaluations), so a
    # pass does the same work whatever the seeds
    "small-train": [
        {
            "use_case": _EX0P1,
            "algorithm": "qaoa",
            "layers": 1,
            "starts": 5,
            "max_iter": 40,
            "shots": 10000,
            "routing_seeds": 2,
            "topology": "heavy_hex_27",
            "seeds": 1,
        },
        {
            "use_case": _EX0P1,
            "algorithm": "vqe",
            "layers": 2,
            "starts": 1,
            "max_iter": 150,
            "shots": 10000,
            "routing_seeds": 1,
            "topology": "heavy_hex_27",
            "seeds": 1,
        },
    ],
    # 16 qubits: every objective call pushes 65 536 amplitudes and rebuilds
    # the cost diagonal; every start stops at max_iter, so the evaluation
    # count is fixed and the optimizer's share of the time is small
    "wide-qaoa": [
        {
            "use_case": {"name": "lama", "instance": "Ex2p1", "rho": "auto"},
            "algorithm": "qaoa",
            "layers": 1,
            "starts": 1,
            "max_iter": 10,
            "shots": 10000,
            "seeds": 1,
        },
    ],
    # no optimizer, no transpiler: SA on a 16-bit tour QUBO, and Trotter
    # evolution as 20 000 RX calls on 256-amplitude states
    "anneal": [
        {
            "use_case": {"name": "trp", "cities": 4},
            "algorithm": "sa",
            "reads": 400,
            "sweeps": 1000,
            "seeds": 1,
        },
        {
            "use_case": {"name": "lama", "instance": "Ex1p1"},
            "algorithm": "qa-trotter",
            "total_time": 25.0,
            "dt": 0.01,
            "shots": 10000,
            "seeds": 1,
        },
    ],
}


def configs(workload: str, seed: int, group: int) -> list:
    """The finished configs of one pass: template ``seeds`` counts become
    seed lists drawn from (workload, seed, group, config index)."""
    out = []
    for index, template in enumerate(WORKLOADS[workload]):
        config = copy.deepcopy(template)
        rng = random.Random(f"{workload}/{seed}/{group}/{index}")
        config["seeds"] = [rng.randrange(2**31) for _ in range(template["seeds"])]
        out.append(config)
    return out


def problems(workload: str) -> list:
    """Distinct use cases of a workload, as `qubolab build` arguments."""
    argvs = []
    for template in WORKLOADS[workload]:
        argv = build_argv(template["use_case"])
        if argv not in argvs:
            argvs.append(argv)
    return argvs


def build_argv(use_case: dict) -> list:
    """`qubolab build` arguments that produce the bundle `run` builds."""
    if use_case["name"] == "lama":
        return [
            "build", "lama", "--instance", use_case["instance"],
            "--rho", str(use_case.get("rho", "auto")),
        ]
    return [
        "build", "trp", "--cities", str(use_case["cities"]),
        "--layout", use_case.get("layout", "symmetric"),
        "--seed", str(use_case.get("seed", 0)),
        "--rho", str(use_case.get("rho", 1.0)),
    ]
