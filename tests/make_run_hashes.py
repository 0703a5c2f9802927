"""Field hashes of the 30 benchmark `run` documents, the golden file of
``tests/test_cli.py::test_run_documents_match_their_golden_hashes``.

    PYTHONPATH=src python tests/make_run_hashes.py            # print them as JSON
    PYTHONPATH=src python tests/make_run_hashes.py --write    # rewrite the golden file

The documents are the ``qubolab run`` results of the three benchmark
workloads' configs (``perfbench/workloads.py``, copied here so that a
benchmark change cannot move them) at workload seeds 0 and 7 and seed groups
0-2. Each record field, and each document field but ``records`` and
``timestamp``, is hashed as the canonical JSON the document is written in.
The BLAS thread count can move the last bits of 16-qubit energies, so the
script pins every BLAS/OpenMP runtime to one thread before numpy loads; run
it as its own process. A change that means to move documents regenerates
the file and names the fields that moved.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import random
import sys
from pathlib import Path

for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

from qubolab import cli  # noqa: E402  after the thread pins

# a folder of its own: tests/golden/*.json holds one document per codec type
GOLDEN = Path(__file__).resolve().parent / "golden" / "run" / "hashes.json"
WORKLOAD_SEEDS = (0, 7)
GROUPS = (0, 1, 2)

_EX0P1 = {"name": "lama", "instance": "Ex0p1"}
# the config templates of each workload; "seeds" is how many seeds to draw
WORKLOADS = {
    "small-train": [
        {
            "use_case": _EX0P1, "algorithm": "qaoa", "layers": 1, "starts": 5,
            "max_iter": 40, "shots": 10000, "routing_seeds": 2,
            "topology": "heavy_hex_27", "seeds": 1,
        },
        {
            "use_case": _EX0P1, "algorithm": "vqe", "layers": 2, "starts": 1,
            "max_iter": 150, "shots": 10000, "routing_seeds": 1,
            "topology": "heavy_hex_27", "seeds": 1,
        },
    ],
    "wide-qaoa": [
        {
            "use_case": {"name": "lama", "instance": "Ex2p1", "rho": "auto"},
            "algorithm": "qaoa", "layers": 1, "starts": 1, "max_iter": 10,
            "shots": 10000, "seeds": 1,
        },
    ],
    "anneal": [
        {
            "use_case": {"name": "trp", "cities": 4}, "algorithm": "sa",
            "reads": 400, "sweeps": 1000, "seeds": 1,
        },
        {
            "use_case": {"name": "lama", "instance": "Ex1p1"}, "algorithm": "qa-trotter",
            "total_time": 25.0, "dt": 0.01, "shots": 10000, "seeds": 1,
        },
    ],
}


def configs(workload: str, seed: int, group: int) -> list:
    """The workload's finished configs: each template's ``seeds`` count
    becomes a list of seeds drawn from (workload, seed, group, index)."""
    out = []
    for index, template in enumerate(WORKLOADS[workload]):
        config = copy.deepcopy(template)
        rng = random.Random(f"{workload}/{seed}/{group}/{index}")
        config["seeds"] = [rng.randrange(2**31) for _ in range(template["seeds"])]
        out.append(config)
    return out


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def document_hashes(doc: dict) -> dict:
    """``{"document": {field: hash}, "seed <s>": {field: hash}, ...}``."""
    hashes = {
        "document": {
            key: digest(value) for key, value in doc.items()
            if key not in ("records", "timestamp")
        }
    }
    for record in doc["records"]:
        hashes[f"seed {record['seed']}"] = {key: digest(value) for key, value in record.items()}
    return hashes


def run_hashes() -> dict:
    """``{"<workload>/<seed>/<group>/<config index>": document_hashes}``."""
    hashes = {}
    for workload in WORKLOADS:
        for seed in WORKLOAD_SEEDS:
            for group in GROUPS:
                for index, config in enumerate(configs(workload, seed, group)):
                    doc = cli.run(config)
                    hashes[f"{workload}/{seed}/{group}/{index}"] = document_hashes(doc)
    return hashes


if __name__ == "__main__":
    text = json.dumps(run_hashes(), indent=1, sort_keys=True) + "\n"
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(text)
    else:
        sys.stdout.write(text)
