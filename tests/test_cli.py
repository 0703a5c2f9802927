"""End-to-end command-line tests; every command is exercised through main()."""

import copy
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qubolab

from qubolab import cli, model
from qubolab.annealer import TROTTER_QUBIT_CAP, TROTTER_STEP_CAP
from qubolab.model import to_ising
from qubolab.quality import Distribution, hellinger_fidelity
from qubolab.serialize import from_dict, to_dict
from qubolab.usecases import decode_trp, example_series

from util import route_to_bits

REPO_ROOT = Path(__file__).resolve().parents[1]
SOURCE_ROOT = str(Path(qubolab.__file__).resolve().parents[1])


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture
def lama_problem(tmp_path):
    path = tmp_path / "lama.json"
    assert run_cli("build", "lama", "--instance", "Ex0p1", "-o", str(path)) == 0
    return path


@pytest.fixture
def trp_problem(tmp_path):
    path = tmp_path / "trp.json"
    rc = run_cli(
        "build", "trp", "--cities", "4", "--rho", "2.0", "--seed", "1",
        "-o", str(path),
    )
    assert rc == 0
    return path


# ---------------------------------------------------------------------------
# build / solve-brute


def test_build_lama_bundle(lama_problem, capsys):
    doc = json.loads(lama_problem.read_text())
    assert doc["schema_version"] == 1
    assert doc["type"] == "ProblemBundle"
    assert doc["use_case"] == "lama"
    assert from_dict(doc["qubo"]).num_vars == 6
    assert doc["rho"] > 0


def test_build_trp_bundle(trp_problem):
    doc = json.loads(trp_problem.read_text())
    assert from_dict(doc["qubo"]).num_vars == 16
    assert doc["rho"] == 2.0


def test_build_unknown_instance_fails(tmp_path, capsys):
    rc = run_cli("build", "lama", "--instance", "nope", "-o", str(tmp_path / "x.json"))
    assert rc == 1
    assert "unknown instance" in capsys.readouterr().err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        run_cli()
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run_cli("anneal", "p.json", "--backend", "bogus", "-o", "x")
    assert err.value.code == 2


def test_solve_brute(lama_problem, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli("solve-brute", str(lama_problem), "-o", str(out)) == 0
    captured = capsys.readouterr().out
    assert "optimal cost 2.0" in captured
    report = from_dict(json.loads(out.read_text()))
    assert report.optimal_set == ["101000"]


# ---------------------------------------------------------------------------
# landscape


def test_landscape_grid_and_gamma_zero_column(lama_problem, tmp_path):
    out = tmp_path / "scape.csv"
    assert run_cli("landscape", str(lama_problem), "--grid", "6", "-o", str(out)) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=2)
    assert rows.shape == (6, 7)  # beta label column + 6 gamma columns
    grid = rows[:, 1:]
    # gamma = 0 leaves the uniform superposition untouched
    assert np.allclose(grid[:, 0], grid[0, 0], atol=1e-9)


# ---------------------------------------------------------------------------
# train / sample / anneal


def test_train_sample_roundtrip(lama_problem, tmp_path, capsys):
    trained = tmp_path / "train.json"
    traces = tmp_path / "traces.csv"
    rc = run_cli(
        "train", str(lama_problem), "--algorithm", "qaoa", "--layers", "1",
        "--starts", "3", "--max-iter", "60", "--seed", "7",
        "--traces", str(traces), "-o", str(trained),
    )
    assert rc == 0
    doc = json.loads(trained.read_text())
    assert doc["type"] == "TrainResult"
    assert len(doc["best_params"]) == 2
    assert doc["best_cost"] == min(doc["final_costs"])
    assert traces.read_text().startswith("# schema_version=1\nrun,iteration,cost\n")

    samples = tmp_path / "samples.json"
    rc = run_cli(
        "sample", str(lama_problem), str(trained), "--shots", "800",
        "--seed", "3", "-o", str(samples),
    )
    assert rc == 0
    sampleset = from_dict(json.loads(samples.read_text()))
    assert sum(sampleset.counts.values()) == 800
    assert "mode" in capsys.readouterr().out


@pytest.mark.parametrize("algorithm, layers, size", [("qaoa", 1, 2), ("vqe", 1, 12)])
def test_sample_rejects_non_finite_params(lama_problem, tmp_path, capsys, algorithm, layers, size):
    trained = tmp_path / "train.json"
    params = [0.5] * size
    params[1] = float("nan")
    trained.write_text(json.dumps({
        "type": "TrainResult", "algorithm": algorithm, "layers": layers,
        "best_params": params,
    }))
    out = tmp_path / "samples.json"
    rc = run_cli("sample", str(lama_problem), str(trained), "-o", str(out))
    assert rc == 1
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "transpile"])
@pytest.mark.parametrize("algorithm, size, want", [("qaoa", 2, 4), ("vqe", 12, 18)])
def test_params_of_another_depth_are_refused(
    lama_problem, tmp_path, capsys, command, algorithm, size, want
):
    # a one-layer train result read as two layers; sample drew a p=1 state from it
    trained = tmp_path / "train.json"
    rc = run_cli(
        "train", str(lama_problem), "--algorithm", algorithm,
        "--starts", "1", "--max-iter", "20", "-o", str(trained),
    )
    assert rc == 0
    doc = json.loads(trained.read_text())
    assert len(doc["best_params"]) == size
    trained.write_text(json.dumps(dict(doc, layers=2)))
    capsys.readouterr()
    out = tmp_path / "o.json"
    if command == "sample":
        argv = ["sample", str(lama_problem), str(trained)]
    else:
        argv = [
            "transpile", str(lama_problem), "--algorithm", algorithm,
            "--layers", "2", "--params", str(trained),
        ]
    assert run_cli(*argv, "-o", str(out)) == 1
    err = capsys.readouterr().err
    assert f"{algorithm} with 2 layers needs {want} parameters, got {size}" in err
    assert not out.exists()


@pytest.mark.parametrize("layers", ["1", True, 1.0])
def test_sample_refuses_layers_that_are_not_an_integer(lama_problem, tmp_path, capsys, layers):
    # "1" failed on a str/int comparison; true was read as one layer
    trained = tmp_path / "train.json"
    trained.write_text(json.dumps({
        "type": "TrainResult", "algorithm": "qaoa", "layers": layers,
        "best_params": [0.5, 0.5],
    }))
    out = tmp_path / "samples.json"
    assert run_cli("sample", str(lama_problem), str(trained), "-o", str(out)) == 1
    assert f"layers must be an integer, got {layers!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key",
    [("sample", "algorithm"), ("sample", "layers"), ("sample", "best_params"),
     ("transpile", "best_params")],
)
def test_train_result_missing_a_field_is_refused_by_name(
    lama_problem, tmp_path, capsys, command, key
):
    # was a bare KeyError: "error: 'layers'"
    doc = {"type": "TrainResult", "algorithm": "qaoa", "layers": 1, "best_params": [0.5, 0.5]}
    del doc[key]
    trained = tmp_path / "train.json"
    trained.write_text(json.dumps(doc))
    out = tmp_path / "o.json"
    if command == "sample":
        argv = ["sample", str(lama_problem), str(trained)]
    else:
        argv = ["transpile", str(lama_problem), "--params", str(trained)]
    assert run_cli(*argv, "-o", str(out)) == 1
    assert f"error: TrainResult {trained} has no {key!r} field" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "transpile"])
@pytest.mark.parametrize(
    "best_params, message",
    [
        ([True, "0.5"], "best_params must be a real number, got True"),
        ([0.5, "0.5"], "best_params must be a real number, got '0.5'"),
        ([[0.1], [0.2]], "best_params must be a flat list, got [[0.1], [0.2]]"),
        ({"gamma": 0.1, "beta": 0.2}, "best_params must be a real number, got {'gamma'"),
        (0.5, "best_params must be a flat list, got 0.5"),
    ],
    ids=["bool", "string", "nested", "object", "scalar"],
)
def test_train_result_best_params_not_a_flat_list_of_numbers_is_refused(
    lama_problem, tmp_path, capsys, command, best_params, message
):
    # a bool and a numeric string were read as angles, a nested list as a
    # flat one, and an object failed with a bare TypeError
    trained = tmp_path / "train.json"
    trained.write_text(json.dumps(
        {"type": "TrainResult", "algorithm": "qaoa", "layers": 1, "best_params": best_params}
    ))
    out = tmp_path / "o.json"
    if command == "sample":
        argv = ["sample", str(lama_problem), str(trained)]
    else:
        argv = ["transpile", str(lama_problem), "--params", str(trained)]
    assert run_cli(*argv, "-o", str(out)) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_train_vqe_param_count(lama_problem, tmp_path):
    trained = tmp_path / "vqe.json"
    rc = run_cli(
        "train", str(lama_problem), "--algorithm", "vqe", "--layers", "1",
        "--starts", "2", "--max-iter", "40", "-o", str(trained),
    )
    assert rc == 0
    assert len(json.loads(trained.read_text())["best_params"]) == 12


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--shots", "0", "--starts", "1", "--max-iter", "5"],
        ["train", "--shots", "-5", "--starts", "1", "--max-iter", "5"],
        ["train", "--algorithm", "vqe", "--shots", "0", "--starts", "1", "--max-iter", "5"],
        ["landscape", "--grid", "3", "--shots", "0"],
    ],
    ids=["train-zero", "train-negative", "vqe-zero", "landscape-zero"],
)
def test_objective_shots_below_one_are_refused(lama_problem, tmp_path, capsys, argv):
    # were "float division by zero" and numpy's "n < 0"
    out = tmp_path / "out"
    command, *flags = argv
    assert run_cli(command, str(lama_problem), *flags, "-o", str(out)) == 1
    assert "shots must be an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("algorithm", ["qaoa", "vqe"])
def test_train_refuses_zero_layers(lama_problem, tmp_path, capsys, algorithm):
    out = tmp_path / "t.json"
    argv = ["train", str(lama_problem), "--algorithm", algorithm, "--layers", "0"]
    assert run_cli(*argv, "-o", str(out)) == 1
    assert "need at least one layer" in capsys.readouterr().err
    assert not out.exists()


def test_run_records_the_budget_refusal_on_every_seed(tmp_path):
    # 12 VQE angles need 14 COBYLA evaluations; scipy ran 14 after a UserWarning
    cfg = sa_config(tmp_path, algorithm="vqe", seeds=[0, 1, 2], starts=1, max_iter=13)
    out = tmp_path / "r.json"
    assert run_cli("run", str(cfg), "-o", str(out)) == 1
    records = json.loads(out.read_text())["records"]
    assert records == [
        {"seed": seed, "error": "max_iter must be an integer >= 14, got 13"}
        for seed in (0, 1, 2)
    ]


# one numeric flag at 0, below 0 or NaN, per subcommand, with a fragment of
# its refusal: "{problem}" is an Ex0p1 bundle, "{train}" a p=1 QAOA train
# result and "{dist}" a Distribution
_BAD_FLAGS = {
    "train-starts-0": (["train", "{problem}", "--starts", "0"], "num_starts"),
    "train-layers-0": (["train", "{problem}", "--layers", "0"], "one layer"),
    "train-shots-0": (["train", "{problem}", "--shots", "0"], "shots"),
    "train-max-iter-below-cobyla": (
        ["train", "{problem}", "--algorithm", "vqe", "--starts", "1", "--max-iter", "5"],
        "max_iter",
    ),
    "sample-shots-0": (["sample", "{problem}", "{train}", "--shots", "0"], "shots"),
    "anneal-reads-0": (["anneal", "{problem}", "--reads", "0"], "num_reads"),
    "anneal-sweeps-0": (["anneal", "{problem}", "--sweeps", "0"], "sweeps"),
    "trotter-total-time-0": (
        ["anneal", "{problem}", "--backend", "trotter", "--total-time", "0"], "total_time"
    ),
    "trotter-dt-nan": (["anneal", "{problem}", "--backend", "trotter", "--dt", "nan"], "dt"),
    "trotter-dt-negative": (
        ["anneal", "{problem}", "--backend", "trotter", "--dt", "-0.1"], "dt"
    ),
    "landscape-grid-1": (["landscape", "{problem}", "--grid", "1"], "resolution"),
    "landscape-shots-0": (["landscape", "{problem}", "--grid", "3", "--shots", "0"], "shots"),
    "transpile-layers-0": (["transpile", "{problem}", "--layers", "0"], "one layer"),
    "transpile-seed-negative": (
        ["transpile", "{problem}", "--seed", "-1"], "--seed must be an integer >= 0"
    ),
    "score-seed-negative": (
        ["score", "{dist}", "{dist}", "--problem", "{problem}", "--seed", "-1"],
        "--seed must be an integer >= 0",
    ),
    "sweep-values-nan": (["sweep", "lama", "--values", "nan"], "rho"),
    "sweep-time-0": (["sweep", "lama", "--axis", "time", "--values", "0"], "sweeps"),
    "sweep-reads-0": (["sweep", "lama", "--values", "1", "--reads", "0"], "num_reads"),
}


@pytest.mark.parametrize("argv, fragment", _BAD_FLAGS.values(), ids=_BAD_FLAGS.keys())
def test_bad_numeric_flag_exits_1_and_writes_nothing(
    lama_problem, tmp_path, capsys, argv, fragment
):
    train = tmp_path / "train.json"
    train.write_text(json.dumps(
        {"type": "TrainResult", "algorithm": "qaoa", "layers": 1, "best_params": [0.5, 0.5]}
    ))
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"type": "Distribution", "probs": {"101000": 1.0}}))
    paths = {"problem": lama_problem, "train": train, "dist": dist}
    out = tmp_path / "out"
    assert run_cli(*[arg.format(**paths) for arg in argv], "-o", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and fragment in captured.err
    assert captured.out == ""  # refused before any result line
    assert not out.exists()


def test_anneal_sa_rates(trp_problem, tmp_path, capsys):
    out = tmp_path / "sa.json"
    rc = run_cli(
        "anneal", str(trp_problem), "--backend", "sa", "--reads", "200",
        "--sweeps", "200", "-o", str(out),
    )
    assert rc == 0
    line = capsys.readouterr().out
    assert "feasible" in line and "optimal" in line
    sampleset = from_dict(json.loads(out.read_text()))
    assert sum(sampleset.counts.values()) == 200


def test_anneal_sa_prints_the_oracle_reason(tmp_path, capsys):
    bundle = tmp_path / "rho0.json"
    assert run_cli("build", "lama", "--instance", "Ex0p1", "--rho", "0", "-o", str(bundle)) == 0
    out = tmp_path / "sa.json"
    assert run_cli("anneal", str(bundle), "--reads", "20", "--sweeps", "20", "-o", str(out)) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert line == "sa: 20 reads (no feasible minimizer at this penalty; increase --rho)"


@pytest.mark.parametrize("command", ["anneal", "solve-brute"])
@pytest.mark.parametrize(
    "change, message",
    [
        ({"spec": to_dict(example_series()["Ex1p1"])}, "LamaSpec spec needs 8 bits, its qubo 6"),
        ({"use_case": "trp"}, "use_case 'trp' does not match its LamaSpec spec"),
        ({"use_case": "tsp"}, "use_case 'tsp' does not match its LamaSpec spec"),
    ],
    ids=["spec-width", "other-use-case", "unknown-use-case"],
)
def test_bundle_whose_parts_disagree_is_refused(lama_problem, tmp_path, capsys, command, change, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(json.loads(lama_problem.read_text()), **change)))
    out = tmp_path / "sa.json"
    flags = ["--reads", "20", "--sweeps", "20", "-o", str(out)] if command == "anneal" else []
    assert run_cli(command, str(bad), *flags) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["use_case", "qubo", "spec"])
def test_bundle_missing_a_field_is_refused_by_name(lama_problem, tmp_path, capsys, key):
    # was a bare KeyError: "error: 'spec'"
    doc = json.loads(lama_problem.read_text())
    del doc[key]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run_cli("solve-brute", str(bad)) == 1
    assert f"error: problem bundle has no {key!r} field" in capsys.readouterr().err


def test_anneal_trotter_distribution(lama_problem, tmp_path, capsys):
    out = tmp_path / "dist.json"
    rc = run_cli(
        "anneal", str(lama_problem), "--backend", "trotter",
        "--total-time", "20", "--dt", "0.05", "-o", str(out),
    )
    assert rc == 0
    dist = from_dict(json.loads(out.read_text()))
    assert abs(sum(dist.probs.values()) - 1.0) < 1e-9
    # long anneal concentrates on the solved schedule
    assert "peak 101000" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags",
    [
        ["--total-time", "inf"],
        ["--total-time", "nan"],
        ["--dt", "inf"],
        ["--dt", "nan"],
    ],
)
def test_anneal_trotter_rejects_non_finite_times(lama_problem, tmp_path, capsys, flags):
    out = tmp_path / "dist.json"
    rc = run_cli("anneal", str(lama_problem), "--backend", "trotter", *flags, "-o", str(out))
    assert rc == 1
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_build_and_anneal_do_not_import_scipy_optimize(tmp_path):
    """`build` and `anneal` (both backends) start and finish without any scipy
    module."""
    script = f"""
import sys
import qubolab.cli as cli
loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
assert not loaded, ("imported by qubolab.cli", loaded)
problem = {str(tmp_path / "trp.json")!r}
assert cli.main(["build", "trp", "--cities", "3", "-o", problem]) == 0
assert cli.main(["anneal", problem, "--reads", "8", "--sweeps", "5",
                 "-o", {str(tmp_path / "sa.json")!r}]) == 0
assert cli.main(["anneal", problem, "--backend", "trotter", "--total-time", "1",
                 "--dt", "0.1", "-o", {str(tmp_path / "dist.json")!r}]) == 0
loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
assert not loaded, ("imported by build or anneal", loaded)
"""
    source_root = str(Path(qubolab.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": source_root},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_training_loads_no_scipy_module(tmp_path):
    """COBYLA is qubolab's own, so `train` and variational `run` batches
    start and finish without any scipy module."""
    configs = {
        algorithm: str(tmp_path / f"{algorithm}.json") for algorithm in ("qaoa", "vqe")
    }
    for algorithm, path in configs.items():
        Path(path).write_text(json.dumps({
            "use_case": {"name": "lama", "instance": "Ex0p1"}, "algorithm": algorithm,
            "starts": 1, "max_iter": 20, "shots": 100, "routing_seeds": 1, "seeds": [0],
        }))
    script = f"""
import sys
import qubolab.cli as cli
problem = {str(tmp_path / "ex0p1.json")!r}
assert cli.main(["build", "lama", "--instance", "Ex0p1", "-o", problem]) == 0
assert cli.main(["train", problem, "--starts", "2", "--max-iter", "20",
                 "-o", {str(tmp_path / "train.json")!r}]) == 0
for config in {list(configs.values())!r}:
    assert cli.main(["run", config, "-o", config + ".out"]) == 0
loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
assert not loaded, loaded
"""
    source_root = str(Path(qubolab.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": source_root},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def ci_step(name):
    """The step of the tier-1 workflow called ``name``."""
    workflow = yaml.safe_load((REPO_ROOT / ".github/workflows/tier1.yml").read_text())
    (step,) = [
        step for job in workflow["jobs"].values() for step in job["steps"]
        if step.get("name") == name
    ]
    return step


def test_ci_smoke_step_passes(tmp_path):
    """The workflow's console-script smoke step, run as CI runs it: under
    ``bash -e`` in an empty directory, with ``qubolab`` on PATH."""
    step = ci_step("Smoke-test the qubolab console script")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "qubolab"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m qubolab.cli "$@"\n')
    shim.chmod(0o755)
    work = tmp_path / "work"
    work.mkdir()
    env = {k: v for k, v in os.environ.items() if k != "QUBOLAB_OUTDIR"}
    env["PATH"] = f"{bin_dir}{os.pathsep}{env.get('PATH', '')}"
    env["PYTHONPATH"] = SOURCE_ROOT
    result = subprocess.run(
        ["bash", "-e", "-c", step["run"]], cwd=work, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_ci_single_thread_step_collects():
    """The workflow's single-threaded-BLAS rerun, which tier-1 does not run
    itself: every test file it names exists and collects under
    ``OPENBLAS_NUM_THREADS=1``."""
    run = ci_step("Bit-exact kernel oracles with single-threaded BLAS")["run"]
    assert "OPENBLAS_NUM_THREADS=1" in run
    paths = [word for word in run.split() if word.startswith("tests/")]
    assert paths
    for path in paths:
        assert (REPO_ROOT / path).is_file(), path
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=SOURCE_ROOT)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *paths],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_benchmark_tracer_finds_every_patch_point():
    """perfbench/spans.py patches names of the package by lookup; a name
    deleted or renamed here must fail tier-1, not only a traced benchmark."""
    script = """
import sys
sys.path.insert(0, "perfbench")
from spans import Tracer
tracer = Tracer()
tracer.install()
tracer.uninstall()
"""
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=REPO_ROOT,
        env={
            "PYTHONPATH": SOURCE_ROOT,
            "PYTHONDONTWRITEBYTECODE": "1",  # leave no compiled files in perfbench/
        },
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


# ---------------------------------------------------------------------------
# transpile / score


def test_transpile_full_topology_counts(lama_problem, tmp_path):
    out = tmp_path / "tr.json"
    rc = run_cli(
        "transpile", str(lama_problem), "--algorithm", "qaoa", "--layers", "1",
        "--topology", "full", "-o", str(out),
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    ising = to_ising(from_dict(json.loads(lama_problem.read_text())["qubo"]))
    # all-to-all coupling: no swaps, one RZZ -> 2 CX per quadratic term
    assert doc["two_qubit_count"] == 2 * len(ising.h_quad)
    assert 0.0 < doc["circuit_score"] < 1.0


@pytest.mark.parametrize("algorithm, size", [("qaoa", 2), ("vqe", 12)])
def test_transpile_rejects_non_finite_params(lama_problem, tmp_path, capsys, algorithm, size):
    trained = tmp_path / "train.json"
    params = [0.5] * size
    params[1] = float("nan")
    trained.write_text(json.dumps({"type": "TrainResult", "best_params": params}))
    out = tmp_path / "tr.json"
    rc = run_cli(
        "transpile", str(lama_problem), "--algorithm", algorithm,
        "--params", str(trained), "-o", str(out),
    )
    assert rc == 1
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "transpile"])
def test_sample_and_transpile_refuse_a_file_that_is_not_a_train_result(
    lama_problem, tmp_path, capsys, command
):
    # a problem bundle holds no best_params: refused by type, not a KeyError
    out = tmp_path / "o.json"
    if command == "sample":
        argv = ["sample", str(lama_problem), str(lama_problem)]
    else:
        argv = ["transpile", str(lama_problem), "--params", str(lama_problem)]
    assert run_cli(*argv, "-o", str(out)) == 1
    assert "is not a TrainResult document" in capsys.readouterr().err
    assert not out.exists()


def test_transpile_heavy_hex(lama_problem, capsys):
    assert run_cli("transpile", str(lama_problem), "--seed", "5") == 0
    out = capsys.readouterr().out
    assert "two_qubit_count" in out and "circuit_score" in out


def test_score_identical_distributions(lama_problem, tmp_path, capsys):
    dist = tmp_path / "d.json"
    rc = run_cli(
        "anneal", str(lama_problem), "--backend", "trotter",
        "--total-time", "5", "--dt", "0.1", "-o", str(dist),
    )
    assert rc == 0
    capsys.readouterr()
    out = tmp_path / "score.json"
    rc = run_cli("score", str(dist), str(dist), "--problem", str(lama_problem),
                 "-o", str(out))
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("fidelity ")
    assert float(lines[0].split()[1]) == pytest.approx(1.0, abs=1e-12)
    doc = json.loads(out.read_text())
    assert doc["fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert doc["relative_error"] >= 0.0
    assert doc["random_baseline"] > 0.0


@pytest.mark.parametrize("order", ["sampleset-first", "sampleset-second"])
def test_score_reads_the_sample_sets_the_samplers_write(lama_problem, tmp_path, capsys, order):
    samples, dist = tmp_path / "samples.json", tmp_path / "trotter.json"
    argv = ["anneal", str(lama_problem), "--reads", "60", "--sweeps", "50", "-o", str(samples)]
    assert run_cli(*argv) == 0
    argv = ["anneal", str(lama_problem), "--backend", "trotter", "--total-time", "5",
            "--dt", "0.1", "-o", str(dist)]
    assert run_cli(*argv) == 0
    capsys.readouterr()
    p, q = (samples, dist) if order == "sampleset-first" else (dist, samples)
    out = tmp_path / "score.json"
    assert run_cli("score", str(p), str(q), "--problem", str(lama_problem), "-o", str(out)) == 0
    lines = capsys.readouterr().out.splitlines()
    empirical = Distribution.from_sampleset(from_dict(json.loads(samples.read_text())))
    reference = from_dict(json.loads(dist.read_text()))
    fidelity = hellinger_fidelity(empirical, reference)
    assert lines[0] == f"fidelity {fidelity!r}"
    assert json.loads(out.read_text())["fidelity"] == fidelity


def test_score_rejects_non_distribution(lama_problem, tmp_path, capsys):
    rc = run_cli("score", str(lama_problem), str(lama_problem))
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    # a decodable document of the wrong type is refused just the same
    report = tmp_path / "report.json"
    assert run_cli("solve-brute", str(lama_problem), "-o", str(report)) == 0
    capsys.readouterr()
    rc = run_cli("score", str(report), str(report))
    assert rc == 1
    assert "Distribution" in capsys.readouterr().err


def test_score_rejects_non_binary_distribution(lama_problem, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"schema_version": 1, "type": "Distribution", "probs": {"200000": 1.0}}\n'
    )
    rc = run_cli("score", str(bad), str(bad), "--problem", str(lama_problem))
    assert rc == 1
    assert "'2'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_penalty_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = run_cli(
        "sweep", "lama", "--instance", "Ex0p1", "--axis", "penalty",
        "--values", "0.5,2.0", "--reads", "60", "--sweeps", "80",
        "-o", str(out),
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema_version=1"
    assert lines[1] == "axis,feasible_pct,optimal_pct,reads"
    assert len(lines) == 4
    # the weak penalty must not outperform the calibrated one
    weak = float(lines[2].split(",")[2])
    strong = float(lines[3].split(",")[2])
    assert strong >= weak


def test_sweep_time_axis_trp(tmp_path):
    out = tmp_path / "tsweep.csv"
    rc = run_cli(
        "sweep", "trp", "--cities", "4", "--rho", "2.0", "--axis", "time",
        "--values", "20,200", "--reads", "60", "-o", str(out),
    )
    assert rc == 0
    assert len(out.read_text().splitlines()) == 4


def test_sweep_time_axis_refuses_fractional_sweep_count(tmp_path, capsys):
    out = tmp_path / "tsweep.csv"
    rc = run_cli(
        "sweep", "trp", "--cities", "4", "--rho", "2.0", "--axis", "time",
        "--values", "10.7,20", "--reads", "20", "-o", str(out),
    )
    assert rc == 1
    assert "10.7" in capsys.readouterr().err
    assert not out.exists()


def sweep_rows(path) -> list:
    """(axis value, feasible %, optimal %, reads) of every sweep CSV row."""
    rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
    return [(float(a), float(f), float(o), int(r)) for a, f, o, r in rows]


def test_sweep_rows_sorted_and_bounded(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run_cli(
        "sweep", "lama", "--instance", "Ex0p1", "--values", "5,0.5,2",
        "--reads", "200", "--sweeps", "60", "--seed", "4", "-o", str(out),
    )
    assert rc == 0
    rows = sweep_rows(out)
    assert [row[0] for row in rows] == [0.5, 2.0, 5.0]
    for _, feasible, optimal, reads in rows:
        assert 0.0 <= optimal <= feasible <= 100.0
        assert reads == 200


def test_sweep_finds_optima_at_tuned_weight(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run_cli(
        "sweep", "lama", "--instance", "Ex0p1", "--values", "5",
        "--reads", "400", "--seed", "7", "-o", str(out),
    )
    assert rc == 0
    [(_, _, optimal, _)] = sweep_rows(out)
    assert optimal > 0.0


@pytest.mark.parametrize("use_case", [["lama", "--instance", "Ex0p1"], ["trp", "--cities", "4"]])
def test_penalty_sweep_anneals_the_qubo_build_makes(tmp_path, monkeypatch, use_case):
    annealed = []
    real = cli.sa_sample
    monkeypatch.setattr(cli, "sa_sample", lambda q, cfg: annealed.append(q) or real(q, cfg))
    rc = run_cli(
        "sweep", *use_case, "--values", "3,0.5", "--reads", "10", "--sweeps", "5",
        "-o", str(tmp_path / "sweep.csv"),
    )
    assert rc == 0
    bundles = []
    for rho in ("0.5", "3"):
        path = tmp_path / f"bundle{rho}.json"
        assert run_cli("build", *use_case, "--rho", rho, "-o", str(path)) == 0
        bundles.append(json.loads(path.read_text())["qubo"])
    assert [to_dict(q) for q in annealed] == bundles


def test_time_sweep_uses_value_as_sweep_count(tmp_path, monkeypatch):
    sweeps = []
    real = cli.sa_sample
    monkeypatch.setattr(cli, "sa_sample", lambda q, cfg: sweeps.append(cfg.sweeps) or real(q, cfg))
    out = tmp_path / "tsweep.csv"
    rc = run_cli(
        "sweep", "lama", "--instance", "Ex0p1", "--rho", "5", "--axis", "time",
        "--values", "80,5", "--reads", "150", "--seed", "8", "-o", str(out),
    )
    assert rc == 0
    assert sweeps == [5, 80]
    rows = sweep_rows(out)
    assert [row[0] for row in rows] == [5.0, 80.0]
    for _, feasible, optimal, _ in rows:
        assert optimal <= feasible


def test_sweep_rejects_unknown_axis(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "lama", "--axis", "chain", "--values", "1", "-o", str(out))
    assert exc.value.code == 2
    assert "chain" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# run batches


def sa_config(tmp_path, **overrides):
    cfg = {
        "use_case": {"name": "lama", "instance": "Ex0p1"},
        "algorithm": "sa",
        "seeds": [0, 1],
        "reads": 80,
        "sweeps": 100,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_run_deterministic_modulo_timestamp(tmp_path):
    cfg = sa_config(tmp_path)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli("run", str(cfg), "-o", str(out1)) == 0
    assert run_cli("run", str(cfg), "-o", str(out2)) == 0
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    r1.pop("timestamp")
    r2.pop("timestamp")
    assert r1 == r2
    assert r1["type"] == "ExperimentResult"
    assert len(r1["config_hash"]) == 64
    assert {rec["seed"] for rec in r1["records"]} == {0, 1}


def test_run_records_have_rates(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("run", str(sa_config(tmp_path)), "-o", str(out)) == 0
    for record in json.loads(out.read_text())["records"]:
        assert 0.0 <= record["optimal_pct"] <= record["feasible_pct"] <= 100.0


def test_run_qaoa_record_fields(tmp_path):
    cfg = sa_config(
        tmp_path,
        algorithm="qaoa",
        seeds=[0],
        layers=1,
        starts=3,
        max_iter=60,
        shots=2000,
        routing_seeds=4,
        topology="heavy_hex_27",
    )
    out = tmp_path / "rq.json"
    assert run_cli("run", str(cfg), "-o", str(out)) == 0
    record = json.loads(out.read_text())["records"][0]
    assert len(record["best_params"]) == 2
    assert 0.0 <= record["fidelity"] <= 1.0
    assert record["relative_error"] >= 0.0
    assert len(record["transpile"]) == 4
    for row in record["transpile"]:
        assert row["two_qubit_count"] > 0
        assert 0.0 < row["circuit_score"] < 1.0


def test_run_captures_per_seed_failures(tmp_path):
    # 16 qubits exceeds the dense Trotter cap; the batch still completes
    cfg = sa_config(
        tmp_path,
        use_case={"name": "lama", "instance": "Ex2p1", "rho": 4.0},
        algorithm="qa-trotter",
        seeds=[0, 1],
        total_time=1.0,
        dt=0.1,
        shots=50,
    )
    out = tmp_path / "rbad.json"
    assert run_cli("run", str(cfg), "-o", str(out)) == 1
    records = json.loads(out.read_text())["records"]
    assert all("error" in rec for rec in records)
    assert [rec["seed"] for rec in records] == [0, 1]


def run_in_two_gib(script: str, timeout: float = 10.0) -> subprocess.CompletedProcess:
    """``script`` in a fresh interpreter whose address space is capped at
    2 GiB, so that a 2^32-entry array fails at once instead of thrashing,
    and whose run past ``timeout`` seconds fails the test."""
    cap = "import resource\nresource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
    return subprocess.run(
        [sys.executable, "-c", cap + script], env=dict(os.environ, PYTHONPATH=SOURCE_ROOT),
        capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize(
    "call",
    [
        "IsingModel({}, np.zeros(27), 0.0).cost_vector()",
        "cx_chain_permutation(27)",
        "random_baseline(QuboProblem(np.zeros((27, 27)), 0.0), c_opt=1.0)",
    ],
)
def test_dense_arrays_refuse_more_than_26_qubits(call):
    result = run_in_two_gib(f"""
import numpy as np
from qubolab.model import IsingModel, QuboProblem
from qubolab.quality import random_baseline
from qubolab.simulator import cx_chain_permutation
try:
    {call}
except ValueError as exc:
    print(exc)
""")
    assert result.returncode == 0, result.stderr
    assert "27 qubits exceed the cap of 26" in result.stdout


@pytest.mark.parametrize(
    "flags", [["--dt", "1e-6"], ["--total-time", str(TROTTER_STEP_CAP + 1), "--dt", "1"]]
)
def test_trotter_refuses_a_step_count_past_the_cap(lama_problem, tmp_path, flags):
    # 5e7 steps of Python lists would take ~7 GB; the cap refuses before any
    out = tmp_path / "dist.json"
    argv = ["anneal", str(lama_problem), "--backend", "trotter", *flags, "-o", str(out)]
    result = run_in_two_gib(f"import sys, qubolab.cli\nsys.exit(qubolab.cli.main({argv!r}))")
    assert result.returncode == 1, result.stderr
    assert f"exceeds {TROTTER_STEP_CAP} Trotter steps" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["qaoa", "vqe", "landscape"])
def test_oversize_register_fails_fast(tmp_path, command):
    # Ex3p1 has 32 qubits: training and the landscape refuse before any 2^32 array
    bundle = tmp_path / "ex3.json"
    assert run_cli("build", "lama", "--instance", "Ex3p1", "--rho", "2", "-o", str(bundle)) == 0
    out = tmp_path / "out.json"
    if command == "landscape":
        argv = ["landscape", str(bundle), "-o", str(out)]
    else:
        entry = {"name": "lama", "instance": "Ex3p1", "rho": 2}
        argv = ["run", str(sa_config(tmp_path, use_case=entry, algorithm=command)), "-o", str(out)]
    result = run_in_two_gib(f"import sys, qubolab.cli\nsys.exit(qubolab.cli.main({argv!r}))")
    assert result.returncode == 1, result.stderr
    message = "32 qubits exceed the cap of 26"
    if command == "landscape":
        assert message in result.stderr
        assert not out.exists()
    else:
        records = json.loads(out.read_text())["records"]
        assert [r["error"] for r in records] == [message + " for 2^n-entry arrays"] * 2


def count_calls(monkeypatch, name):
    calls = []
    real = getattr(cli, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    return calls


def test_run_evolves_trotter_state_once_per_batch(tmp_path, monkeypatch):
    overrides = {
        "use_case": {"name": "lama", "instance": "Ex0p1"},
        "algorithm": "qa-trotter",
        "total_time": 2.0,
        "dt": 0.05,
        "shots": 300,
    }
    singles = []
    for seed in (4, 0, 9):
        out = tmp_path / f"single{seed}.json"
        cfg = sa_config(tmp_path, seeds=[seed], **overrides)
        assert run_cli("run", str(cfg), "-o", str(out)) == 0
        singles += json.loads(out.read_text())["records"]
    trotter = count_calls(monkeypatch, "qa_trotter")
    ising = count_calls(monkeypatch, "to_ising")
    out = tmp_path / "batch.json"
    assert run_cli("run", str(sa_config(tmp_path, seeds=[4, 0, 9], **overrides)), "-o", str(out)) == 0
    assert (len(trotter), len(ising)) == (1, 1)
    # each seed's record is the record of a batch of that seed alone
    assert json.loads(out.read_text())["records"] == singles


def test_run_variational_builds_ising_once_per_batch(tmp_path, monkeypatch):
    ising = count_calls(monkeypatch, "to_ising")
    cfg = sa_config(tmp_path, algorithm="vqe", seeds=[0, 1, 2], layers=1, starts=1, max_iter=14, shots=100)
    assert run_cli("run", str(cfg), "-o", str(tmp_path / "r.json")) == 0
    assert len(ising) == 1


def test_run_builds_the_qubo_cost_table_once_per_batch(tmp_path, monkeypatch):
    tables = []
    real = model.qubo_cost_vector

    def counted(qubo, *span):
        if not span:  # brute force enumerates its own (start, stop) chunks
            tables.append(qubo)
        return real(qubo, *span)

    monkeypatch.setattr(model, "qubo_cost_vector", counted)
    cfg = sa_config(tmp_path, algorithm="qaoa", seeds=[0, 1, 2], starts=1, max_iter=5, shots=100)
    out = tmp_path / "r.json"
    assert run_cli("run", str(cfg), "-o", str(out)) == 0
    assert all("relative_error" in r for r in json.loads(out.read_text())["records"])
    assert len(tables) == 1


def test_run_failing_trotter_state_errors_every_seed(tmp_path, monkeypatch):
    trotter = count_calls(monkeypatch, "qa_trotter")
    wide = {"name": "lama", "instance": "Ex2p1", "rho": 2.0}  # 16 qubits
    cfg = sa_config(tmp_path, use_case=wide, algorithm="qa-trotter", seeds=[0, 1, 2])
    out = tmp_path / "r.json"
    assert run_cli("run", str(cfg), "-o", str(out)) == 1
    records = json.loads(out.read_text())["records"]
    message = f"dense Trotter evolution capped at {TROTTER_QUBIT_CAP} qubits"
    assert [r["error"] for r in records] == [message] * 3
    assert len(trotter) == 3  # a raise is not cached


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"seeds": []}, "seeds"),
        ({"seeds": [2.7]}, "seeds"),
        ({"seeds": [0, True]}, "seeds"),
        ({"seeds": ["1"]}, "seeds"),
        ({"reads": 2.7}, "reads"),
        ({"sweeps": "100"}, "sweeps"),
        ({"algorithm": "qaoa", "layers": True}, "layers"),
        ({"algorithm": "qaoa", "shots": 100.0}, "shots"),
        ({"algorithm": "qaoa", "starts": 1.5}, "starts"),
        ({"algorithm": "qaoa", "max_iter": "10"}, "max_iter"),
        ({"algorithm": "qaoa", "routing_seeds": 1.5}, "routing_seeds"),
        ({"algorithm": "qaoa", "routing_seeds": [0, 2.0]}, "routing_seeds"),
        ({"use_case": {"name": "trp", "cities": 4.0}}, "cities"),
        ({"use_case": {"name": "trp", "cities": True}}, "cities"),
        ({"use_case": {"name": "trp", "cities": "4"}}, "cities"),
        (
            {"use_case": {"name": "trp", "cities": 4, "layout": "asymmetric", "seed": 1.5}},
            "seed",
        ),
        ({"use_case": {"name": "trp", "cities": 4, "seed": False}}, "seed"),
        ({"use_case": {"name": "trp", "cities": 4, "rho": "x"}}, "rho"),
        ({"use_case": {"name": "trp", "cities": 4, "rho": "2"}}, "rho"),
        ({"use_case": {"name": "trp", "cities": 4, "rho": True}}, "rho"),
        ({"use_case": {"name": "lama", "instance": "Ex0p1", "rho": float("nan")}}, "rho"),
        ({"use_case": {"name": "lama", "instance": "Ex0p1", "rho": float("inf")}}, "rho"),
        ({"use_case": "lama"}, "use_case"),
        ({"use_case": ["trp", 4]}, "use_case"),
        ({"use_case": {"instance": "Ex0p1"}}, "name"),
        ({"use_case": {"name": "tsp", "cities": 4}}, "name"),
        ({"use_case": {"name": ["trp"], "cities": 4}}, "name"),
        ({"use_case": {"name": "trp"}}, "cities"),
        # a misspelled key must not fall back to its default and run
        ({"use_case": {"name": "trp", "cities": 4, "layuot": "asymmetric"}}, "layuot"),
        ({"use_case": {"name": "trp", "cities": 4, "instance": "Ex0p1"}}, "instance"),
        ({"use_case": {"name": "lama", "instance": "Ex0p1", "cities": 4}}, "cities"),
        ({"use_case": {"name": "lama", "instance": "Ex0p1", "seed": 0}}, "seed"),
        ({"read": 10}, "read"),
        ({"algorithm": "qa-trotter", "total_time": True}, "total_time"),
        ({"algorithm": "qa-trotter", "total_time": "25"}, "total_time"),
        ({"algorithm": "qa-trotter", "dt": True}, "dt"),
        ({"algorithm": "qa-trotter", "dt": "0.5"}, "dt"),
        # a time is checked once, not by every seed's record
        ({"algorithm": "qa-trotter", "total_time": 0}, "total_time"),
        ({"algorithm": "qa-trotter", "dt": -0.5}, "dt"),
        ({"algorithm": "qa-trotter", "total_time": float("inf")}, "total_time"),
        ({"algorithm": "qa-trotter", "dt": float("inf")}, "dt"),
        ({"algorithm": "qaoa", "layers": 0}, "layers"),
        ({"algorithm": "qaoa", "starts": 0}, "starts"),
        ({"algorithm": "qaoa", "max_iter": -1}, "max_iter"),
        ({"algorithm": "qaoa", "shots": 0}, "shots"),
        ({"reads": 0}, "reads"),
        ({"sweeps": -5}, "sweeps"),
        ({"seeds": [0, -1]}, "seeds"),
        ({"algorithm": "qaoa", "routing_seeds": -3}, "routing_seeds"),
        ({"algorithm": "qaoa", "routing_seeds": [0, -1]}, "routing_seeds"),
        # refused even when no routing seed would read them
        ({"algorithm": "qaoa", "topology": "star"}, "topology"),
        ({"algorithm": "qaoa", "basis": "iSWAP"}, "basis"),
        ({"algorithm": "qaoa", "error_map": 5}, "error_map"),
        ({"algorithm": "qaoa", "error_map": ["e.json"]}, "error_map"),
        ({"algorithm": "anneal"}, "algorithm"),
    ],
    ids=[
        "empty-seeds", "float-seed", "bool-seed", "string-seed", "float-reads",
        "string-sweeps", "bool-layers", "float-shots", "float-starts",
        "string-max_iter", "float-routing_seeds", "float-routing-seed",
        "float-cities", "bool-cities", "string-cities", "float-layout-seed",
        "bool-layout-seed", "string-rho", "numeric-string-rho", "bool-rho", "nan-rho",
        "inf-rho", "string-use_case", "list-use_case", "missing-name",
        "unknown-name", "list-name", "missing-cities", "misspelled-layout",
        "trp-instance", "lama-cities", "lama-seed", "unknown-field", "bool-total_time",
        "string-total_time", "bool-dt", "string-dt", "zero-total_time", "negative-dt",
        "inf-total_time", "inf-dt", "zero-layers", "zero-starts",
        "negative-max_iter", "zero-shots", "zero-reads", "negative-sweeps",
        "negative-seed", "negative-routing_seeds", "negative-routing-seed",
        "unknown-topology", "unknown-basis", "int-error_map", "list-error_map",
        "unknown-algorithm",
    ],
)
def test_run_rejects_bad_config(tmp_path, capsys, overrides, field):
    # a count is never truncated: "reads": 2.7 must not run 2 reads
    out = tmp_path / "x.json"
    assert run_cli("run", str(sa_config(tmp_path, **overrides)), "-o", str(out)) == 1
    assert f"'{field}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ["[]", "1", '"x"', "null"])
def test_run_refuses_a_config_that_is_not_an_object(tmp_path, capsys, text):
    # an array was "'list' object has no attribute 'get'"
    config, out = tmp_path / "config.json", tmp_path / "x.json"
    config.write_text(text)
    assert run_cli("run", str(config), "-o", str(out)) == 1
    assert "error: a run config needs a JSON object, got" in capsys.readouterr().err
    assert not out.exists()


# a small valid `run` config that sets every field; the fuzz corrupts one
_FUZZ_BASE = {
    "use_case": {"name": "lama", "instance": "Ex0p1"},
    "algorithm": "qaoa", "seeds": [0], "layers": 1, "starts": 1, "max_iter": 5,
    "shots": 50, "routing_seeds": 1, "topology": "line", "basis": "CX",
    "error_map": None, "reads": 10, "sweeps": 10, "total_time": 1.0, "dt": 0.5,
}
_VALID_STRINGS = {value for choices in cli._CHOICES.values() for value in choices}
_SCALARS = {
    "bool": st.booleans(),
    "float": st.floats(),
    "string": st.text(max_size=8).filter(lambda s: s not in _VALID_STRINGS),
    "negative": st.integers(max_value=-1),
    "null": st.none(),
}
_KINDS = {**_SCALARS, "list": st.lists(st.one_of(*_SCALARS.values()), min_size=1, max_size=3)}
# kinds a field takes: error_map is null or a path, and a time is a finite
# number > 0, which st.floats() draws too
_VALID_KINDS = {"error_map": ("string", "null"), "total_time": ("float",), "dt": ("float",)}


@st.composite
def corrupt_run_configs(draw):
    """``_FUZZ_BASE`` with one field set to a value it must refuse, or with
    one unknown key, and the name of that field."""
    config = copy.deepcopy(_FUZZ_BASE)
    field = draw(st.sampled_from([*_FUZZ_BASE, None]))
    if field is None:
        field = draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in _FUZZ_BASE))
        config[field] = 1
    else:
        kind = draw(st.sampled_from([k for k in _KINDS if k not in _VALID_KINDS.get(field, ())]))
        config[field] = draw(_KINDS[kind])
    return config, field


def test_fuzzed_run_config_sets_every_field_and_runs(tmp_path):
    assert set(_FUZZ_BASE) == {*cli._RUN_FIELDS, "use_case", "algorithm", "seeds"}
    assert run_cli("run", str(sa_config(tmp_path, **_FUZZ_BASE)), "-o", str(tmp_path / "r.json")) == 0


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(corrupt_run_configs())
def test_run_refuses_one_corrupt_field(tmp_path, capsys, case):
    config, field = case
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "fuzz-result.json"
    assert run_cli("run", str(path), "-o", str(out)) == 1
    assert repr(field) in capsys.readouterr().err
    assert not out.exists()


def test_run_takes_integer_times(tmp_path):
    # JSON integers are numbers: "total_time": 2 runs as 2.0
    overrides = {"algorithm": "qa-trotter", "dt": 0.1, "shots": 50, "seeds": [0]}
    docs = []
    for total_time in (2, 2.0):
        out = tmp_path / f"r{total_time!r}.json"
        cfg = sa_config(tmp_path, total_time=total_time, **overrides)
        assert run_cli("run", str(cfg), "-o", str(out)) == 0
        docs.append(json.loads(out.read_text())["records"])
    assert docs[0] == docs[1]


def test_flag_defaults_are_the_run_config_defaults():
    parser = cli.build_parser()
    argvs = [
        ["train", "p.json", "-o", "x"],
        ["sample", "p.json", "t.json", "-o", "x"],
        ["anneal", "p.json", "-o", "x"],
        ["sweep", "lama", "--values", "1", "-o", "x"],
    ]
    checked = set()
    for argv in argvs:
        args = vars(parser.parse_args(argv))
        for name, default in cli._RUN_FIELDS.items():
            if name in args and not (argv[0] == "train" and name == "shots"):
                assert args[name] == default, (argv[0], name)
                checked.add(name)
    assert checked == {"layers", "starts", "max_iter", "shots", "reads", "sweeps", "total_time", "dt"}


@pytest.mark.parametrize("layout", ["symmetric", "asymmetric"])
@pytest.mark.parametrize("cities", range(-2, 3))
def test_too_few_cities_fail_build_and_run(tmp_path, capsys, cities, layout):
    out = tmp_path / "x.json"
    argv = ["build", "trp", "--cities", str(cities), "--layout", layout, "-o", str(out)]
    assert run_cli(*argv) == 1
    assert "need at least three cities" in capsys.readouterr().err
    entry = {"name": "trp", "cities": cities, "layout": layout}
    assert run_cli("run", str(sa_config(tmp_path, use_case=entry)), "-o", str(out)) == 1
    assert "need at least three cities" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("use_case", ["lama", "trp"])
def test_negative_penalty_fails_build_and_run(tmp_path, capsys, use_case):
    out = tmp_path / "x.json"
    assert run_cli("build", use_case, "--rho", "-1", "-o", str(out)) == 1
    assert "penalty weight must be nonnegative" in capsys.readouterr().err
    entry = {"name": use_case, "rho": -1}
    entry.update({"instance": "Ex0p1"} if use_case == "lama" else {"cities": 4})
    assert run_cli("run", str(sa_config(tmp_path, use_case=entry)), "-o", str(out)) == 1
    assert "penalty weight must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, fields",
    [
        (["build", "lama", "-o", "x"], {"name", "instance", "rho"}),
        (
            ["sweep", "trp", "--values", "1", "-o", "x"],
            {"name", "cities", "layout", "seed", "rho"},
        ),
    ],
)
def test_flags_spell_only_the_named_use_cases_fields(argv, fields):
    use_case = cli._flag_use_case(cli.build_parser().parse_args(argv))
    assert set(use_case) == fields
    cli._check_use_case(use_case)


def reference_tour_optimum(spec):
    """The tour oracle ``_Problem`` replaced, kept as its oracle: every tour
    decoded from its assignment bits and its length summed along the route."""
    m = spec.num_cities
    best = np.inf
    for order in itertools.permutations(range(m)):
        tour, _, _ = decode_trp(route_to_bits(list(order), m), spec)
        length = sum(spec.distances[tour[t], tour[(t + 1) % m]] for t in range(m))
        best = min(best, length)
    return float(best)


@pytest.mark.parametrize("layout", ["symmetric", "asymmetric"])
@pytest.mark.parametrize("cities", range(3, 8))
def test_tour_oracle_equals_decoding_every_tour(cities, layout):
    problem = cli._Problem.build(
        {"name": "trp", "cities": cities, "layout": layout, "seed": cities}
    )
    assert problem.optimal_cost() == reference_tour_optimum(problem.spec)


@pytest.mark.parametrize("rho", ["x", "nan", "inf"])
def test_build_rejects_bad_rho_flag(tmp_path, capsys, rho):
    out = tmp_path / "x.json"
    assert run_cli("build", "trp", "--rho", rho, "-o", str(out)) == 1
    assert "rho" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, use_case",
    [
        (["lama", "--instance", "Ex0p1"], {"name": "lama", "instance": "Ex0p1"}),
        (
            ["lama", "--instance", "Ex1p1", "--rho", "3"],
            {"name": "lama", "instance": "Ex1p1", "rho": 3},
        ),
        (["trp", "--cities", "4"], {"name": "trp", "cities": 4, "rho": "auto"}),
        (["trp", "--cities", "3"], {"name": "trp", "cities": 3}),
        (
            ["trp", "--cities", "4", "--layout", "asymmetric", "--seed", "2", "--rho", "1.5"],
            {"name": "trp", "cities": 4, "layout": "asymmetric", "seed": 2, "rho": 1.5},
        ),
    ],
    ids=["lama-auto", "lama-rho", "trp-auto", "trp-default", "trp-asymmetric"],
)
def test_run_and_build_make_the_same_qubo(tmp_path, monkeypatch, flags, use_case):
    bundle = tmp_path / "bundle.json"
    assert run_cli("build", *flags, "-o", str(bundle)) == 0
    qubos = []
    real = cli.brute_force_solve
    monkeypatch.setattr(cli, "brute_force_solve", lambda q: qubos.append(q) or real(q))
    cfg = sa_config(tmp_path, use_case=use_case, algorithm="brute", seeds=[0])
    assert run_cli("run", str(cfg), "-o", str(tmp_path / "r.json")) == 0
    assert [to_dict(q) for q in qubos] == [json.loads(bundle.read_text())["qubo"]]


# ---------------------------------------------------------------------------
# subcommand / run parity: both paths call the same stage functions


@pytest.mark.parametrize("algorithm, layers", [("qaoa", 1), ("vqe", 1), ("qaoa", 2)])
def test_train_sample_transpile_match_run_record(lama_problem, tmp_path, algorithm, layers):
    seed, routing = 5, [2, 9]
    cfg = sa_config(
        tmp_path, algorithm=algorithm, layers=layers, starts=3, max_iter=40,
        shots=500, seeds=[seed], routing_seeds=routing, topology="ring", basis="CZ",
    )
    out = tmp_path / "r.json"
    assert run_cli("run", str(cfg), "-o", str(out)) == 0
    [record] = json.loads(out.read_text())["records"]

    trained = tmp_path / "train.json"
    common = ["--algorithm", algorithm, "--layers", str(layers)]
    assert run_cli(
        "train", str(lama_problem), *common, "--starts", "3", "--max-iter", "40",
        "--seed", str(seed), "-o", str(trained),
    ) == 0
    doc = json.loads(trained.read_text())
    assert (doc["best_params"], doc["best_cost"]) == (record["best_params"], record["best_cost"])

    samples = tmp_path / "samples.json"
    assert run_cli(
        "sample", str(lama_problem), str(trained), "--shots", "500",
        "--seed", str(seed), "-o", str(samples),
    ) == 0
    counts = json.loads(samples.read_text())["counts"]
    assert list(counts.items()) == list(record["counts"].items())

    rows = []
    for rs in routing:
        path = tmp_path / f"tr{rs}.json"
        assert run_cli(
            "transpile", str(lama_problem), *common, "--params", str(trained),
            "--topology", "ring", "--basis", "CZ", "--seed", str(rs), "-o", str(path),
        ) == 0
        row = json.loads(path.read_text())
        for key in ("schema_version", "type", "topology", "basis"):
            del row[key]
        rows.append(row)
    assert rows == record["transpile"]


def test_anneal_sa_matches_run_record(trp_problem, tmp_path, capsys):
    cfg = sa_config(
        tmp_path, use_case={"name": "trp", "cities": 4, "rho": 2.0, "seed": 1},
        seeds=[3], reads=60, sweeps=80,
    )
    out = tmp_path / "r.json"
    assert run_cli("run", str(cfg), "-o", str(out)) == 0
    [record] = json.loads(out.read_text())["records"]
    capsys.readouterr()
    samples = tmp_path / "sa.json"
    assert run_cli(
        "anneal", str(trp_problem), "--backend", "sa", "--reads", "60",
        "--sweeps", "80", "--seed", "3", "-o", str(samples),
    ) == 0
    counts = json.loads(samples.read_text())["counts"]
    assert list(counts.items()) == list(record["counts"].items())
    rates = f"feasible {record['feasible_pct']}% optimal {record['optimal_pct']}%"
    assert rates in capsys.readouterr().out


# ---------------------------------------------------------------------------
# output directory redirect


def test_outdir_env_redirect(lama_problem, tmp_path, monkeypatch):
    outdir = tmp_path / "results"
    outdir.mkdir()
    monkeypatch.setenv("QUBOLAB_OUTDIR", str(outdir))
    monkeypatch.chdir(tmp_path)
    assert run_cli("solve-brute", str(lama_problem), "-o", "report.json") == 0
    assert (outdir / "report.json").exists()
