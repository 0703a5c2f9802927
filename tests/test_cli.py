"""End-to-end command-line tests; every command is exercised through main()."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qubolab

from qubolab import cli
from qubolab.model import to_ising
from qubolab.serialize import from_dict


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


def test_train_vqe_param_count(lama_problem, tmp_path):
    trained = tmp_path / "vqe.json"
    rc = run_cli(
        "train", str(lama_problem), "--algorithm", "vqe", "--layers", "1",
        "--starts", "2", "--max-iter", "40", "-o", str(trained),
    )
    assert rc == 0
    assert len(json.loads(trained.read_text())["best_params"]) == 12


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
    """scipy.optimize is imported by training alone, so the other commands
    start without it."""
    script = f"""
import sys
import qubolab.cli as cli
assert "scipy.optimize" not in sys.modules, "imported by qubolab.cli"
problem = {str(tmp_path / "trp.json")!r}
assert cli.main(["build", "trp", "--cities", "3", "-o", problem]) == 0
assert cli.main(["anneal", problem, "--reads", "8", "--sweeps", "5",
                 "-o", {str(tmp_path / "sa.json")!r}]) == 0
assert cli.main(["anneal", problem, "--backend", "trotter", "--total-time", "1",
                 "--dt", "0.1", "-o", {str(tmp_path / "dist.json")!r}]) == 0
assert "scipy.optimize" not in sys.modules, "imported by build or anneal"
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


def test_run_rejects_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"algorithm": "sa", "seeds": []}))
    assert run_cli("run", str(path), "-o", str(tmp_path / "x.json")) == 1
    assert "seeds" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# output directory redirect


def test_outdir_env_redirect(lama_problem, tmp_path, monkeypatch):
    outdir = tmp_path / "results"
    outdir.mkdir()
    monkeypatch.setenv("QUBOLAB_OUTDIR", str(outdir))
    monkeypatch.chdir(tmp_path)
    assert run_cli("solve-brute", str(lama_problem), "-o", "report.json") == 0
    assert (outdir / "report.json").exists()
