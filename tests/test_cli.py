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
from qubolab.serialize import from_dict, to_dict


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


@pytest.mark.parametrize("algorithm, size", [("qaoa", 2), ("vqe", 12)])
def test_transpile_rejects_non_finite_params(lama_problem, tmp_path, capsys, algorithm, size):
    trained = tmp_path / "train.json"
    params = [0.5] * size
    params[1] = float("nan")
    trained.write_text(json.dumps({"best_params": params}))
    out = tmp_path / "tr.json"
    rc = run_cli(
        "transpile", str(lama_problem), "--algorithm", algorithm,
        "--params", str(trained), "-o", str(out),
    )
    assert rc == 1
    assert "non-finite" in capsys.readouterr().err
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


def test_run_failing_trotter_state_errors_every_seed(tmp_path, monkeypatch):
    trotter = count_calls(monkeypatch, "qa_trotter")
    cfg = sa_config(
        tmp_path, algorithm="qa-trotter", seeds=[0, 1, 2], total_time=1.0, dt=float("inf")
    )
    out = tmp_path / "r.json"
    assert run_cli("run", str(cfg), "-o", str(out)) == 1
    records = json.loads(out.read_text())["records"]
    assert [r["error"] for r in records] == ["non-finite dt"] * 3
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
        ({"read": 10}, "read"),
        ({"algorithm": "qa-trotter", "total_time": True}, "total_time"),
        ({"algorithm": "qa-trotter", "total_time": "25"}, "total_time"),
        ({"algorithm": "qa-trotter", "dt": True}, "dt"),
        ({"algorithm": "qa-trotter", "dt": "0.5"}, "dt"),
    ],
    ids=[
        "empty-seeds", "float-seed", "bool-seed", "string-seed", "float-reads",
        "string-sweeps", "bool-layers", "float-shots", "float-starts",
        "string-max_iter", "float-routing_seeds", "float-routing-seed",
        "float-cities", "bool-cities", "string-cities", "float-layout-seed",
        "bool-layout-seed", "string-rho", "numeric-string-rho", "bool-rho", "nan-rho",
        "inf-rho", "unknown-field", "bool-total_time", "string-total_time", "bool-dt",
        "string-dt",
    ],
)
def test_run_rejects_bad_config(tmp_path, capsys, overrides, field):
    # a count is never truncated: "reads": 2.7 must not run 2 reads
    out = tmp_path / "x.json"
    assert run_cli("run", str(sa_config(tmp_path, **overrides)), "-o", str(out)) == 1
    assert f"'{field}'" in capsys.readouterr().err
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


@pytest.mark.parametrize("use_case", ["lama", "trp"])
def test_negative_penalty_fails_build_and_run(tmp_path, capsys, use_case):
    out = tmp_path / "x.json"
    assert run_cli("build", use_case, "--rho", "-1", "-o", str(out)) == 1
    assert "penalty weight must be nonnegative" in capsys.readouterr().err
    entry = {"name": use_case, "instance": "Ex0p1", "cities": 4, "rho": -1}
    assert run_cli("run", str(sa_config(tmp_path, use_case=entry)), "-o", str(out)) == 1
    assert "penalty weight must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


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
