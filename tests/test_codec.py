"""Field-driven JSON codec: golden documents, registry coverage, malformed
documents, and non-finite values rejected at the type boundary."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from qubolab import cli
from qubolab.model import (
    IsingModel,
    QuboProblem,
    SolveReport,
    brute_force_solve,
    build_quio,
    encode_binary,
)
from qubolab.quality import Distribution, QualityReport
from qubolab.serialize import DOCUMENT_TYPES, dumps, from_dict
from qubolab.simulator import Circuit, SampleSet
from qubolab.transpiler import CouplingMap, ErrorMap, Layout
from qubolab.usecases import Route, Schedule, build_lama, example_series, gen_cities
from qubolab.variational import Landscape

GOLDEN = Path(__file__).parent / "golden"


def instances() -> list:
    """One object of every document type; keys, shapes and values chosen so
    that each encoding rule of the codec shows in the text."""
    qcio, enc = build_lama(example_series()["Ex0p1"])
    quio = build_quio(qcio, 1.5)
    qubo = encode_binary(quio, enc)
    ising = IsingModel(
        {(0, 11): 0.25, (2, 10): -0.1, (1, 2): 1.0 / 3.0},
        np.linspace(-1.0, 1.0, 12),
        0.1 + 0.2,
        12,
    )
    ising.cost_vector()  # the memoised diagonal must stay out of the document
    return [
        qcio,
        quio,
        enc,
        qubo,
        ising,
        brute_force_solve(qubo),
        example_series()["Ex2p1"],
        gen_cities(4, "asymmetric", seed=3, rho=1.5),
        Schedule(np.array([[0, 2, 1], [3, 0, 1]])),
        Route([2, 0, 3, 1]),
        Circuit(3).h(0).rzz(0, 2, 0.7).cx(1, 2).rx(1, -0.25).measure(0, 1, 2),
        SampleSet({"010": 7, "000": 3}, shots=10),
        CouplingMap.ring(5),
        ErrorMap(
            {0: 0.001, 10: 0.002, 2: 0.003},
            {(0, 10): 0.01, (2, 3): 0.015, (10, 2): 0.02},
            {0: 0.02, 10: 0.03},
        ),
        Layout([2, 0, 1]),
        Distribution({"00": 0.5, "01": 0.25, "11": 0.25}),
        QualityReport(0.97, 0.12, 0.9, 80.0, 20.0),
        Landscape(
            np.arange(6.0).reshape(2, 3), np.array([0.0, 0.5]), np.array([0.0, 1.0, 2.0])
        ),
    ]


def test_registry_and_instances_cover_the_same_types():
    names = [type(obj).__name__ for obj in instances()]
    assert len(names) == len(set(names))
    assert set(names) == set(DOCUMENT_TYPES)
    assert {p.stem for p in GOLDEN.glob("*.json")} == set(DOCUMENT_TYPES)


@pytest.mark.parametrize("obj", instances(), ids=lambda obj: type(obj).__name__)
def test_dumps_matches_golden_document(obj):
    text = (GOLDEN / f"{type(obj).__name__}.json").read_text()
    assert dumps(obj) + "\n" == text
    assert dumps(from_dict(json.loads(text))) + "\n" == text


def test_malformed_documents_rejected():
    good = json.loads(dumps(Layout([1, 0])))
    with pytest.raises(ValueError, match="unknown document type"):
        from_dict({**good, "type": "Mystery"})
    with pytest.raises(ValueError, match="unknown document type"):
        from_dict({"assignment": [1, 0]})
    with pytest.raises(ValueError, match="missing"):
        from_dict({"schema_version": 1, "type": "Layout"})
    with pytest.raises(ValueError, match="unexpected"):
        from_dict({**good, "extra": 1})
    circ = json.loads(dumps(Circuit(2).h(0)))
    circ["gates"][0]["phase"] = 0.5
    with pytest.raises(ValueError, match="unexpected"):
        from_dict(circ)
    report = json.loads(dumps(brute_force_solve(QuboProblem(Q=[[1.0]], constant=0.0))))
    del report["optimal_cost"]
    with pytest.raises(ValueError, match="missing"):
        from_dict(report)


@pytest.mark.parametrize(
    "doc",
    [[1, 2], "Route", None, 3.5, {"type": ["Route"]}, {"type": {"Route": 1}}, {"type": 5}],
    ids=["list", "string", "null", "number", "list-type", "object-type", "number-type"],
)
def test_documents_that_are_not_tagged_objects_rejected(doc):
    with pytest.raises(ValueError, match="document"):
        from_dict(doc)


@pytest.mark.parametrize(
    "fields",
    [
        {"order": "abc"},
        {"order": "012"},
        {"order": 3},
        {"order": [0, 1.5, 2]},
        {"order": [0, 0, 1]},
        {"order": [1, 2, 3]},
        {"order": [True, False]},
    ],
)
def test_route_rejects_what_is_not_a_tour(fields):
    with pytest.raises(ValueError, match="route order"):
        Route(**fields)
    with pytest.raises(ValueError, match="route order"):
        from_dict({"type": "Route", **fields})


@pytest.mark.parametrize(
    "fields",
    [
        {"optimal_cost": "x", "optimal_set": ["01"]},
        {"optimal_cost": "1.5", "optimal_set": ["01"]},
        {"optimal_cost": None, "optimal_set": ["01"]},
        {"optimal_cost": float("nan"), "optimal_set": ["01"]},
        {"optimal_cost": 1.0, "optimal_set": 5},
        {"optimal_cost": 1.0, "optimal_set": "01"},
        {"optimal_cost": 1.0, "optimal_set": [1, 0]},
        {"optimal_cost": 1.0, "optimal_set": ["0x"]},
        {"optimal_cost": 1.0, "optimal_set": ["01"], "evaluations": -1},
        {"optimal_cost": 1.0, "optimal_set": ["01"], "evaluations": "4"},
        {"optimal_cost": True, "optimal_set": ["01"]},
        {"optimal_cost": 1.0, "optimal_set": ["01"], "evaluations": True},
    ],
)
def test_solve_report_rejects_wrong_field_types(fields):
    with pytest.raises(ValueError):
        SolveReport(**fields)
    with pytest.raises(ValueError):
        from_dict({"type": "SolveReport", **fields})


def test_valid_route_and_report_keep_their_values():
    assert Route((2, np.int64(0), 1)).order == [2, 0, 1]
    report = SolveReport(np.float64(-1.5), ("01", "10"), np.int64(4))
    assert (report.optimal_cost, report.optimal_set, report.evaluations) == (
        -1.5,
        ["01", "10"],
        4,
    )
    assert type(report.optimal_cost) is float


def test_defaulted_fields_may_be_omitted():
    doc = {"type": "QuboProblem", "Q": [[1.0, -1.0], [0.0, 2.0]], "constant": 0.5}
    assert from_dict(doc).num_vars == 2


# ---------------------------------------------------------------------------
# non-finite values


def test_distribution_rejects_non_finite_probabilities():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="non-finite"):
            Distribution({"0": bad})
        with pytest.raises(ValueError, match="non-finite"):
            Distribution({"0": 1.0, "1": bad})
    with pytest.raises(ValueError, match="non-finite"):
        from_dict(json.loads('{"type": "Distribution", "probs": {"0": NaN}}'))


def test_qubo_rejects_non_finite_coefficients():
    with pytest.raises(ValueError, match="finite"):
        QuboProblem(Q=[[1.0, float("nan")], [0.0, 1.0]], constant=0.0)
    with pytest.raises(ValueError, match="finite"):
        QuboProblem(Q=[[float("inf")]], constant=0.0)
    with pytest.raises(ValueError, match="finite"):
        QuboProblem(Q=[[1.0]], constant=float("nan"))
    doc = '{"type": "QuboProblem", "Q": [[NaN, 0.0], [0.0, 1.0]], "constant": 0.0}'
    with pytest.raises(ValueError, match="finite"):
        from_dict(json.loads(doc))


def test_score_rejects_nan_distribution_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "Distribution", "probs": {"0": NaN}}\n')
    good = tmp_path / "good.json"
    good.write_text(dumps(Distribution({"0": 1.0})) + "\n")
    assert cli.main(["score", str(bad), str(good)]) == 1
    assert "non-finite" in capsys.readouterr().err


def test_solve_brute_rejects_nan_qubo_bundle(tmp_path, capsys):
    path = tmp_path / "lama.json"
    assert cli.main(["build", "lama", "--instance", "Ex0p1", "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["qubo"]["Q"][0][1] = float("nan")
    path.write_text(json.dumps(doc))
    assert cli.main(["solve-brute", str(path)]) == 1
    assert "finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# oracles in `run`


def _counting_brute_force(monkeypatch):
    calls = []

    def counted(qubo, *args, **kwargs):
        calls.append(qubo.num_vars)
        return brute_force_solve(qubo, *args, **kwargs)

    monkeypatch.setattr(cli, "brute_force_solve", counted)
    return calls


def test_run_enumerates_the_qubo_once_per_batch(monkeypatch):
    calls = _counting_brute_force(monkeypatch)
    config = {
        "use_case": {"name": "lama", "instance": "Ex0p1", "rho": 2.0},
        "algorithm": "qaoa",
        "starts": 1,
        "max_iter": 5,
        "shots": 100,
        "seeds": [1, 2, 3],
    }
    records = cli.run(config)["records"]
    assert calls == [6]
    assert all("optimal_pct" in r for r in records)
    brute = cli.run({**config, "algorithm": "brute"})["records"]
    assert calls == [6, 6]
    assert [r["optimal_set"] for r in brute] == [brute[0]["optimal_set"]] * 3


def test_run_repeats_the_oracle_note_on_every_seed(monkeypatch):
    calls = _counting_brute_force(monkeypatch)
    config = {
        "use_case": {"name": "lama", "instance": "Ex0p1", "rho": 0.0},
        "algorithm": "qaoa",
        "starts": 1,
        "max_iter": 5,
        "shots": 100,
        "seeds": [1, 2, 3],
    }
    records = cli.run(config)["records"]
    assert calls == [6]
    notes = [r["oracle_note"] for r in records]
    assert notes == ["no feasible minimizer at this penalty; increase --rho"] * 3
