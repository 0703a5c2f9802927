"""JSON round-trips and CSV export format checks."""

from __future__ import annotations

import json

import numpy as np
import pytest

from qubolab.annealer import SweepRow
from qubolab.model import QuboProblem, SolveReport, build_quio, encode_binary
from qubolab.optimizer import OptTrace
from qubolab.quality import Distribution
from qubolab.serialize import (
    SCHEMA_VERSION,
    dumps,
    from_dict,
    landscape_to_csv,
    sweeps_to_csv,
    to_dict,
    traces_to_csv,
    write_json,
)
from qubolab.simulator import SampleSet
from qubolab.transpiler import CouplingMap, ErrorMap
from qubolab.usecases import build_lama, example_series, gen_cities
from qubolab.variational import Landscape

from util import load_json


def roundtrip(obj):
    return from_dict(json.loads(dumps(obj)))


def test_qubo_ising_solve_report_roundtrip():
    spec = example_series()["Ex0p1"]
    qcio, enc = build_lama(spec)
    qubo = encode_binary(build_quio(qcio, 2.0), enc)
    qubo.cost_vector()  # the memoised table is no field: the round trip refuses unknown fields
    back = roundtrip(qubo)
    np.testing.assert_array_equal(back.Q, qubo.Q)
    assert back.constant == qubo.constant
    report = SolveReport(optimal_cost=2.0, optimal_set=["100100"], evaluations=64)
    assert roundtrip(report) == report


def test_usecase_spec_roundtrips():
    spec = example_series()["Ex2p1"]
    back = roundtrip(spec)
    assert back.availability == spec.availability
    assert back.required_energy == spec.required_energy
    assert back.num_cars == 2
    trp = gen_cities(4, "asymmetric", seed=3)
    trp_back = roundtrip(trp)
    np.testing.assert_array_equal(trp_back.distances, trp.distances)
    assert trp_back.num_cities == 4


def test_circuit_and_sampleset_roundtrip():
    samples = SampleSet({"010": 7, "000": 3})
    back = roundtrip(samples)
    assert back.counts == samples.counts and back.shots == 10


def test_topology_and_errmap_roundtrip():
    errmap = ErrorMap.uniform(CouplingMap.heavy_hex_27(), 0.001, 0.01, 0.02)
    err_back = roundtrip(errmap)
    assert err_back.single == errmap.single
    assert err_back.two == errmap.two
    assert err_back.measure == errmap.measure


def test_quality_and_distribution_roundtrip():
    dist = Distribution({"00": 0.5, "11": 0.5})
    assert roundtrip(dist).probs == dist.probs


def test_save_and_load_json(tmp_path):
    qubo = QuboProblem(Q=[[1.0, -2.0], [0.0, 0.5]], constant=3.0)
    path = tmp_path / "qubo.json"
    write_json(path, to_dict(qubo))
    raw = json.loads(path.read_text())
    assert raw["schema_version"] == SCHEMA_VERSION
    assert raw["Q"] == [[1.0, -2.0], [0.0, 0.5]]
    loaded = load_json(path)
    np.testing.assert_array_equal(loaded.Q, qubo.Q)


def test_dumps_is_deterministic():
    qubo = QuboProblem(Q=[[1.0]], constant=0.0)
    assert dumps(qubo) == dumps(qubo)


def test_unknown_types_rejected():
    with pytest.raises(TypeError):
        to_dict(object())
    with pytest.raises(ValueError):
        from_dict({"type": "Mystery"})


# ---------------------------------------------------------------------------
# CSV


def test_landscape_csv_layout(tmp_path):
    scape = Landscape(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.0, 1.0]))
    path = tmp_path / "scape.csv"
    landscape_to_csv(scape, path)
    lines = path.read_text().splitlines()
    assert lines[0] == f"# schema_version={SCHEMA_VERSION}"
    assert lines[1].startswith("beta\\gamma,")
    assert lines[2].split(",")[0] == "0.0"
    grid = np.loadtxt(path, delimiter=",", skiprows=2, usecols=(1, 2))
    np.testing.assert_array_equal(grid, scape.grid)


def test_traces_csv(tmp_path):
    traces = [
        OptTrace([(np.zeros(1), 3.0), (np.ones(1), 1.0)], 1.0, "tolerance"),
        OptTrace([(np.zeros(1), 2.0)], 2.0, "max_iter"),
    ]
    path = tmp_path / "traces.csv"
    traces_to_csv(traces, path)
    lines = path.read_text().splitlines()
    assert lines[1] == "run,iteration,cost"
    assert lines[2] == "0,0,3.0"
    assert lines[-1] == "1,0,2.0"


def test_sweeps_csv(tmp_path):
    rows = [SweepRow(0.5, 40.0, 10.0, 400), SweepRow(1.0, 90.0, 55.0, 400)]
    path = tmp_path / "sweep.csv"
    sweeps_to_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[1] == "axis,feasible_pct,optimal_pct,reads"
    assert lines[2] == "0.5,40.0,10.0,400"
    with pytest.raises(TypeError):
        sweeps_to_csv([(1, 2, 3, 4)], path)
