"""Field-driven JSON codec: golden documents, registry coverage, malformed
documents, and non-finite values rejected at the type boundary."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubolab import cli
from qubolab.model import (
    QuboProblem,
    SolveReport,
    brute_force_solve,
    build_quio,
    encode_binary,
)
from qubolab.quality import Distribution
from qubolab.serialize import DOCUMENT_TYPES, dumps, from_dict
from qubolab.simulator import SampleSet
from qubolab.transpiler import ErrorMap
from qubolab.usecases import (
    LamaSpec, TrpSpec, build_lama, decode_trp, example_series, gen_cities,
)

from util import route_to_bits

GOLDEN = Path(__file__).parent / "golden"


def instances() -> list:
    """One object of every document type; keys, shapes and values chosen so
    that each encoding rule of the codec shows in the text."""
    qcio, enc = build_lama(example_series()["Ex0p1"])
    qubo = encode_binary(build_quio(qcio, 1.5), enc)
    return [
        qubo,
        brute_force_solve(qubo),
        example_series()["Ex2p1"],
        gen_cities(4, "asymmetric", seed=3),
        SampleSet({"010": 7, "000": 3}),
        ErrorMap(
            {0: 0.001, 10: 0.002, 2: 0.003},
            {(0, 10): 0.01, (2, 3): 0.015, (10, 2): 0.02},
            {0: 0.02, 10: 0.03},
        ),
        Distribution({"00": 0.5, "01": 0.25, "11": 0.25}),
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


def test_malformed_documents_rejected(tmp_path, capsys):
    good = json.loads(dumps(Distribution({"1": 1.0})))
    with pytest.raises(ValueError, match="unknown document type"):
        from_dict({**good, "type": "Mystery"})
    with pytest.raises(ValueError, match="unknown document type"):
        from_dict({"probs": {"1": 1.0}})
    with pytest.raises(ValueError, match="missing"):
        from_dict({"schema_version": 1, "type": "Distribution"})
    with pytest.raises(ValueError, match="unexpected"):
        from_dict({**good, "extra": 1})
    report = json.loads(dumps(brute_force_solve(QuboProblem(Q=[[1.0]], constant=0.0))))
    del report["optimal_cost"]
    with pytest.raises(ValueError, match="missing"):
        from_dict(report)
    # a field that repeats another, or that nothing reads, is no field: a
    # document written with one is refused, naming it
    lama = json.loads(dumps(example_series()["Ex0p1"]))
    trp = json.loads(dumps(gen_cities(4)))
    for doc, field in [
        ({**json.loads(dumps(QuboProblem(Q=[[1.0]], constant=0.0))), "num_vars": 1}, "num_vars"),
        ({**json.loads(dumps(SampleSet({"01": 2}))), "shots": 2}, "shots"),
        ({**lama, "num_cars": 1}, "num_cars"),
        ({**lama, "num_levels": 4}, "num_levels"),
        ({**trp, "num_cities": 4}, "num_cities"),
        ({**trp, "layout": "symmetric"}, "layout"),
        ({**trp, "rho": 1.0}, "rho"),
    ]:
        with pytest.raises(ValueError, match=f"{doc['type']} document: .* '{field}'$"):
            from_dict(doc)
    # the QCIO and its encoding are rebuilt from the spec, never read back
    for kind in ("QcioProblem", "BinaryEncoding"):
        with pytest.raises(ValueError, match=f"unknown document type '{kind}'"):
            from_dict({"schema_version": 1, "type": kind, "B": [[1.0]], "M": [[1.0]]})
    # through the CLI: an old bundle and an old SampleSet exit 1 and write nothing
    bundle, samples, out = tmp_path / "bundle.json", tmp_path / "samples.json", tmp_path / "out.json"
    assert cli.main(["build", "lama", "--instance", "Ex0p1", "-o", str(bundle)]) == 0
    old = json.loads(bundle.read_text())
    old["qubo"]["num_vars"] = 6
    bundle.write_text(json.dumps(old))
    samples.write_text(json.dumps({**json.loads(dumps(SampleSet({"01": 2}))), "shots": 2}))
    capsys.readouterr()
    for argv, field in [
        (["solve-brute", str(bundle), "-o", str(out)], "num_vars"),
        (["score", str(samples), str(samples), "-o", str(out)], "shots"),
    ]:
        assert cli.main(argv) == 1
        assert f"unexpected keyword argument '{field}'" in capsys.readouterr().err
        assert not out.exists()


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
    order, _, _ = decode_trp(route_to_bits([2, 0, 1], 3), gen_cities(3))
    assert order == [2, 0, 1]
    spec = LamaSpec(np.int64(3), [(np.int64(1), 0)], [np.int64(2)])
    assert (spec.availability, spec.required_energy) == ([[0, 1]], [2])
    assert {type(spec.availability[0][0]), type(spec.required_energy[0])} == {int}
    report = SolveReport(np.float64(-1.5), ("01", "10"), np.int64(4))
    assert (report.optimal_cost, report.optimal_set, report.evaluations) == (
        -1.5,
        ["01", "10"],
        4,
    )
    assert type(report.optimal_cost) is float


@pytest.mark.parametrize(
    "doc",
    [
        {"type": "LamaSpec", "num_timeslots": 3, "availability": [[0, 1]],
         "required_energy": [2.7]},
        {"type": "LamaSpec", "num_timeslots": 3, "availability": [[0, 1.5]],
         "required_energy": [2]},
        {"type": "LamaSpec", "num_timeslots": 1.5, "availability": [[0]],
         "required_energy": [2]},
        # num_cars and shots are no fields now: refused by name, whatever the value
        {"type": "LamaSpec", "num_timeslots": 3, "num_cars": True, "availability": [[0, 1]],
         "required_energy": [2]},
        {"type": "LamaSpec", "num_timeslots": 3, "availability": 5,
         "required_energy": [2]},
        {"type": "SampleSet", "counts": {"0": 2.5, "1": 2.5}},
        {"type": "SampleSet", "counts": {"0": 1}, "shots": True},
        {"type": "SampleSet", "counts": [["0", 1]]},
        {"type": "Distribution", "probs": [["0", 1.0]]},
        {"type": "Distribution", "probs": {"0": "1.0"}},
        {"type": "ErrorMap", "single": [0.1], "two": {}, "measure": {}},
        {"type": "ErrorMap", "single": {}, "two": [0.1], "measure": {}},
        {"type": "ErrorMap", "single": {"0": None}, "two": {}, "measure": {}},
        {"type": "QuboProblem", "Q": {}, "constant": 0.0},
        {"type": "QuboProblem", "Q": [[1.0]], "constant": [1.0]},
        {"type": "QuboProblem", "Q": [["1.5"]], "constant": 0.0},
        {"type": "QuboProblem", "Q": [[True]], "constant": 0.0},
        # no document type now; test_model checks that the constructor refuses both
        {"type": "BinaryEncoding", "B": [[1.0, 2.0]], "bits_per_var": 2},
        {"type": "BinaryEncoding", "B": [[1.0, 2.0]], "bits_per_var": [2.5]},
        {"type": "TrpSpec", "num_cities": "3", "distances": [[0.0]]},
        {"type": "TrpSpec", "distances": {}},
    ],
    ids=[
        "lama-fraction-energy", "lama-fraction-slot", "lama-fraction-slots", "lama-bool-cars",
        "lama-number-availability", "fraction-counts", "bool-shots", "list-counts",
        "list-probs", "string-prob", "list-single", "list-two", "null-rate", "object-Q",
        "list-constant", "string-Q-entry", "bool-Q-entry", "number-bits_per_var",
        "fraction-bits_per_var", "string-cities", "object-distances",
    ],
)
def test_documents_refuse_values_they_once_truncated_or_crashed_on(doc):
    # each was truncated (2.7 -> 2) or raised TypeError or AttributeError
    with pytest.raises(ValueError):
        from_dict(doc)


# ---------------------------------------------------------------------------
# fuzzing the seven documents

# fields whose value is a real number, and fields whose entries are: a
# fraction is a valid value there
_REAL_FIELDS = {"constant", "optimal_cost"}
_REAL_ENTRIES = {"Q", "distances", "probs", "single", "two", "measure"}
# text that is not a bitstring
_TEXT = st.text(min_size=1, max_size=8).filter(lambda s: s.strip("01"))
_NOT_NUMBERS = st.one_of(st.booleans(), _TEXT, st.none())
_CORRUPT = {
    "bool": st.booleans(),
    "fraction": st.floats(allow_nan=False, allow_infinity=False).filter(
        lambda x: not x.is_integer()
    ),
    "string": _TEXT,
    "null": st.none(),
    "list": st.lists(_NOT_NUMBERS, min_size=1, max_size=3),
    "object": st.dictionaries(st.text(max_size=4), _NOT_NUMBERS, min_size=1, max_size=2),
    "non-finite": st.sampled_from([float("nan"), float("inf"), float("-inf")]),
}


@st.composite
def corrupt_documents(draw):
    """A valid document of one of the seven types with one field, or one
    entry nested in it, set to a value it must refuse; and that field."""
    doc = json.loads(dumps(draw(st.sampled_from(instances()))))
    field = draw(st.sampled_from(sorted(set(doc) - {"schema_version", "type"})))
    owner, key = doc, field
    while isinstance(owner[key], (list, dict)) and owner[key] and draw(st.booleans()):
        owner = owner[key]
        key = draw(st.sampled_from(list(owner) if isinstance(owner, dict) else range(len(owner))))
    reals = _REAL_ENTRIES if owner is not doc else _REAL_FIELDS
    kinds = [k for k in _CORRUPT if k != "fraction" or field not in reals]
    owner[key] = draw(_CORRUPT[draw(st.sampled_from(kinds))])
    return doc, field


@settings(max_examples=400, deadline=None)
@given(corrupt_documents())
def test_from_dict_refuses_one_corrupt_field(case):
    doc, field = case
    with pytest.raises(ValueError):  # never TypeError or AttributeError
        from_dict(doc)


def test_defaulted_fields_may_be_omitted():
    report = from_dict({"type": "SolveReport", "optimal_cost": 0.5})
    assert (report.optimal_set, report.evaluations) == ([], 0)
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


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_trp_spec_rejects_a_non_finite_distance_pair(bad):
    # a symmetric inf pair passed the symmetry check, and a NaN got its message
    distances = np.ones((3, 3)) - np.eye(3)
    distances[0, 1] = distances[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite distances"):
        TrpSpec(distances=distances)


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
