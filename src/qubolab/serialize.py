"""JSON and CSV interchange for every workbench object.

One field-driven codec covers every JSON document type. A document carries
the ``init`` fields of its dataclass under their own names, a "type" tag and
a schema version: arrays become nested lists, tuples become lists, tuple
dict keys become ``"i,j"`` strings and a nested dataclass becomes a plain
dict. Decoding hands the fields straight to the constructor, whose
``__post_init__`` coerces and validates them. A new document type is one
entry in ``DOCUMENT_TYPES``, plus a ``_DECODE_HOOKS`` entry only when a
field holds tuple-keyed dicts or nested dataclasses. CSV exports start with
a ``# schema_version=N`` comment line so plot files stay self-describing.
"""

from __future__ import annotations

import functools
import inspect
import json
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from .annealer import SweepRow
from .model import (
    BinaryEncoding,
    IsingModel,
    QcioProblem,
    QuboProblem,
    QuioProblem,
    SolveReport,
)
from .quality import Distribution, QualityReport
from .simulator import Circuit, Gate, SampleSet
from .transpiler import CouplingMap, ErrorMap, Layout
from .usecases import LamaSpec, Route, Schedule, TrpSpec
from .variational import Landscape

SCHEMA_VERSION = 1

DOCUMENT_TYPES = {cls.__name__: cls for cls in (
    QcioProblem, QuioProblem, BinaryEncoding, QuboProblem, IsingModel, SolveReport,
    LamaSpec, TrpSpec, Schedule, Route, Circuit, SampleSet, CouplingMap, ErrorMap,
    Layout, Distribution, QualityReport, Landscape,
)}
_signature = functools.cache(inspect.signature)  # checks a document's field names


def _plain(value):
    """JSON-ready form of a field value."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value) if f.init}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {
            ",".join(map(str, k)) if isinstance(k, tuple) else str(k): _plain(v)
            for k, v in value.items()
        }
    return value


def to_dict(obj) -> dict:
    """Tagged JSON-ready dict for any serializable workbench object."""
    name = type(obj).__name__
    if DOCUMENT_TYPES.get(name) is not type(obj):
        raise TypeError(f"cannot serialize {name}")
    return {"schema_version": SCHEMA_VERSION, "type": name, **_plain(obj)}


def _build(cls, body: dict):
    """``cls(**body)`` after the decode hooks; bad field names raise ``ValueError``."""
    try:
        _signature(cls).bind(**body)
    except TypeError as exc:
        raise ValueError(f"{cls.__name__} document: {exc}") from None
    hooks = _DECODE_HOOKS.get(cls, {})
    return cls(**{k: hooks[k](v) if k in hooks else v for k, v in body.items()})


def _pair_keys(doc: dict) -> dict:
    return {tuple(int(t) for t in key.split(",")): v for key, v in doc.items()}


_DECODE_HOOKS = {
    IsingModel: {"h_quad": _pair_keys},
    ErrorMap: {"two": _pair_keys},
    Circuit: {"gates": lambda gates: [_build(Gate, g) for g in gates]},
}


def from_dict(data: dict):
    """Inverse of :func:`to_dict`; a malformed document raises ``ValueError``."""
    if not isinstance(data, dict):
        raise ValueError(f"a document is a JSON object, not {type(data).__name__}")
    kind = data.get("type")
    if not isinstance(kind, str) or kind not in DOCUMENT_TYPES:
        raise ValueError(f"unknown document type {kind!r}")
    body = {k: v for k, v in data.items() if k not in ("schema_version", "type")}
    return _build(DOCUMENT_TYPES[kind], body)


def _text(doc: dict) -> str:
    """The one JSON text format: sorted keys, two-space indent."""
    return json.dumps(doc, sort_keys=True, indent=2)


def dumps(obj) -> str:
    return _text(to_dict(obj))


def save_json(path, obj):
    write_json(path, to_dict(obj))


def write_json(path, doc: dict):
    """Write a JSON-ready dict in the format of :func:`dumps`, plus a newline."""
    Path(path).write_text(_text(doc) + "\n")


def load_json(path):
    return from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# CSV exports

_CSV_HEADER = f"# schema_version={SCHEMA_VERSION}\n"


def landscape_to_csv(scape: Landscape, path):
    """Matrix layout: first column beta, remaining columns one per gamma."""
    lines = [_CSV_HEADER.rstrip("\n")]
    gamma_cells = ",".join(repr(float(g)) for g in scape.gamma_axis)
    lines.append("beta\\gamma," + gamma_cells)
    for i, beta in enumerate(scape.beta_axis):
        row = ",".join(repr(float(v)) for v in scape.grid[i])
        lines.append(f"{float(beta)!r},{row}")
    Path(path).write_text("\n".join(lines) + "\n")


def traces_to_csv(traces, path):
    """One row per objective evaluation: run, iteration, cost."""
    lines = [_CSV_HEADER.rstrip("\n"), "run,iteration,cost"]
    for run, trace in enumerate(traces):
        for it, (_, cost) in enumerate(trace.iterates):
            lines.append(f"{run},{it},{float(cost)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def sweeps_to_csv(rows, path):
    lines = [_CSV_HEADER.rstrip("\n"), "axis,feasible_pct,optimal_pct,reads"]
    for row in rows:
        if not isinstance(row, SweepRow):
            raise TypeError("sweeps_to_csv expects SweepRow entries")
        lines.append(
            f"{float(row.axis_value)!r},{float(row.feasible_pct)!r},"
            f"{float(row.optimal_pct)!r},{row.reads}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def schedule_to_csv(schedule: Schedule, path):
    """Decoded charging schedule: one row per (car, timeslot)."""
    lines = [_CSV_HEADER.rstrip("\n"), "car,timeslot,level"]
    cars, slots = schedule.levels.shape
    for c in range(cars):
        for t in range(slots):
            lines.append(f"{c},{t},{int(schedule.levels[c, t])}")
    Path(path).write_text("\n".join(lines) + "\n")


def route_to_csv(route: Route, path):
    lines = [_CSV_HEADER.rstrip("\n"), "position,city"]
    for pos, city in enumerate(route.order):
        lines.append(f"{pos},{city}")
    Path(path).write_text("\n".join(lines) + "\n")


def scatter_to_csv(records, path):
    """Per-seed transpilation scatter: seed, two_qubit_count, circuit_score."""
    lines = [_CSV_HEADER.rstrip("\n"), "seed,two_qubit_count,circuit_score"]
    for rec in records:
        lines.append(
            f"{rec['seed']},{rec['two_qubit_count']},{float(rec['circuit_score'])!r}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
