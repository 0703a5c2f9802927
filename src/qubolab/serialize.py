"""JSON interchange for the documents the CLI exchanges, and its CSV exports.

One field-driven codec covers the seven document types that ``qubolab``
writes or reads back. A document carries the ``init`` fields of its
dataclass under their own names, a "type" tag and a schema version: arrays
become nested lists, tuples become lists and tuple dict keys become
``"i,j"`` strings. Decoding hands the fields straight to the constructor,
whose ``__post_init__`` checks and coerces them. A new document type is one
entry in ``DOCUMENT_TYPES``, plus a ``_DECODE_HOOKS`` entry only when a
field holds tuple-keyed dicts. A value derived from other fields
(``QuboProblem.num_vars``, ``SampleSet.shots``, ``LamaSpec.num_cars``,
``TrpSpec.num_cities``) is no ``init`` field, so a document holds each fact
once, and a document that still carries one is refused, naming it. CSV
exports start with a ``# schema_version=N`` comment line so plot files stay
self-describing.
"""

from __future__ import annotations

import functools
import inspect
import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from .annealer import SweepRow
from .model import QuboProblem, SolveReport
from .quality import Distribution
from .simulator import SampleSet
from .transpiler import ErrorMap
from .usecases import LamaSpec, TrpSpec
from .variational import Landscape

SCHEMA_VERSION = 1

DOCUMENT_TYPES = {cls.__name__: cls for cls in (
    QuboProblem, SolveReport, LamaSpec, TrpSpec, SampleSet, Distribution, ErrorMap,
)}
_signature = functools.cache(inspect.signature)  # checks a document's field names


def _plain(value):
    """JSON-ready form of a field value."""
    if isinstance(value, np.ndarray):
        return value.tolist()
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
    body = {f.name: _plain(getattr(obj, f.name)) for f in fields(obj) if f.init}
    return {"schema_version": SCHEMA_VERSION, "type": name, **body}


def _build(cls, body: dict):
    """``cls(**body)`` after the decode hooks; bad field names raise ``ValueError``."""
    try:
        _signature(cls).bind(**body)
    except TypeError as exc:
        raise ValueError(f"{cls.__name__} document: {exc}") from None
    hooks = _DECODE_HOOKS.get(cls, {})
    return cls(**{k: hooks[k](v) if k in hooks else v for k, v in body.items()})


def _pair_keys(doc):
    """``"i,j"`` keys as ``(i, j)``; a non-object is left to the constructor."""
    if isinstance(doc, dict):
        return {tuple(int(t) for t in key.split(",")): v for key, v in doc.items()}
    return doc


_DECODE_HOOKS = {ErrorMap: {"two": _pair_keys}}


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


def write_json(path, doc: dict):
    """Write a JSON-ready dict in the format of :func:`dumps`, plus a newline."""
    Path(path).write_text(_text(doc) + "\n")


# ---------------------------------------------------------------------------
# CSV exports

_CSV_HEADER = f"# schema_version={SCHEMA_VERSION}\n"


def landscape_to_csv(scape: Landscape, path):
    """Matrix layout: first column beta, remaining columns one per gamma."""
    lines = [_CSV_HEADER.rstrip("\n")]
    lines.append("beta\\gamma," + ",".join(repr(float(g)) for g in scape.axis))
    for i, beta in enumerate(scape.axis):
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

