"""Machine-readable experiment reports.

A report's series are labeled :class:`~spintail.asymptotics.DecayReport`
traces, held as ``(label, trace)`` pairs in report order.  The JSON layout is
fixed: ``{meta, schedule, series}`` where each series is ``{label, points:
[{n, value, converged}], fit: {exponent, residual}, classification, bound?,
bound_violations?}``.  ``fit`` is omitted for traces with fewer than three
points, and ``bound`` (the points' own) and ``bound_violations`` unless the
points carry bounds.  Serialization is byte-stable for identical inputs: keys
are sorted, floats use shortest round-trip repr, and wall-clock timings are
deliberately kept off the wire (they stay on each point's ``seconds`` and go
to stderr in verbose mode).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .asymptotics import CLASSIFICATIONS, DecayReport

__all__ = ["Report", "emit", "REPORT_SCHEMA"]


@dataclass
class Report:
    meta: dict
    schedule: list[int]
    # (label, trace) pairs in report order
    series: list[tuple[str, DecayReport]]

    def to_json_obj(self) -> dict:
        return {
            "meta": self.meta,
            "schedule": self.schedule,
            "series": [series_json(label, rep) for label, rep in self.series],
        }


def series_json(label: str, rep: DecayReport) -> dict:
    """The JSON object of one labeled trace; JSON and CSV both read it."""
    obj = {
        "label": label,
        "points": [{"n": p.n, "value": p.value, "converged": p.converged} for p in rep.points],
        "classification": rep.classification,
    }
    if rep.fitted_exponent is not None:
        obj["fit"] = {"exponent": rep.fitted_exponent, "residual": rep.fit_residual}
    bounded = [p for p in rep.points if p.bound is not None]
    if bounded:
        obj["bound"] = [{"n": p.n, "value": p.bound} for p in bounded]
        obj["bound_violations"] = list(rep.bound_violations)
    return obj


# the output formats, each written by emit
FORMATS = ("json", "csv")


def emit(report: Report, format: str = "json") -> bytes:
    """Serialize a report in one of :data:`FORMATS`; byte-stable given an identical report."""
    obj = report.to_json_obj()
    if format == "json":
        text = json.dumps(obj, sort_keys=True, indent=2)
        return (text + "\n").encode("utf-8")
    if format == "csv":
        buf = io.StringIO()
        buf.write("label,n,value,converged,classification,exponent,residual,bound\n")
        rows = csv.writer(buf, lineterminator="\n")
        # with a "\n" terminator csv.writer leaves a lone "\r" unquoted, and
        # csv.reader would end the row there
        quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for s in obj["series"]:
            out = quoted if "\r" in s["label"] else rows
            fit = s.get("fit")
            exp, res = (repr(fit["exponent"]), repr(fit["residual"])) if fit else ("", "")
            bounds = {b["n"]: b["value"] for b in s.get("bound", ())}
            for p in s["points"]:
                b = repr(bounds[p["n"]]) if p["n"] in bounds else ""
                out.writerow(
                    [s["label"], p["n"], repr(p["value"]), int(p["converged"]),
                     s["classification"] or "", exp, res, b]
                )
        return buf.getvalue().encode("utf-8")
    raise ValueError(f"unknown output format {format!r}")


REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "spintail experiment report",
    "type": "object",
    "required": ["meta", "schedule", "series"],
    "properties": {
        "meta": {
            "type": "object",
            "required": ["experiment", "seed", "method", "echo", "assertions"],
            "properties": {
                "experiment": {"type": "string"},
                "seed": {"type": "integer"},
                "method": {"type": "string"},
                "dense_cap": {"type": "integer"},
                "echo": {"type": "object"},
                "warnings": {"type": "array", "items": {"type": "string"}},
                "assertions": {
                    "type": "object",
                    "required": ["passed", "failures"],
                    "properties": {
                        "passed": {"type": "boolean"},
                        "failures": {"type": "array", "items": {"type": "string"}},
                    },
                },
            },
        },
        "schedule": {"type": "array", "items": {"type": "integer"}},
        "series": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["label", "points", "classification"],
                "properties": {
                    "label": {"type": "string"},
                    "points": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["n", "value", "converged"],
                            "properties": {
                                "n": {"type": "integer"},
                                "value": {"type": "number"},
                                "converged": {"type": "boolean"},
                            },
                        },
                    },
                    "fit": {
                        "type": "object",
                        "required": ["exponent", "residual"],
                        "properties": {
                            "exponent": {"type": "number"},
                            "residual": {"type": "number"},
                        },
                    },
                    "classification": {
                        "enum": [*CLASSIFICATIONS, None]
                    },
                    "bound": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["n", "value"],
                            "properties": {
                                "n": {"type": "integer"},
                                "value": {"type": "number"},
                            },
                        },
                    },
                    "bound_violations": {"type": "array", "items": {"type": "integer"}},
                },
            },
        },
    },
}
