"""Byte-stable serialization for reports.

The JSON emitter is deliberately tiny: keys keep insertion order, floats are
printed with 17 significant digits, rationals are canonical ``"p/q"``
strings.  Identical inputs therefore produce byte-identical output, which is
what CI diffing needs.  ``csv`` is imported by the two CSV writers, on their
first call, so importing this module (as the CLI does at start-up) does not
load it.
"""

from __future__ import annotations

import io
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable

from .harmonic_core import format_rational
from .identity_suite import IdentityReport
from .series_lab import SeriesEstimate

__all__ = [
    "dumps",
    "format_float",
    "identity_report_dict",
    "reports_to_csv",
    "estimate_to_csv",
]

CSV_COLUMNS = ["identity_id", "n", "x", "r", "status", "lhs", "rhs", "elapsed_ms"]


def format_float(value: float) -> str:
    """17-significant-digit form, always recognizably a float."""
    text = format(value, ".17g")
    if not any(c in text for c in ".eEnN"):
        text += ".0"
    return text


def dumps(obj: Any) -> str:
    """Deterministic JSON: insertion-ordered keys, fixed float formatting."""
    pieces: list[str] = []
    _emit(obj, pieces)
    return "".join(pieces)


def _emit(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        # what json.dumps does for a str, without its dispatch
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, Fraction):
        out.append(encode_basestring_ascii(format_rational(obj)))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(encode_basestring_ascii(str(key)))
            out.append(": ")
            _emit(value, out)
        out.append("}")
    elif type(obj) in (list, tuple):  # not a record: a NamedTuple is a tuple too
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(", ")
            _emit(value, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def identity_report_dict(report: IdentityReport) -> dict:
    """JSON shape for one report: fixed key order, params as n/x/r.

    elapsed_ms is always 0, kept so the report format does not change.
    """
    params: dict[str, Any] = {}
    if "n" in report.params:
        params["n"] = int(report.params["n"])
    if "x" in report.params:
        params["x"] = format_rational(report.params["x"])
    if "r" in report.params:
        params["r"] = int(report.params["r"])
    out: dict[str, Any] = {
        "identity_id": report.identity_id,
        "params": params,
        "status": report.status,
    }
    if report.witness is not None:
        out["witness"] = {
            "lhs": format_rational(report.witness[0]),
            "rhs": format_rational(report.witness[1]),
        }
    if report.reason is not None:
        out["reason"] = report.reason
    if report.oracle is not None:
        out["oracle"] = report.oracle
    out["elapsed_ms"] = 0
    return out


def reports_to_csv(reports: Iterable[IdentityReport]) -> str:
    """One CSV row per report; elapsed_ms is 0, as in identity_report_dict."""
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for report in reports:
        witness = report.witness
        writer.writerow(
            [
                report.identity_id,
                report.params.get("n", ""),
                format_rational(report.params["x"]) if "x" in report.params else "",
                report.params.get("r", ""),
                report.status,
                format_rational(witness[0]) if witness else "",
                format_rational(witness[1]) if witness else "",
                0,
            ]
        )
    return buffer.getvalue()


def estimate_to_csv(estimate: SeriesEstimate) -> str:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["target_id", "N", "partial", "exact", "tail_low", "tail_high", "claimed_limit"]
    )
    data = estimate.to_json_dict()
    partial = data["partial"]
    claimed = data.get("claimed_limit", "")
    if isinstance(claimed, dict):
        claimed = f"{claimed['coeff']} * pi^{claimed['pi_power']}"
    writer.writerow(
        [
            data["target_id"],
            data["N"],
            partial if isinstance(partial, str) else format_float(partial),
            data["exact"],
            data["tail_low"],
            data["tail_high"],
            claimed,
        ]
    )
    return buffer.getvalue()
