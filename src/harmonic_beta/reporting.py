"""The one output layer: every record the CLI prints, in every format.

One renderer per record kind takes the record and a format (``"json"``,
``"csv"`` or ``"text"``) and returns the output text: identity and oracle
reports, a series estimate, a compute H/F/dF value, and the Bell, Bernoulli
and zeta-even forms, which have no CSV form.  Each renderer forms its cells
once and lays out every format from them, and :func:`render_bell` forms
G_r's text itself; the modules that compute the records know no output
format, and every CSV form is written by one writer.

The JSON emitter is deliberately tiny: keys keep insertion order, floats are
printed with 17 significant digits, rationals are canonical ``"p/q"``
strings.  Identical inputs therefore produce byte-identical output, which is
what CI diffing needs.  ``csv`` is imported by the first CSV render, so
importing this module (as the CLI does at start-up) does not load it.
"""

from __future__ import annotations

import io
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Mapping, Sequence

from .beta_engine import Monomial
from .harmonic_core import format_rational
from .identity_suite import IdentityReport
from .series_lab import PiPower, SeriesEstimate

__all__ = [
    "dumps",
    "format_float",
    "report_line",
    "render_reports",
    "render_estimate",
    "render_value",
    "render_bell",
    "render_bernoulli",
    "render_pi_power",
]

CSV_COLUMNS = ["identity_id", "n", "x", "r", "status", "lhs", "rhs"]

ESTIMATE_COLUMNS = ["target_id", "N", "partial", "exact", "tail_low", "tail_high", "claimed_limit"]

# The text form's label of each estimate cell before the claim, in ESTIMATE_COLUMNS order.
_ESTIMATE_LABELS = ["target", "N", "partial", "exact", "tail_low", "tail_high"]


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


def _csv(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


# -- identity and oracle reports ------------------------------------------------


def report_line(report: IdentityReport) -> str:
    """One report's JSON line, written directly in the form ``dumps`` gives:
    identity_id, params as n/x/r, status, then witness, reason and oracle
    when present.  A rational's text is digits, "-" and "/" alone, so needs
    no escaping.
    """
    params = report.params
    fields = []
    if "n" in params:
        fields.append(f'"n": {int(params["n"])}')
    if "x" in params:
        fields.append(f'"x": "{format_rational(params["x"])}"')
    if "r" in params:
        fields.append(f'"r": {int(params["r"])}')
    line = (
        f'{{"identity_id": {encode_basestring_ascii(report.identity_id)}, '
        f'"params": {{{", ".join(fields)}}}, "status": {encode_basestring_ascii(report.status)}'
    )
    if report.witness is not None:
        lhs, rhs = report.witness
        line += f', "witness": {{"lhs": "{format_rational(lhs)}", "rhs": "{format_rational(rhs)}"}}'
    if report.reason is not None:
        line += f', "reason": {encode_basestring_ascii(report.reason)}'
    if report.oracle is not None:
        line += f', "oracle": {dumps(report.oracle)}'
    return line + "}"


def render_reports(reports: Sequence[IdentityReport], fmt: str) -> str:
    """verify's and oracle's output.

    json: one :func:`report_line` per report.  csv: one row per report under
    CSV_COLUMNS.  text: one line per report, its point as r, n, x and its
    witness on a failure, then the pass count.
    """
    if fmt == "json":
        return "\n".join(map(report_line, reports)) + "\n"
    rows: list = []
    for report in reports:
        params = report.params
        point = {
            key: format_rational(params[key]) if key == "x" else str(params[key])
            for key in "nxr"
            if key in params
        }
        lhs, rhs = map(format_rational, report.witness) if report.witness else ("", "")
        if fmt == "csv":
            n, x, r = (point.get(key, "") for key in "nxr")
            rows.append([report.identity_id, n, x, r, report.status, lhs, rhs])
        else:
            bits = [report.identity_id, *(f"{key}={point[key]}" for key in "rnx" if key in point)]
            line = f"{' '.join(bits)}: {report.status}"
            rows.append(f"{line} (lhs={lhs} rhs={rhs})" if report.witness else line)
    if fmt == "csv":
        return _csv(CSV_COLUMNS, rows)
    passed = sum(1 for r in reports if r.passed)
    return "\n".join([*rows, f"{passed}/{len(reports)} passed"]) + "\n"


# -- series estimates -------------------------------------------------------------


def _pi_power_cells(claim: PiPower) -> tuple[dict, str]:
    """A coeff * pi**s limit as JSON, {"coeff": ..., "pi_power": s}, and as
    the text ``"<coeff> * pi^<s>"``."""
    coeff = format_rational(claim.coeff)
    return {"coeff": coeff, "pi_power": claim.exponent}, f"{coeff} * pi^{claim.exponent}"


def render_estimate(estimate: SeriesEstimate, fmt: str) -> str:
    """series' output.  Its cells: the partial as p/q, or by format_float in
    float mode; the tails as p/q; a claim as p/q or ``"<coeff> * pi^<s>"``.
    json leaves out an absent claim, and gives a float partial as a number and
    a pi-power claim as ``{"coeff", "pi_power"}``; text adds whether the
    bracket contains the claim."""
    exact, claim = estimate.exact, estimate.claimed_limit
    partial = format_rational(estimate.partial) if exact else format_float(estimate.partial)
    cells = [
        estimate.target_id,
        estimate.N,
        partial,
        exact,
        format_rational(estimate.tail_low),
        format_rational(estimate.tail_high),
    ]
    if isinstance(claim, PiPower):
        claim_json, claim_text = _pi_power_cells(claim)
    else:
        claim_json = claim_text = "" if claim is None else format_rational(claim)
    if fmt == "json":
        record = dict(zip(ESTIMATE_COLUMNS, cells))
        if not exact:
            record["partial"] = estimate.partial  # dumps prints it by format_float too
        if claim is not None:
            record["claimed_limit"] = claim_json
        return dumps(record) + "\n"
    if fmt == "csv":
        return _csv(ESTIMATE_COLUMNS, [[*cells, claim_text]])
    lines = list(zip(_ESTIMATE_LABELS, cells))
    if claim is not None:
        lines += [("claimed", claim_text), ("contained", estimate.contains_claim())]
    return "".join(f"{label:<10} {cell}\n" for label, cell in lines)


# -- compute values -------------------------------------------------------------


def render_value(op: str, params: dict, value: Fraction, fmt: str) -> str:
    """compute H, F and dF's output, rationals as p/q.

    json: ``{"op": op, <params>, "value": ...}``.  csv: a header of the
    params and value, and one row.  text: the value alone.
    """
    cells = {
        key: format_rational(v) if isinstance(v, Fraction) else v for key, v in params.items()
    }
    cells["value"] = format_rational(value)
    if fmt == "json":
        return dumps({"op": op, **cells}) + "\n"
    if fmt == "csv":
        return _csv(list(cells), [list(cells.values())])
    return cells["value"] + "\n"


def render_bell(r: int, terms: Mapping[Monomial, int], fmt: str) -> str:
    """compute bell's output for G_r's ``terms``: json the order r, each
    monomial's exponents and coefficient, and the text form; text the text
    form alone.  The text form joins the terms in their graded-lex order, as
    in ``"2*h3 + 3*h1*h2 + h1^3"``, and is ``"0"`` for no terms."""
    parts = []
    for exponents, coeff in terms.items():
        factors = [
            f"h{alpha}" if e == 1 else f"h{alpha}^{e}" for alpha, e in enumerate(exponents, 1) if e
        ]
        if coeff != 1 or not factors:
            factors.insert(0, str(coeff))
        parts.append("*".join(factors))
    text = " + ".join(parts) or "0"
    if fmt == "json":
        cells = [{"monomial": list(e), "coefficient": c} for e, c in terms.items()]
        return dumps({"order": r, "terms": cells, "text": text}) + "\n"
    return text + "\n"


def render_bernoulli(values: Sequence[Fraction], fmt: str) -> str:
    """compute bernoulli's output: json ``{"values": [...]}``; text a line
    ``B_k = <value>`` per value."""
    if fmt == "json":
        return dumps({"values": list(values)}) + "\n"
    return "".join(f"B_{k} = {format_rational(v)}\n" for k, v in enumerate(values))


def render_pi_power(claim: PiPower, fmt: str) -> str:
    """compute zeta-even's output, as a series claim prints it: json
    ``{"coeff", "pi_power"}``; text ``"<coeff> * pi^<s>"``."""
    record, text = _pi_power_cells(claim)
    return (dumps(record) if fmt == "json" else text) + "\n"
