"""Structured verification verdicts and machine-readable reports.

A report has one layout, a head line, one line per record and a tail,
shared by whole bundles and by the CLI, which streams a sweep's records
through a spool."""

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass

from .sets import Params


def _params_fields(params):
    if params is None:
        return {"n": None, "k": None, "s": None, "l": None}
    return {"n": params.n, "k": params.k, "s": params.s, "l": params.l}


@dataclass
class Verdict:
    """Outcome of one verification claim on one parameter instance: the
    one record type of every pass or fail record a sweep writes.

    Its record's ``millis`` is ``None``; the sweep stamps the time when
    the check hands the record over."""

    claim: str
    params: Params | None
    formula_value: int | None
    oracle_value: int | None
    passed: bool
    witness: object = None
    detail: str = ""

    def to_record(self, check: str | None = None) -> dict:
        rec = _params_fields(self.params)
        rec.update({
            "check": check or self.claim,
            "claim": self.claim,
            "status": "pass" if self.passed else "fail",
            "formula_value": self.formula_value,
            "oracle_value": self.oracle_value,
            "detail": self.detail,
            "witness": self.witness,
            "millis": None,
        })
        return rec


def skip_record(params, check: str, reason: str, claim: str | None = None) -> dict:
    """The record of a check that did not run; ``claim`` defaults to the
    check's name."""
    rec = _params_fields(params)
    rec.update({
        "check": check,
        "claim": claim or check,
        "status": "skip",
        "formula_value": None,
        "oracle_value": None,
        "detail": reason,
        "witness": None,
        "millis": None,
    })
    return rec


CSV_COLUMNS = ("n", "k", "s", "l", "check", "formula_value", "oracle_value",
               "verdict", "millis")

REPORT_FORMATS = ("json", "csv")

_encode = json.JSONEncoder(default=str).encode


def _summary(counts: Counter) -> dict:
    return {"pass": counts["pass"], "fail": counts["fail"],
            "skip": counts["skip"], "total": counts.total()}


def report_head(fmt: str, meta: dict) -> str:
    """The report's first line.  For JSON, ``meta`` (tool, version, spec
    and summary) followed by the opening ``"records": [``; for CSV, the
    column row."""
    if fmt == "json":
        return _encode(meta)[:-1] + ', "records": ['
    return ",".join(CSV_COLUMNS) + "\n"


def write_records(records, fmt: str, fh) -> dict:
    """Write each record's line to ``fh`` as it arrives and return the
    summary counts.  Nothing is held back, so a stream of records costs
    the memory of one record."""
    counts = Counter()
    if fmt == "json":
        separator = "\n"
        for rec in records:
            counts[rec["status"]] += 1
            fh.write(separator + _encode(rec))
            separator = ",\n"
    else:
        row = csv.writer(fh, lineterminator="\n").writerow
        for rec in records:
            counts[rec["status"]] += 1
            row((rec["n"], rec["k"], rec["s"], rec["l"], rec["check"],
                 rec["formula_value"], rec["oracle_value"], rec["status"],
                 rec["millis"]))
    return _summary(counts)


def report_tail(fmt: str, runtime_millis: float) -> str:
    """What follows the last record line: the JSON footer with
    ``runtime_millis``; nothing for CSV."""
    if fmt == "json":
        return f'\n], "runtime_millis": {_encode(runtime_millis)}}}\n'
    return ""


@dataclass
class ReportBundle:
    """Everything one sweep produced, in deterministic record order."""

    tool: str
    version: str
    spec: dict
    records: list
    runtime_millis: float = 0.0

    @property
    def summary(self) -> dict:
        return _summary(Counter(rec["status"] for rec in self.records))

    @property
    def passed(self) -> bool:
        return self.summary["fail"] == 0

    def _render(self, fmt: str) -> str:
        """The report text, laid out by the same functions that stream a
        sweep's records into the CLI's spool."""
        if fmt not in REPORT_FORMATS:
            raise ValueError(f"unknown report format {fmt!r}")
        body = io.StringIO()
        summary = write_records(self.records, fmt, body)
        meta = {"tool": self.tool, "version": self.version,
                "spec": self.spec, "summary": summary}
        return (report_head(fmt, meta) + body.getvalue()
                + report_tail(fmt, self.runtime_millis))

    def to_json(self) -> str:
        """One JSON object, one record per line.

        The first line holds tool, version, spec and summary and opens
        ``"records": [``; the last closes it with ``runtime_millis``.  No
        ``indent`` is passed, so the stdlib's C encoder renders everything.
        """
        return self._render("json")

    def to_csv(self) -> str:
        return self._render("csv")


def emit_report(bundle: ReportBundle, fmt: str = "json", path=None) -> str:
    """Render a bundle as JSON or CSV, optionally writing it to a file."""
    text = bundle._render(fmt)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
