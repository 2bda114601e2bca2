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


@dataclass
class Verdict:
    """Outcome of one verification claim on one parameter instance: the
    one record type of every pass, fail or skip record a sweep writes.

    ``passed`` is ``None`` for a check that did not run, with the reason
    in ``detail``.  Its record's ``millis`` is ``None``; the sweep stamps
    the time of each pass or fail record when the check hands it over."""

    claim: str | None
    params: Params
    formula_value: int | None = None
    oracle_value: int | None = None
    passed: bool | None = None
    witness: object = None
    detail: str = ""

    def to_record(self, check: str | None = None) -> dict:
        """The record of this verdict under the registered ``check``; a
        claim left ``None`` means the check's own name."""
        p = self.params
        return {
            "n": p.n, "k": p.k, "s": p.s, "l": p.l,
            "check": check or self.claim,
            "claim": self.claim or check,
            "status": ("skip" if self.passed is None
                       else "pass" if self.passed else "fail"),
            "formula_value": self.formula_value,
            "oracle_value": self.oracle_value,
            "detail": self.detail,
            "witness": self.witness,
            "millis": None,
        }


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


def emit_report(bundle: ReportBundle, fmt: str = "json", path=None) -> str:
    """Render a bundle as JSON or CSV, optionally writing it to a file,
    laid out by the same functions that stream a sweep's records into
    the CLI's spool.

    JSON is one object, one record per line: the first line holds tool,
    version, spec and summary and opens ``"records": [``; the last closes
    it with ``runtime_millis``.  No ``indent`` is passed, so the stdlib's
    C encoder renders everything."""
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")
    body = io.StringIO()
    summary = write_records(bundle.records, fmt, body)
    meta = {"tool": bundle.tool, "version": bundle.version,
            "spec": bundle.spec, "summary": summary}
    text = (report_head(fmt, meta) + body.getvalue()
            + report_tail(fmt, bundle.runtime_millis))
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
