"""Structured verification verdicts and machine-readable reports.

A report has one layout, a head line, one line per record and a tail,
shared by whole bundles and by the CLI, which streams a sweep's records
through a spool.  Every JSON value goes through one C encoder, built
once per process, and record lines go out in batches, one write each."""

import csv
import io
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import itemgetter

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
_CSV_FIELDS = itemgetter(*CSV_COLUMNS[:7], "status", "millis")

REPORT_FORMATS = ("json", "csv")

#: The C encoder ``json.JSONEncoder(default=str).encode`` builds on each
#: call, built once; records are trees, so no circular-reference markers.
_ENCODER = c_make_encoder(None, str, encode_basestring_ascii, None, ": ",
                          ", ", False, False, True)
_BATCH_RECORDS = 64  # record lines joined into one write


def _encode(obj) -> str:
    """``obj`` as ``json.JSONEncoder(default=str).encode`` renders it."""
    return "".join(_ENCODER(obj, 0))


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
    """Write the records' lines to ``fh``, ``_BATCH_RECORDS`` records at
    a time (one write per JSON batch), and return the summary counts.  A
    stream of records costs the memory of one batch."""
    counts, records, lead = Counter(), iter(records), "\n"
    rows = csv.writer(fh, lineterminator="\n").writerows
    while batch := list(islice(records, _BATCH_RECORDS)):
        counts.update(map(itemgetter("status"), batch))
        if fmt == "json":
            fh.write(lead + ",\n".join(map(_encode, batch)))
            lead = ",\n"
        else:
            rows(map(_CSV_FIELDS, batch))
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
