"""Structured verification verdicts and machine-readable report bundles."""

import csv
import io
import json
from dataclasses import dataclass, field

from .sets import Params


def _params_fields(params):
    if params is None:
        return {"n": None, "k": None, "s": None, "l": None}
    return {"n": params.n, "k": params.k, "s": params.s, "l": params.l}


@dataclass
class Verdict:
    """Outcome of one verification claim on one parameter instance."""

    claim: str
    params: Params | None
    formula_value: int | None
    oracle_value: int | None
    passed: bool
    witness: object = None
    detail: str = ""
    millis: float | None = None

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
            "millis": self.millis,
        })
        return rec


@dataclass
class LemmaReport:
    """Direct evaluation of a weight-ordering claim over all its instances."""

    claim: str
    params: Params
    instances: list = field(default_factory=list)
    passed: bool = True

    def to_record(self, check: str | None = None) -> dict:
        rec = _params_fields(self.params)
        failed = [inst for inst in self.instances if not inst.get("ok", True)]
        rec.update({
            "check": check or self.claim,
            "claim": self.claim,
            "status": "pass" if self.passed else "fail",
            "formula_value": None,
            "oracle_value": None,
            "detail": (f"{len(self.instances)} instances checked"
                       + (f", {len(failed)} failed: {failed[:3]}" if failed else "")),
            "witness": failed or None,
            "millis": None,
        })
        return rec


def skip_record(params, check: str, reason: str) -> dict:
    rec = _params_fields(params)
    rec.update({
        "check": check,
        "claim": check,
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
        counts = {"pass": 0, "fail": 0, "skip": 0}
        for rec in self.records:
            counts[rec["status"]] += 1
        counts["total"] = len(self.records)
        return counts

    @property
    def passed(self) -> bool:
        return self.summary["fail"] == 0

    def to_json(self) -> str:
        """One JSON object, one record per line.

        The first line holds tool, version, spec and summary and opens
        ``"records": [``; the last closes it with ``runtime_millis``.  No
        ``indent`` is passed, so the stdlib's C encoder renders everything.
        """
        encode = json.JSONEncoder(default=str).encode
        header = encode({"tool": self.tool, "version": self.version,
                         "spec": self.spec, "summary": self.summary})
        lines = [header[:-1] + ', "records": [']
        if self.records:
            lines.append(",\n".join(map(encode, self.records)))
        lines += [f'], "runtime_millis": {encode(self.runtime_millis)}}}', ""]
        return "\n".join(lines)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in self.records:
            writer.writerow([
                rec["n"], rec["k"], rec["s"], rec["l"], rec["check"],
                rec["formula_value"], rec["oracle_value"], rec["status"],
                rec["millis"],
            ])
        return buf.getvalue()


def emit_report(bundle: ReportBundle, fmt: str = "json", path=None) -> str:
    """Render a bundle as JSON or CSV, optionally writing it to a file."""
    if fmt == "json":
        text = bundle.to_json()
    elif fmt == "csv":
        text = bundle.to_csv()
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
