import copy
import csv
import io
import json
import time
from dataclasses import replace

import pytest

from crossint import (ConfigError, Params, ReportBundle, SweepSpec, binom,
                      emit_report, extremal, orbitgraph, report, run_sweep,
                      size_extremal_family, sweep)
from crossint.cli import main
from crossint.errors import EnumerationTooLarge
from crossint.orbitgraph import build_chain_decomposition, validate_decomposition
from crossint.oracle import _conflict_rows, _iter_conflict_rows
from crossint.report import CSV_COLUMNS, Verdict
from crossint.sweep import CHECK_NAMES

from conftest import break_chain_decompositions, dinic_mwis


def strip_timings(records):
    out = copy.deepcopy(records)
    for rec in out:
        rec["millis"] = None
    return out


def check_records(name, params, spec):
    """The records of one registered check called directly on a triple,
    untimed."""
    return [verdict.to_record(name)
            for verdict in sweep.CHECKS[name](params, spec)]


#: The keys of every record, in the order ``Verdict.to_record`` lays out.
RECORD_KEYS = ["n", "k", "s", "l", "check", "claim", "status",
               "formula_value", "oracle_value", "detail", "witness", "millis"]


class TestSweepSpec:
    def test_instances_grid(self):
        spec = SweepSpec(ks=(3, 4), ss=(2,), ls=(0, 1, 2))
        assert spec.instances() == [
            (5, 3, 2), (6, 3, 2), (7, 3, 2), (7, 4, 2), (8, 4, 2), (9, 4, 2)]

    def test_invalid_s_combinations_dropped(self):
        spec = SweepSpec(ks=(3,), ss=(2, 3, 4), ls=(0,))
        assert spec.instances() == [(5, 3, 2)]

    def test_empty_k_range_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec(ks=(), ss=(2,), ls=(0,))

    def test_needs_exactly_one_of_l_or_n(self):
        with pytest.raises(ConfigError):
            SweepSpec(ks=(3,), ss=(2,), ls=(0,), ns=(7,))
        with pytest.raises(ConfigError):
            SweepSpec(ks=(3,), ss=(2,))

    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec(ks=(3,), ss=(2,), ls=(0,), checks=("nonsense",))

    @pytest.mark.parametrize("grid", [
        dict(ks=(3,), ss=(5,), ls=(0,)),
        dict(ks=(3,), ss=(3, 4), ls=(0, 1)),
        dict(ks=(4,), ss=(2,), ns=(1, 2, 3)),
        dict(ks=(5,), ss=(1,), ls=(-6,)),
    ], ids=["s > k", "s >= k", "n < k", "l too small"])
    def test_grid_without_a_valid_triple_rejected(self, grid):
        with pytest.raises(ConfigError, match="no valid"):
            SweepSpec(**grid)

    def test_repeated_check_rejected(self):
        with pytest.raises(ConfigError, match="more than once"):
            SweepSpec(ks=(4,), ss=(2,), ls=(0,), checks=("lemma1", "lemma1"))
        with pytest.raises(ConfigError, match="more than once"):
            SweepSpec(ks=(4,), ss=(2,), ls=(0,),
                      checks=("chains", "lemma1", "chains"))

    def test_bad_caps_and_jobs(self):
        with pytest.raises(ConfigError):
            SweepSpec(ks=(3,), ss=(2,), ls=(0,), cap=0)
        with pytest.raises(ConfigError):
            SweepSpec(ks=(3,), ss=(2,), ls=(0,), jobs=0)


class TestRunSweep:
    def test_theorem_grid_all_pass(self):
        spec = SweepSpec(ks=(3, 4), ss=(2,), ls=(0, 1, 2), checks=("theorem",))
        bundle = run_sweep(spec)
        assert len(bundle.records) == 6
        assert bundle.summary == {"pass": 6, "fail": 0, "skip": 0, "total": 6}
        assert bundle.passed

    def test_cap_produces_skip_records(self):
        spec = SweepSpec(ks=(5,), ss=(2,), ls=(4,), checks=("theorem",),
                         cap=100)
        bundle = run_sweep(spec)
        assert bundle.summary["skip"] == 1
        assert "cap" in bundle.records[0]["detail"]

    def test_chains_failure_is_reported_not_raised(self, monkeypatch):
        # a broken decomposition is an honest fail, not an exception
        break_chain_decompositions(monkeypatch)
        spec = SweepSpec(ks=(5,), ss=(2,), ls=(0,), checks=("chains",))
        bundle = run_sweep(spec)
        assert bundle.summary["fail"] == 1
        assert [rec["status"] for rec in bundle.records] == ["fail"]
        assert not bundle.passed

    def test_lemma_checks(self):
        spec = SweepSpec(ks=(4,), ss=(2,), ls=(2,),
                         checks=("lemma1", "lemma2"))
        bundle = run_sweep(spec)
        claims = sorted(rec["claim"] for rec in bundle.records)
        assert claims == ["lemma1.enumerated-mis", "lemma1.orbit-certificate",
                          "weights.mirror-ordering", "weights.offset-ordering"]
        assert bundle.passed

    def test_inapplicable_instances_skip(self):
        spec = SweepSpec(ks=(3,), ss=(1, 2), ns=(7,),
                         checks=("chains", "hm"))
        bundle = run_sweep(spec)
        by = {(rec["s"], rec["check"]): rec["status"]
              for rec in bundle.records}
        assert by[(1, "chains")] == "skip"
        assert by[(1, "hm")] == "pass"
        assert by[(2, "chains")] == "pass"
        assert by[(2, "hm")] == "skip"

    def test_edges_and_biregular(self):
        spec = SweepSpec(ks=(4,), ss=(2, 3), ls=(1, 2),
                         checks=("edges", "biregular"))
        bundle = run_sweep(spec)
        assert bundle.passed
        assert all(rec["status"] == "pass" for rec in bundle.records)

    def test_enumerated_edge_route_matches_pair_scan(self):
        # every (n, k, s) with n <= 10 and every profile pair, including
        # empty orbits (n - k < k - i), against a minimum over all pairs
        pairs = 0
        for n in range(3, 11):
            for k in range(2, n + 1):
                for s in range(1, k):
                    params = Params(n, k, s)
                    for i in range(s, k):
                        orbit_i = orbitgraph._orbit_masks(params, i)
                        for t in range(s, k):
                            orbit_t = orbitgraph._orbit_masks(params, t)
                            least = min((a & b).bit_count() for a in orbit_i
                                        for b in orbit_t) \
                                if orbit_i and orbit_t else k
                            assert sweep._enumerated_conflict(params, i, t) \
                                == (least < s), (params, i, t)
                            pairs += 1
        assert pairs == 2078

    def test_deep_audit_records(self):
        spec = SweepSpec(ks=(3,), ss=(2,), ls=(0,), checks=("theorem",),
                         deep_audit=True)
        bundle = run_sweep(spec)
        claims = [rec["claim"] for rec in bundle.records]
        assert "theorem.reduction-audit" in claims
        assert bundle.passed

    def test_theorem_millis_excludes_the_audit(self, monkeypatch):
        audit = sweep.max_sum_nonempty_unreduced

        def slow_audit(params, cap):
            time.sleep(0.3)
            return audit(params, cap=cap)

        monkeypatch.setattr(sweep, "max_sum_nonempty_unreduced", slow_audit)
        spec = SweepSpec(ks=(3,), ss=(2,), ns=(6,), checks=("theorem",),
                         deep_audit=True)
        theorem, audited = run_sweep(spec).records
        assert audited["claim"] == "theorem.reduction-audit"
        assert audited["millis"] >= 300
        assert theorem["millis"] < 300

    def test_only_pass_and_fail_records_are_timed(self):
        # every check passes and skips (s = 1, l < 0, C(n,k) over the cap,
        # the deep audit over its own), and chains fail (broken paths);
        # every record has one layout
        spec = SweepSpec(ks=(3, 4, 5), ss=(1, 2), ns=tuple(range(4, 10)),
                         checks=CHECK_NAMES, cap=60, deep_audit=True)
        seen = set()
        renamed_skips = set()
        with pytest.MonkeyPatch.context() as patch:
            break_chain_decompositions(patch)
            for rec in sweep.iter_records(spec):
                assert list(rec) == RECORD_KEYS, rec
                seen.add((rec["check"], rec["status"]))
                if rec["status"] == "skip":
                    assert rec["millis"] is None, rec
                    if rec["claim"] != rec["check"]:
                        renamed_skips.add((rec["check"], rec["claim"]))
                        assert "deep-audit cap" in rec["detail"], rec
                else:
                    assert type(rec["millis"]) is float and rec["millis"] >= 0, rec
        assert {status for _, status in seen} == {"pass", "fail", "skip"}
        assert {(name, "skip") for name in CHECK_NAMES} <= seen
        assert {(name, "pass") for name in CHECK_NAMES if name != "chains"} \
            <= seen
        assert ("chains", "fail") in seen
        assert renamed_skips == {("theorem", "theorem.reduction-audit")}

    @pytest.mark.parametrize("name,detail", [
        ("theorem", "skipped: cap (C(n,k) > 1)"),
        ("lemma1", sweep.NEEDS_ORBIT_LAYER),
        ("lemma2", sweep.NEEDS_ORBIT_LAYER),
        ("chains", sweep.NEEDS_ORBIT_LAYER),
        ("edges", "inapplicable: slack l < 0"),
        ("biregular", sweep.NEEDS_ORBIT_LAYER),
        ("hm", "inapplicable: needs s = 1")])
    def test_direct_call_yields_its_skip_record(self, name, detail):
        # (4, 3, 2) has slack l = -1 and C(4, 3) = 4 > cap
        params = Params(4, 3, 2)
        spec = SweepSpec(ks=(3,), ss=(2,), ns=(4,), checks=(name,), cap=1)
        assert check_records(name, params, spec) == \
            [Verdict(None, params, detail=detail).to_record(name)]

    def test_deep_audit_above_its_cap_is_a_skip(self):
        spec = SweepSpec(ks=(4,), ss=(2,), ns=(9,), checks=("theorem",),
                         deep_audit=True)
        assert binom(9, 4) > sweep.DEEP_AUDIT_CAP
        bundle = run_sweep(spec)
        theorem, skipped = bundle.records
        assert theorem["status"] == "pass"
        assert (skipped["check"], skipped["claim"], skipped["status"]) == \
            ("theorem", "theorem.reduction-audit", "skip")
        assert f"C(n,k) > {sweep.DEEP_AUDIT_CAP}" in skipped["detail"]
        assert bundle.summary["skip"] == 1

    def test_reproducible_modulo_timings(self):
        spec = SweepSpec(ks=(3, 4), ss=(2, 3), ls=(0, 1),
                         checks=("theorem", "lemma2", "chains"))
        first = run_sweep(spec)
        second = run_sweep(spec)
        assert strip_timings(first.records) == strip_timings(second.records)

    def test_parallel_equals_sequential(self):
        spec1 = SweepSpec(ks=(3, 4, 5), ss=(2,), ls=(0, 1), checks=("theorem",))
        spec2 = SweepSpec(ks=(3, 4, 5), ss=(2,), ls=(0, 1), checks=("theorem",),
                          jobs=2)
        assert strip_timings(run_sweep(spec1).records) == \
            strip_timings(run_sweep(spec2).records)

    def test_parallel_chains_equal_sequential(self):
        # each worker fills its own class memo
        grid = dict(ks=tuple(range(3, 13)), ss=tuple(range(2, 7)),
                    ls=tuple(range(9)), checks=("chains",))
        records = strip_timings(run_sweep(SweepSpec(**grid)).records)
        assert strip_timings(run_sweep(SweepSpec(**grid, jobs=2)).records) \
            == records
        classes = {chain_class(Params(rec["n"], rec["k"], rec["s"]))
                   for rec in records}
        assert 1 < len(classes) < len(records)


class TestEmitReport:
    def bundle(self):
        spec = SweepSpec(ks=(3, 4), ss=(2,), ls=(0, 1, 2), checks=("theorem",))
        return run_sweep(spec)

    def test_json_round_trip(self):
        bundle = self.bundle()
        payload = json.loads(emit_report(bundle, "json"))
        assert payload["tool"] == "crossint"
        assert payload["summary"]["pass"] == 6
        assert len(payload["records"]) == 6

    def test_csv_shape(self):
        # six pass records -> header plus six rows
        bundle = self.bundle()
        rows = list(csv.reader(io.StringIO(emit_report(bundle, "csv"))))
        assert rows[0] == ["n", "k", "s", "l", "check", "formula_value",
                           "oracle_value", "verdict", "millis"]
        assert len(rows) == 7
        assert rows[1][:5] == ["5", "3", "2", "0", "theorem"]
        assert all(row[7] == "pass" for row in rows[1:])

    def test_emit_to_file(self, tmp_path):
        bundle = self.bundle()
        out = tmp_path / "report.csv"
        emit_report(bundle, fmt="csv", path=out)
        assert out.read_text().startswith("n,k,s,l,check")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(self.bundle(), fmt="xml")

    def test_empty_bundle_is_valid(self):
        bundle = ReportBundle(tool="crossint", version="0", spec={},
                              records=[])
        payload = json.loads(emit_report(bundle, "json"))
        assert payload["records"] == []
        assert bundle.passed

    def mixed_bundle(self):
        """Theorem and biregular (dict witnesses), passing lemma2 and
        chains (no witness), hm skips, and one failing lemma2 record
        (a list witness) from swapped orbit weights."""
        spec = SweepSpec(ks=(4,), ss=(2,), ls=(0, 1),
                         checks=("theorem", "biregular", "lemma2", "chains",
                                 "hm"))
        bundle = run_sweep(spec)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(extremal, "orbit_weights", lambda params: [12, 18, 1])
            failing = extremal.check_mirror_weight_ordering(Params(7, 4, 2))
        bundle.records.append(failing.to_record("lemma2"))
        kinds = {(rec["check"], rec["status"], type(rec["witness"]).__name__)
                 for rec in bundle.records}
        assert kinds >= {("theorem", "pass", "dict"),
                         ("biregular", "pass", "dict"),
                         ("lemma2", "pass", "NoneType"),
                         ("lemma2", "fail", "list"),
                         ("chains", "pass", "NoneType"),
                         ("hm", "skip", "NoneType")}
        return bundle

    def test_records_parse_back(self):
        # Tuples in a witness come back as lists, as they always did.
        bundle = self.mixed_bundle()
        payload = json.loads(emit_report(bundle, "json"))
        assert payload["records"] == json.loads(
            json.dumps(bundle.records, indent=2, default=str))
        assert payload["summary"] == bundle.summary
        assert list(payload) == ["tool", "version", "spec", "summary",
                                 "records", "runtime_millis"]

    def test_one_record_per_line(self):
        bundle = self.mixed_bundle()
        lines = emit_report(bundle, "json").splitlines()
        assert len(lines) == len(bundle.records) + 2
        assert lines[0].endswith('"records": [')
        assert lines[-1].startswith('], "runtime_millis": ')
        records = json.loads(json.dumps(bundle.records, default=str))
        for line, rec in zip(lines[1:-1], records):
            assert json.loads(line.removesuffix(",")) == rec

    @pytest.mark.parametrize("records", ["mixed", "none"])
    def test_layout_equals_whole_document_reference(self, records):
        # The streamed layout against rendering the whole document at once.
        bundle = self.mixed_bundle()
        if records == "none":
            bundle.records = []
        encode = json.JSONEncoder(default=str).encode
        header = encode({"tool": bundle.tool, "version": bundle.version,
                         "spec": bundle.spec, "summary": bundle.summary})
        lines = [header[:-1] + ', "records": [']
        if bundle.records:
            lines.append(",\n".join(map(encode, bundle.records)))
        lines += [f'], "runtime_millis": {encode(bundle.runtime_millis)}}}', ""]
        assert emit_report(bundle, "json") == "\n".join(lines)

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows([rec["n"], rec["k"], rec["s"], rec["l"], rec["check"],
                          rec["formula_value"], rec["oracle_value"],
                          rec["status"], rec["millis"]]
                         for rec in bundle.records)
        assert emit_report(bundle, "csv") == buf.getvalue()

    def test_stdout_report_equals_file_report(self, tmp_path, capsys):
        argv = ["check-lemmas", "--k", "4", "--s", "2", "--l", "0"]
        assert main(argv) == 0
        printed = json.loads(capsys.readouterr().out)["records"]
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == 0
        written = json.loads(out.read_text())["records"]
        assert printed and strip_timings(printed) == strip_timings(written)


def odd_records(count):
    """``count`` records of every status whose values only the stdlib's
    ``json.JSONEncoder(default=str)`` settings render one way: witnesses
    that ``default=str`` alone encodes, non-ASCII text, ints above 2**64,
    floats with 17 significant digits and None."""
    base = Verdict("lemma1.orbit-certificate", Params(9, 4, 2)).to_record()
    odd = [
        {"witness": {"pair": Params(9, 4, 2), "sizes": frozenset({3})}},
        {"detail": "w(C₂¹) ≠ ω — naïve 𝕊"},
        {"formula_value": 2 ** 64 + 1, "oracle_value": -(3 ** 50)},
        {"millis": 0.1 + 0.2, "witness": [1 / 3, 2.0 ** -60]},
        {"formula_value": None, "witness": None, "millis": None},
    ]
    return [{**base, **odd[i % len(odd)],
             "status": ("pass", "fail", "skip")[i % 3]} for i in range(count)]


class TestWriteRecords:
    """write_records renders each record as the stdlib encoder with
    ``default=str`` does, and writes JSON lines a batch at a time."""

    class Writes(list):
        write = list.append

    @pytest.mark.parametrize("count", [0, 1, report._BATCH_RECORDS,
                                       report._BATCH_RECORDS + 1])
    def test_json_lines_equal_the_stdlib_encoder(self, count):
        records = odd_records(count)
        writes = self.Writes()
        summary = report.write_records(iter(records), "json", writes)
        encode = json.JSONEncoder(default=str).encode
        assert "".join(writes) == "".join(
            ("\n" if i == 0 else ",\n") + encode(rec)
            for i, rec in enumerate(records))
        assert len(writes) == -(-count // report._BATCH_RECORDS)
        statuses = [rec["status"] for rec in records]
        want = {status: statuses.count(status)
                for status in ("pass", "fail", "skip")}
        assert summary == {**want, "total": count}

    def test_values_and_head_equal_the_stdlib_encoder(self):
        encode = json.JSONEncoder(default=str).encode
        for value in [*odd_records(5), None, 2 ** 70, 0.1 + 0.2, "ω",
                      float("inf"), [Params(9, 4, 2)], {"a": {1}}]:
            assert report._encode(value) == encode(value), value
        meta = {"tool": "crossint", "spec": {"ks": [3]}, "note": "≠"}
        assert report.report_head("json", meta) == \
            encode(meta)[:-1] + ', "records": ['
        assert report.report_tail("json", 0.1 + 0.2) == \
            f'\n], "runtime_millis": {encode(0.1 + 0.2)}}}\n'

    def test_csv_rows_unchanged(self):
        records = odd_records(report._BATCH_RECORDS + 1)
        buf, reference = io.StringIO(), io.StringIO()
        summary = report.write_records(records, "csv", buf)
        csv.writer(reference, lineterminator="\n").writerows(
            [rec["n"], rec["k"], rec["s"], rec["l"], rec["check"],
             rec["formula_value"], rec["oracle_value"], rec["status"],
             rec["millis"]] for rec in records)
        assert buf.getvalue() == reference.getvalue()
        assert summary["total"] == len(records)


class TestBuildOnce:
    """One orbit-graph build per triple and check; chains classifies
    each chain class (k - s, max(0, k - 2s - l)) once, at its first
    triple, and lemma1 reads the class's cached paths without
    classifying: the sweep never rebuilds an instance or reclassifies a
    class."""

    def count_calls(self, monkeypatch):
        calls = {"build": [], "classify": []}
        build, classify = orbitgraph.build_orbit_graph, orbitgraph.classify_edges

        def counted_build(params):
            calls["build"].append((params.n, params.k, params.s))
            return build(params)

        def counted_classify(graph):
            p = graph.params
            calls["classify"].append((p.n, p.k, p.s))
            return classify(graph)

        for module in (sweep, orbitgraph):
            monkeypatch.setattr(module, "build_orbit_graph", counted_build)
        monkeypatch.setattr(orbitgraph, "classify_edges", counted_classify)
        return calls

    @pytest.mark.parametrize("check,classified", [("chains", 1), ("lemma1", 0)])
    def test_one_build_per_triple(self, monkeypatch, check, classified):
        calls = self.count_calls(monkeypatch)
        spec = SweepSpec(ks=tuple(range(3, 9)), ss=(2, 3, 4), ls=(0, 1, 2, 3),
                         checks=(check,), cap=1)
        triples = spec.instances()
        firsts = {}
        for n, k, s in triples:
            firsts.setdefault((k - s, max(0, 3 * k - 3 * s + 1 - n)), (n, k, s))
        bundle = run_sweep(spec)
        assert bundle.passed
        assert sorted(calls["build"]) == triples
        assert len(firsts) < len(triples)
        assert calls["classify"] == sorted(firsts.values()) * classified


def chain_class(params):
    """The class (k - s, max(0, k - 2s - l)) the sweep keys chains by."""
    return params.k - params.s, max(0, params.k - 2 * params.s - params.l)


def full_chains_record(params):
    """The chains record of the full build and validation, untimed."""
    graph = orbitgraph.build_orbit_graph(params)
    return validate_decomposition(build_chain_decomposition(params),
                                  graph).to_record("chains")


def tamper_weights(monkeypatch, params):
    """Give the second profile of a path of six or more vertices one more
    than the weight of the third, in the (n, k) weight row the orbit
    graph and its vertex rows read; other rows are left alone.  The path
    stays balanced (its MWIS is still half its weight, so the sum check
    passes too) but its weights no longer rise toward its middle."""
    n, k = params.n, params.k
    path = next(path for path in build_chain_decomposition(params).paths
                if len(path) >= 6)
    row = orbitgraph._weight_row

    def tampered(n_, k_):
        out = row(n_, k_)
        if (n_, k_) != (n, k):
            return out
        i = path[1].i
        return out[:i] + (out[path[2].i] + 1,) + out[i + 1:]

    monkeypatch.setattr(orbitgraph, "_weight_row", tampered)
    orbitgraph._vertex_rows.cache_clear()


def count_validations(monkeypatch):
    """The params of every sweep call of validate_decomposition."""
    seen, validate = [], sweep.validate_decomposition

    def counted(dec, graph):
        seen.append(graph.params)
        return validate(dec, graph)

    monkeypatch.setattr(sweep, "validate_decomposition", counted)
    return seen


class TestChainClasses:
    """check-chains validates a class's decomposition in full until one
    passes, keyed by the orbit graph's offset intervals, and then checks
    only the weights of the class's other triples; every record equals
    the full validator's."""

    #: n = 21 and 9 <= k <= 13: the class (k - s, k - 2s - l) = (7, 1),
    #: whose paths have 6, 4 and 4 vertices, has five triples, s = 2..6;
    #: the other classes of the grid come along.
    SPEC = SweepSpec(ks=tuple(range(9, 14)), ss=tuple(range(2, 7)), ns=(21,),
                     checks=("chains",))
    CLASS = [Params(*triple) for triple in SPEC.instances()
             if chain_class(Params(*triple)) == (7, 1)]

    def class_records(self):
        """The untimed records of a sweep of SPEC that belong to CLASS."""
        triples = [(p.n, p.k, p.s) for p in self.CLASS]
        return [rec for rec in strip_timings(run_sweep(self.SPEC).records)
                if (rec["n"], rec["k"], rec["s"]) in triples]

    @pytest.fixture(autouse=True)
    def fresh_vertex_rows(self):
        orbitgraph._vertex_rows.cache_clear()
        yield
        orbitgraph._vertex_rows.cache_clear()

    def test_records_equal_full_validation_on_orbit_grid(self):
        # the orbit-sweep grid (k 3:30, s 2:29, l 0:30) cut at k <= 20
        spec = SweepSpec(ks=tuple(range(3, 21)), ss=tuple(range(2, 30)),
                         ls=tuple(range(31)), checks=("chains",))
        records = strip_timings(run_sweep(spec).records)
        assert len(records) == 5301
        forms = {}
        for rec in records:
            params = Params(rec["n"], rec["k"], rec["s"])
            assert rec == full_chains_record(params), params
            assert rec["status"] == "pass"
            dec = build_chain_decomposition(params)
            form = dec.offset_paths(), dec.edge_types, dec.graph.offset_intervals
            assert forms.setdefault(chain_class(params), form) == form, params
        assert len(forms) < len(records) / 5

    def test_tampered_triple_fails_with_the_validators_witness(
            self, monkeypatch):
        assert len(self.CLASS) == 5
        first, tampered = self.CLASS[0], self.CLASS[2]
        tamper_weights(monkeypatch, tampered)
        validated = count_validations(monkeypatch)
        records = self.class_records()
        # the first triple in full; the tampered one by its weights alone
        assert [p for p in validated if p in self.CLASS] == [first]
        assert [rec["status"] for rec in records] == \
            ["pass", "pass", "fail", "pass", "pass"]
        assert records == [full_chains_record(p) for p in self.CLASS]
        witness = records[2]["witness"]
        assert len(witness) == 1 and "not monotone" in witness[0]

    def test_failed_first_triple_leaves_its_class_to_the_next_pass(
            self, monkeypatch):
        tamper_weights(monkeypatch, self.CLASS[0])
        validated = count_validations(monkeypatch)
        records = self.class_records()
        assert [p for p in validated if p in self.CLASS] == self.CLASS[:2]
        assert [rec["status"] for rec in records] == \
            ["fail", "pass", "pass", "pass", "pass"]
        assert records == [full_chains_record(p) for p in self.CLASS]

    def test_intervals_are_built_once_per_class(self):
        # the orbit-sweep workload's grid: 12,586 triples in 379 classes,
        # each of whose graphs carries its class's one interval tuple
        spec = SweepSpec(ks=tuple(range(3, 31)), ss=tuple(range(2, 30)),
                         ls=tuple(range(31)), checks=("chains",))
        orbitgraph._class_intervals.cache_clear()
        try:
            records = list(sweep.iter_records(spec))
            info = orbitgraph._class_intervals.cache_info()
        finally:
            orbitgraph._class_intervals.cache_clear()
        assert len(records) == 12586
        assert info.currsize == info.misses == 379
        assert info.hits == 12586 - 379

    def test_memo_entry_of_other_intervals_is_never_read(self, monkeypatch):
        # a class validated under other intervals must not spare this
        # triple its full validation
        params = self.CLASS[1]
        intervals = orbitgraph.build_orbit_graph(params).offset_intervals
        wrong = ((intervals[0][0], intervals[0][1] - 1),) + intervals[1:]
        monkeypatch.setattr(sweep, "_VALIDATED_CLASSES", {wrong})
        validated = count_validations(monkeypatch)
        records = check_records("chains", params, self.SPEC)
        assert validated == [params]
        assert strip_timings(records) == [full_chains_record(params)]
        assert sweep._VALIDATED_CLASSES == {wrong, intervals}
        # the paths a later triple of the class is checked on are the
        # validated decomposition's
        assert orbitgraph._class_chains(intervals)[0] == \
            build_chain_decomposition(params).offset_paths()

    def test_lemma1_and_chains_validate_each_class_once(self, monkeypatch):
        spec = replace(self.SPEC, checks=("lemma1", "chains"), cap=1)
        validated = count_validations(monkeypatch)
        records = strip_timings(run_sweep(spec).records)
        # the grid's triples with slack l < 0 skip both checks
        triples = [p for p in (Params(*t) for t in spec.instances()) if p.l >= 0]
        classes = sorted({chain_class(p) for p in triples})
        assert sorted(map(chain_class, validated)) == classes
        assert len(classes) < len(triples)
        orbit = [rec for rec in records if rec["l"] >= 0]
        assert {rec["status"] for rec in orbit} == {"pass"}
        assert [rec for rec in orbit if rec["check"] == "chains"] == \
            [full_chains_record(p) for p in triples]

    def test_memo_lives_for_one_sweep(self, monkeypatch):
        # a second sweep validates its classes afresh, so a broken build
        # installed between two sweeps is seen
        assert run_sweep(self.SPEC).passed
        assert sweep._VALIDATED_CLASSES == set()
        break_chain_decompositions(monkeypatch)
        bundle = run_sweep(self.SPEC)
        assert bundle.summary["pass"] == 0 and bundle.summary["fail"] > 5


def lemma1_reference(params):
    """The lemma1 record with Dinic's MWIS of the orbit graph, untimed."""
    graph = orbitgraph.build_orbit_graph(params)
    weight = dinic_mwis(graph.as_bipartite())[1]
    want = size_extremal_family(params) - 1
    return Verdict("lemma1.orbit-certificate", params, want, weight,
                   weight == want, detail="orbit-graph MWIS vs extremal "
                   "family size minus one").to_record("lemma1")


def swap_weights(monkeypatch):
    """Swap w(k-2) and w(k-3) in every (n, k) weight row with k >= 4
    that the orbit graph and its vertex rows read."""
    row = orbitgraph._weight_row

    def swapped(n, k):
        out = row(n, k)
        if k < 4:
            return out
        return out[:k - 3] + (out[k - 2], out[k - 3]) + out[k - 1:]

    monkeypatch.setattr(orbitgraph, "_weight_row", swapped)
    orbitgraph._vertex_rows.cache_clear()


class TestLemma1Route:
    """lemma1 reads the MWIS off the class's chain paths when they carry
    a saturating flow and asks the bipartite flow core otherwise; either
    way its record is the one Dinic's MWIS gives."""

    #: cap 1: no triple gets a lemma1.enumerated-mis record
    SPEC = SweepSpec(ks=(4,), ss=(2,), ls=(0,), checks=("lemma1",), cap=1)
    #: k 4:12, s 2:k-3, l 0:8, so that the swap moves two profiles >= s
    TRIPLES = [Params(2 * k - s + 1 + l, k, s) for k in range(4, 13)
               for s in range(2, k - 2) for l in range(9)]

    @pytest.fixture(autouse=True)
    def fresh_vertex_rows(self):
        orbitgraph._vertex_rows.cache_clear()
        yield
        orbitgraph._vertex_rows.cache_clear()

    def flows_and_verdicts(self, monkeypatch):
        """Each triple's path-flow result, the amount check the sweep
        runs on its class's fitting paths, and its lemma1 status, after
        asserting its records equal the reference."""
        monkeypatch.setattr(sweep, "_VALIDATED_CLASSES", set())
        flows, certify = {}, sweep._flow_amounts_hold

        def recorded(graph, paths):
            assert orbitgraph._flow_paths_fit(graph.offset_intervals, paths)
            flows[graph.params] = certify(graph, paths)
            return flows[graph.params]

        monkeypatch.setattr(sweep, "_flow_amounts_hold", recorded)
        statuses = {}
        for params in self.TRIPLES:
            records = check_records("lemma1", params, self.SPEC)
            assert records == [lemma1_reference(params)], params
            statuses[params] = records[0]["status"]
        return flows, statuses

    def test_clean_weights_never_fall_back(self, monkeypatch):
        flows, statuses = self.flows_and_verdicts(monkeypatch)
        assert len(flows) == len(self.TRIPLES) == 324
        assert all(flows.values())
        assert set(statuses.values()) == {"pass"}

    def test_swapped_weights_fall_back_to_the_flow_core(self, monkeypatch):
        swap_weights(monkeypatch)
        flows, statuses = self.flows_and_verdicts(monkeypatch)
        no_flow = [p for p in self.TRIPLES if not flows[p]]
        failed = [p for p in self.TRIPLES if statuses[p] == "fail"]
        assert set(failed) <= set(no_flow)
        assert len(no_flow) - len(failed) == 89 and len(failed) == 9
        assert Params(13, 6, 2) in no_flow and statuses[Params(13, 6, 2)] == "pass"
        assert Params(11, 6, 2) in failed

    def test_class_fit_is_checked_once_per_class(self, monkeypatch):
        # the orbit-sweep workload's grid: 12,586 triples in 379 classes
        spec = SweepSpec(ks=tuple(range(3, 31)), ss=tuple(range(2, 30)),
                         ls=tuple(range(31)), checks=("lemma1",), cap=1)
        fitted, fit = [], orbitgraph._flow_paths_fit

        def counted(intervals, paths):
            fitted.append(intervals)
            return fit(intervals, paths)

        monkeypatch.setattr(orbitgraph, "_flow_paths_fit", counted)
        orbitgraph._class_flow_paths.cache_clear()
        try:
            statuses = [rec["status"] for rec in sweep.iter_records(spec)]
            info = orbitgraph._class_flow_paths.cache_info()
        finally:
            orbitgraph._class_flow_paths.cache_clear()
        assert statuses == ["pass"] * 12586
        assert len(fitted) == len(set(fitted)) == info.misses == 379
        assert info.hits == 12586 - 379

    @pytest.mark.parametrize("error", [orbitgraph.TypedEdgeNotInW,
                                       orbitgraph.DecompositionViolation])
    def test_broken_class_construction_falls_back(self, monkeypatch,
                                                  tmp_path, error):
        # lemma1 does not rest on the chains: a class whose paths cannot
        # be built goes to the flow core, while check-chains still exits 2
        def broken(intervals):
            raise error("injected")

        solved, solve = [], sweep.max_weight_independent_set

        def counted(graph):
            solved.append(graph)
            return solve(graph)

        monkeypatch.setattr(orbitgraph, "_typed_offsets", broken)
        monkeypatch.setattr(sweep, "max_weight_independent_set", counted)
        orbitgraph._class_chains.cache_clear()
        orbitgraph._class_flow_paths.cache_clear()
        try:
            out = tmp_path / "lemma1.json"
            assert main(["check-lemmas", "--k", "5", "--s", "2", "--l", "1",
                         "--checks", "lemma1", "--cap", "1",
                         "--out", str(out)]) == 0
            records = json.loads(out.read_text())["records"]
            assert strip_timings(records) == [lemma1_reference(Params(10, 5, 2))]
            assert len(solved) == 1
            assert main(["check-chains", "--k", "5", "--s", "2", "--l", "1",
                         "--out", str(tmp_path / "chains.json")]) == 2
            assert not (tmp_path / "chains.json").exists()
        finally:
            orbitgraph._class_chains.cache_clear()
            orbitgraph._class_flow_paths.cache_clear()


def edges_triples(n_max):
    """Every (n, k, s) with n <= n_max, including slack l < 0."""
    return [Params(n, k, s) for n in range(3, n_max + 1)
            for k in range(2, n + 1) for s in range(1, k)]


class TestEdgesRoute:
    """check-edges enumerates each unordered profile pair once, and the
    enumerated route stops at the first conflicting row."""

    def test_one_enumeration_per_unordered_pair(self, monkeypatch):
        spec = SweepSpec(ks=(3,), ss=(2,), ls=(0,))
        enumerate_pair = sweep._enumerated_conflict
        orbit_masks = sweep._orbit_masks
        calls, built = [], []

        def counted_pair(params, i, t):
            calls.append((i, t))
            return enumerate_pair(params, i, t)

        def counted_orbit(params, profile):
            built.append((params, profile))
            return orbit_masks(params, profile)

        monkeypatch.setattr(sweep, "_enumerated_conflict", counted_pair)
        monkeypatch.setattr(sweep, "_orbit_masks", counted_orbit)
        sweep._profile_orbits.cache_clear()
        try:
            for params in edges_triples(10):
                calls.clear()
                built.clear()
                records = check_records("edges", params, spec)
                profiles = range(params.s, params.k)
                if params.l < 0:
                    assert calls == built == []
                    continue
                assert records[0]["status"] == "pass", params
                assert sorted(tuple(sorted(pair)) for pair in calls) == [
                    (i, t) for i in profiles for t in profiles if i <= t]
                # each profile's orbit is enumerated once per triple
                assert built == [(params, p) for p in profiles]
        finally:
            sweep._profile_orbits.cache_clear()

    def test_stops_at_the_first_conflicting_row(self, monkeypatch):
        consumed = []

        def counted_rows(masks1, masks2, s):
            rows = []
            consumed.append(rows)
            for row in _iter_conflict_rows(masks1, masks2, s):
                rows.append(row)
                yield row

        monkeypatch.setattr(sweep, "_iter_conflict_rows", counted_rows)
        stopped = exhausted = 0
        for params in edges_triples(10):
            for i in range(params.s, params.k):
                orbit_i = orbitgraph._orbit_masks(params, i)
                for t in range(params.s, params.k):
                    orbit_t = orbitgraph._orbit_masks(params, t)
                    rows = _conflict_rows(orbit_i, orbit_t, params.s)
                    consumed.clear()
                    conflict = sweep._enumerated_conflict(params, i, t)
                    assert conflict == any(rows)
                    assert len(consumed) == 1
                    if conflict:
                        # every row up to the first nonzero one, no further
                        first = next(a for a, row in enumerate(rows) if row)
                        assert consumed[0] == rows[:first + 1]
                        stopped += len(rows) > first + 1
                    else:
                        assert consumed[0] == rows
                        exhausted += len(rows) > 0
        assert stopped > 0 and exhausted > 0


def ordered_reference(params, spec):
    """The biregular check as one ``check_biregularity`` call per ordered
    edge of the orbit graph."""
    if params.s < 2 or params.l < 0:
        return [Verdict(None, params, detail="inapplicable: needs s >= 2 "
                        "and slack l >= 0").to_record("biregular")]
    edges = sorted(orbitgraph.build_orbit_graph(params).edges)
    failures = []
    degrees = {}
    try:
        for i, t in edges:
            verdict = orbitgraph.check_biregularity(params, i, t)
            degrees[f"({i},{t})"] = verdict.witness["degrees"]
            if not verdict.passed:
                failures.append((i, t, verdict.detail))
    except EnumerationTooLarge as exc:
        return [Verdict(None, params, detail=f"skipped: cap ({exc})")
                .to_record("biregular")]
    verdict = Verdict(
        claim="edges.biregular-premise",
        params=params,
        formula_value=None,
        oracle_value=None,
        passed=not failures,
        witness={"degrees": degrees},
        detail=(f"{len(edges)} conflicting orbit pairs, all biregular"
                if not failures else f"failures: {failures[:3]}"),
    )
    return [verdict.to_record("biregular")]


class TestBiregularOncePerUnorderedPair:
    spec = SweepSpec(ks=(3,), ss=(2,), ls=(0,))

    def test_matches_ordered_reference(self, monkeypatch):
        check = sweep.check_biregularity
        calls = []

        def counted(params, i, t):
            calls.append((i, t))
            return check(params, i, t)

        monkeypatch.setattr(sweep, "check_biregularity", counted)
        compared = 0
        for params in edges_triples(11):
            if params.s < 2:
                continue
            calls.clear()
            records = check_records("biregular", params, self.spec)
            assert strip_timings(records) == strip_timings(
                ordered_reference(params, self.spec)), params
            if records[0]["status"] == "skip":
                assert calls == []
                continue
            unordered = {tuple(sorted(edge))
                         for edge in orbitgraph.build_orbit_graph(params).edges}
            assert sorted(tuple(sorted(pair)) for pair in calls) == \
                sorted(unordered), params
            compared += 1
        assert compared == 50

    def test_swapped_orientation_fails_with_its_own_text(self, monkeypatch):
        # drop one set from orbit 3 of (9, 4, 2): the orbit-2 sets that
        # met it lose a neighbour, so the degrees differ on that side
        orbit_masks = orbitgraph._orbit_masks

        def dropped(params, profile):
            masks = orbit_masks(params, profile)
            return masks[:-1] if profile == 3 else masks

        monkeypatch.setattr(orbitgraph, "_orbit_masks", dropped)
        params = Params(9, 4, 2)
        forward = orbitgraph.check_biregularity(params, 2, 3)
        backward = orbitgraph.check_biregularity(params, 3, 2)
        assert forward.detail == "degree sets [5, 6] / [18]"
        assert backward.detail == "degree sets [18] / [5, 6]"
        [record] = check_records("biregular", params, self.spec)
        assert record["status"] == "fail"
        assert record["detail"] == (
            f"failures: {[(2, 3, forward.detail), (3, 2, backward.detail)]}")
        assert record["witness"]["degrees"] == {
            "(2,2)": ([21], [21]), "(2,3)": ([5, 6], [18]),
            "(3,2)": ([18], [5, 6])}
        assert strip_timings([record]) == strip_timings(
            ordered_reference(params, self.spec))
