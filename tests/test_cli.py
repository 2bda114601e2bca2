import json
import re
import tracemalloc

import pytest

from crossint import (ConfigError, CrossIntError, Params, Verdict, cli,
                      emit_report, extremal, run_sweep, sweep)
from crossint.cli import main
from crossint.sweep import iter_records


class TestSweepCommands:
    def test_verify_pass_exit_zero(self, capsys):
        assert main(["verify", "--k", "3", "--s", "2", "--l", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"] == {"pass": 1, "fail": 0, "skip": 0,
                                      "total": 1}

    def test_verify_ranges(self, capsys):
        code = main(["verify", "--k-range", "3:4", "--s", "2",
                     "--l-range", "0:2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["pass"] == 6

    def test_check_chains_failure_exit_one(self, capsys,
                                           break_chain_decompositions):
        argv = ["check-chains", "--k", "5", "--s", "2", "--l", "0"]
        assert main(argv) == 0
        break_chain_decompositions()
        assert main(argv) == 1

    def test_check_chains_records_do_not_depend_on_jobs(self, capsys):
        # each worker process fills its own class certificate cache, so
        # which triple of a class builds it differs from the one-process
        # sweep
        argv = ["check-chains", "--k-range", "3:9", "--s-range", "2:4",
                "--l-range", "0:4"]
        records = {}
        for jobs in ("1", "2"):
            assert main(argv + ["--jobs", jobs]) == 0
            records[jobs] = strip_millis(
                json.loads(capsys.readouterr().out)["records"])
        assert records["1"] == records["2"]
        classes = {(rec["k"] - rec["s"], max(0, rec["k"] - 2 * rec["s"] - rec["l"]))
                   for rec in records["1"]}
        assert 1 < len(classes) < len(records["1"])

    def test_check_lemmas_pass(self, capsys):
        assert main(["check-lemmas", "--k", "5", "--s", "2",
                     "--l-range", "0:2", "--cap", "500"]) == 0

    def test_check_lemmas_mirror_law_skipped_at_s1(self, capsys):
        # the mirror law needs s >= 2; at s = 1, l = 0 its pairs tie
        argv = ["check-lemmas", "--k", "4", "--s", "1", "--l", "0",
                "--checks", "lemma2"]
        assert main(argv) == 0
        records = json.loads(capsys.readouterr().out)["records"]
        assert [(rec["check"], rec["status"], rec["detail"])
                for rec in records] == [
            ("lemma2", "skip", "inapplicable: needs s >= 2 and slack l >= 0")]
        assert main(argv + ["--strict"]) == 2

    def test_weight_recurrence_remainder_exits_two(self, capsys, monkeypatch):
        # C(9, 5) read as 127 leaves a remainder in the (14, 5) weight row;
        # ArithmeticError is not an OverflowError
        binom = extremal.binom
        monkeypatch.setattr(extremal, "binom",
                            lambda n, k: 127 if (n, k) == (9, 5) else binom(n, k))
        extremal._weight_row.cache_clear()
        try:
            code = main(["check-lemmas", "--n", "14", "--k", "5", "--s", "2",
                         "--checks", "lemma2"])
        finally:
            extremal._weight_row.cache_clear()
        assert code == 2
        assert capsys.readouterr().err == (
            "error: orbit weight recurrence left remainder 8 at profile 2 "
            "for n=14, k=5\n")

    def test_check_edges_pass(self, capsys):
        assert main(["check-edges", "--k", "4", "--s-range", "2:3",
                     "--l", "1"]) == 0

    def test_missing_grid_is_config_error(self, capsys):
        assert main(["verify", "--k", "3", "--s", "2"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_check_is_config_error(self, capsys):
        code = main(["verify", "--k", "3", "--s", "2", "--l", "0",
                     "--checks", "bogus"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["check-chains", "--k", "3", "--s", "5", "--l", "0", "--strict"],
        ["verify", "--k", "4", "--s", "2", "--n-range", "1:3", "--strict"],
    ], ids=["s > k", "n < k"])
    def test_empty_grid_is_config_error(self, argv, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == 2
        assert "no valid (n, k, s) triple" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_check_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["check-lemmas", "--k", "4", "--s", "2", "--l-range",
                     "0:2", "--checks", "lemma1,lemma1", "--out", str(out)])
        assert code == 2
        assert "['lemma1']" in capsys.readouterr().err
        assert not out.exists()

    def test_strict_flags_skips(self, capsys):
        code = main(["verify", "--k", "5", "--s", "2", "--l", "4",
                     "--cap", "100", "--strict"])
        assert code == 2

    def test_strict_flags_a_deep_audit_above_its_cap(self, capsys):
        code = main(["verify", "--n", "9", "--k", "4", "--s", "2",
                     "--deep-audit", "--strict"])
        assert code == 2
        records = json.loads(capsys.readouterr().out)["records"]
        assert [(rec["claim"], rec["status"]) for rec in records] == [
            ("theorem.max-sum", "pass"), ("theorem.reduction-audit", "skip")]

    def test_csv_output_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["verify", "--k", "3", "--s", "2", "--l", "0",
                     "--format", "csv", "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0].startswith("n,k,s")
        assert "1 pass" in capsys.readouterr().out


def untimed(text, fmt):
    """A report's text with its timing fields blanked: ``millis`` and
    ``runtime_millis`` in JSON, the last (millis) column in CSV."""
    if fmt == "json":
        return re.sub(r'"(runtime_)?millis": [-+.0-9e]+', r'"\1millis": T',
                      text)
    return "\n".join(line.rpartition(",")[0] for line in text.split("\n"))


def strip_millis(records):
    return [{**rec, "millis": None} for rec in records]


class TestStreamedReport:
    """The CLI streams records through a spool; its report must equal the
    one rendered from a whole bundle, apart from timing fields.  The
    "empty" grid has no valid triple, so it is a configuration error that
    writes no report at all."""

    GRIDS = {
        # deliberately unsorted checks, skips (hm at s >= 2) and --strict
        "mixed": ["verify", "--checks", "hm,chains,lemma2,biregular,theorem",
                  "--k-range", "4:5", "--s-range", "2:3", "--l-range", "0:1",
                  "--strict"],
        "n-range": ["check-edges", "--k-range", "3:4", "--s-range", "1:2",
                    "--n-range", "6:8"],
        "jobs": ["check-chains", "--k-range", "3:5", "--s", "2",
                 "--l-range", "0:1", "--jobs", "2"],
        "empty": ["verify", "--k", "3", "--s", "3", "--l", "0"],
    }

    @staticmethod
    def spec(argv):
        return cli._spec_from_args(cli.build_parser().parse_args(argv))

    @pytest.fixture(params=["memory", "file"])
    def spool(self, request, monkeypatch):
        """Keep the spool in memory (every grid here writes less than its
        limit) or move it to a file at the first byte."""
        if request.param == "file":
            monkeypatch.setattr(cli, "_SPOOL_MEMORY_BYTES", 1)
        return request.param

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_equals_bundle_report(self, grid, fmt, spool, tmp_path, capsys):
        argv = self.GRIDS[grid] + ["--format", fmt]
        out = tmp_path / f"report.{fmt}"
        if grid == "empty":
            assert main(argv) == main(argv + ["--out", str(out)]) == 2
            assert capsys.readouterr().out == ""
            assert list(tmp_path.iterdir()) == []
            return
        bundle = run_sweep(self.spec(argv))
        want = untimed(emit_report(bundle, fmt), fmt)
        summary = bundle.summary
        want_code = (1 if summary["fail"] else
                     2 if "--strict" in argv and summary["skip"] else 0)

        assert main(argv) == want_code
        assert untimed(capsys.readouterr().out, fmt) == want

        assert main(argv + ["--out", str(out)]) == want_code
        assert untimed(out.read_text(encoding="utf-8"), fmt) == want
        assert capsys.readouterr().out == (
            f"{summary['pass']} pass, {summary['fail']} fail, "
            f"{summary['skip']} skipped -> {out}\n")

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_records_in_global_order(self, grid):
        if grid == "empty":
            with pytest.raises(ConfigError, match="no valid"):
                self.spec(self.GRIDS[grid])
            return
        spec = self.spec(self.GRIDS[grid])
        # the order of one sort over every record of the sweep
        reference = sorted(
            (rec for n, k, s in spec.instances() for name in spec.checks
             for verdict in sweep.CHECKS[name](Params(n, k, s), spec)
             for rec in [verdict.to_record(name)]),
            key=lambda r: (r["n"], r["k"], r["s"], r["check"], r["claim"]))
        assert strip_millis(iter_records(spec)) == strip_millis(reference)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_failed_sweep_leaves_out_untouched(self, fmt, spool, tmp_path,
                                              capsys, monkeypatch):
        calls = []

        def fails_on_third_triple(params, spec):
            calls.append(params)
            if len(calls) == 3:
                raise CrossIntError("injected failure")
            return [Verdict(None, params, detail="written before the failure")]

        monkeypatch.setitem(sweep.CHECKS, "hm", fails_on_third_triple)
        argv = ["verify", "--checks", "hm", "--k-range", "3:6", "--s", "1",
                "--l", "0", "--format", fmt]
        out = tmp_path / "report.out"
        previous = b"an earlier report\r\n\x00"
        out.write_bytes(previous)
        assert main(argv + ["--out", str(out)]) == 2
        assert len(calls) == 3
        assert out.read_bytes() == previous
        # the unnamed spool left nothing behind in the report's directory
        assert [p.name for p in tmp_path.iterdir()] == ["report.out"]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "injected failure" in captured.err

        calls.clear()
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    def test_memory_flat_in_the_grid(self, tmp_path, capsys):
        # 990 records.  Streamed, the call peaks at about 0.28 MB; holding
        # every record until the sweep ends took 0.57 MB, and holding the
        # rendered report as well 1.1 MB.
        argv = ["check-lemmas", "--k-range", "3:12", "--s-range", "2:11",
                "--l-range", "0:5", "--cap", "1",
                "--out", str(tmp_path / "lemmas.json")]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "990 pass" in capsys.readouterr().out
        assert peak < 450_000


class TestMisG:
    def test_matches_formula(self, capsys):
        assert main(["mis-g", "--n", "7", "--k", "3", "--s", "2"]) == 0
        assert "MIS = 12" in capsys.readouterr().out

    def test_cap_exceeded_exit_two(self, capsys):
        code = main(["mis-g", "--n", "9", "--k", "4", "--s", "2",
                     "--cap", "10"])
        assert code == 2


class TestEmitDot:
    def test_chains_default(self, capsys):
        assert main(["emit-dot", "--n", "9", "--k", "4", "--s", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph chains_n9_k4_s2 {")
        assert out.count(" -- ") == 3

    def test_graph_mode(self, capsys):
        assert main(["emit-dot", "--n", "7", "--k", "3", "--s", "2",
                     "--what", "W"]) == 0
        assert capsys.readouterr().out.count(" -- ") == 1

    def test_byte_identical_across_invocations(self, capsys):
        main(["emit-dot", "--n", "11", "--k", "6", "--s", "2"])
        first = capsys.readouterr().out
        main(["emit-dot", "--n", "11", "--k", "6", "--s", "2"])
        assert capsys.readouterr().out == first

    def test_out_of_range_exit_two(self, capsys):
        assert main(["emit-dot", "--n", "6", "--k", "4", "--s", "2"]) == 2


class TestShift:
    def test_closure_of_fixture(self, tmp_path, capsys):
        fixture = tmp_path / "family.txt"
        fixture.write_text("2,3\n")
        assert main(["shift", str(fixture), "--n", "3"]) == 0
        assert capsys.readouterr().out == "1,2\n"

    def test_output_file_and_default_ground(self, tmp_path):
        fixture = tmp_path / "family.txt"
        fixture.write_text("3,5\n2,4\n")
        out = tmp_path / "shifted.txt"
        assert main(["shift", str(fixture), "--out", str(out)]) == 0
        assert out.read_text() == "1,2\n1,3\n"

    def test_missing_file_exit_two(self, capsys):
        assert main(["shift", "/does/not/exist.txt"]) == 2

    def test_repeated_set_exit_two(self, tmp_path, capsys):
        fixture = tmp_path / "family.txt"
        fixture.write_text("2,3\n1,3\n2,3\n")
        assert main(["shift", str(fixture)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "lines 1 and 3" in captured.err

    def test_malformed_fixture_exit_two(self, tmp_path, capsys):
        fixture = tmp_path / "family.txt"
        fixture.write_text("1,2\n1,2,3\n")
        assert main(["shift", str(fixture)]) == 2


def without_timings(text):
    payload = json.loads(text)
    del payload["runtime_millis"]
    for rec in payload["records"]:
        del rec["millis"]
    return payload


class TestParserReuse:
    ARGVS = (["verify", "--n", "6", "--k", "3", "--s", "2", "--deep-audit",
              "--strict"],
             ["verify", "--n", "6", "--k", "3", "--s", "2"])

    def run_all(self, capsys):
        results = []
        for argv in self.ARGVS:
            code = main(argv)
            results.append((code, without_timings(capsys.readouterr().out)))
        return results

    def test_same_reports_as_fresh_parsers(self, capsys, monkeypatch):
        cached = self.run_all(capsys)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert cached == self.run_all(capsys)
        # the flags of the first call do not leak into the second
        assert [(code, len(payload["records"]), payload["spec"]["deep_audit"])
                for code, payload in cached] == [(0, 2, True), (0, 1, False)]

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser

        def counting():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            self.run_all(capsys)
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_build_parser_is_fresh(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()
