import json

from crossint import cli
from crossint.cli import main

from conftest import break_chain_decompositions


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

    def test_check_chains_failure_exit_one(self, capsys, monkeypatch):
        argv = ["check-chains", "--k", "5", "--s", "2", "--l", "0"]
        assert main(argv) == 0
        break_chain_decompositions(monkeypatch)
        assert main(argv) == 1

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
