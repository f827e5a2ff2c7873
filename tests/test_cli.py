import argparse
import json

import pytest

from topoindices import Graph, double_wheel, from_edge_list
from topoindices.cli import build_parser, main
from topoindices.closed_forms import FAMILIES

TRIANGLE = "0 1\n1 2\n0 2\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_writes_edge_list_file(self, tmp_path, capsys):
        out = tmp_path / "dw3.txt"
        code, _, _ = run(capsys, "generate", "--family", "dw", "--n", "3", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 12
        assert from_edge_list(out.read_text()) == double_wheel(3)

    def test_hanoi_one_disc_to_stdout(self, capsys):
        code, out, _ = run(capsys, "generate", "--family", "hanoi", "--n", "1")
        assert code == 0
        assert out == "0 1\n0 2\n1 2\n"

    def test_invalid_n_exits_2(self, capsys):
        code, _, err = run(capsys, "generate", "--family", "dw", "--n", "2")
        assert code == 2
        assert "n >= 3" in err

    def test_unwritable_path_exits_3(self, tmp_path, capsys):
        code, _, err = run(capsys, "generate", "--family", "dw", "--n", "3", "--out", str(tmp_path))
        assert code == 3
        assert err.startswith("error:")


class TestCompute:
    def test_both_methods_agree(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "hanoi", "--n", "3",
            "--index", "abc", "--method", "both",
        )
        assert code == 0
        assert "oracle=26.2426406871" in out
        assert "closed=26.2426406871" in out
        assert "pass=true" in out

    def test_edge_list_source(self, tmp_path, capsys):
        path = tmp_path / "tri.txt"
        path.write_text(TRIANGLE)
        code, out, _ = run(capsys, "compute", "--edges", str(path), "--index", "ga")
        assert code == 0
        assert out == "ga = 3\n"

    def test_closed_method_requires_family(self, tmp_path, capsys):
        path = tmp_path / "tri.txt"
        path.write_text(TRIANGLE)
        code, _, err = run(
            capsys, "compute", "--edges", str(path), "--index", "abc", "--method", "closed"
        )
        assert code == 2
        assert "closed" in err

    def test_unknown_index_exits_2(self, capsys):
        code, _, err = run(capsys, "compute", "--family", "dw", "--n", "3", "--index", "zagreb")
        assert code == 2
        assert "unknown index" in err

    def test_missing_source_exits_2(self, capsys):
        code, _, err = run(capsys, "compute", "--index", "ga")
        assert code == 2

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "dw", "--n", "4",
            "--index", "randic", "--format", "json",
        )
        assert code == 0
        records = json.loads(out)
        assert records[0]["kind"] == "randic"
        assert records[0]["method"] == "brute"

    def test_csv_format_all_kinds(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "dw", "--n", "3", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "family,kind,n,method,value"
        assert len(lines) == 7

    def test_closed_accepts_hyphenated_index_and_variant(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "dw", "--n", "3", "--index", "sum-connectivity",
            "--method", "closed", "--variant", "as-stated",
        )
        assert code == 0
        assert "sum_connectivity" in out

    @pytest.mark.parametrize(
        "family, n, index",
        [("hanoi", "700", "all"), ("dw", str(10**155), "ga5")],
        ids=["hanoi-700", "dw-1e155"],
    )
    def test_closed_overflow_exits_2(self, capsys, family, n, index):
        code, out, err = run(
            capsys, "compute", "--family", family, "--n", n, "--index", index, "--method", "closed"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "overflows a float" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "0.1", "0.9"])
    def test_bad_tolerance_exits_2(self, capsys, tol):
        code, out, err = run(
            capsys, "compute", "--family", "dw", "--n", "3", "--method", "both", "--tol", tol
        )
        assert code == 2
        assert out == ""
        assert "0 < tol < 0.1" in err

    def test_hanoi_closed_beyond_generator_cap(self, capsys):
        # closed forms do not build the graph, so the size cap is irrelevant
        code, out, _ = run(
            capsys, "compute", "--family", "hanoi", "--n", "40",
            "--index", "abc", "--method", "closed",
        )
        assert code == 0
        assert "exactness warning" in out


class TestPartition:
    def test_dw5_degree_rows(self, capsys):
        code, out, _ = run(capsys, "partition", "--family", "dw", "--n", "5", "--mode", "degree")
        assert code == 0
        assert out.splitlines() == ["lo\thi\tcount", "3\t3\t10", "3\t10\t10"]

    def test_hanoi3_neighbor_sum_rows(self, capsys):
        code, out, _ = run(
            capsys, "partition", "--family", "hanoi", "--n", "3",
            "--mode", "neighbor-sum", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == ["lo,hi,count", "6,8,6", "8,8,3", "8,9,6", "9,9,24"]

    def test_hanoi1_degree(self, capsys):
        code, out, _ = run(capsys, "partition", "--family", "hanoi", "--n", "1")
        assert code == 0
        assert out.splitlines()[1] == "2\t2\t3"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "partition", "--family", "dw", "--n", "3",
            "--mode", "neighbor-sum", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "neighbor_sum"
        assert payload["classes"] == [
            {"lo": 12, "hi": 12, "count": 6},
            {"lo": 12, "hi": 18, "count": 6},
        ]

    def test_unknown_mode_exits_2(self, capsys):
        code, _, err = run(capsys, "partition", "--family", "dw", "--n", "3", "--mode", "color")
        assert code == 2


class TestVerify:
    def test_small_pass_run(self, capsys):
        code, out, err = run(
            capsys, "verify", "--family", "dw", "--n-min", "3", "--n-max", "5"
        )
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["failed"] == 0
        assert report["summary"]["total"] == 18
        # errata summary goes to stderr
        assert "erratum:" in err

    def test_as_stated_demonstration_exits_1(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "dw", "--n-min", "3", "--n-max", "3",
            "--index", "abc4", "--variant", "as-stated",
        )
        assert code == 1
        report = json.loads(out)
        assert report["summary"]["failed"] == 1
        assert report["entries"][0]["variant"] == "as_stated"

    def test_empty_range_exits_2(self, capsys):
        code, _, err = run(
            capsys, "verify", "--family", "hanoi", "--n-min", "9", "--n-max", "2"
        )
        assert code == 2
        assert "empty range" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "0.1", "0.9"])
    def test_bad_tolerance_exits_2(self, capsys, tol):
        # at 0.9 the as-stated abc4 formula, which the errata call wrong, would pass
        code, out, err = run(
            capsys, "verify", "--family", "dw", "--index", "abc4", "--variant", "as-stated",
            "--n-min", "3", "--n-max", "3", "--tol", tol,
        )
        assert code == 2
        assert out == ""
        assert "0 < tol < 0.1" in err

    def test_half_specified_range_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--family", "dw", "--n-min", "3")
        assert code == 2

    def test_report_written_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "verify", "--family", "hanoi", "--index", "ga",
            "--n-min", "2", "--n-max", "4", "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        report = json.loads(out_path.read_text())
        assert [e["n"] for e in report["entries"]] == [2, 3, 4]

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "dw", "--index", "ga",
            "--n-min", "3", "--n-max", "4", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "family,kind,n,variant,oracle,closed,rel_error,pass"
        assert len(lines) == 3
        assert lines[1].startswith("dw,ga,3,proof_derived,")


class TestErrata:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "errata")
        assert code == 0
        assert out.count("location:") == 3

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "errata", "--n", "4", "--format", "json")
        assert code == 0
        entries = json.loads(out)
        assert len(entries) == 3
        assert entries[0]["evidence"]["n"] == 4


class TestArgparseContract:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--family", "dw", "--n", "3", "--wat"])
        assert exc.value.code == 2

    def test_family_choices_come_from_registry(self):
        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        choices = {
            command: action.choices
            for command, parser in subparsers.choices.items()
            for action in parser._actions
            if action.dest == "family"
        }
        assert choices == {
            "generate": tuple(FAMILIES),
            "compute": tuple(FAMILIES),
            "partition": tuple(FAMILIES),
            "verify": (*FAMILIES, "all"),
        }
