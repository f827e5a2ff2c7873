import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import sha256
from topoindices import (
    DW_MAX_N,
    Graph,
    IndexKind,
    Variant,
    closed_forms,
    double_wheel,
    edgelist,
    from_edge_list,
    graph,
    to_edge_list,
)
from topoindices.cli import _resolve_partition, build_parser, main
from topoindices.closed_forms import FAMILIES

TRIANGLE = "0 1\n1 2\n0 2\n"
SRC_PATH = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])
)


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

    def test_edge_list_source_as_csv_leaves_family_and_n_empty(self, tmp_path, capsys):
        path = tmp_path / "tri.txt"
        path.write_text(TRIANGLE)
        code, out, _ = run(
            capsys, "compute", "--edges", str(path), "--index", "ga", "--format", "csv"
        )
        assert code == 0
        assert out == "family,kind,n,method,value\n,ga,,brute,3\n"

    def test_edges_with_family_exits_2(self, tmp_path, capsys):
        path = tmp_path / "tri.txt"
        path.write_text(TRIANGLE)
        code, out, err = run(
            capsys, "compute", "--edges", str(path), "--family", "dw", "--n", "3"
        )
        assert code == 2
        assert out == ""
        assert err == "error: --edges cannot be combined with --family/--n\n"

    def test_closed_method_requires_family(self, tmp_path, capsys):
        path = tmp_path / "tri.txt"
        path.write_text(TRIANGLE)
        code, _, err = run(
            capsys, "compute", "--edges", str(path), "--index", "abc", "--method", "closed"
        )
        assert code == 2
        assert "closed" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--index", "bogus"], "unknown index"),
            (["--variant", "bogus"], "unknown variant"),
            (["--method", "closed"], "closed forms exist only"),
            (["--method", "both", "--tol", "nan"], "closed forms exist only"),
        ],
    )
    @pytest.mark.parametrize("text", ["0 1\n1 x\n", None], ids=["faulty-file", "missing-file"])
    def test_flags_are_checked_before_the_edge_list_is_read(self, tmp_path, capsys, flags, message, text):
        # a faulty or missing file is not read, and the flag's fault is named
        path = tmp_path / "edges.txt"
        if text is not None:
            path.write_text(text)
        code, out, err = run(capsys, "compute", "--edges", str(path), *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and message in err

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

    @pytest.mark.parametrize(
        "family, n, extra",
        [("hanoi", "4", []), ("dw", "5", ["--variant", "as-stated"])],
        ids=["hanoi", "dw-as-stated"],
    )
    def test_both_json_is_the_report_entry_shape(self, capsys, family, n, extra):
        code, out, _ = run(
            capsys, "compute", "--family", family, "--n", n, "--method", "both",
            "--format", "json", *extra,
        )
        assert code == 0
        records = json.loads(out)
        _, out, _ = run(capsys, "verify", "--family", family, "--n-min", n, "--n-max", n, *extra)
        entries = json.loads(out)["entries"]
        # Same keys in the same order, same values, one record per kind.
        assert [list(r.items()) for r in records] == [list(e.items()) for e in entries]
        assert len(records) == len(IndexKind)

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

    @pytest.mark.parametrize(
        "command",
        [
            ("compute",),
            ("compute", "--method", "both"),
            ("partition", "--mode", "neighbor-sum"),
            ("generate",),
        ],
    )
    def test_dw_above_generator_cap_exits_2(self, capsys, command):
        n = str(DW_MAX_N + 1)
        code, out, err = run(capsys, *command, "--family", "dw", "--n", n)
        assert code == 2
        assert out == ""
        assert err == f"error: double_wheel size cap is n <= {DW_MAX_N}, got {n}\n"

    def test_dw_closed_beyond_generator_cap(self, capsys):
        # closed forms do not build the graph, so the size cap does not apply
        code, out, _ = run(
            capsys, "compute", "--family", "dw", "--n", str(10 * DW_MAX_N),
            "--index", "ga", "--method", "closed",
        )
        assert code == 0
        assert out.startswith("ga = ")

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


class TestEdgesInput:
    @pytest.mark.parametrize("command", ["compute", "partition"])
    def test_malformed_file_exits_2_without_traceback(self, tmp_path, command):
        path = tmp_path / "dup.txt"
        path.write_text("0 1\n1 2\n1 0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "topoindices", command, "--edges", str(path)],
            env={**os.environ, "PYTHONPATH": SRC_PATH},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: line 3: duplicate edge (0, 1)\n"

    @pytest.mark.parametrize("command", ["compute", "partition"])
    def test_vertex_id_beyond_line_count_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "far.txt"
        path.write_text("0 100000\n")
        code, out, err = run(capsys, command, "--edges", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 1: vertex id 100000 ")
        assert "disconnected" in err

    @pytest.mark.parametrize("command", ["compute", "partition"])
    def test_invalid_utf8_blocks_in_exits_2_without_traceback(self, tmp_path, command):
        # the file is decoded a block at a time as it is parsed; the message
        # still names the bad byte by its offset in the file
        data = to_edge_list(double_wheel(10000)).encode() + b"0 \xff\n"
        assert len(data) > 3 * edgelist._READ_CHUNK
        with pytest.raises(UnicodeDecodeError) as info:
            data.decode("utf-8")
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        proc = subprocess.run(
            [sys.executable, "-m", "topoindices", command, "--edges", str(path)],
            env={**os.environ, "PYTHONPATH": SRC_PATH},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {info.value}\n"

    @pytest.mark.parametrize("command", ["compute", "partition"])
    def test_directory_exits_3(self, tmp_path, capsys, command):
        code, out, err = run(capsys, command, "--edges", str(tmp_path))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    def test_pipe_is_read_whole(self):
        # a pipe cannot be read again to name a fault, so its text is held
        proc = subprocess.run(
            [sys.executable, "-m", "topoindices", "compute", "--edges", "/dev/stdin"],
            env={**os.environ, "PYTHONPATH": SRC_PATH},
            input="0 1\n1 2\n1 0\n",
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: line 3: duplicate edge (0, 1)\n"

    def test_graph_too_large_for_its_columns_exits_2(self, tmp_path, capsys, monkeypatch):
        # a limit of 3 ids and offsets stands in for 2**31 - 1
        monkeypatch.setattr(graph, "_MAX_ITEM", 3)
        path = tmp_path / "path.txt"
        path.write_text("0 1\n1 2\n2 3\n")
        code, out, err = run(capsys, "compute", "--edges", str(path))
        assert code == 2
        assert out == ""
        assert err == (
            "error: graph too large: 4 vertices and 6 edge ends, "
            "but the CSR columns hold at most 3 of each\n"
        )


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

    def test_dw_range_above_generator_cap_exits_2(self, capsys):
        code, out, err = run(
            capsys, "verify", "--family", "dw", "--n-min", "3", "--n-max", str(DW_MAX_N + 1)
        )
        assert code == 2
        assert out == ""
        assert f"dw generator size cap is n <= {DW_MAX_N}" in err

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

    def test_undefined_closed_form_exits_2(self, capsys, monkeypatch):
        # rebound where FAMILIES looks it up, as the mutation tests do: a form
        # that divides by zero at the range's first n, wrapped like the real one
        @closed_forms._checked(closed_forms.DW)
        def undefined(kind, n, variant=Variant.PROOF_DERIVED):
            value = 1 / (n - 3)
            return closed_forms.ClosedFormResult(closed_forms.DW, kind, n, variant, value, False)

        monkeypatch.setattr(closed_forms, "dw_closed_form", undefined)
        code, out, err = run(capsys, "verify", "--family", "dw")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: dw randic closed form is undefined at n = 3"]

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
    def test_probe_above_hanoi_cap_exits_2(self, capsys):
        code, out, err = run(capsys, "errata", "--n", str(FAMILIES["hanoi"].max_n + 1))
        assert code == 2
        assert out == ""
        assert "n_probe" in err
        assert "Traceback" not in err

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


class TestDefaultPathBytes:
    """The default ``verify`` and ``errata`` reports, byte for byte as
    before the result records became named tuples."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["verify"], "54378767fa5127db9fbf9b0e2f66c5ec97ffadf0c08434b1c856406498ae130d"),
            (
                ["verify", "--format", "csv"],
                "7eb77566023841f9388317a7938da21671980c4f117c426997a965b706e044c0",
            ),
            (["errata"], "09eb976d70ebcb2c653595fced9fd6416b6d34145b4d1eb9087845690d19d143"),
            (
                ["errata", "--format", "json"],
                "f5ef0aca2c38688e6ebb09eb97ebc79ca4ad98464526778a6fa7d237b59495a1",
            ),
        ],
    )
    def test_report_bytes(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert sha256(out) == digest


class TestModuleEntryPoint:
    """``python -m topoindices`` runs ``main`` and exits with its code."""

    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "topoindices", *argv],
            env={**os.environ, "PYTHONPATH": SRC_PATH},
            capture_output=True,
            text=True,
            timeout=60,
        )

    def test_errata_bytes(self):
        proc = self._run("errata")
        assert proc.returncode == 0
        # the same pin as TestDefaultPathBytes' errata text
        assert sha256(proc.stdout) == (
            "09eb976d70ebcb2c653595fced9fd6416b6d34145b4d1eb9087845690d19d143"
        )

    def test_usage_error_exits_2(self):
        # returned by main, not raised by argparse, so only sys.exit carries it
        proc = self._run("verify", "--family", "dw", "--n-min", "3")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: --n-min and --n-max must be given together\n"


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


def _partition_mode(name):
    args = argparse.Namespace(mode=name, edges=None, family="dw", n=3)
    return _resolve_partition(args).mode


# lookup (canonical name in, canonical name out), its known names, and the
# command line that ends in the looked-up option
NAME_LOOKUPS = [
    (
        lambda name: IndexKind.parse(name).value,
        [kind.value for kind in IndexKind],
        ["compute", "--family", "dw", "--n", "3", "--index"],
    ),
    (
        lambda name: Variant.parse(name).value,
        [variant.value for variant in Variant],
        ["compute", "--family", "dw", "--n", "3", "--method", "closed", "--variant"],
    ),
    (
        _partition_mode,
        ["degree", "neighbor_sum"],
        ["partition", "--family", "dw", "--n", "3", "--mode"],
    ),
]
SPELLINGS = [
    str,
    str.upper,
    lambda name: name.replace("_", "-"),
    lambda name: f"  {name} ",
    lambda name: f" {name.title().replace('_', '-')}\t",
]


@pytest.mark.parametrize("lookup, known, argv", NAME_LOOKUPS, ids=["index", "variant", "mode"])
def test_name_lookups_share_spellings_and_errors(capsys, lookup, known, argv):
    for name in known:
        for spell in SPELLINGS:
            assert lookup(spell(name)) == name
    listed = f"(known: {', '.join(known)})"
    with pytest.raises(ValueError, match=re.escape(listed)):
        lookup("zagreb")
    code, out, err = run(capsys, *argv, "zagreb")
    assert code == 2
    assert out == ""
    assert listed in err
