import argparse
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import topoindices
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
from topoindices.cli import build_parser, cmd_partition, main
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
            (["--method", "both"], "closed forms exist only"),
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
        # no --tol flag: every check runs at DEFAULT_TOLERANCE
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--family", "dw", "--n", "3", "--method", "both", "--tol", tol])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"error: unrecognized arguments: --tol {tol}\n")

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
        # at 0.9 the as-stated abc4 formula, which the errata call wrong, would
        # pass; no --tol flag is left to set it
        with pytest.raises(SystemExit) as exc:
            main([
                "verify", "--family", "dw", "--index", "abc4", "--variant", "as-stated",
                "--n-min", "3", "--n-max", "3", "--tol", tol,
            ])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"error: unrecognized arguments: --tol {tol}\n")

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
        # the probe size is fixed, so no --n flag can ask past the Hanoi cap
        with pytest.raises(SystemExit) as exc:
            main(["errata", "--n", str(FAMILIES["hanoi"].max_n + 1)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"error: unrecognized arguments: --n {FAMILIES['hanoi'].max_n + 1}\n")
        assert "Traceback" not in err

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "errata")
        assert code == 0
        assert out.count("location:") == 3

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "errata", "--format", "json")
        assert code == 0
        entries = json.loads(out)
        assert len(entries) == 3
        assert entries[0]["evidence"]["n"] == 3


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


# Every output form of every subcommand, by command line ("TRIANGLE" names
# an edge-list file of one triangle) and the sha256 of its stdout. Each exits
# 0, and only verify writes to stderr: its errata, after the report.
OUTPUT_PINS = [
    (
        "compute --family hanoi --n 4 --method brute --format text",
        "160a75e86119fedd0dd101a0f506a00c7203cb40b9d18bea9735e13338696419",
    ),
    (
        "compute --family hanoi --n 4 --method brute --format csv",
        "7d4820b8ccf9ac2a1ed25d1ea83b9e8821fd8863d925f0f94c1a37c3c14f5279",
    ),
    (
        "compute --family hanoi --n 4 --method brute --format json",
        "d8a049856c02a2f646413f1f12f16eb39d3d5614ddaccd76e9285d27f66c08b7",
    ),
    (
        "compute --family hanoi --n 4 --method closed --format text",
        "160a75e86119fedd0dd101a0f506a00c7203cb40b9d18bea9735e13338696419",
    ),
    (
        "compute --family hanoi --n 4 --method closed --format csv",
        "55c3524dc5a9717f544fda0f7ad9756c40c2b09ebf131321feef792c1f510594",
    ),
    (
        "compute --family hanoi --n 4 --method closed --format json",
        "b05581f0481624c19b0f45e96eb5ff79875d6287eeb0e09c80a0d610dca7acf7",
    ),
    (
        "compute --family hanoi --n 4 --method both --format text",
        "54ee4adfe5df6a27a0ecbc635b8f3fbe1887742a0478c1c56a19af017a2afedf",
    ),
    (
        "compute --family hanoi --n 4 --method both --format csv",
        "17edd1f851bcabf09056f6ff7087b68bb287fb9cc47f225ff96f7c8c4a258b9f",
    ),
    (
        "compute --family hanoi --n 4 --method both --format json",
        "cd9ea5383f3e4a6add2ddc7f0021dcb0e4759ba219abfb44f78850a63185e3a2",
    ),
    (
        "compute --family dw --n 5 --variant as-stated --method brute --format text",
        "52a3b5c0e0f90bf935acc3505896e83c7d81234e329d204dcf4a550a1331a7c9",
    ),
    (
        "compute --family dw --n 5 --variant as-stated --method brute --format csv",
        "7cb5e726b06389ad4de561c7bcb25b123cb595427aadb95d30ad9f8cd879f959",
    ),
    (
        "compute --family dw --n 5 --variant as-stated --method brute --format json",
        "6a298b6104125ba83e9b5b85a38cf365c1f2ccea68ff3b243eaf9727fe280dd2",
    ),
    (
        "compute --family dw --n 5 --variant as-stated --method closed --format text",
        "a3671e8b6cf9275eb17c84b8b0985887c3fbf0cc6417fbce555e970b4dd9f9b6",
    ),
    (
        "compute --family dw --n 5 --variant as-stated --method closed --format csv",
        "669ddd324f0437f3e76216c5b57c8df3f393fe76da064f009c5ab9e9fcc67195",
    ),
    (
        "compute --family dw --n 5 --variant as-stated --method closed --format json",
        "f072cbaf3752d82b141c59b083f763c70d970b7a821006c09f41c44c80a92f60",
    ),
    (
        "compute --family dw --n 5 --variant as-stated --method both --format text",
        "e186dc29e47aabbb82b0c1a6a05a3f80fd1e23192a90696fc162eef2bbbda33f",
    ),
    (
        "compute --family dw --n 5 --variant as-stated --method both --format csv",
        "5c0cda10849bbe69558c3c3ccc57dd46ac254e4362bba00efedb316bf6f8fd8d",
    ),
    (
        "compute --family dw --n 5 --variant as-stated --method both --format json",
        "1d0dbce576dd8f6904d6a168027722052a046fd4a5de94dcc07d15f04fa3b831",
    ),
    (
        "compute --edges TRIANGLE --format text",
        "75edc61a6631c3d89f7df7284493cfa802be92b892ee70899e9fe928ae1ddcef",
    ),
    (
        "compute --edges TRIANGLE --format csv",
        "c03d020a08c27baad884277de421b14096e67156116ab1c89f0926abf8000621",
    ),
    (
        "compute --edges TRIANGLE --format json",
        "51f1d568b456156caa66c9e76a707e6bfa7bf5921000fbab3e973d52caeccff3",
    ),
    (
        "partition --family dw --n 5 --mode degree --format text",
        "3f987536ca7cf8398759c26402081febda1263bb1dff23d00b13e9bd7a658f95",
    ),
    (
        "partition --family dw --n 5 --mode degree --format csv",
        "459e42d4ed4b8693c5a9e6dd52758862873b896b1ececab089a8a0765ff29b4b",
    ),
    (
        "partition --family dw --n 5 --mode degree --format json",
        "797d68f9994d5f2217e15c4a60db3f6c6490cdcd9fb1751368112877fc6d7d29",
    ),
    (
        "partition --family dw --n 5 --mode neighbor-sum --format text",
        "48b9c8692c35d0bcd47c0314c8a6f3ac05d3f92ff659c6560dd109a40e849a55",
    ),
    (
        "partition --family dw --n 5 --mode neighbor-sum --format csv",
        "c1ce8b52942663d9ec01eb403af5b3de759202e0f1100009072bd560d1be1bc1",
    ),
    (
        "partition --family dw --n 5 --mode neighbor-sum --format json",
        "dc0f45c42e0e29a3dc7c784b496c34b93a8fe86ffad6729c6b49cad215e28126",
    ),
    (
        "partition --family hanoi --n 4 --mode degree --format text",
        "b4cde387b82af340659d950c0bde06659d8edfffb108b3ddbd256cd14a5ae7fe",
    ),
    (
        "partition --family hanoi --n 4 --mode degree --format csv",
        "e7819b63ae6074eb16b75bd10190eb78eed82f48cface14e563f81d2c298659d",
    ),
    (
        "partition --family hanoi --n 4 --mode degree --format json",
        "f4e569546ce828d4301d1b124116bce4b87cf66c7f7f6d3805d063614550334d",
    ),
    (
        "partition --family hanoi --n 4 --mode neighbor-sum --format text",
        "1683c07aeb20dd29443f5a2554896828ae174c8f07f9c640114ca94e315ce26d",
    ),
    (
        "partition --family hanoi --n 4 --mode neighbor-sum --format csv",
        "99161d56b7054a9416a2bd8982f944c6f485bf67f6fbefa25d9f20e63c027ce9",
    ),
    (
        "partition --family hanoi --n 4 --mode neighbor-sum --format json",
        "68449ecd6bdae161cc45bb25f1b5d57dd5b84eb06474c20c7a1118a48dca3ac9",
    ),
    (
        "generate --family dw --n 5",
        "facba9be385a3288a57729685d62eba4a991a17fff5343840343efecb64053f0",
    ),
    (
        "generate --family hanoi --n 3",
        "55ef6de811ccb149c28d3f94642b80bbba18f78601f11bfa731bdf313d682bca",
    ),
    (
        "errata --format text",
        "09eb976d70ebcb2c653595fced9fd6416b6d34145b4d1eb9087845690d19d143",
    ),
    (
        "verify --family hanoi --n-min 3 --n-max 4",
        "698adf965199cccb109378bc538a14048bc492b52af465d217ac070b2832b609",
    ),
]
VERIFY_ERRATA = (
    "erratum: double-wheel abc4 closed form (statement vs. derivation): the stated formula "
    "duplicates the degree-based abc closed form and does not match brute force; the "
    "expression reached at the end of its own derivation does\n"
    "erratum: hanoi neighbor-sum edge partition table: the published table lists only three "
    "of the four edge classes; the (9, 9) class with count (3**(n+1) - 33) / 2 completes the "
    "partition and matches direct enumeration\n"
    "erratum: double-wheel abc4 derivation, partition table citation: the derivation cites a "
    "partition table by a number that does not exist in the source; the neighbor-sum edge "
    "partition table is the one actually used\n"
)


class TestOutputBytes:
    """Each output form byte for byte, written to stdout and to ``--out``."""

    @pytest.mark.parametrize("line, digest", OUTPUT_PINS, ids=[line for line, _ in OUTPUT_PINS])
    def test_stdout_and_out_file(self, tmp_path, capsys, line, digest):
        triangle = tmp_path / "tri.txt"
        triangle.write_text(TRIANGLE)
        argv = [str(triangle) if word == "TRIANGLE" else word for word in line.split()]
        errata = VERIFY_ERRATA if argv[0] == "verify" else ""
        code, out, err = run(capsys, *argv)
        assert (code, sha256(out), err) == (0, digest, errata)
        path = tmp_path / "out.txt"
        assert run(capsys, *argv, "--out", str(path)) == (0, "", errata)
        assert sha256(path.read_text(encoding="utf-8")) == digest


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

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_verify_report_then_errata_on_one_stream(self, unbuffered):
        # buffered, the default, stdout holds the report until exit unless
        # main flushes it before writing the errata
        env = {**os.environ, "PYTHONPATH": SRC_PATH, "PYTHONUNBUFFERED": "1"}
        if not unbuffered:
            del env["PYTHONUNBUFFERED"]
        proc = subprocess.run(
            [sys.executable, "-m", "topoindices", "verify", "--family", "hanoi",
             "--n-min", "3", "--n-max", "4"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.endswith("}\n" + VERIFY_ERRATA)
        assert sha256(proc.stdout) == (
            "c90a952e71047d7b4ee66cbc30712ee7a2afbabfa38fd6ba92a5ad2e0e4058f8"
        )

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "argv", ["compute --family dw --n 5", "generate --family hanoi --n 9"]
    )
    def test_closed_stdout_exits_3(self, unbuffered, argv):
        # the reader is gone before the first write; buffered, stdout still
        # holds the output when the interpreter flushes it at exit
        env = {**os.environ, "PYTHONPATH": SRC_PATH, "PYTHONUNBUFFERED": "1"}
        if not unbuffered:
            del env["PYTHONUNBUFFERED"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "topoindices", *argv.split()],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 3
        assert err == "error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
    def test_same_bytes_under_other_interpreters(self, tmp_path, version):
        # requires-python admits every 3.x from 3.10, and the report is
        # rendered by the stdlib json module of whichever one runs it
        exe = shutil.which(f"python{version}")
        if exe is None:
            pytest.skip(f"python{version} is not installed")
        # a pyenv shim starts the version that PYENV_VERSION names, and
        # may find no python{version} in the versions it would pick itself
        for pinned in ({}, {"PYENV_VERSION": version}):
            probe = subprocess.run(
                [exe, "-c", "import sys; print(*sys.version_info[:2], sep='.')"],
                env={**os.environ, **pinned},
                capture_output=True,
                text=True,
                timeout=60,
            )
            if probe.returncode == 0 and probe.stdout.strip() == version:
                break
        else:
            pytest.skip(
                f"python{version} is found but does not start as {version}, "
                f"with PYENV_VERSION={version} or without"
            )
        edges = tmp_path / "hanoi3.txt"
        edges.write_text(to_edge_list(FAMILIES["hanoi"].build(3)), encoding="utf-8")
        outputs = {}
        for interpreter, env in ((sys.executable, {}), (exe, pinned)):
            report = tmp_path / f"{Path(interpreter).name}.json"
            runs = [
                subprocess.run(
                    [interpreter, "-m", "topoindices", *argv],
                    env={**os.environ, **env, "PYTHONPATH": SRC_PATH},
                    capture_output=True,
                    timeout=120,
                )
                for argv in (["verify", "--out", str(report)], ["compute", "--edges", str(edges)])
            ]
            outputs[interpreter] = [(r.returncode, r.stdout, r.stderr) for r in runs]
            outputs[interpreter].append(report.read_bytes())
        assert outputs[exe] == outputs[sys.executable]
        assert outputs[exe][0][0] == 0

    @pytest.mark.parametrize(
        "command", ["", "generate", "compute", "partition", "verify", "errata"]
    )
    def test_help_exits_0(self, command):
        proc = self._run(*command.split(), "--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith(f"usage: topoindices {command}".rstrip())
        assert proc.stderr == ""

    def test_usage_error_exits_2(self):
        # returned by main, not raised by argparse, so only sys.exit carries it
        proc = self._run("verify", "--family", "dw", "--n-min", "3")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: --n-min and --n-max must be given together\n"


# Each subcommand's help, function, and actions in declaration order: option
# strings, dest, default, choices, required, type name and help.
FAMILY = tuple(FAMILIES)
HELP = (
    ("-h", "--help"), "help", argparse.SUPPRESS, None, False, None,
    "show this help message and exit",
)
PARSER_CONTRACT = {
    "generate": ("write a family graph as an edge list", "cmd_generate", [
        HELP,
        (("--family",), "family", None, FAMILY, True, None, None),
        (("--n",), "n", None, None, True, "int", None),
        (("--out",), "out", None, None, False, None, "output path (default: stdout)"),
    ]),
    "compute": ("compute index values for a graph", "cmd_compute", [
        HELP,
        (("--family",), "family", None, FAMILY, False, None, "graph family"),
        (("--n",), "n", None, None, False, "int", "family size parameter"),
        (("--edges",), "edges", None, None, False, None, "edge-list file instead of a family"),
        (("--index",), "index", "all", None, False, None, "index name or 'all'"),
        (("--method",), "method", "brute", ("brute", "closed", "both"), False, None, None),
        (("--variant",), "variant", "proof-derived", None, False, None,
         "closed-form variant (abc4 only)"),
        (("--format",), "format", "text", ("text", "csv", "json"), False, None, None),
        (("--out",), "out", None, None, False, None, "output path (default: stdout)"),
    ]),
    "partition": ("tabulate an edge partition", "cmd_partition", [
        HELP,
        (("--family",), "family", None, FAMILY, False, None, "graph family"),
        (("--n",), "n", None, None, False, "int", "family size parameter"),
        (("--edges",), "edges", None, None, False, None, "edge-list file instead of a family"),
        (("--mode",), "mode", "degree", None, False, None, "degree or neighbor-sum"),
        (("--format",), "format", "text", ("text", "csv", "json"), False, None, None),
        (("--out",), "out", None, None, False, None, "output path (default: stdout)"),
    ]),
    "verify": ("check closed forms against brute force", "cmd_verify", [
        HELP,
        (("--family",), "family", "all", (*FAMILY, "all"), False, None, None),
        (("--index",), "index", "all", None, False, None, "index name or 'all'"),
        (("--n-min",), "n_min", None, None, False, "int", "range start (default: per-kind range)"),
        (("--n-max",), "n_max", None, None, False, "int", "range end (inclusive)"),
        (("--variant",), "variant", "proof-derived", None, False, None,
         "closed-form variant (abc4 only)"),
        (("--format",), "format", "json", ("json", "csv"), False, None, None),
        (("--out",), "out", None, None, False, None, "report path (default: stdout)"),
    ]),
    "errata": ("report the discrepancies the checks expose", "cmd_errata", [
        HELP,
        (("--format",), "format", "text", ("text", "json"), False, None, None),
        (("--out",), "out", None, None, False, None, "output path (default: stdout)"),
    ]),
}


def _subparsers():
    return next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )


class TestArgparseContract:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--family", "dw", "--n", "3", "--wat"])
        assert exc.value.code == 2

    def test_every_subcommand_as_declared(self):
        subparsers = _subparsers()
        helps = {action.dest: action.help for action in subparsers._choices_actions}
        declared = {
            command: (
                helps[command],
                parser.get_default("func").__name__,
                [
                    (
                        tuple(action.option_strings), action.dest, action.default,
                        action.choices, action.required,
                        getattr(action.type, "__name__", None), action.help,
                    )
                    for action in parser._actions
                ],
            )
            for command, parser in subparsers.choices.items()
        }
        assert declared == PARSER_CONTRACT
        assert list(declared) == list(PARSER_CONTRACT)

    def test_family_choices_come_from_registry(self):
        subparsers = _subparsers()
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


# The public functions of verify.py and closed_forms.py and their parameters,
# each "name=default" where it has a default: a new keyword is a change here.
SIGNATURES = {
    "verify": {
        "relative_error": ["closed", "oracle"],
        "verify_entry": ["family", "kind", "n", "graph", "variant"],
        "verify_family": ["family", "kinds=None", "n_range=None", "variant=Variant.PROOF_DERIVED"],
        "combine_reports": ["reports"],
        "verify_all": [],
        "errata_report": [],
    },
    "closed_forms": {
        "dw_closed_form": ["kind", "n", "variant=Variant.PROOF_DERIVED"],
        "hanoi_closed_form": ["kind", "n", "variant=Variant.PROOF_DERIVED"],
        "get_family": ["name"],
        "closed_form": ["family", "kind", "n", "variant=Variant.PROOF_DERIVED"],
    },
}


@pytest.mark.parametrize("module_name", list(SIGNATURES))
def test_public_signatures_as_declared(module_name):
    module = getattr(topoindices, module_name)
    declared = {
        name: [
            param.name if param.default is param.empty else f"{param.name}={param.default}"
            for param in inspect.signature(value).parameters.values()
        ]
        for name, value in vars(module).items()
        if inspect.isfunction(value)
        and value.__module__ == module.__name__
        and not name.startswith("_")
    }
    assert declared == SIGNATURES[module_name]


def _partition_mode(name):
    args = argparse.Namespace(mode=name, edges=None, family="dw", n=3, format="json")
    return json.loads(cmd_partition(args)[0])["mode"]


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


@pytest.mark.parametrize("spelling", ["ALL", " all ", "All"])
@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--family", "dw", "--n", "3"],
        ["verify", "--family", "hanoi", "--n-min", "3", "--n-max", "3"],
    ],
    ids=["compute", "verify"],
)
def test_index_all_forgives_spelling(capsys, argv, spelling):
    expected = run(capsys, *argv, "--index", "all")
    assert expected[0] == 0
    assert run(capsys, *argv, "--index", spelling) == expected
