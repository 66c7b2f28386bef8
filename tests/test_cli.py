"""CLI surface: commands, exit codes, golden bytes, the README's examples."""

from __future__ import annotations

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from artinhol import cli, conditions
from artinhol.hilbert import HilbertBasis

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"


def run_cli(*args, check=False):
    return subprocess.run(
        [sys.executable, "-m", "artinhol", *args],
        capture_output=True,
        text=True,
        check=check,
    )


class TestGolden:
    def test_check_d11_v1m1(self):
        res = run_cli("check", "--degrees", "1,1", "--orders", "1,-1", "--json")
        assert res.returncode == 0
        assert res.stdout == (GOLDEN / "check_d11_v1m1.json").read_text()

    def test_hilbert_v2m3(self):
        res = run_cli("hilbert", "--orders", "2,-3", "--json")
        assert res.returncode == 0
        assert res.stdout == (GOLDEN / "hilbert_v2m3.json").read_text()

    def test_check_d112_v000(self):
        res = run_cli("check", "--degrees", "1,1,2", "--orders", "0,0,0", "--json")
        assert res.returncode == 0
        assert res.stdout == (GOLDEN / "check_d112_v000.json").read_text()

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("name", ["a4_b2", "d112_b3", "s5_b1", "d1_b2"])
    def test_sweep_artifact_digests(self, tmp_path, capsys, name, workers):
        # sweeps.sha256 is in `sha256sum` format; any change to the bytes
        # of the records, the summary or the CSV shows up here.
        pinned = {}
        for line in (GOLDEN / "sweeps.sha256").read_text().splitlines():
            digest, file_name = line.split()
            pinned[file_name] = digest
        source = {
            "a4_b2": ["--group", "A4", "--order-bound", "2"],
            "d112_b3": ["--degrees", "1,1,2", "--order-bound", "3"],
            "s5_b1": ["--group", "S5", "--order-bound", "1"],  # rank 7: 42 pairs a record
            "d1_b2": ["--degrees", "1", "--order-bound", "2"],  # rank 1: one-entry arrays
        }[name]
        outputs = (("--out", "jsonl"), ("--summary-json", "json"), ("--csv", "csv"))
        paths = {flag: tmp_path / f"{name}.{ext}" for flag, ext in outputs}
        argv = ["sweep", *source, "--workers", workers]
        for flag, path in paths.items():
            argv += [flag, str(path)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        for path in paths.values():
            assert hashlib.sha256(path.read_bytes()).hexdigest() == pinned[path.name], path.name


class TestExitCodes:
    def test_ok_is_zero(self):
        assert run_cli("check", "--degrees", "1,1", "--orders", "0,0").returncode == 0

    def test_length_mismatch_is_two(self):
        res = run_cli("check", "--degrees", "1,1", "--orders", "1")
        assert res.returncode == 2
        assert "length" in res.stderr

    def test_malformed_integer_is_two(self):
        res = run_cli("check", "--degrees", "1,x", "--orders", "1,1")
        assert res.returncode == 2

    def test_unknown_flag_is_two(self):
        res = run_cli("check", "--degrees", "1,1", "--orders", "1,1", "--bogus")
        assert res.returncode == 2

    def test_bad_degree_is_two(self):
        res = run_cli("check", "--degrees", "0,1", "--orders", "1,1")
        assert res.returncode == 2

    def test_factorize_outside_hol_is_two(self):
        res = run_cli("factorize", "--orders", "1,-1", "--element", "0,1")
        assert res.returncode == 2
        assert "error" in res.stderr

    def test_factorize_outside_hol_builds_no_basis(self, monkeypatch, capsys):
        def fail(v):
            raise AssertionError(f"a basis was built for {v}")

        # cli calls the name it imported from conditions; patch both bindings.
        monkeypatch.setattr(conditions, "cross_checked_basis", fail)
        monkeypatch.setattr(cli, "cross_checked_basis", fail)
        assert cli.main(["factorize", "--orders=200,-301", "--element", "0,1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not in Hol" in err

    def test_factorize_bad_cap_builds_no_basis(self, monkeypatch, capsys):
        def fail(v):
            raise AssertionError(f"a basis was built for {v}")

        monkeypatch.setattr(conditions, "cross_checked_basis", fail)
        monkeypatch.setattr(cli, "cross_checked_basis", fail)
        with pytest.raises(SystemExit) as exc:
            cli.main(["factorize", "--orders=200,-301", "--element", "2,1", "--cap", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "artinhol factorize: error: --cap must be >= 2" in err

    @pytest.mark.parametrize("flag", ["--out", "--summary-json", "--csv"])
    def test_empty_output_path_is_two(self, flag, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--degrees", "1", "--order-bound", "1", flag, ""])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--degrees", "1", "--order-bound", "1", "--out", ""],
            ["check", "--degrees", "1,1", "--orders", "1"],
            ["factorize", "--orders", "1,-1", "--element", "1"],
            ["catalog", "show"],
        ],
    )
    def test_usage_names_the_subcommand(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: artinhol {argv[0]} ")
        assert f"\nartinhol {argv[0]}: error: " in err

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    @pytest.mark.parametrize("argv", [["hilbert", "--orders=2,-3"], ["catalog", "list"]])
    def test_closed_stdout_is_quiet(self, argv, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            res = subprocess.run(
                [sys.executable, "-m", "artinhol", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONUNBUFFERED=unbuffered),
            )
        finally:
            os.close(write_end)
        assert res.stderr == b""
        assert res.returncode == 141


class TestCommands:
    def test_check_human_output(self):
        res = run_cli("check", "--degrees", "1,1", "--orders", "1,-1")
        assert res.returncode == 0
        assert "factorial: True" in res.stdout
        assert "equivalence" in res.stdout

    def test_check_carries_the_canonical_basis_back(self, capsys):
        # Hol(10^6, -10^6, 10^6) = Hol(1, -1, 1); the region of the vector
        # itself has 500,002,000,002,500,001 points.
        docs = []
        for orders in ("1000000,-1000000,1000000", "1,-1,1"):
            assert cli.main(["check", "--degrees", "1,1,1", f"--orders={orders}", "--json"]) == 0
            docs.append(json.loads(capsys.readouterr().out))
        assert docs[0]["hilbert"] == docs[1]["hilbert"]
        assert docs[0]["hilbert"]["elements"] == [[0, 0, 1], [0, 1, 1], [1, 0, 0], [1, 1, 0]]

    def test_factorize_under_the_search_bound_answers(self, capsys):
        argv = ["factorize", "--orders=1,-1", "--element=200,200", "--json"]
        assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["count"], doc["witnesses"]) == (1, [[0, 200]])

    def test_factorize_over_the_search_bound_is_two(self, capsys):
        argv = ["factorize", "--orders=1,-1", "--element=99999999999,99999999999"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: factorization search of (99999999999, 99999999999) may take")
        assert err.endswith("steps, over the enumeration cap 10000000\n")

    def test_hilbert_cross_checked(self):
        res = run_cli("hilbert", "--orders", "2,-3")
        assert res.returncode == 0
        assert res.stdout == (
            "orders: [2, -3]\n"
            "hilbert basis (3 elements):\n"
            "  [1, 0]\n"
            "  [2, 1]\n"
            "  [3, 2]\n"
        )

    def test_hilbert_beyond_the_old_box(self):
        # the box [0, 25]^5 is over the enumeration cap; Lambert's region
        # of 32,760 points is not
        res = run_cli("hilbert", "--orders=3,-25,2,-1,1")
        assert res.returncode == 0, res.stderr
        assert "hilbert basis (92 elements):" in res.stdout

    def test_hilbert_region_over_the_cap_is_two(self):
        res = run_cli("hilbert", "--orders=1000,-1000,999,-998")
        assert res.returncode == 2
        assert res.stderr == (
            "error: canonical order vector (-1000, -998, 999, 1000) of order "
            "vector (1000, -1000, 999, -998): completeness region of "
            "251503253001 points exceeds the enumeration cap 10000000\n"
        )

    def test_hilbert_carries_the_canonical_basis_back(self, capsys):
        docs = []
        for orders in ("1000000,-1000000,1000000", "1,-1,1"):
            assert cli.main(["hilbert", f"--orders={orders}", "--json"]) == 0
            docs.append(json.loads(capsys.readouterr().out))
        assert docs[0]["hilbert"] == docs[1]["hilbert"]
        assert docs[0]["hilbert"]["elements"] == [[0, 0, 1], [0, 1, 1], [1, 0, 0], [1, 1, 0]]

    def test_hilbert_oracle_verify(self):
        # the cross-check is always on: the option is gone, and the JSON
        # carries the checked basis with no engines_agree key
        res = run_cli("hilbert", "--orders", "2,-3", "--oracle-verify", "--json")
        assert res.returncode == 2
        assert "unrecognized arguments" in res.stderr
        res = run_cli("hilbert", "--orders", "2,-3", "--json")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert "engines_agree" not in doc
        assert doc["hilbert"]["elements"] == [[1, 0], [2, 1], [3, 2]]

    def test_hilbert_engine_alias(self):
        # no engine is selectable any more, the enum alias included; the one
        # basis printed is the one both engines compute
        for engine in ("enum", "oracle", "frontier"):
            res = run_cli("hilbert", "--orders", "1,-1", "--engine", engine, "--json")
            assert res.returncode == 2
            assert "unrecognized arguments" in res.stderr
        res = run_cli("hilbert", "--orders", "1,-1", "--json")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert "engine" not in doc
        elements = [list(e) for e in conditions.hilbert_basis_oracle((1, -1)).elements]
        assert doc["hilbert"]["elements"] == elements
        frontier = conditions.hilbert_basis_frontier((1, -1)).elements
        assert doc["hilbert"]["elements"] == [list(e) for e in frontier]

    def test_factorize(self):
        res = run_cli(
            "factorize", "--orders", "2,-3", "--element", "4,2", "--json"
        )
        doc = json.loads(res.stdout)
        assert doc["count"] == 2
        assert len(doc["witnesses"]) == 2

    def test_catalog_list(self):
        res = run_cli("catalog", "list")
        doc = json.loads(res.stdout)
        assert len(doc["groups"]) == 12

    def test_catalog_show(self):
        res = run_cli("catalog", "show", "S4")
        doc = json.loads(res.stdout)
        assert doc["groups"][0]["degrees"] == [1, 1, 2, 3, 3]

    def test_catalog_show_unknown_is_two(self):
        assert run_cli("catalog", "show", "M11").returncode == 2

    @pytest.mark.parametrize(
        "argv, command",
        [(["catalog", "show", "NOPE"], "catalog"), (["sweep", "--group", "NOPE"], "sweep")],
    )
    def test_unknown_group_message(self, capsys, argv, command):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == f"artinhol {command}: error: no catalog group named 'NOPE'"

    def test_sweep_with_outputs(self, tmp_path):
        out = tmp_path / "records.jsonl"
        sj = tmp_path / "summary.json"
        csvp = tmp_path / "summary.csv"
        res = run_cli(
            "sweep",
            "--group",
            "S3",
            "--order-bound",
            "1",
            "--out",
            str(out),
            "--summary-json",
            str(sj),
            "--csv",
            str(csvp),
        )
        assert res.returncode == 0
        assert out.read_text().count("\n") == 27
        summary = json.loads(sj.read_text())
        assert summary["total"] == 27
        assert summary["counterexamples"] == []
        assert csvp.read_text().startswith("hilbert_size,count\n")
        # group label flows into the records
        first = json.loads(out.read_text().splitlines()[0])
        assert first["instance"]["labels"]["group"] == "S3"

    def test_sweep_synthetic_degrees(self, tmp_path):
        out = tmp_path / "records.jsonl"
        res = run_cli(
            "sweep", "--degrees", "2,3", "--order-bound", "1", "--out", str(out)
        )
        assert res.returncode == 0
        first = json.loads(out.read_text().splitlines()[0])
        assert first["instance"]["labels"]["group"] is None


class TestEnginesCrossChecked:
    """hilbert and factorize get their basis the way check and sweep do."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["hilbert", "--orders", "2,-3"],
            ["factorize", "--orders", "2,-3", "--element", "4,2"],
        ],
    )
    def test_engine_disagreement_exits_two(self, argv, monkeypatch, capsys):
        frontier = conditions.hilbert_basis_frontier

        def wrong(v):
            return HilbertBasis(frontier(v).elements[:-1], "frontier")

        monkeypatch.setattr(conditions, "hilbert_basis_frontier", wrong)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        # hilbert checks the canonical vector, as check does, and names both
        assert err.startswith({
            "hilbert": "error: canonical order vector (-3, 2) of order vector (2, -3): "
            "engines disagree for v=(-3, 2)",
            "factorize": "error: engines disagree for v=(2, -3)",
        }[argv[0]])


class TestDuplicateOutputs:
    @pytest.mark.parametrize(
        "first, second, name, spelling",
        [
            ("--out", "--summary-json", "x.jsonl", "x.jsonl"),
            ("--summary-json", "--csv", "y", "y"),
            ("--out", "--csv", "x", "./x"),
        ],
    )
    def test_two_outputs_on_one_file_exit_two(self, tmp_path, first, second, name, spelling):
        target = tmp_path / name
        target.write_text("previous\n")
        res = run_cli(
            "sweep", "--degrees", "1,1", "--order-bound", "1",
            first, str(target), second, f"{tmp_path}/{spelling}",
        )
        assert res.returncode == 2
        assert "name the same file" in res.stderr
        assert "Traceback" not in res.stderr
        assert target.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == [name]


def _readme_commands() -> list[list[str]]:
    """Every `artinhol ...` line of the README's sh blocks, continuations joined."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("artinhol "):
                commands.append(shlex.split(line)[1:])
    return commands


@pytest.mark.parametrize("argv", _readme_commands())
def test_readme_example_runs(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0


class TestUnwritableOutput:
    def test_csv_under_a_regular_file(self, tmp_path):
        out = tmp_path / "records.jsonl"
        summary = tmp_path / "summary.json"
        blocker = tmp_path / "not-a-dir"
        out.write_text("previous records\n")
        summary.write_text("previous summary\n")
        blocker.write_text("")
        res = run_cli(
            "sweep", "--degrees", "1", "--order-bound", "1", "--out", str(out),
            "--summary-json", str(summary), "--csv", str(blocker / "x.csv"),
        )
        assert res.returncode == 2
        assert res.stderr.startswith("error:")
        assert "Traceback" not in res.stderr
        assert summary.read_text() == "previous summary\n"
        assert out.read_text() == "previous records\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "not-a-dir",
            "records.jsonl",
            "summary.json",
        ]

    @pytest.mark.parametrize("flag", ["--out", "--summary-json", "--csv"])
    def test_directory_output_path_is_two_before_sweeping(
        self, flag, tmp_path, monkeypatch, capsys
    ):
        def fail(v):
            raise AssertionError(f"a basis was built for {v}")

        monkeypatch.setattr(conditions, "cross_checked_basis", fail)
        target = tmp_path / "outputs"
        target.mkdir()
        argv = ["sweep", "--degrees", "1,1", "--order-bound", "1", flag, str(target)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: output path {str(target)!r} is a directory\n"
        assert list(tmp_path.iterdir()) == [target]
        assert list(target.iterdir()) == []

    def test_missing_parent_directories_are_created(self, tmp_path):
        sj = tmp_path / "a" / "summary.json"
        csvp = tmp_path / "b" / "summary.csv"
        res = run_cli(
            "sweep", "--degrees", "1", "--order-bound", "1",
            "--summary-json", str(sj), "--csv", str(csvp),
        )
        assert res.returncode == 0
        assert json.loads(sj.read_text())["total"] == 3
        assert csvp.read_text().startswith("hilbert_size,count\n")
