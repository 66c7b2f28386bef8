"""CLI surface via subprocess: commands, exit codes, golden bytes."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"


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


class TestCommands:
    def test_check_human_output(self):
        res = run_cli("check", "--degrees", "1,1", "--orders", "1,-1")
        assert res.returncode == 0
        assert "factorial: True" in res.stdout
        assert "equivalence" in res.stdout

    def test_hilbert_oracle_verify(self):
        res = run_cli("hilbert", "--orders", "2,-3", "--oracle-verify", "--json")
        doc = json.loads(res.stdout)
        assert doc["engines_agree"] is True
        assert doc["hilbert"]["elements"] == [[1, 0], [2, 1], [3, 2]]

    def test_hilbert_engine_alias(self):
        a = run_cli("hilbert", "--orders", "1,-1", "--engine", "enum", "--json")
        b = run_cli("hilbert", "--orders", "1,-1", "--engine", "oracle", "--json")
        c = run_cli("hilbert", "--orders", "1,-1", "--engine", "frontier", "--json")
        assert json.loads(a.stdout)["engine"] == "oracle"
        assert a.stdout == b.stdout
        assert (
            json.loads(c.stdout)["hilbert"]["elements"]
            == json.loads(a.stdout)["hilbert"]["elements"]
        )

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
