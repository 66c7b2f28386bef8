"""CLI surface: commands, exit codes, golden bytes, the README's examples."""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import re
import runpy
import shlex
import signal
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

from artinhol import cli, conditions, hilbert_basis_frontier, hilbert_basis_oracle
from artinhol.hilbert import HilbertBasis
from conftest import child_env, run_artinhol

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"


def run_cli(*args, check=False):
    return run_artinhol(*args, capture_output=True, text=True, check=check)


def _pinned_digests() -> dict[str, str]:
    """The digest of each golden sweep artifact, by file name, from
    sweeps.sha256, which is in `sha256sum` format."""
    lines = (GOLDEN / "sweeps.sha256").read_text().splitlines()
    return {file_name: digest for digest, file_name in map(str.split, lines)}


def _sweep_artifacts(tmp_path, name, argv) -> dict[str, str]:
    """Run `sweep argv` writing the records, the summary and the CSV as
    name.jsonl, name.json and name.csv, and return each file's digest."""
    outputs = (("--out", "jsonl"), ("--summary-json", "json"), ("--csv", "csv"))
    paths = [tmp_path / f"{name}.{ext}" for _, ext in outputs]
    for (flag, _), path in zip(outputs, paths):
        argv = [*argv, flag, str(path)]
    assert cli.main(["sweep", *argv]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}


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
    @pytest.mark.parametrize("name", ["a4_b2", "d112_b3", "s5_b1", "d1_b2", "s3_b2_flags"])
    def test_sweep_artifact_digests(self, tmp_path, capsys, name, workers):
        # Any change to the bytes of the records, the summary or the CSV
        # shows up here.
        pinned = _pinned_digests()
        source = {
            "a4_b2": ["--group", "A4", "--order-bound", "2"],
            "d112_b3": ["--degrees", "1,1,2", "--order-bound", "3"],
            "s5_b1": ["--group", "S5", "--order-bound", "1"],  # rank 7: 42 pairs a record
            "d1_b2": ["--degrees", "1", "--order-bound", "2"],  # rank 1: one-entry arrays
            # Both flags away from their defaults: a record head other than the default one.
            "s3_b2_flags": [
                "--group", "S3", "--order-bound", "2",
                "--no-require-dedekind", "--require-trivial-nonneg",
            ],
        }[name]
        digests = _sweep_artifacts(tmp_path, name, [*source, "--workers", workers])
        capsys.readouterr()
        for file_name, digest in digests.items():
            assert digest == pinned[file_name], file_name


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

    def test_a_pair_table_over_the_cap_is_two_before_any_row(self, monkeypatch, capsys):
        # r(r-1) witnesses of r entries: r = 216 is the first rank past the
        # cap, refused before the basis or any pair row is built; r = 215
        # would print about 31 MB.
        def fail(*args):
            raise AssertionError(f"built for {args}")

        monkeypatch.setattr(conditions, "cross_checked_basis", fail)
        monkeypatch.setattr(conditions, "_pair_row", fail)
        start = time.perf_counter()
        argv = ["check", "--degrees", ",".join(["1"] * 216), "--orders", "0," * 215 + "-1"]
        assert cli.main(argv) == 2
        assert time.perf_counter() - start < 5
        assert capsys.readouterr() == (
            "",
            "error: pair table of 10031040 witness entries exceeds the enumeration cap 10000000\n",
        )

    def test_factorize_outside_hol_is_two(self):
        res = run_cli("factorize", "--orders", "1,-1", "--element", "0,1")
        assert res.returncode == 2
        assert "error" in res.stderr

    def test_factorize_outside_hol_builds_no_basis(self, monkeypatch, capsys):
        def fail(v):
            raise AssertionError(f"a basis was built for {v}")

        # orbit_basis looks the cross-check up in conditions' namespace.
        monkeypatch.setattr(conditions, "cross_checked_basis", fail)
        assert cli.main(["factorize", "--orders=200,-301", "--element", "0,1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not in Hol" in err

    def test_factorize_bad_cap_builds_no_basis(self, monkeypatch, capsys):
        def fail(v):
            raise AssertionError(f"a basis was built for {v}")

        monkeypatch.setattr(conditions, "cross_checked_basis", fail)
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
            ["catalog", "list", "S4"],
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
            res = run_artinhol(
                *argv,
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONUNBUFFERED=unbuffered),
            )
        finally:
            os.close(write_end)
        assert res.stderr == b""
        assert res.returncode == 141

    def test_an_interrupted_pooled_sweep_exits_130_quietly(self, tmp_path):
        # SIGINT to the whole process group, as a terminal's Ctrl-C sends
        # it, once the sweep writes records: the workers ignore it, and the
        # parent tears the pool down, prints one line and exits 130,
        # leaving no process of its group running and no temp file.
        out = tmp_path / "records.jsonl"
        argv = ["--group", "S5", "--order-bound", "2", "--workers", "2", "--out", str(out)]
        proc = subprocess.Popen(
            [sys.executable, "-m", "artinhol", "sweep", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env(),
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not any(tmp.stat().st_size for tmp in tmp_path.glob(".records.jsonl.*.tmp")):
                assert proc.poll() is None, "the sweep ended before it was interrupted"
                assert time.monotonic() < deadline
                time.sleep(0.01)
            os.killpg(proc.pid, signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert (proc.returncode, stdout, stderr) == (130, "", "interrupted\n")
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)


def _outcome(argv, capsys) -> tuple[int, str, str]:
    """cli.main's exit code, an argparse exit included, and its output."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


class TestVectorWithLeadingMinus:
    """`--orders -5,3` is read as `--orders=-5,3`: argparse alone takes a
    token that starts with '-' and is not one number for an option."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["hilbert", "--orders", "-5,3"],
            ["hilbert", "--orders", "-5,3", "--json"],
            ["hilbert", "--orders", "-5,x"],
            ["check", "--degrees", "1,1", "--orders", "-1,1"],
            ["check", "--degrees", "1,1", "--orders", "-1,1", "--json"],
            ["check", "--degrees", "-1,1", "--orders", "1,1"],
            ["factorize", "--orders", "-1,2", "--element", "2,1"],
            ["factorize", "--orders", "1,-1", "--element", "-1,0"],
            ["sweep", "--degrees", "-1,1", "--order-bound", "1"],
            # abbreviations argparse resolves to a vector option
            ["hilbert", "--ord", "-5,3"],
            ["hilbert", "--o", "-5,3", "--json"],
            ["factorize", "--ord", "-5,3", "--element", "1,1"],
            ["factorize", "--orders", "1,-1", "--el", "-1,0"],
            ["check", "--deg", "-1,1", "--o", "1,1"],
            ["sweep", "--d", "-1,1", "--order-bound", "1"],
        ],
    )
    def test_a_separate_token_reads_as_the_equals_form(self, argv, capsys):
        joined = []
        for tok in argv:
            if tok[:1] == "-" and tok[1:2].isdigit():
                joined[-1] += f"={tok}"
            else:
                joined.append(tok)
        assert joined != argv
        separate = _outcome(argv, capsys)
        assert separate == _outcome(joined, capsys)
        assert separate[0] in (0, 2)

    def test_the_program_reads_its_own_argv_the_same_way(self):
        separate = run_cli("hilbert", "--orders", "-5,3", "--json")
        assert separate.returncode == 0
        assert separate.stdout == run_cli("hilbert", "--orders=-5,3", "--json").stdout

    def test_an_option_in_place_of_the_vector_is_still_refused(self, capsys):
        code, out, err = _outcome(["hilbert", "--orders", "--json"], capsys)
        assert (code, out) == (2, "")
        assert "argument --orders: expected one argument" in err

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            # in sweep --ord is short for --order-bound, which takes -5 as
            # the one negative number it is, and refuses -5,3
            (["sweep", "--degrees", "1,1", "--ord", "-5"], 2, "error: order bound must be >= 1\n"),
            (["sweep", "--degrees", "1,1", "--ord", "-5,3"], 2, "expected one argument"),
            # hilbert has no --element
            (["hilbert", "--orders", "1,1", "--element", "-1,0"], 2, "unrecognized arguments"),
        ],
    )
    def test_other_options_are_not_joined(self, argv, code, err, capsys):
        got = _outcome(argv, capsys)
        assert got[:2] == (code, "") and err in got[2]
        assert cli._join_negative_vectors(argv) == argv

    def test_each_subcommand_joins_its_own_vector_options(self, capsys):
        # A subcommand's help lists its options; the vector options among
        # them are the ones joined there.
        for command in ("check", "hilbert", "factorize", "sweep", "catalog"):
            code, out, _ = _outcome([command, "--help"], capsys)
            assert code == 0
            listed = set(re.findall(r"--[\w-]+", out)) & set(cli._VECTOR_OPTIONS)
            joined = {
                name for name in cli._VECTOR_OPTIONS
                if cli._join_negative_vectors([command, name, "-1"]) == [command, f"{name}=-1"]
            }
            assert joined == listed, command

    def test_the_joined_options_are_the_vector_options(self):
        source = Path(cli.__file__).read_text(encoding="utf-8")
        typed = set(re.findall(r'add_argument\("(--[\w-]+)", type=_int_vector', source))
        assert typed == set(cli._VECTOR_OPTIONS)


# Block-buffered stdout, as a child has it by default, whatever this
# process's environment says: os._exit would drop what it holds.
BUFFERED = dict(os.environ, PYTHONUNBUFFERED="")


def _run_python(script: str, *args: str) -> subprocess.CompletedProcess:
    """`python -c script args` in a child process that imports this
    checkout, with stdout block-buffered."""
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=child_env(BUFFERED),
        timeout=120,
    )


class TestExitPath:
    """`python -m artinhol` and the installed script end through cli.run,
    which flushes stdout and stderr and leaves through os._exit: the bytes
    and exit codes are main's, and nothing main leaves behind needs the
    interpreter's teardown."""

    RANK_40 = [
        "check", "--degrees", ",".join(["1"] * 40), "--orders=" + ",".join(["0"] * 39 + ["-1"]),
    ]

    @pytest.mark.parametrize("sink", ["pipe", "file"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["catalog", "list"],
            ["sweep", "--group", "S4", "--order-bound", "1"],
            RANK_40,  # about 220 KB, more than a pipe holds
        ],
        ids=["catalog", "sweep", "check-rank-40"],
    )
    def test_a_child_prints_the_bytes_main_prints(self, argv, sink, tmp_path, capsys):
        code = cli.main(argv)
        expected = capsys.readouterr().out.encode()
        if sink == "pipe":
            # subprocess.run reads the pipe to its end.
            res = run_artinhol(*argv, env=BUFFERED, stdout=subprocess.PIPE, timeout=120)
            got = res.stdout
        else:
            with open(tmp_path / "stdout", "wb") as fh:
                res = run_artinhol(*argv, env=BUFFERED, stdout=fh, timeout=120)
            got = (tmp_path / "stdout").read_bytes()
        assert res.returncode == code
        # Only the sweep's own timing may differ.
        wall_time = re.compile(rb"^wall time: \d+\.\d\ds$", re.M)
        masked, count = wall_time.subn(b"wall time", got)
        assert count == (argv[0] == "sweep")
        assert masked == wall_time.sub(b"wall time", expected)

    @pytest.mark.parametrize(
        "raised, code, stderr",
        [
            ("ArtinHolError('late failure')", 2, "error: late failure\n"),
            ("KeyboardInterrupt", 130, "interrupted\n"),
        ],
    )
    def test_output_printed_before_a_failure_is_kept(self, raised, code, stderr):
        # stdout on a pipe is block-buffered: the line is flushed on the
        # error paths too, or os._exit would drop it.
        script = (
            "from artinhol import cli\n"
            "from artinhol.errors import ArtinHolError\n"
            "def fail(args, parser):\n"
            "    print('partial')\n"
            f"    raise {raised}\n"
            "cli._cmd_catalog = fail\n"
            "cli.run()\n"
        )
        res = _run_python(script, "catalog", "list")
        assert (res.returncode, res.stdout, res.stderr) == (code, "partial\n", stderr)

    def test_an_exception_escaping_main_prints_its_traceback_and_exits_1(self):
        script = (
            "from artinhol import cli\n"
            "def fail(argv=None):\n"
            "    print('partial')\n"
            "    raise RuntimeError('escaped main')\n"
            "cli.main = fail\n"
            "cli.run()\n"
        )
        res = _run_python(script)
        assert res.returncode == 1
        assert res.stdout == "partial\n"
        assert res.stderr.startswith("Traceback (most recent call last):\n")
        assert res.stderr.endswith("RuntimeError: escaped main\n")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_a_gone_reader_exits_141_and_leaves_no_descriptor_open(self, monkeypatch):
        read_end, write_end = os.pipe()
        os.close(read_end)
        stdout = open(write_end, "w")
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            before = len(os.listdir("/proc/self/fd"))
            assert cli.main(["catalog", "list"]) == 141
            assert len(os.listdir("/proc/self/fd")) == before
        finally:
            stdout.close()  # its descriptor now names /dev/null

    def test_the_module_and_the_installed_script_name_the_same_entry(self, monkeypatch):
        text = (README.parent / "pyproject.toml").read_text()
        if sys.version_info >= (3, 11):
            import tomllib

            entry = tomllib.loads(text)["project"]["scripts"]["artinhol"]
        else:
            entry = re.search(r'^artinhol = "(.+)"$', text, re.M).group(1)
        module, _, name = entry.partition(":")
        script_entry = getattr(importlib.import_module(module), name)
        calls = []
        entry_of_main = cli.run
        monkeypatch.setattr(cli, "run", lambda: calls.append("run"))
        runpy.run_module("artinhol", run_name="__main__")
        assert calls == ["run"]
        assert script_entry is entry_of_main

    def test_no_import_or_command_registers_an_atexit_hook_or_leaves_a_thread(self, tmp_path):
        # os._exit runs no atexit hook and waits for no thread: a change
        # that adds either must end the process another way.
        script = (
            "import atexit, sys, threading\n"
            "hooks = atexit._ncallbacks()\n"
            "from artinhol import cli, sweep\n"
            "assert atexit._ncallbacks() == hooks, 'import artinhol'\n"
            "sweep._usable_cpus = lambda: 2\n"
            "outputs = [f'--{flag}={sys.argv[1]}/{flag}' for flag in ('out', 'summary-json', 'csv')]\n"
            "sweep_argv = ['sweep', '--degrees', '1,1,2', '--order-bound', '4', *outputs]\n"
            "for argv in (\n"
            "    ['check', '--degrees', '1,1,2', '--orders', '1,-1,0'],\n"
            "    ['hilbert', '--orders=2,-3'],\n"
            "    ['factorize', '--orders=2,-3', '--element', '4,2'],\n"
            "    ['catalog', 'list'],\n"
            "    ['catalog', 'show', 'S4'],\n"
            "    sweep_argv,\n"
            "    [*sweep_argv, '--workers', '2'],\n"
            "):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    assert atexit._ncallbacks() == hooks, argv\n"
            "    assert threading.active_count() == 1, argv\n"
        )
        res = _run_python(script, str(tmp_path))
        assert res.returncode == 0, res.stderr


class TestCommands:
    def test_check_human_output(self):
        res = run_cli("check", "--degrees", "1,1", "--orders", "1,-1")
        assert res.returncode == 0
        assert "factorial: True" in res.stdout
        assert "equivalence" in res.stdout

    def test_check_carries_the_canonical_basis_back(self, capsys):
        # Hol(10^6, -10^6, 10^6) = Hol(1, -1, 1)
        docs = []
        for orders in ("1000000,-1000000,1000000", "1,-1,1"):
            assert cli.main(["check", "--degrees", "1,1,1", f"--orders={orders}", "--json"]) == 0
            docs.append(json.loads(capsys.readouterr().out))
        assert docs[0]["hilbert"] == docs[1]["hilbert"]
        assert docs[0]["hilbert"]["elements"] == [[0, 0, 1], [0, 1, 1], [1, 0, 0], [1, 1, 0]]

    def test_factorize_under_the_search_bound_answers(self, capsys):
        # Over (1, 0), (1, 1) with the orders 1, -1, (N, M) keeps at most 2
        # states: (1, 1) has order 0, so at its position the order 0 fixes
        # rem_1 by rem_2.  Over (1, 0), (1, 1), (1, 2) with the orders
        # 2, -1, (N, N) reaches the cap of 2 factorizations within a few
        # thousand steps, though the reference bound on its search is about
        # 1.5 N^2.
        for orders, element, count, witnesses in (
            ("1,-1", "200,200", 1, [[0, 200]]),
            ("1,-1", "100000,0", 1, [[100000, 0]]),
            ("1,-1", "3000,3000", 1, [[0, 3000]]),
            ("1,-1", "10000,10000", 1, [[0, 10000]]),
            ("2,-1", "3000,3000", 2, [[1500, 0, 1500], [1499, 2, 1499]]),
            ("2,-1", "10000,10000", 2, [[5000, 0, 5000], [4999, 2, 4999]]),
        ):
            argv = ["factorize", f"--orders={orders}", f"--element={element}", "--json"]
            assert cli.main(argv) == 0
            doc = json.loads(capsys.readouterr().out)
            assert (doc["count"], doc["witnesses"]) == (count, witnesses)

    def test_factorize_over_2000_zero_orders_answers(self, capsys):
        # The basis is the 2,000 unit vectors: the search descends through
        # every one of them, past the recursion limit, and the tables hold
        # one dead mask of 2,000 fields per position.
        zeros, ones = ",".join(["0"] * 2000), ",".join(["1"] * 2000)
        assert cli.main(["factorize", f"--orders={zeros}", f"--element={ones}"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"element [{ones.replace(',', ', ')}] factors 1 way(s) (cap 2)\n")
        assert out.count("\n") == 2

    def test_factorize_over_the_search_bound_is_two(self, capsys):
        # Over (1, 0), (1, 1) with the orders 1, -1, (N, N) tries N copies
        # of (1, 1), and the multiplicity loop stops at the steps left.
        argv = ["factorize", "--orders=1,-1", "--element=99999999999,99999999999"]
        start = time.perf_counter()
        assert cli.main(argv) == 2
        assert time.perf_counter() - start < 5
        assert capsys.readouterr().err == (
            "error: factorization search of (99999999999, 99999999999) took more than "
            "10000000 steps, the enumeration cap\n"
        )

    def test_factorize_over_the_state_cap_is_two(self, capsys):
        # Over (1, 0), (1, 1), (1, 2) with the orders 2, -1, (1, 1) has order
        # 1, so the states at its position are not pruned: (N, 0) visits
        # N + 1 states, itself and each (j, 0), j >= 1, at that position,
        # one more than the state cap holds for N = 10^6.
        argv = ["factorize", "--orders=2,-1", "--element=1000000,0"]
        start = time.perf_counter()
        assert cli.main(argv) == 2
        assert time.perf_counter() - start < 5
        assert capsys.readouterr().err == (
            "error: factorization search of (1000000, 0) kept more than 1000000 states, "
            "the state cap\n"
        )

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

    def test_hilbert_zero_orders_add_only_their_units(self, capsys):
        # each of the 29 zero orders adds its unit vector to the basis, not
        # a factor 2 to the region the oracle walks
        v = (1,) + (0,) * 29 + (-1,)
        units = [[int(i == j) for i in range(31)] for j in range(30)]
        expect = sorted(units + [[1] + [0] * 29 + [1]])
        assert cli.main(["hilbert", "--orders=" + ",".join(map(str, v)), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["hilbert"]["elements"] == expect
        for engine in (hilbert_basis_oracle, hilbert_basis_frontier):
            assert [list(h) for h in engine(v).elements] == expect

    def test_hilbert_carries_the_canonical_basis_back(self, capsys):
        docs = []
        for orders in ("1000000,-1000000,1000000", "1,-1,1"):
            assert cli.main(["hilbert", f"--orders={orders}", "--json"]) == 0
            docs.append(json.loads(capsys.readouterr().out))
        assert docs[0]["hilbert"] == docs[1]["hilbert"]
        assert docs[0]["hilbert"]["elements"] == [[0, 0, 1], [0, 1, 1], [1, 0, 0], [1, 1, 0]]

    def test_factorize_carries_the_canonical_basis_back(self, capsys):
        docs = []
        for orders in ("1000000,-1000000,1000000", "1,-1,1"):
            argv = ["factorize", f"--orders={orders}", "--element=1,1,1", "--json"]
            assert cli.main(argv) == 0
            docs.append(json.loads(capsys.readouterr().out))
        assert docs[0]["basis"] == [[0, 0, 1], [0, 1, 1], [1, 0, 0], [1, 1, 0]]
        del docs[0]["orders"], docs[1]["orders"]
        assert docs[0] == docs[1]
        assert (docs[0]["count"], docs[0]["witnesses"]) == (2, [[1, 0, 0, 1], [0, 1, 1, 0]])

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
    """hilbert and factorize get their basis the way check does, and sweep
    cross-checks every support of its type table the same way."""

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
        # both check the canonical vector, as check does, and name both
        assert err.startswith(
            "error: canonical order vector (-3, 2) of order vector (2, -3): "
            "engines disagree for v=(-3, 2)"
        )

    def test_a_sweep_names_the_table_support_and_bound(self, monkeypatch, capsys):
        frontier = conditions.hilbert_basis_frontier

        def wrong(v):
            basis = frontier(v)
            return HilbertBasis(basis.elements[:-1], "frontier") if v.entries == (-3, 2) else basis

        monkeypatch.setattr(conditions, "hilbert_basis_frontier", wrong)
        assert cli.main(["sweep", "--degrees", "1,1", "--order-bound", "3"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: table support (-3, 2) of order bound 3: engines disagree for v=(-3, 2)"
        )


def test_a_rank_1_sweep_runs_no_engine(tmp_path, monkeypatch, capsys):
    # A rank 1 table has no support: every basis is e_1 or empty, by the
    # unit lemma.  So no engine runs at B=1000, and the B=2 sweep keeps
    # its golden bytes.
    calls = []
    for name in ("hilbert_basis_oracle", "hilbert_basis_frontier"):
        engine = getattr(conditions, name)
        monkeypatch.setattr(conditions, name, lambda v, e=engine: calls.append(v) or e(v))
    assert cli.main(["sweep", "--degrees", "1", "--order-bound", "1000"]) == 0
    digests = _sweep_artifacts(tmp_path, "d1_b2", ["--degrees", "1", "--order-bound", "2"])
    capsys.readouterr()
    pinned = _pinned_digests()
    assert digests == {file_name: pinned[file_name] for file_name in digests}
    assert calls == []


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

    @pytest.mark.parametrize("exists", [False, True])
    def test_a_symlink_and_its_target_exit_two(self, tmp_path, exists):
        target = tmp_path / "summary.csv"
        if exists:
            target.write_text("previous\n")
        link = tmp_path / "link"
        link.symlink_to(target)
        res = run_cli(
            "sweep", "--degrees", "1,1", "--order-bound", "1",
            "--out", str(link), "--csv", str(target),
        )
        assert res.returncode == 2
        assert "--out and --csv name the same file" in res.stderr
        assert "Traceback" not in res.stderr
        assert link.is_symlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link"] + ["summary.csv"] * exists
        if exists:
            assert target.read_text() == "previous\n"


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

    @pytest.mark.parametrize("flag", ["--out", "--summary-json", "--csv"])
    @pytest.mark.parametrize("name", ["existing", "new/absent"])
    def test_output_path_ending_in_a_separator_is_two_before_sweeping(
        self, flag, name, tmp_path, monkeypatch, capsys
    ):
        # open() refuses such a name, so it must not replace the existing
        # file that realpath would resolve it to, nor make one or a directory.
        def fail(v):
            raise AssertionError(f"a basis was built for {v}")

        monkeypatch.setattr(conditions, "cross_checked_basis", fail)
        existing = tmp_path / "existing"
        existing.write_bytes(b"previous output\n")
        path = f"{tmp_path / name}{os.sep}"
        argv = ["sweep", "--degrees", "1,1", "--order-bound", "1", flag, path]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: output path {path!r} ends in a path separator\n"
        )
        assert existing.read_bytes() == b"previous output\n"
        assert list(tmp_path.iterdir()) == [existing]

    @pytest.mark.parametrize("flag", ["--out", "--summary-json", "--csv"])
    def test_symlinked_output_path_replaces_the_file_it_names(self, flag, tmp_path, capsys):
        target = tmp_path / "real" / "output"
        target.parent.mkdir()
        target.write_text("previous output\n")
        link = tmp_path / "link"
        link.symlink_to(target)
        plain = tmp_path / "plain"
        for path in (link, plain):
            assert cli.main(["sweep", "--degrees", "1", "--order-bound", "1", flag, str(path)]) == 0
        capsys.readouterr()
        assert link.is_symlink()
        assert os.readlink(link) == str(target)
        assert target.read_bytes() == plain.read_bytes()
        assert list(target.parent.iterdir()) == [target]

    @pytest.mark.parametrize("flag", ["--out", "--summary-json", "--csv"])
    @pytest.mark.parametrize("via_link", [False, True])
    def test_fifo_output_path_is_two_before_sweeping(
        self, flag, via_link, tmp_path, monkeypatch, capsys
    ):
        def fail(v):
            raise AssertionError(f"a basis was built for {v}")

        monkeypatch.setattr(conditions, "cross_checked_basis", fail)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        target = fifo
        if via_link:
            target = tmp_path / "link"
            target.symlink_to(fifo)
        argv = ["sweep", "--degrees", "1,1", "--order-bound", "1", flag, str(target)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: output path {str(target)!r} is not a regular file\n"
        )
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(tmp_path.iterdir()) == sorted({fifo, target})

    @pytest.mark.parametrize("flag", ["--out", "--summary-json", "--csv"])
    def test_stdout_on_a_pipe_is_two_before_sweeping(self, flag):
        # /dev/stdout names the child's pipe through a link that realpath
        # reads as a name that does not exist, so the path itself is
        # checked, the way open() would follow it.
        res = run_cli("sweep", "--degrees", "1,1", "--order-bound", "1", flag, "/dev/stdout")
        assert res.returncode == 2
        assert res.stderr == "error: output path '/dev/stdout' is not a regular file\n"
        assert res.stdout == ""

    @pytest.mark.parametrize("refused", ["--out", "--summary-json", "--csv"])
    @pytest.mark.parametrize("kind", ["fifo", "directory"])
    def test_refused_output_path_creates_no_directory(self, refused, kind, tmp_path, capsys):
        # Every output path is checked before any output makes its parent
        # directories, so a refused one leaves nothing behind.
        bad = tmp_path / kind
        if kind == "fifo":
            os.mkfifo(bad)
        else:
            bad.mkdir()
        argv = ["sweep", "--degrees", "1,1", "--order-bound", "1"]
        for flag in ("--out", "--summary-json", "--csv"):
            argv += [flag, str(bad if flag == refused else tmp_path / flag[2:] / "file")]
        assert cli.main(argv) == 2
        reason = "is a directory" if kind == "directory" else "is not a regular file"
        assert capsys.readouterr().err == f"error: output path {str(bad)!r} {reason}\n"
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--degrees", "1,1,1,1,1,1,1,1,1,1", "--order-bound", "3"],
             "sweep of 10 x 282475249 = 2824752490 entries exceeds cap 10000000"),
            (["--degrees", "1,1", "--order-bound", "0"], "order bound must be >= 1"),
            (["--degrees", "1,1", "--workers", "0"], "worker count must be >= 1"),
            (["--degrees", "1,0"], "degrees must be >= 1, got 0"),
        ],
    )
    def test_refused_sweep_creates_no_directory(self, args, message, tmp_path, capsys):
        # The plan refuses the sweep before any output makes its parent
        # directories, so a refused sweep leaves nothing behind.
        argv = ["sweep", *args]
        for flag in ("--out", "--summary-json", "--csv"):
            argv += [flag, str(tmp_path / flag[2:] / "file")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

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
