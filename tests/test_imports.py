"""The package's import graph: no cycle at module level, no import in a function.

Reads the sources with ast, so nothing is imported.  An import under
`if TYPE_CHECKING:` serves annotations only and is left out of the graph.
The two exceptions run the package in a fresh interpreter, to show that
multiprocessing is loaded only for a pool, and dataclasses and inspect
never, and that a pooled sweep runs in one thread of its process and
loads neither multiprocessing.pool nor queue.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

from conftest import child_env

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "artinhol"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


def _targets(node: ast.ImportFrom) -> set[str]:
    """Package modules a relative `from . import x` or `from .x import y` names."""
    if node.level == 0:
        return set()
    if node.module is not None:
        return {node.module.split(".")[0]}
    return {alias.name for alias in node.names if alias.name in MODULES}


def _is_type_checking(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test)


def _module_level_edges(tree: ast.Module) -> set[str]:
    out: set[str] = set()
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.ImportFrom):
            out |= _targets(node)
        elif isinstance(node, (ast.If, ast.Try)) and not _is_type_checking(node):
            todo += [child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)]
    return out


def test_module_level_imports_form_no_cycle():
    graph = {name: _module_level_edges(tree) for name, tree in MODULES.items()}
    assert graph["sweep"] >= {"serialize", "hilbert"}
    state: dict[str, str] = {}

    def visit(name: str, path: list[str]) -> None:
        state[name] = "open"
        for dep in sorted(graph[name]):
            assert state.get(dep) != "open", f"import cycle: {' -> '.join(path + [dep])}"
            if dep not in state:
                visit(dep, path + [dep])
        state[name] = "done"

    for name in sorted(graph):
        if name not in state:
            visit(name, [name])


def _imports_from_the_package(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "artinhol"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "artinhol" for alias in node.names)
    return False


def test_no_function_imports_from_the_package():
    found = [
        f"{name}.{fn.name}"
        for name, tree in MODULES.items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_imports_from_the_package(node) for node in ast.walk(fn))
    ]
    assert found == []


def test_no_module_imports_dataclasses():
    # The value types build on core._Value; dataclasses would load inspect,
    # ast, dis and tokenize into every run.
    found = [
        name
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
        or (
            isinstance(node, ast.Import)
            and any(alias.name == "dataclasses" for alias in node.names)
        )
    ]
    assert found == []


def test_no_function_calls_itself():
    # Recursion would tie the depth of a search to the recursion limit;
    # every deep walk in the package keeps its own stack instead.
    found = [
        f"{name}.{fn.name}"
        for name, tree in MODULES.items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            isinstance(node, ast.Call)
            and ast.unparse(node.func) in {fn.name, f"self.{fn.name}", f"cls.{fn.name}"}
            for node in ast.walk(fn)
        )
    ]
    assert found == []


def test_only_conditions_carries_a_basis_back():
    # Every report gets its basis through conditions.orbit_basis, the one
    # place where a canonical vector's basis is carried back.
    importers = {
        name
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and any(a.name == "_carried" for a in node.names)
    }
    callers = {
        name
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and "_carried" in {
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        }
    }
    assert importers == callers == {"conditions"}


def test_only_conditions_canonicalizes():
    # The orbit map belongs to conditions: a sweep reaches it through
    # canonical_basis and orbit_basis.  A module that imports, names or
    # calls canonical_order uses it.
    users = {
        name
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if "canonical_order"
        in {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}
        and not isinstance(node, ast.FunctionDef)
    }
    assert users == {"conditions"}


def test_only_the_task_stream_computes_a_sweeps_bases():
    # Every sweep, serial or pooled, gets its bases from the task stream:
    # within sweep, only _chunk_tasks calls canonical_basis.
    callers = {
        fn.name
        for fn in ast.walk(MODULES["sweep"])
        if isinstance(fn, ast.FunctionDef)
        and any(
            isinstance(node, ast.Call)
            and "canonical_basis"
            in {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
            for node in ast.walk(fn)
        )
    }
    assert callers == {"_chunk_tasks"}


def test_one_reduction_for_both_hilbert_engines():
    # Both engines search the nonzero orders of v / gcd(v) that
    # hilbert._nonzero_part returns and carry back through hilbert._embed;
    # no other function divides by a gcd.
    calls = {
        fn.name: {ast.unparse(node.func) for node in ast.walk(fn) if isinstance(node, ast.Call)}
        for fn in ast.walk(MODULES["hilbert"])
        if isinstance(fn, ast.FunctionDef)
    }
    assert {name for name, called in calls.items() if called & {"math.gcd", "gcd"}} == {
        "canonical_order",
        "_nonzero_part",
    }
    for engine in ("hilbert_basis_oracle", "hilbert_basis_frontier"):
        assert {"_nonzero_part", "_embed"} <= calls[engine], engine


def test_multiprocessing_is_imported_only_for_a_pool():
    # sweep.Pool imports multiprocessing when a sweep starts a pool, so
    # importing the package and running a serial sweep never load it; and
    # no run loads dataclasses or the inspect it imports.
    script = (
        "import sys, artinhol\n"
        "def unloaded(*names):\n"
        "    return not set(names) & sys.modules.keys()\n"
        "assert unloaded('multiprocessing', 'dataclasses', 'inspect'), 'import artinhol'\n"
        "from artinhol import cli\n"
        "assert cli.main(['sweep', '--degrees', '1,1,2', '--order-bound', '4']) == 0\n"
        "assert unloaded('multiprocessing', 'dataclasses', 'inspect'), 'serial sweep'\n"
        "assert cli.main(['check', '--degrees', '1,1,2', '--orders', '1,-1,0']) == 0\n"
        "assert unloaded('dataclasses', 'inspect'), 'check'\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )
    assert res.returncode == 0, res.stderr


def test_a_pooled_sweep_starts_no_thread_and_loads_no_stdlib_pool(tmp_path):
    # sweep.Pool feeds its workers from the caller's thread, one pipe each:
    # the parent runs one thread while it writes, and neither
    # multiprocessing.pool nor the queue module it uses is loaded.
    script = (
        "import sys, threading\n"
        "from artinhol import cli, sweep\n"
        "sweep._usable_cpus = lambda: 2\n"
        "add, threads = sweep.SweepSummary.__add__, []\n"
        "def counted(self, other):\n"
        "    threads.append(threading.active_count())\n"
        "    return add(self, other)\n"
        "sweep.SweepSummary.__add__ = counted\n"
        "argv = ['sweep', '--degrees', '1,1,2', '--order-bound', '4', '--workers', '2']\n"
        "assert cli.main([*argv, '--out', sys.argv[1]]) == 0\n"
        "assert 'multiprocessing' in sys.modules, 'no pool started'\n"
        "assert not {'multiprocessing.pool', 'queue'} & sys.modules.keys(), 'pooled sweep'\n"
        "assert threads == [1, 1, 1], threads\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "records.jsonl")],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
