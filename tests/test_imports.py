"""The package's import graph: no cycle at module level, no import in a function.

Reads the sources with ast, so nothing is imported.  An import under
`if TYPE_CHECKING:` serves annotations only and is left out of the graph.
The package's one deferred import is the `importlib.import_module` in
`__init__.__getattr__`, which loads a public name's home module on first
access; no module imports the package namespace, so that lookup takes no
part in any import cycle.  The exceptions run the package in a fresh
interpreter: to pin what importing the package, or one module of it,
loads; to show that no run loads multiprocessing, dataclasses or inspect;
and that a pooled sweep runs in one thread of its process, its chunks
checked in worker processes, and loads neither multiprocessing.pool nor
queue.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import artinhol
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
    assert graph["sweep"] >= {"serialize", "conditions"}
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


def test_only_the_package_defines_a_module_getattr():
    found = {
        name
        for name, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
    }
    assert found == {"__init__"}


def _imports_the_namespace(node: ast.AST) -> bool:
    """`import artinhol...`, `from artinhol import x`, or `from . import x`
    for an x that is not a module of the package."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "artinhol" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            return node.module == "artinhol"
        return node.module is None and any(alias.name not in MODULES for alias in node.names)
    return False


def test_no_module_imports_the_package_namespace():
    # The namespace loads a module on first access to one of its names; a
    # module that took a name from it could close an import cycle.
    for text in ("import artinhol", "import artinhol.core", "from artinhol import cli"):
        assert _imports_the_namespace(ast.parse(text).body[0]), text
    assert _imports_the_namespace(ast.parse("from . import cond_i").body[0])
    assert not _imports_the_namespace(ast.parse("from . import serialize").body[0])
    found = [
        f"{name}:{node.lineno}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if _imports_the_namespace(node)
    ]
    assert found == []


def _run_fresh(script: str, *args: str) -> str:
    """Run `script` with `args` in a fresh interpreter that imports this
    checkout, and return its stdout."""
    res = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    return res.stdout


def _modules_loaded_by(statement: str) -> list[str]:
    script = f"import sys\nbefore = set(sys.modules)\n{statement}\nprint(*sorted(set(sys.modules) - before))"
    return _run_fresh(script).split()


def _own(modules: list[str]) -> list[str]:
    return [name for name in modules if name.split(".")[0] == "artinhol"]


def test_importing_the_package_loads_none_of_its_modules():
    assert _own(_modules_loaded_by("import artinhol")) == ["artinhol"]


def test_importing_hilbert_loads_only_what_hilbert_imports():
    # The library workload's whole import: no catalog, conditions, sweep,
    # serialize, nor the json that serialize loads.
    loaded = _modules_loaded_by("import artinhol.hilbert")
    assert _own(loaded) == ["artinhol", "artinhol.core", "artinhol.errors", "artinhol.hilbert"]
    assert "json" not in loaded


# The public namespace, each name by the module that defines it.
PUBLIC = {
    "catalog": ["GroupEntry", "catalog_groups", "get_group", "validate_catalog_entry"],
    "conditions": [
        "ConditionReport", "PairWitness", "SubsetSelector", "check_instance", "cond_i",
        "cond_ii", "cond_ii_pair", "cond_ii_prime", "cond_iii", "cond_iii_subset",
        "factorial_closed_form",
    ],
    "core": [
        "DegreeVector", "Instance", "OrderVector", "is_admissible", "is_member_hol",
        "order_of", "validate_exponent_vector",
    ],
    "hilbert": [
        "FactorizationCount", "HilbertBasis", "count_factorizations",
        "hilbert_basis_frontier", "hilbert_basis_oracle", "nonuniqueness_witness",
    ],
    "sweep": [
        "SweepPlan", "SweepSummary", "enumerate_order_vectors", "run_sweep", "summarize",
        "sweep_reports",
    ],
}


@pytest.mark.parametrize("access", ["getattr", "star"])
def test_every_public_name_resolves_to_its_home_modules_object(access):
    # Each in a fresh interpreter, so the name is resolved by the package's
    # __getattr__, then kept in its globals.
    script = (
        "import json, sys, artinhol\n"
        "names = [n for n in artinhol.__all__ if n != '__version__']\n"
        "if sys.argv[1] == 'star':\n"
        "    found = {}\n"
        "    exec('from artinhol import *', found)\n"
        "else:\n"
        "    found = {name: getattr(artinhol, name) for name in names}\n"
        "homes = {}\n"
        "for name in names:\n"
        "    obj = found[name]\n"
        "    assert getattr(sys.modules[obj.__module__], name) is obj, name\n"
        "    assert vars(artinhol)[name] is obj, name\n"
        "    homes.setdefault(obj.__module__.split('.')[1], []).append(name)\n"
        "print(json.dumps([artinhol.__all__, artinhol.__version__, homes]))\n"
    )
    out = _run_fresh(script, access)
    exported, version, homes = json.loads(out)
    assert exported == sorted(name for names in PUBLIC.values() for name in names) + ["__version__"]
    assert version == "0.1.0"
    assert homes == PUBLIC


def test_dir_lists_every_public_name():
    assert set(artinhol.__all__) <= set(dir(artinhol))


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        artinhol.no_such_name  # noqa: B018
    assert "no_such_name" not in vars(artinhol)


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


def _users(names: set[str]) -> set[str]:
    """Modules that define, import, name or call one of `names`."""
    return {
        name
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if names
        & {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}
    }


def test_only_conditions_carries_a_basis_back():
    # Every report gets its basis through conditions.orbit_basis, the one
    # place where a canonical vector's basis is carried back.
    assert _users({"_carried", "_carrier"}) == {"conditions"}


def test_only_conditions_canonicalizes():
    # The orbit map belongs to conditions: a sweep reaches it through
    # check_instance's orbit_basis, in the process that checks the vector.
    assert _users({"canonical_order"}) == {"conditions"}


def test_every_per_process_cache_is_bounded_by_core_cache_size():
    # One constant sizes every cache a process keeps: each lru_cache takes
    # core.CACHE_SIZE as its maxsize, and serialize's row texts drop the
    # oldest entry once they hold that many.
    sizes = {
        f"{name}.{target.id}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.endswith("CACHE_SIZE")
    }
    assert sizes == {"core.CACHE_SIZE"}
    caches = {
        f"{name}.{fn.name}": ast.unparse(decorator)
        for name, tree in MODULES.items()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for decorator in fn.decorator_list
        if "cache" in ast.unparse(decorator)
    }
    assert caches == dict.fromkeys(
        [
            "conditions._pair_row",
            "conditions._arrangements",
            "conditions._table_basis",
            "conditions._carrier",
            "serialize._instance_texts",
            "serialize._vector_text",
            "serialize._reasons_text",
        ],
        "functools.lru_cache(maxsize=CACHE_SIZE)",
    )
    compared = [ast.unparse(node) for node in ast.walk(MODULES["serialize"])]
    assert "len(_ROW_TEXTS) >= CACHE_SIZE" in compared


def _calls(module: str) -> dict[str, set[str]]:
    """The names each function of `module` calls, by function name."""
    return {
        fn.name: {ast.unparse(node.func) for node in ast.walk(fn) if isinstance(node, ast.Call)}
        for fn in ast.walk(MODULES[module])
        if isinstance(fn, ast.FunctionDef)
    }


def _callers_of(name: str) -> list[tuple[str, str]]:
    """(module, function) of each call of `name`, or of an attribute
    `name`, in the package, by the innermost function around the call
    ("" at module level), sorted."""
    found = []
    for module, tree in MODULES.items():
        stack = [(tree, "")]
        while stack:
            node, fn = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = node.name
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == name:
                found.append((module, fn))
            stack.extend((child, fn) for child in ast.iter_child_nodes(node))
    return sorted(found)


def test_a_sweep_builds_no_object_per_record():
    # A sweep's chunks work from plain verdict values (sweep._run_chunk):
    # in sweep.py only sweep_reports, the reference slow path, builds an
    # Instance, nothing builds an OrderVector or a ConditionReport, and
    # only unpickling restores a value; check_instance is the package's
    # one caller of ConditionReport.
    in_sweep = {
        name: [fn for module, fn in _callers_of(name) if module == "sweep"]
        for name in ("OrderVector", "Instance", "ConditionReport")
    }
    assert in_sweep == {"OrderVector": [], "Instance": ["sweep_reports"], "ConditionReport": []}
    assert _callers_of("ConditionReport") == [("conditions", "check_instance")]
    assert _users({"_restore"}) == {"core"}


def test_on_the_sweep_path_only_the_table_build_runs_the_engines():
    # A sweep reaches the engines only through conditions.build_type_table,
    # which run_sweep calls before it starts a pool, and sweep_reports
    # before its first chunk; the expansion a check makes from the table
    # builds a missing table the same way and calls no engine itself.
    engines = {"cross_checked_basis", "hilbert_basis_oracle", "hilbert_basis_frontier"}
    in_sweep = _calls("sweep")
    assert not set().union(*in_sweep.values()) & engines
    callers = {name for name, called in in_sweep.items() if "build_type_table" in called}
    assert callers == {"run_sweep", "sweep_reports"}
    in_conditions = _calls("conditions")
    checkers = {name for name, called in in_conditions.items() if "cross_checked_basis" in called}
    assert checkers == {"build_type_table", "orbit_basis"}
    assert not in_conditions["_table_basis"] & engines
    (run,) = [
        fn for fn in ast.walk(MODULES["sweep"])
        if isinstance(fn, ast.FunctionDef) and fn.name == "run_sweep"
    ]
    calls = [node for node in ast.walk(run) if isinstance(node, ast.Call)]
    line = {ast.unparse(node.func): node.lineno for node in calls}
    assert line["build_type_table"] < line["Pool"]


def test_one_reduction_for_both_hilbert_engines():
    # Both engines search the nonzero orders of v / gcd(v) that
    # hilbert._nonzero_part returns and carry back through hilbert._embed;
    # no other function of hilbert divides by a gcd.
    calls = {
        fn.name: {ast.unparse(node.func) for node in ast.walk(fn) if isinstance(node, ast.Call)}
        for fn in ast.walk(MODULES["hilbert"])
        if isinstance(fn, ast.FunctionDef)
    }
    assert {name for name, called in calls.items() if called & {"math.gcd", "gcd"}} == {
        "_nonzero_part"
    }
    for engine in ("hilbert_basis_oracle", "hilbert_basis_frontier"):
        assert {"_nonzero_part", "_embed"} <= calls[engine], engine


def test_no_run_loads_multiprocessing_dataclasses_or_inspect():
    # sweep.Pool forks its workers itself, so neither importing the package
    # nor a serial or a pooled sweep loads any multiprocessing module; and
    # no run loads dataclasses or the inspect it imports.
    script = (
        "import sys, artinhol\n"
        "def unloaded():\n"
        "    return not [m for m in sys.modules if m.split('.')[0] in\n"
        "                ('multiprocessing', 'dataclasses', 'inspect')]\n"
        "assert unloaded(), 'import artinhol'\n"
        "from artinhol import cli, sweep\n"
        "argv = ['sweep', '--degrees', '1,1,2', '--order-bound', '4']\n"
        "assert cli.main(argv) == 0\n"
        "assert unloaded(), 'serial sweep'\n"
        "sweep._usable_cpus = lambda: 2\n"
        "assert cli.main([*argv, '--workers', '2']) == 0\n"
        "assert unloaded(), 'pooled sweep'\n"
        "assert cli.main(['check', '--degrees', '1,1,2', '--orders', '1,-1,0']) == 0\n"
        "assert unloaded(), 'check'\n"
    )
    _run_fresh(script)


def test_a_pooled_sweep_starts_no_thread_and_loads_no_stdlib_pool(tmp_path):
    # sweep.Pool's workers walk the task stream themselves and send their
    # results up one pipe each: the parent runs one thread while it writes,
    # its three chunks are checked by two other processes, and no
    # multiprocessing module, nor the queue module multiprocessing.pool
    # uses, is loaded.
    script = (
        "import os, sys, threading\n"
        "from artinhol import cli, sweep\n"
        "sweep._usable_cpus = lambda: 2\n"
        "run, add, threads, pids = sweep._run_chunk, sweep.SweepSummary.__add__, [], []\n"
        "def traced(task):\n"
        "    lines, part = run(task)\n"
        "    return lines, (part, os.getpid())\n"
        "def counted(self, other):\n"
        "    part, pid = other\n"
        "    threads.append(threading.active_count())\n"
        "    pids.append(pid)\n"
        "    return add(self, part)\n"
        "sweep._run_chunk, sweep.SweepSummary.__add__ = traced, counted\n"
        "argv = ['sweep', '--degrees', '1,1,2', '--order-bound', '4', '--workers', '2']\n"
        "assert cli.main([*argv, '--out', sys.argv[1]]) == 0\n"
        "assert len(set(pids)) == 2 and os.getpid() not in pids, 'no pool started'\n"
        "loaded = [m for m in sys.modules if m.startswith('multiprocessing') or m == 'queue']\n"
        "assert loaded == [], loaded\n"
        "assert threads == [1, 1, 1], threads\n"
    )
    _run_fresh(script, str(tmp_path / "records.jsonl"))
