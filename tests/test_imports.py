"""The package's import graph: no cycle at module level, no import in a function.

Reads the sources with ast, so nothing is imported.  An import under
`if TYPE_CHECKING:` serves annotations only and is left out of the graph.
"""

from __future__ import annotations

import ast
from pathlib import Path

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
