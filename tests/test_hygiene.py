"""Static checks on the package sources: no unused imports, no module
reaching into another module's private (underscore-prefixed, not dunder)
names, no function-local imports of package modules (every dependency
between modules shows at the top of the importing module), and no true
division (an integral rational is an int, and int / int is a float).

``__init__.py`` is skipped because its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nlie"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imports(scope):
    """(node, bound name, imported name, source module) for the imports that
    belong to ``scope`` itself, not to functions or classes nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            for a in node.names:
                yield node, a.asname or a.name.split(".")[0], a.name, None
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            source = "." * node.level + (node.module or "")
            for a in node.names:
                yield node, a.asname or a.name, a.name, source
        stack.extend(ast.iter_child_nodes(node))


def _used_names(scope):
    return {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}


def _scopes(tree):
    return [tree] + [n for n in ast.walk(tree)
                     if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = []
    for scope in _scopes(tree):
        used = _used_names(scope)
        unused += [f"{path.name}:{node.lineno} {bound}"
                   for node, bound, _, _ in _imports(scope) if bound not in used]
    assert not unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_from_other_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [f"{path.name}:{node.lineno} {name} from {source}"
               for scope in _scopes(tree)
               for node, _, name, source in _imports(scope)
               if source is not None
               and (source.startswith(".") or source.split(".")[0] == "nlie")
               and name.startswith("_") and not name.endswith("__")]
    assert not private


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_imports_of_package_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    local = [f"{path.name}:{node.lineno} {source or name}"
             for scope in _scopes(tree)[1:]
             for node, _, name, source in _imports(scope)
             if (source or name).startswith(".")
             or (source or name).split(".")[0] == "nlie"]
    assert not local


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_true_division(path):
    """Exact division goes through ``QQ.inv`` (or ``pow`` mod p); ``/`` and
    ``/=`` occur nowhere, not even there."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    divisions = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                 if isinstance(node, (ast.BinOp, ast.AugAssign))
                 and isinstance(node.op, ast.Div)]
    assert not divisions
