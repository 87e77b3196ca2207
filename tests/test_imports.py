"""Every name a module of the package imports is used in that module, and
every private function or method it defines is referenced in it.

No linter ships with the project, so these checks read each module's syntax
tree with the standard ast module. A name counts as used when the module
reads it anywhere, annotations (quoted ones too) and TYPE_CHECKING blocks
included, or lists it in __all__; a private function or method also counts
as referenced when the module reads an attribute of that name.
`from __future__` imports and dunder methods are exempt. A helper left
behind when the path that called it is deleted fails the second check.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rulecover"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The name each import binds, mapped to its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns


def used_names(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for note in annotations(tree):
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            used |= used_names(ast.parse(note.value, mode="eval"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"line {line}: {name}" for name, line in imported_names(tree).items()
            if name not in used]


def private_functions(tree: ast.Module) -> dict[str, int]:
    """Each private function defined at module level, or as a method of a
    module-level class, mapped to its line."""
    defs = {}
    for node in tree.body:
        for item in node.body if isinstance(node, ast.ClassDef) else [node]:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name.startswith("_")
                and not item.name.endswith("__")
            ):
                defs[item.name] = item.lineno
    return defs


def unreferenced_private_functions(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree) | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }
    return [f"line {line}: {name}" for name, line in private_functions(tree).items()
            if name not in used]


def findings(check) -> dict[str, list[str]]:
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    return {
        path.name: found
        for path in modules
        if (found := check(path.read_text(encoding="utf-8")))
    }


def test_no_module_imports_a_name_it_never_uses():
    assert findings(unused_imports) == {}


def test_every_private_function_and_method_is_referenced_in_its_module():
    assert findings(unreferenced_private_functions) == {}


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import TYPE_CHECKING\n"
        "from .bits import all_ones, complement_pairs as pairs\n"
        "if TYPE_CHECKING:\n"
        "    from .dataset import Table\n"
        "    from .subproblem import SubproblemInstance\n"
        "def f(t: Table, inst: 'SubproblemInstance') -> int:\n"
        "    return all_ones(os.sep)\n"
    )
    assert unused_imports(source) == ["line 4: pairs"]


def test_the_check_finds_an_unreferenced_private_function():
    source = (
        "from typing import Callable\n"
        "def _called(x):\n"
        "    return x\n"
        "def _orphan():\n"
        "    return _called(1)\n"
        "def _annotated() -> int:\n"
        "    return 0\n"
        "class _Hook:\n"
        "    def __init__(self):\n"
        "        self._on_call()\n"
        "    def _on_call(self):\n"
        "        return _annotated\n"
        "    def _stale(self):\n"
        "        pass\n"
        "    @property\n"
        "    def _size(self) -> Callable:\n"
        "        return len\n"
        "def public():\n"
        "    def _nested():\n"
        "        pass\n"
        "    return _Hook()._size\n"
    )
    assert unreferenced_private_functions(source) == ["line 4: _orphan", "line 13: _stale"]
