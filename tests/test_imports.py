"""Every name a module of the package imports is used in that module, and
every private function, method, class or constant it defines is referenced
in it.

No linter ships with the project, so these checks read each module's syntax
tree with the standard ast module. A name counts as used when the module
reads it anywhere, annotations (quoted ones too) and TYPE_CHECKING blocks
included, or lists it in __all__; assigning it is not a use. A private
function or method also counts as referenced when the module reads an
attribute of that name. `from __future__` imports and dunder names are
exempt. A helper, class or constant left behind when the path that used it
is deleted fails the second or third check.
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
    used = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
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


def private_constants_and_classes(tree: ast.Module) -> dict[str, int]:
    """Each private class, and each private name a plain assignment binds,
    at module level, mapped to its line."""
    defs = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                defs.setdefault(name, node.lineno)
    return defs


def unreferenced_private_constants_and_classes(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"line {line}: {name}" for name, line in private_constants_and_classes(tree).items()
            if name not in used]


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


def test_every_private_constant_and_class_is_referenced_in_its_module():
    assert findings(unreferenced_private_constants_and_classes) == {}


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


def test_the_check_finds_an_unreferenced_private_constant_or_class():
    source = (
        "import re\n"
        "_PATTERN = re.compile('x')\n"
        "_STALE = 3\n"
        "_LIMIT: int = 4\n"
        "_WIDTH: int = 5\n"
        "__all__ = ['public']\n"
        "class _Used:\n"
        "    _UNUSED_ATTRIBUTE = 1\n"
        "class _Orphan:\n"
        "    pass\n"
        "_STALE = 6\n"
        "def public(x: '_Used') -> int:\n"
        "    _local = _PATTERN.search(x)\n"
        "    return _WIDTH if _local else public._LIMIT\n"
    )
    # Assigning a name again, or reading an attribute of its name, is not a
    # use; a class's own attributes and a function's locals are not checked.
    assert unreferenced_private_constants_and_classes(source) == [
        "line 3: _STALE", "line 4: _LIMIT", "line 9: _Orphan"]
