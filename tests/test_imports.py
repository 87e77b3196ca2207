"""Every name a module of the package imports is used in that module.

No linter ships with the project, so this check reads each module's syntax
tree with the standard ast module. A name counts as used when the module
reads it anywhere, annotations (quoted ones too) and TYPE_CHECKING blocks
included, or lists it in __all__. `from __future__` imports are exempt.
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


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unused = {
        path.name: found
        for path in modules
        if (found := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


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
