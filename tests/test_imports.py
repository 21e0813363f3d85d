"""Every module-level import of the package is used by its module, and every
public name is read by the package."""

import ast
from pathlib import Path

import pytest

import lobres

SRC = Path(__file__).resolve().parent.parent / "src" / "lobres"


def _annotation_names(tree: ast.AST):
    """Names in string annotations, such as ``"float | SampledPath"``."""
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            notes = [a.annotation for a in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                                            args.vararg, args.kwarg] if a is not None]
            notes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                for sub in ast.walk(ast.parse(note.value, mode="eval")):
                    if isinstance(sub, ast.Name):
                        yield sub.id


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of ``source`` that the module
    never reads (``from __future__`` imports excepted)."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_annotation_names(tree))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_every_module_level_import_is_used(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_an_orphaned_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from .paths import RandomSource, SampledPath, TimeGrid\n"
              "def f(grid: 'TimeGrid') -> SampledPath:\n    return np.zeros(1)\n")
    assert unused_imports(source) == ["os", "RandomSource"]


def unreached_names(sources, names) -> list[str]:
    """The ``names`` that no module of ``sources`` reads, as a loaded name or
    as an attribute."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [name for name in names if name not in read]


def test_every_public_name_is_read_by_the_package():
    # a name only __init__ re-exports is reached by no run
    sources = [p.read_text() for p in SRC.glob("*.py") if p.name != "__init__.py"]
    assert unreached_names(sources, lobres.__all__) == []


def test_an_unreached_name_is_found():
    sources = ["def f(grid):\n    return grid.steps\n", "g = f(None)\nh = 1\n"]
    assert unreached_names(sources, ["f", "g", "h", "steps"]) == ["g", "h"]
