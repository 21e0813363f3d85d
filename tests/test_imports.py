"""Every module-level import of the package is used by its module, and every
public name, and public method and property of a public class, is read by
the package."""

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


def public_members(source: str) -> list[str]:
    """``Class.name`` of each public method and property of the public
    module-level classes of ``source``."""
    return [f"{cls.name}.{node.name}" for cls in ast.parse(source).body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


# read by no run: the safe account of the bookkeeping identity X = safe
# account + position x reference, which acceptance criterion 2 checks
UNREAD_MEMBERS = ["Evaluation.safe_account"]


def test_every_public_method_and_property_is_read_by_the_package():
    sources = [p.read_text() for p in SRC.glob("*.py") if p.name != "__init__.py"]
    members = [m for source in sources for m in public_members(source)]
    assert len(members) > 30
    assert [m for m in members if unreached_names(sources, [m.split(".")[1]])] == UNREAD_MEMBERS


def test_public_members_skip_private_classes_and_names():
    source = ("class A:\n    def f(self): pass\n    @property\n    def g(self): pass\n"
              "    def _h(self): pass\n    x = 1\n"
              "class _B:\n    def f(self): pass\n"
              "def f(): pass\n")
    assert public_members(source) == ["A.f", "A.g"]


def imported_names(source: str, module: str) -> set[str]:
    """Names that ``source`` imports from the package module ``module``, with
    "*" for the module itself, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if (node.level == 1 and node.module == module) or node.module == f"lobres.{module}":
                names.update(a.name for a in node.names)
            elif node.level == 1 and node.module is None:
                names.update("*" for a in node.names if a.name == module)
        elif isinstance(node, ast.Import):
            names.update("*" for a in node.names if a.name == f"lobres.{module}")
    return names


# what the schema (a section's spec(), ladder(), the run's grid) and
# validate's estimates read of the experiments
SCHEMA_EXPERIMENT_NAMES = {"FundamentalSpec", "KappaLadder", "ladder_grid",
                           "paths_per_chunk", "resamples_per_chunk"}


def test_config_imports_no_run_set_up():
    # the set-ups that build a run's inputs live in cli, not in the schema
    source = (SRC / "config.py").read_text()
    assert imported_names(source, "strategies") == set()
    assert imported_names(source, "experiments") <= SCHEMA_EXPERIMENT_NAMES
    assert imported_names("from . import strategies\nimport lobres.experiments\n"
                          "def f():\n    from .experiments import rung_strategy\n",
                          "experiments") == {"*", "rung_strategy"}
