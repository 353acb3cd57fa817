"""The public API serves the pipeline: no name is exported for the tests
alone, every module's definitions and public methods are read by the
program (those of the tape module by their module's name), and every error
type is raised by the package."""

import ast
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sdecub"
PROGRAM = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def exported_names() -> list[str]:
    """Every name that ``sdecub/__init__.py`` imports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


@cache
def used_names() -> frozenset[str]:
    """Names the program's code reads, as a name or an attribute.

    Import statements, the names that ``def`` and ``class`` bind, strings
    and comments are no use of a name.
    """
    used = set()
    for path in PROGRAM:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return frozenset(used)


@pytest.mark.parametrize("name", exported_names())
def test_exported_name_is_used_by_the_program(name):
    assert name in used_names(), f"sdecub.{name} is used only outside src/sdecub and perfbench"


def module_definitions() -> list[str]:
    """``module.name`` for every function, class and variable that a module of
    ``src/sdecub`` defines at top level, and ``module.Class.method`` for each
    public method of those classes.  ``tape.py`` has its stricter check below.
    """
    names = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("__init__.py", "tape.py"):
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append(f"{path.stem}.{node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names += [f"{path.stem}.{t.id}" for t in targets if isinstance(t, ast.Name)]
            if isinstance(node, ast.ClassDef):
                names += [
                    f"{path.stem}.{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return names


@cache
def loose_reads() -> frozenset[str]:
    """Names the program loads, as a name or an attribute, or imports by name."""
    reads = set()
    for path in PROGRAM:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                reads.update(alias.name for alias in node.names)
    return frozenset(reads)


@pytest.mark.parametrize("name", module_definitions())
def test_definition_is_read_by_the_program(name):
    assert name.split(".")[-1] in loose_reads(), (
        f"sdecub.{name} is read only outside src/sdecub and perfbench"
    )


def tape_definitions() -> list[str]:
    """Every function, class and variable that ``tape.py`` defines at top level."""
    names = []
    for node in ast.parse((PACKAGE / "tape.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


@cache
def tape_reads() -> frozenset[str]:
    """Names of ``tape.py`` that the program reads.

    A read is ``tape.<name>`` (also as ``sc.tape.<name>``), a name imported
    from the module, or a name loaded inside ``tape.py`` itself, as the
    operators of ``Var`` load ``add`` and ``mul``.  Bare names elsewhere do
    not count: ``cli.py`` binds a ``sub`` of its own.
    """
    reads = set()
    for path in PROGRAM:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                owner = node.value
                if (isinstance(owner, ast.Name) and owner.id == "tape") or (
                    isinstance(owner, ast.Attribute) and owner.attr == "tape"
                ):
                    reads.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "tape":
                reads.update(alias.name for alias in node.names)
            elif path.name == "tape.py" and isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Load
            ):
                reads.add(node.id)
    return frozenset(reads)


@pytest.mark.parametrize("name", tape_definitions())
def test_tape_definition_is_read_by_the_program(name):
    assert name in tape_reads(), f"sdecub.tape.{name} is read only outside src/sdecub and perfbench"


def leaf_error_types() -> list[str]:
    """Every class in ``errors.py`` that no other class there subclasses."""
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    bases = {base.id for node in classes for base in node.bases if isinstance(base, ast.Name)}
    return [node.name for node in classes if node.name not in bases]


@cache
def raised_names() -> frozenset[str]:
    """Names that ``raise`` statements in ``src/sdecub`` raise, called or bare."""
    raised = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    return frozenset(raised)


@pytest.mark.parametrize("name", leaf_error_types())
def test_error_type_is_raised_by_the_package(name):
    assert name in raised_names(), f"sdecub.errors.{name} is raised nowhere in src/sdecub"
