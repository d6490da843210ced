"""Every public top-level function and class of the package has a caller.

The check parses `src/unroll_tuner/*.py` and `perfbench/*.py`.  A public
name (no leading underscore) defined at the top level of a package module
must be referenced in either tree: as a name, as an attribute, or as a
string constant in `perfbench/` (the traced benchmark wraps functions by
name).  A definition or an import alone is no reference, so an API that only
the tests call fails here.  A private top-level function or class (leading
underscore) must be referenced in `src/` itself, as a name or an attribute,
so a refactor cannot leave a helper stranded.  The error policy stays in
one place: `errors.py` defines the package's two exception classes, and no
other module defines one.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "unroll_tuner"
PERFBENCH = ROOT / "perfbench"

# Kept for the acceptance tests, which pin their behaviour, and
# `apply_transform`, the single-step form of `schedule_program` that
# tests/test_schedule.py folds to check that both replay alike.
ALLOWED = {"generate", "outputs_equal", "apply_transform"}


def _trees(directory: Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(directory.glob("*.py"))}


def _references(tree: ast.Module, strings: bool) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _definitions(package: dict[str, ast.Module]):
    """(module, name) of every top-level function and class."""
    return [(module, node.name) for module, tree in package.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def test_every_public_definition_is_referenced():
    package, perfbench = _trees(PACKAGE), _trees(PERFBENCH)
    referenced = set().union(*(_references(t, strings=False) for t in package.values()),
                             *(_references(t, strings=True) for t in perfbench.values()))
    unused = [f"{module}.{name}" for module, name in _definitions(package)
              if not name.startswith("_") and name not in referenced | ALLOWED]
    assert not unused, f"public definitions that nothing in src/ or perfbench/ uses: {unused}"


def test_every_private_definition_is_referenced_in_src():
    package = _trees(PACKAGE)
    referenced = set().union(*(_references(t, strings=False) for t in package.values()))
    unused = [f"{module}.{name}" for module, name in _definitions(package)
              if name.startswith("_") and name not in referenced]
    assert not unused, f"private definitions that nothing in src/ uses: {unused}"


def test_exception_classes_are_defined_only_in_errors():
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        name = "unroll_tuner" if path.stem == "__init__" else f"unroll_tuner.{path.stem}"
        module = importlib.import_module(name)
        defined[path.stem] = sorted(
            attr for attr, value in vars(module).items()
            if isinstance(value, type) and issubclass(value, BaseException)
            and value.__module__ == name)
    assert defined.pop("errors") == ["KernelError", "UnrollTunerError"]
    stray = {module: names for module, names in defined.items() if names}
    assert not stray, f"exception classes outside errors.py: {stray}"
