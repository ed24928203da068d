"""The package exports only functions that the program itself calls."""

import ast
import inspect
from pathlib import Path

import shapeforms

ROOT = Path(__file__).resolve().parents[1]


def used_names(path):
    """The names that the code in ``path`` reads, as names or attributes;
    imports, comments and docstrings do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_exported_function_has_a_caller():
    # Library modules other than the re-exporting __init__, the demos, and
    # the benchmark without its own tests.
    sources = [path for path in (ROOT / "src" / "shapeforms").glob("*.py")
               if path.name != "__init__.py"]
    sources += (ROOT / "demos").glob("*.py")
    sources += [path for path in (ROOT / "perfbench").glob("*.py")
                if not path.name.startswith("test_")]
    used = {path.resolve(): used_names(path) for path in sources}
    uncalled = []
    for name in shapeforms.__all__:
        value = getattr(shapeforms, name)
        # Returned types, error classes, constants and modules are exempt.
        if not inspect.isfunction(value):
            continue
        home = Path(inspect.getsourcefile(value)).resolve()
        if not any(name in names for path, names in used.items() if path != home):
            uncalled.append(name)
    assert uncalled == []
