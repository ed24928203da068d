"""The package has only public functions that the program itself calls."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import shapeforms
from shapeforms import synthetic

ROOT = Path(__file__).resolve().parents[1]
MODULES = {"shapeforms"} | {f"shapeforms.{info.name}"
                            for info in pkgutil.iter_modules(shapeforms.__path__)}


def _module_aliases(tree):
    """The local names that the imports of ``tree`` bind to shapeforms
    modules, mapped to the modules' full names."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # "import shapeforms.x" binds "shapeforms"; "... as y" binds y.
            for alias in node.names:
                if alias.name in MODULES:
                    top = alias.name.split(".")[0]
                    aliases[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom):
            # Relative imports occur only inside the package itself.
            base = "shapeforms" if node.level else node.module
            for alias in node.names:
                full = f"{base}.{alias.name}"
                if full in MODULES:
                    aliases[alias.asname or alias.name] = full
    return aliases


def used_names(path):
    """The names that the code in ``path`` reads: plain names, and the
    attributes of shapeforms modules such as ``synthetic.icosphere``.

    Any other attribute, such as ``report.generalization``, is not a use;
    nor are imports, comments and docstrings.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = _module_aliases(tree)

    def module_of(node):
        if isinstance(node, ast.Name):
            return aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            outer = module_of(node.value)
            if outer is not None and f"{outer}.{node.attr}" in MODULES:
                return f"{outer}.{node.attr}"
        return None

    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and module_of(node.value) is not None:
            names.add(node.attr)
    return names


def _sources():
    """Library modules other than the re-exporting __init__, the demos, and
    the benchmark without its own tests."""
    sources = [path for path in (ROOT / "src" / "shapeforms").glob("*.py")
               if path.name != "__init__.py"]
    sources += (ROOT / "demos").glob("*.py")
    sources += [path for path in (ROOT / "perfbench").glob("*.py")
                if not path.name.startswith("test_")]
    return {path.resolve(): used_names(path) for path in sources}


def _uncalled(functions, used, own_module_counts):
    uncalled = []
    for name, value in functions:
        home = Path(inspect.getsourcefile(value)).resolve()
        if not any(name in names for path, names in used.items()
                   if own_module_counts or path != home):
            uncalled.append(name)
    return uncalled


def test_module_attribute_counts_as_use(tmp_path):
    path = tmp_path / "caller.py"
    path.write_text("from shapeforms import synthetic\n"
                    "import shapeforms.evaluation as ev\n"
                    "synthetic.icosphere(1)\n"
                    "ev.metrics_report\n"
                    "report.generalization\n"
                    "shapeforms.flatten\n")
    assert used_names(path) == {"synthetic", "icosphere", "ev", "metrics_report",
                                "report", "shapeforms"}


def test_every_exported_function_has_a_caller():
    # Returned types, error classes, constants and modules are exempt.
    functions = [(name, getattr(shapeforms, name)) for name in shapeforms.__all__
                 if inspect.isfunction(getattr(shapeforms, name))]
    assert _uncalled(functions, _sources(), own_module_counts=False) == []


def test_every_synthetic_generator_has_a_caller():
    # A generator that another generator builds on counts as called.
    functions = [(name, value) for name, value in vars(synthetic).items()
                 if not name.startswith("_") and inspect.isfunction(value)
                 and value.__module__ == synthetic.__name__]
    assert _uncalled(functions, _sources(), own_module_counts=True) == []


def _module_functions(private):
    """The public or the private functions defined at module level in each
    module of the package other than __init__."""
    functions = []
    for module in sorted(MODULES - {"shapeforms"}):
        namespace = vars(importlib.import_module(module))
        functions += [(name, value) for name, value in namespace.items()
                      if name.startswith("_") == private and not name.startswith("__")
                      and inspect.isfunction(value) and value.__module__ == module]
    return functions


def test_every_public_function_has_a_caller():
    # An exported function needs a caller outside its module; any other
    # public function, such as ``cli.build_parser``, one anywhere.
    used = _sources()
    functions = _module_functions(private=False)
    exported = [item for item in functions if item[0] in shapeforms.__all__]
    internal = [item for item in functions if item[0] not in shapeforms.__all__]
    assert (_uncalled(exported, used, own_module_counts=False)
            + _uncalled(internal, used, own_module_counts=True)) == []


def test_every_private_function_has_a_reader_in_the_program():
    # A private module-level function needs a reader in the library, the
    # demos or the benchmark; one that only the tests read is dead code.
    assert _uncalled(_module_functions(private=True), _sources(),
                     own_module_counts=True) == []


def unread_private_names(paths):
    """The private names that a top-level statement of the modules at
    ``paths`` defines (a function, a class or an assigned name) and that
    no other top-level statement of them reads, as a loaded name or as an
    attribute, as ``(module file name, name)`` pairs. Imports are no reads,
    nor is a function's call of itself."""
    defined, reads = [], []
    for path in paths:
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                names = [statement.name]
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = (statement.targets if isinstance(statement, ast.Assign)
                           else [statement.target])
                names = [node.id for target in targets for node in ast.walk(target)
                         if isinstance(node, ast.Name)]
            else:
                names = []
            defined += [(path.name, name, statement) for name in names
                        if name.startswith("_") and not name.startswith("__")]
            reads.append((statement, {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(statement)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute)}))
    return [(module, name) for module, name, statement in defined
            if not any(name in names for other, names in reads
                       if other is not statement)]


def test_unread_private_names_are_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .b import _imported\n"
        "_LIMIT = 3\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1) if n else _LIMIT\n"
        "def _by_attribute():\n"
        "    pass\n"
        "class _Unused:\n"
        "    pass\n")
    (tmp_path / "b.py").write_text(
        "from . import a\n"
        "def _imported():\n"
        "    return a._by_attribute()\n")
    assert unread_private_names(sorted(tmp_path.glob("*.py"))) == [
        ("a.py", "_recursive"), ("a.py", "_Unused"), ("b.py", "_imported")]


def test_every_private_name_has_a_reader_in_the_library():
    # A private name that only the tests, the demos or the benchmark read
    # is no part of the library.
    paths = sorted((ROOT / "src" / "shapeforms").glob("*.py"))
    assert unread_private_names(paths) == []
