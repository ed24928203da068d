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
