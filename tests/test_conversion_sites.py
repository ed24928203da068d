"""Rotation matrices become unit quaternions at one site per purpose.

A shape holds the quaternions of its rotations (``ShapeRep.quaternions``),
converted by the constructor that takes matrices, through which encoding,
flattening and files of the earlier format go; every other shape is built
from quaternions. Only the matrix-input kernels of
:mod:`shapeforms.liegroups` convert their own arguments. A new conversion
of a shape's rotations fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    ("representation.py", "ShapeRep.__init__"),
    ("liegroups.py", "so3_log"),
}


def _name(node):
    """The called name of ``node``: ``f`` for ``f(...)`` and ``m.f(...)``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def conversion_sites(path):
    """The qualified names of the functions in ``path`` that call
    ``_quaternions(_entries(...))``; ``"<module>"`` for module level."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Call) and _name(node.func) == "_quaternions"
                and node.args and isinstance(node.args[0], ast.Call)
                and _name(node.args[0].func) == "_entries"):
            sites.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return sites


def test_planted_conversions_are_found(tmp_path):
    path = tmp_path / "caller.py"
    path.write_text("from shapeforms import liegroups\n"
                    "q = _quaternions(_entries(R))\n"
                    "class Shape:\n"
                    "    def log(self):\n"
                    "        return liegroups._quaternions(liegroups._entries(self.r))\n"
                    "def angle(e):\n"
                    "    return _quaternions(e)\n")
    assert conversion_sites(path) == ["<module>", "Shape.log"]


def test_rotations_are_converted_only_at_the_allowed_sites():
    found = {(path.name, site)
             for path in (ROOT / "src" / "shapeforms").glob("*.py")
             for site in conversion_sites(path)}
    assert ("representation.py", "ShapeRep.__init__") in found
    assert found <= ALLOWED
