"""Rotation matrices become unit quaternions, and symmetric 2x2 matrices
become ``(X11, X12, X22)`` triples, at one site per purpose.

A shape holds the quaternions of its rotations (``ShapeRep.quaternions``),
converted by the constructor that takes matrices, through which encoding
and flattening go; every other shape is built from quaternions. Only the
matrix-input kernels of :mod:`shapeforms.liegroups` convert their own
arguments. A new conversion of a shape's rotations fails here.

Stretch logs and the stretch parts of tangent vectors are held as triples.
Matrices become triples only in the constructors that take them, and
triples matrices only where matrices are handed out; a new conversion
between the two fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    ("representation.py", "ShapeRep.__init__"),
    ("liegroups.py", "so3_log"),
}

TRIPLE_SITES = {
    ("representation.py", "ShapeRep.__init__"),
    ("representation.py", "ShapeRep.stretches"),
    ("representation.py", "TangentRep.__init__"),
    ("representation.py", "TangentRep.stretch_part"),
}


def _name(node):
    """The called name of ``node``: ``f`` for ``f(...)`` and ``m.f(...)``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _call_sites(path, match):
    """The qualified names of the functions in ``path`` holding a call
    ``node`` with ``match(node)``; ``"<module>"`` for module level."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call) and match(node):
            sites.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return sites


def conversion_sites(path):
    """The functions in ``path`` that call ``_quaternions(_entries(...))``,
    see :func:`_call_sites`."""
    return _call_sites(path, lambda node: (
        _name(node.func) == "_quaternions" and node.args
        and isinstance(node.args[0], ast.Call)
        and _name(node.args[0].func) == "_entries"))


def triple_sites(path):
    """The functions in ``path`` that call ``_sym_to_triples`` or
    ``_triples_to_sym``, see :func:`_call_sites`."""
    return _call_sites(path, lambda node: _name(node.func) in (
        "_sym_to_triples", "_triples_to_sym"))


def _sites(find):
    return {(path.name, site)
            for path in (ROOT / "src" / "shapeforms").glob("*.py")
            for site in find(path)}


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
    found = _sites(conversion_sites)
    assert ("representation.py", "ShapeRep.__init__") in found
    assert found <= ALLOWED


def test_planted_triple_conversions_are_found(tmp_path):
    path = tmp_path / "caller.py"
    path.write_text("from shapeforms import representation\n"
                    "t = _sym_to_triples(S)\n"
                    "class Tangent:\n"
                    "    def parts(self):\n"
                    "        return representation._triples_to_sym(self.t)\n"
                    "def weights(t):\n"
                    "    return _triples_weights(t)\n")
    assert triple_sites(path) == ["<module>", "Tangent.parts"]


def test_triples_are_converted_only_at_the_boundary():
    assert _sites(triple_sites) == TRIPLE_SITES
