"""Triangle mesh container plus OBJ/OFF readers and writers.

Meshes are oriented 2-manifolds: counter-clockwise winding defines the
outward normal, every edge touches at most two triangles, and the dual
graph of triangles is a single connected component. These properties are
checked on construction since everything downstream relies on them; a
mesh built on the triangles of a checked one, as a reconstruction is on
its reference's, has only its geometry checked. A mesh file's suffix,
``.obj`` or ``.off`` in any case, chooses its format, and a file is read
and written as one text.
"""

import hashlib
import re
from itertools import chain, repeat
from operator import itemgetter

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from .errors import DegenerateGeometryError, MeshFormatError, MeshTopologyError

# A triangle is degenerate when its area falls below this fraction of the
# squared bounding-box diagonal.
DEGENERATE_AREA_FACTOR = 1e-12

# The face indices a file may give: triangles are stored as int64.
_MIN_INDEX, _MAX_INDEX = np.iinfo(np.int64).min, np.iinfo(np.int64).max

# Kinds of OBJ line, by the first token: "v", "f" or any other.
_IGNORED, _VERTEX, _FACE = 0, 1, 2
_KINDS = {"v": _VERTEX, "f": _FACE}

# The coordinate tokens of a split vertex line.
_COORDINATES = itemgetter(slice(1, 4))


class TriangleMesh:
    """Immutable triangle mesh given by vertex positions and a face list.

    Parameters
    ----------
    vertices : array_like
        ``(n, 3)`` float positions.
    triangles : array_like
        ``(m, 3)`` integer vertex indices with counter-clockwise winding.
    """

    def __init__(self, vertices, triangles):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshTopologyError("vertices must be an (n, 3) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshTopologyError("triangles must be an (m, 3) array")
        self._check_indices()
        self._check_geometry()
        self._check_dual_graph()
        self.vertices.flags.writeable = False
        self.triangles.flags.writeable = False

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    @property
    def bbox_diagonal(self):
        extent = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        return float(np.linalg.norm(extent))

    def edge_vectors(self):
        """Per-triangle edge vectors ``(e1, e2) = (v1 - v0, v2 - v0)``."""
        v = self.vertices[self.triangles]
        return v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]

    def triangle_normals(self):
        """Outward unit normals, one per triangle."""
        e1, e2 = self.edge_vectors()
        n = np.cross(e1, e2)
        return n / np.linalg.norm(n, axis=1, keepdims=True)

    def triangle_areas(self):
        e1, e2 = self.edge_vectors()
        return 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)

    def content_hash(self):
        """Hex digest binding downstream objects to this exact mesh."""
        h = hashlib.sha256()
        h.update(self.vertices.tobytes())
        h.update(self.triangles.tobytes())
        return h.hexdigest()

    def transformed(self, rotation=None, translation=None, scale=None):
        """Copy with vertices mapped through ``scale * R @ v + t``."""
        v = self.vertices
        if scale is not None:
            v = v * scale
        if rotation is not None:
            v = v @ np.asarray(rotation).T
        if translation is not None:
            v = v + np.asarray(translation)
        return self._with_vertices(v)

    def _with_vertices(self, vertices):
        """The mesh of ``vertices`` on this mesh's triangles.

        The triangles passed the topology checks when this mesh was built,
        so only the geometry of the new vertices is checked, as in
        :meth:`_check_geometry`. ``vertices`` must be ``(n, 3)`` with this
        mesh's ``n``, or :class:`MeshTopologyError` is raised.
        """
        mesh = TriangleMesh.__new__(TriangleMesh)
        mesh.vertices = np.ascontiguousarray(vertices, dtype=float)
        if mesh.vertices.shape != self.vertices.shape:
            raise MeshTopologyError(f"vertices of shape {mesh.vertices.shape} do not "
                                    f"fit the triangles of a mesh of shape "
                                    f"{self.vertices.shape}")
        mesh.triangles = self.triangles
        mesh._check_geometry()
        mesh.vertices.flags.writeable = False
        return mesh

    def _check_indices(self):
        """Triangles exist, index vertices and repeat none."""
        if self.n_triangles == 0:
            raise MeshTopologyError("mesh has no triangles")
        if self.triangles.min() < 0 or self.triangles.max() >= self.n_vertices:
            raise MeshTopologyError("triangle index out of range")
        tri = self.triangles
        repeated = (
            (tri[:, 0] == tri[:, 1]) | (tri[:, 1] == tri[:, 2]) | (tri[:, 0] == tri[:, 2])
        )
        if np.any(repeated):
            bad = int(np.flatnonzero(repeated)[0])
            raise DegenerateGeometryError(f"triangle {bad} repeats a vertex")

    def _check_geometry(self):
        """Every vertex is finite, and no triangle area falls to the
        degenerate threshold."""
        finite = np.isfinite(self.vertices).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise DegenerateGeometryError(
                f"vertex {bad} is not finite: {self.vertices[bad].tolist()}")
        areas = self.triangle_areas()
        threshold = DEGENERATE_AREA_FACTOR * self.bbox_diagonal**2
        if np.any(areas <= threshold):
            bad = int(np.argmin(areas))
            raise DegenerateGeometryError(
                f"triangle {bad} has area {areas[bad]:.3g} below threshold "
                f"{threshold:.3g}"
            )

    def _check_dual_graph(self):
        """Edges are manifold with consistent winding, and the triangles
        form one component."""
        m = self.n_triangles
        pairs, _ = _dual_edges(self.triangles, self.n_vertices)
        dual = scipy.sparse.coo_matrix(
            (np.ones(pairs.shape[0]), (pairs[:, 0], pairs[:, 1])), shape=(m, m)
        )
        n_components, _ = connected_components(dual, directed=False)
        if n_components > 1:
            raise MeshTopologyError(
                f"dual graph has {n_components} components; expected a single one"
            )


def _side_keys(triangles, n_vertices):
    """Keys ``lo * n_vertices + hi`` of the ``3m`` triangle sides ``(a, b)``,
    with ``lo, hi`` the smaller and larger of ``a, b``, and whether each
    side runs from ``lo`` to ``hi``. Side ``k`` belongs to triangle
    ``k % m``: the sides ``(0, 1)`` of all triangles come first, then
    ``(1, 2)`` and ``(2, 0)``."""
    a = triangles.T.reshape(-1)
    b = triangles[:, [1, 2, 0]].T.reshape(-1)
    return np.minimum(a, b) * n_vertices + np.maximum(a, b), a < b


def _dual_edges(triangles, n_vertices):
    """Edges shared by two triangles of a mesh with consistent winding.

    Returns ``(pairs, shared)``: the ``(E, 2)`` triangle indices ``i < j``
    and the ``(E, 2)`` vertex indices ``lo < hi`` of each shared edge, in
    ascending order of its key ``lo * n_vertices + hi``.

    Raises
    ------
    MeshTopologyError
        If a directed edge occurs twice: three or more sides share an
        undirected edge, or two sides that share one point the same way.
        No undirected edge then touches more than two triangles, and the
        two that share one traverse it in opposite directions.
    """
    m = triangles.shape[0]
    keys, forward = _side_keys(triangles, n_vertices)
    order = np.argsort(keys)
    sorted_keys = keys[order]
    # The two sides of a shared edge are adjacent in key order.
    run = np.flatnonzero(sorted_keys[1:] == sorted_keys[:-1])
    first, second = order[run], order[run + 1]
    if (np.any(sorted_keys[2:] == sorted_keys[:-2])
            or np.any(forward[first] == forward[second])):
        raise MeshTopologyError(
            "duplicated directed edge: non-manifold or inconsistent winding"
        )
    a, b = first % m, second % m
    pairs = np.stack((np.minimum(a, b), np.maximum(a, b)), axis=1)
    shared = np.stack(np.divmod(sorted_keys[run], n_vertices), axis=1)
    return pairs, shared


def unique_edges(triangles):
    """All undirected edges of a triangle list as ``(E, 2)`` sorted pairs."""
    triangles = np.asarray(triangles, dtype=np.int64)
    n = int(triangles.max(initial=0)) + 1
    return np.stack(np.divmod(np.unique(_side_keys(triangles, n)[0]), n), axis=1)


def _suffix(path):
    """The format of ``path``: its suffix ``".obj"`` or ``".off"``, any case."""
    suffix = path.lower()[-4:]
    if suffix not in (".obj", ".off"):
        raise MeshFormatError("cannot infer format from suffix", path=path)
    return suffix


def load_mesh(path):
    """Read a mesh from an OBJ or OFF file, chosen by the file suffix.

    The file is read once, as one text, and its vertex and face tokens are
    converted in bulk, each by Python's ``float`` or ``int``. Vertex order
    is preserved. A parse error is a ``MeshFormatError`` with its line
    number where one applies; an invalid mesh's error names the path.
    """
    path = str(path)
    read = _read_obj if _suffix(path) == ".obj" else _read_off
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshFormatError(str(exc), path=path) from exc
    vertices, triangles = read(text, path)
    try:
        return TriangleMesh(vertices, triangles)
    except (MeshTopologyError, DegenerateGeometryError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def save_mesh(mesh, path, vertex_scalars=None):
    """Write ``mesh`` as OBJ or OFF text, chosen by the file suffix, with
    full float precision (``%.17g``).

    Each block of lines, the vertices and the faces, is formatted by one
    ``%`` operation and the file is written at once.

    ``vertex_scalars`` (OBJ only) appends one extra column to each vertex
    line, e.g. for thickness maps picked up by downstream visualization.
    """
    path = str(path)
    obj = _suffix(path) == ".obj"
    columns = mesh.vertices
    if vertex_scalars is not None:
        if not obj:
            raise MeshFormatError("vertex scalars are only supported for OBJ", path=path)
        vertex_scalars = np.asarray(vertex_scalars, dtype=float)
        if vertex_scalars.shape != (mesh.n_vertices,):
            raise MeshFormatError(f"expected {mesh.n_vertices} vertex scalars, "
                                  f"got shape {vertex_scalars.shape}", path=path)
        columns = np.column_stack((columns, vertex_scalars))
    # OBJ tags its lines and counts from 1; OFF starts with its counts.
    if obj:
        head, vertex, face, base = "", "v %.17g", "f %d %d %d\n", 1
    else:
        head, vertex, face, base = (f"OFF\n{mesh.n_vertices} {mesh.n_triangles} 0\n",
                                    "%.17g", "3 %d %d %d\n", 0)
    vertex += " %.17g" * (columns.shape[1] - 1) + "\n"
    text = (head + (vertex * mesh.n_vertices) % tuple(columns.ravel().tolist())
            + (face * mesh.n_triangles) % tuple((mesh.triangles + base).ravel().tolist()))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _read_obj(text, path):
    """Vertex and face arrays of OBJ text. Comments are whole lines.

    A line is a vertex or a face line when its first token is ``v`` or
    ``f``; any other is ignored. Vertex lines are split one by one, since
    they may carry extra columns, and their first three coordinates
    converted together; face lines are split as one text, which must give
    four tokens a line. When a bulk check fails,
    :func:`_raise_obj_error` finds the first bad line.
    """
    lines = np.array(text.split("\n"), dtype=object)
    kinds = _obj_kinds(lines)
    try:
        rows = list(map(str.split, lines[kinds == _VERTEX]))
        if min(map(len, rows), default=4) < 4:
            raise ValueError("vertex line with fewer than 3 coordinates")
        vertices = np.fromiter(map(float, chain.from_iterable(map(_COORDINATES, rows))),
                               dtype=float, count=3 * len(rows)).reshape(-1, 3)
        faces = _obj_faces(lines[kinds == _FACE])
    except (ValueError, OverflowError):
        _raise_obj_error(lines, kinds, path)
        raise
    if not len(vertices):
        raise MeshFormatError("no vertices found", path=path)
    return vertices, faces


def _obj_kinds(lines):
    """The kind of each of the OBJ ``lines`` by its first token:
    ``_VERTEX``, ``_FACE`` or ``_IGNORED``."""
    heads = [(line.split(None, 1) or ("",))[0] for line in lines]
    return np.fromiter(map(_KINDS.get, heads, repeat(_IGNORED)), dtype=int,
                       count=len(lines))


def _obj_faces(lines):
    """Zero-based ``(m, 3)`` indices of the OBJ face ``lines``, split as one
    text. Raises ``ValueError`` or ``OverflowError`` unless each line holds
    ``f`` and three tokens whose parts before any ``/`` are positive
    integers that fit int64.
    """
    joined = " ".join(lines)
    tokens = joined.split()
    m = len(lines)
    if len(tokens) != 4 * m:
        raise ValueError("face lines without 3 corners each")
    # Each line opens with the token "f". Of 4m tokens, the lines start at
    # 0, 4, 8, ... unless one has other than four; then the "f" of a line
    # that starts elsewhere stays among the indices, and int refuses it.
    del tokens[::4]
    if "/" in joined:
        tokens = [token.split("/", 1)[0] for token in tokens]
    faces = _integers(tokens).reshape(-1, 3)
    if np.any(faces <= 0):
        raise ValueError("face index not positive")
    return faces - 1


def _integers(tokens):
    """``int(token)`` of each of ``tokens``, as an int64 array. Raises
    ``ValueError`` for a token ``int`` refuses, ``OverflowError`` for one
    beyond int64."""
    return np.fromiter(map(int, tokens), dtype=np.int64, count=len(tokens))


def _raise_obj_error(lines, kinds, path):
    """Raise the ``MeshFormatError`` of the first vertex or face line of
    ``lines`` that fails a rule of :func:`_read_obj`, with its line number."""
    for i in np.flatnonzero(kinds != _IGNORED).tolist():
        parts, lineno = lines[i].split(), i + 1
        if kinds[i] == _VERTEX:
            if len(parts) < 4:
                raise MeshFormatError("vertex needs 3 coordinates", path, lineno)
            try:
                [float(x) for x in parts[1:4]]
            except ValueError as exc:
                raise MeshFormatError(f"bad coordinate: {exc}", path, lineno)
            continue
        if len(parts) != 4:
            raise MeshFormatError("only triangular faces are supported "
                                  f"(got {len(parts) - 1} corners)", path, lineno)
        for token in parts[1:]:
            try:
                value = int(token.split("/")[0])
            except ValueError:
                raise MeshFormatError(f"bad face index {token!r}", path, lineno)
            if value <= 0:
                raise MeshFormatError(f"face index {value} is not positive "
                                      "(OBJ is 1-based)", path, lineno)
            if value > _MAX_INDEX:
                raise MeshFormatError(f"face index {value} is out of range",
                                      path, lineno)


def _read_off(text, path):
    """Vertex and face arrays of OFF text. Comments run from ``#`` to the
    end of the line; the header's edge count is not read.

    The comments are cut from the whole text, which is then split into one
    token list. The vertex tokens are converted together, and so are the
    face tokens, four a face; when that fails, :func:`_raise_off_error`
    finds the first bad vertex or face. Line numbers are worked out only
    for an error, by :func:`_off_token_lines`.
    """
    tokens = re.sub("#[^\n]*", "", text).split() if "#" in text else text.split()
    if not tokens:
        raise MeshFormatError("empty file", path=path)
    pos = 1 if tokens[0].upper() == "OFF" else 0
    if pos + 3 > len(tokens):
        raise MeshFormatError("unexpected end of file while reading counts", path)
    try:
        n_vertices, n_faces = int(tokens[pos]), int(tokens[pos + 1])
    except ValueError:
        raise MeshFormatError("bad count line", path, _off_token_lines(text)[pos])
    if n_vertices < 0 or n_faces < 0:
        raise MeshFormatError("negative count", path, _off_token_lines(text)[pos])
    # A vertex takes 3 tokens and a triangle 4: refuse counts the file
    # cannot hold before allocating for them.
    needed, held = 3 * n_vertices + 4 * n_faces, len(tokens) - pos - 3
    if needed > held:
        raise MeshFormatError(f"{n_vertices} vertices and {n_faces} faces need "
                              f"{needed} tokens, the file holds {held}",
                              path, _off_token_lines(text)[pos])

    start = pos + 3
    end = start + 3 * n_vertices
    try:
        vertices = np.fromiter(map(float, tokens[start:end]), dtype=float,
                               count=3 * n_vertices).reshape(-1, 3)
        faces = _integers(tokens[end : end + 4 * n_faces]).reshape(-1, 4)
        if np.any(faces[:, 0] != 3):
            raise ValueError("face with other than 3 corners")
    except (ValueError, OverflowError):
        _raise_off_error(tokens, start, n_vertices, n_faces, text, path)
        raise
    return vertices, faces[:, 1:]


def _off_token_lines(text):
    """The line number of each token of OFF ``text``, comments stripped."""
    return [lineno for lineno, line in enumerate(text.split("\n"), start=1)
            for _ in line.split("#", 1)[0].split()]


def _raise_off_error(tokens, start, n_vertices, n_faces, text, path):
    """Raise the ``MeshFormatError`` of the first of the ``n_vertices``
    vertices and ``n_faces`` faces from ``tokens[start]`` on that fails a
    rule of :func:`_read_off`, with the line of its first token (of its
    first index, for a bad index)."""
    lines = _off_token_lines(text)
    for k in range(start, start + 3 * n_vertices, 3):
        try:
            [float(t) for t in tokens[k : k + 3]]
        except ValueError:
            raise MeshFormatError("bad vertex coordinate", path, lines[k])
    for k in range(start + 3 * n_vertices, start + 3 * n_vertices + 4 * n_faces, 4):
        try:
            corners = int(tokens[k])
        except ValueError:
            raise MeshFormatError("bad face corner count", path, lines[k])
        if corners != 3:
            raise MeshFormatError("only triangular faces are supported "
                                  f"(got {corners})", path, lines[k])
        try:
            indices = [int(t) for t in tokens[k + 1 : k + 4]]
        except ValueError:
            raise MeshFormatError("bad face index", path, lines[k + 1])
        if not all(_MIN_INDEX <= i <= _MAX_INDEX for i in indices):
            raise MeshFormatError("face index out of range", path, lines[k + 1])
