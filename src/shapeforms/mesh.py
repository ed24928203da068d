"""Triangle mesh container plus OBJ/OFF readers and writers.

Meshes are oriented 2-manifolds: counter-clockwise winding defines the
outward normal, every edge touches at most two triangles, and the dual
graph of triangles is a single connected component. These properties are
checked on construction since everything downstream relies on them. A
mesh file's suffix, ``.obj`` or ``.off`` in any case, chooses its format.
"""

import hashlib

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from .errors import DegenerateGeometryError, MeshFormatError, MeshTopologyError

# A triangle is degenerate when its area falls below this fraction of the
# squared bounding-box diagonal.
DEGENERATE_AREA_FACTOR = 1e-12

# The largest face index a file may give: triangles are stored as int64.
_MAX_INDEX = np.iinfo(np.int64).max


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
        self._validate()
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
        return TriangleMesh(v, self.triangles)

    def _validate(self):
        m = self.n_triangles
        if m == 0:
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

        areas = self.triangle_areas()
        threshold = DEGENERATE_AREA_FACTOR * self.bbox_diagonal**2
        if np.any(areas <= threshold):
            bad = int(np.argmin(areas))
            raise DegenerateGeometryError(
                f"triangle {bad} has area {areas[bad]:.3g} below threshold "
                f"{threshold:.3g}"
            )

        pairs, _ = _dual_edges(tri, self.n_vertices)
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

    Vertex order is preserved. A parse error is a ``MeshFormatError`` with
    its line number where one applies; an invalid mesh's error names the path.
    """
    path = str(path)
    read = _read_obj if _suffix(path) == ".obj" else _read_off
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshFormatError(str(exc), path=path) from exc
    vertices, triangles = read(lines, path)
    try:
        return TriangleMesh(vertices, triangles)
    except (MeshTopologyError, DegenerateGeometryError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def save_mesh(mesh, path, vertex_scalars=None):
    """Write ``mesh`` as OBJ or OFF text, chosen by the file suffix, with
    full float precision.

    ``vertex_scalars`` (OBJ only) appends one extra column to each vertex
    line, e.g. for thickness maps picked up by downstream visualization.
    """
    path = str(path)
    obj = _suffix(path) == ".obj"
    tails = [""] * mesh.n_vertices
    if vertex_scalars is not None:
        if not obj:
            raise MeshFormatError("vertex scalars are only supported for OBJ", path=path)
        vertex_scalars = np.asarray(vertex_scalars, dtype=float)
        if vertex_scalars.shape != (mesh.n_vertices,):
            raise MeshFormatError(f"expected {mesh.n_vertices} vertex scalars, "
                                  f"got shape {vertex_scalars.shape}", path=path)
        tails = [f" {s:.17g}" for s in vertex_scalars.tolist()]
    # OBJ tags its lines and counts from 1; OFF starts with its counts.
    prefix, face, base = ("v ", "f", 1) if obj else ("", "3", 0)
    with open(path, "w", encoding="utf-8") as handle:
        if not obj:
            handle.write(f"OFF\n{mesh.n_vertices} {mesh.n_triangles} 0\n")
        for (x, y, z), tail in zip(mesh.vertices.tolist(), tails):
            handle.write(f"{prefix}{x:.17g} {y:.17g} {z:.17g}{tail}\n")
        for a, b, c in (mesh.triangles + base).tolist():
            handle.write(f"{face} {a} {b} {c}\n")


def _read_obj(lines, path):
    """Vertex and face arrays of OBJ text. Comments are whole lines."""
    vertices, faces = [], []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "v":
            if len(parts) < 4:
                raise MeshFormatError("vertex needs 3 coordinates", path, lineno)
            try:
                vertices.append([float(x) for x in parts[1:4]])
            except ValueError as exc:
                raise MeshFormatError(f"bad coordinate: {exc}", path, lineno)
        elif parts[0] == "f":
            if len(parts) != 4:
                raise MeshFormatError("only triangular faces are supported "
                                      f"(got {len(parts) - 1} corners)", path, lineno)
            idx = []
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
                idx.append(value - 1)
            faces.append(idx)
        # Other OBJ keywords (vn, vt, o, g, s, usemtl, ...) are ignored.
    if not vertices:
        raise MeshFormatError("no vertices found", path=path)
    return np.array(vertices), np.array(faces, dtype=np.int64)


def _read_off(lines, path):
    """Vertex and face arrays of OFF text. Comments run from ``#`` to the
    end of the line; the header's edge count is not read."""
    # The (lineno, token) stream with comments stripped.
    tokens = [(lineno, token) for lineno, raw in enumerate(lines, start=1)
              for token in raw.split("#", 1)[0].split()]
    if not tokens:
        raise MeshFormatError("empty file", path=path)
    pos = 1 if tokens[0][1].upper() == "OFF" else 0

    def take(count, what):
        nonlocal pos
        if pos + count > len(tokens):
            raise MeshFormatError(f"unexpected end of file while reading {what}", path)
        chunk = tokens[pos : pos + count]
        pos += count
        return chunk

    header = take(3, "counts")
    try:
        n_vertices, n_faces = int(header[0][1]), int(header[1][1])
    except ValueError:
        raise MeshFormatError("bad count line", path, header[0][0])
    if n_vertices < 0 or n_faces < 0:
        raise MeshFormatError("negative count", path, header[0][0])
    # A vertex takes 3 tokens and a triangle 4: refuse counts the file
    # cannot hold before allocating for them.
    needed, held = 3 * n_vertices + 4 * n_faces, len(tokens) - pos
    if needed > held:
        raise MeshFormatError(f"{n_vertices} vertices and {n_faces} faces need "
                              f"{needed} tokens, the file holds {held}",
                              path, header[0][0])

    vertices = np.empty((n_vertices, 3))
    for i in range(n_vertices):
        chunk = take(3, f"vertex {i}")
        try:
            vertices[i] = [float(t) for _, t in chunk]
        except ValueError:
            raise MeshFormatError("bad vertex coordinate", path, chunk[0][0])

    faces = np.empty((n_faces, 3), dtype=np.int64)
    for i in range(n_faces):
        (lineno, count_token) = take(1, f"face {i}")[0]
        try:
            corners = int(count_token)
        except ValueError:
            raise MeshFormatError("bad face corner count", path, lineno)
        if corners != 3:
            raise MeshFormatError("only triangular faces are supported "
                                  f"(got {corners})", path, lineno)
        chunk = take(3, f"face {i}")
        try:
            faces[i] = [int(t) for _, t in chunk]
        except ValueError:
            raise MeshFormatError("bad face index", path, chunk[0][0])
        except OverflowError:
            raise MeshFormatError("face index out of range", path, chunk[0][0])
    return vertices, faces
