"""Triangle mesh container plus OBJ/OFF readers and writers.

Meshes are oriented 2-manifolds: counter-clockwise winding defines the
outward normal, every edge touches at most two triangles, and the dual
graph of triangles is a single connected component. These properties are
checked on construction since everything downstream relies on them.
"""

import hashlib

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from .errors import DegenerateGeometryError, MeshFormatError, MeshTopologyError

# A triangle is degenerate when its area falls below this fraction of the
# squared bounding-box diagonal.
DEGENERATE_AREA_FACTOR = 1e-12


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

        # Consistent winding: no directed edge may appear twice. Then no
        # undirected edge can touch more than two triangles either, since
        # two of any three would traverse it in the same direction.
        directed = np.concatenate(
            [tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]], axis=0
        )
        keys = directed[:, 0] * self.n_vertices + directed[:, 1]
        if np.unique(keys).size != keys.size:
            raise MeshTopologyError(
                "duplicated directed edge: non-manifold or inconsistent winding"
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


def _dual_edges(triangles, n_vertices):
    """Edges shared by two triangles of a mesh with consistent winding.

    Returns ``(pairs, shared)``: the ``(E, 2)`` triangle indices ``i < j``
    and the ``(E, 2)`` vertex indices ``lo < hi`` of each shared edge, in
    ascending order of its key ``lo * n_vertices + hi``.
    """
    m = triangles.shape[0]
    corners = np.concatenate(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]], axis=0
    )
    lo = corners.min(axis=1)
    hi = corners.max(axis=1)
    keys = lo * n_vertices + hi
    order = np.argsort(keys)
    sorted_keys = keys[order]
    # The two rows of a shared edge are adjacent in key order; row ``k`` of
    # ``corners`` belongs to triangle ``k % m``.
    run = np.flatnonzero(sorted_keys[1:] == sorted_keys[:-1])
    first, second = order[run], order[run + 1]
    a, b = first % m, second % m
    pairs = np.stack((np.minimum(a, b), np.maximum(a, b)), axis=1)
    shared = np.stack((lo[first], hi[first]), axis=1)
    return pairs, shared


def unique_edges(triangles):
    """All undirected edges of a triangle list as ``(E, 2)`` sorted pairs."""
    triangles = np.asarray(triangles)
    pairs = np.concatenate(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]], axis=0
    )
    lo = pairs.min(axis=1)
    hi = pairs.max(axis=1)
    return np.unique(np.stack([lo, hi], axis=1), axis=0)


def load_mesh(path, fmt=None):
    """Read a mesh from an OBJ or OFF file.

    The format is taken from the file suffix unless ``fmt`` ("obj"/"off")
    is given. Vertex order is preserved.
    """
    path = str(path)
    if fmt is None:
        lower = path.lower()
        if lower.endswith(".obj"):
            fmt = "obj"
        elif lower.endswith(".off"):
            fmt = "off"
        else:
            raise MeshFormatError("cannot infer format from suffix", path=path)
    if fmt == "obj":
        return _read_obj(path)
    if fmt == "off":
        return _read_off(path)
    raise MeshFormatError(f"unknown format {fmt!r}", path=path)


def save_mesh(mesh, path, fmt=None, vertex_scalars=None):
    """Write ``mesh`` as OBJ or OFF text with full float precision.

    ``vertex_scalars`` (OBJ only) appends one extra column to each vertex
    line, e.g. for thickness maps picked up by downstream visualization.
    """
    path = str(path)
    if fmt is None:
        lower = path.lower()
        fmt = "obj" if lower.endswith(".obj") else "off" if lower.endswith(".off") else None
    if fmt == "obj":
        _write_obj(mesh, path, vertex_scalars)
    elif fmt == "off":
        if vertex_scalars is not None:
            raise MeshFormatError("vertex scalars are only supported for OBJ", path=path)
        _write_off(mesh, path)
    else:
        raise MeshFormatError("cannot infer format from suffix", path=path)


def _read_obj(path):
    vertices = []
    faces = []
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise MeshFormatError(str(exc), path=path) from exc
    with handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            tag = parts[0]
            if tag == "v":
                if len(parts) < 4:
                    raise MeshFormatError("vertex needs 3 coordinates", path, lineno)
                try:
                    vertices.append([float(x) for x in parts[1:4]])
                except ValueError as exc:
                    raise MeshFormatError(f"bad coordinate: {exc}", path, lineno)
            elif tag == "f":
                if len(parts) != 4:
                    raise MeshFormatError(
                        f"only triangular faces are supported (got {len(parts) - 1} corners)",
                        path,
                        lineno,
                    )
                idx = []
                for token in parts[1:]:
                    head = token.split("/")[0]
                    try:
                        value = int(head)
                    except ValueError as exc:
                        raise MeshFormatError(f"bad face index {token!r}", path, lineno)
                    if value <= 0:
                        raise MeshFormatError(
                            f"face index {value} is not positive (OBJ is 1-based)",
                            path,
                            lineno,
                        )
                    idx.append(value - 1)
                faces.append(idx)
            # Other OBJ keywords (vn, vt, o, g, s, usemtl, ...) are ignored.
    if not vertices:
        raise MeshFormatError("no vertices found", path=path)
    try:
        return TriangleMesh(np.array(vertices), np.array(faces, dtype=np.int64))
    except (MeshTopologyError, DegenerateGeometryError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _read_off(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise MeshFormatError(str(exc), path=path) from exc

    tokens = []  # (lineno, token) stream with comments stripped
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            for token in text.split():
                tokens.append((lineno, token))
    if not tokens:
        raise MeshFormatError("empty file", path=path)

    pos = 0
    if tokens[0][1].upper() == "OFF":
        pos = 1

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
            raise MeshFormatError(
                f"only triangular faces are supported (got {corners})", path, lineno
            )
        chunk = take(3, f"face {i}")
        try:
            faces[i] = [int(t) for _, t in chunk]
        except ValueError:
            raise MeshFormatError("bad face index", path, chunk[0][0])

    try:
        return TriangleMesh(vertices, faces)
    except (MeshTopologyError, DegenerateGeometryError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _write_obj(mesh, path, vertex_scalars=None):
    if vertex_scalars is not None:
        vertex_scalars = np.asarray(vertex_scalars, dtype=float)
        if vertex_scalars.shape != (mesh.n_vertices,):
            raise MeshFormatError(
                f"expected {mesh.n_vertices} vertex scalars, "
                f"got shape {vertex_scalars.shape}",
                path=path,
            )
    with open(path, "w", encoding="utf-8") as handle:
        for i, v in enumerate(mesh.vertices):
            line = f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}"
            if vertex_scalars is not None:
                line += f" {vertex_scalars[i]:.17g}"
            handle.write(line + "\n")
        for t in mesh.triangles:
            handle.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")


def _write_off(mesh, path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("OFF\n")
        handle.write(f"{mesh.n_vertices} {mesh.n_triangles} 0\n")
        for v in mesh.vertices:
            handle.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for t in mesh.triangles:
            handle.write(f"3 {t[0]} {t[1]} {t[2]}\n")
