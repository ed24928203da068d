"""Precomputed geometry and combinatorics of a reference shape.

Everything that depends only on the reference mesh lives here: per-triangle
orthonormal frames, areas, the inner-edge list with its canonical order,
neighbor lists, the dual-graph spanning tree used to seed reconstruction,
and the inverse edge matrices that turn a deformed mesh into per-triangle
deformation gradients.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometryError, MeshTopologyError
from .mesh import TriangleMesh


@dataclass(frozen=True)
class ReferenceGeometry:
    """Reference shape with all derived quantities, immutable after build.

    Attributes
    ----------
    mesh : TriangleMesh
        The reference triangulation.
    frames : ndarray
        ``(m, 3, 3)`` orthonormal frames; column 0 is the normalized first
        triangle edge, column 2 the unit normal, column 1 their cross
        product (normal x edge).
    tri_areas : ndarray
        ``(m,)`` triangle areas.
    inner_edges : ndarray
        ``(E, 2)`` triangle pairs ``(i, j)`` with ``i < j``, sorted
        lexicographically.
    edge_keys : ndarray
        ``(E,)`` ascending keys ``i * m + j`` of ``inner_edges``, searched
        by :meth:`edge_index`.
    edge_areas : ndarray
        ``(E,)`` edge weights ``(A_i + A_j) / 3``.
    edge_shared_vertices : ndarray
        ``(E, 2)`` endpoint vertex indices of each shared edge.
    neighbors : tuple
        Per-triangle arrays of adjacent triangle indices, ascending.
    spanning_tree : ndarray
        ``(m - 1, 2)`` dual-graph tree edges ``(parent, child)`` in
        breadth-first visit order from seed triangle 0.
    tree_edge_indices : ndarray
        ``(m - 1,)`` inner-edge index of each spanning-tree edge.
    tree_depths : ndarray
        ``(m - 1,)`` breadth-first depth of each tree edge's child, so
        non-decreasing; the edges of one depth form a contiguous run.
    grad_inverses : ndarray
        ``(m, 3, 3)`` inverses of ``[e1, e2, n]`` used by
        :func:`deformation_gradients`.
    """

    mesh: TriangleMesh
    frames: np.ndarray
    tri_areas: np.ndarray
    total_area: float
    inner_edges: np.ndarray
    edge_keys: np.ndarray
    edge_areas: np.ndarray
    total_edge_area: float
    edge_shared_vertices: np.ndarray
    neighbors: tuple
    neighbor_counts: np.ndarray
    spanning_tree: np.ndarray
    tree_edge_indices: np.ndarray
    tree_depths: np.ndarray
    grad_inverses: np.ndarray
    seed_triangle: int = 0
    content_hash: str = field(default="")

    @property
    def n_triangles(self):
        return self.mesh.n_triangles

    @property
    def n_inner_edges(self):
        return self.inner_edges.shape[0]

    @property
    def has_boundary(self):
        # Every triangle contributes 3 edges; inner edges absorb 2 each.
        return 3 * self.n_triangles != 2 * self.n_inner_edges

    def directed_edges(self):
        """Both orientations of every inner edge.

        Returns ``(src, dst, edge_index, forward)`` where ``forward`` marks
        the stored ``i < j`` orientation; the transition rotation along a
        backward edge is the transpose of the stored one.
        """
        e = self.inner_edges
        n = e.shape[0]
        src = np.concatenate([e[:, 0], e[:, 1]])
        dst = np.concatenate([e[:, 1], e[:, 0]])
        idx = np.concatenate([np.arange(n), np.arange(n)])
        forward = np.concatenate([np.ones(n, bool), np.zeros(n, bool)])
        return src, dst, idx, forward

    def edge_index(self, i, j):
        """Position of the inner edge between triangles ``i`` and ``j``."""
        lo, hi = min(i, j), max(i, j)
        m = self.n_triangles
        if 0 <= lo and hi < m:
            key = lo * m + hi
            e = int(np.searchsorted(self.edge_keys, key))
            if e < self.edge_keys.size and self.edge_keys[e] == key:
                return e
        raise MeshTopologyError(f"triangles {i} and {j} do not share an edge")


def triangle_frames(mesh):
    """Edge-aligned orthonormal frames with the unit normal last."""
    e1, _ = mesh.edge_vectors()
    normal = mesh.triangle_normals()
    t1 = e1 / np.linalg.norm(e1, axis=1, keepdims=True)
    t2 = np.cross(normal, t1)
    return np.stack((t1, t2, normal), axis=-1)


def build_reference(mesh):
    """Precompute all reference-shape quantities for ``mesh``.

    The frame convention and the breadth-first spanning tree from triangle
    0 (neighbors visited in ascending index order) are fixed so that equal
    input bytes give equal outputs.
    """
    m = mesh.n_triangles
    frames = triangle_frames(mesh)
    tri_areas = mesh.triangle_areas()
    total_area = float(tri_areas.sum())

    inner_edges, shared = _inner_edges(mesh)
    edge_keys = inner_edges[:, 0] * m + inner_edges[:, 1]
    edge_areas = (tri_areas[inner_edges[:, 0]] + tri_areas[inner_edges[:, 1]]) / 3.0
    total_edge_area = float(edge_areas.sum())

    neighbors = [[] for _ in range(m)]
    for i, j in inner_edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    neighbors = tuple(np.array(sorted(n), dtype=np.int64) for n in neighbors)
    neighbor_counts = np.array([len(n) for n in neighbors], dtype=np.int64)

    tree, tree_depths = _bfs_tree(m, neighbors, seed=0)
    tree_edge_indices = np.searchsorted(
        edge_keys, tree.min(axis=1) * m + tree.max(axis=1)
    )

    e1, e2 = mesh.edge_vectors()
    basis = np.stack((e1, e2, mesh.triangle_normals()), axis=-1)
    grad_inverses = np.linalg.inv(basis)

    return ReferenceGeometry(
        mesh=mesh,
        frames=frames,
        tri_areas=tri_areas,
        total_area=total_area,
        inner_edges=inner_edges,
        edge_keys=edge_keys,
        edge_areas=edge_areas,
        total_edge_area=total_edge_area,
        edge_shared_vertices=shared,
        neighbors=neighbors,
        neighbor_counts=neighbor_counts,
        spanning_tree=tree,
        tree_edge_indices=tree_edge_indices,
        tree_depths=tree_depths,
        grad_inverses=grad_inverses,
        seed_triangle=0,
        content_hash=mesh.content_hash(),
    )


def _inner_edges(mesh):
    tri = mesh.triangles
    m = mesh.n_triangles
    nv = mesh.n_vertices
    corner = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]], axis=0)
    tri_ids = np.concatenate([np.arange(m)] * 3)
    lo = corner.min(axis=1)
    hi = corner.max(axis=1)
    keys = lo * nv + hi
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    tri_ids = tri_ids[order]
    lo, hi = lo[order], hi[order]

    pairs = []
    shared = []
    pos = 0
    total = keys.size
    while pos < total:
        end = pos + 1
        while end < total and keys[end] == keys[pos]:
            end += 1
        if end - pos == 2:
            a, b = int(tri_ids[pos]), int(tri_ids[pos + 1])
            pairs.append((min(a, b), max(a, b)))
            shared.append((int(lo[pos]), int(hi[pos])))
        pos = end
    if pairs:
        pairs = np.array(pairs, dtype=np.int64)
        shared = np.array(shared, dtype=np.int64)
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        return pairs[order], shared[order]
    return np.zeros((0, 2), dtype=np.int64), np.zeros((0, 2), dtype=np.int64)


def _bfs_tree(m, neighbors, seed):
    visited = np.zeros(m, dtype=bool)
    visited[seed] = True
    depth = [0] * m
    queue = [seed]
    edges = []
    head = 0
    while head < len(queue):
        current = queue[head]
        head += 1
        for nb in neighbors[current]:
            if not visited[nb]:
                visited[nb] = True
                depth[nb] = depth[current] + 1
                edges.append((current, int(nb)))
                queue.append(int(nb))
    if not visited.all():
        raise MeshTopologyError("dual graph is disconnected")
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return edges, np.array(depth, dtype=np.int64)[edges[:, 1]]


def deformation_gradients(ref, mesh):
    """Per-triangle linear maps carrying the reference onto ``mesh``.

    Each gradient maps the two reference edge vectors onto the deformed
    ones and the reference unit normal onto the deformed unit normal, so
    it is invertible and independent of translation.

    Raises
    ------
    MeshTopologyError
        If ``mesh`` does not share the reference triangle list.
    DegenerateGeometryError
        If a deformed triangle collapses.
    """
    if not np.array_equal(mesh.triangles, ref.mesh.triangles):
        raise MeshTopologyError("mesh and reference have different triangle lists")
    e1, e2 = mesh.edge_vectors()
    cross = np.cross(e1, e2)
    norms = np.linalg.norm(cross, axis=1)
    threshold = 1e-12 * mesh.bbox_diagonal**2
    if np.any(0.5 * norms <= threshold):
        bad = int(np.argmin(norms))
        raise DegenerateGeometryError(f"deformed triangle {bad} is degenerate")
    normals = cross / norms[:, None]
    target = np.stack((e1, e2, normals), axis=-1)
    return target @ ref.grad_inverses
