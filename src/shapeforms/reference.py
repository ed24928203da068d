"""Precomputed geometry and combinatorics of a reference shape.

Everything that depends only on the reference mesh lives here: per-triangle
orthonormal frames, areas, the inner-edge list with its canonical order,
neighbor lists, the dual-graph spanning tree used to seed reconstruction,
and the inverse edge matrices that turn a deformed mesh into per-triangle
deformation gradients.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import breadth_first_order

from .errors import MeshTopologyError
from .mesh import TriangleMesh, _dual_edges


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
    edge_areas : ndarray
        ``(E,)`` edge weights ``(A_i + A_j) / 3``.
    edge_shared_vertices : ndarray
        ``(E, 2)`` endpoint vertex indices of each shared edge.
    neighbor_counts : ndarray
        ``(m,)`` number of triangles adjacent to each triangle.
    spanning_tree : ndarray
        ``(m - 1, 2)`` dual-graph tree edges ``(parent, child)`` in
        breadth-first visit order from triangle 0, the root: the
        ``scipy.sparse.csgraph.breadth_first_order`` of the dual adjacency
        in CSR form, whose rows list the adjacent triangles in ascending
        order.
    tree_edge_indices : ndarray
        ``(m - 1,)`` inner-edge index of each spanning-tree edge.
    tree_depths : ndarray
        ``(m - 1,)`` breadth-first depth of each tree edge's child, so
        non-decreasing; the edges of one depth form a contiguous run.
    grad_inverses : ndarray
        ``(m, 3, 3)`` inverses of ``[e1, e2, n]`` used by
        :func:`deformation_gradients`, in closed form: the rows are
        ``(e2 x n) / |e1 x e2|``, ``(n x e1) / |e1 x e2|`` and ``n``.
    """

    mesh: TriangleMesh
    frames: np.ndarray
    tri_areas: np.ndarray
    total_area: float
    inner_edges: np.ndarray
    edge_areas: np.ndarray
    total_edge_area: float
    edge_shared_vertices: np.ndarray
    neighbor_counts: np.ndarray
    spanning_tree: np.ndarray
    tree_edge_indices: np.ndarray
    tree_depths: np.ndarray
    grad_inverses: np.ndarray
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


def build_reference(mesh):
    """Precompute all reference-shape quantities for ``mesh``.

    The frame convention and the breadth-first spanning tree from triangle
    0 (neighbors visited in ascending index order) are fixed so that equal
    input bytes give equal outputs. The tree is the csgraph breadth-first
    order over the CSR dual adjacency, and its depths are the unweighted
    distances from triangle 0.
    """
    m = mesh.n_triangles
    # One edge-vector pass gives the areas, normals, frames and inverses.
    e1, e2 = mesh.edge_vectors()
    cross = np.cross(e1, e2)
    norms = np.linalg.norm(cross, axis=1)
    tri_areas = 0.5 * norms
    total_area = float(tri_areas.sum())
    normal = cross / norms[:, None]
    t1 = e1 / np.linalg.norm(e1, axis=1, keepdims=True)
    frames = np.stack((t1, np.cross(normal, t1), normal), axis=-1)
    # The rows of [e1, e2, n]^-1: its determinant is (e1 x e2) . n = |e1 x e2|.
    grad_inverses = np.stack(
        (np.cross(e2, normal) / norms[:, None],
         np.cross(normal, e1) / norms[:, None], normal), axis=1
    )

    pairs, shared = _dual_edges(mesh.triangles, mesh.n_vertices)
    keys = pairs[:, 0] * m + pairs[:, 1]
    order = np.argsort(keys, kind="stable")
    inner_edges, shared, edge_keys = pairs[order], shared[order], keys[order]
    edge_areas = (tri_areas[inner_edges[:, 0]] + tri_areas[inner_edges[:, 1]]) / 3.0
    total_edge_area = float(edge_areas.sum())

    # Symmetric dual adjacency as CSR rows in ascending neighbor order.
    src = np.concatenate((inner_edges[:, 0], inner_edges[:, 1]))
    dst = np.concatenate((inner_edges[:, 1], inner_edges[:, 0]))
    dst = dst[np.argsort(src * m + dst)]
    neighbor_counts = np.bincount(src, minlength=m)
    indptr = np.concatenate(([0], np.cumsum(neighbor_counts)))
    adjacency = scipy.sparse.csr_matrix((np.ones(dst.size), dst, indptr), shape=(m, m))

    # Breadth-first from triangle 0 over the ascending CSR rows; a validated
    # mesh has a connected dual graph, so every triangle is reached.
    visit, parent = breadth_first_order(
        adjacency, 0, directed=True, return_predecessors=True
    )
    children = visit[1:].astype(np.int64)
    tree = np.stack((parent[children].astype(np.int64), children), axis=1)
    # Depths by pointer jumping: hops[i] counts the tree edges from i up to
    # up[i], and each round doubles the reach until all point at triangle 0.
    up = np.maximum(parent, 0)
    hops = np.ones(m, dtype=np.int64)
    hops[0] = 0
    while np.any(up):
        hops += hops[up]
        up = up[up]
    tree_depths = hops[children]
    tree_edge_indices = np.searchsorted(
        edge_keys, tree.min(axis=1) * m + tree.max(axis=1)
    )

    return ReferenceGeometry(
        mesh=mesh,
        frames=frames,
        tri_areas=tri_areas,
        total_area=total_area,
        inner_edges=inner_edges,
        edge_areas=edge_areas,
        total_edge_area=total_edge_area,
        edge_shared_vertices=shared,
        neighbor_counts=neighbor_counts,
        spanning_tree=tree,
        tree_edge_indices=tree_edge_indices,
        tree_depths=tree_depths,
        grad_inverses=grad_inverses,
        content_hash=mesh.content_hash(),
    )


def deformation_gradients(ref, mesh):
    """Per-triangle linear maps carrying the reference onto ``mesh``.

    Each gradient maps the two reference edge vectors onto the deformed
    ones and the reference unit normal onto the deformed unit normal, so
    it is invertible and independent of translation.

    Raises
    ------
    MeshTopologyError
        If ``mesh`` does not share the reference triangle list.
    """
    if not np.array_equal(mesh.triangles, ref.mesh.triangles):
        raise MeshTopologyError("mesh and reference have different triangle lists")
    e1, e2 = mesh.edge_vectors()
    cross = np.cross(e1, e2)
    # A TriangleMesh has no degenerate triangle, so every norm is positive.
    normals = cross / np.linalg.norm(cross, axis=1)[:, None]
    target = np.stack((e1, e2, normals), axis=-1)
    return target @ ref.grad_inverses
