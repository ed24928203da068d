"""Quasi-isometric flattening via projection onto the flat submanifold.

Planar immersions of the reference are exactly the representations with
identity stretches and transition rotations that keep the frame normal
fixed. Projecting a reference there is cheap: keep the metric part at the
identity and replace each transition rotation by the unfolding rotation of
its edge expressed in the reference frames. Reconstruction of the
projected representation then produces the flattening; for developable
patches it is an exact isometry of the mesh, otherwise the Poisson solve
spreads the unavoidable distortion smoothly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import MeshTopologyError
from .liegroups import so3_exp
from .mesh import unique_edges
from .reconstruction import DEFAULT_MAX_ITER, DEFAULT_TOL, reconstruct
from .representation import ShapeRep, _write_json


@dataclass
class FlatteningReport:
    """Distortion summary of one flattening.

    ``planarity_residual`` is the largest out-of-plane coordinate relative
    to the bounding-box diagonal before the residual coordinate is
    dropped. Edge distortions are relative length changes against the
    reference; area distortions relative triangle-area changes.
    ``iterations`` and ``converged`` are those of the reconstruction that
    produced the chart; :meth:`save` writes only the distortions.
    """

    planarity_residual: float
    edge_distortions: np.ndarray
    area_distortions: np.ndarray
    iterations: int
    converged: bool

    @property
    def max_edge_distortion(self):
        return float(self.edge_distortions.max())

    @property
    def mean_edge_distortion(self):
        return float(self.edge_distortions.mean())

    @property
    def max_area_distortion(self):
        return float(self.area_distortions.max())

    def save(self, path):
        payload = {
            "planarity_residual": self.planarity_residual,
            "max_edge_distortion": self.max_edge_distortion,
            "mean_edge_distortion": self.mean_edge_distortion,
            "max_area_distortion": self.max_area_distortion,
            "edge_distortions": self.edge_distortions,
            "area_distortions": self.area_distortions,
        }
        _write_json(path, payload)


def _row_dots(p, q):
    # Stacked (1 x 3)(3 x 1) products run the same BLAS dot as ``np.dot``
    # on single vectors, so the batched result keeps its last bits.
    return (p[:, None, :] @ q[:, :, None])[:, 0, 0]


def _unfold_rotations(ref, e, i, j):
    """Unfolding rotations of inner edges ``e`` for the ordered pairs
    ``(i, j)``, each folding triangle ``j`` into the plane of ``i``."""
    a, b = ref.edge_shared_vertices[e].T
    axis = ref.mesh.vertices[b] - ref.mesh.vertices[a]
    axis = axis / np.sqrt(_row_dots(axis, axis))[:, None]
    normals = ref.frames[:, :, 2]
    ni, nj = normals[i], normals[j]
    # Signed dihedral angle from n_j to n_i about the edge direction; the
    # sign flips together with the axis, so the rotation is well-defined.
    angle = np.arctan2(_row_dots(np.cross(nj, ni), axis), _row_dots(nj, ni))
    return so3_exp(axis * angle[:, None])


def flat_projection(ref):
    """Closest-flat representation of the reference.

    Identity stretches everywhere; the transition rotation of edge
    ``(i, j)`` becomes ``F_i^T R_unfold F_j``, which fixes the frame
    normal axis (a planar transition).
    """
    i, j = ref.inner_edges.T
    unfold = _unfold_rotations(ref, np.arange(ref.n_inner_edges), i, j)
    F = ref.frames
    rotations = np.swapaxes(F[i], -1, -2) @ unfold @ F[j]
    stretches = np.broadcast_to(np.eye(2), (ref.n_triangles, 2, 2)).copy()
    return ShapeRep(rotations, stretches, ref.content_hash)


def flatten(ref, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, system=None):
    """Flatten the reference into the plane.

    Closed surfaces carry curvature that no planar immersion can absorb,
    so meshes without boundary are rejected; cut them first.

    Returns
    -------
    (TriangleMesh, FlatteningReport)
        The flattened mesh with its third coordinate set to zero (the
        chart puts triangle 0, the root of the spanning tree, into the
        z = 0 plane with its first frame axis along +x), plus the
        distortion report. A chart whose reconstruction stopped at
        ``max_iter`` is still returned, with ``report.converged`` false.

    Raises
    ------
    ValueError
        If ``tol`` or ``max_iter`` is invalid, as for :func:`reconstruct`.
    """
    if not ref.has_boundary:
        raise MeshTopologyError(
            "closed surface: flattening needs an open mesh, provide a cut"
        )
    rep = flat_projection(ref)
    mesh, solve = reconstruct(ref, rep, tol=tol, max_iter=max_iter, system=system)

    # The chart of triangle 0: its reference frame becomes the coordinate frame.
    vertices = mesh.vertices @ ref.frames[0]
    vertices = vertices - vertices[ref.mesh.triangles[0]].mean(axis=0)

    planarity = float(np.abs(vertices[:, 2]).max() / ref.mesh.bbox_diagonal)
    vertices[:, 2] = 0.0
    flat_mesh = ref.mesh._with_vertices(vertices)

    edges = unique_edges(ref.mesh.triangles)
    ref_len = np.linalg.norm(
        ref.mesh.vertices[edges[:, 0]] - ref.mesh.vertices[edges[:, 1]], axis=1
    )
    flat_len = np.linalg.norm(
        vertices[edges[:, 0]] - vertices[edges[:, 1]], axis=1
    )
    edge_distortions = np.abs(flat_len - ref_len) / ref_len
    area_distortions = (
        np.abs(flat_mesh.triangle_areas() - ref.tri_areas) / ref.tri_areas
    )
    report = FlatteningReport(
        planarity_residual=planarity,
        edge_distortions=edge_distortions,
        area_distortions=area_distortions,
        iterations=solve.iterations,
        converged=solve.converged,
    )
    return flat_mesh, report
