"""Helpers that only the tests use: exact references, inverse maps and
group operations the library itself does not need, built on its
primitives."""

import numpy as np

from shapeforms.errors import MeshTopologyError, ReferenceMismatchError
from shapeforms.evaluation import generalization_curve
from shapeforms.flattening import _unfold_rotations
from shapeforms.liegroups import (
    _check_cut_locus,
    _entries,
    _exp_quaternions,
    _quaternion_angle,
    _quaternions,
    spd2_exp,
    spd2_log,
)
from shapeforms.mesh import TriangleMesh
from shapeforms.representation import (
    DistanceParams,
    TangentRep,
    _coordinate_weights,
    _exp_distances,
    _tangent_size,
)


def relative_angle(Q, R):
    """Rotation angle in ``[0, pi]`` of ``Q^T R``, without forming it:
    ``_quaternion_angle`` of the unit quaternions of ``Q`` and ``R``, each
    converted at its own shape. ``Q`` and ``R`` broadcast against each
    other. No cut-locus check."""
    return _quaternion_angle(_quaternions(_entries(Q)), _quaternions(_entries(R)))


def so3_distance(Q, R):
    """Geodesic distance ``sqrt(2) * angle(Q^T R)`` of the bi-invariant
    metric on rotations, the Frobenius norm of the logarithm of ``Q^T R``;
    raises ``CutLocusError`` at (numerical) angle pi."""
    theta = relative_angle(Q, R)
    _check_cut_locus(theta, "relative rotation")
    return np.sqrt(2.0) * theta


def so3_angle(R):
    """Rotation angle in ``[0, pi]`` of ``(..., 3, 3)`` rotations ``R``, a
    test-only reference independent of the library's quaternion kernels:
    ``arctan2`` of the norm of the axial vector of the antisymmetric part,
    ``sin(theta)``, against ``cos(theta) = (tr R - 1) / 2``."""
    R = np.asarray(R, dtype=float)
    x = 0.5 * (R[..., 2, 1] - R[..., 1, 2])
    y = 0.5 * (R[..., 0, 2] - R[..., 2, 0])
    z = 0.5 * (R[..., 1, 0] - R[..., 0, 1])
    cos_theta = 0.5 * ((R[..., 0, 0] + R[..., 1, 1] + R[..., 2, 2]) - 1.0)
    return np.arctan2(np.sqrt(x * x + y * y + z * z), cos_theta)


def times_transpose(s, b):
    """Row-major entries ``(9, ...)`` of ``S @ B^T`` from the entries of
    ``S`` and ``B``; the leading shapes broadcast."""
    out = np.empty((9,) + np.broadcast_shapes(s.shape[1:], b.shape[1:]))
    for i in range(3):
        for j in range(3):
            out[3 * i + j] = (s[3 * i] * b[3 * j] + s[3 * i + 1] * b[3 * j + 1]
                              + s[3 * i + 2] * b[3 * j + 2])
    return out


def spd2_mul(U, V):
    """Commutative log-Euclidean group product ``exp(log U + log V)``."""
    return spd2_exp(spd2_log(U) + spd2_log(V))


def spd2_distance(U, V):
    """Flat distance ``|log V - log U|_F`` of the log-Euclidean structure."""
    return np.linalg.norm(spd2_log(V) - spd2_log(U), axis=(-2, -1))


def rep_inner(ref, params, v, w):
    """Metric inner product of two tangent vectors at a shared base."""
    if v.base_hash != w.base_hash:
        raise ReferenceMismatchError("tangent vectors have different base points")
    return float((_coordinate_weights(ref, params) * v.coordinates) @ w.coordinates)


def rep_norm(ref, params, v):
    """Metric norm of a tangent vector."""
    return float(np.sqrt(max(rep_inner(ref, params, v, v), 0.0)))


def embed_stretch(ref, i, stretch2):
    """Lift the tangential 2x2 stretches of triangles ``i`` to 3x3, with unit
    stretch along the normal."""
    stretch2 = np.asarray(stretch2, dtype=float)
    padded = np.zeros(stretch2.shape[:-2] + (3, 3))
    padded[..., :2, :2] = stretch2
    padded[..., 2, 2] = 1.0
    F = ref.frames[i]
    return F @ padded @ np.swapaxes(F, -1, -2)


def unfold_rotation(ref, edge):
    """Rotation about the shared edge folding triangle ``j`` into the plane
    of triangle ``i`` for the inner edge ``(i, j)``."""
    i, j = edge
    return _unfold_rotations(ref, [edge_index(ref, i, j)], [i], [j])[0]


def edge_index(ref, i, j):
    """Position of the inner edge between triangles ``i`` and ``j`` in
    ``ref.inner_edges``; ``MeshTopologyError`` if they share none."""
    lo, hi = min(i, j), max(i, j)
    hits = np.nonzero((ref.inner_edges[:, 0] == lo) & (ref.inner_edges[:, 1] == hi))[0]
    if hits.size == 0:
        raise MeshTopologyError(f"triangles {i} and {j} do not share an edge")
    return int(hits[0])


def zero_tangent(base):
    """The zero tangent vector at the representation ``base``."""
    return TangentRep._from_coordinates(
        np.zeros(_tangent_size(base)), base.n_edges,
        base.content_hash())


def add_tangents(v, w):
    """Sum of two tangent vectors at the same base."""
    if v.base_hash != w.base_hash:
        raise ReferenceMismatchError("tangent vectors have different base points")
    return TangentRep._from_coordinates(v.coordinates + w.coordinates, v.n_edges,
                                        v.base_hash)


def gradients(system, X):
    """Deformation gradients ``(m, 3, 3)`` of the stacked positions ``X`` of
    a :class:`PoissonSystem`."""
    return system.gradient_rows(X).reshape(system.n_triangles, 3, 3).transpose(0, 2, 1)


def generalization(ref, reps, modes, params=DistanceParams(), metric="intrinsic"):
    """Leave-one-out error for one mode count."""
    return float(generalization_curve(ref, reps, max_modes=modes, params=params,
                                      metric=metric)[modes - 1])


def tangent_distances(vectors, relative, stretch_logs, weights):
    """Distances of the shapes ``exp_mu(v)`` to target shapes ``t``, from
    the :class:`TangentRep` coordinates ``(..., 3E + 3m)`` of the ``v``:
    ``_exp_distances`` of the quaternions of the rotations ``exp(v_e)``,
    with its targets and weights. The leading shapes broadcast, so a
    samples x targets block measures every pair: the exhaustive reference
    of the nearest-target search."""
    n_edges = relative.shape[-1]
    split = 3 * n_edges
    rot = vectors[..., :split].reshape(vectors.shape[:-1] + (n_edges, 3))
    return _exp_distances(_exp_quaternions(rot), vectors[..., split:], relative,
                          stretch_logs, weights)


def exhaustive_nearest_distances(a, matrix, targets, weights):
    """What ``evaluation._nearest_distances`` yields, in one block, by
    measuring every target: the smallest :func:`tangent_distances` of each
    shape ``exp_mu(a @ matrix)``."""
    vectors = a @ matrix
    yield tangent_distances(vectors[:, None], *targets[:2], weights).min(axis=1)


def pdm_synthesize(model, coeffs):
    """Vertex configuration ``(V, 3)`` of a point-distribution model for a
    coefficient vector."""
    coeffs = np.asarray(coeffs, dtype=float)
    flat = model.mean_vertices.reshape(-1) + coeffs @ model.components[: coeffs.size]
    return flat.reshape(-1, 3)


def skew(xi):
    """Map vectors ``(..., 3)`` to skew-symmetric matrices ``(..., 3, 3)``."""
    xi = np.asarray(xi, dtype=float)
    K = np.zeros(xi.shape[:-1] + (3, 3))
    K[..., 0, 1] = -xi[..., 2]
    K[..., 0, 2] = xi[..., 1]
    K[..., 1, 0] = xi[..., 2]
    K[..., 1, 2] = -xi[..., 0]
    K[..., 2, 0] = -xi[..., 1]
    K[..., 2, 1] = xi[..., 0]
    return K


def unskew(K):
    """Inverse of :func:`skew`; uses the antisymmetric part of ``K``."""
    K = np.asarray(K, dtype=float)
    return 0.5 * np.stack(
        (
            K[..., 2, 1] - K[..., 1, 2],
            K[..., 0, 2] - K[..., 2, 0],
            K[..., 1, 0] - K[..., 0, 1],
        ),
        axis=-1,
    )


def flatten_tangent(ref, params, v):
    """Isometric embedding of a tangent vector into flat coordinates.

    The Euclidean inner product of two embedded vectors equals
    :func:`rep_inner`, which turns Gram matrices
    and projections into plain linear algebra.
    """
    return v.coordinates * np.sqrt(_coordinate_weights(ref, params))


def unflatten_tangent(ref, params, vec, base_hash):
    """Inverse of :func:`flatten_tangent`."""
    return TangentRep._from_coordinates(
        vec / np.sqrt(_coordinate_weights(ref, params)), ref.n_inner_edges, base_hash)


def needle_mesh(mesh, triangle, length=100.0):
    """``mesh`` with the last vertex of ``triangle`` moved ``length`` along
    the line through its other two and off it by ``2e-11 length^2``.

    The triangle becomes a needle whose deformation gradient has a
    singular-value ratio of about ``1e-11``: below the ``1e-10`` that
    ``polar3`` accepts, while its area stays above the degenerate-triangle
    threshold of ``deformation_gradients``.
    """
    a, b, p = mesh.triangles[triangle]
    vertices = mesh.vertices.copy()
    u = vertices[b] - vertices[a]
    u /= np.linalg.norm(u)
    off = np.cross(u, np.cross(vertices[p] - vertices[a], u))
    off /= np.linalg.norm(off)
    vertices[p] = vertices[a] + length * u + 2e-11 * length**2 * off
    return TriangleMesh(vertices, mesh.triangles)


def analytic_cylinder_development(n_u=20, n_v=30, radius=1.0, height=2.0,
                                  wedge=1.5 * np.pi):
    """Exact development of :func:`shapeforms.synthetic.cylinder_patch`
    into the plane.

    The chordal cylinder is intrinsically flat; unrolling it face by face
    places ring ``j`` at ``x = j * chord`` where ``chord`` is the chord
    length between adjacent rings. Returned vertices match the patch's
    vertex order.
    """
    chord = 2.0 * radius * np.sin(0.5 * wedge / n_v)
    us = np.linspace(0.0, height, n_u + 1)
    xs = chord * np.arange(n_v + 1)
    uu, xx = np.meshgrid(us, xs, indexing="ij")
    return np.stack([xx, uu], axis=-1).reshape(-1, 2)


#: Stopping rules that ``frechet_mean`` and ``pdm_fit`` refuse, which take
#: at least one step, with the start of the ``ValueError`` message.
INVALID_STOPPING_RULES = [
    (dict(max_iter=0), "max_iter must be a positive integer, got 0"),
    (dict(max_iter=-3), "max_iter must be a positive integer, got -3"),
    (dict(max_iter=2.5), "max_iter must be a positive integer, got 2.5"),
    (dict(tol=-1.0), "tol must be positive and finite, got -1.0"),
    (dict(tol=0.0), "tol must be positive and finite, got 0.0"),
    (dict(tol=float("nan")), "tol must be positive and finite, got nan"),
    (dict(tol=float("inf")), "tol must be positive and finite, got inf"),
]
