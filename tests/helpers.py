"""Helpers that only the tests use: exact references and inverse maps the
library itself does not need."""

import numpy as np

from shapeforms.representation import TangentRep, _sym_to_triples, _triples_to_sym


def unskew(K):
    """Inverse of :func:`shapeforms.liegroups.skew`; uses the antisymmetric
    part of ``K``."""
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
    :func:`shapeforms.representation.rep_inner`, which turns Gram matrices
    and projections into plain linear algebra.
    """
    omega = params.omega
    parts = []
    if ref.n_inner_edges:
        w_rot = np.sqrt(2.0 * omega**3 / ref.total_edge_area * ref.edge_areas)
        parts.append((v.rot_part * w_rot[:, None]).reshape(-1))
    w_spd = np.sqrt(omega / ref.total_area * ref.tri_areas)
    sym = _sym_to_triples(v.stretch_part) * [1.0, np.sqrt(2.0), 1.0]
    parts.append((sym * w_spd[:, None]).reshape(-1))
    return np.concatenate(parts)


def unflatten_tangent(ref, params, vec, base_hash):
    """Inverse of :func:`flatten_tangent`."""
    omega = params.omega
    E = ref.n_inner_edges
    rot = np.zeros((E, 3))
    offset = 0
    if E:
        w_rot = np.sqrt(2.0 * omega**3 / ref.total_edge_area * ref.edge_areas)
        rot = vec[: 3 * E].reshape(E, 3) / w_rot[:, None]
        offset = 3 * E
    w_spd = np.sqrt(omega / ref.total_area * ref.tri_areas)
    sym = vec[offset:].reshape(-1, 3) / w_spd[:, None]
    sym[:, 1] /= np.sqrt(2.0)
    return TangentRep(rot, _triples_to_sym(sym), base_hash)


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
