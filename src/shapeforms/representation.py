"""Shape encoding into a product of rotation and stretch groups.

A shape sharing the reference combinatorics is represented by one
transition rotation per inner edge (curvature information) and one 2x2
symmetric positive-definite tangential stretch per triangle (metric
information). Both ingredients are invariant under rigid motions of the
shape, so no alignment step is ever needed.

The product carries a bi-invariant metric; its weighted distance between
shapes ``s`` and ``t`` is

    d(s, t)^2 = omega^3 / A_E * sum_edges A_ij * d_rot(C_ij^s, C_ij^t)^2
              + omega   / A   * sum_tris  A_i  * d_spd(U_i^s,  U_i^t)^2

with the reference triangle areas ``A_i``, edge weights
``A_ij = (A_i + A_j) / 3``, their totals ``A`` and ``A_E``, and a positive
commensuration weight ``omega`` balancing curvature against metric
contributions.

A tangent vector at a shape is one element of the product Lie algebra:
an axis-angle vector per inner edge and a symmetric 2x2 matrix per
triangle. :class:`TangentRep` holds it as one flat array of ``3E + 4m``
coordinates, the ``E`` axis-angle vectors first and then the ``m``
row-major 2x2 matrices, so statistics on tangent vectors are plain linear
algebra on these coordinates.
"""

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ReferenceMismatchError
from .liegroups import (
    _check_cut_locus,
    _check_each,
    _entries,
    _exp_entries,
    _log_entries,
    _relative_angle_entries,
    _times_transpose,
    polar3,
    relative_angle,
    so3_exp,
    spd2_exp,
    spd2_log,
)
from .reference import deformation_gradients

#: Default commensuration weight; larger values emphasize curvature.
DEFAULT_OMEGA = 10.0


@dataclass(frozen=True)
class DistanceParams:
    """Weighting of the product metric."""

    omega: float = DEFAULT_OMEGA

    def __post_init__(self):
        if not self.omega > 0.0:
            raise ValueError(f"omega must be positive, got {self.omega}")


def _frozen(values):
    """A read-only copy of ``values`` as a C-contiguous float array."""
    out = np.array(values, dtype=float, order="C")
    out.flags.writeable = False
    return out


class ShapeRep:
    """Point in the product group: rotations per inner edge, stretches per
    triangle, bound to one reference by content hash.

    A representation is immutable. It keeps read-only copies of the arrays
    it is built from, so the caller's arrays stay writeable and later
    changes to them do not reach it. That makes it safe to compute the
    content hash and the stretch logarithms once and keep them.
    """

    def __init__(self, rotations, stretches, reference_hash):
        self.rotations = _frozen(rotations)
        self.stretches = _frozen(stretches)
        self.reference_hash = reference_hash
        if self.rotations.ndim != 3 or self.rotations.shape[1:] != (3, 3):
            raise ValueError("rotations must have shape (E, 3, 3)")
        if self.stretches.ndim != 3 or self.stretches.shape[1:] != (2, 2):
            raise ValueError("stretches must have shape (m, 2, 2)")

    @property
    def n_edges(self):
        return self.rotations.shape[0]

    @property
    def n_triangles(self):
        return self.stretches.shape[0]

    def content_hash(self):
        return self._content_hash

    @cached_property
    def _content_hash(self):
        h = hashlib.sha256()
        h.update(self.reference_hash.encode())
        h.update(self.rotations.tobytes())
        h.update(self.stretches.tobytes())
        return h.hexdigest()

    @cached_property
    def log_stretches(self):
        """Read-only ``spd2_log(stretches)``, computed on first use."""
        logs = spd2_log(self.stretches)
        logs.flags.writeable = False
        return logs

    @classmethod
    def _from_log_stretches(cls, rotations, log_stretches, reference_hash):
        """The representation with stretches ``spd2_exp(log_stretches)``.

        It keeps a copy of ``log_stretches`` as its :attr:`log_stretches`
        instead of taking the logarithm of the rounded exponentials again.
        """
        rep = cls(rotations, spd2_exp(log_stretches), reference_hash)
        rep.__dict__["log_stretches"] = _frozen(log_stretches)
        return rep

    def save(self, path, omega=None):
        """Write the representation as JSON, see :func:`_shape_payload`."""
        payload = {"reference_hash": self.reference_hash, **_shape_payload(self)}
        if omega is not None:
            payload["omega"] = float(omega)
        _write_json(path, payload)

    @classmethod
    def load(cls, path):
        payload = _read_json(path)
        return _shape_from_payload(payload, payload["reference_hash"])


def _shape_payload(rep):
    """The ``{rotations, stretches}`` JSON payload of a shape.

    Rotations are stored as 9 row-major floats, stretches as the
    ``(U11, U12, U22)`` triple, in reference edge/triangle order.
    """
    return {"rotations": rep.rotations.reshape(-1, 9).tolist(),
            "stretches": _sym_to_triples(rep.stretches).tolist()}


def _shape_from_payload(payload, reference_hash):
    """Inverse of :func:`_shape_payload`, bound to ``reference_hash``."""
    rotations = np.array(payload["rotations"], dtype=float).reshape(-1, 3, 3)
    stretches = _triples_to_sym(np.array(payload["stretches"], dtype=float))
    return ShapeRep(rotations, stretches, reference_hash)


def _tangent_payload(v):
    """The ``{rot_part, stretch_part}`` JSON payload of a tangent vector:
    3 floats per inner edge and the ``(X11, X12, X22)`` triple per triangle."""
    return {"rot_part": v.rot_part.tolist(),
            "stretch_part": _sym_to_triples(v.stretch_part).tolist()}


def _tangent_from_payload(payload, base_hash):
    """Inverse of :func:`_tangent_payload`, at the base ``base_hash``."""
    rot_part = np.array(payload["rot_part"], dtype=float).reshape(-1, 3)
    stretch_part = _triples_to_sym(np.array(payload["stretch_part"], dtype=float))
    return TangentRep(rot_part, stretch_part, base_hash)


def _read_json(path):
    """The payload of a JSON file written by :func:`_write_json`."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _write_json(path, payload):
    """Write ``payload`` as one line of JSON.

    ``json.dumps`` runs the C encoder; ``json.dump`` streams through the
    pure-Python one and is many times slower on large payloads.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload))
        handle.write("\n")


def _sym_to_triples(sym):
    """``(n, 2, 2)`` symmetric matrices as ``(n, 3)`` rows ``(X11, X12, X22)``."""
    return sym.reshape(-1, 4)[:, [0, 1, 3]]


def _triples_to_sym(triples):
    """Inverse of :func:`_sym_to_triples` on an ``(n, 3)`` array."""
    return triples[:, [0, 1, 1, 2]].reshape(-1, 2, 2)


@dataclass(frozen=True)
class DeformationDecomposition:
    """Per-triangle factors of an encoding: gradients ``D = R @ U`` and the
    induced frames ``F = R @ F_ref``."""

    gradients: np.ndarray
    rotations: np.ndarray
    stretches3: np.ndarray
    frames: np.ndarray


class TangentRep:
    """Tangent vector at a base representation.

    Rotational entries are axis-angle vectors per inner edge (of the
    right-translated group logarithm), stretch entries symmetric 2x2
    matrices per triangle. The vector is its ``coordinates``, one
    C-contiguous ``(3E + 4m,)`` array with the rotation parts first;
    ``rot_part`` ``(E, 3)`` and ``stretch_part`` ``(m, 2, 2)`` are views of
    it.
    """

    def __init__(self, rot_part, stretch_part, base_hash):
        rot_part = np.asarray(rot_part, dtype=float)
        self.coordinates = np.concatenate(
            (rot_part.reshape(-1), np.asarray(stretch_part, dtype=float).reshape(-1)))
        self.n_edges = rot_part.shape[0]
        self.base_hash = base_hash

    @classmethod
    def _from_coordinates(cls, coordinates, n_edges, base_hash):
        """The vector with ``coordinates``, kept without a copy when they are
        a C-contiguous float array."""
        v = cls.__new__(cls)
        v.coordinates = np.ascontiguousarray(coordinates, dtype=float)
        v.n_edges = n_edges
        v.base_hash = base_hash
        return v

    @property
    def rot_part(self):
        return self.coordinates[: 3 * self.n_edges].reshape(self.n_edges, 3)

    @property
    def stretch_part(self):
        return self.coordinates[3 * self.n_edges:].reshape(-1, 2, 2)

    def __add__(self, other):
        if self.base_hash != other.base_hash:
            raise ReferenceMismatchError("tangent vectors have different base points")
        return TangentRep._from_coordinates(
            self.coordinates + other.coordinates, self.n_edges, self.base_hash)

    def __mul__(self, scalar):
        return TangentRep._from_coordinates(
            self.coordinates * scalar, self.n_edges, self.base_hash)

    __rmul__ = __mul__

    @classmethod
    def zero(cls, base):
        return cls._from_coordinates(
            np.zeros(3 * base.n_edges + 4 * base.n_triangles), base.n_edges,
            base.content_hash())


def _check_binding(ref, rep):
    if rep.reference_hash != ref.content_hash:
        raise ReferenceMismatchError(
            "representation is bound to a different reference shape"
        )
    if rep.n_edges != ref.n_inner_edges or rep.n_triangles != ref.n_triangles:
        raise ReferenceMismatchError(
            f"representation sized ({rep.n_edges} edges, {rep.n_triangles} "
            f"triangles) does not fit the reference ({ref.n_inner_edges}, "
            f"{ref.n_triangles})"
        )


def _check_pair(s, t):
    if s.reference_hash != t.reference_hash:
        raise ReferenceMismatchError("representations use different references")


def encode(ref, mesh):
    """Encode ``mesh`` relative to ``ref``.

    Returns the representation together with the per-triangle
    decomposition it was derived from. The stretch of triangle ``i`` is
    the upper-left 2x2 block of the frame-expressed polar stretch; the
    transition rotation of inner edge ``(i, j)`` relates the induced
    frames, ``C_ij = F_i^T F_j``.
    """
    D = deformation_gradients(ref, mesh)
    R, U3 = polar3(D)
    F_ref = ref.frames
    local = np.swapaxes(F_ref, -1, -2) @ U3 @ F_ref
    block = local[:, :2, :2]
    stretches = np.ascontiguousarray(0.5 * (block + np.swapaxes(block, -1, -2)))

    frames = R @ F_ref
    ei, ej = ref.inner_edges[:, 0], ref.inner_edges[:, 1]
    rotations = np.swapaxes(frames[ei], -1, -2) @ frames[ej]

    rep = ShapeRep(rotations, stretches, ref.content_hash)
    return rep, DeformationDecomposition(D, R, U3, frames)


def rep_distance(ref, s, t, params=DistanceParams()):
    """Weighted geodesic distance between two representations.

    Raises :class:`CutLocusError`, naming the worst edge, if two transition
    rotations differ by an angle at pi.
    """
    _check_binding(ref, s)
    _check_pair(s, t)
    omega = params.omega

    total = 0.0
    if ref.n_inner_edges:
        theta = relative_angle(s.rotations, t.rotations)
        _check_cut_locus(theta, "edge")
        rot_sq = 2.0 * theta**2  # squared Frobenius norm of the skew logarithm
        total += omega**3 / ref.total_edge_area * float(ref.edge_areas @ rot_sq)

    diff = t.log_stretches - s.log_stretches
    spd_sq = np.sum(diff * diff, axis=(-2, -1))
    total += omega / ref.total_area * float(ref.tri_areas @ spd_sq)
    return float(np.sqrt(total))


def rep_log(base, s):
    """Right-translated logarithm of ``s`` at ``base``, componentwise.

    Raises :class:`CutLocusError`, naming the worst edge, if two transition
    rotations differ by an angle at pi.
    """
    _check_pair(base, s)
    relative = _times_transpose(_entries(s.rotations), _entries(base.rotations))
    rot_part = _log_entries(relative, "edge")
    stretch_part = s.log_stretches - base.log_stretches
    return TangentRep(rot_part, stretch_part, base.content_hash())


def rep_exp(base, v):
    """Inverse of :func:`rep_log`: walk from ``base`` along ``v``."""
    if v.base_hash != base.content_hash():
        raise ReferenceMismatchError("tangent vector has a different base point")
    rotations = so3_exp(v.rot_part) @ base.rotations
    stretches = spd2_exp(v.stretch_part + base.log_stretches)
    return ShapeRep(rotations, stretches, base.reference_hash)


def rep_inner(ref, params, v, w):
    """Metric inner product of two tangent vectors at a shared base."""
    if v.base_hash != w.base_hash:
        raise ReferenceMismatchError("tangent vectors have different base points")
    return float((_coordinate_weights(ref, params) * v.coordinates) @ w.coordinates)


def rep_norm(ref, params, v):
    return float(np.sqrt(max(rep_inner(ref, params, v, v), 0.0)))


def geodesic(s, t, lam):
    """Point at parameter ``lam`` on the geodesic from ``s`` to ``t``."""
    return rep_exp(s, float(lam) * rep_log(s, t))


def relative_rotation_angles(s, t):
    """Per-edge rotation angles between the transition rotations of two
    shapes; the diagnostic for staying clear of the cut locus."""
    _check_pair(s, t)
    if s.n_edges == 0:
        return np.zeros(0)
    return relative_angle(s.rotations, t.rotations)


def flatten_tangent(ref, params, v):
    """Isometric embedding of a tangent vector into flat coordinates.

    The Euclidean inner product of two embedded vectors equals
    :func:`rep_inner`, which turns Gram matrices and projections into
    plain linear algebra.
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


def _coordinate_weights(ref, params):
    """Metric weights ``w`` of the tangent coordinates: the inner product
    :func:`rep_inner` of two tangent vectors is ``sum(w * x * y)`` over their
    ``coordinates`` ``x`` and ``y``."""
    omega = params.omega
    rot = np.zeros(0)
    if ref.n_inner_edges:
        # Skew matrices built from axis vectors have squared Frobenius
        # norm 2 |xi|^2, hence the factor two.
        rot = np.repeat(2.0 * omega**3 / ref.total_edge_area * ref.edge_areas, 3)
    spd = np.repeat(omega / ref.total_area * ref.tri_areas, 4)
    return np.concatenate((rot, spd))


def _tangent_distances(vectors, relative, stretch_logs, weights):
    """Distances of the shapes ``exp_mu(v)`` to target shapes ``t``, all
    given in tangent coordinates at one base ``mu``.

    ``vectors`` are the :class:`TangentRep` coordinates ``(..., 3E + 4m)``
    of the ``v``, and ``weights`` their :func:`_coordinate_weights`. A target
    enters through the entries ``relative`` ``(9, ..., E)`` of ``t mu^T``
    and its stretch logs ``(..., 4m)`` at ``mu``; the leading shapes
    broadcast. The angle between ``exp(v_e) mu_e`` and ``t_e`` is that of
    the conjugate ``exp(v_e)^T t_e mu_e^T``, and the stretch distance is the
    flat difference of the logs at ``mu``, so no shape is formed. As
    :func:`rep_distance`, it raises :class:`CutLocusError` naming the worst
    edge of the first pair at the cut locus.
    """
    n_edges = relative.shape[-1]
    split = 3 * n_edges
    squared = 0.0
    if n_edges:
        rot = vectors[..., :split].reshape(vectors.shape[:-1] + (n_edges, 3))
        theta = _relative_angle_entries(_exp_entries(rot), relative)
        _check_each(theta, "edge")
        # The rotation coordinates of an edge share its weight.
        squared = (theta * theta) @ weights[:split:3]
    diff = stretch_logs - vectors[..., split:]
    return np.sqrt(squared + (diff * diff) @ weights[split:])
