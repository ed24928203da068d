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
"""

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ReferenceMismatchError
from .liegroups import (
    _check_cut_locus,
    _so3_log,
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

    def save(self, path, omega=None):
        """Write the representation as JSON.

        Rotations are stored as 9 row-major floats, stretches as the
        ``(U11, U12, U22)`` triple, in reference edge/triangle order.
        """
        payload = {
            "reference_hash": self.reference_hash,
            "rotations": self.rotations.reshape(-1, 9).tolist(),
            "stretches": _sym_to_triples(self.stretches),
        }
        if omega is not None:
            payload["omega"] = float(omega)
        _write_json(path, payload)

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        rotations = np.array(payload["rotations"], dtype=float).reshape(-1, 3, 3)
        stretches = _triples_to_sym(np.array(payload["stretches"], dtype=float))
        return cls(rotations, stretches, payload["reference_hash"])


def _write_json(path, payload):
    """Write ``payload`` as one line of JSON.

    ``json.dumps`` runs the C encoder; ``json.dump`` streams through the
    pure-Python one and is many times slower on large payloads.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload))
        handle.write("\n")


def _sym_to_triples(sym):
    """``(n, 2, 2)`` symmetric matrices as ``(X11, X12, X22)`` lists."""
    return sym.reshape(-1, 4)[:, [0, 1, 3]].tolist()


def _triples_to_sym(triples):
    """Inverse of :func:`_sym_to_triples` on an ``(n, 3)`` array."""
    out = np.empty((triples.shape[0], 2, 2))
    out[:, 0, 0] = triples[:, 0]
    out[:, 0, 1] = triples[:, 1]
    out[:, 1, 0] = triples[:, 1]
    out[:, 1, 1] = triples[:, 2]
    return out


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
    matrices per triangle.
    """

    def __init__(self, rot_part, stretch_part, base_hash):
        self.rot_part = np.ascontiguousarray(rot_part, dtype=float)
        self.stretch_part = np.ascontiguousarray(stretch_part, dtype=float)
        self.base_hash = base_hash

    def __add__(self, other):
        if self.base_hash != other.base_hash:
            raise ReferenceMismatchError("tangent vectors have different base points")
        return TangentRep(
            self.rot_part + other.rot_part,
            self.stretch_part + other.stretch_part,
            self.base_hash,
        )

    def __mul__(self, scalar):
        return TangentRep(
            self.rot_part * scalar, self.stretch_part * scalar, self.base_hash
        )

    __rmul__ = __mul__

    def copy(self):
        return TangentRep(self.rot_part.copy(), self.stretch_part.copy(), self.base_hash)

    @classmethod
    def zero(cls, base):
        return cls(
            np.zeros((base.n_edges, 3)),
            np.zeros((base.n_triangles, 2, 2)),
            base.content_hash(),
        )


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
    rot_part = _so3_log(s.rotations @ np.swapaxes(base.rotations, -1, -2), "edge")
    rot_part = rot_part.reshape(-1, 3)
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
    omega = params.omega
    total = 0.0
    if ref.n_inner_edges:
        # Skew matrices built from axis vectors have squared Frobenius
        # norm 2 |xi|^2, hence the factor two.
        rot_dot = 2.0 * np.sum(v.rot_part * w.rot_part, axis=-1)
        total += omega**3 / ref.total_edge_area * float(ref.edge_areas @ rot_dot)
    spd_dot = np.sum(v.stretch_part * w.stretch_part, axis=(-2, -1))
    total += omega / ref.total_area * float(ref.tri_areas @ spd_dot)
    return float(total)


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
    sym = np.stack(
        (
            v.stretch_part[:, 0, 0],
            np.sqrt(2.0) * v.stretch_part[:, 0, 1],
            v.stretch_part[:, 1, 1],
        ),
        axis=-1,
    )
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
    stretch = np.empty((sym.shape[0], 2, 2))
    stretch[:, 0, 0] = sym[:, 0]
    stretch[:, 0, 1] = sym[:, 1] / np.sqrt(2.0)
    stretch[:, 1, 0] = stretch[:, 0, 1]
    stretch[:, 1, 1] = sym[:, 2]
    return TangentRep(rot, stretch, base_hash)
