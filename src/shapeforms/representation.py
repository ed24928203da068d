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

A shape holds each rotation as its unit quaternion and each stretch as
its matrix logarithm (log-Euclidean, Arsigny et al., 2006), the forms that
every log, mean step and distance computes on, and a shape file stores
exactly these: ``4E + 3m`` floats, reloaded bit for bit. A file of the
earlier rotation-matrix format is refused; its shapes are made again from
their meshes. The matrices are derived on access, for reconstruction and
for callers that read them.

A tangent vector at a shape is one element of the product Lie algebra:
an axis-angle vector per inner edge and a symmetric 2x2 matrix per
triangle. :class:`TangentRep` holds it as one flat array of ``3E + 3m``
coordinates, the ``E`` axis-angle vectors first and then the ``m``
matrices, so statistics on tangent vectors are plain linear algebra on
these coordinates.

A symmetric 2x2 value, a stretch log or the stretch part of a tangent
vector, is held and stored as its triple ``(X11, X12, X22)``. Matrices and
triples convert into each other only where matrices enter or leave: the
constructors of :class:`ShapeRep` and :class:`TangentRep`, which take
matrices, ``ShapeRep.stretches`` and ``TangentRep.stretch_part``.
"""

import csv
import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import MeshFormatError, ReferenceMismatchError
from .liegroups import (
    _check_each,
    _entries,
    _exp_quaternions,
    _matrices,
    _quaternion_angle,
    _quaternion_entries,
    _quaternion_log,
    _quaternion_product,
    _quaternions,
    polar3,
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


def _read_only(array):
    """``array``, flagged read-only."""
    array.flags.writeable = False
    return array


def _frozen(values):
    """A read-only copy of ``values`` as a C-contiguous float array."""
    return _read_only(np.array(values, dtype=float, order="C"))


class ShapeRep:
    """Point in the product group: one rotation per inner edge and one
    stretch per triangle, bound to one reference by content hash.

    A representation holds two read-only arrays: the unit quaternions
    ``quaternions`` ``(4, E)`` of its rotations, scalar part first, and the
    logarithms ``log_stretches`` ``(m, 3)`` of its stretches as
    ``(L11, L12, L22)`` triples, 32 bytes an edge and 24 a triangle. Every
    log, mean step and distance reads these two forms. The matrices
    ``rotations`` ``(E, 3, 3)`` and ``stretches`` ``(m, 2, 2)`` are derived
    from them on each access and never held; reconstruction derives them
    once per call.

    The constructor takes the matrices, and it is the one place where
    rotation matrices become quaternions and stretches their log triples
    (:func:`_quaternions` and :func:`spd2_log`). Every other
    representation, such as an exponential, a mean or a loaded file, is
    built from quaternions and log triples by :meth:`_from_parts`. A
    representation is immutable and keeps copies of what it is built from,
    so later changes to the caller's arrays do not reach it, and its
    content hash is computed once.
    """

    def __init__(self, rotations, stretches, reference_hash):
        rotations = np.asarray(rotations, dtype=float)
        stretches = np.asarray(stretches, dtype=float)
        if rotations.ndim != 3 or rotations.shape[1:] != (3, 3):
            raise ValueError("rotations must have shape (E, 3, 3)")
        if stretches.ndim != 3 or stretches.shape[1:] != (2, 2):
            raise ValueError("stretches must have shape (m, 2, 2)")
        # Both kernels return new arrays, which the shape keeps as they are.
        self.quaternions = _read_only(_quaternions(_entries(rotations)))
        self.log_stretches = _read_only(_sym_to_triples(spd2_log(stretches)))
        self.reference_hash = reference_hash

    @classmethod
    def _from_parts(cls, quaternions, log_stretches, reference_hash):
        """The representation holding copies of ``quaternions`` ``(4, E)``
        and ``log_stretches`` ``(m, 3)``."""
        rep = cls.__new__(cls)
        rep.quaternions = _frozen(quaternions)
        rep.log_stretches = _frozen(log_stretches)
        rep.reference_hash = reference_hash
        return rep

    @property
    def rotations(self):
        """Read-only rotation matrices ``(E, 3, 3)`` of the quaternions,
        derived on each access: about 1.3 ms at 30,720 edges."""
        return _read_only(_matrices(_quaternion_entries(self.quaternions)))

    @property
    def stretches(self):
        """Read-only stretches ``(m, 2, 2)``, the exponentials of the
        ``log_stretches`` triples, derived on each access: about 1.2 ms at
        20,480 triangles."""
        return _read_only(spd2_exp(_triples_to_sym(self.log_stretches)))

    @property
    def n_edges(self):
        return self.quaternions.shape[1]

    @property
    def n_triangles(self):
        return self.log_stretches.shape[0]

    def content_hash(self):
        return self._content_hash

    @cached_property
    def _content_hash(self):
        h = hashlib.sha256()
        h.update(self.reference_hash.encode())
        h.update(self.quaternions.tobytes())
        h.update(self.log_stretches.tobytes())
        return h.hexdigest()

    def save(self, path):
        """Write the representation as JSON, see :func:`_shape_payload`."""
        _write_json(path, {"reference_hash": self.reference_hash,
                           **_shape_payload(self)})

    @classmethod
    def load(cls, path):
        """Read a file written by :meth:`save`; other keys, such as the
        ``omega`` that older files carry, are ignored. Invalid values raise
        :class:`MeshFormatError`, see :func:`_shape_from_payload`."""
        payload = _read_json(path)
        return _shape_from_payload(
            payload, _value(payload, "reference_hash", path, kind=str), path)


def _shape_payload(rep):
    """The ``{quaternions, log_stretches}`` JSON payload of a shape.

    Quaternions are stored as ``(w, x, y, z)`` rows, stretch logs as the
    ``(L11, L12, L22)`` triple, in reference edge/triangle order: the
    arrays the shape holds, so a reload is bit-equal.
    """
    return {"quaternions": rep.quaternions.T, "log_stretches": rep.log_stretches}


#: Largest ``| |q|^2 - 1 |`` that a stored quaternion may have.
_QUATERNION_TOL = 1e-9


def _shape_from_payload(payload, reference_hash, path):
    """Inverse of :func:`_shape_payload`, bound to ``reference_hash``.

    Raises :class:`MeshFormatError` for the file ``path``, naming either
    the key, for a missing key or an array that is no list of rows of 4 or
    3 numbers (see :func:`_float_rows`), or the first bad edge or triangle,
    for a quaternion that is not finite or has ``| |q|^2 - 1 |`` above
    ``_QUATERNION_TOL`` and for a stretch-log triple that is not finite.
    """
    rows = _float_rows(payload, "quaternions", 4, path)
    with np.errstate(invalid="ignore", over="ignore"):
        drift = np.abs(np.sum(rows * rows, axis=1) - 1.0)
    _refuse(drift <= _QUATERNION_TOL, path, lambda k: (
        f"quaternion of edge {k} is not a finite unit quaternion: "
        f"| |q|^2 - 1 | = {drift[k]:.3g} (at most {_QUATERNION_TOL:g})"))
    return ShapeRep._from_parts(rows.T, _log_triples(payload, path), reference_hash)


def _log_triples(payload, path):
    """The ``log_stretches`` triples ``(m, 3)`` of ``payload``, refused by
    :func:`_check_finite` if one is not finite."""
    logs = _float_rows(payload, "log_stretches", 3, path)
    _check_finite(logs, path, "the stretch log of triangle")
    return logs


#: The JSON types that :func:`_value` accepts for an expected type, and
#: what its message calls them.
_JSON_KINDS = {str: ((str,), "a string"), list: ((list,), "a list"),
               float: ((int, float), "a number")}


def _value(payload, key, path, owner="", kind=None):
    """``payload[key]``, or :class:`MeshFormatError` for the file ``path``
    if ``payload`` is no JSON object with ``key`` or, for ``kind`` ``str``,
    ``list`` or ``float``, the value is no JSON string, array or number;
    ``owner``, such as ``"mode 2"``, names the object in the message."""
    if not isinstance(payload, dict) or key not in payload:
        raise MeshFormatError(f"missing key {key!r}{owner and ' in ' + owner}",
                              path=path)
    value = payload[key]
    if kind is not None and type(value) not in _JSON_KINDS[kind][0]:
        raise MeshFormatError(f"{key!r}{owner and ' of ' + owner} is not "
                              f"{_JSON_KINDS[kind][1]}: got {type(value).__name__}",
                              path=path)
    return value


def _float_rows(payload, key, width, path, owner=""):
    """The float array ``(n, width)`` of ``payload[key]``, a list of ``n``
    rows of ``width`` numbers, or for ``width`` ``None`` the ``(n,)`` array
    of a list of ``n`` numbers.

    Values convert as ``np.array(..., dtype=float)`` converts them, but
    the rows are checked first and then read by one ``np.fromiter``, which
    is faster than ``np.array`` on nested lists. Raises
    :class:`MeshFormatError` for the file ``path``, naming ``key`` (and
    ``owner``, see :func:`_value`), if the key is missing or its value is
    of another shape or holds a value that is no number.
    """
    value = _value(payload, key, path, owner)
    shape = "numbers" if width is None else f"rows of {width} numbers"
    try:
        if type(value) is not list:
            raise TypeError(f"got {type(value).__name__}")
        if width is None:
            return np.fromiter(value, dtype=float, count=len(value))
        if not set(map(type, value)) <= {list} or not set(map(len, value)) <= {width}:
            raise ValueError("a row is not a list of that length")
        return np.fromiter(chain.from_iterable(value), dtype=float,
                           count=width * len(value)).reshape(-1, width)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MeshFormatError(f"{key!r}{owner and ' of ' + owner} is not a list of "
                              f"{shape}: {exc}", path=path) from exc


def _check_finite(values, path, what):
    """:func:`_refuse` the rows of ``values`` ``(n, k)`` that hold a
    non-finite value, naming them as ``what`` and the row index."""
    _refuse(np.isfinite(values).all(axis=1), path,
            lambda k: f"{what} {k} holds a non-finite value")


def _refuse(ok, path, message):
    """Raise :class:`MeshFormatError` for the file ``path`` with
    ``message(k)`` for the first index ``k`` where ``ok`` is false."""
    if not ok.all():
        raise MeshFormatError(message(int(np.argmin(ok))), path=path)


def _tangent_payload(v):
    """The ``{rot_part, stretch_part}`` JSON payload of a tangent vector:
    3 floats per inner edge and the ``(X11, X12, X22)`` triple per triangle."""
    return {"rot_part": v.rot_part, "stretch_part": v._stretch_triples}


def _tangent_from_payload(payload, base_hash, path, name):
    """Inverse of :func:`_tangent_payload`, at the base ``base_hash``.

    Raises :class:`MeshFormatError` for the file ``path``, naming the
    vector ``name`` and either the key, for a missing key or an array that
    is no list of rows of 3 numbers (see :func:`_float_rows`), or the edge
    or triangle, for a value that is not finite.
    """
    rot_part = _float_rows(payload, "rot_part", 3, path, name)
    triples = _float_rows(payload, "stretch_part", 3, path, name)
    _check_finite(rot_part, path, f"{name} at edge")
    _check_finite(triples, path, f"{name} at triangle")
    return TangentRep._from_coordinates(
        np.concatenate((rot_part.reshape(-1), triples.reshape(-1))), len(rot_part),
        base_hash)


def _read_json(path):
    """The payload of a JSON file written by :func:`_write_json`; a file
    that does not decode raises :class:`MeshFormatError` naming it."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise MeshFormatError(str(exc), path=path) from exc


def _write_json(path, payload):
    """Write ``payload`` as one line of JSON. Numpy arrays in it become
    nested lists here, so the payload builders pass arrays as they are.

    ``json.dumps`` runs the C encoder; ``json.dump`` streams through the
    pure-Python one and is many times slower on large payloads.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, default=np.ndarray.tolist))
        handle.write("\n")


def _write_csv(path, header, rows):
    """Write the ``header`` names and the ``rows`` as CSV: numbers with 17
    significant digits, which round-trip a float and keep an integer, and
    text as it is unless it holds a ``,``, ``"`` or a newline, which
    ``csv.writer`` quotes as ``csv.reader`` reads it back."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(
            [x if isinstance(x, str) else f"{x:.17g}" for x in row]
            for row in [header, *rows])


#: Frobenius weights of a symmetric 2x2 matrix's ``(X11, X12, X22)`` triple.
_TRIPLE_WEIGHTS = np.array([1.0, 2.0, 1.0])


def _sym_to_triples(sym):
    """``(n, 2, 2)`` symmetric matrices as ``(n, 3)`` rows ``(X11, X12, X22)``,
    a new C-contiguous array."""
    return np.take(sym.reshape(-1, 4), [0, 1, 3], axis=1)


def _triples_to_sym(triples):
    """Inverse of :func:`_sym_to_triples` on an ``(n, 3)`` array."""
    return np.take(triples, [0, 1, 1, 2], axis=1).reshape(-1, 2, 2)


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
    C-contiguous ``(3E + 3m,)`` array with the rotation parts first and
    then the ``(X11, X12, X22)`` triples of the matrices; ``rot_part``
    ``(E, 3)`` is a view of it, and ``stretch_part`` the read-only matrices
    ``(m, 2, 2)`` derived from the triples on each access.

    The constructor takes the matrices and raises ``ValueError``, naming
    the first such triangle, for one that is not symmetric.
    """

    def __init__(self, rot_part, stretch_part, base_hash):
        rot_part = np.asarray(rot_part, dtype=float)
        stretch_part = np.asarray(stretch_part, dtype=float)
        if stretch_part.ndim != 3 or stretch_part.shape[1:] != (2, 2):
            raise ValueError("stretch_part must have shape (m, 2, 2)")
        upper, lower = stretch_part[:, 0, 1], stretch_part[:, 1, 0]
        asymmetric = upper != lower
        if asymmetric.any():
            k = int(np.argmax(asymmetric))
            raise ValueError(f"stretch part of triangle {k} is not symmetric: "
                             f"X12 = {upper[k]:.17g}, X21 = {lower[k]:.17g}")
        self.coordinates = np.concatenate(
            (rot_part.reshape(-1), _sym_to_triples(stretch_part).reshape(-1)))
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
    def n_triangles(self):
        return (self.coordinates.size - 3 * self.n_edges) // 3

    @property
    def _stretch_triples(self):
        """The ``(m, 3)`` view of the stretch coordinates."""
        return self.coordinates[3 * self.n_edges:].reshape(-1, 3)

    @property
    def stretch_part(self):
        """Read-only symmetric matrices ``(m, 2, 2)`` of the stretch
        triples, derived on each access."""
        return _read_only(_triples_to_sym(self._stretch_triples))

    def __mul__(self, scalar):
        return TangentRep._from_coordinates(
            self.coordinates * scalar, self.n_edges, self.base_hash)

    __rmul__ = __mul__


def _check_binding(ref, *shapes):
    """Raise :class:`ReferenceMismatchError` unless every shape was encoded
    on ``ref``: its reference hash is ``ref``'s and its sizes fit. This
    serves every entry point that is given a reference."""
    if not shapes:
        raise ValueError("need at least one representation")
    for rep in shapes:
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


def _tangent_size(shape):
    """The coordinate count ``3E + 3m`` of a tangent vector at ``shape``."""
    return 3 * (shape.n_edges + shape.n_triangles)


def _check_tangent(base, v, name):
    """Raise :class:`ReferenceMismatchError` unless ``v``, called ``name``,
    is a tangent vector at ``base``: bound to its content hash and of its
    :func:`_tangent_size`."""
    if v.base_hash != base.content_hash():
        raise ReferenceMismatchError(f"{name} has a different base point")
    if v.n_edges != base.n_edges or v.coordinates.size != _tangent_size(base):
        raise ReferenceMismatchError(
            f"{name} sized ({v.n_edges} edges, {v.n_triangles} triangles) does "
            f"not fit the base shape ({base.n_edges}, {base.n_triangles})")


def _check_same_reference(*shapes):
    """Raise :class:`ReferenceMismatchError` unless all shapes were encoded
    on one reference; this serves the entry points without one."""
    if not shapes:
        raise ValueError("need at least one representation")
    if any(rep.reference_hash != shapes[0].reference_hash for rep in shapes[1:]):
        raise ReferenceMismatchError("representations use different references")


def encode(ref, mesh):
    """Encode ``mesh`` relative to ``ref``.

    Returns the representation together with the per-triangle decomposition
    it was derived from: the one-mesh case of :func:`_encode_stack`.

    Every gradient that :func:`deformation_gradients` builds maps the
    reference normal onto the deformed triangle's own normal, so its
    determinant is positive. A mirrored or folded mesh therefore encodes
    without error, and :class:`OrientationError` cannot come from here;
    a triangle too thin to factor raises :class:`ConditioningError`.
    """
    reps, parts = _encode_stack(ref, [mesh])
    return reps[0], DeformationDecomposition(*(part[0] for part in parts))


def _encode_stack(ref, meshes):
    """Encode ``meshes`` relative to ``ref`` in one pass.

    The stretch of triangle ``i`` is the upper-left 2x2 block of the
    frame-expressed polar stretch; the transition rotation of inner edge
    ``(i, j)`` relates the induced frames, ``C_ij = F_i^T F_j``. One
    :func:`polar3` call factors the ``(n, m, 3, 3)`` gradients of all
    meshes, so its errors name the index ``(shape, triangle)``. Returns the
    representations and the stacked gradients, polar factors and frames.
    """
    D = np.empty((len(meshes), ref.n_triangles, 3, 3))
    for k, mesh in enumerate(meshes):
        D[k] = deformation_gradients(ref, mesh)
    R, U3 = polar3(D)
    F_ref = ref.frames
    block = (np.swapaxes(F_ref, -1, -2) @ U3 @ F_ref)[..., :2, :2]
    stretches = 0.5 * (block + np.swapaxes(block, -1, -2))

    frames = R @ F_ref
    ei, ej = ref.inner_edges[:, 0], ref.inner_edges[:, 1]
    rotations = np.swapaxes(frames[:, ei], -1, -2) @ frames[:, ej]

    reps = [ShapeRep(r, s, ref.content_hash) for r, s in zip(rotations, stretches)]
    return reps, (D, R, U3, frames)


def rep_distance(ref, s, t, params=DistanceParams()):
    """Weighted geodesic distance between two representations: the metric
    norm of :func:`rep_log` ``(s, t)``, as the metric is bi-invariant.

    Raises :class:`CutLocusError`, naming the worst edge, if two transition
    rotations differ by an angle at pi.
    """
    _check_binding(ref, s, t)
    v = _log_coordinates(s, t)
    return float(np.sqrt(_coordinate_weights(ref, params) @ (v * v)))


def rep_log(base, s):
    """Right-translated logarithm of ``s`` at ``base``, componentwise.

    Raises :class:`CutLocusError`, naming the worst edge, if two transition
    rotations differ by an angle at pi.
    """
    _check_same_reference(base, s)
    return TangentRep._from_coordinates(_log_coordinates(base, s), base.n_edges,
                                        base.content_hash())


def _log_coordinates(base, s):
    """The :class:`TangentRep` coordinates of :func:`rep_log` ``(base, s)``."""
    relative = _quaternion_product(s.quaternions, base.quaternions, conjugate=True)
    rot_part = _quaternion_log(relative, "edge")
    stretch_part = s.log_stretches - base.log_stretches
    return np.concatenate((rot_part.reshape(-1), stretch_part.reshape(-1)))


def rep_exp(base, v):
    """Inverse of :func:`rep_log`: walk from ``base`` along ``v``.

    The rotations are the quaternion products ``exp(v_e) * q_e`` and the
    stretch logs the sums ``v_i + L_i``, so no matrix is formed, and
    ``v = 0`` gives ``base``'s own arrays: ``exp(0)`` is ``(1, 0, 0, 0)``.
    A ``v`` that is not a tangent vector at ``base`` raises
    :class:`ReferenceMismatchError`, see :func:`_check_tangent`.
    """
    _check_tangent(base, v, "tangent vector")
    quats = _quaternion_product(_exp_quaternions(v.rot_part), base.quaternions)
    return ShapeRep._from_parts(quats, v._stretch_triples + base.log_stretches,
                                base.reference_hash)


def geodesic(s, t, lam):
    """Point at parameter ``lam`` on the geodesic from ``s`` to ``t``."""
    return rep_exp(s, float(lam) * rep_log(s, t))


def relative_rotation_angles(s, t):
    """Per-edge rotation angles between the transition rotations of two
    shapes; the diagnostic for staying clear of the cut locus."""
    _check_same_reference(s, t)
    return _quaternion_angle(s.quaternions, t.quaternions)


def _coordinate_weights(ref, params):
    """Metric weights ``w`` of the tangent coordinates: the metric inner
    product of two tangent vectors is ``sum(w * x * y)`` over their
    ``coordinates`` ``x`` and ``y``.

    A symmetric matrix's squared Frobenius norm is ``X11^2 + 2 X12^2 +
    X22^2``, so the weights of a triangle's triple are its area weight
    times ``_TRIPLE_WEIGHTS``."""
    omega = params.omega
    rot = np.zeros(0)
    if ref.n_inner_edges:
        # Skew matrices built from axis vectors have squared Frobenius
        # norm 2 |xi|^2, hence the factor two.
        rot = np.repeat(2.0 * omega**3 / ref.total_edge_area * ref.edge_areas, 3)
    spd = np.outer(omega / ref.total_area * ref.tri_areas, _TRIPLE_WEIGHTS)
    return np.concatenate((rot, spd.reshape(-1)))


def _exp_distances(quaternions, stretches, relative, stretch_logs, weights):
    """Distances of the shapes ``exp_mu(v)`` to target shapes ``t``, all at
    one base ``mu``, in the metric of the :func:`_coordinate_weights`
    ``weights``. The rotations ``exp(v_e)`` enter by their unit quaternions
    ``(4, ..., E)`` and the ``v`` by their stretch coordinates ``stretches``
    ``(..., 3m)``; a target by the unit quaternions ``relative`` ``(4, ...,
    E)`` of ``t mu^T`` and its stretch log triples ``(..., 3m)`` at ``mu``.
    The leading shapes broadcast.

    The angle between ``exp(v_e) mu_e`` and ``t_e`` is that of the conjugate
    ``exp(v_e)^T t_e mu_e^T``, measured on the quaternions of ``exp(v_e)``,
    and the stretch distance is the flat difference of the logs at ``mu``,
    so no shape is formed. As :func:`rep_distance`, it raises
    :class:`CutLocusError` naming the worst edge of the first pair at the
    cut locus.
    """
    split = 3 * relative.shape[-1]
    squared = 0.0
    if split:
        theta = _quaternion_angle(quaternions, relative)
        _check_each(theta, "edge")
        # The rotation coordinates of an edge share its weight.
        theta *= theta
        squared = theta @ weights[:split:3]
    diff = stretch_logs - stretches
    diff *= diff
    return np.sqrt(squared + diff @ weights[split:])
