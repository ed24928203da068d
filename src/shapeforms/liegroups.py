"""Closed-form kernels for rotations and 2x2 symmetric-positive-definite
matrices, and a Newton iteration for the 3x3 polar decomposition.

All functions are pure and accept stacked inputs: an argument documented as
``(3, 3)`` may be ``(..., 3, 3)`` and the operation maps over the leading
axes. Rotations follow the axis-angle convention where a tangent vector
``xi`` encodes the rotation by angle ``|xi|`` about ``xi / |xi|``.

Internally, only the polar decomposition computes on the row-major entries
``(9, ...)`` of stacked matrices. The exponential, the logarithm and every
angle of a rotation work on unit quaternions ``(4, ...)``, scalar part
first; a shape holds those of its rotations as ``ShapeRep.quaternions``,
converted once from the entries by :func:`_quaternions`:

- :func:`_exp_quaternions` takes every rotation exponential: that of
  :func:`so3_exp`, whose matrices :func:`_quaternion_entries` forms, as it
  forms those of every shape, and of every mean update and geodesic step
  ``exp(xi) mu``;
- :func:`_quaternion_log` takes every rotation logarithm: that of
  :func:`so3_log`, and every logarithm of a shape at a base, on the
  relative quaternions ``q * conj(q_mu)`` of :func:`_quaternion_product`;
- :func:`_quaternion_angle` measures every rotation distance, for the
  relative rotation angles of two shapes and the distances of model quality
  analysis, whose targets are quaternions ``(4, [n,] E)``; its last step,
  :func:`_rotation_angle`, gives the angles of those targets themselves.
"""

import numpy as np

from .errors import ConditioningError, CutLocusError, OrientationError

# Branch thresholds: Taylor series below _TINY_ANGLE, hard error within
# _PI_MARGIN of pi. Near pi the quaternion's vector part gives the axis, so
# no branch rebuilds it there.
_TINY_ANGLE = 1e-8
_PI_MARGIN = 1e-12

# Newton polar iteration: it converges quadratically, so a step that moves
# no matrix by more than _POLAR_STEP_TOL leaves it about _POLAR_STEP_TOL**2
# from the limit. Scaled Newton takes six or seven steps even at a
# singular-value ratio of 1e-16; _POLAR_MAX_ITER only catches non-finite
# input. Below _COFACTOR_MIN_DET = |det X| / |X|_F^3 the closed-form
# cofactor inverse and determinant lose their accuracy, and LU is used
# instead.
_POLAR_STEP_TOL = 1e-9
_POLAR_MAX_ITER = 30
_COFACTOR_MIN_DET = 1e-8

# polar3 rejects a matrix whose singular values spread by more than
# 1 / _MIN_REL_SIGMA.
_MIN_REL_SIGMA = 1e-10


def _entries(R):
    """The row-major entries ``(9, ...)`` of ``(..., 3, 3)`` matrices.

    A view of contiguous input: entry ``k`` of every matrix is one strided
    row, so the rotation kernels below work on whole stacks with
    elementwise arithmetic and never loop over 3x3 pairs.
    """
    R = np.asarray(R, dtype=float)
    return np.moveaxis(R.reshape(R.shape[:-2] + (9,)), -1, 0)


def _matrices(e):
    """Inverse of :func:`_entries`: C-contiguous ``(..., 3, 3)`` matrices."""
    return np.ascontiguousarray(np.moveaxis(e, 0, -1)).reshape(e.shape[1:] + (3, 3))


def so3_exp(xi):
    """Rotation matrix for the axis-angle vector ``xi``: the matrix of its
    unit quaternion :func:`_exp_quaternions`, whose series fallback for
    small angles makes the map smooth through ``xi = 0``, where it is
    exactly the identity."""
    return _matrices(_quaternion_entries(_exp_quaternions(xi)))


def _check_cut_locus(theta, item):
    """Raise :class:`CutLocusError` if an angle is within ``_PI_MARGIN`` of
    pi, naming the flat index of the largest angle as ``item``."""
    theta = np.reshape(theta, -1)
    if np.any(theta >= np.pi - _PI_MARGIN):
        idx = int(np.argmax(theta))
        raise CutLocusError(
            f"{item} {idx} is at the cut locus: rotation angle "
            f"{theta[idx]:.17g} is within {_PI_MARGIN:g} of pi"
        )


def _check_each(theta, item):
    """:func:`_check_cut_locus` on each row ``theta[..., :]`` in turn.

    For a stack of per-shape angles, this names the worst edge of the
    first shape at the cut locus, as a loop over the shapes would.
    """
    if np.any(theta >= np.pi - _PI_MARGIN):
        for row in np.reshape(theta, (-1, np.shape(theta)[-1])):
            _check_cut_locus(row, item)


def so3_log(R):
    """Axis-angle vector of the rotation ``R``.

    Taken on the unit quaternion of ``R`` by :func:`_quaternion_log`, which
    stays accurate to a few ulps of the angle from 0 up to pi. Requires the
    rotation angle to be strictly below pi; at the cut locus the logarithm
    is ambiguous and a :class:`CutLocusError` is raised.
    """
    return _quaternion_log(_quaternions(_entries(R)), "rotation")


def _quaternions(e):
    """Unit quaternions ``(4, ...)``, scalar first, of the rotations with
    entries ``(9, ...)``.

    The scalar part ``sqrt(1 + tr) / 2`` is the pivot wherever
    ``1 + tr >= 1``, that is for angles up to 2 pi / 3, where it is at least
    1/2. The rest pivot on the vector component of their largest diagonal
    entry (Shepperd, "Quaternion from rotation matrix", 1978), which is then
    the largest component and so at least 1/2 too. Every scalar part is
    non-negative.
    """
    shape = e.shape[1:]
    e = e.reshape(9, -1)
    trace = e[0] + e[4] + e[8]
    out = np.empty((4, trace.size))
    with np.errstate(invalid="ignore", divide="ignore"):
        np.sqrt(1.0 + trace, out=out[0])
        out[0] *= 0.5
        four_w = 4.0 * out[0]
        np.divide(e[7] - e[5], four_w, out=out[1])
        np.divide(e[2] - e[6], four_w, out=out[2])
        np.divide(e[3] - e[1], four_w, out=out[3])
    rest = np.flatnonzero(trace < 0.0)
    if rest.size:
        out[:, rest] = _shepperd(e[:, rest], trace[rest])
    return out.reshape((4,) + shape)


def _shepperd(e, trace):
    """:func:`_quaternions` of rotations with entries ``(9, n)`` and traces
    ``trace``, pivoting on the largest diagonal entry of each.

    With ``k`` its index and ``(k, i, j)`` cyclic, component ``k`` of the
    vector part is ``sqrt(1 + 2 R_kk - tr) / 2``, and the others follow from
    the symmetric and antisymmetric parts of ``R``.
    """
    d0, d1, d2 = e[0], e[4], e[8]
    # The first largest diagonal entry, as np.argmax picks it.
    pivot = np.where((d0 >= d1) & (d0 >= d2), 0, np.where(d1 >= d2, 1, 2))
    out = np.empty((4, e.shape[1]))
    for k in range(3):
        sel = pivot == k
        if not sel.any():
            continue
        i, j = (k + 1) % 3, (k + 2) % 3
        r = e[:, sel]
        v = 0.5 * np.sqrt(1.0 + 2.0 * r[4 * k] - trace[sel])
        four_v = 4.0 * v
        q = np.empty((4, v.size))
        q[0] = (r[3 * j + i] - r[3 * i + j]) / four_v
        q[1 + k] = v
        q[1 + i] = (r[3 * i + k] + r[3 * k + i]) / four_v
        q[1 + j] = (r[3 * j + k] + r[3 * k + j]) / four_v
        # q and -q are the same rotation; keep the scalar part non-negative.
        q *= np.where(q[0] < 0.0, -1.0, 1.0)
        out[:, sel] = q
    return out


def _exp_quaternions(xi):
    """Unit quaternions ``(4, ...)`` of the rotations ``so3_exp(xi)`` for
    axis-angle vectors ``(..., 3)``: ``(cos(t/2), sin(t/2)/t * xi)`` with
    ``t = |xi|``, and the series ``1/2 - t^2/48`` of ``sin(t/2)/t`` below
    ``_TINY_ANGLE``. The scalar part is negative for ``t > pi``.
    """
    xi = np.asarray(xi, dtype=float)
    x, y, z = np.moveaxis(xi, -1, 0)
    theta = np.sqrt(x * x + y * y + z * z)
    small = theta < _TINY_ANGLE
    half = 0.5 * theta
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.where(small, 0.5 - theta * theta / 48.0,
                     np.sin(half) / np.where(small, 1.0, theta))
    out = np.empty((4,) + theta.shape)
    # out[k, ...] stays an array, also for a single vector.
    np.cos(half, out=out[0, ...])
    np.multiply(s, x, out=out[1, ...])
    np.multiply(s, y, out=out[2, ...])
    np.multiply(s, z, out=out[3, ...])
    return out


def _quaternion_entries(q):
    """Row-major entries ``(9, ...)`` of the rotations with quaternions
    ``q`` ``(4, ...)``: ``R = I + s (w [v]_x + [v]_x^2)`` with
    ``s = 2 / |q|^2``, a rotation also when ``q`` is off unit norm by
    rounding."""
    w, x, y, z = q
    s = 2.0 / (w * w + x * x + y * y + z * z)
    sx, sy, sz = s * x, s * y, s * z
    wx, wy, wz = w * sx, w * sy, w * sz
    xx, xy, xz = x * sx, x * sy, x * sz
    yy, yz, zz = y * sy, y * sz, z * sz
    out = np.empty((9,) + np.shape(w))
    out[0] = 1.0 - (yy + zz)
    out[1] = xy - wz
    out[2] = xz + wy
    out[3] = xy + wz
    out[4] = 1.0 - (xx + zz)
    out[5] = yz - wx
    out[6] = xz - wy
    out[7] = yz + wx
    out[8] = 1.0 - (xx + yy)
    return out


def _quaternion_product(a, b, conjugate=False):
    """Quaternions ``(4, ...)`` of the rotations ``A B``, or of ``A B^T``
    with ``conjugate``, from the quaternions ``a`` and ``b`` ``(4, ...)`` of
    ``A`` and ``B``; the leading shapes broadcast, and neither operand is
    copied to the common shape.

    ``A B`` is ``a b`` and ``A B^T`` is ``a conj(b)``, whose vector part has
    the sign of ``b``'s flipped. The scalar part of the result may be
    negative. The vector part sums ``w v' + w' v`` and ``v x v'`` apart, so
    that for ``a conj(a)`` each cancels exactly: the relative rotation of a
    rotation to itself is exactly the identity, with a zero logarithm.
    """
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    if conjugate:
        bx, by, bz = -bx, -by, -bz
    out = np.empty((4,) + np.broadcast_shapes(np.shape(aw), np.shape(bw)))
    out[0] = aw * bw - ax * bx - ay * by - az * bz
    out[1] = (aw * bx + bw * ax) + (ay * bz - az * by)
    out[2] = (aw * by + bw * ay) + (az * bx - ax * bz)
    out[3] = (aw * bz + bw * az) + (ax * by - ay * bx)
    return out


def _quaternion_log(q, item, check=_check_cut_locus):
    """Axis-angle vectors ``(..., 3)`` of the rotations with unit
    quaternions ``q`` ``(4, ...)``; ``check(theta, item)`` guards the cut
    locus, by default with :func:`_check_cut_locus`.

    The angle is ``theta = 2 arctan2(|v|, |w|)`` of the scalar part ``w`` and
    the vector part ``v``, accurate near 0 and near pi, and the vector is
    ``theta v / |v|``, its sign flipped where ``w < 0``: ``q`` and ``-q`` are
    the same rotation. Below ``_TINY_ANGLE`` the factor ``theta / |v|`` takes
    its series ``2 + theta^2 / 12``. The axis ``v / |v|`` stays well
    conditioned up to pi, so no branch rebuilds it there.
    """
    w, x, y, z = q
    norm = np.sqrt(x * x + y * y + z * z)
    theta = 2.0 * np.arctan2(norm, np.abs(w))
    check(theta, item)
    with np.errstate(invalid="ignore", divide="ignore"):
        factor = np.divide(theta, norm, out=np.empty(np.shape(w)))
    small = theta < _TINY_ANGLE
    if np.any(small):
        factor[small] = 2.0 + theta[small] * theta[small] / 12.0
    np.copysign(factor, w, out=factor)
    out = np.empty(np.shape(w) + (3,))
    np.multiply(factor, q[1:], out=np.moveaxis(out, -1, 0))
    return out


def _quaternion_angle(a, p):
    """Rotation angle in ``[0, pi]`` between the rotations with quaternions
    ``a`` and ``p`` ``(4, ...)``; their leading shapes broadcast.

    The relative rotation ``A^T P`` has the quaternion ``a* p``, whose
    scalar part is the dot product ``a . p``. Its angle is
    ``2 arctan2(|vec(a* p)|, |a . p|)``: the absolute value makes ``q`` and
    ``-q`` the same rotation, and the arctangent stays accurate near 0 and
    near pi.
    """
    aw, ax, ay, az = a
    pw, px, py, pz = p
    dot = aw * pw + ax * px + ay * py + az * pz
    x = (aw * px - pw * ax) - (ay * pz - az * py)
    y = (aw * py - pw * ay) - (az * px - ax * pz)
    z = (aw * pz - pw * az) - (ax * py - ay * px)
    return _rotation_angle((dot, x, y, z))


def _rotation_angle(q):
    """Rotation angle in ``[0, pi]`` of the rotations with quaternions ``q``
    ``(4, ...)``, of any norm: ``2 arctan2(|vec q|, |w|)``, the angle of
    :func:`_quaternion_angle` between ``q`` and the identity."""
    w, x, y, z = q
    return 2.0 * np.arctan2(np.sqrt(x * x + y * y + z * z), np.abs(w))


def _sym2_apply(A, fn):
    """Apply the scalar function ``fn`` to symmetric ``(..., 2, 2)`` matrices.

    The eigenvalues are ``w = h +- r`` with ``h`` the mean of the diagonal,
    ``d`` half its difference and ``r = hypot(d, b)`` for the off-diagonal
    ``b``. The first eigenvector ``(c, s)`` is the normalized, numerically
    larger column of ``A - w[1] I``, and ``(1, 0)`` for isotropic input.
    ``V diag(f) V^T`` for ``f = fn(w)`` and ``V = [[c, -s], [s, c]]`` has
    the entries ``c^2 f0 + s^2 f1``, ``c s (f0 - f1)`` and
    ``s^2 f0 + c^2 f1``, formed elementwise. ``fn`` maps the stacked
    eigenvalues ``(..., 2)``.
    """
    A = np.asarray(A, dtype=float)
    a = A[..., 0, 0]
    b = 0.5 * (A[..., 0, 1] + A[..., 1, 0])
    h = 0.5 * (a + A[..., 1, 1])
    d = 0.5 * (a - A[..., 1, 1])
    r = np.hypot(d, b)
    f = fn(np.stack((h + r, h - r), axis=-1))
    f0, f1 = f[..., 0], f[..., 1]

    v0 = np.where(d >= 0.0, d + r, b)
    v1 = np.where(d >= 0.0, b, r - d)
    norm = np.hypot(v0, v1)
    isotropic = norm <= 0.0
    safe = np.where(isotropic, 1.0, norm)
    c = np.where(isotropic, 1.0, v0 / safe)
    s = np.where(isotropic, 0.0, v1 / safe)

    cc = c**2
    ss = s**2
    off = c * s * (f0 - f1)
    out = np.empty(A.shape)
    out[..., 0, 0] = cc * f0 + ss * f1
    out[..., 0, 1] = off
    out[..., 1, 0] = off
    out[..., 1, 1] = ss * f0 + cc * f1
    return out


def _positive_log(w):
    if np.any(w <= 0.0):
        raise ConditioningError(
            f"matrix is not positive-definite (min eigenvalue {w.min():.17g})"
        )
    return np.log(w)


def spd2_log(U):
    """Matrix logarithm of symmetric positive-definite ``(..., 2, 2)`` input."""
    return _sym2_apply(U, _positive_log)


def spd2_exp(X):
    """Matrix exponential of symmetric ``(..., 2, 2)`` input; always SPD."""
    return _sym2_apply(X, np.exp)


def _det_entries(entries):
    """Determinants of 3x3 matrices from their row-major entries ``(9, ...)``.

    Cofactor expansion along the first row is accurate to a few ulps of
    ``|X|_F^3``. Below ``_COFACTOR_MIN_DET`` times that, an LU determinant
    is taken instead, so that nearly singular matrices keep their sign.
    """
    a, b, c, d, e, f, g, h, i = entries
    det = a * (e * i - f * h) + b * (f * g - d * i) + c * (d * h - e * g)
    norm2 = np.einsum("k...,k...->...", entries, entries)
    weak = np.abs(det) < _COFACTOR_MIN_DET * norm2**1.5
    if np.any(weak):
        det = np.array(det)
        det[weak] = np.linalg.det(np.moveaxis(entries, 0, -1)[weak].reshape(-1, 3, 3))
    return det


def _cofactors(X, C):
    """Write the cofactor matrices of the 3x3 matrices with row-major
    entries ``X`` ``(9, n)`` into ``C`` and return their determinants."""
    a, b, c, d, e, f, g, h, i = X
    for k, (p, q, r, s) in enumerate((
        (e, i, f, h), (f, g, d, i), (d, h, e, g),
        (c, h, b, i), (a, i, c, g), (b, g, a, h),
        (b, f, c, e), (c, d, a, f), (a, e, b, d),
    )):
        np.multiply(p, q, out=C[k])
        C[k] -= r * s
    return a * C[0] + b * C[1] + c * C[2]


def polar_rotation(M):
    """Rotation factor of the polar decomposition of ``(..., 3, 3)`` input.

    Scaled Newton iteration ``X <- (zeta X + X^-T / zeta) / 2`` with the
    Frobenius-norm scaling ``zeta = (|X^-1|_F / |X|_F)^(1/2)`` (Higham,
    1986), on closed-form cofactor inverses. Every matrix must have a
    positive determinant; callers check it, since the error they raise
    depends on what the matrices mean.

    A stack stops when all its matrices have settled. With two or more
    leading axes, such as ``(shapes, triangles)``, each stack along the last
    one keeps the iterate at which it settled: the bits of a call on it alone.

    Raises
    ------
    ConditioningError
        If the iteration does not settle (non-finite input).
    """
    M = np.asarray(M, dtype=float)
    X = M.reshape(-1, 9).T.copy()
    # Y holds the cofactors, X^-T, then the next iterate; X the iterate,
    # then minus the step. They swap roles after every step.
    Y = np.empty_like(X)
    scaled = np.empty_like(X)
    size = M.shape[-3] if M.ndim > 3 else 0
    several = 0 < size < X.shape[1]
    if several:
        # The iterates of the stacks that settle before the last ones.
        early = np.empty((9, X.shape[1] // size, size))
        kept = np.zeros(early.shape[1], dtype=bool)
    for _ in range(_POLAR_MAX_ITER):
        det = _cofactors(X, Y)
        norm2 = np.einsum("kn,kn->n", X, X)
        with np.errstate(divide="ignore", invalid="ignore"):
            Y /= det
        weak = np.abs(det) < _COFACTOR_MIN_DET * norm2**1.5
        if np.any(weak):
            inv = np.linalg.inv(X[:, weak].T.reshape(-1, 3, 3))
            Y[:, weak] = np.swapaxes(inv, -1, -2).reshape(-1, 9).T
        zeta = np.sqrt(np.sqrt(np.einsum("kn,kn->n", Y, Y) / norm2))
        Y /= zeta
        Y += np.multiply(zeta, X, out=scaled)
        Y *= 0.5
        X -= Y
        small = np.einsum("kn,kn->n", X, X) <= _POLAR_STEP_TOL**2
        if np.all(small):
            if several:
                Y.reshape(early.shape)[:, kept] = early[:, kept]
            return Y.T.reshape(M.shape)
        if several:
            settled = np.all(small.reshape(early.shape[1:]), axis=1) & ~kept
            early[:, settled] = Y.reshape(early.shape)[:, settled]
            kept |= settled
        X, Y = Y, X
    raise ConditioningError(
        f"polar iteration did not settle within {_POLAR_MAX_ITER} steps"
    )


def polar3(D):
    """Polar decomposition ``D = R @ U`` with ``R`` a proper rotation.

    Parameters
    ----------
    D : array_like
        Matrices ``(..., 3, 3)`` with positive determinant.

    Returns
    -------
    R : ndarray
        Rotation factors ``(..., 3, 3)``, from :func:`polar_rotation`.
    U : ndarray
        Symmetric positive-definite stretch factors ``(..., 3, 3)``.

    Raises
    ------
    OrientationError
        If any determinant is non-positive (the deformation is not an
        orientation-preserving embedding). The gradients of
        :func:`shapeforms.encode` always have a positive determinant, so
        only a direct call meets this error.
    ConditioningError
        If the smallest singular value of a matrix falls below
        ``_MIN_REL_SIGMA`` times its largest.

    Either error names the worst matrix by its index over the leading
    axes of ``D``.
    """
    D = np.asarray(D, dtype=float)
    det = _det_entries(_entries(D))
    if np.any(det <= 0.0):
        idx = int(np.argmin(det.reshape(-1)))
        raise OrientationError(
            f"non-positive determinant {det.reshape(-1)[idx]:.17g} at index "
            f"{_stack_index(idx, det.shape)}"
        )
    # det D > 0, so the orthogonal polar factor is proper.
    R = polar_rotation(D)
    RtD = np.swapaxes(R, -1, -2) @ D
    U = 0.5 * (RtD + np.swapaxes(RtD, -1, -2))
    # The singular values of D are the eigenvalues of U. Only matrices whose
    # lower bound det / |D|_F^3 <= sigma_min / sigma_max falls short of
    # _MIN_REL_SIGMA need them.
    bound = det / np.einsum("...ij,...ij->...", D, D) ** 1.5
    suspect = np.flatnonzero(bound < _MIN_REL_SIGMA)
    if suspect.size:
        w = np.linalg.eigvalsh(U.reshape(-1, 3, 3)[suspect])
        rel = w[:, 0] / w[:, -1]
        worst = int(np.argmin(rel))
        if rel[worst] < _MIN_REL_SIGMA:
            raise ConditioningError(
                f"singular value ratio {rel[worst]:.3g} below {_MIN_REL_SIGMA:g} "
                f"at index {_stack_index(int(suspect[worst]), det.shape)}"
            )
    return R, U


def _stack_index(flat, shape):
    """``flat`` as an index of the leading ``shape``, a tuple for two axes or more."""
    return flat if len(shape) <= 1 else tuple(map(int, np.unravel_index(flat, shape)))
