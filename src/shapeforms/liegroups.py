"""Closed-form kernels for rotations and 2x2 symmetric-positive-definite
matrices, and a Newton iteration for the 3x3 polar decomposition.

All functions are pure and accept stacked inputs: an argument documented as
``(3, 3)`` may be ``(..., 3, 3)`` and the operation maps over the leading
axes. Rotations follow the axis-angle convention where a tangent vector
``xi`` encodes the rotation by angle ``|xi|`` about ``xi / |xi|``.
"""

import numpy as np

from .errors import ConditioningError, CutLocusError, OrientationError

# Branch thresholds: Taylor series below _TINY_ANGLE, eigenvector-based axis
# extraction above pi - _NEAR_PI, hard error within _PI_MARGIN of pi.
_TINY_ANGLE = 1e-8
_NEAR_PI = 1e-3
_PI_MARGIN = 1e-12

# Newton polar iteration: it converges quadratically, so a step that moves
# no matrix by more than _POLAR_STEP_TOL leaves it about _POLAR_STEP_TOL**2
# from the limit. Scaled Newton takes six or seven steps even at a
# singular-value ratio of 1e-16; _POLAR_MAX_ITER only catches non-finite
# input. Below _COFACTOR_MIN_DET = |det X| / |X|_F^3 the closed-form
# cofactor inverse loses its accuracy and an LU inverse is used instead.
_POLAR_STEP_TOL = 1e-9
_POLAR_MAX_ITER = 30
_COFACTOR_MIN_DET = 1e-8


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


def so3_exp(xi):
    """Rotation matrix for the axis-angle vector ``xi``.

    Rodrigues' formula with a series fallback for small angles, so the
    map is smooth through ``xi = 0``.
    """
    xi = np.asarray(xi, dtype=float)
    theta = np.linalg.norm(xi, axis=-1)
    t2 = theta * theta
    small = theta < _TINY_ANGLE
    # sin(t)/t and (1-cos(t))/t^2 with their series at t=0
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(small, 1.0 - t2 / 6.0, np.sin(theta) / np.where(small, 1.0, theta))
        b = np.where(
            small, 0.5 - t2 / 24.0, (1.0 - np.cos(theta)) / np.where(small, 1.0, t2)
        )
    K = skew(xi)
    eye = np.broadcast_to(np.eye(3), K.shape)
    return eye + a[..., None, None] * K + b[..., None, None] * (K @ K)


def so3_angle(R):
    """Rotation angle in ``[0, pi]`` of ``R``, stable near both endpoints."""
    R = np.asarray(R, dtype=float)
    vee = unskew(R)
    sin_theta = np.linalg.norm(vee, axis=-1)
    cos_theta = 0.5 * (np.trace(R, axis1=-2, axis2=-1) - 1.0)
    return np.arctan2(sin_theta, cos_theta)


def so3_log(R):
    """Axis-angle vector of the rotation ``R``.

    Requires the rotation angle to be strictly below pi; at the cut locus
    the logarithm is ambiguous and a :class:`CutLocusError` is raised.
    """
    R = np.asarray(R, dtype=float)
    squeeze = R.ndim == 2
    R = R.reshape((-1, 3, 3)) if squeeze else R
    flat = R.reshape((-1, 3, 3))

    theta = so3_angle(flat)
    if np.any(theta >= np.pi - _PI_MARGIN):
        idx = int(np.argmax(theta))
        raise CutLocusError(
            f"rotation angle {theta[idx]:.17g} is within {_PI_MARGIN:g} of pi; "
            "logarithm is ambiguous"
        )

    vee = unskew(flat)
    small = theta < _TINY_ANGLE
    near_pi = theta > np.pi - _NEAR_PI
    main = ~small & ~near_pi

    out = np.empty_like(vee)
    # theta / sin(theta) ~ 1 + theta^2/6 for small theta
    t2 = theta[small] ** 2
    out[small] = vee[small] * (1.0 + t2 / 6.0)[..., None]
    with np.errstate(invalid="ignore", divide="ignore"):
        factor = theta[main] / np.sin(theta[main])
    out[main] = vee[main] * factor[..., None]

    if np.any(near_pi):
        # Diagonal-based axis: a_i^2 = (R_ii - cos)/(1 - cos) is well
        # conditioned near pi, where the antisymmetric part degenerates.
        for i in np.nonzero(near_pi)[0]:
            Ri = flat[i]
            c = np.cos(theta[i])
            d = np.clip((np.diag(Ri) - c) / (1.0 - c), 0.0, None)
            k = int(np.argmax(d))
            axis = np.empty(3)
            axis[k] = np.sqrt(d[k])
            for j in range(3):
                if j != k:
                    axis[j] = (Ri[j, k] + Ri[k, j]) / (2.0 * (1.0 - c) * axis[k])
            axis /= np.linalg.norm(axis)
            if np.dot(axis, vee[i]) < 0.0:
                axis = -axis
            out[i] = theta[i] * axis

    out = out.reshape(R.shape[:-2] + (3,))
    return out[0] if squeeze else out


def so3_distance(Q, R):
    """Geodesic distance ``sqrt(2) * angle(Q^T R)`` of the bi-invariant metric.

    Equals the Frobenius norm of the matrix logarithm of the relative
    rotation; raises :class:`CutLocusError` at (numerical) angle pi.
    """
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    theta = so3_angle(np.swapaxes(Q, -1, -2) @ R)
    if np.any(theta >= np.pi - _PI_MARGIN):
        raise CutLocusError("relative rotation at the cut locus (angle pi)")
    return np.sqrt(2.0) * theta


def _sym2_eig(A):
    """Closed-form eigendecomposition of symmetric ``(..., 2, 2)`` matrices.

    Returns ``(w, V)`` with eigenvalues ``w[..., 0] >= w[..., 1]`` and
    eigenvectors in the columns of ``V``.
    """
    A = np.asarray(A, dtype=float)
    a = A[..., 0, 0]
    b = 0.5 * (A[..., 0, 1] + A[..., 1, 0])
    c = A[..., 1, 1]
    h = 0.5 * (a + c)
    d = 0.5 * (a - c)
    r = np.hypot(d, b)

    w = np.stack((h + r, h - r), axis=-1)

    # First eigenvector from the numerically larger column of A - w2*I.
    v0 = np.where(d >= 0.0, d + r, b)
    v1 = np.where(d >= 0.0, b, r - d)
    norm = np.hypot(v0, v1)
    isotropic = norm <= 0.0
    safe = np.where(isotropic, 1.0, norm)
    v0 = np.where(isotropic, 1.0, v0 / safe)
    v1 = np.where(isotropic, 0.0, v1 / safe)

    V = np.empty(A.shape)
    V[..., 0, 0] = v0
    V[..., 1, 0] = v1
    V[..., 0, 1] = -v1
    V[..., 1, 1] = v0
    return w, V


def _sym2_apply(A, fn):
    w, V = _sym2_eig(A)
    fw = fn(w)
    return np.einsum("...ik,...k,...jk->...ij", V, fw, V)


def spd2_log(U):
    """Matrix logarithm of symmetric positive-definite ``(..., 2, 2)`` input."""
    U = np.asarray(U, dtype=float)
    w, V = _sym2_eig(U)
    if np.any(w <= 0.0):
        raise ConditioningError(
            f"matrix is not positive-definite (min eigenvalue {w.min():.17g})"
        )
    return np.einsum("...ik,...k,...jk->...ij", V, np.log(w), V)


def spd2_exp(X):
    """Matrix exponential of symmetric ``(..., 2, 2)`` input; always SPD."""
    return _sym2_apply(X, np.exp)


def spd2_mul(U, V):
    """Commutative group product ``exp(log U + log V)`` on SPD matrices."""
    return spd2_exp(spd2_log(U) + spd2_log(V))


def spd2_distance(U, V):
    """Flat distance ``|log V - log U|_F`` of the log-Euclidean structure."""
    diff = spd2_log(V) - spd2_log(U)
    return np.linalg.norm(diff, axis=(-2, -1))


def _cofactors(X):
    """Cofactor matrices and determinants of 3x3 matrices stored as the
    rows ``(9, n)`` of their row-major entries."""
    a, b, c, d, e, f, g, h, i = X
    C = np.stack((
        e * i - f * h, f * g - d * i, d * h - e * g,
        c * h - b * i, a * i - c * g, b * g - a * h,
        b * f - c * e, c * d - a * f, a * e - b * d,
    ))
    return C, a * C[0] + b * C[1] + c * C[2]


def polar_rotation(M):
    """Rotation factor of the polar decomposition of ``(..., 3, 3)`` input.

    Scaled Newton iteration ``X <- (zeta X + X^-T / zeta) / 2`` with the
    Frobenius-norm scaling ``zeta = (|X^-1|_F / |X|_F)^(1/2)`` (Higham,
    1986), on closed-form cofactor inverses. Every matrix must have a
    positive determinant; callers check it, since the error they raise
    depends on what the matrices mean.

    Raises
    ------
    ConditioningError
        If the iteration does not settle (non-finite input).
    """
    M = np.asarray(M, dtype=float)
    X = M.reshape(-1, 9).T.copy()
    for _ in range(_POLAR_MAX_ITER):
        C, det = _cofactors(X)
        norm2 = np.einsum("kn,kn->n", X, X)
        with np.errstate(divide="ignore", invalid="ignore"):
            Y = C / det
        weak = np.abs(det) < _COFACTOR_MIN_DET * norm2**1.5
        if np.any(weak):
            inv = np.linalg.inv(X[:, weak].T.reshape(-1, 3, 3))
            Y[:, weak] = np.swapaxes(inv, -1, -2).reshape(-1, 9).T
        zeta = np.sqrt(np.sqrt(np.einsum("kn,kn->n", Y, Y) / norm2))
        X, previous = 0.5 * (zeta * X + Y / zeta), X
        step = X - previous
        if np.all(np.einsum("kn,kn->n", step, step) <= _POLAR_STEP_TOL**2):
            return X.T.reshape(M.shape)
    raise ConditioningError(
        f"polar iteration did not settle within {_POLAR_MAX_ITER} steps"
    )


def polar3(D, min_rel_sigma=1e-10):
    """Polar decomposition ``D = R @ U`` with ``R`` a proper rotation.

    Parameters
    ----------
    D : array_like
        Matrices ``(..., 3, 3)`` with positive determinant.
    min_rel_sigma : float
        Smallest admissible ratio of extreme singular values.

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
        orientation-preserving embedding).
    ConditioningError
        If singular values are too spread for a reliable factorization.
    """
    D = np.asarray(D, dtype=float)
    det = np.linalg.det(D)
    if np.any(det <= 0.0):
        idx = int(np.argmin(det.reshape(-1)))
        raise OrientationError(
            f"non-positive determinant {det.reshape(-1)[idx]:.17g} at index {idx}"
        )
    # det D > 0, so the orthogonal polar factor is proper.
    R = polar_rotation(D)
    RtD = np.swapaxes(R, -1, -2) @ D
    U = 0.5 * (RtD + np.swapaxes(RtD, -1, -2))
    # The singular values of D are the eigenvalues of U. Only matrices whose
    # lower bound det / |D|_F^3 <= sigma_min / sigma_max falls short of
    # min_rel_sigma need them.
    bound = det / np.einsum("...ij,...ij->...", D, D) ** 1.5
    suspect = np.flatnonzero(bound < min_rel_sigma)
    if suspect.size:
        w = np.linalg.eigvalsh(U.reshape(-1, 3, 3)[suspect])
        rel = w[:, 0] / w[:, -1]
        worst = int(np.argmin(rel))
        if rel[worst] < min_rel_sigma:
            raise ConditioningError(
                f"singular value ratio {rel[worst]:.3g} below "
                f"{min_rel_sigma:g} at index {int(suspect[worst])}"
            )
    return R, U
