import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from shapeforms.errors import ConditioningError, CutLocusError, OrientationError
from shapeforms.liegroups import (
    _NEAR_PI,
    _PI_MARGIN,
    _TINY_ANGLE,
    _sym2_apply,
    polar3,
    polar_rotation,
    relative_angle,
    skew,
    so3_angle,
    so3_distance,
    so3_exp,
    so3_log,
    spd2_distance,
    spd2_exp,
    spd2_log,
    spd2_mul,
    unskew,
)


def random_rotation(rng, max_angle=np.pi - 1e-3):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, max_angle)
    return so3_exp(axis * angle)


def random_spd2(rng, log_scale=1.0):
    X = rng.normal(size=(2, 2), scale=log_scale)
    return spd2_exp(0.5 * (X + X.T))


def rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestSo3Exp:
    def test_zero_gives_identity(self):
        assert np.allclose(so3_exp(np.zeros(3)), np.eye(3))

    def test_quarter_turn_about_z(self):
        R = so3_exp(np.array([0.0, 0.0, np.pi / 2]))
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(R, expected, atol=1e-15)

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            xi = rng.normal(size=3) * rng.uniform(1e-10, 3.0)
            assert np.allclose(so3_exp(xi), scipy.linalg.expm(skew(xi)), atol=1e-12)

    def test_batched_shape(self):
        xi = np.zeros((4, 5, 3))
        assert so3_exp(xi).shape == (4, 5, 3, 3)

    def test_orthonormal_and_proper(self):
        rng = np.random.default_rng(1)
        xi = rng.normal(size=(100, 3)) * 2.0
        R = so3_exp(xi)
        assert np.allclose(np.swapaxes(R, -1, -2) @ R, np.eye(3), atol=1e-12)
        assert np.allclose(np.linalg.det(R), 1.0, atol=1e-12)


class TestSo3Log:
    def test_identity(self):
        assert np.allclose(so3_log(np.eye(3)), 0.0)

    def test_quarter_turn(self):
        xi = so3_log(rot_z(np.pi / 2))
        assert np.allclose(xi, [0.0, 0.0, np.pi / 2], atol=1e-14)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(0.0, np.pi - 1e-3)
            xi = axis * angle
            assert np.allclose(so3_log(so3_exp(xi)), xi, atol=1e-10)

    def test_near_pi_branch(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(np.pi - 1e-3, np.pi - 1e-9)
            xi = axis * angle
            assert np.allclose(so3_log(so3_exp(xi)), xi, atol=1e-7)

    def test_tiny_angles(self):
        rng = np.random.default_rng(4)
        for scale in (1e-12, 1e-9, 1e-8):
            xi = rng.normal(size=3)
            xi *= scale / np.linalg.norm(xi)
            assert np.allclose(so3_log(so3_exp(xi)), xi, atol=1e-16, rtol=1e-8)

    def test_half_turn_is_cut_locus(self):
        R = rot_z(np.pi)
        with pytest.raises(CutLocusError):
            so3_log(R)

    def test_cut_locus_error_names_worst_rotation(self):
        R = np.stack([rot_z(0.5), rot_z(1.0), rot_z(np.pi)])
        with pytest.raises(CutLocusError, match=r"^rotation 2 is at the cut locus: "
                           r"rotation angle 3\.14159"):
            so3_log(R)

    def test_against_matrix_logarithm(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            R = random_rotation(rng, max_angle=3.0)
            oracle = unskew(scipy.linalg.logm(R).real)
            assert np.allclose(so3_log(R), oracle, atol=1e-9)


class TestSo3Distance:
    def test_half_turn_is_cut_locus(self):
        Q = np.stack([rot_z(0.3), rot_z(0.3)])
        R = np.stack([rot_z(1.0), rot_z(0.3 + np.pi)])
        with pytest.raises(CutLocusError, match=r"^relative rotation 1 is at the "
                           r"cut locus: rotation angle 3\.14159"):
            so3_distance(Q, R)

    def test_zero_on_diagonal(self):
        rng = np.random.default_rng(6)
        Q = random_rotation(rng)
        assert so3_distance(Q, Q) == pytest.approx(0.0, abs=1e-12)

    def test_quarter_turn_value(self):
        d = so3_distance(np.eye(3), rot_z(np.pi / 2))
        assert d == pytest.approx(np.sqrt(2.0) * np.pi / 2, abs=1e-14)

    def test_matches_frobenius_norm_of_log(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            Q = random_rotation(rng)
            R = random_rotation(rng)
            rel = Q.T @ R
            if so3_angle(rel) >= np.pi - 1e-3:
                continue
            oracle = np.linalg.norm(scipy.linalg.logm(rel), "fro")
            assert so3_distance(Q, R) == pytest.approx(oracle, abs=1e-9)

    def test_bi_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            Q = random_rotation(rng, max_angle=np.pi / 2)
            R = random_rotation(rng, max_angle=np.pi / 2)
            P = random_rotation(rng)
            d = so3_distance(Q, R)
            assert so3_distance(P @ Q, P @ R) == pytest.approx(d, abs=1e-10)
            assert so3_distance(Q @ P, R @ P) == pytest.approx(d, abs=1e-10)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            Q, R, S = (random_rotation(rng, max_angle=np.pi / 2) for _ in range(3))
            assert so3_distance(Q, R) == pytest.approx(so3_distance(R, Q), abs=1e-12)
            assert so3_distance(Q, S) <= so3_distance(Q, R) + so3_distance(R, S) + 1e-9


class TestSpd2:
    def test_log_identity(self):
        assert np.allclose(spd2_log(np.eye(2)), 0.0)

    def test_log_diagonal(self):
        U = np.diag([np.e, 1.0])
        assert np.allclose(spd2_log(U), np.diag([1.0, 0.0]), atol=1e-15)

    def test_roundtrip(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            U = random_spd2(rng, log_scale=2.0)
            assert np.allclose(spd2_exp(spd2_log(U)), U, atol=1e-12, rtol=1e-12)

    def test_against_scipy_logm_expm(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            U = random_spd2(rng)
            assert np.allclose(spd2_log(U), scipy.linalg.logm(U), atol=1e-11)
            X = rng.normal(size=(2, 2))
            X = 0.5 * (X + X.T)
            assert np.allclose(spd2_exp(X), scipy.linalg.expm(X), atol=1e-11)

    def test_non_spd_rejected(self):
        with pytest.raises(ConditioningError):
            spd2_log(np.diag([1.0, -0.5]))

    def test_mul_identity_element(self):
        rng = np.random.default_rng(12)
        U = random_spd2(rng)
        assert np.allclose(spd2_mul(U, np.eye(2)), U, atol=1e-13)

    def test_mul_diagonal_closed_form(self):
        U = np.diag([2.0, 3.0])
        V = np.diag([5.0, 0.25])
        assert np.allclose(spd2_mul(U, V), np.diag([10.0, 0.75]), atol=1e-12)

    def test_mul_commutative_associative(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            U, V, W = (random_spd2(rng) for _ in range(3))
            assert np.allclose(spd2_mul(U, V), spd2_mul(V, U), atol=1e-12)
            assert np.allclose(
                spd2_mul(spd2_mul(U, V), W), spd2_mul(U, spd2_mul(V, W)), atol=1e-12
            )

    def test_distance_diagonal_value(self):
        assert spd2_distance(np.diag([np.e, 1.0]), np.eye(2)) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_flat_translation_invariance(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            U, V, W = (random_spd2(rng) for _ in range(3))
            d = spd2_distance(U, V)
            assert spd2_distance(spd2_mul(U, W), spd2_mul(V, W)) == pytest.approx(
                d, abs=1e-10
            )

    def test_batched(self):
        rng = np.random.default_rng(15)
        U = np.stack([random_spd2(rng) for _ in range(7)])
        assert spd2_log(U).shape == (7, 2, 2)
        assert spd2_distance(U, U).shape == (7,)


class TestPolar3:
    def test_identity(self):
        R, U = polar3(np.eye(3))
        assert np.allclose(R, np.eye(3))
        assert np.allclose(U, np.eye(3))

    def test_pure_rotation(self):
        rng = np.random.default_rng(16)
        Q = random_rotation(rng)
        R, U = polar3(Q)
        assert np.allclose(R, Q, atol=1e-12)
        assert np.allclose(U, np.eye(3), atol=1e-12)

    def test_scaled_rotation(self):
        Q = so3_exp(np.array([np.pi / 3, 0.0, 0.0]))
        R, U = polar3(2.0 * Q)
        assert np.allclose(R, Q, atol=1e-12)
        assert np.allclose(U, 2.0 * np.eye(3), atol=1e-12)

    def test_against_scipy_polar(self):
        rng = np.random.default_rng(17)
        count = 0
        while count < 30:
            D = rng.normal(size=(3, 3))
            if np.linalg.det(D) <= 1e-3:
                continue
            count += 1
            R, U = polar3(D)
            R_ref, U_ref = scipy.linalg.polar(D)
            assert np.allclose(R, R_ref, atol=1e-10)
            assert np.allclose(U, U_ref, atol=1e-10)

    def test_reassembly_and_spectrum(self):
        rng = np.random.default_rng(18)
        count = 0
        while count < 50:
            D = rng.normal(size=(3, 3))
            if np.linalg.det(D) <= 1e-3:
                continue
            count += 1
            R, U = polar3(D)
            assert np.allclose(R @ U, D, atol=1e-10)
            sv = np.linalg.svd(D, compute_uv=False)
            ev = np.sort(np.linalg.eigvalsh(U))[::-1]
            assert np.allclose(ev, sv, atol=1e-10)

    def test_negative_determinant_rejected(self):
        with pytest.raises(OrientationError):
            polar3(np.diag([1.0, 1.0, -1.0]))

    def test_near_singular_rejected(self):
        with pytest.raises((ConditioningError, OrientationError)):
            polar3(np.diag([1.0, 1.0, 1e-14]))


# A random proper rotation, from an axis-angle vector inside the ball of
# radius pi.
axis_angles = st.lists(
    st.floats(-1.8, 1.8, allow_nan=False), min_size=3, max_size=3
).map(np.array)


def with_spectrum(u, v, sigma):
    """The matrix ``U diag(sigma) V^T`` for the rotations of ``u`` and ``v``."""
    return so3_exp(u) @ np.diag(sigma) @ so3_exp(v).T


# Singular values (1, s2, s3) with s3 from 1 down to just above the 1e-10
# that polar3 accepts, and s2 in between.
spectra = st.tuples(
    st.floats(0.0, 1.0), st.floats(0.0, 9.999), st.floats(-3.0, 3.0)
).map(lambda t: 10.0 ** t[2] * np.array([1.0, 10.0 ** (-t[0] * t[1]), 10.0 ** -t[1]]))


class TestPolarRotation:
    @given(axis_angles, axis_angles, spectra)
    def test_matches_svd(self, u, v, sigma):
        D = with_spectrum(u, v, sigma)
        W, sv, Vt = np.linalg.svd(D)
        R = polar_rotation(D)
        assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-14
        assert np.linalg.det(R) > 0.0
        # The polar rotation moves by up to eps * s1 / (s2 + s3).
        scale = sv[0] / (sv[1] + sv[2])
        assert np.max(np.abs(R - W @ Vt)) < 1e-13 * scale

    @given(axis_angles, axis_angles, spectra)
    def test_polar3_reassembles(self, u, v, sigma):
        D = with_spectrum(u, v, sigma)
        R, U = polar3(D)
        assert np.array_equal(U, U.T)
        assert np.max(np.abs(R @ U - D)) < 1e-13 * sigma[0]
        w = np.linalg.eigvalsh(U)
        assert np.max(np.abs(np.sort(w) - np.sort(sigma))) < 1e-13 * sigma[0]

    def test_stacked_shapes(self):
        rng = np.random.default_rng(19)
        M = rng.normal(size=(2, 4, 3, 3)) * 0.1 + np.eye(3)
        R = polar_rotation(M)
        assert R.shape == M.shape
        for idx in np.ndindex(2, 4):
            assert np.allclose(R[idx], polar_rotation(M[idx]), atol=1e-15)

    @given(axis_angles, axis_angles, spectra)
    def test_non_positive_determinant_raises(self, u, v, sigma):
        D = with_spectrum(u, v, sigma)
        with pytest.raises(OrientationError):
            polar3(D @ np.diag([1.0, 1.0, -1.0]))
        with pytest.raises(OrientationError):
            polar3(D @ np.diag([1.0, 1.0, 0.0]))

    @given(axis_angles, axis_angles, st.floats(0.0, 1.0))
    def test_polar3_conditioning_threshold(self, u, v, t):
        # s2 anywhere between s3 and s1; only the ratio s3 / s1 counts.
        for factor, rejected in ((1.0 - 1e-3, True), (1.0 + 1e-3, False)):
            s3 = 1e-10 * factor
            D = with_spectrum(u, v, np.array([1.0, s3 ** (1.0 - t), s3]))
            if rejected:
                with pytest.raises(ConditioningError):
                    polar3(D)
            else:
                polar3(D)

    def test_non_finite_input_raises(self):
        with pytest.raises(ConditioningError):
            polar_rotation(np.full((3, 3), np.nan))


EPS = np.finfo(float).eps

# Unit vectors from their polar and azimuthal angles.
unit_axes = st.tuples(st.floats(0.0, np.pi), st.floats(-np.pi, np.pi)).map(
    lambda t: np.array([np.sin(t[0]) * np.cos(t[1]), np.sin(t[0]) * np.sin(t[1]),
                        np.cos(t[0])])
)
# Eigenvector angles, largest eigenvalues 1e-6 .. 1e6 and condition numbers
# 1 .. 1e12, as base-10 exponents.
eigvec_angles = st.floats(-np.pi, np.pi)
magnitudes = st.floats(-6.0, 6.0)
log_conditions = st.floats(0.0, 12.0)


def sym2(phi, w0, w1):
    """The symmetric matrix with eigenvalues ``w0``, ``w1`` and the first
    eigenvector at angle ``phi``."""
    c, s = np.cos(phi), np.sin(phi)
    V = np.array([[c, -s], [s, c]])
    A = V @ np.diag([w0, w1]) @ V.T
    return 0.5 * (A + A.T)


def eigh_apply(A, fn):
    w, W = np.linalg.eigh(A)
    return (W * fn(w)) @ W.T


def assert_matches_eigh_log(A):
    """The closed form against ``eigh`` within the forward error of the
    matrix logarithm: a perturbation of eps |A| moves log A by up to
    eps |A| / w_min, that is eps times the condition number."""
    out = _sym2_apply(A, np.log)
    assert out[0, 1] == out[1, 0]
    w = np.linalg.eigvalsh(A)
    bound = 8.0 * EPS * (w[-1] / w[0] + np.max(np.abs(np.log(w))))
    assert np.max(np.abs(out - eigh_apply(A, np.log))) <= bound


class TestSym2Apply:
    @given(eigvec_angles, magnitudes, log_conditions)
    def test_log_matches_eigh(self, phi, mag, log_cond):
        w0 = 10.0**mag
        assert_matches_eigh_log(sym2(phi, w0, w0 / 10.0**log_cond))

    @given(eigvec_angles, magnitudes, st.floats(0.0, 1e-8))
    def test_near_isotropic_log_matches_eigh(self, phi, mag, spread):
        w0 = 10.0**mag
        assert_matches_eigh_log(sym2(phi, w0, w0 * (1.0 - spread)))

    @given(magnitudes, log_conditions, st.booleans())
    def test_diagonal_stays_diagonal(self, mag, log_cond, ascending):
        w = np.array([10.0**mag, 10.0 ** (mag - log_cond)])
        A = np.diag(w[::-1] if ascending else w)
        out = _sym2_apply(A, np.log)
        assert out[0, 1] == 0.0 and out[1, 0] == 0.0
        assert_matches_eigh_log(A)

    @given(magnitudes)
    def test_isotropic_is_exact(self, mag):
        lam = 10.0**mag
        out = _sym2_apply(lam * np.eye(2), np.log)
        assert np.array_equal(out, np.log(lam) * np.eye(2))

    @given(eigvec_angles, magnitudes, log_conditions)
    def test_identity_function_rebuilds_input(self, phi, mag, log_cond):
        w0 = 10.0**mag
        A = sym2(phi, w0, w0 / 10.0**log_cond)
        assert np.max(np.abs(_sym2_apply(A, lambda w: w) - A)) <= 8.0 * EPS * w0

    def test_random_stack_matches_eigh(self):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(200, 2, 2))
        A = X @ np.swapaxes(X, -1, -2) + 1e-3 * np.eye(2)
        out = _sym2_apply(A, np.log)
        assert out.shape == A.shape
        for a, o in zip(A, out):
            assert np.array_equal(o, _sym2_apply(a, np.log))
            assert_matches_eigh_log(a)


class TestRelativeAngle:
    """``relative_angle(Q, R)`` against ``so3_angle(Q^T R)`` in every branch
    regime of the rotation kernels."""

    @pytest.mark.parametrize("lo, hi", [
        (0.0, _TINY_ANGLE),
        (_TINY_ANGLE, np.pi - _NEAR_PI),
        (np.pi - _NEAR_PI, np.pi - 1e3 * _PI_MARGIN),
    ], ids=["tiny", "main", "near_pi"])
    @given(axis_angles, unit_axes, st.floats(0.0, 1.0))
    def test_matches_so3_angle(self, lo, hi, u, axis, t):
        Q = so3_exp(u)
        R = Q @ so3_exp((lo + t * (hi - lo)) * axis)
        theta = relative_angle(Q, R)
        assert abs(theta - so3_angle(Q.T @ R)) <= 8.0 * EPS
        assert theta < np.pi - _PI_MARGIN

    @given(axis_angles, unit_axes)
    def test_half_turn_raises_like_so3_angle(self, u, axis):
        Q = so3_exp(u)
        R = Q @ so3_exp(np.pi * axis)
        assert so3_angle(Q.T @ R) >= np.pi - _PI_MARGIN
        assert relative_angle(Q, R) >= np.pi - _PI_MARGIN
        Qs = np.stack([Q, Q, Q])
        Rs = np.stack([Q, R, Q @ so3_exp(0.5 * axis)])
        with pytest.raises(CutLocusError, match=r"^relative rotation 1 is at the "
                           r"cut locus: rotation angle 3\.14159"):
            so3_distance(Qs, Rs)

    def test_broadcast_shapes(self):
        rng = np.random.default_rng(21)
        Q = random_rotation(rng)
        R = so3_exp(rng.normal(size=(2, 4, 3)))
        theta = relative_angle(Q, R)
        assert theta.shape == (2, 4)
        assert np.max(np.abs(theta - so3_angle(Q.T @ R))) <= 8.0 * EPS
        assert relative_angle(np.eye(3), R[0, 0]).shape == ()
