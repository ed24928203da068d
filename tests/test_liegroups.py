import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from shapeforms.errors import ConditioningError, CutLocusError, OrientationError
from shapeforms.liegroups import (
    _PI_MARGIN,
    _TINY_ANGLE,
    _check_each,
    _det_entries,
    _entries,
    _exp_quaternions,
    _quaternion_angle,
    _quaternion_entries,
    _quaternion_log,
    _quaternion_product,
    _quaternions,
    _rotation_angle,
    _sym2_apply,
    polar3,
    polar_rotation,
    so3_exp,
    so3_log,
    spd2_exp,
    spd2_log,
)

from helpers import (
    relative_angle,
    skew,
    so3_angle,
    so3_distance,
    spd2_distance,
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
        assert np.array_equal(so3_exp(np.zeros(3)), np.eye(3))
        assert np.array_equal(so3_exp(np.zeros((2, 3))), np.stack([np.eye(3)] * 2))

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
    def test_stack_of_stacks_settles_per_stack(self):
        # Three stacks whose iterations settle after different step counts.
        rng = np.random.default_rng(30)
        stacks = np.stack([
            np.eye(3) + 1e-3 * rng.normal(size=(6, 3, 3)),
            rng.normal(size=(6, 3, 3)) + 3.0 * np.eye(3),
            np.diag([1e4, 1.0, 1e-3]) @ so3_exp(rng.normal(size=(6, 3))),
        ])
        R = polar_rotation(stacks)
        for k, stack in enumerate(stacks):
            assert np.array_equal(R[k], polar_rotation(stack))
        nested = polar_rotation(stacks.reshape(1, 3, 6, 3, 3))
        assert np.array_equal(nested[0], R)

    def test_stacked_errors_name_the_index(self):
        D = np.broadcast_to(np.eye(3), (2, 4, 3, 3)).copy()
        D[1, 2, 2, 2] = -1.0
        with pytest.raises(OrientationError, match=r"at index \(1, 2\)$"):
            polar3(D)
        with pytest.raises(OrientationError, match=r"at index 6$"):
            polar3(D.reshape(-1, 3, 3))
        D[1, 2, 2, 2] = 1e-12
        with pytest.raises(ConditioningError, match=r"at index \(1, 2\)$"):
            polar3(D)

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
# The last stretch before pi, tested as a regime of its own: there the
# rotation's antisymmetric part vanishes and the axis must come from the rest.
NEAR_PI = 1e-3

class TestDetEntries:
    @given(axis_angles, axis_angles, spectra, st.integers(0, 2**32 - 1))
    def test_matches_lu_determinant(self, u, v, sigma, seed):
        # Conditioned, nearly singular, singular and negative-determinant
        # matrices in one stack, each within 1e-12 |D|_F^3 of LU.
        rng = np.random.default_rng(seed)
        D = with_spectrum(u, v, sigma)
        stack = np.stack((
            D,
            D @ np.diag([1.0, 1.0, -1.0]),
            with_spectrum(u, v, sigma * [1.0, 1.0, 0.0]),
            rng.normal(size=(3, 3)),
            rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-3.0, 3.0),
        ))
        det = _det_entries(_entries(stack))
        expected = np.linalg.det(stack)
        size = np.linalg.norm(stack, axis=(-2, -1)) ** 3
        assert det.shape == (5,)
        assert np.all(np.abs(det - expected) <= 1e-12 * size)
        assert np.all(np.sign(det[:2]) == [1.0, -1.0])

    def test_single_matrix(self):
        assert _det_entries(_entries(np.diag([2.0, 3.0, -0.5]))) == -3.0


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
        (_TINY_ANGLE, np.pi - NEAR_PI),
        (np.pi - NEAR_PI, np.pi - 1e3 * _PI_MARGIN),
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



ANGLE_REGIMES = {
    "tiny": (0.0, _TINY_ANGLE),
    "main": (_TINY_ANGLE, np.pi - NEAR_PI),
    "near_pi": (np.pi - NEAR_PI, np.pi - 1e3 * _PI_MARGIN),
}


class TestAngleBounds:
    """The per-edge bounds of the nearest-target search of ``specificity``:
    a sample ``exp(xi) mu`` and a target ``t`` at the angle ``theta`` from
    ``mu`` are ``| |xi| - theta | <= angle <= |xi| + theta`` apart, for
    ``|xi| < pi``. As the search does, the angles are taken with
    ``_quaternion_angle`` on the relative quaternion ``t conj(mu)``, with
    each of ``|xi|`` and ``theta`` in each regime of the kernels, and
    ``theta`` by ``_rotation_angle``."""

    @pytest.mark.parametrize("target_regime", ANGLE_REGIMES)
    @pytest.mark.parametrize("sample_regime", ANGLE_REGIMES)
    @given(axis_angles, unit_axes, unit_axes, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_reverse_and_forward_triangle_inequality(
            self, sample_regime, target_regime, u, axis, target_axis, s, t):
        lo, hi = ANGLE_REGIMES[sample_regime]
        xi = (lo + s * (hi - lo)) * axis
        lo, hi = ANGLE_REGIMES[target_regime]
        mu = _exp_quaternions(u)
        target = _quaternion_product(_exp_quaternions((lo + t * (hi - lo)) * target_axis),
                                     mu)
        relative = _quaternion_product(target, mu, conjugate=True)
        theta = _rotation_angle(relative)
        assert theta == _quaternion_angle(np.array([1.0, 0.0, 0.0, 0.0]), relative)
        phi = np.linalg.norm(xi)
        angle = _quaternion_angle(_exp_quaternions(xi), relative)
        # Both angles are accurate relative to the rotations' own size.
        slack = 8.0 * EPS * (phi + theta)
        assert abs(phi - theta) - slack <= angle <= phi + theta + slack
        # The conjugate form is the angle between the sample and the target.
        sample = _quaternion_product(_exp_quaternions(xi), mu)
        assert abs(_quaternion_angle(sample, target) - angle) <= 8.0 * EPS


# Angles in each regime of the rotation kernels: the series branch (down to
# zero), the main branch, and the last NEAR_PI before pi up to 1e3 times the
# cut-locus margin from pi, log-spaced towards both ends.
regime_angles = st.one_of(
    st.just(0.0),
    st.floats(-20.0, np.log10(_TINY_ANGLE), exclude_max=True).map(lambda u: 10.0**u),
    st.floats(_TINY_ANGLE, np.pi - NEAR_PI),
    st.floats(np.log10(1e3 * _PI_MARGIN), np.log10(NEAR_PI), exclude_max=True).map(
        lambda u: np.pi - 10.0**u),
)
rotation_vectors = st.tuples(unit_axes, regime_angles).map(lambda p: p[1] * p[0])


def extended_exp(xi):
    """Rotation matrices ``(..., 3, 3)`` of the axis-angle vectors ``xi`` in
    ``np.longdouble``: Rodrigues' formula ``I + a K + b K^2`` with
    ``a = sin(t)/t`` and ``b = (1 - cos(t))/t^2``, and their limits at 0."""
    x = np.asarray(xi, dtype=np.longdouble)
    t = np.sqrt(np.sum(x * x, axis=-1))
    nonzero = t > 0
    safe = np.where(nonzero, t, 1)
    a = np.where(nonzero, np.sin(t) / safe, 1)
    b = np.where(nonzero, (1 - np.cos(t)) / (safe * safe), 0.5)
    K = np.zeros(x.shape[:-1] + (3, 3), dtype=np.longdouble)
    K[..., 0, 1], K[..., 0, 2], K[..., 1, 2] = -x[..., 2], x[..., 1], -x[..., 0]
    K[..., 1, 0], K[..., 2, 0], K[..., 2, 1] = x[..., 2], -x[..., 1], x[..., 0]
    return (np.eye(3, dtype=np.longdouble) + a[..., None, None] * K
            + b[..., None, None] * (K @ K))


class TestSo3AgainstScipy:
    """``so3_exp`` and ``so3_log`` against ``scipy.spatial.transform.Rotation``
    in every branch regime, one at a time and stacked."""

    @given(rotation_vectors)
    def test_exp_matches_rotation_matrix(self, xi):
        expected = Rotation.from_rotvec(xi).as_matrix()
        assert np.max(np.abs(so3_exp(xi) - expected)) <= 8.0 * EPS

    @given(rotation_vectors)
    def test_log_matches_rotation_vector(self, xi):
        R = Rotation.from_rotvec(xi).as_matrix()
        expected = Rotation.from_matrix(R).as_rotvec()
        theta = np.linalg.norm(expected)
        err = np.max(np.abs(so3_log(R) - expected))
        # The half-angle form is accurate relative to the angle in every
        # regime, near pi too.
        assert err <= 8.0 * EPS * max(theta, np.finfo(float).tiny)

    @pytest.mark.parametrize("angles", [
        lambda rng, n: 10.0 ** rng.uniform(-20.0, np.log10(_TINY_ANGLE), n),
        lambda rng, n: rng.uniform(_TINY_ANGLE, np.pi - NEAR_PI, n),
        lambda rng, n: np.pi - 10.0 ** rng.uniform(np.log10(1e3 * _PI_MARGIN),
                                                   np.log10(NEAR_PI), n),
    ], ids=["tiny", "main", "near_pi"])
    def test_log_matches_rotation_vector_on_a_seeded_stack(self, angles):
        # Ten thousand rotations per regime reach the angles where a log
        # that divides by sin(theta) loses its accuracy, which a hundred
        # drawn examples may miss.
        rng = np.random.default_rng(23)
        axes = rng.normal(size=(10_000, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        R = Rotation.from_rotvec(angles(rng, len(axes))[:, None] * axes).as_matrix()
        expected = Rotation.from_matrix(R).as_rotvec()
        theta = np.linalg.norm(expected, axis=1)
        err = np.max(np.abs(so3_log(R) - expected), axis=1)
        assert np.all(err <= 8.0 * EPS * theta)

    @pytest.mark.parametrize("angles", [
        lambda rng, n: 10.0 ** rng.uniform(-20.0, np.log10(_TINY_ANGLE), n),
        lambda rng, n: rng.uniform(_TINY_ANGLE, np.pi - NEAR_PI, n),
        lambda rng, n: np.pi - 10.0 ** rng.uniform(np.log10(1e3 * _PI_MARGIN),
                                                   np.log10(NEAR_PI), n),
    ], ids=["tiny", "main", "near_pi"])
    def test_exp_matches_rotation_matrix_on_a_seeded_stack(self, angles):
        # Ten thousand vectors per regime reach the worst rounding of each
        # entry and of the orthogonality, which a hundred drawn examples
        # may miss. Both are measured in extended precision.
        rng = np.random.default_rng(1)
        axes = rng.normal(size=(10_000, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        xi = angles(rng, len(axes))[:, None] * axes
        R = so3_exp(xi).astype(np.longdouble)
        assert np.max(np.abs(R - extended_exp(xi))) <= 4.0 * EPS
        gram = np.swapaxes(R, -1, -2) @ R
        assert np.max(np.abs(gram - np.eye(3, dtype=np.longdouble))) <= 8.0 * EPS

    @given(st.lists(rotation_vectors, min_size=1, max_size=12))
    def test_stacked_match_single(self, vectors):
        xi = np.stack(vectors)
        R = so3_exp(xi)
        assert R.shape == (len(vectors), 3, 3)
        logs = so3_log(R)
        for k, v in enumerate(vectors):
            assert np.array_equal(R[k], so3_exp(v))
            assert np.array_equal(logs[k], so3_log(R[k]))
        expected = Rotation.from_rotvec(xi).as_matrix()
        assert np.max(np.abs(R - expected)) <= 8.0 * EPS
        grid = so3_exp(xi.reshape(1, -1, 3))
        assert grid.shape == (1, len(vectors), 3, 3)
        assert np.array_equal(grid[0], R)

    @given(st.lists(rotation_vectors, min_size=1, max_size=8), unit_axes,
           st.integers(0, 8))
    def test_cut_locus_names_the_half_turn(self, vectors, axis, position):
        R = list(Rotation.from_rotvec(np.stack(vectors)).as_matrix())
        position = min(position, len(R))
        R.insert(position, Rotation.from_rotvec(np.pi * axis).as_matrix())
        with pytest.raises(CutLocusError, match=rf"^rotation {position} is at the "
                           r"cut locus: rotation angle 3\.14159"):
            so3_log(np.stack(R))

    def test_cut_locus_names_the_flat_index_of_a_grid(self):
        R = so3_exp(np.full((2, 3, 3), 0.1))
        R[1, 2] = rot_z(np.pi)
        with pytest.raises(CutLocusError, match=r"^rotation 5 is at the cut locus"):
            so3_log(R)


# Angles in each regime of the quaternion kernels: the series branch of
# _exp_quaternions, the scalar pivot of _quaternions up to 2 pi / 3, the
# largest-diagonal pivot beyond it, the last NEAR_PI before pi, and, for
# the exponential alone, angles beyond pi.
quaternion_regimes = pytest.mark.parametrize("lo, hi", [
    (0.0, _TINY_ANGLE),
    (_TINY_ANGLE, 2.0 * np.pi / 3.0),
    (2.0 * np.pi / 3.0, np.pi - NEAR_PI),
    (np.pi - NEAR_PI, np.pi),
    (np.pi, 2.5 * np.pi),
], ids=["tiny", "scalar_pivot", "diagonal_pivot", "near_pi", "beyond_pi"])


def unit_norm_error(q):
    return abs(float(np.sum(q * q)) - 1.0)


class TestQuaternions:
    """``_quaternions``, ``_exp_quaternions`` and ``_quaternion_angle`` in
    every branch regime, against each other and the matrix kernels."""

    @quaternion_regimes
    @given(unit_axes, st.floats(0.0, 1.0))
    def test_exp_matches_converted_matrix(self, lo, hi, axis, t):
        xi = (lo + t * (hi - lo)) * axis
        q = _exp_quaternions(xi)
        r = _quaternions(_entries(so3_exp(xi)))
        assert q.shape == r.shape == (4,)
        assert unit_norm_error(q) <= 8.0 * EPS
        assert unit_norm_error(r) <= 8.0 * EPS
        # q and -q are the same rotation; the conversion keeps w >= 0.
        assert min(np.max(np.abs(q - r)), np.max(np.abs(q + r))) <= 4.0 * EPS
        assert r[0] >= 0.0
        theta = np.linalg.norm(xi)
        folded = abs(theta - 2.0 * np.pi * np.round(theta / (2.0 * np.pi)))
        identity = np.array([1.0, 0.0, 0.0, 0.0])
        for quaternion in (q, r):
            angle = _quaternion_angle(identity, quaternion)
            assert abs(angle - folded) <= 8.0 * EPS * max(1.0, theta)

    @quaternion_regimes
    @given(axis_angles, unit_axes, st.floats(0.0, 1.0))
    def test_either_sign_gives_the_same_angle(self, lo, hi, u, axis, t):
        a = _exp_quaternions(u)
        p = _exp_quaternions(u + (lo + t * (hi - lo)) * axis)
        theta = _quaternion_angle(a, p)
        assert 0.0 <= theta <= np.pi
        for sa, sp in ((-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)):
            assert _quaternion_angle(sa * a, sp * p) == theta

    @pytest.mark.parametrize("k", range(3))
    def test_half_turn_about_a_coordinate_axis(self, k):
        R = -np.eye(3)
        R[k, k] = 1.0
        expected = np.zeros(4)
        expected[1 + k] = 1.0
        assert np.array_equal(_quaternions(_entries(R)), expected)
        assert relative_angle(np.eye(3), R) == np.pi
        assert relative_angle(R, np.eye(3)) == np.pi

    @given(unit_axes)
    def test_half_turn_about_any_axis(self, axis):
        R = 2.0 * np.outer(axis, axis) - np.eye(3)
        q = _quaternions(_entries(R))
        assert unit_norm_error(q) <= 8.0 * EPS
        expected = np.concatenate(([0.0], axis))
        assert min(np.max(np.abs(q - expected)), np.max(np.abs(q + expected))) <= 4.0 * EPS
        assert relative_angle(np.eye(3), R) >= np.pi - _PI_MARGIN
        assert _quaternion_angle(q, _exp_quaternions(np.pi * axis)) <= 8.0 * EPS

    @given(st.lists(rotation_vectors, min_size=1, max_size=12))
    def test_stack_matches_single(self, vectors):
        # One stack mixes rotations of both pivots of _quaternions.
        R = so3_exp(np.stack(vectors))
        q = _quaternions(_entries(R))
        xq = _exp_quaternions(np.stack(vectors))
        assert q.shape == xq.shape == (4, len(vectors))
        for k, v in enumerate(vectors):
            assert np.array_equal(q[:, k], _quaternions(_entries(R[k])))
            assert np.array_equal(xq[:, k], _exp_quaternions(v))
        grid = _quaternions(_entries(R.reshape(1, -1, 3, 3)))
        assert np.array_equal(grid[:, 0], q)

    @given(st.lists(st.tuples(unit_axes, st.one_of(
        regime_angles,
        st.floats(np.pi - NEAR_PI, np.pi + NEAR_PI),
        st.floats(np.pi, 4.0 * np.pi),
    )).map(lambda p: p[1] * p[0]), min_size=1, max_size=12))
    def test_exp_returns_the_angles_it_uses(self, vectors):
        # The angles of the series branch, near pi and above pi, for a stack
        # laid out as the nearest-target search lays out a sample's edges:
        # rows of a strided slice of a wider array.
        wide = np.zeros((2, 3 * len(vectors) + 2))
        wide[1, :-2] = np.ravel(vectors)
        xi = wide[:, :-2].reshape(2, len(vectors), 3)
        for stack in (xi, xi[1], xi[1, 0]):
            q, theta = _exp_quaternions(stack, angles=True)
            assert np.array_equal(q, _exp_quaternions(stack))
            x, y, z = np.moveaxis(stack, -1, 0)
            assert np.array_equal(theta, np.sqrt(x * x + y * y + z * z))
            assert theta.shape == q.shape[1:]


def extended_log(P):
    """Rotation logarithm of the nearly orthogonal ``P`` ``(3, 3)`` in
    ``np.longdouble``: its quaternion from Shepperd's largest pivot,
    normalized, then ``2 arctan2(|v|, |w|) sign(w) v / |v|``."""
    P = np.asarray(P, dtype=np.longdouble)
    trace = P[0, 0] + P[1, 1] + P[2, 2]
    q = np.empty(4, dtype=np.longdouble)
    k = int(np.argmax(np.array([trace, P[0, 0], P[1, 1], P[2, 2]])))
    if k == 0:
        q[0] = np.sqrt(1 + trace) / 2
        q[1:] = np.array([P[2, 1] - P[1, 2], P[0, 2] - P[2, 0],
                          P[1, 0] - P[0, 1]]) / (4 * q[0])
    else:
        i = k - 1
        j, l = (i + 1) % 3, (i + 2) % 3
        q[1 + i] = np.sqrt(1 + 2 * P[i, i] - trace) / 2
        q[0] = (P[l, j] - P[j, l]) / (4 * q[1 + i])
        q[1 + j] = (P[j, i] + P[i, j]) / (4 * q[1 + i])
        q[1 + l] = (P[l, i] + P[i, l]) / (4 * q[1 + i])
    q /= np.sqrt(np.sum(q * q))
    norm = np.sqrt(np.sum(q[1:] * q[1:]))
    if norm == 0:
        return np.zeros(3, dtype=np.longdouble)
    return 2 * np.arctan2(norm, abs(q[0])) * np.sign(q[0]) * q[1:] / norm


class TestQuaternionLog:
    """``_quaternion_log`` of the relative quaternions ``q conj(q_mu)`` of
    :func:`_quaternion_product`, in every branch regime up to 1e3 times the
    cut-locus margin from pi: against an extended-precision reference and
    against ``so3_log`` of the relative matrix."""

    @pytest.mark.parametrize("lo, hi", [
        (0.0, _TINY_ANGLE),
        (_TINY_ANGLE, np.pi - NEAR_PI),
        (np.pi - NEAR_PI, np.pi - 1e3 * _PI_MARGIN),
    ], ids=["tiny", "main", "near_pi"])
    @given(axis_angles, unit_axes, st.floats(0.0, 1.0))
    def test_matches_extended_precision_and_so3_log(self, lo, hi, u, axis, t):
        theta = lo + t * (hi - lo)
        Q = so3_exp(u)
        R = so3_exp(theta * axis) @ Q
        q = _quaternion_product(_quaternions(_entries(R)), _quaternions(_entries(Q)),
                                conjugate=True)
        log = _quaternion_log(q, "edge")
        assert log.shape == (3,)
        exact = extended_log(R.astype(np.longdouble) @ Q.T.astype(np.longdouble))
        assert np.max(np.abs(log - exact)) <= 16.0 * EPS
        # so3_log takes the same half-angle form on the quaternion of the
        # rounded product R Q^T, so it agrees as closely in every regime.
        assert np.max(np.abs(log - so3_log(R @ Q.T))) <= 16.0 * EPS
        # q and -q are the same rotation.
        assert np.array_equal(_quaternion_log(-q, "edge"), log)

    @given(axis_angles)
    def test_rotation_relative_to_itself_has_zero_log(self, u):
        q = _quaternions(_entries(so3_exp(u)))
        relative = _quaternion_product(q, q, conjugate=True)
        assert np.all(relative[1:] == 0.0)
        assert np.all(_quaternion_log(relative, "edge") == 0.0)

    @given(axis_angles, axis_angles)
    def test_product_composes_rotations(self, u, v):
        A, B = so3_exp(u), so3_exp(v)
        a, b = _quaternions(_entries(A)), _quaternions(_entries(B))
        for conjugate, expected in ((False, A @ B), (True, A @ B.T)):
            entries = _quaternion_entries(_quaternion_product(a, b, conjugate))
            assert np.max(np.abs(entries - _entries(expected))) <= 8.0 * EPS
        # The matrix of a quaternion off unit norm is still its rotation.
        for scale in (0.5, 1.0 + 1e-9, 3.0):
            assert np.max(np.abs(_quaternion_entries(scale * a) - _entries(A))) <= 8.0 * EPS

    @given(st.integers(0, 2**32 - 1), unit_axes, st.integers(0, 2),
           st.integers(0, 3), st.integers(1, 3))
    def test_cut_locus_names_the_edge_the_matrix_kernel_names(self, seed, axis, shape,
                                                              edge, offset):
        rng = np.random.default_rng(seed)
        mu = so3_exp(rng.uniform(-1.8, 1.8, (4, 3)))
        C = so3_exp(rng.uniform(-0.5, 0.5, (3, 4, 3))) @ mu
        # Shape `shape` is a half-turn from mu at `edge` and within the
        # margin at `other`; the last shape is a half-turn at `other`.
        other = (edge + offset) % 4
        C[shape, edge] = so3_exp(np.pi * axis) @ mu[edge]
        C[shape, other] = so3_exp((np.pi - 1e-13) * axis) @ mu[other]
        if shape < 2:
            C[2, other] = so3_exp(np.pi * axis) @ mu[other]
        relative = _quaternion_product(_quaternions(_entries(C)),
                                       _quaternions(_entries(mu)), conjugate=True)
        with pytest.raises(CutLocusError, match=rf"^edge {edge} is at the cut locus"):
            _quaternion_log(relative, "edge", check=_check_each)
