import numpy as np
import pytest

from shapeforms.reference import build_reference
from shapeforms.representation import (
    DistanceParams,
    TangentRep,
    encode,
    geodesic,
    rep_distance,
    rep_exp,
    rep_inner,
    rep_log,
    rep_norm,
)
from shapeforms.statistics import (
    PGAModel,
    coefficients,
    frechet_mean,
    mean_residual,
    pga,
    sample,
    synthesize,
    unbiased_reference,
)
from shapeforms.synthetic import icosphere, smooth_deformation


@pytest.fixture(scope="module")
def ref():
    return build_reference(icosphere(1))


@pytest.fixture(scope="module")
def cohort(ref):
    meshes = [
        smooth_deformation(ref.mesh, seed=seed, stretch=0.12, wave_amplitude=0.05)
        for seed in range(6)
    ]
    return [encode(ref, mesh)[0] for mesh in meshes]


@pytest.fixture(scope="module")
def model(ref, cohort):
    return pga(ref, cohort)


class TestFrechetMean:
    def test_single_shape(self, cohort):
        mu = frechet_mean(cohort[:1])
        assert mu is cohort[0]

    def test_residual_below_tolerance(self, ref, cohort):
        mu = frechet_mean(cohort, tol=1e-10)
        assert mean_residual(mu, cohort) < 1e-10

    def test_residual_needs_shapes(self, cohort):
        with pytest.raises(ValueError, match="need at least one representation"):
            mean_residual(cohort[0], [])

    def test_two_shape_mean_is_midpoint(self, ref, cohort):
        s, t = cohort[0], cohort[1]
        mu = frechet_mean([s, t])
        d = rep_distance(ref, s, t)
        assert rep_distance(ref, mu, s) == pytest.approx(d / 2, rel=1e-8)
        assert rep_distance(ref, mu, t) == pytest.approx(d / 2, rel=1e-8)
        mid = geodesic(s, t, 0.5)
        assert rep_distance(ref, mu, mid) < 1e-8

    def test_stretch_part_stationary_after_one_step(self, ref, cohort):
        from shapeforms.liegroups import spd2_exp, spd2_log

        mu = frechet_mean(cohort)
        target = spd2_exp(np.mean([spd2_log(r.stretches) for r in cohort], axis=0))
        assert np.max(np.abs(mu.stretches - target)) < 1e-12

    def test_permutation_invariance(self, ref, cohort):
        mu = frechet_mean(cohort)
        mu_perm = frechet_mean(list(reversed(cohort)))
        assert rep_distance(ref, mu, mu_perm) < 1e-9

    def test_non_convergence_raises(self, ref, cohort):
        from shapeforms.errors import ConvergenceError

        with pytest.raises(ConvergenceError):
            frechet_mean(cohort, tol=1e-16, max_iter=1)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_no_iterations_rejected(self, ref, cohort, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            frechet_mean(cohort, max_iter=max_iter)

    def test_rigid_motion_of_inputs_invariance(self, ref):
        from shapeforms.liegroups import so3_exp

        rng = np.random.default_rng(5)
        meshes = [smooth_deformation(ref.mesh, seed=s) for s in (20, 21, 22)]
        mu = frechet_mean([encode(ref, m)[0] for m in meshes])
        moved = []
        for m in meshes:
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            moved.append(
                m.transformed(rotation=so3_exp(axis * rng.uniform(0, 2.0)),
                              translation=rng.normal(size=3))
            )
        mu_moved = frechet_mean([encode(ref, m)[0] for m in moved])
        assert rep_distance(ref, mu, mu_moved) < 1e-8


class TestPGA:
    def test_two_shapes_single_mode(self, ref, cohort):
        s, t = cohort[0], cohort[1]
        model = pga(ref, [s, t])
        assert model.n_modes == 1
        mu = model.mean
        direction = rep_log(mu, t) + (-1.0) * rep_log(mu, s)
        norm = rep_norm(ref, model.params, direction)
        cosine = rep_inner(ref, model.params, model.modes[0], direction) / norm
        assert abs(abs(cosine) - 1.0) < 1e-8

    def test_identical_shapes_zero_modes(self, ref, cohort):
        model = pga(ref, [cohort[0]] * 4)
        assert model.n_modes == 0

    def test_mode_orthonormality(self, ref, model):
        for p, vp in enumerate(model.modes):
            for q, vq in enumerate(model.modes):
                g = rep_inner(ref, model.params, vp, vq)
                assert g == pytest.approx(1.0 if p == q else 0.0, abs=1e-8)

    def test_variances_descending(self, model):
        assert np.all(np.diff(model.variances) <= 1e-12)
        assert model.n_modes <= 5

    def test_trace_identity(self, ref, cohort, model):
        # Sum of variances equals the mean squared tangent norm.
        mu = model.mean
        total = np.mean(
            [rep_inner(ref, model.params, rep_log(mu, r), rep_log(mu, r)) for r in cohort]
        )
        assert np.sum(model.variances) == pytest.approx(total, rel=1e-8)

    def test_training_shapes_reconstructed(self, ref, cohort, model):
        for rep in cohort:
            a = coefficients(ref, model, rep)
            back = synthesize(model, a)
            assert rep_distance(ref, back, rep, model.params) < 1e-8

    def test_wrong_mean_rejected(self, ref, cohort):
        with pytest.raises(ValueError):
            pga(ref, cohort, mu=cohort[0])

    def test_single_direction_data_one_dominant_mode(self, ref, cohort):
        mu = frechet_mean(cohort)
        direction = rep_log(mu, cohort[1])
        reps = [rep_exp(mu, a * direction) for a in (-0.9, -0.3, 0.4, 0.8)]
        model = pga(ref, reps)
        assert model.n_modes >= 1
        if model.n_modes > 1:
            assert model.variances[1] / model.variances[0] < 1e-10


class TestCoefficients:
    def test_mean_has_zero_coefficients(self, ref, model):
        a = coefficients(ref, model, model.mean)
        assert np.max(np.abs(a)) < 1e-10

    def test_linearity_along_geodesic(self, ref, model):
        base = synthesize(model, 0.7 * np.eye(model.n_modes)[0])
        a_full = coefficients(ref, model, base)
        for lam in (0.25, 0.5):
            part = geodesic(model.mean, base, lam)
            a_part = coefficients(ref, model, part)
            assert np.allclose(a_part, lam * a_full, atol=1e-8)

    def test_synthesize_roundtrip_on_coefficients(self, ref, model):
        rng = np.random.default_rng(3)
        a = rng.normal(size=model.n_modes) * np.sqrt(model.variances)
        rep = synthesize(model, a)
        back = coefficients(ref, model, rep)
        assert np.allclose(back, a, atol=1e-8)

    def test_unit_mode_distance(self, ref, model):
        c = 0.31
        rep = synthesize(model, c * np.eye(model.n_modes)[0])
        d = rep_distance(ref, model.mean, rep, model.params)
        assert d == pytest.approx(c, rel=1e-8)


class TestSampling:
    def test_zero_variance_returns_mean(self, ref, model):
        degenerate = PGAModel(
            mean=model.mean,
            modes=model.modes,
            variances=np.zeros_like(model.variances),
            params=model.params,
            reference_hash=model.reference_hash,
        )
        for rep in sample(degenerate, 5, seed=0):
            assert rep_distance(ref, rep, model.mean, model.params) < 1e-12

    def test_deterministic_given_seed(self, ref, model):
        a = sample(model, 3, seed=7)
        b = sample(model, 3, seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x.rotations, y.rotations)

    def test_negative_mode_count_rejected(self, model):
        with pytest.raises(ValueError, match="mode count must not be negative, got -1"):
            sample(model, 2, seed=0, n_modes=-1)

    def test_excess_mode_count_rejected(self, model):
        with pytest.raises(ValueError, match=f"requested {model.n_modes + 1} of"):
            sample(model, 2, seed=0, n_modes=model.n_modes + 1)

    def test_negative_count_rejected(self, model):
        with pytest.raises(ValueError,
                           match="sample count must not be negative, got -1"):
            sample(model, -1, seed=0)
        assert sample(model, 0, seed=0) == []

    def test_leading_modes_only(self, ref, model):
        for rep in sample(model, 3, seed=4, n_modes=1):
            a = coefficients(ref, model, rep)
            assert np.max(np.abs(a[1:])) < 1e-10

    def test_coefficient_variances_match(self, ref, model):
        reps = sample(model, 600, seed=1)
        coeffs = np.stack([coefficients(ref, model, r) for r in reps])
        empirical = coeffs.var(axis=0)
        assert np.allclose(empirical, model.variances, rtol=0.15)


class TestSerializationAndRebias:
    def test_model_json_roundtrip(self, ref, model, tmp_path):
        path = tmp_path / "model.json"
        model.save(path)
        back = PGAModel.load(path)
        assert back.reference_hash == model.reference_hash
        assert np.allclose(back.variances, model.variances)
        assert np.array_equal(back.mean.rotations, model.mean.rotations)
        rng = np.random.default_rng(0)
        a = rng.normal(size=back.n_modes) * 0.1
        s1 = synthesize(model, a)
        s2 = synthesize(back, a)
        assert np.allclose(s1.rotations, s2.rotations, atol=1e-15)

    def test_model_save_load_save_bytes_identical(self, model, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        model.save(first)
        back = PGAModel.load(first)
        back.save(second)
        assert second.read_bytes() == first.read_bytes()
        assert np.array_equal(back._mode_matrix, model._mode_matrix)
        assert np.array_equal(back.variances, model.variances)
        assert back.mean.content_hash() == model.mean.content_hash()

    def test_modes_are_read_only_views_of_the_mode_matrix(self, model, tmp_path):
        model.save(tmp_path / "model.json")
        for m in (model, PGAModel.load(tmp_path / "model.json")):
            assert m.n_modes > 0
            for k, mode in enumerate(m.modes):
                assert np.shares_memory(mode.coordinates, m._mode_matrix)
                assert np.array_equal(mode.coordinates, m._mode_matrix[k])
            for part in (m.modes[0].coordinates, m.modes[0].rot_part,
                         m.modes[0].stretch_part):
                with pytest.raises(ValueError):
                    part.reshape(-1)[0] = 1.0

    def test_unbiased_reference_converges_to_mean(self, ref):
        meshes = [
            smooth_deformation(ref.mesh, seed=s, stretch=0.08, wave_amplitude=0.03)
            for s in range(4)
        ]
        new_ref, reps, mu = unbiased_reference(meshes, outer_iterations=2)
        # The reference now encodes (approximately) as the cohort mean:
        # the identity encoding is close to mu.
        identity_rep, _ = encode(new_ref, new_ref.mesh)
        d = rep_distance(new_ref, identity_rep, mu)
        spread = np.mean(
            [rep_distance(new_ref, identity_rep, r) for r in reps]
        )
        assert d < 0.05 * spread
