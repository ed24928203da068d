import functools
import json
import re
import sys

import numpy as np
import pytest

from shapeforms import liegroups, statistics
from shapeforms.evaluation import generalization_curve, specificity
from shapeforms.errors import (
    ConvergenceError,
    CutLocusError,
    MeshFormatError,
    ReferenceMismatchError,
)
from shapeforms.liegroups import so3_exp, spd2_log
from shapeforms.reconstruction import reconstruct
from shapeforms.reference import build_reference
from shapeforms.representation import (
    DistanceParams,
    ShapeRep,
    TangentRep,
    encode,
    geodesic,
    rep_distance,
    rep_exp,
    rep_log,
)
from shapeforms.statistics import (
    PGAModel,
    _coefficient_rows,
    coefficients,
    frechet_mean,
    mean_residual,
    pga,
    sample,
    synthesize,
    unbiased_reference,
)
from shapeforms.synthetic import icosphere, smooth_deformation

from helpers import INVALID_STOPPING_RULES, add_tangents, rep_inner, rep_norm

EPS = np.finfo(float).eps


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

    def test_cut_locus_names_the_worst_edge_of_the_first_shape(self, cohort):
        mu = cohort[0]
        reps = list(cohort)
        half_turn = so3_exp(np.array([0.0, 0.6, 0.8]) * np.pi)
        near_half_turn = so3_exp(np.array([0.0, 0.6, 0.8]) * (np.pi - 1e-13))
        # Shape 2 is a half-turn from mu on edge 7 and within the margin on
        # edge 3; shape 4 is a half-turn on edge 1.
        for k, changes in ((2, ((7, half_turn), (3, near_half_turn))),
                           (4, ((1, half_turn),))):
            rotations = reps[k].rotations.copy()
            for edge, turn in changes:
                rotations[edge] = turn @ mu.rotations[edge]
            reps[k] = ShapeRep(rotations, reps[k].stretches, reps[k].reference_hash)
        with pytest.raises(CutLocusError, match=r"^edge 7 is at the cut locus"):
            mean_residual(mu, reps)
        with pytest.raises(CutLocusError, match=r"^edge 7 is at the cut locus"):
            rep_log(mu, reps[2])
        with pytest.raises(CutLocusError, match=r"^edge 1 is at the cut locus"):
            mean_residual(mu, reps[3:])

    def test_non_convergence_raises(self, ref, cohort):
        from shapeforms.errors import ConvergenceError

        with pytest.raises(ConvergenceError):
            frechet_mean(cohort, tol=1e-16, max_iter=1)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_no_iterations_rejected(self, ref, cohort, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            frechet_mean(cohort, max_iter=max_iter)

    @pytest.mark.parametrize("kwargs, message", INVALID_STOPPING_RULES)
    def test_invalid_limits_rejected(self, cohort, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            frechet_mean(cohort, **kwargs)

    def test_numpy_integer_limit_accepted(self, cohort):
        mu = frechet_mean(cohort, max_iter=np.int64(50))
        assert np.array_equal(mu.rotations, frechet_mean(cohort).rotations)

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
        direction = add_tangents(rep_log(mu, t), (-1.0) * rep_log(mu, s))
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

    def test_supplied_mean_gives_the_computed_model(self, ref, cohort):
        computed = pga(ref, cohort)
        supplied = pga(ref, cohort, mu=frechet_mean(cohort))
        for name in ("rotations", "stretches", "log_stretches"):
            assert np.array_equal(getattr(supplied.mean, name),
                                  getattr(computed.mean, name))
        assert np.array_equal(supplied._mode_matrix, computed._mode_matrix)
        assert np.array_equal(supplied.variances, computed.variances)
        assert np.array_equal(_coefficient_rows(ref, supplied, cohort),
                              _coefficient_rows(ref, computed, cohort))

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


class TestCoefficientRows:
    """The cohort projection that ``coefficients`` is the one-shape case of."""

    def test_rows_bit_equal_to_coefficients(self, ref, cohort, model):
        shapes = cohort + sample(model, 3, seed=5)
        rows = _coefficient_rows(ref, model, shapes)
        assert rows.shape == (len(shapes), model.n_modes)
        for rep, row in zip(shapes, rows):
            assert np.array_equal(coefficients(ref, model, rep), row)

    def test_pga_identity_on_training_shapes(self, ref, cohort, model):
        # Row i of mode k is sqrt(lambda_k) u_ik for the Gram eigenvectors u_k,
        # which are orthonormal and orthogonal to the ones vector.
        A = _coefficient_rows(ref, model, cohort)
        n = len(cohort)
        assert np.max(np.abs(A.T @ A / n - np.diag(model.variances))) < 1e-12
        assert np.max(np.abs(A.mean(axis=0))) < 1e-12

    def test_model_without_modes(self, ref, cohort):
        model = pga(ref, [cohort[0]] * 3)
        assert _coefficient_rows(ref, model, cohort).shape == (len(cohort), 0)

    def test_other_reference_rejected(self, ref, cohort, model):
        alien = encode(build_reference(icosphere(0)), icosphere(0))[0]
        with pytest.raises(ReferenceMismatchError, match="different reference"):
            _coefficient_rows(ref, model, cohort[:2] + [alien])

    def test_mode_of_another_size_rejected(self, model):
        mean = model.mean
        modes = list(model.modes)
        modes[1] = TangentRep(np.zeros((mean.n_edges, 3)),
                              np.zeros((mean.n_triangles + 1, 2, 2)),
                              mean.content_hash())
        with pytest.raises(ReferenceMismatchError,
                           match=r"^mode 1 sized \(120 edges, 81 triangles\) does not "
                                 r"fit the base shape \(120, 80\)$"):
            PGAModel(mean=mean, modes=modes, variances=model.variances,
                     params=model.params, reference_hash=model.reference_hash)

    def test_variance_count_other_than_mode_count_rejected(self, model):
        with pytest.raises(ValueError, match=r"^6 variances for 5 modes$"):
            PGAModel(mean=model.mean, modes=model.modes,
                     variances=np.append(model.variances, 1.0),
                     params=model.params, reference_hash=model.reference_hash)


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

    @pytest.mark.parametrize("count, n_modes, message", [
        (2, 2.7, "mode count must be an integer, got 2.7"),
        (2.5, None, "sample count must be an integer, got 2.5"),
    ])
    def test_fractional_counts_rejected(self, model, count, n_modes, message):
        with pytest.raises(ValueError, match=message):
            sample(model, count, seed=0, n_modes=n_modes)

    def test_numpy_integer_counts_accepted(self, model):
        assert len(sample(model, np.int64(2), seed=0, n_modes=np.int64(1))) == 2

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

    def test_loaded_model_bit_equal_to_saved_one(self, ref, cohort, model, tmp_path):
        # The mean's stretch logs travel with the model, so a loaded model
        # projects and synthesizes with the bits of the one that saved it.
        path = tmp_path / "model.json"
        model.save(path)
        back = PGAModel.load(path)
        assert np.array_equal(back.mean.log_stretches, model.mean.log_stretches)
        assert np.array_equal(back.mean.stretches, model.mean.stretches)
        assert np.array_equal(_coefficient_rows(ref, back, cohort),
                              _coefficient_rows(ref, model, cohort))
        for rep in cohort:
            assert np.array_equal(coefficients(ref, back, rep),
                                  coefficients(ref, model, rep))
        a = np.random.default_rng(1).normal(size=model.n_modes) * 0.1
        s1, s2 = synthesize(model, a), synthesize(back, a)
        assert np.array_equal(s2.rotations, s1.rotations)
        assert np.array_equal(s2.stretches, s1.stretches)

    @staticmethod
    def _legacy_model_file(model, tmp_path, with_logs):
        """``model`` saved with its mean in the earlier rotation-matrix
        format, with or without the mean's stretch-log triples."""
        path = tmp_path / "model.json"
        model.save(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        mean = model.mean
        payload["mean"] = {
            "rotations": mean.rotations.reshape(-1, 9).tolist(),
            "stretches": mean.stretches.reshape(-1, 4)[:, [0, 1, 3]].tolist()}
        if with_logs:
            payload["mean"]["log_stretches"] = mean.log_stretches.tolist()
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
        return path

    def test_file_without_stretch_logs_loads(self, model, tmp_path):
        # Files written before the mean carried its stretch logs: the mean
        # is the shape of the matrix constructor on its stored matrices.
        back = PGAModel.load(self._legacy_model_file(model, tmp_path, False))
        mean = model.mean
        built = ShapeRep(mean.rotations, mean.stretches, mean.reference_hash)
        assert np.array_equal(back.mean.quaternions, built.quaternions)
        assert np.array_equal(back.mean.log_stretches,
                              spd2_log(mean.stretches).reshape(-1, 4)[:, [0, 1, 3]])
        assert np.array_equal(back._mode_matrix, model._mode_matrix)

    def test_legacy_file_with_stretch_logs_loads(self, model, tmp_path):
        # Files written before the mean was stored as quaternions: the mean
        # holds the stored stretch logs themselves.
        back = PGAModel.load(self._legacy_model_file(model, tmp_path, True))
        mean = model.mean
        built = ShapeRep(mean.rotations, mean.stretches, mean.reference_hash)
        assert np.array_equal(back.mean.quaternions, built.quaternions)
        assert np.array_equal(back.mean.log_stretches, mean.log_stretches)
        assert np.array_equal(back._mode_matrix, model._mode_matrix)

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p["modes"][1]["rot_part"][4].__setitem__(2, float("nan")),
         r"mode 1 at edge 4 holds a non-finite value"),
        (lambda p: p["modes"][0]["stretch_part"][7].__setitem__(0, float("inf")),
         r"mode 0 at triangle 7 holds a non-finite value"),
        (lambda p: p["variances"].__setitem__(2, float("nan")),
         r"variance 2 holds a non-finite value"),
        (lambda p: p["mean"]["log_stretches"][3].__setitem__(1, float("-inf")),
         r"the stretch log of triangle 3 holds a non-finite value"),
        (lambda p: p["mean"]["quaternions"].__setitem__(6, [2.0, 0, 0, 0]),
         r"quaternion of edge 6 is not a finite unit quaternion"),
        (lambda p: p.__setitem__("mean", {
            "rotations": [[1.0, 0, 0, 0, 1, 0, 0, 0, 1]] * 5
            + [[2.0, 0, 0, 0, 1, 0, 0, 0, 1]],
            "log_stretches": p["mean"]["log_stretches"]}),
         r"rotation of edge 5 is not a finite rotation"),
        # One mode holding the coordinates of two, with one variance, which
        # without a size check fill two rows of the mode matrix.
        (lambda p: p.update(modes=[{
            part: p["modes"][0][part] + p["modes"][1][part]
            for part in ("rot_part", "stretch_part")}], variances=p["variances"][:1]),
         r"mode 0 sized \(240 edges, 160 triangles\) does not fit the base shape "
         r"\(120, 80\)$"),
        (lambda p: p["variances"].pop(), r"4 variances for 5 modes$"),
        (lambda p: p["modes"][2]["rot_part"][0].append(0.0),
         r"'rot_part' of mode 2 is not a list of rows of 3 numbers"),
        (lambda p: p["modes"][1].pop("stretch_part"), r"missing key 'stretch_part' in "
                                                      r"mode 1$"),
        (lambda p: p["mean"].update(log_stretches=[
            row + [0.0] for row in p["mean"]["log_stretches"]]),
         r"'log_stretches' is not a list of rows of 3 numbers"),
        (lambda p: p.update(variances=[[v] for v in p["variances"]]),
         r"'variances' is not a list of numbers"),
        (lambda p: p.pop("modes"), r"missing key 'modes'$"),
        (lambda p: p.pop("omega"), r"missing key 'omega'$"),
        (lambda p: p.update(omega="ten"), r"'omega' is not a number: got str$"),
        (lambda p: p.update(omega=True), r"'omega' is not a number: got bool$"),
        (lambda p: p.update(modes=3), r"'modes' is not a list: got int$"),
        (lambda p: p.update(reference_hash=5),
         r"'reference_hash' is not a string: got int$"),
    ], ids=["mode_edge", "mode_triangle", "variance", "stretch_log", "mean_rotation",
            "legacy_mean_rotation", "mode_of_two_sizes", "variance_count",
            "mode_row_of_four", "mode_without_stretch_part", "mean_logs_of_four",
            "nested_variances", "no_modes", "no_omega", "text_omega", "boolean_omega",
            "number_of_modes", "numeric_reference_hash"])
    def test_invalid_model_file_is_refused(self, model, tmp_path, edit, message):
        path = tmp_path / "model.json"
        model.save(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        edit(payload)
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
        with pytest.raises(MeshFormatError, match=rf"^{re.escape(str(path))}: {message}") \
                as excinfo:
            PGAModel.load(path)
        assert excinfo.value.path == path
        assert excinfo.value.category == "format"

    def test_truncated_model_file_is_refused(self, model, tmp_path):
        path = tmp_path / "model.json"
        model.save(path)
        path.write_text(path.read_text(encoding="utf-8")[:19], encoding="utf-8")
        with pytest.raises(MeshFormatError, match=rf"^{re.escape(str(path))}: "
                                                  r"Expecting value: line 1 column 20"):
            PGAModel.load(path)

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

    def test_unconverged_mean_reconstruction_raises(self, ref, monkeypatch):
        meshes = [
            smooth_deformation(ref.mesh, seed=s, stretch=0.08, wave_amplitude=0.03)
            for s in range(4)
        ]
        monkeypatch.setattr(statistics, "reconstruct",
                            functools.partial(reconstruct, max_iter=1))
        with pytest.raises(ConvergenceError,
                           match="reconstruction of the mean in round 1 did not "
                                 "converge in 1 iterations"):
            unbiased_reference(meshes, outer_iterations=2)


class TestHeldQuaternions:
    def test_each_shape_converted_once(self, ref, cohort, monkeypatch):
        # Building a shape from matrices converts its rotations once; the
        # analysis after it neither converts a matrix to a quaternion nor
        # forms a matrix from one.
        matrices = [(r.rotations, r.stretches) for r in cohort]
        calls = []
        for kernel in ("_quaternions", "_quaternion_entries"):
            original = getattr(liegroups, kernel)

            def counting(*args, original=original, kernel=kernel):
                calls.append(kernel)
                return original(*args)

            for name, module in list(sys.modules.items()):
                if (name.startswith("shapeforms")
                        and getattr(module, kernel, None) is original):
                    monkeypatch.setattr(module, kernel, counting)

        reps = [ShapeRep(R, U, ref.content_hash) for R, U in matrices]
        assert calls == ["_quaternions"] * len(reps)
        calls.clear()

        mu = frechet_mean(reps)
        model = pga(ref, reps, mu=mu)
        for modes in (1, 2):
            specificity(ref, model, reps, n_samples=5, modes=modes)
        generalization_curve(ref, reps)
        for rep in reps:
            coefficients(ref, model, rep)
        sample(model, 3, seed=0)
        geodesic(reps[0], reps[1], 0.5)
        assert calls == []

    def test_held_quaternions_are_read_only(self, cohort):
        rep = cohort[0]
        quats = rep.quaternions
        assert quats.shape == (4, rep.n_edges)
        assert rep.quaternions is quats
        with pytest.raises(ValueError):
            quats[0, 0] = 1.0
        built = ShapeRep(rep.rotations, rep.stretches, rep.reference_hash)
        assert np.array_equal(built.quaternions, liegroups._quaternions(
            liegroups._entries(rep.rotations)))
        assert np.max(np.abs(np.sum(quats * quats, axis=0) - 1.0)) <= 4.0 * EPS


class TestStoredMean:
    def test_reloaded_mean_gives_the_computed_model(self, ref, cohort, tmp_path):
        computed = pga(ref, cohort)
        computed.save(tmp_path / "model.json")
        loaded = PGAModel.load(tmp_path / "model.json").mean
        supplied = pga(ref, cohort, mu=loaded)
        assert np.array_equal(supplied._mode_matrix, computed._mode_matrix)
        assert np.array_equal(supplied.variances, computed.variances)
        assert np.array_equal(_coefficient_rows(ref, supplied, cohort),
                              _coefficient_rows(ref, computed, cohort))

    def test_shape_file_keeps_the_rotation_logs_of_the_mean(self, cohort, tmp_path):
        # A shape file stores the quaternions and stretch logs the mean
        # holds, at which every log at the mean is taken.
        mu = frechet_mean(cohort)
        mu.save(tmp_path / "mean.json")
        loaded = ShapeRep.load(tmp_path / "mean.json")
        assert np.array_equal(loaded.quaternions, mu.quaternions)
        assert np.array_equal(loaded.log_stretches, mu.log_stretches)
        for rep in cohort:
            assert np.array_equal(rep_log(loaded, rep).coordinates,
                                  rep_log(mu, rep).coordinates)

    def test_shape_file_mean_gives_the_computed_model(self, ref, cohort, tmp_path):
        # The stretch logs travel with a shape file as with a model file,
        # so a mean reloaded from one reproduces the model's bits.
        computed = pga(ref, cohort)
        computed.mean.save(tmp_path / "mean.json")
        supplied = pga(ref, cohort, mu=ShapeRep.load(tmp_path / "mean.json"))
        assert np.array_equal(supplied._mode_matrix, computed._mode_matrix)
        assert np.array_equal(supplied.variances, computed.variances)
        assert np.array_equal(_coefficient_rows(ref, supplied, cohort),
                              _coefficient_rows(ref, computed, cohort))

    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-12])
    def test_residual_at_the_returned_matrices_below_tolerance(self, cohort, tol):
        mu = frechet_mean(cohort, tol=tol)
        assert mean_residual(mu, cohort) < tol
