import functools
import json
import re

import numpy as np
import pytest

from shapeforms import evaluation, representation, statistics
from shapeforms.errors import (
    ConvergenceError,
    CutLocusError,
    MeshFormatError,
    ReferenceMismatchError,
)
from shapeforms.evaluation import (
    ClassifierModel,
    _aligned_rms,
    _align_to,
    accuracy_curve,
    compactness,
    discriminating_path,
    generalization_curve,
    metrics_report,
    monte_carlo_cv,
    pdm_coefficients,
    pdm_fit,
    specificity,
    train_svm,
)
from shapeforms.liegroups import so3_exp
from shapeforms.reconstruction import reconstruct
from shapeforms.reference import build_reference
from shapeforms.representation import (
    DistanceParams,
    ShapeRep,
    TangentRep,
    encode,
    rep_distance,
    rep_exp,
    rep_log,
)
from shapeforms.statistics import PGAModel, coefficients, frechet_mean, pga
from shapeforms.synthetic import icosphere, smooth_deformation

from helpers import (
    INVALID_STOPPING_RULES,
    exhaustive_nearest_distances,
    generalization,
    pdm_synthesize,
    tangent_distances,
)

EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def ref():
    return build_reference(icosphere(1))


@pytest.fixture(scope="module")
def cohort(ref):
    meshes = [
        smooth_deformation(ref.mesh, seed=seed, stretch=0.1, wave_amplitude=0.04)
        for seed in range(6)
    ]
    return [encode(ref, m)[0] for m in meshes]


@pytest.fixture(scope="module")
def model(ref, cohort):
    return pga(ref, cohort)


def unconverged_reconstruct(monkeypatch):
    """Let every reconstruction of the evaluation module stop after one round."""
    monkeypatch.setattr(evaluation, "reconstruct",
                        functools.partial(reconstruct, max_iter=1))


def stretch_only_cohort(ref, count, seed, scale=0.25):
    """Shapes varying only in the flat stretch part (exactly linear)."""
    base, _ = encode(ref, ref.mesh)
    rng = np.random.default_rng(seed)
    reps = []
    for _ in range(count):
        X = rng.normal(size=(ref.n_triangles, 2, 2), scale=scale)
        sym = 0.5 * (X + np.swapaxes(X, -1, -2))
        v = TangentRep(np.zeros((ref.n_inner_edges, 3)), sym, base.content_hash())
        reps.append(rep_exp(base, v))
    return reps


class TestSpecificity:
    def test_zero_variance_model(self, ref, cohort, model):
        degenerate = PGAModel(
            mean=model.mean,
            modes=model.modes,
            variances=np.zeros_like(model.variances),
            params=model.params,
            reference_hash=model.reference_hash,
        )
        value = specificity(ref, degenerate, cohort, n_samples=17, seed=3)
        expected = min(
            rep_distance(ref, model.mean, t, model.params) for t in cohort
        )
        assert value == pytest.approx(expected, abs=1e-9)

    def test_one_mode_two_shapes(self, ref, cohort):
        s, t = cohort[0], cohort[1]
        model2 = pga(ref, [s, t])
        d = rep_distance(ref, s, t, model2.params)
        value = specificity(ref, model2, [s, t], n_samples=300, modes=1, seed=0)
        # Samples live on the s-t geodesic, so the nearest training shape
        # is at most half the span away (plus a generous Gaussian margin).
        sigma = np.sqrt(model2.variances[0])
        assert value <= d / 2 + 3 * sigma

    def test_non_increasing_in_modes(self, ref, cohort, model):
        values = [
            specificity(ref, model, cohort, n_samples=300, modes=k, seed=5)
            for k in range(1, model.n_modes + 1)
        ]
        for a, b in zip(values, values[1:]):
            assert b <= 1.1 * a

    def test_vertex_metric_runs(self, ref, cohort, model):
        value = specificity(
            ref, model, cohort[:3], n_samples=4, metric="vertex", seed=1
        )
        assert value > 0.0

    def test_unconverged_vertex_metric_raises(self, ref, cohort, model, monkeypatch):
        unconverged_reconstruct(monkeypatch)
        with pytest.raises(ConvergenceError,
                           match="reconstruction of specificity sample 0 did not "
                                 "converge in 1 iterations"):
            specificity(ref, model, cohort[:3], n_samples=2, metric="vertex", seed=1)

    def test_empty_training_rejected(self, ref, model):
        with pytest.raises(ValueError):
            specificity(ref, model, [])

    def test_vertex_metric_builds_no_intrinsic_targets(self, ref, cohort, model,
                                                       monkeypatch):
        # The training shapes are no targets at the model mean; only each
        # held-out shape is one at its fold mean, whose log is projected.
        built = []
        targets = evaluation._nearest_targets

        def recorded(mean, shapes):
            built.append(len(shapes))
            return targets(mean, shapes)

        monkeypatch.setattr(evaluation, "_nearest_targets", recorded)
        assert specificity(ref, model, cohort[:3], n_samples=2, metric="vertex",
                           seed=1) > 0.0
        assert built == []
        report = metrics_report(ref, cohort[:4], n_samples=2, metric="vertex",
                                max_modes=1)
        assert report.specificity[0] > 0.0
        assert built == [1] * 4

    def test_vertex_metric_checks_binding_before_reconstructing(self, ref, cohort,
                                                                model, monkeypatch):
        other = build_reference(icosphere(1).transformed(scale=2.0))
        foreign, _ = encode(other, other.mesh)

        def refuse(*args, **kwargs):
            raise AssertionError("reconstructed")

        monkeypatch.setattr(evaluation, "reconstruct", refuse)
        with pytest.raises(ReferenceMismatchError):
            specificity(ref, model, [cohort[0], foreign], n_samples=2, metric="vertex")

    @pytest.mark.parametrize("call", [
        lambda ref, reps, model: specificity(ref, model, reps, metric="Vertex"),
        lambda ref, reps, model: generalization_curve(ref, reps, metric="Vertex"),
        lambda ref, reps, model: metrics_report(ref, reps, metric="Vertex"),
    ], ids=["specificity", "generalization_curve", "metrics_report"])
    def test_unknown_metric_refused_first(self, ref, cohort, model, monkeypatch, call):
        def refuse(*args, **kwargs):
            raise AssertionError("checked or computed before the metric")

        for name in ("_check_binding", "pga", "reconstruct", "_nearest_targets"):
            monkeypatch.setattr(evaluation, name, refuse)
        with pytest.raises(ValueError, match="^unknown metric 'Vertex'$"):
            call(ref, cohort, model)

    @pytest.mark.parametrize("modes", [-1, -5])
    def test_negative_mode_count_rejected(self, ref, cohort, model, modes):
        with pytest.raises(ValueError,
                           match=f"mode count must not be negative, got {modes}"):
            specificity(ref, model, cohort, n_samples=2, modes=modes)

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_no_samples_rejected(self, ref, cohort, model, n_samples):
        with pytest.raises(ValueError, match="n_samples must be at least 1"):
            specificity(ref, model, cohort, n_samples=n_samples)

    @pytest.mark.parametrize("kwargs, message", [
        ({"modes": 1.5}, "mode count must be an integer, got 1.5"),
        ({"n_samples": 2.5}, "n_samples must be an integer, got 2.5"),
    ])
    def test_fractional_counts_rejected(self, ref, cohort, model, kwargs, message):
        with pytest.raises(ValueError, match=message):
            specificity(ref, model, cohort, **{"n_samples": 2, **kwargs})

    def test_numpy_integer_counts_accepted(self, ref, cohort, model):
        value = specificity(ref, model, cohort, n_samples=np.int64(3),
                            modes=np.int64(2), seed=4)
        assert value == specificity(ref, model, cohort, n_samples=3, modes=2, seed=4)


def exhaustive_nearest(ref, model, training, n_samples, modes, seed):
    """The distances of the samples of ``specificity`` to every training
    shape by one ``tangent_distances`` call, and their smallest ones."""
    targets = evaluation._nearest_targets(model.mean, training)
    draws = statistics._sample_coefficients(model, n_samples, seed, modes)
    vectors = draws @ model._mode_matrix[:modes]
    weights = representation._coordinate_weights(ref, model.params)
    every = tangent_distances(vectors[:, None], *targets[:2], weights)
    return every.min(axis=1), targets, draws, weights


class TestNearestSearch:
    """The pruned search for the nearest training shape against the
    exhaustive one over all of them."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("modes", [1, 3, 5])
    def test_pruning_changes_no_answer(self, ref, cohort, model, monkeypatch, seed,
                                       modes):
        expected, targets, draws, weights = exhaustive_nearest(
            ref, model, cohort, 40, modes, seed)
        measured = []

        def counting(*args):
            d = exact(*args)
            measured.append(d.size)
            return d

        exact = evaluation._exp_distances
        monkeypatch.setattr(evaluation, "_exp_distances", counting)
        # All samples in one block, then one sample per block.
        pairs = []
        for budget in (statistics._BLOCK_BYTES, 1):
            monkeypatch.setattr(statistics, "_BLOCK_BYTES", budget)
            measured.clear()
            nearest = np.concatenate(list(evaluation._nearest_distances(
                draws, model._mode_matrix[:modes], targets, weights)))
            # A dot product over another count of rows may round by an ulp.
            assert np.max(np.abs(nearest - expected) / expected) <= 2 * EPS
            pairs.append(sum(measured))
        # Each sample is measured exactly at least once, and fewer than all
        # of its targets reach the angle kernel, in blocks of any size.
        assert pairs[0] == pairs[1]
        assert len(draws) <= pairs[0] < len(draws) * len(cohort)

    def test_targets_tied_within_rounding_give_the_exhaustive_minimum(self,
                                                                       monkeypatch):
        # One edge, 16 stretch coordinates 1024 + k 2^-30 with integer k below
        # 2^37: their differences are exact, and so are the squares and sums
        # of those within 2^24 steps, so the distance of a sample to its own
        # two targets rounds once, in its square root, to the same bits in
        # any search. The second target is the first with two entries moved
        # by one step, at squared distances 2^-60 K and 2^-60 (K - 2) for K
        # near 2^51: a few ulps apart, far below the rounding of the bounds,
        # which expand the squares 1024^2 of the coordinates. Without its
        # rounding margin the search keeps the farther of the two for some
        # samples. With it, a sample measures its own two targets and prunes
        # all others, among them one turned by one radian at the edge.
        rng = np.random.default_rng(7)
        n_samples, size = 32, 16
        sigma = rng.integers(2**25, 2**36, size=(n_samples, size))
        delta = rng.integers(2**23, 2**24, size=(n_samples, size))
        delta *= rng.choice([-1, 1], size=(n_samples, size))
        delta[:, 1] = delta[:, 0] + 2
        moved = delta.copy()
        moved[:, 0] += 1
        moved[:, 1] -= 1
        offsets = np.concatenate([np.stack([sigma + delta, sigma + moved], axis=1)
                                  .reshape(-1, size), sigma[:1]])
        stretch_logs = 1024.0 + offsets * 2.0**-30
        relative = np.zeros((4, len(offsets), 1))
        relative[0] = 1.0
        relative[:, -1, 0] = [np.cos(0.5), np.sin(0.5), 0.0, 0.0]
        targets = (relative, stretch_logs, evaluation._rotation_angle(relative))
        vectors = np.concatenate([np.zeros((n_samples, 3)),
                                  1024.0 + sigma * 2.0**-30], axis=1)
        weights = np.ones(vectors.shape[1])
        every = tangent_distances(vectors[:, None], relative, stretch_logs, weights)
        own = 2 * np.arange(n_samples)
        first, second = every[own // 2, own], every[own // 2, own + 1]
        assert np.all(np.argmin(every, axis=1) == own + 1)
        assert np.all(second >= first - 4 * np.spacing(first))
        measured = []

        def counting(*args):
            d = exact(*args)
            measured.append(d.size)
            return d

        exact = evaluation._exp_distances
        monkeypatch.setattr(evaluation, "_exp_distances", counting)
        nearest = np.concatenate(list(evaluation._nearest_distances(
            vectors, np.eye(vectors.shape[1]), targets, weights)))
        assert np.array_equal(nearest, every.min(axis=1))
        assert sum(measured) == 2 * n_samples

    def test_specificity_is_the_mean_nearest_distance(self, ref, cohort, model):
        expected = exhaustive_nearest(ref, model, cohort, 25, 2, 4)[0]
        value = specificity(ref, model, cohort, n_samples=25, modes=2, seed=4)
        assert value == pytest.approx(np.mean(expected), rel=4 * EPS)

    def test_cut_locus_of_a_far_target_raises_as_the_exhaustive_search(
            self, ref, cohort, model):
        # A training shape far from every sample, with one edge turned by pi
        # at the mean: the search never needs its distance, and still raises
        # the error of the search over all shapes, for its first sample.
        mu = model.mean
        rotations = mu.rotations.copy()
        rotations[3] = so3_exp(np.pi * np.array([0.0, 0.6, 0.8])) @ rotations[3]
        far = ShapeRep(rotations, 9.0 * mu.stretches, mu.reference_hash)
        # Modes in the stretches only, so that every sample keeps the mean's
        # rotations and the turned edge stays at pi from them.
        still = [TangentRep(np.zeros_like(m.rot_part), m.stretch_part,
                            m.base_hash) for m in model.modes[:2]]
        stretchy = PGAModel(mean=mu, modes=still, variances=model.variances[:2],
                            params=model.params, reference_hash=model.reference_hash)
        training = cohort[:3] + [far] + cohort[3:]
        with pytest.raises(CutLocusError) as exhaustive_error:
            exhaustive_nearest(ref, stretchy, training, 5, 2, 0)
        assert str(exhaustive_error.value).startswith("edge 3 is at the cut locus")
        with pytest.raises(CutLocusError) as error:
            specificity(ref, stretchy, training, n_samples=5, seed=0)
        assert str(error.value) == str(exhaustive_error.value)
        # Turned by pi / 2 instead, the far shape is nearest to no sample.
        rotations[3] = so3_exp(0.5 * np.pi * np.array([0.0, 0.6, 0.8])) @ mu.rotations[3]
        training[3] = ShapeRep(rotations, far.stretches, mu.reference_hash)
        assert specificity(ref, stretchy, training, n_samples=5, seed=0) == \
            pytest.approx(specificity(ref, stretchy, cohort, n_samples=5, seed=0),
                          rel=4 * EPS)


class TestGeneralization:
    def test_single_direction_family_recovered(self, ref, cohort):
        mu = frechet_mean(cohort)
        direction = rep_log(mu, cohort[1])
        reps = [rep_exp(mu, a * direction) for a in (-1.0, -0.5, 0.1, 0.6, 1.2)]
        value = generalization(ref, reps, modes=1)
        assert value < 1e-6

    def test_single_direction_family_recovered_in_vertices(self, ref, cohort):
        mu = frechet_mean(cohort)
        direction = rep_log(mu, cohort[1])
        reps = [rep_exp(mu, a * direction) for a in (-1.0, -0.5, 0.1, 0.6, 1.2)]
        curve = generalization_curve(ref, reps, max_modes=2, metric="vertex")
        assert curve.shape == (2,)
        assert np.all(curve < 1e-9)

    def test_unconverged_vertex_metric_raises(self, ref, cohort, monkeypatch):
        unconverged_reconstruct(monkeypatch)
        with pytest.raises(ConvergenceError,
                           match="reconstruction of shape 0 projected on 1 modes"):
            generalization_curve(ref, cohort[:4], max_modes=1, metric="vertex")

    def test_rotation_log_passes(self, monkeypatch):
        # Six shapes of 5,120 triangles: 3 passes for the full mean, then 2
        # for each fold's mean. A fold's first step reads the full mean's
        # last pass, and the held-out shape's log comes from its one relative
        # quaternion, so no fold passes at the full mean or over one shape.
        sphere = icosphere(4)
        ref = build_reference(sphere)
        reps = [encode(ref, smooth_deformation(sphere, seed=seed))[0]
                for seed in range(6)]
        calls = []
        passes = statistics._rotation_logs

        def counted(*args):
            calls.append(args)
            return passes(*args)

        monkeypatch.setattr(statistics, "_rotation_logs", counted)
        generalization_curve(ref, reps)
        assert len(calls) == 3 + 6 * 2

    def test_both_measures_go_through_one_search_per_metric(self, ref, cohort, model,
                                                           monkeypatch):
        def refuse(*args):
            raise AssertionError("searched")

        monkeypatch.setattr(evaluation, "_nearest_distances", refuse)
        with pytest.raises(AssertionError, match="searched"):
            generalization_curve(ref, cohort, max_modes=1)
        with pytest.raises(AssertionError, match="searched"):
            specificity(ref, model, cohort, n_samples=2)
        monkeypatch.setattr(evaluation, "_vertex_distances", refuse)
        with pytest.raises(AssertionError, match="searched"):
            generalization_curve(ref, cohort[:4], max_modes=1, metric="vertex")
        with pytest.raises(AssertionError, match="searched"):
            specificity(ref, model, cohort[:3], n_samples=2, metric="vertex")

    def test_intrinsic_curves_match_the_exhaustive_search(self, ref, cohort,
                                                          monkeypatch):
        mu = frechet_mean(cohort)
        direction = rep_log(mu, cohort[1])
        cohorts = [cohort, cohort[:4], stretch_only_cohort(ref, 6, seed=2),
                   [rep_exp(mu, a * direction) for a in (-1.0, -0.5, 0.1, 0.6, 1.2)]]
        curves = [generalization_curve(ref, reps) for reps in cohorts]
        report = metrics_report(ref, cohort, n_samples=30)
        monkeypatch.setattr(evaluation, "_nearest_distances",
                            exhaustive_nearest_distances)
        for reps, curve in zip(cohorts, curves):
            expected = generalization_curve(ref, reps)
            assert np.all(np.abs(curve - expected) <= 4 * EPS * expected)
        exhaustive = metrics_report(ref, cohort, n_samples=30)
        assert np.all(np.abs(report.generalization - exhaustive.generalization)
                      <= 4 * EPS * exhaustive.generalization)
        assert np.all(np.abs(report.specificity - exhaustive.specificity)
                      <= 4 * EPS * exhaustive.specificity)

    def test_held_out_shape_turned_by_pi_raises_at_the_cut_locus(self, ref):
        # Shapes that share their rotations, and one turned by pi at edge 3:
        # the full mean's first pass meets the half turn.
        reps = stretch_only_cohort(ref, 5, seed=3)
        rotations = reps[2].rotations.copy()
        rotations[3] = so3_exp(np.pi * np.array([0.0, 0.6, 0.8])) @ rotations[3]
        reps[2] = ShapeRep(rotations, reps[2].stretches, reps[2].reference_hash)
        with pytest.raises(CutLocusError) as error:
            generalization_curve(ref, reps)
        assert str(error.value) == ("edge 3 is at the cut locus: rotation angle "
                                    "3.1415926535897931 is within 1e-12 of pi")

    def test_one_target_at_the_cut_locus_raises_as_the_exhaustive_search(
            self, ref, cohort, model):
        # The held-out shape a half turn from the second of three projections
        # on edge 5: the one-target search names it as the search of all does.
        mu = model.mean
        a = np.array([[0.5, 0.0], [0.8, -0.3], [0.2, 0.4]])
        matrix = model._mode_matrix[:2]
        rot = (a @ matrix)[:, :3 * mu.n_edges].reshape(3, mu.n_edges, 3)
        rotations = mu.rotations.copy()
        rotations[5] = (so3_exp(rot[1, 5]) @ so3_exp(np.pi * np.array([0.6, 0.0, 0.8]))
                        @ mu.rotations[5])
        held_out = ShapeRep(rotations, cohort[0].stretches, mu.reference_hash)
        targets = evaluation._nearest_targets(mu, [held_out])
        weights = representation._coordinate_weights(ref, model.params)
        with pytest.raises(CutLocusError) as exhaustive_error:
            list(exhaustive_nearest_distances(a, matrix, targets, weights))
        assert str(exhaustive_error.value).startswith("edge 5 is at the cut locus")
        with pytest.raises(CutLocusError) as error:
            list(evaluation._nearest_distances(a, matrix, targets, weights))
        assert str(error.value) == str(exhaustive_error.value)

    def test_identical_shapes_zero(self, ref, cohort):
        reps = [cohort[0]] * 4
        assert generalization(ref, reps, modes=1) < 1e-9

    def test_non_increasing_curve_flat_data(self, ref):
        reps = stretch_only_cohort(ref, 6, seed=2)
        curve = generalization_curve(ref, reps)
        assert np.all(np.diff(curve) <= 1e-9)

    def test_max_modes_minimizes(self, ref):
        reps = stretch_only_cohort(ref, 5, seed=4)
        curve = generalization_curve(ref, reps)
        assert curve[-1] <= curve.min() + 1e-9

    @pytest.mark.parametrize("max_modes", [0, -1])
    def test_no_modes_rejected(self, ref, cohort, max_modes):
        with pytest.raises(ValueError, match="max_modes must be at least 1"):
            generalization_curve(ref, cohort, max_modes=max_modes)

    def test_fractional_mode_count_rejected(self, ref, cohort):
        with pytest.raises(ValueError, match="max_modes must be an integer, got 1.5"):
            generalization_curve(ref, cohort, max_modes=1.5)
        with pytest.raises(ValueError, match="max_modes must be an integer, got 1.5"):
            generalization(ref, cohort, modes=1.5)

    def test_fewer_than_three_shapes_rejected(self, ref, cohort):
        for measure in (generalization_curve, metrics_report):
            with pytest.raises(ValueError, match="need at least three shapes"):
                measure(ref, cohort[:2])


class TestCompactness:
    def test_full_count_is_one(self, model):
        assert compactness(model, model.n_modes) == pytest.approx(1.0, abs=1e-12)

    def test_equal_eigenvalues(self, model):
        toy = PGAModel(
            mean=model.mean,
            modes=model.modes[:2],
            variances=np.array([3.0, 3.0]),
            params=model.params,
            reference_hash=model.reference_hash,
        )
        assert compactness(toy, 1) == pytest.approx(0.5)

    def test_four_one_split(self, model):
        toy = PGAModel(
            mean=model.mean,
            modes=model.modes[:2],
            variances=np.array([4.0, 1.0]),
            params=model.params,
            reference_hash=model.reference_hash,
        )
        assert compactness(toy, 1) == pytest.approx(0.8)

    def test_negative_mode_count_rejected(self, model):
        with pytest.raises(ValueError, match="mode count must not be negative, got -1"):
            compactness(model, -1)

    def test_excess_mode_count_rejected(self, model):
        with pytest.raises(ValueError, match=f"requested {model.n_modes + 1} of"):
            compactness(model, model.n_modes + 1)

    def test_fractional_mode_count_rejected(self, model):
        with pytest.raises(ValueError, match="mode count must be an integer, got 1.9"):
            compactness(model, 1.9)
        assert compactness(model, np.int64(1)) == compactness(model, 1)

    def test_non_decreasing_ending_at_one(self, model):
        curve = [compactness(model, k) for k in range(1, model.n_modes + 1)]
        assert np.all(np.diff(curve) >= -1e-15)
        assert curve[-1] == pytest.approx(1.0, abs=1e-12)


class TestMetricsReport:
    def test_report_and_csv(self, ref, tmp_path):
        reps = stretch_only_cohort(ref, 5, seed=8, scale=0.15)
        report = metrics_report(ref, reps, n_samples=40, seed=0)
        assert np.all(np.diff(report.compactness) >= -1e-15)
        assert report.compactness[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(report.generalization) <= 1e-9)
        path = tmp_path / "metrics.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "modes,specificity,generalization,compactness"
        assert len(lines) == report.modes.size + 1

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_samples": 0}, "n_samples must be at least 1"),
        ({"max_modes": 0}, "max_modes must be at least 1"),
        ({"max_modes": -1}, "max_modes must be at least 1"),
    ])
    def test_empty_curves_rejected(self, ref, cohort, kwargs, message):
        with pytest.raises(ValueError, match=message):
            metrics_report(ref, cohort, **kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_samples": 2.5}, "n_samples must be an integer, got 2.5"),
        ({"max_modes": 1.5}, "max_modes must be an integer, got 1.5"),
    ])
    def test_fractional_counts_rejected(self, ref, cohort, kwargs, message):
        with pytest.raises(ValueError, match=message):
            metrics_report(ref, cohort, **kwargs)

    def test_identical_shapes_rejected(self, ref, cohort):
        with pytest.raises(ValueError, match="the model has no modes"):
            metrics_report(ref, [cohort[0]] * 4, n_samples=2)

    def test_specificity_column_bit_equal_to_specificity(self, ref, cohort):
        params = DistanceParams(omega=4.0)
        report = metrics_report(ref, cohort, params=params, n_samples=9, seed=3)
        model = pga(ref, cohort, params=params)
        expected = [specificity(ref, model, cohort, n_samples=9, modes=int(k), seed=3)
                    for k in report.modes]
        assert report.modes.size == model.n_modes > 1
        assert report.specificity.tolist() == expected


def toy_blobs(n_per_class=20, separation=5.0, dims=4, seed=0):
    rng = np.random.default_rng(seed)
    direction = np.zeros(dims)
    direction[0] = 1.0
    pos = rng.normal(size=(n_per_class, dims)) + separation * direction
    neg = rng.normal(size=(n_per_class, dims)) - separation * direction
    X = np.vstack([pos, neg])
    y = np.concatenate([np.ones(n_per_class), -np.ones(n_per_class)]).astype(int)
    return X, y


class TestSvm:
    def test_separable_training_accuracy(self):
        X, y = toy_blobs()
        clf = train_svm(X, y)
        assert np.mean(clf.predict(X) == y) == 1.0
        assert np.linalg.norm(clf.eta) > 0.0

    def test_label_flip_flips_direction(self):
        X, y = toy_blobs(seed=1)
        a = train_svm(X, y)
        b = train_svm(X, -y)
        cosine = (a.eta @ b.eta) / (np.linalg.norm(a.eta) * np.linalg.norm(b.eta))
        assert cosine == pytest.approx(-1.0, abs=1e-6)

    def test_duplicated_rows_same_direction(self):
        X, y = toy_blobs(seed=2)
        a = train_svm(X, y)
        b = train_svm(np.vstack([X, X]), np.concatenate([y, y]))
        cosine = (a.eta @ b.eta) / (np.linalg.norm(a.eta) * np.linalg.norm(b.eta))
        assert cosine == pytest.approx(1.0, abs=1e-6)

    def test_single_class_rejected(self):
        X, y = toy_blobs(seed=3)
        with pytest.raises(ValueError):
            train_svm(X, np.ones_like(y))

    def test_third_label_rejected(self):
        X, y = toy_blobs(seed=3)
        y[:2] = 2
        with pytest.raises(ValueError, match=r"labels must contain both classes "
                                             r"-1 and \+1, got \[-1\.  1\.  2\.\]"):
            train_svm(X, y)

    def test_json_roundtrip(self, tmp_path):
        X, y = toy_blobs(seed=4)
        clf = train_svm(X, y)
        path = tmp_path / "clf.json"
        clf.save(path)
        back = ClassifierModel.load(path)
        assert np.allclose(back.eta, clf.eta)
        assert back.bias == pytest.approx(clf.bias)

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p.pop("bias_std"), r"missing key 'bias_std'$"),
        (lambda p: p.update(regularization="1"),
         r"'regularization' is not a number: got str$"),
        (lambda p: p.update(feature_std=[[1.0, 1.0]]),
         r"'feature_std' is not a list of numbers"),
    ], ids=["no_bias", "text_regularization", "nested_scales"])
    def test_invalid_file_is_refused(self, tmp_path, edit, message):
        X, y = toy_blobs(seed=4)
        path = tmp_path / "clf.json"
        train_svm(X, y).save(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        edit(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(MeshFormatError, match=rf"^{re.escape(str(path))}: {message}"):
            ClassifierModel.load(path)


def reference_train_svm(X, y, reg=1.0, n_iterations=600):
    """The per-draw subgradient loop that the batched kernel replaced."""
    mean = X.mean(axis=0)
    centered = X - mean
    pooled = float(np.sqrt(np.mean(centered**2)))
    std = np.full(X.shape[1], pooled if pooled > 0.0 else 1.0)
    Z = centered / std
    alpha = 1.0 / reg
    n = Z.shape[0]
    w = np.zeros(Z.shape[1])
    b = 0.0
    w_sum = np.zeros_like(w)
    b_sum = 0.0
    tail = n_iterations // 2
    for t in range(1, n_iterations + 1):
        margin = y * (Z @ w + b)
        active = margin < 1.0
        grad_w = alpha * w - (y[active, None] * Z[active]).sum(axis=0) / n
        grad_b = -float(y[active].sum()) / n
        step = 1.0 / (alpha * t)
        w = w - step * grad_w
        b = b - step * grad_b
        if t > n_iterations - tail:
            w_sum += w
            b_sum += b
    return ClassifierModel(w_sum / tail, float(b_sum / tail), mean, std, reg)


def reference_monte_carlo_cv(X, y, share, draws, seed=0):
    """Monte-Carlo cross-validation one draw after another."""
    idx_pos = np.nonzero(y == 1)[0]
    idx_neg = np.nonzero(y == -1)[0]
    k = max(int(round(share * min(idx_pos.size, idx_neg.size))), 1)
    rng = np.random.default_rng(seed)
    accuracies = np.empty(draws)
    for d in range(draws):
        pos = rng.permutation(idx_pos)
        neg = rng.permutation(idx_neg)
        train = np.concatenate([pos[:k], neg[:k]])
        test = np.concatenate([pos[k:], neg[k:]])
        clf = reference_train_svm(X[train], y[train].astype(float))
        accuracies[d] = np.mean(clf.predict(X[test]) == y[test])
    return float(accuracies.mean()), float(accuracies.std())


class TestBatchedSvm:
    """The batched kernel against the per-draw loop it replaced."""

    @staticmethod
    def check_cv(monkeypatch, X, y, share, budget):
        """``monte_carlo_cv`` against the per-draw loop under a block budget;
        each block's stacked Grams fit it unless the block is one draw."""
        if budget is not None:
            monkeypatch.setattr(evaluation, "_SVM_BLOCK_BYTES", budget)
        blocks = []
        train_stack = evaluation._train_stack

        def recording(X, y, reg, n_iterations):
            blocks.append(X.shape)
            return train_stack(X, y, reg, n_iterations)

        monkeypatch.setattr(evaluation, "_train_stack", recording)
        expected = reference_monte_carlo_cv(X, y, share, draws=23, seed=4)
        assert expected[0] < 0.95
        assert monte_carlo_cv(X, y, share, draws=23, seed=4) == expected
        assert sum(draws for draws, _, _ in blocks) == 23
        for draws, n, _ in blocks:
            # The stacked Grams (draws, n, n + 1) are what the steps read.
            assert draws == 1 or draws * n * (n + 1) * 8 <= evaluation._SVM_BLOCK_BYTES

    @pytest.mark.parametrize("share", [0.2, 0.6])
    @pytest.mark.parametrize("budget", [1, 10_000, 30_000, None])
    def test_cv_matches_per_draw_loop(self, monkeypatch, share, budget):
        # Overlapping classes, so hinge terms stay active to the end. A
        # budget of one byte trains every draw in its own block; 10 kB two
        # draws per block at share 0.2 and one at 0.6, where the Gram of the
        # 30 training rows alone takes 7.4 kB; 30 kB seven and four, with a
        # shorter last block; and the default all 23 draws in one block.
        X, y = toy_blobs(n_per_class=25, separation=0.6, dims=12, seed=12)
        self.check_cv(monkeypatch, X, y, share, budget)

    @pytest.mark.parametrize("share", [0.2, 0.6])
    @pytest.mark.parametrize("budget", [1, 30_000, None])
    def test_cv_matches_per_draw_loop_wide_features(self, monkeypatch, share, budget):
        # As in C9, the features outnumber the training rows.
        X, y = toy_blobs(n_per_class=10, separation=0.6, dims=40, seed=12)
        self.check_cv(monkeypatch, X, y, share, budget)

    @pytest.mark.parametrize("n_per_class, dims, seed",
                             [(30, 9, 13), (30, 9, 14), (10, 40, 13), (300, 3, 14)],
                             ids=["13", "14", "features>rows", "rows>>features"])
    def test_train_svm_matches_per_draw_loop(self, n_per_class, dims, seed):
        X, y = toy_blobs(n_per_class=n_per_class, separation=0.6, dims=dims, seed=seed)
        clf = train_svm(X, y)
        expected = reference_train_svm(X, y.astype(float))
        assert np.mean(expected.predict(X) == y) < 1.0
        np.testing.assert_allclose(clf.weights_std, expected.weights_std,
                                   rtol=1e-12, atol=0.0)
        assert clf.bias_std == expected.bias_std
        assert np.array_equal(clf.feature_mean, expected.feature_mean)
        assert np.array_equal(clf.feature_std, expected.feature_std)
        assert np.array_equal(clf.predict(X), expected.predict(X))

    def test_model_over_draws_decides_as_each_draw(self):
        # monte_carlo_cv tests its draws through one ClassifierModel whose
        # fields carry a leading draw axis.
        X, y = toy_blobs(n_per_class=20, separation=0.6, dims=7, seed=17)
        rng = np.random.default_rng(0)
        models = []
        for _ in range(3):
            rows = np.concatenate([rng.permutation(20)[:14],
                                   20 + rng.permutation(20)[:14]])
            models.append(train_svm(X[rows], y[rows]))
        stacked = ClassifierModel(
            weights_std=np.stack([m.weights_std for m in models]),
            bias_std=np.array([m.bias_std for m in models]),
            feature_mean=np.stack([m.feature_mean for m in models]),
            feature_std=np.stack([m.feature_std for m in models]),
            regularization=1.0,
        )
        features = rng.normal(size=(3, 11, 7))
        decision = stacked.decision_function(features)
        predicted = stacked.predict(features)
        assert decision.shape == predicted.shape == (3, 11)
        for k, m in enumerate(models):
            assert np.array_equal(stacked.eta[k], m.eta)
            assert stacked.bias[k] == m.bias
            np.testing.assert_allclose(decision[k], m.decision_function(features[k]),
                                       rtol=1e-13, atol=1e-15)
            assert np.array_equal(predicted[k], m.predict(features[k]))

    def test_two_iterations_average_the_last(self):
        X, y = toy_blobs(seed=15)
        clf = train_svm(X, y, n_iterations=2)
        expected = reference_train_svm(X, y.astype(float), n_iterations=2)
        assert np.all(np.isfinite(clf.weights_std))
        np.testing.assert_allclose(clf.weights_std, expected.weights_std,
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n_iterations", [1, 0, -3])
    def test_too_few_iterations_rejected(self, n_iterations):
        X, y = toy_blobs(seed=16)
        with pytest.raises(ValueError, match="n_iterations"):
            train_svm(X, y, n_iterations=n_iterations)
        with pytest.raises(ValueError, match="n_iterations"):
            monte_carlo_cv(X, y, 0.5, draws=3, n_iterations=n_iterations)

    def test_fractional_iterations_rejected(self):
        X, y = toy_blobs(seed=16)
        with pytest.raises(ValueError, match="n_iterations must be an integer, got 2.5"):
            train_svm(X, y, n_iterations=2.5)


class TestMonteCarloCV:
    def test_separable_high_accuracy(self):
        X, y = toy_blobs(n_per_class=30, seed=5)
        mean, std = monte_carlo_cv(X, y, train_share=0.1, draws=50, seed=0)
        assert mean > 0.9

    def test_chance_level_on_noise(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 5))
        y = np.concatenate([np.ones(20), -np.ones(20)]).astype(int)
        mean, _ = monte_carlo_cv(X, y, train_share=0.5, draws=200, seed=1)
        assert 0.4 <= mean <= 0.6

    def test_deterministic_given_seed(self):
        X, y = toy_blobs(seed=7)
        a = monte_carlo_cv(X, y, 0.3, draws=20, seed=9)
        b = monte_carlo_cv(X, y, 0.3, draws=20, seed=9)
        assert a == b

    def test_scaling_invariance(self):
        X, y = toy_blobs(seed=8)
        a = monte_carlo_cv(X, y, 0.4, draws=30, seed=2)
        b = monte_carlo_cv(1000.0 * X, y, 0.4, draws=30, seed=2)
        assert abs(a[0] - b[0]) < 1e-9

    def test_curve_has_all_shares(self):
        X, y = toy_blobs(n_per_class=30, seed=9)
        shares = [0.1, 0.5, 0.9]
        rows = accuracy_curve(X, y, shares, draws=10, seed=0)
        assert [r[0] for r in rows] == shares

    def test_infeasible_share_rejected(self):
        X, y = toy_blobs(n_per_class=3, seed=10)
        with pytest.raises(ValueError):
            monte_carlo_cv(X, y, train_share=0.95, draws=5)

    def test_third_label_rejected(self):
        X, y = toy_blobs(seed=3)
        y[:2] = 2
        with pytest.raises(ValueError, match="labels must contain both classes"):
            monte_carlo_cv(X, y, 0.5, draws=5)
        with pytest.raises(ValueError, match="labels must contain both classes"):
            accuracy_curve(X, y, [0.5], draws=5)

    @pytest.mark.parametrize("draws", [0, -1])
    def test_no_draws_rejected(self, draws):
        X, y = toy_blobs(seed=17)
        with pytest.raises(ValueError, match="draws"):
            monte_carlo_cv(X, y, 0.5, draws=draws)
        with pytest.raises(ValueError, match="draws"):
            accuracy_curve(X, y, [0.5], draws=draws)

    def test_fractional_draws_rejected(self):
        X, y = toy_blobs(seed=17)
        with pytest.raises(ValueError, match="draws must be an integer, got 1.5"):
            monte_carlo_cv(X, y, 0.5, draws=1.5)
        with pytest.raises(ValueError, match="draws must be an integer, got 1.5"):
            accuracy_curve(X, y, [0.5], draws=1.5)
        assert monte_carlo_cv(X, y, 0.5, draws=np.int64(3)) == \
            monte_carlo_cv(X, y, 0.5, draws=3)


def reference_align(target, vertices):
    """Kabsch alignment of one configuration, as written before stacking."""
    P = vertices - vertices.mean(axis=0)
    Q = target - target.mean(axis=0)
    U, _, Vt = np.linalg.svd(P.T @ Q)
    S = np.diag([1.0, 1.0, np.sign(np.linalg.det(Vt.T @ U.T))])
    R = Vt.T @ S @ U.T
    return P @ R.T + target.mean(axis=0)


def moved_copies(vertices, count, seed):
    rng = np.random.default_rng(seed)
    copies = []
    for _ in range(count):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        R = so3_exp(axis * rng.uniform(0.0, 3.0))
        noise = rng.normal(size=vertices.shape, scale=0.05)
        copies.append((vertices + noise) @ R.T + rng.normal(size=3, scale=4.0))
    return np.stack(copies)


class TestKabsch:
    def test_stack_matches_one_at_a_time(self, ref):
        target = ref.mesh.vertices
        configs = moved_copies(target, 5, seed=40)
        expected = np.stack([reference_align(target, c) for c in configs])
        assert np.array_equal(_align_to(target, configs), expected)

    def test_rms_against_stacked_targets(self, ref):
        config = smooth_deformation(ref.mesh, seed=41).vertices
        targets = moved_copies(ref.mesh.vertices, 4, seed=42)
        expected = [
            np.sqrt(np.mean(np.sum((reference_align(t, config) - t) ** 2, axis=1)))
            for t in targets
        ]
        np.testing.assert_allclose(_aligned_rms(targets, config), expected,
                                   rtol=1e-12, atol=0.0)

    def test_rigid_copy_aligns_but_mirror_image_does_not(self, ref):
        target = smooth_deformation(ref.mesh, seed=43).vertices
        copy = target @ so3_exp(np.array([0.3, -1.2, 0.7])).T + 2.0
        mirrored = target * np.array([1.0, 1.0, -1.0])
        rms = _aligned_rms(target, np.stack([copy, mirrored]))
        assert rms[0] < 1e-12
        assert rms[1] > 1e-3


class TestPdm:
    def test_two_shapes_one_component(self, ref):
        meshes = [
            smooth_deformation(ref.mesh, seed=30),
            smooth_deformation(ref.mesh, seed=31),
        ]
        model = pdm_fit(meshes)
        assert model.n_modes == 1

    def test_unconverged_procrustes_raises(self, ref):
        meshes = [smooth_deformation(ref.mesh, seed=s) for s in (33, 34, 35, 36)]
        with pytest.raises(ConvergenceError, match="within 1 rounds"):
            pdm_fit(meshes, max_iter=1)
        with pytest.raises(ValueError, match="max_iter must be a positive integer, got 0"):
            pdm_fit(meshes, max_iter=0)

    @pytest.mark.parametrize("kwargs, message", INVALID_STOPPING_RULES)
    def test_invalid_limits_rejected(self, ref, kwargs, message):
        meshes = [smooth_deformation(ref.mesh, seed=s) for s in (33, 34, 35)]
        with pytest.raises(ValueError, match=f"^{message}$"):
            pdm_fit(meshes, **kwargs)

    def test_rigid_copies_have_no_variance(self, ref):
        rng = np.random.default_rng(11)
        base = smooth_deformation(ref.mesh, seed=32)
        meshes = [base]
        for _ in range(3):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            meshes.append(
                base.transformed(
                    rotation=so3_exp(axis * rng.uniform(0, 2.5)),
                    translation=rng.normal(size=3, scale=5.0),
                )
            )
        model = pdm_fit(meshes)
        assert np.all(model.variances < 1e-12)

    def test_training_reconstruction_exact(self, ref):
        meshes = [smooth_deformation(ref.mesh, seed=s) for s in (33, 34, 35, 36)]
        model = pdm_fit(meshes)
        for mesh in meshes:
            coeffs = pdm_coefficients(model, mesh)
            rebuilt = pdm_synthesize(model, coeffs)
            aligned = _align_to(
                model.mean_vertices, mesh.vertices - mesh.vertices.mean(axis=0)
            )
            assert np.max(np.abs(rebuilt - aligned)) < 1e-8


@pytest.fixture(scope="module")
def trained(ref, cohort, model):
    feats = np.stack([coefficients(ref, model, r) for r in cohort])
    labels = np.array([1, 1, 1, -1, -1, -1])
    clf = train_svm(feats, labels)
    return feats, labels, clf


class TestDiscriminatingPath:
    def test_single_step_at_zero_is_mean(self, ref, model, trained):
        _, _, clf = trained
        meshes = discriminating_path(ref, model, clf, steps=1, value_range=(0.0, 0.0))
        from shapeforms.reconstruction import reconstruct

        mean_mesh, _ = reconstruct(ref, model.mean)
        assert np.max(np.abs(meshes[0].vertices - mean_mesh.vertices)) < 1e-9

    def test_unconverged_step_raises(self, ref, model, trained, monkeypatch):
        _, _, clf = trained
        unconverged_reconstruct(monkeypatch)
        with pytest.raises(ConvergenceError,
                           match="reconstruction of discriminating path step 0"):
            discriminating_path(ref, model, clf, steps=2, value_range=(-0.5, 0.5))

    def test_symmetric_scales_differ(self, ref, model, trained):
        _, _, clf = trained
        meshes = discriminating_path(ref, model, clf, steps=2, value_range=(-0.5, 0.5))
        assert np.max(np.abs(meshes[0].vertices - meshes[1].vertices)) > 1e-6

    def test_single_label_flip_along_path(self, ref, model, trained):
        _, _, clf = trained
        eta = clf.eta
        direction = eta / np.linalg.norm(eta)
        scales = np.linspace(-2.0, 2.0, 21)
        labels = [int(clf.predict(c * direction)[0]) for c in scales]
        flips = sum(a != b for a, b in zip(labels, labels[1:]))
        assert flips == 1
