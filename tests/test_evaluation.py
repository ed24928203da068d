import numpy as np
import pytest

from shapeforms import evaluation
from shapeforms.evaluation import (
    ClassifierModel,
    _aligned_rms,
    _align_to,
    accuracy_curve,
    compactness,
    discriminating_path,
    generalization,
    generalization_curve,
    metrics_report,
    monte_carlo_cv,
    pdm_coefficients,
    pdm_fit,
    pdm_synthesize,
    specificity,
    train_svm,
)
from shapeforms.liegroups import so3_exp
from shapeforms.reference import build_reference
from shapeforms.representation import (
    DistanceParams,
    TangentRep,
    encode,
    rep_distance,
    rep_exp,
    rep_log,
)
from shapeforms.statistics import PGAModel, coefficients, frechet_mean, pga
from shapeforms.synthetic import icosphere, smooth_deformation


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

    def test_empty_training_rejected(self, ref, model):
        with pytest.raises(ValueError):
            specificity(ref, model, [])

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_no_samples_rejected(self, ref, cohort, model, n_samples):
        with pytest.raises(ValueError, match="n_samples must be at least 1"):
            specificity(ref, model, cohort, n_samples=n_samples)


class TestGeneralization:
    def test_single_direction_family_recovered(self, ref, cohort):
        mu = frechet_mean(cohort)
        direction = rep_log(mu, cohort[1])
        reps = [rep_exp(mu, a * direction) for a in (-1.0, -0.5, 0.1, 0.6, 1.2)]
        value = generalization(ref, reps, modes=1)
        assert value < 1e-6

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

    def test_identical_shapes_rejected(self, ref, cohort):
        with pytest.raises(ValueError, match="the model has no modes"):
            metrics_report(ref, [cohort[0]] * 4, n_samples=2)


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

    def test_json_roundtrip(self, tmp_path):
        X, y = toy_blobs(seed=4)
        clf = train_svm(X, y)
        path = tmp_path / "clf.json"
        clf.save(path)
        back = ClassifierModel.load(path)
        assert np.allclose(back.eta, clf.eta)
        assert back.bias == pytest.approx(clf.bias)


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

    @pytest.mark.parametrize("share", [0.2, 0.6])
    @pytest.mark.parametrize("budget", [1, 10_000, None])
    def test_cv_matches_per_draw_loop(self, monkeypatch, share, budget):
        # Overlapping classes, so hinge terms stay active to the end. A
        # budget of one byte trains every draw in its own block, 10 kB
        # three or four draws per block with a shorter last one, and the
        # default all 23 draws in one block.
        X, y = toy_blobs(n_per_class=25, separation=0.6, dims=12, seed=12)
        if budget is not None:
            monkeypatch.setattr(evaluation, "_SVM_BLOCK_BYTES", budget)
        expected = reference_monte_carlo_cv(X, y, share, draws=23, seed=4)
        assert expected[0] < 0.95
        assert monte_carlo_cv(X, y, share, draws=23, seed=4) == expected

    @pytest.mark.parametrize("seed", [13, 14])
    def test_train_svm_matches_per_draw_loop(self, seed):
        X, y = toy_blobs(n_per_class=30, separation=0.6, dims=9, seed=seed)
        clf = train_svm(X, y)
        expected = reference_train_svm(X, y.astype(float))
        assert np.mean(expected.predict(X) == y) < 1.0
        np.testing.assert_allclose(clf.weights_std, expected.weights_std,
                                   rtol=1e-12, atol=0.0)
        assert clf.bias_std == expected.bias_std
        assert np.array_equal(clf.feature_mean, expected.feature_mean)
        assert np.array_equal(clf.feature_std, expected.feature_std)
        assert np.array_equal(clf.predict(X), expected.predict(X))

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

    @pytest.mark.parametrize("draws", [0, -1])
    def test_no_draws_rejected(self, draws):
        X, y = toy_blobs(seed=17)
        with pytest.raises(ValueError, match="draws"):
            monte_carlo_cv(X, y, 0.5, draws=draws)
        with pytest.raises(ValueError, match="draws"):
            accuracy_curve(X, y, [0.5], draws=draws)


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
