"""The stacked statistics and the tangent-coordinate quality measures against
their per-shape definitions.

The references below take one shape at a time through ``rep_log``,
``rep_exp`` and ``rep_distance``, as the library did before it stacked a
cohort: the fixed-point mean from ``reps[0]``, PGA on ``flatten_tangent``
vectors, and each quality measure through sampled or projected shapes. The
vertex-metric references reconstruct every sampled or projected shape
through ``synthesize`` and ``reconstruct``, with the folds fitted by ``pga``.
"""

import numpy as np
import pytest

from shapeforms import evaluation
from shapeforms.errors import ConvergenceError, CutLocusError
from shapeforms.evaluation import (
    _aligned_rms,
    generalization_curve,
    metrics_report,
    specificity,
)
from shapeforms.liegroups import so3_exp
from shapeforms.reconstruction import prefactor, reconstruct
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
from shapeforms.statistics import (
    EIGENVALUE_CUTOFF,
    PGAModel,
    coefficients,
    frechet_mean,
    mean_residual,
    pga,
    synthesize,
)
from shapeforms.synthetic import icosphere, smooth_deformation

from helpers import add_tangents, flatten_tangent, unflatten_tangent, zero_tangent

#: Agreement of the stacked code with the per-shape references.
REL = 1e-12
#: Agreement in the vertex metric, where fold means start elsewhere and
#: every distance passes through a reconstruction.
VERTEX_REL = 1e-9


def rel_diff(a, b):
    """Largest absolute difference relative to the largest reference entry."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


# ---------------------------------------------------------------------------
# per-shape references


def loop_mean(reps, tol=1e-10, max_iter=50):
    """Fixed-point mean from ``reps[0]``, one ``rep_log`` per shape."""
    mu = reps[0]
    n = len(reps)
    for _ in range(max_iter):
        total = zero_tangent(mu)
        for rep in reps:
            total = add_tangents(total, rep_log(mu, rep))
        residual = np.sqrt(2.0 * np.sum(total.rot_part**2)
                           + np.sum(total.stretch_part**2))
        if residual < tol:
            return mu
        mu = rep_exp(mu, (1.0 / n) * total)
    raise ConvergenceError("reference mean did not converge")


def loop_pga(ref, reps, params):
    """Mean, modes (tangent vectors) and variances from the Gram matrix of
    the flattened logs."""
    mu = loop_mean(reps)
    vectors = np.stack([flatten_tangent(ref, params, rep_log(mu, r)) for r in reps])
    eigvals, eigvecs = np.linalg.eigh(vectors @ vectors.T)
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    keep = eigvals > EIGENVALUE_CUTOFF * eigvals[0] if eigvals[0] > 0.0 else \
        np.zeros(eigvals.shape, dtype=bool)
    keep &= np.arange(eigvals.size) < max(len(reps) - 1, 1)
    modes = [unflatten_tangent(ref, params,
                               eigvecs[:, p] @ vectors / np.sqrt(eigvals[p]),
                               mu.content_hash())
             for p in np.nonzero(keep)[0]]
    return mu, modes, eigvals[keep] / len(reps)


def loop_coefficients(ref, params, mu, modes, rep):
    v = flatten_tangent(ref, params, rep_log(mu, rep))
    return np.array([flatten_tangent(ref, params, mode) @ v for mode in modes])


def loop_synthesize(mu, modes, coeffs):
    total = zero_tangent(mu)
    for a, mode in zip(coeffs, modes):
        total = add_tangents(total, float(a) * mode)
    return rep_exp(mu, total)


def loop_generalization(ref, reps, max_modes, params):
    errors = np.zeros((len(reps), max_modes))
    for i, held_out in enumerate(reps):
        rest = reps[:i] + reps[i + 1:]
        mu, modes, _ = loop_pga(ref, rest, params)
        a = loop_coefficients(ref, params, mu, modes, held_out)
        for k in range(1, max_modes + 1):
            used = min(k, len(modes))
            projected = loop_synthesize(mu, modes[:used], a[:used])
            errors[i, k - 1] = rep_distance(ref, projected, held_out, params)
    return errors.mean(axis=0)


def loop_specificity(ref, model, training, n_samples, modes, seed):
    k = model.n_modes if modes is None else modes
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal(size=(n_samples, k)) * np.sqrt(model.variances[:k])
    total = 0.0
    for a in draws:
        drawn = loop_synthesize(model.mean, model.modes[:k], a)
        total += min(rep_distance(ref, drawn, t, model.params) for t in training)
    return total / n_samples


def loop_vertex_specificity(ref, model, training, n_samples, modes, seed):
    """Each draw synthesized, reconstructed and aligned to every training
    shape's reconstruction."""
    system = prefactor(ref)
    targets = np.stack([reconstruct(ref, t, system=system)[0].vertices
                        for t in training])
    k = model.n_modes if modes is None else modes
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal(size=(n_samples, k)) * np.sqrt(model.variances[:k])
    total = 0.0
    for a in draws:
        mesh, _ = reconstruct(ref, synthesize(model, a), system=system)
        total += float(np.min(_aligned_rms(targets, mesh.vertices)))
    return total / n_samples


def loop_vertex_generalization(ref, reps, max_modes, params):
    """Per fold: ``pga`` of the rest, ``coefficients`` of the held-out
    shape, and each projection synthesized and reconstructed."""
    system = prefactor(ref)
    errors = np.zeros((len(reps), max_modes))
    for i, held_out in enumerate(reps):
        model = pga(ref, reps[:i] + reps[i + 1:], params=params)
        a = coefficients(ref, model, held_out)
        target, _ = reconstruct(ref, held_out, system=system)
        for k in range(1, max_modes + 1):
            used = min(k, model.n_modes)
            mesh, _ = reconstruct(ref, synthesize(model, a[:used]), system=system)
            errors[i, k - 1] = _aligned_rms(target.vertices, mesh.vertices)
    return errors.mean(axis=0)


# ---------------------------------------------------------------------------
# cohorts on icosphere(2)


@pytest.fixture(scope="module")
def ref():
    return build_reference(icosphere(2))


@pytest.fixture(scope="module")
def cohort(ref):
    meshes = [smooth_deformation(ref.mesh, seed=40 + s) for s in range(6)]
    return [encode(ref, m)[0] for m in meshes]


@pytest.fixture(scope="module")
def model(ref, cohort):
    return pga(ref, cohort)


def two_direction_cohort(ref, count, seed):
    """Shapes varying in the stretches along two directions only, so every
    leave-one-out fold has two modes."""
    base, _ = encode(ref, ref.mesh)
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(2, ref.n_triangles, 2, 2), scale=0.2)
    directions = 0.5 * (directions + np.swapaxes(directions, -1, -2))
    reps = []
    for a, b in rng.normal(size=(count, 2)):
        v = TangentRep(np.zeros((ref.n_inner_edges, 3)),
                       a * directions[0] + b * directions[1], base.content_hash())
        reps.append(rep_exp(base, v))
    return reps


def half_turn_cohort(ref, cohort):
    """The cohort's first shape twice, then twice with edge 3 turned by pi
    about an axis through it."""
    first = cohort[0]
    rotations = first.rotations.copy()
    rotations[3] = so3_exp(np.pi * np.array([0.0, 0.6, 0.8])) @ rotations[3]
    turned = ShapeRep(rotations, first.stretches, first.reference_hash)
    return [first, first, turned, turned]


class TestMeanAndModes:
    def test_mean_matches_loop(self, cohort):
        mu, expected = frechet_mean(cohort), loop_mean(cohort)
        assert rel_diff(mu.rotations, expected.rotations) < REL
        assert rel_diff(mu.stretches, expected.stretches) < REL
        assert mean_residual(mu, cohort) < 1e-10

    def test_mean_keeps_the_log_euclidean_mean(self, cohort):
        mu = frechet_mean(cohort)
        logs = np.mean([r.log_stretches for r in cohort], axis=0)
        assert np.array_equal(mu.log_stretches, logs)
        assert not mu.log_stretches.flags.writeable

    def test_pga_matches_loop(self, ref, cohort, model):
        mu, modes, variances = loop_pga(ref, cohort, model.params)
        assert rel_diff(model.variances, variances) < REL
        assert model.n_modes == len(modes)
        for got, want in zip(model.modes, modes):
            sign = np.sign(np.sum(got.stretch_part * want.stretch_part))
            assert rel_diff(sign * got.rot_part, want.rot_part) < REL
            assert rel_diff(sign * got.stretch_part, want.stretch_part) < REL

    def test_coefficients_and_synthesis_match_loop(self, ref, cohort, model):
        for rep in cohort:
            a = coefficients(ref, model, rep)
            expected = loop_coefficients(ref, model.params, model.mean,
                                         model.modes, rep)
            assert rel_diff(a, expected) < REL
            got = synthesize(model, a[:3])
            want = loop_synthesize(model.mean, model.modes, a[:3])
            assert rel_diff(got.rotations, want.rotations) < REL
            assert rel_diff(got.stretches, want.stretches) < REL

    def test_mode_matrix_is_read_only(self, model):
        assert model.n_modes > 0
        with pytest.raises(ValueError):
            model.modes[0].rot_part[0, 0] = 1.0
        with pytest.raises(AttributeError):
            model.modes = ()


class TestQualityMeasuresAgainstLoops:
    @pytest.mark.parametrize("modes", [None, 1, 3])
    def test_specificity(self, ref, cohort, model, modes):
        value = specificity(ref, model, cohort, n_samples=7, modes=modes, seed=2)
        expected = loop_specificity(ref, model, cohort, 7, modes, seed=2)
        assert value == pytest.approx(expected, rel=REL)

    def test_specificity_of_a_hand_built_model(self, ref, cohort, model):
        hand = PGAModel(mean=model.mean, modes=model.modes[1:3],
                        variances=np.array([0.04, 0.01]), params=DistanceParams(3.0),
                        reference_hash=model.reference_hash)
        value = specificity(ref, hand, cohort[:4], n_samples=9, seed=5)
        expected = loop_specificity(ref, hand, cohort[:4], 9, None, seed=5)
        assert value == pytest.approx(expected, rel=REL)

    def test_specificity_blocks(self, ref, cohort, model, monkeypatch):
        from shapeforms import statistics

        whole = specificity(ref, model, cohort, n_samples=6, seed=1)
        monkeypatch.setattr(statistics, "_BLOCK_BYTES", 1)
        assert specificity(ref, model, cohort, n_samples=6, seed=1) == \
            pytest.approx(whole, rel=REL)

    def test_generalization(self, ref, cohort, model):
        curve = generalization_curve(ref, cohort, params=model.params)
        expected = loop_generalization(ref, cohort, 4, model.params)
        assert rel_diff(curve, expected) < REL

    def test_generalization_plateau(self, ref, cohort, model):
        # Folds of five shapes have three modes; counts four and five repeat.
        curve = generalization_curve(ref, cohort[:5], max_modes=5, params=model.params)
        expected = loop_generalization(ref, cohort[:5], 5, model.params)
        assert rel_diff(curve, expected) < REL
        assert curve[2] > 0.0
        assert curve[4] == curve[3] == curve[2]

    def test_generalization_of_a_two_direction_family(self, ref):
        reps = two_direction_cohort(ref, 6, seed=9)
        params = DistanceParams(2.0)
        curve = generalization_curve(ref, reps, max_modes=4, params=params)
        expected = loop_generalization(ref, reps, 4, params)
        assert pga(ref, reps[1:], params=params).n_modes == 2
        assert rel_diff(curve, expected) < REL
        assert curve[2] == curve[1] == curve[3]

    def test_half_turn_raises_in_both_measures(self, ref, cohort, model):
        reps = half_turn_cohort(ref, cohort)
        with pytest.raises(CutLocusError, match=r"^edge 3 is at the cut locus"):
            loop_generalization(ref, reps, 1, model.params)
        with pytest.raises(CutLocusError, match=r"^edge 3 is at the cut locus"):
            generalization_curve(ref, reps, max_modes=1)

        still = PGAModel(mean=reps[0], modes=[], variances=np.zeros(0),
                         params=model.params, reference_hash=model.reference_hash)
        with pytest.raises(CutLocusError, match=r"^edge 3 is at the cut locus"):
            loop_specificity(ref, still, reps[2:], 2, None, seed=0)
        with pytest.raises(CutLocusError, match=r"^edge 3 is at the cut locus"):
            specificity(ref, still, reps[2:], n_samples=2)


class TestVertexMetricAgainstLoops:
    @pytest.mark.parametrize("modes", [None, 2])
    def test_specificity(self, ref, cohort, model, modes):
        value = specificity(ref, model, cohort, n_samples=4, modes=modes,
                            metric="vertex", seed=3)
        expected = loop_vertex_specificity(ref, model, cohort, 4, modes, seed=3)
        assert value == pytest.approx(expected, rel=VERTEX_REL)

    def test_generalization_plateau(self, ref, cohort, model):
        # Folds of five shapes have three modes; counts four and five repeat.
        curve = generalization_curve(ref, cohort[:5], max_modes=5,
                                     params=model.params, metric="vertex")
        expected = loop_vertex_generalization(ref, cohort[:5], 5, model.params)
        assert rel_diff(curve, expected) < VERTEX_REL
        assert curve[4] == curve[3] == curve[2]

    def test_report(self, ref, cohort, model):
        report = metrics_report(ref, cohort, n_samples=3, metric="vertex", seed=6)
        spec = [loop_vertex_specificity(ref, model, cohort, 3, int(k), seed=6)
                for k in report.modes]
        gen = loop_vertex_generalization(ref, cohort, report.modes.size, model.params)
        assert rel_diff(report.specificity, spec) < VERTEX_REL
        assert rel_diff(report.generalization, gen) < VERTEX_REL

    def test_report_reconstructs_each_shape_once(self, ref, cohort, monkeypatch):
        hashes = []

        def counted(ref_, rep, **kwargs):
            hashes.append(rep.content_hash())
            return reconstruct(ref_, rep, **kwargs)

        monkeypatch.setattr(evaluation, "reconstruct", counted)
        report = metrics_report(ref, cohort, n_samples=3, metric="vertex")
        n = len(cohort)
        assert len(hashes) == len(set(hashes))
        # The training shapes, the draws per mode count, and the distinct
        # projections of each fold, whose models have n - 2 modes.
        assert len(hashes) == n + 3 * report.modes.size + n * (n - 2)
