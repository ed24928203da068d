"""Acceptance suite: one test per release criterion.

Every test prints ``ACCEPTANCE <id> <name>: PASS|FAIL`` (visible with
``pytest -s``), asserting the criterion at its stated tolerance. All data
is synthetic and seeded, so the suite is self-contained and deterministic.
"""

import functools
import time

import numpy as np
import pytest
import scipy.optimize

from shapeforms.evaluation import (
    compactness,
    generalization_curve,
    monte_carlo_cv,
    pdm_coefficients,
    pdm_fit,
    specificity,
)
from shapeforms.flattening import flatten
from shapeforms.liegroups import polar3, so3_exp, so3_log, spd2_exp, spd2_log
from shapeforms.reference import build_reference, deformation_gradients
from shapeforms.reconstruction import prefactor, reconstruct
from shapeforms.representation import (
    DistanceParams,
    ShapeRep,
    TangentRep,
    encode,
    geodesic,
    relative_rotation_angles,
    rep_distance,
    rep_exp,
    rep_log,
)
from shapeforms.statistics import (
    PGAModel,
    coefficients,
    frechet_mean,
    mean_residual,
    pga,
    synthesize,
)
from shapeforms.synthetic import (
    blob,
    cylinder_patch,
    ellipsoid_cohort,
    hemisphere_patch,
    icosphere,
    pipe_pair,
    smooth_deformation,
)

from helpers import (
    analytic_cylinder_development,
    rep_inner,
    so3_distance,
    spd2_distance,
    spd2_mul,
)


def criterion(ident, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {ident} {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {ident} {name}: PASS")
            return result

        return wrapper

    return decorate


def rigid_rms(a, b):
    P = a.vertices - a.vertices.mean(axis=0)
    Q = b.vertices - b.vertices.mean(axis=0)
    H = P.T @ Q
    U, _, Vt = np.linalg.svd(H)
    S = np.diag([1.0, 1.0, np.sign(np.linalg.det(Vt.T @ U.T))])
    R = Vt.T @ S @ U.T
    return float(np.sqrt(np.mean(np.sum((P @ R.T - Q) ** 2, axis=1))))


def random_rotation(rng, max_angle=np.pi - 1e-3):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return so3_exp(axis * rng.uniform(0.0, max_angle))


@pytest.fixture(scope="module")
def sphere_ref():
    return build_reference(icosphere(3))


@criterion("C1", "roundtrip-exactness")
def test_c01_roundtrip_exactness(sphere_ref):
    cylinder, helix = pipe_pair()
    pipe_ref = build_reference(cylinder)
    cases = []
    for seed in range(10):
        cases.append((sphere_ref, smooth_deformation(sphere_ref.mesh, seed=seed)))
    for seed in range(5):
        cases.append(
            (pipe_ref,
             smooth_deformation(cylinder, seed=seed, stretch=0.1, wave_amplitude=0.04))
        )
        cases.append(
            (pipe_ref,
             smooth_deformation(helix, seed=seed, stretch=0.08, wave_amplitude=0.03))
        )
    assert len(cases) == 20

    systems = {id(sphere_ref): prefactor(sphere_ref), id(pipe_ref): prefactor(pipe_ref)}
    for ref, target in cases:
        assert 500 <= ref.n_triangles <= 2000
        start = time.perf_counter()
        rep, _ = encode(ref, target)
        mesh, report = reconstruct(ref, rep, system=systems[id(ref)])
        elapsed = time.perf_counter() - start
        assert rigid_rms(mesh, target) < 1e-6 * target.bbox_diagonal
        assert report.iterations <= 2
        assert elapsed < 5.0


@criterion("C2", "rigid-invariance")
def test_c02_rigid_invariance(sphere_ref):
    rng = np.random.default_rng(2)
    target = smooth_deformation(sphere_ref.mesh, seed=40, rotate=False)
    base, _ = encode(sphere_ref, target)
    for _ in range(100):
        R = random_rotation(rng)
        t = rng.normal(size=3, scale=4.0)
        moved, _ = encode(sphere_ref, target.transformed(rotation=R, translation=t))
        assert np.max(np.abs(moved.rotations - base.rotations)) < 1e-9
        assert np.max(np.abs(moved.stretches - base.stretches)) < 1e-9
        assert rep_distance(sphere_ref, base, moved) < 1e-9


@criterion("C3", "local-step-oracle")
def test_c03_local_step_oracle():
    from shapeforms.reconstruction import _EdgeTerms, _rows

    rng = np.random.default_rng(3)
    ref = build_reference(icosphere(2))
    src, dst, _, _ = ref.directed_edges()
    checked = 0
    for seed in (50, 51):
        target = smooth_deformation(ref.mesh, seed=seed)
        rep, decomp = encode(ref, target)
        noisy = ShapeRep(
            so3_exp(rng.normal(size=(rep.n_edges, 3)) * 0.15) @ rep.rotations,
            rep.stretches,
            rep.reference_hash,
        )
        terms = _EdgeTerms(ref, noisy)
        closed_all = np.swapaxes(terms.rotation_fits(
            terms.gather(_rows(decomp.gradients)),
            np.swapaxes(decomp.rotations, -1, -2)), -1, -2)
        weights = terms.weights[::3]
        prescribed = np.swapaxes(terms.B.data.reshape(-1, 3, 3), -1, -2)

        for i in rng.choice(ref.n_triangles, size=100, replace=False):
            i = int(i)
            mask = src == i
            w = weights[mask]
            D_n = decomp.gradients[dst[mask]]
            P = prescribed[mask]

            def objective(xi):
                diff = D_n - so3_exp(xi) @ P
                return float(w @ np.sum(diff * diff, axis=(-2, -1)))

            grid = rng.uniform(-np.pi, np.pi, size=(700, 3))
            rotations = so3_exp(grid)
            diffs = D_n[None] - np.einsum("kab,ebc->keac", rotations, P)
            values = np.einsum("e,keab,keab->k", w, diffs, diffs)
            best = grid[int(np.argmin(values))]
            refined = scipy.optimize.minimize(
                objective, best, method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 3000},
            )
            closed_value = objective(so3_log(closed_all[i]))
            assert abs(closed_value - refined.fun) < 1e-6
            checked += 1
    assert checked == 200


@criterion("C4", "energy-monotonicity")
def test_c04_energy_monotonicity(sphere_ref):
    rng = np.random.default_rng(4)
    system = prefactor(sphere_ref)
    base, _ = encode(sphere_ref, smooth_deformation(sphere_ref.mesh, seed=60))
    for k in range(20):
        scale = rng.uniform(0.005, 0.05)
        noisy = ShapeRep(
            so3_exp(rng.normal(size=(base.n_edges, 3)) * scale) @ base.rotations,
            base.stretches,
            base.reference_hash,
        )
        _, report = reconstruct(sphere_ref, noisy, system=system)
        E = np.array(report.energies)
        assert E[0] > 0.0
        assert np.all(E[1:] <= E[:-1] * (1.0 + 1e-12))


@criterion("C5", "lie-kernel-suite")
def test_c05_lie_kernels():
    rng = np.random.default_rng(5)
    for _ in range(200):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        xi = axis * rng.uniform(0.0, np.pi - 1e-3)
        assert np.max(np.abs(so3_log(so3_exp(xi)) - xi)) < 1e-10

    for _ in range(100):
        Q = random_rotation(rng, np.pi / 2)
        R = random_rotation(rng, np.pi / 2)
        P = random_rotation(rng)
        d = so3_distance(Q, R)
        assert abs(so3_distance(P @ Q, P @ R) - d) < 1e-10
        assert abs(so3_distance(Q @ P, R @ P) - d) < 1e-10

    def rand_spd(scale=1.0):
        X = rng.normal(size=(2, 2), scale=scale)
        return spd2_exp(0.5 * (X + X.T))

    I2 = np.eye(2)
    for _ in range(100):
        U, V, W = rand_spd(), rand_spd(), rand_spd()
        assert np.max(np.abs(spd2_mul(U, I2) - U)) < 1e-10
        assert np.max(np.abs(spd2_mul(U, V) - spd2_mul(V, U))) < 1e-10
        assert np.max(np.abs(
            spd2_mul(spd2_mul(U, V), W) - spd2_mul(U, spd2_mul(V, W))
        )) < 1e-10
        assert abs(
            spd2_distance(spd2_mul(U, W), spd2_mul(V, W)) - spd2_distance(U, V)
        ) < 1e-10
        assert np.max(np.abs(spd2_exp(spd2_log(U)) - U)) < 1e-10

    count = 0
    while count < 100:
        D = rng.normal(size=(3, 3))
        if np.linalg.det(D) <= 1e-2:
            continue
        count += 1
        R, U = polar3(D)
        assert np.max(np.abs(R @ U - D)) < 1e-10


@criterion("C6", "mean-and-pga")
def test_c06_mean_and_pga():
    from shapeforms.liegroups import spd2_exp as sexp, spd2_log as slog

    ref = build_reference(icosphere(1))
    cohort = [
        encode(ref, smooth_deformation(ref.mesh, seed=seed, stretch=0.1,
                                       wave_amplitude=0.05))[0]
        for seed in range(70, 76)
    ]
    mu = frechet_mean(cohort, tol=1e-10)
    assert mean_residual(mu, cohort) < 1e-10

    one_step = sexp(np.mean([slog(r.stretches) for r in cohort], axis=0))
    assert np.max(np.abs(mu.stretches - one_step)) < 1e-12

    model = pga(ref, cohort, mu=mu)
    for p, vp in enumerate(model.modes):
        for q, vq in enumerate(model.modes):
            g = rep_inner(ref, model.params, vp, vq)
            assert abs(g - (1.0 if p == q else 0.0)) < 1e-8

    for rep in cohort:
        a = coefficients(ref, model, rep)
        assert rep_distance(ref, synthesize(model, a), rep, model.params) < 1e-8


@criterion("C7", "geodesic-interpolation-validity")
def test_c07_interpolation_validity():
    cylinder, helix = pipe_pair()
    ref = build_reference(cylinder)
    rep_a, _ = encode(ref, cylinder)
    rep_b, _ = encode(ref, helix)

    angles = relative_rotation_angles(rep_a, rep_b)
    assert angles.max() < np.pi
    assert angles.max() < 0.75

    system = prefactor(ref)
    for lam in np.linspace(0.0, 1.0, 5):
        rep = geodesic(rep_a, rep_b, lam)
        mesh, _ = reconstruct(ref, rep, system=system)
        assert mesh.triangle_areas().min() > 0.0
        D = deformation_gradients(ref, mesh)
        assert np.linalg.det(D).min() > 0.0


@criterion("C8", "flattening")
def test_c08_flattening():
    ref = build_reference(cylinder_patch())
    flat_mesh, report = flatten(ref)
    assert report.planarity_residual < 1e-8
    assert report.max_edge_distortion < 1e-6
    expected = analytic_cylinder_development()
    got = flat_mesh.vertices[:, :2]

    def rms2(a, b):
        P = a - a.mean(axis=0)
        Q = b - b.mean(axis=0)
        H = P.T @ Q
        U, _, Vt = np.linalg.svd(H)
        S = np.diag([1.0, np.sign(np.linalg.det(Vt.T @ U.T))])
        R = Vt.T @ S @ U.T
        return float(np.sqrt(np.mean(np.sum((P @ R.T - Q) ** 2, axis=1))))

    direct = rms2(got, expected)
    mirrored = rms2(got * np.array([1.0, -1.0]), expected)
    assert min(direct, mirrored) < 1e-8 * ref.mesh.bbox_diagonal

    hemi_ref = build_reference(hemisphere_patch())
    hemi_flat, hemi_report = flatten(hemi_ref)
    assert np.allclose(hemi_flat.vertices[:, 2], 0.0)
    assert hemi_report.planarity_residual < 1e-6
    assert hemi_report.mean_edge_distortion > 0.0

    from shapeforms.mesh import unique_edges

    edges = unique_edges(hemi_ref.mesh.triangles)
    ref_len = np.linalg.norm(
        hemi_ref.mesh.vertices[edges[:, 0]] - hemi_ref.mesh.vertices[edges[:, 1]],
        axis=1,
    )
    projected = hemi_ref.mesh.vertices[:, :2]
    proj_len = np.linalg.norm(projected[edges[:, 0]] - projected[edges[:, 1]], axis=1)
    naive = float(np.mean(np.abs(proj_len - ref_len) / ref_len))
    assert hemi_report.mean_edge_distortion < naive


@criterion("C9", "synthetic-classification")
def test_c09_synthetic_classification():
    plain = ellipsoid_cohort(60, seed=100)
    bumped = ellipsoid_cohort(60, seed=101, bump_amplitude=(0.18, 0.35))
    meshes = plain + bumped
    labels = np.concatenate([-np.ones(60), np.ones(60)]).astype(int)

    ref = build_reference(meshes[0])
    reps = [encode(ref, mesh)[0] for mesh in meshes]
    model = pga(ref, reps)
    features = np.stack([coefficients(ref, model, rep) for rep in reps])

    pdm = pdm_fit(meshes)
    pdm_features = np.stack([pdm_coefficients(pdm, mesh) for mesh in meshes])

    shares = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    for share in shares:
        coeff_mean, _ = monte_carlo_cv(features, labels, share, draws=200, seed=0)
        pdm_mean, _ = monte_carlo_cv(pdm_features, labels, share, draws=200, seed=0)
        if share == 0.1:
            assert coeff_mean > 0.9
        assert coeff_mean >= pdm_mean


@criterion("C10", "metrics-suite")
def test_c10_metrics_suite():
    ref = build_reference(icosphere(1))
    base, _ = encode(ref, ref.mesh)
    rng = np.random.default_rng(10)
    reps = []
    for _ in range(6):
        X = rng.normal(size=(ref.n_triangles, 2, 2), scale=0.2)
        sym = 0.5 * (X + np.swapaxes(X, -1, -2))
        v = TangentRep(np.zeros((ref.n_inner_edges, 3)), sym, base.content_hash())
        reps.append(rep_exp(base, v))

    model = pga(ref, reps)
    curve = [compactness(model, k) for k in range(1, model.n_modes + 1)]
    assert np.all(np.diff(curve) >= 0.0)
    assert curve[-1] == pytest.approx(1.0, abs=1e-15)

    gen = generalization_curve(ref, reps)
    assert np.all(np.diff(gen) <= 1e-9)

    degenerate = PGAModel(
        mean=model.mean,
        modes=model.modes,
        variances=np.zeros_like(model.variances),
        params=model.params,
        reference_hash=model.reference_hash,
    )
    value = specificity(ref, degenerate, reps, n_samples=50, seed=0)
    expected = min(rep_distance(ref, model.mean, r, model.params) for r in reps)
    assert abs(value - expected) < 1e-9


@criterion("C11", "performance-smoke")
def test_c11_performance_smoke():
    shape_a = blob(seed=1)
    shape_b = blob(seed=2)
    assert shape_a.n_triangles == 2048

    start = time.perf_counter()
    ref = build_reference(shape_a)
    system = prefactor(ref)
    rep_a, _ = encode(ref, shape_a)
    rep_b, _ = encode(ref, shape_b)
    mu = frechet_mean([rep_a, rep_b])
    mean_mesh, _ = reconstruct(ref, mu, system=system)
    other_mesh, _ = reconstruct(ref, rep_b, system=system)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert mean_mesh.n_vertices == shape_a.n_vertices
    assert rigid_rms(other_mesh, shape_b) < 1e-6 * shape_b.bbox_diagonal
