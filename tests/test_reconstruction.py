import time

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from shapeforms.errors import ConditioningError
from shapeforms.liegroups import polar_rotation, so3_exp
from shapeforms.mesh import TriangleMesh
from shapeforms.reconstruction import (
    _AA_WINDOW,
    _LEAF_SIZE,
    EnergyReport,
    _AndersonHistory,
    _EdgeTerms,
    _dissection_order,
    _rows,
    init_rotations,
    local_step,
    prefactor,
    reconstruct,
)
from shapeforms.reference import build_reference, deformation_gradients
from shapeforms.representation import ShapeRep, encode, geodesic
from shapeforms.synthetic import (
    cylinder_patch,
    ellipsoid_cohort,
    icosphere,
    pipe_pair,
    smooth_deformation,
)
from shapeforms.liegroups import spd2_exp

from helpers import edge_index, embed_stretch, gradients


@pytest.fixture(scope="module")
def ref():
    return build_reference(icosphere(1))


@pytest.fixture(scope="module")
def system(ref):
    return prefactor(ref)


def rigid_rms(a, b):
    """Vertex RMS between two meshes after optimal rigid alignment."""
    P = a.vertices - a.vertices.mean(axis=0)
    Q = b.vertices - b.vertices.mean(axis=0)
    H = P.T @ Q
    U, _, Vt = np.linalg.svd(H)
    S = np.diag([1.0, 1.0, np.sign(np.linalg.det(Vt.T @ U.T))])
    R = Vt.T @ S @ U.T
    return float(np.sqrt(np.mean(np.sum((P @ R.T - Q) ** 2, axis=1))))


def perturbed_rep(ref, rep, seed, scale=0.02):
    """Non-integrable representation: random small rotation noise."""
    rng = np.random.default_rng(seed)
    noise = so3_exp(rng.normal(size=(rep.n_edges, 3)) * scale)
    return ShapeRep(noise @ rep.rotations, rep.stretches, rep.reference_hash)


class TestEmbedStretch:
    def test_identity(self, ref):
        assert np.allclose(embed_stretch(ref, 0, np.eye(2)), np.eye(3), atol=1e-15)

    def test_isotropic(self, ref):
        U = embed_stretch(ref, 3, 2.0 * np.eye(2))
        w, V = np.linalg.eigh(U)
        assert np.allclose(np.sort(w), [1.0, 2.0, 2.0], atol=1e-12)
        normal = ref.frames[3][:, 2]
        assert np.abs(U @ normal - normal).max() < 1e-12

    def test_reduce_embed_roundtrip(self, ref):
        rng = np.random.default_rng(1)
        for i in (0, 5, 11):
            X = rng.normal(size=(2, 2))
            stretch2 = spd2_exp(0.5 * (X + X.T))
            U = embed_stretch(ref, i, stretch2)
            F = ref.frames[i]
            back = (F.T @ U @ F)[:2, :2]
            assert np.allclose(back, stretch2, atol=1e-12)


class TestInitRotations:
    def test_identity_rep(self, ref):
        rep, _ = encode(ref, ref.mesh)
        R = init_rotations(ref, rep)
        assert np.max(np.abs(R - np.eye(3))) < 1e-12

    def test_rotated_mesh_rep(self, ref):
        Q = so3_exp(np.array([0.4, -1.0, 0.2]))
        rep, _ = encode(ref, ref.mesh.transformed(rotation=Q))
        R = init_rotations(ref, rep)
        assert np.max(np.abs(R - np.eye(3))) < 1e-10

    def test_integrable_recovery_on_all_edges(self, ref):
        mesh = smooth_deformation(ref.mesh, seed=3)
        rep, decomp = encode(ref, mesh)
        R = init_rotations(ref, rep)
        # Propagation reproduces the true field up to one global rotation.
        global_rot = decomp.rotations[0] @ R[0].T
        assert np.max(np.abs(global_rot @ R - decomp.rotations)) < 1e-9
        # The integrability condition holds on every inner edge, not just
        # the tree edges.
        F = ref.frames
        for e, (i, j) in enumerate(ref.inner_edges):
            propagated = R[i] @ F[i] @ rep.rotations[e] @ F[j].T
            assert np.linalg.norm(R[j] - propagated) < 1e-9

    def test_matches_sequential_tree_propagation(self):
        # Depth-batched propagation does the same arithmetic as one 3x3
        # product chain per tree edge, so the results agree bit for bit.
        ref = build_reference(icosphere(3))
        rep, _ = encode(ref, smooth_deformation(ref.mesh, seed=5))
        rep = perturbed_rep(ref, rep, seed=6)
        F = ref.frames
        expected = np.empty((ref.n_triangles, 3, 3))
        expected[0] = np.eye(3)
        for parent, child in ref.spanning_tree:
            C = rep.rotations[edge_index(ref, int(parent), int(child))]
            if parent > child:
                C = C.T
            expected[child] = expected[parent] @ F[parent] @ C @ F[child].T
        assert np.array_equal(init_rotations(ref, rep), expected)


class TestLocalStep:
    def test_exact_rotations_recovered(self, ref):
        mesh = smooth_deformation(ref.mesh, seed=4)
        rep, decomp = encode(ref, mesh)
        R = local_step(ref, rep, decomp.gradients, decomp.rotations)
        assert np.max(np.abs(R - decomp.rotations)) < 1e-9

    def test_single_neighbor_exact(self):
        # Boundary triangle with one neighbor, pure rotation, unit
        # stretches: the unique minimizer has zero residual.
        from shapeforms.mesh import TriangleMesh

        vertices = np.array(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
        )
        mesh_ref = build_reference(
            TriangleMesh(vertices, np.array([[0, 1, 2], [0, 2, 3]]))
        )
        Q = so3_exp(np.array([0.3, 0.1, -0.6]))
        moved = mesh_ref.mesh.transformed(rotation=Q)
        rep, decomp = encode(mesh_ref, moved)
        R = local_step(mesh_ref, rep, decomp.gradients, decomp.rotations)
        assert np.max(np.abs(R - decomp.rotations)) < 1e-10

    def test_singular_fit_raises(self, ref):
        from shapeforms.errors import ConditioningError

        rep, decomp = encode(ref, ref.mesh)
        # Zero gradients make every Procrustes target singular.
        with pytest.raises(ConditioningError):
            local_step(ref, rep, np.zeros_like(decomp.gradients))

    def test_reversed_gradients_raise(self, ref):
        # Negated gradients negate every Procrustes target, det M < 0.
        rep, decomp = encode(ref, smooth_deformation(ref.mesh, seed=4))
        with pytest.raises(ConditioningError):
            local_step(ref, rep, -decomp.gradients)

    @given(st.lists(st.floats(-1.8, 1.8), min_size=3, max_size=3))
    def test_isolated_triangle_keeps_rotation(self, xi):
        from shapeforms.mesh import TriangleMesh

        vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        single = build_reference(TriangleMesh(vertices, np.array([[0, 1, 2]])))
        rep, decomp = encode(single, single.mesh)
        current = so3_exp(np.array([xi]))
        R = local_step(single, rep, decomp.gradients, current)
        assert np.array_equal(R, current)

    def test_against_brute_force(self, ref):
        # The closed form must match brute-force minimization over the
        # rotation group within 1e-6 in objective value.
        rng = np.random.default_rng(7)
        mesh = smooth_deformation(ref.mesh, seed=8)
        rep, decomp = encode(ref, mesh)
        rep = perturbed_rep(ref, rep, seed=9, scale=0.1)
        R_opt = local_step(ref, rep, decomp.gradients, decomp.rotations)

        terms = _EdgeTerms(ref, rep)
        src, dst, _, _ = ref.directed_edges()
        weights = terms.weights[::3]
        prescribed = np.swapaxes(terms.B.data.reshape(-1, 3, 3), -1, -2)

        def objective_for(i):
            mask = src == i
            w = weights[mask]
            D_n = decomp.gradients[dst[mask]]
            P = prescribed[mask]

            def f(xi):
                R = so3_exp(xi)
                diff = D_n - R @ P
                return float(w @ np.sum(diff * diff, axis=(-2, -1)))

            return f

        checked = 0
        for i in rng.choice(ref.n_triangles, size=10, replace=False):
            f = objective_for(int(i))
            # Coarse axis-angle grid, then Nelder-Mead refinement.
            grid = rng.uniform(-np.pi, np.pi, size=(600, 3))
            best = min(grid, key=f)
            res = scipy.optimize.minimize(f, best, method="Nelder-Mead",
                                          options={"xatol": 1e-10, "fatol": 1e-12,
                                                   "maxiter": 2000})
            closed = f(np.zeros(3) if False else _log_of(R_opt[int(i)]))
            assert closed <= res.fun + 1e-6
            checked += 1
        assert checked == 10


def _log_of(R):
    from shapeforms.liegroups import so3_log

    return so3_log(R)


def _full_system_solve(ref, targets):
    """The global step on the full ``(n_vertices + m)`` system: one unknown
    per vertex and one normal-tip point per triangle, all factored together
    with vertex 0 pinned. This is the solve ``PoissonSystem`` did before it
    eliminated the tips, kept as the reference it must match."""
    mesh = ref.mesh
    m = mesh.n_triangles
    nv = mesh.n_vertices
    H = ref.grad_inverses
    tri = mesh.triangles
    rows = (3 * np.arange(m)[:, None] + np.arange(3)[None, :]).ravel()
    data = [H[:, 0, :].ravel(), H[:, 1, :].ravel(), H[:, 2, :].ravel(),
            -H.sum(axis=1).ravel()]
    cols = [np.repeat(tri[:, 1], 3), np.repeat(tri[:, 2], 3),
            np.repeat(nv + np.arange(m), 3), np.repeat(tri[:, 0], 3)]
    G = scipy.sparse.coo_matrix(
        (np.concatenate(data), (np.tile(rows, 4), np.concatenate(cols))),
        shape=(3 * m, nv + m),
    ).tocsr()
    weights = np.repeat(ref.tri_areas, 3)
    K = (G.T @ scipy.sparse.diags(weights) @ G).tocsc()
    lu = scipy.sparse.linalg.splu(K[1:, 1:])
    rhs = G.T @ (weights[:, None] * targets.transpose(0, 2, 1).reshape(-1, 3))
    X = np.zeros((nv + m, 3))
    X[1:] = lu.solve(rhs[1:])
    X += mesh.vertices.mean(axis=0) - X[:nv].mean(axis=0)
    return X


def _single_triangle():
    vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return TriangleMesh(vertices, np.array([[0, 1, 2]]))


def _shuffled_icosphere():
    # Shuffled vertices and triangles: vertex 0, the pinned one, and the
    # factor ordering differ from the subdivision order.
    mesh = icosphere(2)
    rng = np.random.default_rng(21)
    new_index = rng.permutation(mesh.n_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[new_index] = mesh.vertices
    triangles = new_index[mesh.triangles][rng.permutation(mesh.n_triangles)]
    return TriangleMesh(vertices, triangles)


_SOLVE_MESHES = pytest.mark.parametrize(
    "make_mesh",
    [lambda: icosphere(3), lambda: cylinder_patch(n_u=8, n_v=12),
     _single_triangle, _shuffled_icosphere, lambda: pipe_pair()[0],
     lambda: icosphere(0)],
    ids=["icosphere-3", "cylinder-patch", "single-triangle", "shuffled-icosphere",
         "thin-pipe", "below-leaf-size"],
)


def _transposes(R):
    return np.ascontiguousarray(np.swapaxes(R, -1, -2))


def _scatter_sum(index, values, size):
    """Sum the rows of ``values`` into ``size`` bins by ``index``."""
    width = int(np.prod(values.shape[1:]))
    flat = values.reshape(index.size, width)
    bins = (index[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(bins, weights=flat.ravel(), minlength=size * width)
    return sums.astype(float, copy=False).reshape((size,) + values.shape[1:])


class PerEdgeTerms:
    """The directed-edge energy written edge by edge, with ``(E, 3, 3)``
    gathers and batched products: the formulas ``_EdgeTerms`` evaluated
    before it became one sparse operator, kept as its reference."""

    def __init__(self, ref, rep):
        src, dst, edge_idx, forward = ref.directed_edges()
        self.src, self.dst = src, dst
        self.stretches3 = embed_stretch(ref, slice(None), rep.stretches)
        C = rep.rotations[edge_idx]
        C[~forward] = np.swapaxes(C[~forward], -1, -2)
        F = ref.frames
        transport = F[src] @ C @ np.swapaxes(F[dst], -1, -2)
        self.prescribed = transport @ self.stretches3[dst]
        self.counts = ref.neighbor_counts
        self.weights = ref.tri_areas[dst] / self.counts[dst]
        self.isolated = self.counts == 0

    def transported(self, R):
        return R[self.src] @ self.prescribed

    def _squared_mismatch(self, D, carried):
        diff = D[self.dst] - carried
        return np.sum(diff * diff, axis=(-2, -1))

    def energy(self, D, carried):
        return float(self.weights @ self._squared_mismatch(D, carried))

    def residuals(self, D, carried):
        sq = self._squared_mismatch(D, carried)
        out = _scatter_sum(self.dst, sq, self.counts.shape[0])
        return out / np.maximum(self.counts, 1)

    def rotation_fits(self, D, current):
        terms = self.weights[:, None, None] * (
            D[self.dst] @ np.swapaxes(self.prescribed, -1, -2))
        M = _scatter_sum(self.src, terms, self.counts.shape[0])
        assert np.all((np.linalg.det(M) > 0.0) | self.isolated)
        M[self.isolated] = current[self.isolated]
        R = polar_rotation(M)
        R[self.isolated] = current[self.isolated]
        return R

    def global_targets(self, R, carried):
        B = _scatter_sum(self.dst, carried, R.shape[0])
        B /= np.maximum(self.counts, 1)[:, None, None]
        B[self.isolated] = R[self.isolated] @ self.stretches3[self.isolated]
        return B


def _relative_error(got, expected):
    return np.max(np.abs(got - expected)) / np.max(np.abs(expected))


_OPERATOR_MESHES = pytest.mark.parametrize(
    "make_mesh",
    [lambda: icosphere(2), lambda: cylinder_patch(n_u=6, n_v=10), _single_triangle],
    ids=["icosphere-2", "cylinder-patch", "single-triangle"],
)


class TestEdgeOperator:
    """The sparse operator against the per-edge formulas, on random rotation
    fields: same energy, fits, global right-hand side and residuals to
    1e-12 relative."""

    @staticmethod
    def _setup(make_mesh, seed, scale=0.3):
        ref = build_reference(make_mesh())
        rng = np.random.default_rng(seed)
        rep, _ = encode(ref, smooth_deformation(ref.mesh, seed=seed))
        rep = perturbed_rep(ref, rep, seed=seed + 1, scale=scale)
        D = deformation_gradients(ref, smooth_deformation(ref.mesh, seed=seed + 2))
        R = so3_exp(rng.normal(size=(ref.n_triangles, 3)))
        return ref, rep, D, R

    @_OPERATOR_MESHES
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_energy_fits_and_rhs(self, make_mesh, seed):
        ref, rep, D, R = self._setup(make_mesh, seed)
        reference = PerEdgeTerms(ref, rep)
        terms = _EdgeTerms(ref, rep)
        Dg = terms.gather(_rows(D))
        Rt = _transposes(R)
        carried = terms.carried(Rt)
        expected = reference.energy(D, reference.transported(R))
        assert abs(terms.energy(Dg, carried) - expected) <= 1e-12 * expected

        fitted = _transposes(terms.rotation_fits(Dg, Rt))
        expected_fit = reference.rotation_fits(D, R)
        assert _relative_error(fitted, expected_fit) <= 1e-12

        targets = reference.global_targets(R, reference.transported(R))
        expected_rows = np.repeat(ref.tri_areas, 3)[:, None] * _rows(targets)
        assert _relative_error(terms.global_rows(Rt, carried), expected_rows) <= 1e-12

        expected_size = reference.energy(np.zeros_like(D), reference.prescribed)
        assert abs(terms.target_size() - expected_size) <= 1e-12 * expected_size

    @_OPERATOR_MESHES
    def test_report_residuals(self, make_mesh):
        ref, rep, _, _ = self._setup(make_mesh, 3, scale=0.05)
        _, report = reconstruct(ref, rep, max_iter=3)
        reference = PerEdgeTerms(ref, rep)
        D = gradients(prefactor(ref), report.positions)
        expected = reference.residuals(D, reference.transported(report.rotations))
        assert report.residuals.shape == expected.shape
        if np.any(expected):
            assert _relative_error(report.residuals, expected) <= 1e-12
        else:
            assert not np.any(report.residuals)


class TestPoissonSystem:
    @_SOLVE_MESHES
    def test_matches_full_system_solve(self, make_mesh):
        ref = build_reference(make_mesh())
        system = prefactor(ref)
        nv = ref.mesh.n_vertices
        rng = np.random.default_rng(ref.n_triangles)
        for scale in (0.1, 1.0):
            targets = np.eye(3) + rng.normal(size=(ref.n_triangles, 3, 3), scale=scale)
            expected = _full_system_solve(ref, targets)
            X = system.solve(targets)
            assert X.shape == (nv + ref.n_triangles, 3)
            for part in (slice(None, nv), slice(nv, None)):
                size = np.abs(expected[part]).max()
                assert np.abs(X[part] - expected[part]).max() <= 1e-12 * size

    @_SOLVE_MESHES
    def test_factor_keeps_dissection_order(self, make_mesh):
        # S is SPD, so SuperLU neither pivots nor reorders: the factor order
        # is the dissection order of every vertex but the pinned one.
        ref = build_reference(make_mesh())
        system = prefactor(ref)
        nv = ref.mesh.n_vertices
        order = _dissection_order(ref.mesh.vertices, ref.mesh.triangles)
        assert np.array_equal(np.sort(order), np.arange(nv))
        if nv <= _LEAF_SIZE:
            assert np.array_equal(order, np.arange(nv))
        assert np.array_equal(system._order, order[order != 0])
        identity = np.arange(nv - 1)
        assert np.array_equal(system._lu.perm_r, identity)
        assert np.array_equal(system._lu.perm_c, identity)

    def test_repeated_prefactor_is_bit_identical(self):
        ref = build_reference(icosphere(3))
        targets = np.eye(3) + np.random.default_rng(5).normal(
            size=(ref.n_triangles, 3, 3), scale=0.1)
        first, second = prefactor(ref).solve(targets), prefactor(ref).solve(targets)
        assert np.array_equal(first, second)

    def test_fill_on_icosphere_5(self):
        lu = prefactor(build_reference(icosphere(5)))._lu
        assert lu.L.nnz + lu.U.nnz <= 1_000_000

    @_SOLVE_MESHES
    def test_tip_block_is_diagonal(self, make_mesh):
        # Tip i enters only triangle i's gradient rows, so no two tips share
        # a row of G and K = G^T W G couples no two tips.
        ref = build_reference(make_mesh())
        system = prefactor(ref)
        nv = system.n_vertices
        G = system._G
        K = (G.T @ scipy.sparse.diags(system._weights) @ G).tocsc()
        tips = K[nv:, nv:].tocoo()
        off = tips.row != tips.col
        assert not np.any(tips.data[off])
        diagonal = tips.diagonal()
        assert diagonal.shape == (ref.n_triangles,)
        assert np.all(diagonal > 0.0)

    def test_affine_exactness_on_plane(self):
        from shapeforms.mesh import TriangleMesh

        vertices = np.array(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
        )
        mesh = TriangleMesh(vertices, np.array([[0, 1, 2], [0, 2, 3]]))
        ref = build_reference(mesh)
        A = np.array([[1.2, 0.3, 0.0], [-0.1, 0.9, 0.0], [0.05, 0.0, 1.0]])
        affine = TriangleMesh(vertices @ A.T, mesh.triangles)
        D = deformation_gradients(ref, affine)
        system = prefactor(ref)
        X = system.solve(D)
        expected = affine.vertices - affine.vertices.mean(axis=0) + vertices.mean(axis=0)
        assert np.max(np.abs(X[:4] - expected)) < 1e-12

    def test_factor_once_solve_many(self, ref):
        start = time.perf_counter()
        system = prefactor(build_reference(icosphere(3)))
        factor_time = time.perf_counter() - start

        rng = np.random.default_rng(0)
        targets = np.broadcast_to(np.eye(3), (system.n_triangles, 3, 3)).copy()
        targets += rng.normal(size=targets.shape, scale=0.01)
        times = []
        for _ in range(20):
            t0 = time.perf_counter()
            system.solve(targets)
            times.append(time.perf_counter() - t0)
        assert factor_time > 5.0 * np.median(times)


class TestReconstruct:
    def test_identity_roundtrip(self, ref, system):
        rep, _ = encode(ref, ref.mesh)
        mesh, report = reconstruct(ref, rep, system=system)
        assert np.max(np.abs(mesh.vertices - ref.mesh.vertices)) < 1e-9
        assert report.iterations <= 2

    def test_deformed_roundtrip_up_to_rigid_motion(self, ref, system):
        for seed in range(5):
            target = smooth_deformation(ref.mesh, seed=seed)
            rep, _ = encode(ref, target)
            mesh, report = reconstruct(ref, rep, system=system)
            assert rigid_rms(mesh, target) < 1e-6 * target.bbox_diagonal
            assert report.iterations <= 2

    def test_monotone_energy_on_perturbed_reps(self, ref, system):
        base, _ = encode(ref, smooth_deformation(ref.mesh, seed=11))
        for seed in range(5):
            rep = perturbed_rep(ref, base, seed=seed)
            _, report = reconstruct(ref, rep, system=system)
            E = np.array(report.energies)
            assert E[0] > 0
            assert np.all(E[1:] <= E[:-1] * (1 + 1e-12))
            assert report.converged

    def test_errors_spread_uniformly(self, ref, system):
        # Smooth, small perturbation: no triangle should carry an outsized
        # share of the final residual.
        base, _ = encode(ref, ref.mesh)
        rep = perturbed_rep(ref, base, seed=42, scale=0.01)
        _, report = reconstruct(ref, rep, system=system)
        res = report.residuals
        assert res.max() < 10.0 * res.mean()

    def test_local_global_optimality_at_convergence(self, ref, system):
        base, _ = encode(ref, smooth_deformation(ref.mesh, seed=13))
        rep = perturbed_rep(ref, base, seed=14)
        mesh, report = reconstruct(ref, rep, tol=1e-14, max_iter=500, system=system)

        terms = _EdgeTerms(ref, rep)
        Dg = terms.gather(system.gradient_rows(report.positions))
        Rt = terms.rotation_fits(Dg, _transposes(report.rotations))
        R = _transposes(Rt)
        assert np.max(np.abs(R - report.rotations)) < 1e-8
        X = system._solve_weighted(terms.global_rows(Rt, terms.carried(Rt)))
        moved = np.max(np.linalg.norm(X[: mesh.n_vertices] - mesh.vertices, axis=1))
        assert moved < 1e-8 * mesh.bbox_diagonal

    def test_deterministic_output(self, ref, system):
        base, _ = encode(ref, smooth_deformation(ref.mesh, seed=15))
        rep = perturbed_rep(ref, base, seed=16)
        m1, _ = reconstruct(ref, rep, system=system)
        m2, _ = reconstruct(ref, rep, system=system)
        assert np.array_equal(m1.vertices, m2.vertices)

    def test_pipe_roundtrip(self):
        cylinder, helix = pipe_pair(n_along=20, n_around=8)
        ref = build_reference(cylinder)
        rep, _ = encode(ref, helix)
        mesh, report = reconstruct(ref, rep)
        assert rigid_rms(mesh, helix) < 1e-6 * helix.bbox_diagonal
        assert report.iterations <= 2

    def test_exact_input_converged_without_iterations(self, ref, system):
        rep, _ = encode(ref, smooth_deformation(ref.mesh, seed=3))
        _, report = reconstruct(ref, rep, max_iter=0, system=system)
        assert report.energies[-1] <= 1e-24 * ref.total_area
        assert report.iterations == 0
        assert report.converged

    def test_rounding_noise_is_not_iterated_on(self):
        # This integrable input starts at energy 1.8e-23, above a floor of
        # 1e-24 times the bare area (1.26e-23) but far below the size of
        # its prescribed gradients; on the bare-area floor rounding noise
        # kept it iterating for 7 rounds (C1 allows at most 2).
        ref = build_reference(icosphere(5))
        target = smooth_deformation(ref.mesh, seed=1773941156)
        rep, _ = encode(ref, target)
        mesh, report = reconstruct(ref, rep)
        assert report.converged
        assert report.iterations <= 2
        assert rigid_rms(mesh, target) < 1e-6 * target.bbox_diagonal

    def test_one_iteration_is_one_plain_step(self, ref, system):
        # Acceleration needs two residuals, so the first round is the plain
        # local step followed by the global solve.
        base, _ = encode(ref, smooth_deformation(ref.mesh, seed=17))
        rep = perturbed_rep(ref, base, seed=18)
        _, report = reconstruct(ref, rep, max_iter=1, system=system)

        terms = _EdgeTerms(ref, rep)
        Rt = _transposes(init_rotations(ref, rep))
        X = system._solve_weighted(terms.global_rows(Rt, terms.carried(Rt)))
        Rt = terms.rotation_fits(terms.gather(system.gradient_rows(X)), Rt)
        X = system._solve_weighted(terms.global_rows(Rt, terms.carried(Rt)))
        assert report.iterations == 1
        assert not report.converged
        assert len(report.energies) == 3
        assert np.array_equal(report.rotations, _transposes(Rt))
        assert np.array_equal(report.positions, X)
        assert report.energies[-1] == terms.energy(
            terms.gather(system.gradient_rows(X)), terms.carried(Rt))


    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_residuals_after_plain_and_accelerated_steps(self, ref, system, max_iter):
        # The first step is a plain one, the next two keep their candidates;
        # the report's residuals are those of its final state either way.
        base, _ = encode(ref, smooth_deformation(ref.mesh, seed=17))
        rep = perturbed_rep(ref, base, seed=18)
        _, report = reconstruct(ref, rep, max_iter=max_iter, system=system)
        assert report.iterations == max_iter and report.rejected == 0
        reference = PerEdgeTerms(ref, rep)
        expected = reference.residuals(gradients(system, report.positions),
                                       reference.transported(report.rotations))
        assert _relative_error(report.residuals, expected) <= 1e-12

    @pytest.mark.parametrize("kwargs, message", [
        (dict(max_iter=-3), "max_iter must be a non-negative integer, got -3"),
        (dict(max_iter=2.5), "max_iter must be a non-negative integer, got 2.5"),
        (dict(max_iter="3"), "max_iter must be a non-negative integer, got 3"),
        (dict(tol=-1.0), "tol must be positive and finite, got -1.0"),
        (dict(tol=0.0), "tol must be positive and finite, got 0.0"),
        (dict(tol=float("nan")), "tol must be positive and finite, got nan"),
        (dict(tol=float("inf")), "tol must be positive and finite, got inf"),
    ])
    def test_invalid_limits_rejected(self, ref, system, kwargs, message):
        rep, _ = encode(ref, ref.mesh)
        with pytest.raises(ValueError, match=message):
            reconstruct(ref, rep, system=system, **kwargs)

    def test_numpy_integer_limit_accepted(self, ref, system):
        base, _ = encode(ref, smooth_deformation(ref.mesh, seed=17))
        rep = perturbed_rep(ref, base, seed=18)
        _, report = reconstruct(ref, rep, max_iter=np.int64(2), system=system)
        assert report.iterations == 2


class TestAndersonHistory:
    """The rings and the incremental Gram matrix against a direct solve."""

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_points=st.integers(8, 20),
        steps=st.integers(_AA_WINDOW + 2, 3 * _AA_WINDOW),
        clears=st.sets(st.integers(0, 3 * _AA_WINDOW), max_size=3),
    )
    def test_gram_and_mix_match_direct_lstsq(self, seed, n_points, steps, clears):
        rng = np.random.default_rng(seed)
        history = _AndersonHistory()
        # The pairs since the last clear, the pair before it included.
        fs, Gs = [], []
        wrapped = False
        for step in range(steps):
            f, G = rng.normal(size=(2, n_points, 3))
            history.push(f, G)
            fs.append(f.reshape(-1))
            Gs.append(G.reshape(-1))
            held = history.held
            assert held == min(len(fs) - 1, _AA_WINDOW)
            wrapped |= len(fs) - 1 > _AA_WINDOW
            if held:
                dF = history.dF[:held]
                gram = history.gram[:held, :held]
                # Rounding of a dot product scales with the norms of its
                # factors, not with its value.
                error = np.max(np.abs(gram - dF @ dF.T))
                assert error <= 1e-13 * np.max(np.diag(gram))

                stacked_f = np.diff(fs[-held - 1:], axis=0)
                stacked_g = np.diff(Gs[-held - 1:], axis=0)
                gamma = np.linalg.lstsq(stacked_f.T, fs[-1], rcond=None)[0]
                expected = G - (gamma @ stacked_g).reshape(G.shape)
                got = history.mix(f, G)
                assert got.shape == G.shape
                assert np.max(np.abs(got - expected)) < 1e-11 * np.max(np.abs(G))
            if step in clears:
                history.clear()
                assert history.held == 0
                fs, Gs = fs[-1:], Gs[-1:]
        assert wrapped or clears


class TestRigidMotion:
    """Encode a rigidly moved mesh and reconstruct it (C1 under motion)."""

    @pytest.fixture(scope="class")
    def target(self, ref):
        return smooth_deformation(ref.mesh, seed=23, rotate=False)

    @settings(max_examples=25)
    @given(
        st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
        st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
    )
    def test_encode_invariant_and_reconstruction_exact(
        self, ref, system, target, xi, shift
    ):
        moved = target.transformed(rotation=so3_exp(np.array(xi)),
                                   translation=np.array(shift))
        base, _ = encode(ref, target)
        rep, _ = encode(ref, moved)
        assert np.max(np.abs(rep.rotations - base.rotations)) < 1e-10
        assert np.max(np.abs(rep.stretches - base.stretches)) < 1e-10

        mesh, report = reconstruct(ref, rep, system=system)
        assert rigid_rms(mesh, moved) < 1e-6 * moved.bbox_diagonal
        assert report.iterations <= 2


class TestDecode:
    """Reconstruction of a PGA mean, which no mesh realizes exactly."""

    @pytest.fixture(scope="class")
    def cohort_mean(self):
        from shapeforms.statistics import frechet_mean

        cohort = ellipsoid_cohort(12, seed=0, subdivisions=3)
        ref = build_reference(cohort[0])
        return ref, frechet_mean([encode(ref, m)[0] for m in cohort])

    @pytest.fixture(scope="class")
    def decoded(self, cohort_mean):
        ref, mean = cohort_mean
        _, report = reconstruct(ref, mean)
        return ref, mean, report

    @staticmethod
    def _count_work(ref, rep, monkeypatch):
        """The report of ``reconstruct(ref, rep)`` and its counts of
        factored solves, gradient products and polar decompositions."""
        import shapeforms.reconstruction as reconstruction

        system = prefactor(ref)
        calls = {"solve": 0, "gradient_rows": 0, "polar": 0}

        class CountingLU:
            def __init__(self, lu):
                self._lu = lu

            def solve(self, rhs):
                calls["solve"] += 1
                return self._lu.solve(rhs)

        def counting_polar(M):
            calls["polar"] += 1
            return polar_rotation(M)

        gradient_rows = system.gradient_rows

        def counting_gradient_rows(X):
            calls["gradient_rows"] += 1
            return gradient_rows(X)

        system._lu = CountingLU(system._lu)
        system.gradient_rows = counting_gradient_rows
        monkeypatch.setattr(reconstruction, "polar_rotation", counting_polar)
        _, report = reconstruct(ref, rep, system=system)
        return report, calls

    @staticmethod
    def _check_work(report, calls):
        # One factored solve for the initial global step and one per
        # iteration. One gradient product for the initial solve and one per
        # iteration, for the candidate or for the plain step, plus the plain
        # step's after each refused candidate. At most one rotation fit per
        # candidate and one per iteration that follows a plain step. A
        # hidden extra solve, product or fit breaks these counts.
        assert report.iterations > 0
        assert calls["solve"] == report.iterations + 1
        assert calls["gradient_rows"] == report.iterations + 1 + report.rejected
        assert calls["polar"] <= report.iterations + 1 + report.rejected
        assert calls["polar"] <= 2 * report.iterations

    def test_work_per_iteration(self, cohort_mean, monkeypatch):
        report, calls = self._count_work(*cohort_mean, monkeypatch)
        self._check_work(report, calls)

    def test_work_per_iteration_with_rejections(self, monkeypatch):
        cylinder, helix = pipe_pair(n_along=20, n_around=8)
        ref = build_reference(cylinder)
        rep = geodesic(encode(ref, cylinder)[0], encode(ref, helix)[0], 0.5)
        report, calls = self._count_work(ref, rep, monkeypatch)
        assert report.rejected > 0
        self._check_work(report, calls)

    def test_acceleration_keeps_its_iteration_count(self, decoded):
        # The 12-deep Anderson history converges here in 21 iterations,
        # the 5-deep one took 27.
        _, _, report = decoded
        assert report.converged
        assert report.iterations <= 23

    def test_converges_within_default_limit(self, decoded):
        _, _, report = decoded
        assert report.converged

    def test_energy_non_increasing(self, decoded):
        _, _, report = decoded
        E = np.array(report.energies)
        assert len(E) == 2 * report.iterations + 1
        assert np.all(E[1:] <= E[:-1] * (1 + 1e-12))

    def test_final_energy_matches_final_state(self, decoded):
        ref, mean, report = decoded
        terms = _EdgeTerms(ref, mean)
        Dg = terms.gather(prefactor(ref).gradient_rows(report.positions))
        recomputed = terms.energy(Dg, terms.carried(_transposes(report.rotations)))
        assert report.energies[-1] == pytest.approx(recomputed, rel=1e-12)
