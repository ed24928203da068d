import json

import numpy as np
import pytest

from shapeforms.errors import MeshTopologyError
from shapeforms.flattening import flat_projection, flatten
from shapeforms.liegroups import so3_exp
from shapeforms.mesh import TriangleMesh
from shapeforms.reconstruction import DEFAULT_MAX_ITER
from shapeforms.reference import build_reference
from shapeforms.representation import encode
from shapeforms.synthetic import (
    cylinder_patch,
    hemisphere_patch,
    icosphere,
)

from helpers import analytic_cylinder_development, edge_index, unfold_rotation


def planar_two_triangles():
    vertices = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
    )
    return TriangleMesh(vertices, np.array([[0, 1, 2], [0, 2, 3]]))


def folded_pair(theta):
    """Two unit right triangles sharing the diagonal, folded by ``theta``."""
    flat = planar_two_triangles()
    # Rotate vertex 3 about the shared edge (0, 2).
    axis = flat.vertices[2] - flat.vertices[0]
    axis = axis / np.linalg.norm(axis)
    R = so3_exp(axis * theta)
    vertices = flat.vertices.copy()
    vertices[3] = R @ vertices[3]
    return TriangleMesh(vertices, flat.triangles)


def jittered_hemisphere(seed=4, scale=0.02):
    """Open mesh with a valence-24 pole and randomly perturbed vertices."""
    mesh = hemisphere_patch()
    rng = np.random.default_rng(seed)
    jitter = scale * rng.normal(size=mesh.vertices.shape)
    return TriangleMesh(mesh.vertices + jitter, mesh.triangles)


def per_edge_unfold(ref, i, j):
    """Unfolding rotation of one inner edge, computed on its own."""
    a, b = ref.edge_shared_vertices[edge_index(ref, i, j)]
    axis = ref.mesh.vertices[b] - ref.mesh.vertices[a]
    axis = axis / np.linalg.norm(axis)
    ni, nj = ref.frames[i, :, 2], ref.frames[j, :, 2]
    angle = np.arctan2(np.dot(np.cross(nj, ni), axis), np.dot(nj, ni))
    return so3_exp(axis * angle)


def rigid_rms_2d(a, b):
    P = a - a.mean(axis=0)
    Q = b - b.mean(axis=0)
    H = P.T @ Q
    U, _, Vt = np.linalg.svd(H)
    S = np.diag([1.0, np.sign(np.linalg.det(Vt.T @ U.T))])
    R = Vt.T @ S @ U.T
    return float(np.sqrt(np.mean(np.sum((P @ R.T - Q) ** 2, axis=1))))


class TestUnfoldRotation:
    def test_coplanar_identity(self):
        ref = build_reference(planar_two_triangles())
        R = unfold_rotation(ref, (0, 1))
        assert np.allclose(R, np.eye(3), atol=1e-12)

    def test_fold_angle_recovered(self):
        theta = 0.77
        ref = build_reference(folded_pair(theta))
        R = unfold_rotation(ref, (0, 1))
        normals = ref.frames[:, :, 2]
        assert np.max(np.abs(R @ normals[1] - normals[0])) < 1e-12
        angle = np.arccos(np.clip((np.trace(R) - 1) / 2, -1, 1))
        assert angle == pytest.approx(theta, abs=1e-12)

    def test_swap_gives_transpose(self):
        ref = build_reference(folded_pair(0.5))
        R_ij = unfold_rotation(ref, (0, 1))
        R_ji = unfold_rotation(ref, (1, 0))
        assert np.allclose(R_ij, R_ji.T, atol=1e-13)


class TestFlatProjection:
    def test_planar_reference_equals_identity_encoding(self):
        mesh = planar_two_triangles()
        ref = build_reference(mesh)
        projected = flat_projection(ref)
        identity, _ = encode(ref, mesh)
        assert np.allclose(projected.rotations, identity.rotations, atol=1e-12)
        assert np.allclose(projected.stretches, identity.stretches, atol=1e-12)

    def test_transitions_fix_normal_axis(self):
        ref = build_reference(cylinder_patch(n_u=6, n_v=10))
        rep = flat_projection(ref)
        e3 = np.array([0.0, 0.0, 1.0])
        mapped = rep.rotations @ e3
        assert np.max(np.abs(mapped - e3)) < 1e-10

    @pytest.mark.parametrize(
        "make_mesh",
        [lambda: cylinder_patch(n_u=6, n_v=10), jittered_hemisphere],
        ids=["cylinder-patch", "jittered-hemisphere"],
    )
    def test_matches_per_edge_unfold_rotations(self, make_mesh):
        ref = build_reference(make_mesh())
        rep = flat_projection(ref)
        F = ref.frames
        for e, (i, j) in enumerate(ref.inner_edges):
            i, j = int(i), int(j)
            unfold = unfold_rotation(ref, (i, j))
            assert np.max(np.abs(unfold - per_edge_unfold(ref, i, j))) < 1e-12
            expected = F[i].T @ unfold @ F[j]
            assert np.max(np.abs(rep.rotations[e] - expected)) < 1e-12

    def test_idempotent_through_flattening(self):
        ref = build_reference(cylinder_patch(n_u=6, n_v=10))
        flat_mesh, _ = flatten(ref)
        flat_ref = build_reference(flat_mesh)
        projected = flat_projection(flat_ref)
        identity, _ = encode(flat_ref, flat_ref.mesh)
        assert np.allclose(projected.rotations, identity.rotations, atol=1e-9)
        assert np.allclose(projected.stretches, identity.stretches, atol=1e-12)


class TestFlatten:
    def test_planar_input_is_congruent(self):
        mesh = planar_two_triangles()
        ref = build_reference(mesh)
        flat_mesh, report = flatten(ref)
        assert report.planarity_residual < 1e-12
        assert report.max_edge_distortion < 1e-9
        assert rigid_rms_2d(flat_mesh.vertices[:, :2], mesh.vertices[:, :2]) < 1e-12

    def test_cylinder_develops_exactly(self):
        ref = build_reference(cylinder_patch())
        flat_mesh, report = flatten(ref)
        assert report.planarity_residual < 1e-8
        assert report.max_edge_distortion < 1e-6
        # Analytic development oracle, compared up to a planar rigid motion
        # (and a possible reflection of the chart).
        expected = analytic_cylinder_development()
        got = flat_mesh.vertices[:, :2]
        direct = rigid_rms_2d(got, expected)
        mirrored = rigid_rms_2d(got * np.array([1.0, -1.0]), expected)
        assert min(direct, mirrored) < 1e-8 * ref.mesh.bbox_diagonal

    def test_hemisphere_beats_vertical_projection(self):
        ref = build_reference(hemisphere_patch())
        flat_mesh, report = flatten(ref)
        assert report.planarity_residual < 1e-6
        assert report.mean_edge_distortion > 0.0

        # Naive baseline: drop the z coordinate of the original patch.
        from shapeforms.mesh import unique_edges

        edges = unique_edges(ref.mesh.triangles)
        ref_len = np.linalg.norm(
            ref.mesh.vertices[edges[:, 0]] - ref.mesh.vertices[edges[:, 1]], axis=1
        )
        projected = ref.mesh.vertices[:, :2]
        proj_len = np.linalg.norm(
            projected[edges[:, 0]] - projected[edges[:, 1]], axis=1
        )
        naive = float(np.mean(np.abs(proj_len - ref_len) / ref_len))
        assert report.mean_edge_distortion < naive

    def test_iteration_limit_is_reported(self):
        ref = build_reference(hemisphere_patch())
        _, report = flatten(ref)
        assert report.converged is True
        assert 1 < report.iterations <= DEFAULT_MAX_ITER
        flat_mesh, report = flatten(ref, max_iter=1)
        assert report.converged is False
        assert report.iterations == 1
        assert flat_mesh.n_vertices == ref.mesh.n_vertices

    @pytest.mark.parametrize("kwargs, message", [
        (dict(max_iter=-3), "max_iter must be a non-negative integer, got -3"),
        (dict(max_iter=2.5), "max_iter must be a non-negative integer, got 2.5"),
        (dict(tol=-1.0), "tol must be positive and finite, got -1.0"),
        (dict(tol=float("nan")), "tol must be positive and finite, got nan"),
    ])
    def test_invalid_limits_rejected(self, kwargs, message):
        ref = build_reference(cylinder_patch(n_u=5, n_v=8))
        with pytest.raises(ValueError, match=message):
            flatten(ref, **kwargs)

    def test_report_file_holds_only_distortions(self, tmp_path):
        _, report = flatten(build_reference(cylinder_patch(n_u=5, n_v=8)))
        assert report.converged is True
        path = tmp_path / "flat.json"
        report.save(path)
        assert list(json.loads(path.read_text())) == [
            "planarity_residual", "max_edge_distortion", "mean_edge_distortion",
            "max_area_distortion", "edge_distortions", "area_distortions",
        ]

    def test_closed_surface_rejected(self):
        ref = build_reference(icosphere(1))
        with pytest.raises(MeshTopologyError):
            flatten(ref)

    def test_rigid_invariance(self):
        patch = cylinder_patch(n_u=5, n_v=8)
        ref = build_reference(patch)
        flat_a, _ = flatten(ref)
        R = so3_exp(np.array([0.7, -0.3, 1.1]))
        moved = build_reference(patch.transformed(rotation=R, translation=[3.0, 1.0, -2.0]))
        flat_b, _ = flatten(moved)
        assert (
            rigid_rms_2d(flat_a.vertices[:, :2], flat_b.vertices[:, :2])
            < 1e-9 * patch.bbox_diagonal
        )
