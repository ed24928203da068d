import dataclasses
import io
import json

import numpy as np
import pytest

from shapeforms.errors import ReferenceMismatchError
from shapeforms.liegroups import so3_exp, spd2_log
from shapeforms.mesh import TriangleMesh
from shapeforms.reference import build_reference
from shapeforms.representation import (
    DistanceParams,
    ShapeRep,
    TangentRep,
    encode,
    flatten_tangent,
    geodesic,
    relative_rotation_angles,
    rep_distance,
    rep_exp,
    rep_inner,
    rep_log,
    _coordinate_weights,
    rep_norm,
    unflatten_tangent,
)
from shapeforms.synthetic import icosphere, smooth_deformation


@pytest.fixture(scope="module")
def ref():
    return build_reference(icosphere(1))


@pytest.fixture(scope="module")
def deformed_reps(ref):
    reps = []
    for seed in range(3):
        mesh = smooth_deformation(ref.mesh, seed=seed, stretch=0.1, wave_amplitude=0.05)
        reps.append(encode(ref, mesh)[0])
    return reps


def random_rigid(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return so3_exp(axis * rng.uniform(0, np.pi)), rng.normal(size=3, scale=3.0)


class TestEncode:
    def test_identity_encoding(self, ref):
        rep, decomp = encode(ref, ref.mesh)
        assert np.allclose(rep.stretches, np.eye(2), atol=1e-12)
        ei, ej = ref.inner_edges[:, 0], ref.inner_edges[:, 1]
        expected = np.swapaxes(ref.frames[ei], -1, -2) @ ref.frames[ej]
        assert np.allclose(rep.rotations, expected, atol=1e-12)
        assert np.allclose(decomp.gradients, np.eye(3), atol=1e-12)

    def test_rigid_invariance(self, ref):
        rng = np.random.default_rng(0)
        base, _ = encode(ref, ref.mesh)
        for _ in range(20):
            R, t = random_rigid(rng)
            rep, _ = encode(ref, ref.mesh.transformed(rotation=R, translation=t))
            assert np.max(np.abs(rep.rotations - base.rotations)) < 1e-10
            assert np.max(np.abs(rep.stretches - base.stretches)) < 1e-10

    def test_uniform_scaling(self, ref):
        rep, _ = encode(ref, ref.mesh.transformed(scale=2.0))
        base, _ = encode(ref, ref.mesh)
        assert np.allclose(rep.stretches, 2.0 * np.eye(2), atol=1e-12)
        assert np.allclose(rep.rotations, base.rotations, atol=1e-12)

    def test_decomposition_consistency(self, ref):
        mesh = smooth_deformation(ref.mesh, seed=5)
        rep, decomp = encode(ref, mesh)
        assert np.max(np.abs(decomp.rotations @ decomp.stretches3 - decomp.gradients)) < 1e-10
        gram = np.swapaxes(decomp.frames, -1, -2) @ decomp.frames
        assert np.max(np.abs(gram - np.eye(3))) < 1e-10


class TestDistance:
    def test_self_distance_zero(self, ref, deformed_reps):
        assert rep_distance(ref, deformed_reps[0], deformed_reps[0]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_scaling_closed_form(self, ref):
        # Pure scaling by c: rotations agree, every stretch log differs by
        # log(c) I, so d = sqrt(2) |log c| at omega = 1.
        c = 1.7
        s, _ = encode(ref, ref.mesh)
        t, _ = encode(ref, ref.mesh.transformed(scale=c))
        d = rep_distance(ref, s, t, DistanceParams(1.0))
        # Independent direct summation oracle.
        direct = np.sqrt(
            (1.0 / ref.total_area)
            * np.sum(ref.tri_areas * 2.0 * np.log(c) ** 2)
        )
        assert d == pytest.approx(direct, rel=1e-12)
        assert d == pytest.approx(np.sqrt(2.0) * abs(np.log(c)), rel=1e-12)

    def test_symmetry(self, ref, deformed_reps):
        s, t = deformed_reps[0], deformed_reps[1]
        assert rep_distance(ref, s, t) == pytest.approx(
            rep_distance(ref, t, s), abs=1e-12
        )

    def test_rigid_invariance_of_distance(self, ref, deformed_reps):
        rng = np.random.default_rng(1)
        mesh = smooth_deformation(ref.mesh, seed=11)
        R, t = random_rigid(rng)
        a, _ = encode(ref, mesh)
        b, _ = encode(ref, mesh.transformed(rotation=R, translation=t))
        assert rep_distance(ref, a, b) < 1e-9

    def test_simultaneous_scale_invariance(self, ref, deformed_reps):
        # Scaling reference and both shapes together leaves d unchanged.
        c = 2.9
        mesh_s = smooth_deformation(ref.mesh, seed=2, rotate=False)
        mesh_t = smooth_deformation(ref.mesh, seed=3, rotate=False)
        d = rep_distance(ref, encode(ref, mesh_s)[0], encode(ref, mesh_t)[0])
        scaled_ref = build_reference(ref.mesh.transformed(scale=c))
        d_scaled = rep_distance(
            scaled_ref,
            encode(scaled_ref, mesh_s.transformed(scale=c))[0],
            encode(scaled_ref, mesh_t.transformed(scale=c))[0],
        )
        assert abs(d - d_scaled) / d < 1e-9

    def test_frame_convention_invariance(self, ref):
        # Post-rotating every frame by the same in-plane twist must not
        # change the distance.
        angle = 0.83
        c, s = np.cos(angle), np.sin(angle)
        twist = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        twisted = dataclasses.replace(ref, frames=ref.frames @ twist)
        mesh_s = smooth_deformation(ref.mesh, seed=21)
        mesh_t = smooth_deformation(ref.mesh, seed=22)
        d = rep_distance(ref, encode(ref, mesh_s)[0], encode(ref, mesh_t)[0])
        d_twisted = rep_distance(
            twisted, encode(twisted, mesh_s)[0], encode(twisted, mesh_t)[0]
        )
        assert abs(d - d_twisted) / d < 1e-9

    def test_reference_mismatch_raises(self, ref, deformed_reps):
        other = build_reference(icosphere(1).transformed(scale=1.1))
        alien, _ = encode(other, other.mesh)
        with pytest.raises(ReferenceMismatchError):
            rep_distance(ref, deformed_reps[0], alien)

    def test_against_dense_matrix_log_oracle(self, ref, deformed_reps):
        # Independent evaluation: dense matrix logarithms and explicit
        # summation of the weighted squared terms.
        import scipy.linalg

        s, t = deformed_reps[0], deformed_reps[1]
        omega = 3.7
        rot_total = 0.0
        for e in range(ref.n_inner_edges):
            rel = s.rotations[e].T @ t.rotations[e]
            log_norm = np.linalg.norm(scipy.linalg.logm(rel), "fro")
            rot_total += ref.edge_areas[e] * log_norm**2
        spd_total = 0.0
        for i in range(ref.n_triangles):
            diff = scipy.linalg.logm(t.stretches[i]) - scipy.linalg.logm(
                s.stretches[i]
            )
            spd_total += ref.tri_areas[i] * np.linalg.norm(diff, "fro") ** 2
        expected = np.sqrt(
            omega**3 / ref.total_edge_area * rot_total
            + omega / ref.total_area * spd_total
        )
        got = rep_distance(ref, s, t, DistanceParams(omega))
        assert got == pytest.approx(expected, rel=1e-9)


class TestLogExp:
    def test_log_at_self_is_zero(self, ref, deformed_reps):
        v = rep_log(deformed_reps[0], deformed_reps[0])
        assert np.max(np.abs(v.rot_part)) < 1e-12
        assert np.max(np.abs(v.stretch_part)) < 1e-12

    def test_exp_of_zero(self, ref, deformed_reps):
        s = deformed_reps[0]
        out = rep_exp(s, TangentRep.zero(s))
        assert np.allclose(out.rotations, s.rotations, atol=1e-15)
        assert np.allclose(out.stretches, s.stretches, atol=1e-15)

    def test_roundtrip(self, ref, deformed_reps):
        s, t = deformed_reps[0], deformed_reps[1]
        back = rep_exp(s, rep_log(s, t))
        assert np.max(np.abs(back.rotations - t.rotations)) < 1e-10
        assert np.max(np.abs(back.stretches - t.stretches)) < 1e-10

    def test_inner_matches_distance(self, ref, deformed_reps):
        params = DistanceParams(3.0)
        s, t = deformed_reps[0], deformed_reps[2]
        v = rep_log(s, t)
        g = rep_inner(ref, params, v, v)
        d = rep_distance(ref, s, t, params)
        assert g == pytest.approx(d**2, rel=1e-8)

    def test_inner_bilinearity(self, ref, deformed_reps):
        params = DistanceParams()
        s = deformed_reps[0]
        v = rep_log(s, deformed_reps[1])
        w = rep_log(s, deformed_reps[2])
        lhs = rep_inner(ref, params, 2.0 * v + (-0.5) * w, w)
        rhs = 2.0 * rep_inner(ref, params, v, w) - 0.5 * rep_inner(ref, params, w, w)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_zero_inner(self, ref, deformed_reps):
        s = deformed_reps[0]
        v = rep_log(s, deformed_reps[1])
        assert rep_inner(ref, DistanceParams(), v, TangentRep.zero(s)) == 0.0

    def test_flatten_roundtrip(self, ref, deformed_reps):
        params = DistanceParams(2.5)
        s = deformed_reps[0]
        v = rep_log(s, deformed_reps[1])
        w = rep_log(s, deformed_reps[2])
        fv = flatten_tangent(ref, params, v)
        fw = flatten_tangent(ref, params, w)
        assert float(fv @ fw) == pytest.approx(rep_inner(ref, params, v, w), rel=1e-12)
        back = unflatten_tangent(ref, params, fv, v.base_hash)
        assert np.allclose(back.rot_part, v.rot_part, atol=1e-14)
        assert np.allclose(back.stretch_part, v.stretch_part, atol=1e-14)


class TestGeodesic:
    def test_endpoints(self, ref, deformed_reps):
        s, t = deformed_reps[0], deformed_reps[1]
        g0 = geodesic(s, t, 0.0)
        g1 = geodesic(s, t, 1.0)
        assert np.max(np.abs(g0.rotations - s.rotations)) < 1e-12
        assert np.max(np.abs(g1.rotations - t.rotations)) < 1e-10
        assert np.max(np.abs(g1.stretches - t.stretches)) < 1e-10

    def test_constant_speed(self, ref, deformed_reps):
        s, t = deformed_reps[0], deformed_reps[1]
        d = rep_distance(ref, s, t)
        for lam in (0.25, 0.5, 0.75):
            mid = geodesic(s, t, lam)
            assert rep_distance(ref, s, mid) == pytest.approx(lam * d, rel=1e-8)

    def test_midpoint_equidistant(self, ref, deformed_reps):
        s, t = deformed_reps[1], deformed_reps[2]
        mid = geodesic(s, t, 0.5)
        d = rep_distance(ref, s, t)
        assert rep_distance(ref, s, mid) == pytest.approx(d / 2, rel=1e-8)
        assert rep_distance(ref, t, mid) == pytest.approx(d / 2, rel=1e-8)


class TestDiagnostics:
    def test_zero_for_equal_shapes(self, ref, deformed_reps):
        angles = relative_rotation_angles(deformed_reps[0], deformed_reps[0])
        assert np.max(angles) < 1e-12

    def test_symmetric_in_swap(self, ref, deformed_reps):
        a = relative_rotation_angles(deformed_reps[0], deformed_reps[1])
        b = relative_rotation_angles(deformed_reps[1], deformed_reps[0])
        assert np.allclose(a, b, atol=1e-12)

    def test_angles_below_pi(self, ref, deformed_reps):
        a = relative_rotation_angles(deformed_reps[0], deformed_reps[1])
        assert np.all(a >= 0.0)
        assert np.all(a < np.pi)


class TestCutLocus:
    def test_log_at_half_turn_edge_raises(self, ref, deformed_reps):
        from shapeforms.errors import CutLocusError

        s = deformed_reps[0]
        flipped = s.rotations.copy()
        # Push one edge to a half turn relative to the base.
        axis = np.array([1.0, 0.0, 0.0])
        flipped[0] = so3_exp(axis * np.pi) @ flipped[0]
        t = ShapeRep(flipped, s.stretches, s.reference_hash)
        with pytest.raises(CutLocusError, match=r"^edge 0 is at the cut locus"):
            rep_log(s, t)
        with pytest.raises(CutLocusError, match=r"^edge 0 is at the cut locus"):
            rep_distance(ref, s, t)
        with pytest.raises(CutLocusError, match=r"^edge 0 is at the cut locus"):
            geodesic(s, t, 0.5)

    def test_diagnostic_still_works_at_half_turn(self, ref, deformed_reps):
        # The angle diagnostic itself stays defined at pi.
        s = deformed_reps[0]
        flipped = s.rotations.copy()
        flipped[0] = so3_exp(np.array([0.0, 1.0, 0.0]) * np.pi) @ flipped[0]
        t = ShapeRep(flipped, s.stretches, s.reference_hash)
        angles = relative_rotation_angles(s, t)
        assert angles[0] == pytest.approx(np.pi, abs=1e-12)


class TestSerialization:
    def test_json_roundtrip(self, ref, deformed_reps, tmp_path):
        rep = deformed_reps[0]
        path = tmp_path / "rep.json"
        rep.save(path, omega=10.0)
        back = ShapeRep.load(path)
        assert back.reference_hash == rep.reference_hash
        assert np.array_equal(back.rotations, rep.rotations)
        assert np.array_equal(back.stretches, rep.stretches)
        assert back.content_hash() == rep.content_hash()

    def test_save_bytes_match_streamed_encoder(self, deformed_reps, tmp_path):
        rep = deformed_reps[0]
        path = tmp_path / "rep.json"
        rep.save(path, omega=2.5)
        payload = {
            "reference_hash": rep.reference_hash,
            "rotations": [[float(x) for x in C.reshape(-1)] for C in rep.rotations],
            "stretches": [
                [float(U[0, 0]), float(U[0, 1]), float(U[1, 1])]
                for U in rep.stretches
            ],
            "omega": 2.5,
        }
        expected = io.StringIO()
        json.dump(payload, expected)
        expected.write("\n")
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    def test_save_bytes_of_a_fixed_rep(self, tmp_path):
        rotations = np.array([[[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]])
        stretches = np.array([[[1.5, 0.1], [0.1, 2.0]], [[1.0, 0.0], [0.0, 1.0]]])
        path = tmp_path / "rep.json"
        ShapeRep(rotations, stretches, "abc").save(path, omega=2.5)
        assert path.read_bytes() == (
            b'{"reference_hash": "abc", '
            b'"rotations": [[0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0]], '
            b'"stretches": [[1.5, 0.1, 2.0], [1.0, 0.0, 1.0]], "omega": 2.5}\n'
        )
        back = ShapeRep.load(path)
        assert np.array_equal(back.rotations, rotations)
        assert np.array_equal(back.stretches, stretches)


def single_triangle_reference():
    vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.2, 0.9, 0.0]])
    return build_reference(TriangleMesh(vertices, np.array([[0, 1, 2]])))


def random_tangent(rng, base):
    rot = rng.normal(size=(base.n_edges, 3))
    sym = rng.normal(size=(base.n_triangles, 2, 2))
    return TangentRep(rot, sym + np.swapaxes(sym, -1, -2), base.content_hash())


class TestTangentLayout:
    """A tangent vector is one coordinate array; its parts are views."""

    @pytest.fixture(params=["icosphere-1", "single-triangle"])
    def layout_ref(self, request, ref):
        return ref if request.param == "icosphere-1" else single_triangle_reference()

    def test_parts_are_views_of_coordinates(self, ref, deformed_reps):
        v = rep_log(deformed_reps[0], deformed_reps[1])
        E, m = ref.n_inner_edges, ref.n_triangles
        assert v.coordinates.shape == (3 * E + 4 * m,)
        assert v.coordinates.flags.c_contiguous
        assert v.rot_part.shape == (E, 3) and v.stretch_part.shape == (m, 2, 2)
        assert np.shares_memory(v.rot_part, v.coordinates)
        assert np.shares_memory(v.stretch_part, v.coordinates)
        assert np.array_equal(v.coordinates[: 3 * E], v.rot_part.reshape(-1))
        assert np.array_equal(v.coordinates[3 * E:], v.stretch_part.reshape(-1))
        v.stretch_part[1, 0, 1] = 7.0
        assert v.coordinates[3 * E + 4 + 1] == 7.0

    def test_constructor_copies_the_parts(self, ref, deformed_reps):
        rot = np.ones((ref.n_inner_edges, 3))
        spd = np.ones((ref.n_triangles, 2, 2))
        v = TangentRep(rot, spd, "h")
        assert not np.shares_memory(v.coordinates, rot)
        assert not np.shares_memory(v.coordinates, spd)
        assert np.array_equal(v.rot_part, rot) and np.array_equal(v.stretch_part, spd)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_arithmetic_bit_equal_to_parts(self, layout_ref, seed):
        rng = np.random.default_rng(seed)
        base = encode(layout_ref, layout_ref.mesh)[0]
        v, w = random_tangent(rng, base), random_tangent(rng, base)
        c = rng.normal()
        for got, rot, spd in (
            (v + w, v.rot_part + w.rot_part, v.stretch_part + w.stretch_part),
            (c * v, v.rot_part * c, v.stretch_part * c),
            (v * c, v.rot_part * c, v.stretch_part * c),
        ):
            assert got.base_hash == base.content_hash()
            assert np.array_equal(got.rot_part, rot)
            assert np.array_equal(got.stretch_part, spd)
        zero = TangentRep.zero(base)
        assert zero.rot_part.shape == (layout_ref.n_inner_edges, 3)
        assert zero.stretch_part.shape == (layout_ref.n_triangles, 2, 2)
        assert not np.any(zero.coordinates)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_inner_bit_equal_to_parts(self, layout_ref, seed):
        rng = np.random.default_rng(seed)
        params = DistanceParams(omega=3.0)
        base = encode(layout_ref, layout_ref.mesh)[0]
        v, w = random_tangent(rng, base), random_tangent(rng, base)

        def parts(u):
            return np.concatenate((u.rot_part.reshape(-1), u.stretch_part.reshape(-1)))

        weights = _coordinate_weights(layout_ref, params)
        got = rep_inner(layout_ref, params, v, w)
        assert got == float((weights * parts(v)) @ parts(w))
        omega = params.omega
        by_parts = omega / layout_ref.total_area * float(
            layout_ref.tri_areas @ np.sum(v.stretch_part * w.stretch_part, axis=(1, 2)))
        if layout_ref.n_inner_edges:
            by_parts += 2.0 * omega**3 / layout_ref.total_edge_area * float(
                layout_ref.edge_areas @ np.sum(v.rot_part * w.rot_part, axis=1))
        assert got == pytest.approx(by_parts, rel=1e-12)


class TestCaches:
    """A representation copies what it is built from, so its cached hash
    and stretch logarithms cannot go stale."""

    def _built_from_caller_arrays(self, deformed_reps):
        rep = deformed_reps[0]
        rotations = rep.rotations.copy()
        stretches = rep.stretches.copy()
        return ShapeRep(rotations, stretches, rep.reference_hash), rotations, stretches

    def test_caller_arrays_stay_writeable(self, deformed_reps):
        built, rotations, stretches = self._built_from_caller_arrays(deformed_reps)
        assert rotations.flags.writeable and stretches.flags.writeable
        assert not built.rotations.flags.writeable
        assert not built.stretches.flags.writeable
        assert not np.shares_memory(built.rotations, rotations)
        assert not np.shares_memory(built.stretches, stretches)

    def test_caller_mutation_does_not_reach_caches(self, deformed_reps):
        built, rotations, stretches = self._built_from_caller_arrays(deformed_reps)
        expected = (built.rotations.copy(), built.stretches.copy(),
                    built.content_hash(), built.log_stretches.copy())
        rotations[:] = np.eye(3)
        stretches[:] = 2.0 * np.eye(2)
        assert np.array_equal(built.rotations, expected[0])
        assert np.array_equal(built.stretches, expected[1])
        assert built.content_hash() == expected[2]
        assert np.array_equal(built.log_stretches, expected[3])
        assert built.content_hash() == deformed_reps[0].content_hash()

    def test_log_stretches_read_only_and_exact(self, deformed_reps):
        rep = deformed_reps[1]
        logs = rep.log_stretches
        assert not logs.flags.writeable
        with pytest.raises(ValueError):
            logs[0, 0, 0] = 1.0
        assert np.array_equal(logs, spd2_log(rep.stretches))
        assert rep.log_stretches is logs

    def test_content_hash_matches_fresh_digest(self, deformed_reps):
        rep = deformed_reps[2]
        first = rep.content_hash()
        fresh = ShapeRep(rep.rotations, rep.stretches, rep.reference_hash)
        assert fresh.content_hash() == first == rep.content_hash()
        other = ShapeRep(rep.rotations, 2.0 * rep.stretches, rep.reference_hash)
        assert other.content_hash() != first


class TestRefinement:
    def _subdivide(self, mesh):
        """Linear 1-to-4 subdivision (no reprojection)."""
        verts = [tuple(v) for v in mesh.vertices]
        cache = {}

        def mid(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                cache[key] = len(verts)
                verts.append(tuple(0.5 * (mesh.vertices[i] + mesh.vertices[j])))
            return cache[key]

        faces = []
        for a, b, c in mesh.triangles:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            faces += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        return TriangleMesh(np.array(verts), np.array(faces, dtype=np.int64))

    def test_stretch_term_exactly_invariant(self, ref):
        # Subdividing reference and shapes together leaves the metric part
        # of the distance unchanged; pure-stretch deformations therefore
        # keep their distance exactly.
        c = 1.6
        s, _ = encode(ref, ref.mesh)
        t, _ = encode(ref, ref.mesh.transformed(scale=c))
        d = rep_distance(ref, s, t)

        fine_mesh = self._subdivide(ref.mesh)
        fine_ref = build_reference(fine_mesh)
        fs, _ = encode(fine_ref, fine_mesh)
        ft, _ = encode(fine_ref, fine_mesh.transformed(scale=c))
        d_fine = rep_distance(fine_ref, fs, ft)
        assert abs(d - d_fine) / d < 1e-12

    def test_near_isometric_bending_within_percent(self, ref):
        # For smooth deformations whose bending is mild relative to the
        # stretching, refinement changes the distance by well under 1%.
        rng = np.random.default_rng(8)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)

        def warp(mesh):
            radial = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1, keepdims=True)
            angle = np.arccos(np.clip(radial @ direction, -1, 1))
            bump = 1e-3 * np.exp(-((angle / 0.6) ** 2))
            return TriangleMesh(
                mesh.vertices * (1.25 + bump[:, None]), mesh.triangles
            )

        s, _ = encode(ref, ref.mesh)
        t, _ = encode(ref, warp(ref.mesh))
        d = rep_distance(ref, s, t)

        fine_mesh = self._subdivide(ref.mesh)
        fine_ref = build_reference(fine_mesh)
        fs, _ = encode(fine_ref, fine_mesh)
        ft, _ = encode(fine_ref, self._subdivide(warp(ref.mesh)))
        d_fine = rep_distance(fine_ref, fs, ft)
        assert abs(d - d_fine) / d < 0.01
