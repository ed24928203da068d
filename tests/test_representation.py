import dataclasses
import hashlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from shapeforms import representation
from shapeforms.errors import (
    ConditioningError,
    CutLocusError,
    MeshFormatError,
    OrientationError,
    ReferenceMismatchError,
)
from shapeforms.liegroups import (
    _entries,
    _matrices,
    _quaternion_entries,
    _quaternions,
    polar3,
    so3_exp,
    spd2_exp,
    spd2_log,
)
from shapeforms.mesh import TriangleMesh
from shapeforms.reference import build_reference, deformation_gradients
from shapeforms.representation import (
    DistanceParams,
    ShapeRep,
    TangentRep,
    _encode_stack,
    encode,
    geodesic,
    relative_rotation_angles,
    rep_distance,
    rep_exp,
    rep_log,
    _coordinate_weights,
)
from shapeforms.synthetic import icosphere, smooth_deformation

from helpers import (
    add_tangents,
    flatten_tangent,
    needle_mesh,
    rep_inner,
    skew,
    tangent_distances,
    times_transpose,
    unflatten_tangent,
    zero_tangent,
)


#: Largest entry of ``|rotations - R|`` for a shape built from rotation
#: matrices ``R``: the matrices of their quaternions, measured at 6 EPS
#: near pi and 4 EPS elsewhere.
EPS = np.finfo(float).eps
ROTATION_EPS = 8.0 * EPS


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


def triples(sym):
    """The ``(X11, X12, X22)`` rows of symmetric ``(m, 2, 2)`` matrices."""
    return np.asarray(sym).reshape(-1, 4)[:, [0, 1, 3]]


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

    @pytest.mark.parametrize("kind", ["mirrored", "folded"])
    def test_reversed_orientation_encodes(self, ref, kind):
        # Each gradient maps the reference normal onto its deformed
        # triangle's own normal, so its determinant is positive even where
        # the mesh is mirrored or folded, and encode raises nothing.
        vertices = ref.mesh.vertices.copy()
        if kind == "mirrored":
            vertices[:, 0] *= -1.0
        else:
            # Vertex 0 moves through the centre, which folds its fan over.
            vertices[0] *= -0.5
        rep, decomp = encode(ref, TriangleMesh(vertices, ref.mesh.triangles))
        assert np.all(np.linalg.det(decomp.gradients) > 0.0)
        assert np.all(np.isfinite(rep.rotations))
        assert np.all(np.isfinite(rep.stretches))
        # Only a direct polar3 call meets OrientationError.
        with pytest.raises(OrientationError, match=r"^non-positive determinant -"):
            polar3(-decomp.gradients)


class TestEncodeStack:
    """A cohort is encoded as one stack, each shape with the bits of its own
    ``encode``."""

    @pytest.fixture(scope="class")
    def meshes(self, ref):
        # The reference and a scaled copy settle in the polar iteration
        # steps before the deformed shapes do.
        return [ref.mesh, smooth_deformation(ref.mesh, seed=4, stretch=0.3),
                ref.mesh.transformed(scale=1.7)] + [
            smooth_deformation(ref.mesh, seed=s, stretch=0.1, wave_amplitude=0.05)
            for s in range(2)]

    def test_one_polar_decomposition(self, ref, meshes, monkeypatch):
        shapes = []

        def counted(D):
            shapes.append(np.shape(D))
            return polar3(D)

        monkeypatch.setattr(representation, "polar3", counted)
        _encode_stack(ref, meshes)
        assert shapes == [(len(meshes), ref.n_triangles, 3, 3)]

    def test_each_shape_matches_its_own_encoding(self, ref, meshes):
        reps, parts = _encode_stack(ref, meshes)
        assert len(reps) == len(meshes)
        for k, mesh in enumerate(meshes):
            rep, decomp = encode(ref, mesh)
            assert np.array_equal(reps[k].rotations, rep.rotations)
            assert np.array_equal(reps[k].stretches, rep.stretches)
            assert reps[k].content_hash() == rep.content_hash()
            for stacked, single in zip(parts, (decomp.gradients, decomp.rotations,
                                               decomp.stretches3, decomp.frames)):
                assert np.array_equal(stacked[k], single)

    def test_ill_conditioned_shape_named(self, ref, meshes):
        cohort = meshes[:2] + [needle_mesh(ref.mesh, 7)] + meshes[2:]
        with pytest.raises(ConditioningError, match=r"below 1e-10 at index \(2, 7\)$"):
            _encode_stack(ref, cohort)
        with pytest.raises(ConditioningError, match=r"below 1e-10 at index \(0, 7\)$"):
            encode(ref, cohort[2])

    def test_inverted_shape_named(self, ref, meshes, monkeypatch):
        # The gradients of a mesh map the reference normal onto the deformed
        # one, so their determinants are positive: invert one by hand.
        inverted = meshes[3]

        def gradients(ref_, mesh):
            D = deformation_gradients(ref_, mesh)
            if mesh is inverted:
                D[11] = -D[11]
            return D

        monkeypatch.setattr(representation, "deformation_gradients", gradients)
        with pytest.raises(OrientationError,
                           match=r"^non-positive determinant -\S+ at index \(3, 11\)$"):
            _encode_stack(ref, meshes)


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

    def test_norm_of_the_log_without_hashing(self, ref, deformed_reps):
        # Fresh shapes: neither has computed its content hash yet.
        s, t = (ShapeRep(rep.rotations, rep.stretches, rep.reference_hash)
                for rep in deformed_reps[:2])
        d = rep_distance(ref, s, t)
        assert "_content_hash" not in vars(s) and "_content_hash" not in vars(t)
        v = rep_log(s, t).coordinates
        assert d == float(np.sqrt(_coordinate_weights(ref, DistanceParams()) @ (v * v)))

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
        out = rep_exp(s, zero_tangent(s))
        assert np.allclose(out.rotations, s.rotations, atol=1e-15)
        assert np.allclose(out.stretches, s.stretches, atol=1e-15)

    def test_exp_of_zero_times_a_vector_is_the_base_bit_for_bit(self, ref,
                                                                deformed_reps):
        # exp(0) is the unit quaternion (1, 0, 0, 0), and a zero vector's
        # product with it and sum with the logs give the stored arrays.
        s = deformed_reps[0]
        out = rep_exp(s, 0.0 * rep_log(s, deformed_reps[1]))
        assert out.quaternions.tobytes() == s.quaternions.tobytes()
        assert out.log_stretches.tobytes() == s.log_stretches.tobytes()
        assert out.content_hash() == s.content_hash()

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
        lhs = rep_inner(ref, params, add_tangents(2.0 * v, (-0.5) * w), w)
        rhs = 2.0 * rep_inner(ref, params, v, w) - 0.5 * rep_inner(ref, params, w, w)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_zero_inner(self, ref, deformed_reps):
        s = deformed_reps[0]
        v = rep_log(s, deformed_reps[1])
        assert rep_inner(ref, DistanceParams(), v, zero_tangent(s)) == 0.0

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


class TestTangentDistances:
    """``tangent_distances`` on a stacked samples x targets block against
    ``rep_distance`` of each formed sample ``exp_mu(v)`` to each target."""

    @staticmethod
    def block(ref, mu, params, vectors, targets):
        """The distances of the samples ``exp_mu(v)`` ``(b, n)`` to ``n``
        targets, from the quaternions of ``t mu^T`` and the stretch logs at
        ``mu``."""
        relative = times_transpose(
            np.stack([_entries(t.rotations) for t in targets], axis=1),
            _entries(mu.rotations))
        stretch_logs = np.stack([t.log_stretches - mu.log_stretches
                                 for t in targets]).reshape(len(targets), -1)
        return tangent_distances(vectors[:, None, :], _quaternions(relative),
                                 stretch_logs, _coordinate_weights(ref, params))

    @staticmethod
    def samples(mu, count, seed):
        rng = np.random.default_rng(seed)
        return 0.3 * np.stack([random_tangent(rng, mu).coordinates
                               for _ in range(count)])

    @staticmethod
    def formed(mu, coordinates):
        return rep_exp(mu, TangentRep._from_coordinates(coordinates, mu.n_edges,
                                                        mu.content_hash()))

    def test_block_matches_rep_distance(self, ref, deformed_reps):
        mu = deformed_reps[0]
        params = DistanceParams(2.5)
        vectors = self.samples(mu, 4, seed=5)
        got = self.block(ref, mu, params, vectors, deformed_reps)
        assert got.shape == (4, len(deformed_reps))
        expected = np.array([[rep_distance(ref, self.formed(mu, v), t, params)
                              for t in deformed_reps] for v in vectors])
        assert np.max(np.abs(got - expected) / expected) < 1e-13

    def test_half_turn_names_the_edge_of_the_first_sample(self, ref, deformed_reps):
        mu = deformed_reps[0]
        params = DistanceParams()
        vectors = self.samples(mu, 4, seed=6)
        rot = vectors[:, :3 * mu.n_edges].reshape(4, mu.n_edges, 3)
        half_turn = so3_exp(np.array([0.0, 0.6, 0.8]) * np.pi)
        targets = list(deformed_reps)
        # Sample 1 is a half-turn from target 2 on edge 5, and sample 3 from
        # target 0 on edge 2; the pair of sample 1 comes first.
        for sample, target, edge in ((1, 2, 5), (3, 0, 2)):
            rotations = targets[target].rotations.copy()
            rotations[edge] = so3_exp(rot[sample, edge]) @ half_turn @ mu.rotations[edge]
            targets[target] = ShapeRep(rotations, targets[target].stretches,
                                       targets[target].reference_hash)
        with pytest.raises(CutLocusError, match=r"^edge 5 is at the cut locus"):
            self.block(ref, mu, params, vectors, targets)
        with pytest.raises(CutLocusError, match=r"^edge 5 is at the cut locus"):
            rep_distance(ref, self.formed(mu, vectors[1]), targets[2], params)
        with pytest.raises(CutLocusError, match=r"^edge 2 is at the cut locus"):
            self.block(ref, mu, params, vectors[2:], targets)


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
        rep.save(path)
        back = ShapeRep.load(path)
        assert back.reference_hash == rep.reference_hash
        assert np.array_equal(back.quaternions, rep.quaternions)
        assert np.array_equal(back.log_stretches, rep.log_stretches)
        assert np.array_equal(back.rotations, rep.rotations)
        assert np.array_equal(back.stretches, rep.stretches)
        assert back.content_hash() == rep.content_hash()

    def test_save_bytes_match_streamed_encoder(self, deformed_reps, tmp_path):
        rep = deformed_reps[0]
        path = tmp_path / "rep.json"
        rep.save(path)
        payload = {
            "reference_hash": rep.reference_hash,
            "quaternions": [[float(x) for x in q] for q in rep.quaternions.T],
            "log_stretches": [[float(x) for x in L] for L in rep.log_stretches],
        }
        expected = io.StringIO()
        json.dump(payload, expected)
        expected.write("\n")
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    def test_save_bytes_of_a_fixed_rep(self, tmp_path):
        # A quarter turn about z, and the stretches diag(e, 1) and I, whose
        # logs are exact.
        rotations = np.array([[[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]])
        stretches = np.array([[[np.e, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]])
        path = tmp_path / "rep.json"
        rep = ShapeRep(rotations, stretches, "abc")
        rep.save(path)
        assert path.read_bytes() == (
            b'{"reference_hash": "abc", '
            b'"quaternions": [[0.7071067811865476, 0.0, 0.0, 0.7071067811865475]], '
            b'"log_stretches": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}\n'
        )
        back = ShapeRep.load(path)
        assert np.array_equal(back.quaternions, rep.quaternions)
        assert np.array_equal(back.log_stretches, rep.log_stretches)
        assert back.content_hash() == rep.content_hash()

    def test_legacy_file_of_a_fixed_rep_loads(self, tmp_path):
        # The bytes the earlier format wrote for this shape load through the
        # matrix constructor, with its bits.
        rotations = np.array([[[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]])
        stretches = np.array([[[1.5, 0.1], [0.1, 2.0]], [[1.0, 0.0], [0.0, 1.0]]])
        path = tmp_path / "rep.json"
        path.write_bytes(
            b'{"reference_hash": "abc", '
            b'"rotations": [[0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0]], '
            b'"stretches": [[1.5, 0.1, 2.0], [1.0, 0.0, 1.0]]}\n'
        )
        back = ShapeRep.load(path)
        built = ShapeRep(rotations, stretches, "abc")
        assert np.array_equal(back.quaternions, built.quaternions)
        assert np.array_equal(back.log_stretches, built.log_stretches)
        assert back.content_hash() == built.content_hash()
        assert np.max(np.abs(back.rotations - rotations)) <= ROTATION_EPS
        assert np.max(np.abs(back.stretches - stretches)) <= 16.0 * EPS

    def test_load_ignores_an_omega_key(self, tmp_path):
        # Files written before ``save`` lost its ``omega`` argument carry
        # the key; it never took part in loading.
        path = tmp_path / "rep.json"
        path.write_bytes(
            b'{"reference_hash": "abc", '
            b'"rotations": [[0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0]], '
            b'"stretches": [[1.5, 0.1, 2.0]], "omega": 2.5}\n'
        )
        back = ShapeRep.load(path)
        built = ShapeRep([[[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]],
                         [[[1.5, 0.1], [0.1, 2.0]]], "abc")
        assert back.reference_hash == "abc"
        assert np.array_equal(back.quaternions, built.quaternions)
        assert np.array_equal(back.log_stretches, built.log_stretches)


def _legacy_file(rep, tmp_path, edit=lambda payload: None):
    """The path of a shape file of the earlier format holding ``rep``'s
    rotation matrices and stretch triples, after ``edit`` changed its
    payload."""
    path = tmp_path / "rep.json"
    payload = {"reference_hash": rep.reference_hash,
               "rotations": rep.rotations.reshape(-1, 9).tolist(),
               "stretches": rep.stretches.reshape(-1, 4)[:, [0, 1, 3]].tolist()}
    edit(payload)
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return path


def _rewritten(rep, tmp_path, edit):
    """The path of ``rep``'s shape file after ``edit`` changed its payload."""
    path = tmp_path / "rep.json"
    rep.save(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return path


def _set_rotation(edge, matrix):
    return lambda p: p["rotations"].__setitem__(edge, np.ravel(matrix).tolist())


def _set_stretch(triangle, triple):
    return lambda p: p["stretches"].__setitem__(triangle, list(triple))


def _set_quaternion(edge, q):
    return lambda p: p["quaternions"].__setitem__(edge, list(q))


def _scale_quaternion(edge, factor):
    return lambda p: p["quaternions"].__setitem__(
        edge, [factor * x for x in p["quaternions"][edge]])


def _set_log(triangle, triple):
    return lambda p: p["log_stretches"].__setitem__(triangle, list(triple))


def _assert_refused(path, message):
    with pytest.raises(MeshFormatError, match=rf"^{re.escape(str(path))}: {message}") \
            as excinfo:
        ShapeRep.load(path)
    assert excinfo.value.path == path
    assert excinfo.value.category == "format"


class TestLoadValidation:
    """A shape file with invalid values is refused on load, naming the
    file and the first bad edge or triangle; these cases hold files of the
    earlier rotation-matrix format."""

    @pytest.mark.parametrize("edit, message", [
        (_set_rotation(5, np.diag([2.0, 1.0, 1.0])),
         r"rotation of edge 5 is not a finite rotation: max \|R\^T R - I\| = 3 "),
        (_set_rotation(0, np.diag([-1.0, 1.0, 1.0])),
         r"rotation of edge 0 is not a finite rotation: .*det R = -1$"),
        (_set_rotation(3, so3_exp([0.1, 0.2, 0.3]) + 1e-8),
         r"rotation of edge 3 is not a finite rotation"),
        (_set_rotation(7, np.full((3, 3), np.nan)),
         r"rotation of edge 7 is not a finite rotation: max \|R\^T R - I\| = nan"),
        (_set_rotation(2, [np.inf, 0, 0, 0, 1, 0, 0, 0, 1]),
         r"rotation of edge 2 is not a finite rotation"),
        (_set_stretch(4, (-1.0, 0.0, 1.0)),
         r"stretch of triangle 4 is not a finite positive-definite matrix"),
        (_set_stretch(9, (1.0, 2.0, 1.0)),
         r"stretch of triangle 9 is not a finite positive-definite matrix"),
        (_set_stretch(1, (np.inf, 0.0, 1.0)),
         r"stretch of triangle 1 is not a finite positive-definite matrix"),
        (_set_stretch(6, (1.0, np.nan, 1.0)),
         r"stretch of triangle 6 is not a finite positive-definite matrix"),
    ], ids=["scaled", "reflection", "off_by_1e-8", "nan_rotation", "inf_rotation",
            "negative_stretch", "indefinite_stretch", "inf_stretch", "nan_stretch"])
    def test_invalid_values_are_refused(self, deformed_reps, tmp_path, edit, message):
        _assert_refused(_legacy_file(deformed_reps[0], tmp_path, edit), message)

    def test_rounded_rotations_load(self, deformed_reps, tmp_path):
        # A rotation off orthogonality by rounding, well below the 1e-9
        # tolerance, loads through the matrix constructor.
        rep = deformed_reps[0]
        rotations = np.array(rep.rotations)
        rotations[5] *= 1.0 + 1e-12
        back = ShapeRep.load(_legacy_file(rep, tmp_path,
                                          _set_rotation(5, rotations[5])))
        built = ShapeRep(rotations, rep.stretches, rep.reference_hash)
        assert np.array_equal(back.quaternions, built.quaternions)
        assert np.max(np.abs(back.rotations[5] - rotations[5])) <= 2e-12
        assert np.array_equal(back.log_stretches, triples(spd2_log(rep.stretches)))

    @pytest.mark.parametrize("edit, message", [
        (_set_quaternion(5, (2.0, 0.0, 0.0, 0.0)),
         r"quaternion of edge 5 is not a finite unit quaternion: "
         r"\| \|q\|\^2 - 1 \| = 3 \(at most 1e-09\)$"),
        (_scale_quaternion(3, 1.0 + 1e-9),
         r"quaternion of edge 3 is not a finite unit quaternion: "
         r"\| \|q\|\^2 - 1 \| = 2e-09 "),
        (_set_quaternion(0, (0.0, 0.0, 0.0, 0.0)),
         r"quaternion of edge 0 is not a finite unit quaternion: "
         r"\| \|q\|\^2 - 1 \| = 1 "),
        (_set_quaternion(7, (np.nan, 0.0, 0.0, 0.0)),
         r"quaternion of edge 7 is not a finite unit quaternion: "
         r"\| \|q\|\^2 - 1 \| = nan "),
        (_set_quaternion(2, (1.0, np.inf, 0.0, 0.0)),
         r"quaternion of edge 2 is not a finite unit quaternion: "
         r"\| \|q\|\^2 - 1 \| = inf "),
        (_set_quaternion(4, (1e200, 0.0, 0.0, 0.0)),
         r"quaternion of edge 4 is not a finite unit quaternion"),
        (_set_log(4, (np.inf, 0.0, 1.0)),
         r"the stretch log of triangle 4 holds a non-finite value$"),
        (_set_log(9, (0.0, np.nan, 0.0)),
         r"the stretch log of triangle 9 holds a non-finite value$"),
    ], ids=["scaled", "off_by_1e-9", "zero", "nan", "inf", "overflow", "inf_log",
            "nan_log"])
    def test_invalid_quaternions_and_logs_are_refused(self, deformed_reps, tmp_path,
                                                      edit, message):
        _assert_refused(_rewritten(deformed_reps[0], tmp_path, edit), message)

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p.update(log_stretches=[row + [0.0] for row in p["log_stretches"]]),
         r"'log_stretches' is not a list of rows of 3 numbers: a row is not a list "
         r"of that length$"),
        (lambda p: p["quaternions"][3].pop(),
         r"'quaternions' is not a list of rows of 4 numbers"),
        (lambda p: p["quaternions"].append([1.0, 0.0, 0.0, 0.0, 0.0]),
         r"'quaternions' is not a list of rows of 4 numbers"),
        (lambda p: p.update(quaternions=[x for q in p["quaternions"] for x in q]),
         r"'quaternions' is not a list of rows of 4 numbers"),
        (lambda p: p["log_stretches"][2].__setitem__(1, [0.0]),
         r"'log_stretches' is not a list of rows of 3 numbers: setting an array "
         r"element with a sequence"),
        (lambda p: p["log_stretches"][2].__setitem__(1, {}),
         r"'log_stretches' is not a list of rows of 3 numbers"),
        (lambda p: p.update(log_stretches="none"),
         r"'log_stretches' is not a list of rows of 3 numbers: got str$"),
        (lambda p: p.pop("log_stretches"), r"missing key 'log_stretches'$"),
        (lambda p: p.pop("reference_hash"), r"missing key 'reference_hash'$"),
        (lambda p: [p.pop(key) for key in ("quaternions", "log_stretches")],
         r"missing key 'quaternions'$"),
    ], ids=["four_log_columns", "short_quaternion", "long_quaternion",
            "flat_quaternions", "nested_value", "object_value", "no_list",
            "no_logs", "no_hash", "no_arrays"])
    def test_malformed_arrays_are_refused(self, deformed_reps, tmp_path, edit, message):
        _assert_refused(_rewritten(deformed_reps[0], tmp_path, edit), message)

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p["rotations"][1].pop(), r"'rotations' is not a list of rows of 9"),
        (lambda p: p.update(stretches=[row + [1.0] for row in p["stretches"]]),
         r"'stretches' is not a list of rows of 3 numbers"),
        (lambda p: p.pop("stretches"), r"missing key 'stretches'$"),
    ], ids=["short_rotation", "four_stretch_columns", "no_stretches"])
    def test_malformed_legacy_arrays_are_refused(self, deformed_reps, tmp_path, edit,
                                                 message):
        _assert_refused(_legacy_file(deformed_reps[0], tmp_path, edit), message)

    def test_rounded_quaternions_load(self, deformed_reps, tmp_path):
        # A quaternion off unit norm by rounding, well below the 1e-9
        # tolerance, loads unchanged.
        rep = deformed_reps[0]
        back = ShapeRep.load(_rewritten(rep, tmp_path, _scale_quaternion(5, 1.0 + 1e-12)))
        assert np.array_equal(back.quaternions[:, 5], rep.quaternions[:, 5] * (1.0 + 1e-12))
        assert np.array_equal(np.delete(back.quaternions, 5, axis=1),
                              np.delete(rep.quaternions, 5, axis=1))
        assert np.array_equal(back.log_stretches, rep.log_stretches)


def single_triangle_reference():
    vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.2, 0.9, 0.0]])
    return build_reference(TriangleMesh(vertices, np.array([[0, 1, 2]])))


def random_tangent(rng, base):
    rot = rng.normal(size=(base.n_edges, 3))
    sym = rng.normal(size=(base.n_triangles, 2, 2))
    return TangentRep(rot, sym + np.swapaxes(sym, -1, -2), base.content_hash())


class TestTangentLayout:
    """A tangent vector is one coordinate array: ``rot_part`` is a view of
    it, and ``stretch_part`` the matrices of its triples."""

    @pytest.fixture(params=["icosphere-1", "single-triangle"])
    def layout_ref(self, request, ref):
        return ref if request.param == "icosphere-1" else single_triangle_reference()

    def test_rot_part_is_a_view_and_stretch_part_derived(self, ref, deformed_reps):
        v = rep_log(deformed_reps[0], deformed_reps[1])
        E, m = ref.n_inner_edges, ref.n_triangles
        assert v.coordinates.shape == (3 * E + 3 * m,)
        assert v.coordinates.flags.c_contiguous
        assert v.rot_part.shape == (E, 3) and v.stretch_part.shape == (m, 2, 2)
        assert np.shares_memory(v.rot_part, v.coordinates)
        assert not np.shares_memory(v.stretch_part, v.coordinates)
        assert not v.stretch_part.flags.writeable
        assert np.array_equal(v.coordinates[: 3 * E], v.rot_part.reshape(-1))
        assert np.array_equal(v.coordinates[3 * E:],
                              triples(v.stretch_part).reshape(-1))
        v.coordinates[3 * E + 3 + 1] = 7.0
        assert v.stretch_part[1, 0, 1] == v.stretch_part[1, 1, 0] == 7.0

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
            (add_tangents(v, w), v.rot_part + w.rot_part, v.stretch_part + w.stretch_part),
            (c * v, v.rot_part * c, v.stretch_part * c),
            (v * c, v.rot_part * c, v.stretch_part * c),
        ):
            assert got.base_hash == base.content_hash()
            assert np.array_equal(got.rot_part, rot)
            assert np.array_equal(got.stretch_part, spd)
        zero = zero_tangent(base)
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
            return np.concatenate((u.rot_part.reshape(-1),
                                   triples(u.stretch_part).reshape(-1)))

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
    """A representation holds copies of its quaternions and stretch logs,
    so its cached hash cannot go stale, and it holds nothing else."""

    def _built_from_caller_arrays(self, deformed_reps):
        rep = deformed_reps[0]
        rotations = np.array(rep.rotations)
        stretches = np.array(rep.stretches)
        return ShapeRep(rotations, stretches, rep.reference_hash), rotations, stretches

    def test_caller_arrays_stay_writeable(self, deformed_reps):
        built, rotations, stretches = self._built_from_caller_arrays(deformed_reps)
        assert rotations.flags.writeable and stretches.flags.writeable
        for held in (built.quaternions, built.log_stretches, built.rotations,
                     built.stretches):
            assert not held.flags.writeable
            assert not np.shares_memory(held, rotations)
            assert not np.shares_memory(held, stretches)

    def test_caller_mutation_does_not_reach_caches(self, deformed_reps):
        built, rotations, stretches = self._built_from_caller_arrays(deformed_reps)
        expected = (built.quaternions.copy(), built.log_stretches.copy(),
                    built.rotations.copy(), built.stretches.copy(),
                    built.content_hash())
        rotations[:] = np.eye(3)
        stretches[:] = 2.0 * np.eye(2)
        assert np.array_equal(built.quaternions, expected[0])
        assert np.array_equal(built.log_stretches, expected[1])
        assert np.array_equal(built.rotations, expected[2])
        assert np.array_equal(built.stretches, expected[3])
        assert built.content_hash() == expected[4]

    def test_log_stretches_read_only_and_exact(self, deformed_reps):
        # The constructor converts the matrices once; later parts are the
        # stored arrays, and the matrices are derived from them.
        rep = deformed_reps[1]
        rotations, stretches = np.array(rep.rotations), np.array(rep.stretches)
        built = ShapeRep(rotations, stretches, rep.reference_hash)
        quats, logs = built.quaternions, built.log_stretches
        assert np.array_equal(quats, _quaternions(_entries(rotations)))
        assert np.array_equal(logs, triples(spd2_log(stretches)))
        assert built.quaternions is quats and built.log_stretches is logs
        for part in (quats, logs):
            with pytest.raises(ValueError):
                part.reshape(-1)[0] = 1.0
        assert np.array_equal(built.rotations, _matrices(_quaternion_entries(quats)))
        assert np.array_equal(built.stretches,
                              spd2_exp(logs[:, [0, 1, 1, 2]].reshape(-1, 2, 2)))
        assert np.max(np.abs(built.rotations - rotations)) <= ROTATION_EPS

    def test_content_hash_matches_fresh_digest(self, deformed_reps):
        rep = deformed_reps[2]
        first = rep.content_hash()
        digest = hashlib.sha256()
        for part in (rep.reference_hash.encode(), rep.quaternions.tobytes(),
                     rep.log_stretches.tobytes()):
            digest.update(part)
        assert first == digest.hexdigest()
        fresh = ShapeRep._from_parts(np.array(rep.quaternions),
                                     np.array(rep.log_stretches), rep.reference_hash)
        assert fresh.content_hash() == first == rep.content_hash()
        other = ShapeRep._from_parts(rep.quaternions, rep.log_stretches + 0.5,
                                     rep.reference_hash)
        assert other.content_hash() != first

    def test_holds_quaternions_and_logs_only(self):
        # 5,120 triangles and 7,680 inner edges: 245,760 bytes of quaternions
        # and 122,880 of stretch-log triples, against 1.13 MB when the
        # matrices were held too.
        ref = build_reference(icosphere(4))
        rep = encode(ref, smooth_deformation(ref.mesh, seed=0))[0]
        rep.content_hash()
        rep.rotations, rep.stretches  # derived, never held
        arrays = [value for value in vars(rep).values() if isinstance(value, np.ndarray)]
        assert sum(a.nbytes for a in arrays) == 368_640
        assert not any(a.shape == (rep.n_edges, 3, 3) for a in arrays)
        assert rep.quaternions.shape == (4, 7680)
        assert rep.log_stretches.shape == (5120, 3)


# Axis-angle vectors in three regimes of the angle: tiny (below the 1e-8 of
# the kernels' series), main, and within 1e-3 of pi.
unit_axes = st.tuples(st.floats(0.0, np.pi), st.floats(-np.pi, np.pi)).map(
    lambda t: np.array([np.sin(t[0]) * np.cos(t[1]), np.sin(t[0]) * np.sin(t[1]),
                        np.cos(t[0])]))
ANGLES = {
    "tiny": st.floats(-12.0, -8.0).map(lambda e: 10.0 ** e),
    "main": st.floats(1e-8, np.pi - 1e-3),
    "near_pi": st.floats(-12.0, -3.0).map(lambda e: np.pi - 10.0 ** e),
}


def rodrigues(axis, angle):
    """The rotation by ``angle`` about the unit ``axis``, from Rodrigues'
    formula rather than a quaternion."""
    K = skew(axis)
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


class TestFileRoundTripProperty:
    @pytest.mark.parametrize("regime", list(ANGLES))
    @given(data=st.data())
    def test_save_load_is_bit_equal(self, tmp_path_factory, regime, data):
        turns = data.draw(st.lists(st.tuples(unit_axes, ANGLES[regime]),
                                   min_size=1, max_size=4))
        logs = data.draw(st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
                                            st.floats(-2.0, 2.0)),
                                  min_size=1, max_size=3))
        R = np.stack([rodrigues(axis, angle) for axis, angle in turns])
        U = spd2_exp(np.array([[[a, b], [b, c]] for a, b, c in logs]))
        rep = ShapeRep(R, U, "h")
        path = tmp_path_factory.mktemp("rep") / "rep.json"
        rep.save(path)
        back = ShapeRep.load(path)
        assert np.array_equal(back.quaternions, rep.quaternions)
        assert np.array_equal(back.log_stretches, rep.log_stretches)
        assert back.content_hash() == rep.content_hash()
        assert np.max(np.abs(back.rotations - R)) <= ROTATION_EPS


class TestTangentRefusals:
    def test_non_symmetric_stretch_part_refused(self):
        stretch = np.zeros((4, 2, 2))
        stretch[2, 0, 1] = 0.5
        with pytest.raises(ValueError, match=r"^stretch part of triangle 2 is not "
                                             r"symmetric: X12 = 0.5, X21 = 0$"):
            TangentRep(np.zeros((3, 3)), stretch, "h")

    def test_stretch_part_of_other_shape_refused(self):
        with pytest.raises(ValueError,
                           match=r"^stretch_part must have shape \(m, 2, 2\)$"):
            TangentRep(np.zeros((3, 3)), np.zeros((4, 3)), "h")

    @pytest.mark.parametrize("make, sizes", [
        (lambda base: TangentRep(np.full((1, 3), 0.1), np.full((1, 2, 2), 0.1),
                                 base.content_hash()),
         "(1 edges, 1 triangles)"),
        (lambda base: TangentRep._from_coordinates(
            np.zeros(3 * base.n_edges + 3 * base.n_triangles + 3), base.n_edges,
            base.content_hash()),
         "(120 edges, 81 triangles)"),
    ], ids=["one_edge_one_triangle", "one_triangle_more"])
    def test_exp_refuses_a_tangent_sized_for_another_shape(self, deformed_reps, make,
                                                          sizes):
        base = deformed_reps[0]
        with pytest.raises(ReferenceMismatchError,
                           match=rf"^tangent vector sized {re.escape(sizes)} does not "
                                 r"fit the base shape \(120, 80\)$"):
            rep_exp(base, make(base))


#: A shape of two edges and three triangles, the base of the tangent vectors
#: drawn below.
EXP_BASE = ShapeRep(so3_exp(np.array([[0.3, -0.2, 0.1], [1.0, 0.5, -2.0]])),
                    spd2_exp(np.array([[[0.2, 0.1], [0.1, -0.3]],
                                       [[0.0, 0.0], [0.0, 0.0]],
                                       [[-1.0, 0.4], [0.4, 0.7]]])),
                    "h")
coordinate = st.floats(-2.0, 2.0)


class TestExpFileRoundTripProperty:
    """A tangent vector whose stretch part is not symmetric is refused; any
    other leads by ``rep_exp`` to a shape whose file reloads bit for bit."""

    @given(rot=st.lists(st.tuples(*3 * [st.floats(-1.0, 1.0)]), min_size=2, max_size=2),
           stretch=st.lists(st.tuples(*4 * [coordinate], st.booleans()),
                            min_size=3, max_size=3))
    @example(rot=[(0.0, 0.0, 0.0)] * 2,
             stretch=[(0.0, 0.5, -0.5, 0.0, False)] + [(0.0, 0.0, 0.0, 0.0, True)] * 2)
    def test_accepted_tangent_reloads_bit_equal(self, tmp_path_factory, rot, stretch):
        X = np.array([[[a, b], [b if symmetric else c, d]]
                      for a, b, c, d, symmetric in stretch])
        try:
            v = TangentRep(np.array(rot), X, EXP_BASE.content_hash())
        except ValueError:
            assert not np.array_equal(X, np.swapaxes(X, 1, 2))
            return
        shape = rep_exp(EXP_BASE, v)
        path = tmp_path_factory.mktemp("exp") / "shape.json"
        shape.save(path)
        back = ShapeRep.load(path)
        assert np.array_equal(back.quaternions, shape.quaternions)
        assert np.array_equal(back.log_stretches, shape.log_stretches)
        assert back.content_hash() == shape.content_hash()


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
