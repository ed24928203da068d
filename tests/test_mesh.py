import numpy as np
import pytest

from shapeforms.errors import (
    DegenerateGeometryError,
    MeshFormatError,
    MeshTopologyError,
)
from shapeforms.liegroups import so3_exp
from shapeforms.mesh import TriangleMesh, load_mesh, save_mesh
from shapeforms.reference import build_reference, deformation_gradients
from shapeforms.synthetic import cylinder_patch, icosphere


@pytest.fixture
def square():
    """Flat unit square split into two triangles."""
    vertices = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
    )
    triangles = np.array([[0, 1, 2], [0, 2, 3]])
    return TriangleMesh(vertices, triangles)


@pytest.fixture
def tetrahedron():
    vertices = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.5, 0.4, 1.0]]
    )
    triangles = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [2, 0, 3]])
    return TriangleMesh(vertices, triangles)


class TestTriangleMesh:
    def test_basic_counts(self, tetrahedron):
        assert tetrahedron.n_vertices == 4
        assert tetrahedron.n_triangles == 4

    def test_index_out_of_range(self):
        with pytest.raises(MeshTopologyError):
            TriangleMesh(np.zeros((2, 3)), np.array([[0, 1, 2]]))

    def test_degenerate_triangle(self):
        vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(DegenerateGeometryError):
            TriangleMesh(vertices, np.array([[0, 1, 2]]))

    def test_inconsistent_winding(self):
        vertices = np.array(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
        )
        # Second triangle wound the wrong way: directed edge (0, 2) repeats.
        with pytest.raises(MeshTopologyError):
            TriangleMesh(vertices, np.array([[0, 1, 2], [0, 2, 3]][::-1] + [[0, 2, 3]]))

    def test_disconnected_dual_graph(self):
        vertices = np.array(
            [
                [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                [5.0, 0.0, 0.0], [6.0, 0.0, 0.0], [5.0, 1.0, 0.0],
            ]
        )
        with pytest.raises(MeshTopologyError, match="2 components"):
            TriangleMesh(vertices, np.array([[0, 1, 2], [3, 4, 5]]))

    @pytest.mark.parametrize("flip", [False, True], ids=["fan", "reversed-fan"])
    def test_edge_of_three_triangles_rejected(self, flip):
        # Three triangles on edge (0, 1): two of them traverse it the same way.
        vertices = np.array(
            [
                [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1.0, 0.0],
                [0.5, -1.0, 0.0], [0.5, 0.0, 1.0],
            ]
        )
        triangles = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
        if flip:
            triangles = triangles[:, ::-1]
        with pytest.raises(MeshTopologyError, match="duplicated directed edge"):
            TriangleMesh(vertices, triangles)

    def test_normals_unit(self, tetrahedron):
        normals = tetrahedron.triangle_normals()
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)


class TestMeshIO:
    def test_single_triangle_off(self, tmp_path):
        path = tmp_path / "tri.off"
        path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        mesh = load_mesh(path)
        assert mesh.n_triangles == 1
        ref = build_reference(mesh)
        assert ref.n_inner_edges == 0

    def test_tetrahedron_obj_roundtrip(self, tmp_path, tetrahedron):
        path = tmp_path / "tet.obj"
        save_mesh(tetrahedron, path)
        back = load_mesh(path)
        assert np.array_equal(back.triangles, tetrahedron.triangles)
        assert np.allclose(back.vertices, tetrahedron.vertices)
        ref = build_reference(back)
        assert back.n_vertices == 4
        assert back.n_triangles == 4
        assert ref.n_inner_edges == 6

    def test_obj_zero_index_rejected(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")
        with pytest.raises(MeshFormatError) as excinfo:
            load_mesh(path)
        assert excinfo.value.line == 4

    def test_obj_face_with_slashes(self, tmp_path):
        path = tmp_path / "slash.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1 2/2 3/3\n")
        mesh = load_mesh(path)
        assert mesh.n_triangles == 1

    def test_off_roundtrip(self, tmp_path, tetrahedron):
        path = tmp_path / "tet.off"
        save_mesh(tetrahedron, path)
        back = load_mesh(path)
        assert np.allclose(back.vertices, tetrahedron.vertices)

    def test_obj_scalar_column(self, tmp_path, tetrahedron):
        path = tmp_path / "scal.obj"
        save_mesh(tetrahedron, path, vertex_scalars=np.arange(4.0))
        text = path.read_text()
        assert text.splitlines()[1].split()[-1] == "1"

    def test_missing_file(self, tmp_path):
        with pytest.raises(MeshFormatError):
            load_mesh(tmp_path / "absent.obj")

    def test_obj_quad_face_rejected(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        with pytest.raises(MeshFormatError) as excinfo:
            load_mesh(path)
        assert excinfo.value.line == 5

    def test_off_with_comments(self, tmp_path):
        path = tmp_path / "comments.off"
        path.write_text(
            "OFF # header\n# a comment line\n3 1 0\n"
            "0 0 0  # origin\n1 0 0\n0 1 0\n3 0 1 2\n"
        )
        mesh = load_mesh(path)
        assert mesh.n_triangles == 1

    def test_off_quad_face_rejected(self, tmp_path):
        path = tmp_path / "quad.off"
        path.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
        with pytest.raises(MeshFormatError):
            load_mesh(path)

    def test_off_truncated_rejected(self, tmp_path):
        path = tmp_path / "short.off"
        path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n")
        with pytest.raises(MeshFormatError):
            load_mesh(path)

    def test_byte_identical_writes(self, tmp_path, tetrahedron):
        p1, p2 = tmp_path / "a.obj", tmp_path / "b.obj"
        save_mesh(tetrahedron, p1)
        save_mesh(tetrahedron, p2)
        assert p1.read_bytes() == p2.read_bytes()


def loop_inner_edges(mesh):
    """Inner edges and their shared vertices by a walk over sorted edge keys."""
    tri = mesh.triangles
    m = mesh.n_triangles
    nv = mesh.n_vertices
    corner = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]], axis=0)
    tri_ids = np.concatenate([np.arange(m)] * 3)
    lo = corner.min(axis=1)
    hi = corner.max(axis=1)
    keys = lo * nv + hi
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    tri_ids = tri_ids[order]
    lo, hi = lo[order], hi[order]

    pairs = []
    shared = []
    pos = 0
    total = keys.size
    while pos < total:
        end = pos + 1
        while end < total and keys[end] == keys[pos]:
            end += 1
        if end - pos == 2:
            a, b = int(tri_ids[pos]), int(tri_ids[pos + 1])
            pairs.append((min(a, b), max(a, b)))
            shared.append((int(lo[pos]), int(hi[pos])))
        pos = end
    if pairs:
        pairs = np.array(pairs, dtype=np.int64)
        shared = np.array(shared, dtype=np.int64)
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        return pairs[order], shared[order]
    return np.zeros((0, 2), dtype=np.int64), np.zeros((0, 2), dtype=np.int64)


def loop_neighbors(m, inner_edges):
    neighbors = [[] for _ in range(m)]
    for i, j in inner_edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    neighbors = tuple(np.array(sorted(n), dtype=np.int64) for n in neighbors)
    return neighbors, np.array([len(n) for n in neighbors], dtype=np.int64)


def loop_bfs_tree(m, neighbors, seed):
    """Breadth-first tree with a queue, neighbors visited in list order."""
    visited = np.zeros(m, dtype=bool)
    visited[seed] = True
    depth = [0] * m
    queue = [seed]
    edges = []
    head = 0
    while head < len(queue):
        current = queue[head]
        head += 1
        for nb in neighbors[current]:
            if not visited[nb]:
                visited[nb] = True
                depth[nb] = depth[current] + 1
                edges.append((current, int(nb)))
                queue.append(int(nb))
    assert visited.all()
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return edges, np.array(depth, dtype=np.int64)[edges[:, 1]]


def _permuted_icosphere():
    # Shuffled triangles give a visit order unlike the subdivision order.
    mesh = icosphere(2)
    order = np.random.default_rng(11).permutation(mesh.n_triangles)
    return TriangleMesh(mesh.vertices, mesh.triangles[order])


def _doubled_triangle():
    # Both sides of one triangle: the two triangles share all three edges.
    vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return TriangleMesh(vertices, np.array([[0, 1, 2], [0, 2, 1]]))


def assert_bit_equal(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


class TestReferenceMatchesLoops:
    @pytest.mark.parametrize(
        "make_mesh",
        [
            lambda: icosphere(3),
            lambda: cylinder_patch(n_u=8, n_v=12),
            lambda: TriangleMesh(
                np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                np.array([[0, 1, 2]]),
            ),
            _permuted_icosphere,
            _doubled_triangle,
        ],
        ids=["icosphere-3", "cylinder-patch", "single-triangle",
             "permuted-icosphere", "doubled-triangle"],
    )
    def test_adjacency_and_tree_bit_equal(self, make_mesh):
        mesh = make_mesh()
        ref = build_reference(mesh)
        m = mesh.n_triangles
        inner_edges, shared = loop_inner_edges(mesh)
        neighbors, counts = loop_neighbors(m, inner_edges)
        tree, depths = loop_bfs_tree(m, neighbors, seed=0)

        assert_bit_equal(ref.inner_edges, inner_edges)
        assert_bit_equal(ref.edge_shared_vertices, shared)
        assert_bit_equal(ref.edge_keys, inner_edges[:, 0] * m + inner_edges[:, 1])
        assert_bit_equal(ref.neighbor_counts, counts)
        assert_bit_equal(ref.spanning_tree, tree)
        assert_bit_equal(ref.tree_depths, depths)
        assert_bit_equal(
            ref.tree_edge_indices,
            np.searchsorted(ref.edge_keys, tree.min(axis=1) * m + tree.max(axis=1)),
        )


class TestReference:
    def test_square_single_inner_edge(self, square):
        ref = build_reference(square)
        assert ref.n_inner_edges == 1
        assert ref.inner_edges.tolist() == [[0, 1]]
        normals = square.triangle_normals()
        assert np.allclose(normals[0], normals[1])
        # Planar neighbors: frames differ by an in-plane rotation only.
        rel = ref.frames[0].T @ ref.frames[1]
        assert np.allclose(rel[2, :], [0.0, 0.0, 1.0], atol=1e-14)
        assert np.allclose(rel[:, 2], [0.0, 0.0, 1.0], atol=1e-14)

    def test_unit_area_edge_weight(self):
        # Two unit-area triangles: edge weight (1 + 1) / 3.
        vertices = np.array(
            [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [2.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
        )
        mesh = TriangleMesh(vertices, np.array([[0, 1, 2], [0, 2, 3]]))
        ref = build_reference(mesh)
        assert np.allclose(ref.tri_areas, 1.0)
        assert ref.edge_areas[0] == pytest.approx(2.0 / 3.0)

    def test_frame_orthonormality(self):
        mesh = icosphere(1)
        ref = build_reference(mesh)
        F = ref.frames
        gram = np.swapaxes(F, -1, -2) @ F
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12
        assert np.all(np.linalg.det(F) > 0)
        assert np.allclose(F[:, :, 2], mesh.triangle_normals(), atol=1e-12)

    def test_spanning_tree_covers_icosphere(self):
        mesh = icosphere(1)
        assert mesh.n_triangles == 80
        ref = build_reference(mesh)
        tree = ref.spanning_tree
        assert tree.shape == (79, 2)
        visited = {0}
        for parent, child in tree:
            assert parent in visited
            assert child not in visited
            visited.add(int(child))
        assert visited == set(range(80))

    def test_tree_edge_indices_and_depths(self):
        ref = build_reference(icosphere(2))
        tree = ref.spanning_tree
        pairs = ref.inner_edges[ref.tree_edge_indices]
        assert np.array_equal(pairs, np.sort(tree, axis=1))
        depth = {ref.seed_triangle: 0}
        for (parent, child), d in zip(tree, ref.tree_depths):
            depth[int(child)] = depth[int(parent)] + 1
            assert d == depth[int(child)]
        assert np.all(np.diff(ref.tree_depths) >= 0)

    def test_edge_index(self):
        ref = build_reference(icosphere(1))
        for e, (i, j) in enumerate(ref.inner_edges):
            assert ref.edge_index(int(i), int(j)) == e
            assert ref.edge_index(int(j), int(i)) == e
        i = 0
        adjacent = ref.inner_edges[(ref.inner_edges == i).any(axis=1)].ravel()
        non_adjacent = next(j for j in range(1, ref.n_triangles) if j not in adjacent)
        for pair in ((i, non_adjacent), (i, i), (-1, 0), (0, ref.n_triangles)):
            with pytest.raises(MeshTopologyError, match="do not share an edge"):
                ref.edge_index(*pair)

    def test_total_areas(self):
        ref = build_reference(icosphere(1))
        assert ref.total_area == pytest.approx(ref.tri_areas.sum())
        assert ref.total_edge_area == pytest.approx(ref.edge_areas.sum())

    def test_deterministic_rebuild(self):
        mesh = icosphere(1)
        r1 = build_reference(mesh)
        r2 = build_reference(mesh)
        assert np.array_equal(r1.spanning_tree, r2.spanning_tree)
        assert np.array_equal(r1.inner_edges, r2.inner_edges)
        assert r1.content_hash == r2.content_hash

    def test_closed_mesh_has_no_boundary(self):
        assert not build_reference(icosphere(1)).has_boundary

    def test_open_mesh_has_boundary(self, square):
        assert build_reference(square).has_boundary


class TestDeformationGradients:
    def test_identity(self):
        mesh = icosphere(1)
        ref = build_reference(mesh)
        D = deformation_gradients(ref, mesh)
        assert np.allclose(D, np.eye(3), atol=1e-12)

    def test_rigid_motion_gives_rotation(self):
        mesh = icosphere(1)
        ref = build_reference(mesh)
        R = so3_exp(np.array([0.3, -0.2, 0.9]))
        moved = mesh.transformed(rotation=R, translation=[2.0, -1.0, 0.5])
        D = deformation_gradients(ref, moved)
        assert np.max(np.abs(D - R)) < 1e-12

    def test_equivariance_under_rigid_motion(self):
        rng = np.random.default_rng(42)
        mesh = icosphere(1)
        ref = build_reference(mesh)
        deformed = mesh.transformed(scale=[1.3, 1.0, 0.8])
        D = deformation_gradients(ref, deformed)
        axis = rng.normal(size=3)
        R = so3_exp(axis / np.linalg.norm(axis) * 1.1)
        moved = deformed.transformed(rotation=R, translation=rng.normal(size=3))
        D_moved = deformation_gradients(ref, moved)
        assert np.max(np.abs(D_moved - R @ D)) < 1e-12

    def test_uniform_scaling_singular_values(self):
        mesh = icosphere(1)
        ref = build_reference(mesh)
        D = deformation_gradients(ref, mesh.transformed(scale=2.0))
        sv = np.linalg.svd(D, compute_uv=False)
        assert np.allclose(np.sort(sv, axis=1), [1.0, 2.0, 2.0], atol=1e-10)

    def test_combinatorics_mismatch(self):
        ref = build_reference(icosphere(1))
        other = icosphere(2)
        with pytest.raises(MeshTopologyError):
            deformation_gradients(ref, other)
