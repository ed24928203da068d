import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shapeforms.errors import (
    DegenerateGeometryError,
    MeshFormatError,
    MeshTopologyError,
)
from shapeforms.liegroups import so3_exp
from shapeforms.mesh import (
    DEGENERATE_AREA_FACTOR,
    TriangleMesh,
    _dual_edges,
    _integers,
    load_mesh,
    save_mesh,
    unique_edges,
)
from shapeforms.reference import build_reference, deformation_gradients
from shapeforms.synthetic import cylinder_patch, icosphere, smooth_deformation

from helpers import edge_index


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

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_vertex_refused(self, value):
        vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, value, 0.0]])
        with pytest.raises(DegenerateGeometryError,
                           match=rf"^vertex 2 is not finite: \[0\.0, {value}, 0\.0\]$"):
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

    @pytest.mark.parametrize("seed", range(24))
    def test_directed_edge_rule_matches_directed_keys(self, seed):
        # Drop, reverse and repeat triangles of a closed mesh: the one key
        # sort refuses the list exactly when a directed edge repeats.
        rng = np.random.default_rng(seed)
        tri = icosphere(1).triangles
        tri = tri[rng.random(len(tri)) < rng.choice([0.7, 1.0])]
        if seed % 3 == 0:
            tri = tri[:, ::-1]
        flip = rng.choice(len(tri), size=rng.integers(0, 3), replace=False)
        tri[flip] = tri[flip, ::-1]
        extra = tri[rng.choice(len(tri), size=rng.integers(0, 2))]
        tri = np.concatenate((tri, extra[:, :: rng.choice([1, -1])]))
        directed = np.concatenate((tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]))
        keys = directed[:, 0] * 42 + directed[:, 1]
        if np.unique(keys).size == keys.size:
            _dual_edges(tri, 42)
        else:
            with pytest.raises(MeshTopologyError, match="duplicated directed edge"):
                _dual_edges(tri, 42)

    @pytest.mark.parametrize("mesh", [icosphere(2), cylinder_patch(n_u=8, n_v=12)],
                             ids=["icosphere-2", "cylinder-patch"])
    def test_unique_edges_are_the_sorted_rows(self, mesh):
        tri = mesh.triangles
        rows = np.sort(np.concatenate((tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]])),
                       axis=1)
        assert_bit_equal(unique_edges(tri), np.unique(rows, axis=0))

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

    @pytest.mark.parametrize("name, text", [
        ("tri.obj", "v 0 0 0\nv 1 0 0\nv 0 inf 0\nf 1 2 3\n"),
        ("tri.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 inf 0\n3 0 1 2\n"),
        ("tri.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nv nan 0 0\nf 1 2 3\n"),
    ], ids=["obj", "off", "obj_unused_nan"])
    def test_non_finite_vertex_refused(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(DegenerateGeometryError,
                           match=rf"^{re.escape(str(path))}: vertex \d is not finite"):
            load_mesh(path)

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

    def test_unknown_suffix_rejected(self, tmp_path, tetrahedron):
        path = tmp_path / "tet.stl"
        with pytest.raises(MeshFormatError, match="cannot infer format from suffix"):
            save_mesh(tetrahedron, path)
        assert not path.exists()
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        with pytest.raises(MeshFormatError, match="cannot infer format from suffix"):
            load_mesh(path)

    def test_upper_case_suffix(self, tmp_path, tetrahedron):
        path = tmp_path / "TET.OBJ"
        save_mesh(tetrahedron, path)
        assert path.read_text().startswith("v ")
        back = load_mesh(path)
        assert np.array_equal(back.vertices, tetrahedron.vertices)
        assert np.array_equal(back.triangles, tetrahedron.triangles)

    def test_obj_comments_and_ignored_keywords(self, tmp_path):
        path = tmp_path / "extras.obj"
        path.write_text(
            "# exported mesh\no triangle\ng group\ns off\n"
            "v 0 0 0\nv 1 0 0\n  # indented comment\nv 0 1 0\n"
            "vn 0 0 1\nvt 0 0\n\nf 1/1/1 2/2/1 3/3/1\n"
        )
        mesh = load_mesh(path)
        assert mesh.n_vertices == 3
        assert mesh.triangles.tolist() == [[0, 1, 2]]

    @pytest.mark.parametrize(
        "vertex_line, message",
        [("v 0 x 0", "bad coordinate"), ("v 0 1", "vertex needs 3 coordinates")],
        ids=["bad-coordinate", "two-coordinates"],
    )
    def test_obj_bad_vertex_line_number(self, tmp_path, vertex_line, message):
        path = tmp_path / "bad.obj"
        path.write_text(f"v 0 0 0\n# comment\nv 1 0 0\n{vertex_line}\nf 1 2 3\n")
        with pytest.raises(MeshFormatError, match=message) as excinfo:
            load_mesh(path)
        assert excinfo.value.line == 4

    def test_obj_without_vertices_rejected(self, tmp_path):
        path = tmp_path / "faces.obj"
        path.write_text("# no vertices\nf 1 2 3\n")
        with pytest.raises(MeshFormatError, match="no vertices found") as excinfo:
            load_mesh(path)
        assert excinfo.value.line is None

    def test_off_vertex_split_over_lines(self, tmp_path):
        path = tmp_path / "split.off"
        path.write_text("OFF\n3 1 0\n0 0\n0 1 0 0\n0 1 0\n3 0 1 2\n")
        mesh = load_mesh(path)
        assert mesh.vertices.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]

    def test_off_bad_coordinate_line_number(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 y 0\n3 0 1 2\n")
        with pytest.raises(MeshFormatError, match="bad vertex coordinate") as excinfo:
            load_mesh(path)
        assert excinfo.value.line == 5

    def test_off_only_comments_is_empty(self, tmp_path):
        path = tmp_path / "comments.off"
        path.write_text("# nothing\n   # but comments\n\n")
        with pytest.raises(MeshFormatError, match="empty file"):
            load_mesh(path)

    @pytest.mark.parametrize(
        "name, text, line",
        [("big.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999999\n", 4),
         ("big.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999999\n",
          6),
         ("negative.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n"
          "3 0 1 -99999999999999999999999\n", 6)],
        ids=["obj", "off", "off-negative"],
    )
    def test_face_index_beyond_64_bits(self, tmp_path, name, text, line):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(MeshFormatError, match="out of range") as excinfo:
            load_mesh(path)
        assert excinfo.value.line == line

    @pytest.mark.parametrize("suffix", [".obj", ".off"])
    def test_non_utf8_byte_rejected(self, tmp_path, suffix):
        path = tmp_path / f"latin1{suffix}"
        path.write_bytes(b"# caf\xe9\nv 0 0 0\n")
        with pytest.raises(MeshFormatError, match="can't decode") as excinfo:
            load_mesh(path)
        assert excinfo.value.path == str(path)
        assert str(path) in str(excinfo.value)

    @pytest.mark.parametrize("counts", ["-1 1 0", "3 -2 0"])
    def test_off_negative_count_rejected(self, tmp_path, counts):
        path = tmp_path / "negative.off"
        path.write_text(f"OFF\n{counts}\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        with pytest.raises(MeshFormatError, match="negative count") as excinfo:
            load_mesh(path)
        assert excinfo.value.line == 2

    @pytest.mark.parametrize(
        "counts, needed",
        [("3 2 0", 17), ("4 1 0", 16), (f"{10**15} 1 0", 3 * 10**15 + 4),
         (f"3 {10**18} 0", 9 + 4 * 10**18)],
        ids=["one-face-short", "one-vertex-short", "huge-vertex-count", "huge-face-count"],
    )
    def test_off_counts_beyond_file_rejected(self, tmp_path, monkeypatch, counts, needed):
        # The counts are refused before any array is sized by them.
        import shapeforms.mesh as mesh_module

        def no_empty(*args, **kwargs):
            raise AssertionError("np.empty called")

        path = tmp_path / "short.off"
        path.write_text(f"OFF\n{counts}\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        monkeypatch.setattr(mesh_module.np, "empty", no_empty)
        with pytest.raises(MeshFormatError, match=f"need {needed} tokens, the file "
                                                  "holds 13") as excinfo:
            load_mesh(path)
        assert excinfo.value.line == 2

    def test_vertex_scalars_rejected_for_off(self, tmp_path, tetrahedron):
        path = tmp_path / "scal.off"
        with pytest.raises(MeshFormatError, match="only supported for OBJ"):
            save_mesh(tetrahedron, path, vertex_scalars=np.arange(4.0))
        assert not path.exists()

    def test_vertex_scalars_wrong_length_rejected(self, tmp_path, tetrahedron):
        path = tmp_path / "scal.obj"
        with pytest.raises(MeshFormatError, match="expected 4 vertex scalars"):
            save_mesh(tetrahedron, path, vertex_scalars=np.arange(3.0))
        assert not path.exists()


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
        assert_bit_equal(ref.neighbor_counts, counts)
        assert_bit_equal(ref.spanning_tree, tree)
        assert_bit_equal(ref.tree_depths, depths)
        assert_bit_equal(
            ref.tree_edge_indices,
            np.searchsorted(inner_edges[:, 0] * m + inner_edges[:, 1],
                            tree.min(axis=1) * m + tree.max(axis=1)),
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
        depth = {0: 0}
        for (parent, child), d in zip(tree, ref.tree_depths):
            depth[int(child)] = depth[int(parent)] + 1
            assert d == depth[int(child)]
        assert np.all(np.diff(ref.tree_depths) >= 0)

    def test_edge_index(self):
        ref = build_reference(icosphere(1))
        for e, (i, j) in enumerate(ref.inner_edges):
            assert edge_index(ref, int(i), int(j)) == e
            assert edge_index(ref, int(j), int(i)) == e
        i = 0
        adjacent = ref.inner_edges[(ref.inner_edges == i).any(axis=1)].ravel()
        non_adjacent = next(j for j in range(1, ref.n_triangles) if j not in adjacent)
        for pair in ((i, non_adjacent), (i, i), (-1, 0), (0, ref.n_triangles)):
            with pytest.raises(MeshTopologyError, match="do not share an edge"):
                edge_index(ref, *pair)

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


class TestGradInverses:
    """The closed-form inverses of ``[e1, e2, n]`` on single triangles, from
    equilateral down to needles at the degenerate-area threshold, at any
    scale, position and orientation. The bounds scale with the condition
    number of the dimensionless basis ``[e1 / L, e2 / L, n]``, ``L`` the
    bounding-box diagonal: that is what limits any inverse in floating
    point, ``np.linalg.inv`` included."""

    @settings(max_examples=300)
    @given(
        st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
        st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
        st.floats(-3.0, 3.0),
        st.floats(np.log10(DEGENERATE_AREA_FACTOR), 0.0),
        st.floats(-0.5, 1.5),
    )
    def test_inverse_of_edge_basis(self, axis_angle, offset, log_scale, log_aspect,
                                   shift):
        frame = so3_exp(np.array(axis_angle))
        along, across = frame[:, 0], frame[:, 1]
        corners = np.array([np.zeros(3), along, shift * along + 10**log_aspect * across])
        try:
            mesh = TriangleMesh(np.array(offset) + 10**log_scale * corners, [[0, 1, 2]])
        except DegenerateGeometryError:
            assume(False)
        ref = build_reference(mesh)
        e1, e2 = mesh.edge_vectors()
        cross = np.cross(e1, e2)[0]
        basis = np.stack((e1[0], e2[0], cross / np.linalg.norm(cross)), axis=-1)
        H = ref.grad_inverses[0]
        units = np.array([mesh.bbox_diagonal, mesh.bbox_diagonal, 1.0])
        bound = 8.0 * np.finfo(float).eps * np.linalg.cond(basis / units)

        assert np.abs((units[:, None] * H) @ (basis / units) - np.eye(3)).max() <= bound
        inverse = units[:, None] * np.linalg.inv(basis)
        assert np.abs(units[:, None] * H - inverse).max() <= bound * np.abs(inverse).max()
        identity = deformation_gradients(ref, mesh)[0]
        assert np.abs(identity - np.eye(3)).max() <= max(1e-12, bound)


def _reference_text(mesh, obj, vertex_scalars=None):
    """The mesh text written line by line, as the writer once did."""
    tails = ([""] * mesh.n_vertices if vertex_scalars is None
             else [f" {s:.17g}" for s in vertex_scalars.tolist()])
    prefix, face, base = ("v ", "f", 1) if obj else ("", "3", 0)
    lines = [] if obj else [f"OFF\n{mesh.n_vertices} {mesh.n_triangles} 0\n"]
    for (x, y, z), tail in zip(mesh.vertices.tolist(), tails):
        lines.append(f"{prefix}{x:.17g} {y:.17g} {z:.17g}{tail}\n")
    for a, b, c in (mesh.triangles + base).tolist():
        lines.append(f"{face} {a} {b} {c}\n")
    return "".join(lines)


# Whitespace that str.split() separates tokens by, besides the line break.
_SEPARATORS = [" ", "  ", "\t", " \t", "\x0b", "\x0c", "\xa0", " "]
_OBJ_EXTRAS = ["# comment", "#v 9 9 9", "   # indented comment", "", "  \t ", "vn 0 0 1",
               "vt 0.5 0.5", "o part", "g group", "s off", "usemtl skin", "vv 1 2 3",
               "fo 1 2 3"]


@pytest.fixture(scope="module")
def sphere_20k():
    """A deformed 20,480-triangle sphere."""
    return smooth_deformation(icosphere(5), seed=4)


class TestBulkReader:
    """The readers convert all tokens at once; every rule of the README's
    "File formats" paragraph holds for texts built from known arrays."""

    @staticmethod
    def _mesh(offsets):
        sphere = icosphere(0)
        return sphere._with_vertices(sphere.vertices + np.reshape(offsets, (-1, 3)))

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(-0.01, 0.01), min_size=36, max_size=36), st.data())
    def test_obj_text_gives_its_arrays(self, tmp_path_factory, offsets, data):
        mesh = self._mesh(offsets)

        def sep():
            return data.draw(st.sampled_from(_SEPARATORS))

        extra = st.lists(st.sampled_from(_OBJ_EXTRAS), max_size=2)
        lines = []
        for x, y, z in mesh.vertices.tolist():
            lines += data.draw(extra)
            lead = data.draw(st.sampled_from(["", " ", "\t"]))
            tail = data.draw(st.lists(st.sampled_from(["1", "0.5", "-2e-3", "v", "f"]),
                                      max_size=3))
            lines.append(lead + sep().join(["v", repr(x), f"{y:.17g}", repr(z), *tail]))
        for a, b, c in (mesh.triangles + 1).tolist():
            lines += data.draw(extra)
            corner = data.draw(st.sampled_from(["{}", "{}/{}", "{}//{}", "{}/{}/{}"]))
            lines.append(sep().join(["f"] + [corner.format(k, k, k) for k in (a, b, c)]))
        newline = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        path = tmp_path_factory.mktemp("obj") / "mesh.obj"
        path.write_bytes(newline.join(lines).encode("utf-8"))

        back = load_mesh(path)
        assert_bit_equal(back.vertices, mesh.vertices)
        assert_bit_equal(back.triangles, mesh.triangles)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(-0.01, 0.01), min_size=36, max_size=36), st.data())
    def test_off_text_gives_its_arrays(self, tmp_path_factory, offsets, data):
        mesh = self._mesh(offsets)
        tokens = [str(mesh.n_vertices), str(mesh.n_triangles), "30"]
        tokens += [repr(x) for x in mesh.vertices.ravel().tolist()]
        for row in mesh.triangles.tolist():
            tokens += ["3"] + [str(k) for k in row]
        # Tokens wrap across lines, and comments run to the end of a line.
        gaps = st.sampled_from(_SEPARATORS + ["\n", " # note\n", "#\n", "\n\n# # x\n"])
        text = data.draw(st.sampled_from(["OFF\n", "off ", "# header\nOFF\n", ""]))
        text += "".join(token + data.draw(gaps) for token in tokens)
        newline = data.draw(st.sampled_from(["\n", "\r\n"]))
        path = tmp_path_factory.mktemp("off") / "mesh.off"
        path.write_bytes(text.replace("\n", newline).encode("utf-8"))

        back = load_mesh(path)
        assert_bit_equal(back.vertices, mesh.vertices)
        assert_bit_equal(back.triangles, mesh.triangles)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(
        st.integers(0, 10**18 - 1).map(str),
        st.integers(-2**70, 2**70).map(str),
        st.sampled_from(["007", "+3", "-0", "1_000", "٣", "", "1.0", "x", "9" * 18,
                         "9" * 19, str(2**63 - 1), str(2**63), str(-2**63)])),
        max_size=6))
    def test_integers_are_those_of_int(self, tokens):
        # Either error sends the reader to its scan, so either may come first.
        try:
            expected = np.array([int(t) for t in tokens], dtype=np.int64)
        except (ValueError, OverflowError):
            with pytest.raises((ValueError, OverflowError)):
                _integers(tokens)
        else:
            assert_bit_equal(_integers(tokens), expected)

    @pytest.mark.parametrize(
        "suffix, line, token, message",
        [(".obj", 25_000, 2, "bad face index 'x'"),
         (".obj", 5_000, 3, "bad coordinate: could not convert string to float: 'x'"),
         (".off", 25_000, 2, "bad face index"),
         (".off", 5_000, 1, "bad vertex coordinate")],
        ids=["obj-face", "obj-vertex", "off-face", "off-vertex"])
    def test_bad_token_deep_in_a_large_file(self, tmp_path, sphere_20k, suffix, line,
                                            token, message):
        path = tmp_path / f"big{suffix}"
        save_mesh(sphere_20k, path)
        lines = path.read_text().split("\n")
        parts = lines[line - 1].split(" ")
        parts[token] = "x"
        lines[line - 1] = " ".join(parts)
        path.write_text("\n".join(lines))
        with pytest.raises(MeshFormatError, match=f"^{re.escape(str(path))}:{line}: "
                                                  f"{re.escape(message)}$"):
            load_mesh(path)

    @pytest.mark.parametrize("faces, line, corners",
                             [("f 1 2\nf 1 2 3 4", 4, 2), ("f 1 2 3 4\nf 1 2", 4, 4),
                              ("f 1 2 3\nf 1 2 3 f\nf 1 2", 5, 4)],
                             ids=["short-first", "long-first", "f-as-corner"])
    def test_face_lines_making_up_the_token_count(self, tmp_path, faces, line,
                                                  corners):
        # Four tokens a line on average, but not on every line.
        path = tmp_path / "uneven.obj"
        path.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{faces}\n")
        with pytest.raises(MeshFormatError, match=rf":{line}: only triangular faces "
                                                  rf"are supported \(got {corners} "):
            load_mesh(path)

    def test_obj_without_faces(self, tmp_path):
        path = tmp_path / "points.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\n")
        with pytest.raises(MeshTopologyError, match="mesh has no triangles"):
            load_mesh(path)

    @pytest.mark.parametrize("suffix, scalars", [(".obj", True), (".off", False)],
                             ids=["obj-with-scalars", "off"])
    def test_save_load_save_bytes(self, tmp_path, sphere_20k, suffix, scalars):
        mesh = sphere_20k
        assert mesh.n_triangles == 20_480
        values = (np.random.default_rng(0).normal(size=mesh.n_vertices)
                  if scalars else None)
        first, second = tmp_path / f"a{suffix}", tmp_path / f"b{suffix}"
        save_mesh(mesh, first, vertex_scalars=values)
        back = load_mesh(first)
        save_mesh(back, second, vertex_scalars=values)
        assert_bit_equal(back.vertices, mesh.vertices)
        assert_bit_equal(back.triangles, mesh.triangles)
        assert first.read_bytes() == second.read_bytes()
        assert first.read_text() == _reference_text(mesh, suffix == ".obj", values)


class TestValidatedTriangles:
    """Meshes built on a checked mesh's triangles skip the topology pass
    and keep the geometry check."""

    @pytest.fixture
    def refuse_dual_edges(self, monkeypatch):
        """Make every later ``_dual_edges`` call fail."""
        import shapeforms.mesh as mesh_module

        def refuse(*args):
            raise AssertionError("_dual_edges called")

        return lambda: monkeypatch.setattr(mesh_module, "_dual_edges", refuse)

    def test_transformed(self, tetrahedron, refuse_dual_edges):
        refuse_dual_edges()
        moved = tetrahedron.transformed(rotation=so3_exp(np.array([0.1, 0.2, 0.3])),
                                        translation=[1.0, 2.0, 3.0], scale=2.0)
        assert moved.triangles is tetrahedron.triangles
        assert not moved.vertices.flags.writeable

    def test_reconstruct(self, refuse_dual_edges):
        from shapeforms.reconstruction import reconstruct
        from shapeforms.representation import encode

        ref = build_reference(icosphere(2))
        rep, _ = encode(ref, smooth_deformation(ref.mesh, seed=1))
        refuse_dual_edges()
        mesh, report = reconstruct(ref, rep)
        assert report.converged
        assert mesh.triangles is ref.mesh.triangles

    def test_flatten(self, refuse_dual_edges):
        from shapeforms.flattening import flatten

        ref = build_reference(cylinder_patch(n_u=8, n_v=12))
        refuse_dual_edges()
        flat, report = flatten(ref)
        assert report.converged
        assert flat.triangles is ref.mesh.triangles

    def test_degenerate_vertices_refused(self, square, refuse_dual_edges):
        refuse_dual_edges()
        with pytest.raises(DegenerateGeometryError, match="triangle 0 has area 0 "):
            square.transformed(scale=[1.0, 0.0, 1.0])

    def test_non_finite_vertices_refused(self, square, refuse_dual_edges):
        # A reconstruction with NaN positions fails here, naming the vertex.
        refuse_dual_edges()
        vertices = np.array(square.vertices)
        vertices[3, 1] = np.nan
        with pytest.raises(DegenerateGeometryError, match="^vertex 3 is not finite: "):
            square._with_vertices(vertices)

    @pytest.mark.parametrize("shape", [(3, 3), (5, 3), (4, 2)])
    def test_other_vertex_count_refused(self, square, shape):
        with pytest.raises(MeshTopologyError, match=rf"vertices of shape \({shape[0]}, "):
            square._with_vertices(np.zeros(shape))
