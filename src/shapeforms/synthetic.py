"""Seeded generators for synthetic test and demo geometry.

All generators are deterministic: the same arguments (and seed, where one
is taken) produce byte-identical meshes. Shapes come in matching
combinatorics per family so they can share one reference.
"""

import numpy as np

from .liegroups import so3_exp
from .mesh import TriangleMesh

_GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def icosahedron():
    """Unit icosahedron (12 vertices, 20 triangles)."""
    a, b = 1.0, _GOLDEN
    verts = np.array(
        [
            (-a, b, 0), (a, b, 0), (-a, -b, 0), (a, -b, 0),
            (0, -a, b), (0, a, b), (0, -a, -b), (0, a, -b),
            (b, 0, -a), (b, 0, a), (-b, 0, -a), (-b, 0, a),
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts[0])
    faces = np.array(
        [
            (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
            (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
            (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
            (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
        ],
        dtype=np.int64,
    )
    return TriangleMesh(verts, faces)


def icosphere(subdivisions=2, radius=1.0):
    """Subdivided icosahedron projected to a sphere.

    Triangle counts: 20 * 4**subdivisions (0 -> 20, 1 -> 80, 2 -> 320,
    3 -> 1280, ...).
    """
    base = icosahedron()
    verts = [tuple(v) for v in base.vertices]
    faces = base.triangles.tolist()
    for _ in range(subdivisions):
        midpoint = {}
        new_faces = []

        def mid(i, j):
            key = (min(i, j), max(i, j))
            if key not in midpoint:
                p = np.array(verts[i]) + np.array(verts[j])
                p /= np.linalg.norm(p)
                midpoint[key] = len(verts)
                verts.append(tuple(p))
            return midpoint[key]

        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    vertices = np.array(verts) * radius
    return TriangleMesh(vertices, np.array(faces, dtype=np.int64))


def add_radial_bump(mesh, direction, amplitude, width):
    """Displace vertices radially by a Gaussian bump centered at ``direction``.

    ``width`` is the angular standard deviation in radians; the bump decays
    with the angle between a vertex direction and ``direction``.
    """
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    radial = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1, keepdims=True)
    angle = np.arccos(np.clip(radial @ direction, -1.0, 1.0))
    offset = amplitude * np.exp(-((angle / width) ** 2))
    return TriangleMesh(mesh.vertices + offset[:, None] * radial, mesh.triangles)


def ellipsoid_cohort(
    count,
    seed,
    subdivisions=2,
    base_axes=(1.0, 0.85, 0.7),
    axis_jitter=0.05,
    wave_amplitude=0.01,
    n_waves=3,
    bump_amplitude=None,
    bump_direction=(1.0, 0.7, 0.4),
    bump_width=0.5,
):
    """Family of jittered ellipsoids with shared combinatorics.

    Each member combines per-axis jitter with a few low-frequency
    displacement waves, so a cohort spans many genuine modes of variation.
    With ``bump_amplitude = (lo, hi)`` every member additionally carries a
    localized radial bump with a uniformly drawn amplitude, the
    discriminative trait used in the classification experiments.
    """
    rng = np.random.default_rng(seed)
    sphere = icosphere(subdivisions)
    meshes = []
    for _ in range(count):
        axes = np.asarray(base_axes) * (1.0 + axis_jitter * rng.normal(size=3))
        v = sphere.vertices * axes
        for _ in range(n_waves):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            out_axis = rng.normal(size=3)
            out_axis /= np.linalg.norm(out_axis)
            amp = wave_amplitude * rng.uniform(0.3, 1.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            v = v + amp * np.sin(
                2.0 * np.pi * 0.8 * (v @ direction) + phase
            )[:, None] * out_axis
        mesh = TriangleMesh(v, sphere.triangles)
        if bump_amplitude is not None:
            amp = rng.uniform(*bump_amplitude)
            mesh = add_radial_bump(mesh, bump_direction, amp, bump_width)
        meshes.append(mesh)
    return meshes


def _outward(mesh, inside=np.zeros((1, 3))):
    """``mesh`` with its triangles reversed if most of their normals point
    towards the nearest of the points ``inside`` ``(k, 3)``, the origin by
    default."""
    centers = mesh.vertices[mesh.triangles].mean(axis=1)
    nearest = inside[np.argmin(
        np.linalg.norm(centers[:, None, :] - inside[None, :, :], axis=2), axis=1
    )]
    outward = np.einsum("ij,ij->i", mesh.triangle_normals(), centers - nearest)
    if np.mean(outward > 0) < 0.5:
        return TriangleMesh(mesh.vertices, mesh.triangles[:, [0, 2, 1]])
    return mesh


def _tube_from_centerline(points, radius, n_around):
    """Open tube around a polyline using parallel-transport frames, its
    normals pointing away from the centerline."""
    points = np.asarray(points, dtype=float)
    k = points.shape[0]
    tangents = np.gradient(points, axis=0)
    tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)

    # Parallel transport an initial normal along the centerline.
    normal = np.array([1.0, 0.0, 0.0])
    normal = normal - np.dot(normal, tangents[0]) * tangents[0]
    if np.linalg.norm(normal) < 1e-8:
        normal = np.array([0.0, 1.0, 0.0])
        normal = normal - np.dot(normal, tangents[0]) * tangents[0]
    normal /= np.linalg.norm(normal)

    frames = []
    for i in range(k):
        if i > 0:
            normal = normal - np.dot(normal, tangents[i]) * tangents[i]
            normal /= np.linalg.norm(normal)
        binormal = np.cross(tangents[i], normal)
        frames.append((normal.copy(), binormal))

    thetas = np.linspace(0.0, 2.0 * np.pi, n_around, endpoint=False)
    vertices = np.empty((k * n_around, 3))
    for i, ((n, b), c) in enumerate(zip(frames, points)):
        ring = c + radius * (np.outer(np.cos(thetas), n) + np.outer(np.sin(thetas), b))
        vertices[i * n_around : (i + 1) * n_around] = ring

    faces = []
    for i in range(k - 1):
        for j in range(n_around):
            a = i * n_around + j
            b = i * n_around + (j + 1) % n_around
            c = (i + 1) * n_around + j
            d = (i + 1) * n_around + (j + 1) % n_around
            faces.append((a, b, d))
            faces.append((a, d, c))
    return _outward(TriangleMesh(vertices, np.array(faces, dtype=np.int64)), points)


def pipe_pair(n_along=50, n_around=12, radius=0.5, length=10.0,
              helix_radius=1.5, helix_turns=2.5, helix_height=6.0):
    """Cylindrical and helical tube with identical combinatorics.

    Mirrors the qualitative large-deformation pair used to probe geodesic
    interpolation and the relative transition-rotation diagnostic.
    """
    t = np.linspace(0.0, 1.0, n_along + 1)
    straight = np.stack(
        [np.zeros_like(t), np.zeros_like(t), length * t], axis=1
    )
    angle = 2.0 * np.pi * helix_turns * t
    helix = np.stack(
        [helix_radius * np.cos(angle), helix_radius * np.sin(angle), helix_height * t],
        axis=1,
    )
    cylinder = _tube_from_centerline(straight, radius, n_around)
    helical = _tube_from_centerline(helix, radius, n_around)
    return cylinder, helical


def cylinder_patch(n_u=20, n_v=30, radius=1.0, height=2.0, wedge=1.5 * np.pi):
    """Open developable cylinder patch (a seam keeps it simply connected)."""
    us = np.linspace(0.0, height, n_u + 1)
    vs = np.linspace(0.0, wedge, n_v + 1)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    vertices = np.stack(
        [radius * np.cos(vv), radius * np.sin(vv), uu], axis=-1
    ).reshape(-1, 3)

    faces = []
    for i in range(n_u):
        for j in range(n_v):
            a = i * (n_v + 1) + j
            b = a + 1
            c = a + (n_v + 1)
            d = c + 1
            faces.append((a, d, b))
            faces.append((a, c, d))
    return TriangleMesh(vertices, np.array(faces, dtype=np.int64))


def _capped_rings(phis, n_around, radius):
    """Vertices and triangles of a sphere of ``radius`` around the +z pole
    out to the polar angles ``phis``: the pole, a ring of ``n_around``
    points at each angle, the fan of triangles around the pole and a strip
    of two triangles a quad between consecutive rings."""
    vertices = [np.array([0.0, 0.0, radius])]
    for phi in phis:
        for j in range(n_around):
            theta = 2.0 * np.pi * j / n_around
            vertices.append(
                radius
                * np.array(
                    [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)]
                )
            )
    faces = [(0, 1 + j, 1 + (j + 1) % n_around) for j in range(n_around)]
    for i in range(len(phis) - 1):
        base = 1 + i * n_around
        nxt = base + n_around
        for j in range(n_around):
            a = base + j
            b = base + (j + 1) % n_around
            c = nxt + j
            d = nxt + (j + 1) % n_around
            faces.append((a, c, d))
            faces.append((a, d, b))
    return vertices, faces


def hemisphere_patch(n_rings=10, n_around=24, radius=1.0, cap_angle=0.45 * np.pi):
    """Spherical cap around the +z pole, open along its boundary ring."""
    phis = [cap_angle * i / n_rings for i in range(1, n_rings + 1)]
    vertices, faces = _capped_rings(phis, n_around, radius)
    return _outward(TriangleMesh(np.array(vertices), np.array(faces, dtype=np.int64)))


def uv_sphere(n_rings=33, n_segments=32, radius=1.0):
    """Latitude/longitude sphere with pole fans.

    Triangle count is ``2 * n_segments * (n_rings - 1)``; the defaults give
    2048 triangles.
    """
    phis = [np.pi * i / n_rings for i in range(1, n_rings)]
    vertices, faces = _capped_rings(phis, n_segments, radius)
    south = len(vertices)
    vertices.append(np.array([0.0, 0.0, -radius]))
    last = 1 + (n_rings - 2) * n_segments
    for j in range(n_segments):
        faces.append((south, last + (j + 1) % n_segments, last + j))
    return _outward(TriangleMesh(np.array(vertices), np.array(faces, dtype=np.int64)))


def blob(seed=0, n_rings=33, n_segments=32, axes=(1.7, 0.9, 0.8), n_bumps=6,
         bump_amplitude=0.12, bump_width=0.5):
    """Bone-like closed blob: stretched sphere with smooth radial bumps."""
    rng = np.random.default_rng(seed)
    sphere = uv_sphere(n_rings, n_segments)
    radial = sphere.vertices / np.linalg.norm(sphere.vertices, axis=1, keepdims=True)
    offset = np.zeros(sphere.n_vertices)
    for _ in range(n_bumps):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        amp = bump_amplitude * rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
        width = bump_width * rng.uniform(0.8, 1.2)
        angle = np.arccos(np.clip(radial @ direction, -1.0, 1.0))
        offset += amp * np.exp(-((angle / width) ** 2))
    vertices = sphere.vertices * (1.0 + offset[:, None]) * np.asarray(axes)
    return TriangleMesh(vertices, sphere.triangles)


def smooth_deformation(mesh, seed, stretch=0.15, wave_amplitude=0.08, n_waves=3,
                       rotate=True):
    """Random smooth warp of ``mesh``: mild affine map plus low-frequency waves.

    Amplitudes are kept small enough that the warp stays an
    orientation-preserving immersion for the bundled generators.
    """
    rng = np.random.default_rng(seed)
    scale = mesh.bbox_diagonal
    v = mesh.vertices.copy()

    A = np.diag(1.0 + stretch * rng.uniform(-1.0, 1.0, size=3))
    if rotate:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        A = so3_exp(axis * rng.uniform(0.0, np.pi / 3)) @ A
    v = v @ A.T

    for _ in range(n_waves):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction) * scale
        out_axis = rng.normal(size=3)
        out_axis /= np.linalg.norm(out_axis)
        amp = wave_amplitude * scale * rng.uniform(0.3, 1.0) / n_waves
        phase = rng.uniform(0.0, 2.0 * np.pi)
        v = v + amp * np.sin(2.0 * np.pi * (v @ direction) + phase)[:, None] * out_axis
    return TriangleMesh(v, mesh.triangles)
