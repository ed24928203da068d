"""Output checks of the benchmark, computed apart from the library.

Every function here uses numpy only. The independent computations (Kabsch
alignment, the log-Euclidean mean, the reconstruction energy) are written
from their definitions rather than by calling shapeforms, so a fault in
the library cannot hide behind the check that is meant to catch it. Each
``check_*`` function raises :class:`CheckError` on a violated property.
"""

import numpy as np


#: Tolerances of the acceptance criteria each check stands for.
C1_RMS_REL = 1e-6  # round-trip RMS over the bounding-box diagonal
C1_MAX_ITERATIONS = 2  # integrable inputs solve in at most this many
C8_EDGE_REL = 1e-6  # relative change of any edge length when flattened
C8_RMS_REL = 1e-8  # chart RMS from the development, over the diagonal
C4_RISE_REL = 1e-12  # energy rise taken as rounding, not as an increase
FINAL_ENERGY_REL = 1e-9  # reported against recomputed final energy
C6_MEAN_ABS = 1e-10  # mean stretches against the log-Euclidean mean
C6_RESYNTHESIS_ABS = 1e-8  # re-synthesized shape against the original
COMPACTNESS_END_ABS = 1e-12  # distance of the last variance share from 1
C10_RISE_ABS = 1e-9  # generalization-error rise taken as rounding
C9_FLOOR = 0.9  # coefficient accuracy at share 0.1 must exceed this


class CheckError(AssertionError):
    """An output of the program violates a property the method must have."""


def require(condition, message):
    if not condition:
        raise CheckError(message)


def bbox_diagonal(points):
    points = np.asarray(points, dtype=float)
    return float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))


def kabsch_rms(a, b):
    """Vertex RMS between point sets ``a`` and ``b`` after the best proper
    rigid motion of ``a`` onto ``b`` (any dimension)."""
    P = np.asarray(a, dtype=float)
    Q = np.asarray(b, dtype=float)
    P = P - P.mean(axis=0)
    Q = Q - Q.mean(axis=0)
    U, _, Vt = np.linalg.svd(P.T @ Q)
    signs = np.ones(P.shape[1])
    signs[-1] = np.sign(np.linalg.det(U @ Vt))
    R = (U * signs) @ Vt
    return float(np.sqrt(np.mean(np.sum((P @ R - Q) ** 2, axis=1))))


def check_roundtrip(target_vertices, vertices, iterations):
    """Reconstruction equals its target up to a rigid motion (C1)."""
    diag = bbox_diagonal(target_vertices)
    rms = kabsch_rms(vertices, target_vertices)
    require(rms < C1_RMS_REL * diag,
            f"round-trip RMS {rms:.3g} exceeds {C1_RMS_REL:g} x diagonal {diag:.3g}")
    require(iterations <= C1_MAX_ITERATIONS,
            f"round trip took {iterations} iterations (at most {C1_MAX_ITERATIONS})")


def check_same_rep(saved, loaded):
    """A reloaded representation equals the saved one bit for bit."""
    require(loaded.reference_hash == saved.reference_hash,
            "reloaded representation has another reference hash")
    require(np.array_equal(loaded.rotations, saved.rotations),
            "reloaded rotations differ from the saved ones")
    require(np.array_equal(loaded.stretches, saved.stretches),
            "reloaded stretches differ from the saved ones")


def mesh_edges(triangles):
    """Undirected vertex edges of a triangle list, as sorted pairs."""
    tri = np.asarray(triangles)
    pairs = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
    return np.unique(np.sort(pairs, axis=1), axis=0)


def cylinder_development(n_u, n_v, radius, height, wedge):
    """Exact unrolling of the chordal cylinder patch of ``n_u`` by ``n_v``
    quads over ``height`` and the angle ``wedge``: ring ``j`` (the
    vertices at angle ``j * wedge / n_v``) lands on ``x = j * chord``, the
    chord between adjacent rings, and height stays height. Vertices come
    row by row in height, ring by ring within a row, as
    ``shapeforms.synthetic.cylinder_patch`` lays them out."""
    chord = 2.0 * radius * np.sin(0.5 * wedge / n_v)
    uu, xx = np.meshgrid(np.linspace(0.0, height, n_u + 1),
                         chord * np.arange(n_v + 1), indexing="ij")
    return np.stack([xx, uu], axis=-1).reshape(-1, 2)


def check_flattening(ref_vertices, triangles, flat_vertices, expected_2d):
    """A developable patch unrolls isometrically onto its analytic
    development (C8): every edge keeps its length within ``C8_EDGE_REL``
    relative, and the chart matches ``expected_2d`` up to a rigid motion
    or a mirror."""
    flat = np.asarray(flat_vertices, dtype=float)
    require(np.allclose(flat[:, 2], 0.0), "flattened patch leaves the plane")
    edges = mesh_edges(triangles)
    ref_len = np.linalg.norm(ref_vertices[edges[:, 0]] - ref_vertices[edges[:, 1]],
                             axis=1)
    flat_len = np.linalg.norm(flat[edges[:, 0]] - flat[edges[:, 1]], axis=1)
    worst = float(np.max(np.abs(flat_len - ref_len) / ref_len))
    require(worst < C8_EDGE_REL, f"flattening stretches an edge by {worst:.3g}")
    got = flat[:, :2]
    rms = min(kabsch_rms(got, expected_2d),
              kabsch_rms(got * np.array([1.0, -1.0]), expected_2d))
    diag = bbox_diagonal(ref_vertices)
    require(rms < C8_RMS_REL * diag,
            f"flattening is {rms:.3g} from the analytic development")


def check_energy_trace(energies):
    """Energies of a reconstruction never increase (C4)."""
    E = np.asarray(energies, dtype=float)
    require(E.size >= 1 and E[0] > 0.0, "energy trace is empty or starts at 0")
    rises = np.nonzero(E[1:] > E[:-1] * (1.0 + C4_RISE_REL))[0]
    require(rises.size == 0,
            f"energy rises at step {int(rises[0]) + 1}" if rises.size else "")


def triangle_frames(vertices, triangles):
    """Edge-aligned orthonormal frames ``[t1, n x t1, n]`` and areas."""
    v = np.asarray(vertices, dtype=float)[triangles]
    e1 = v[:, 1] - v[:, 0]
    e2 = v[:, 2] - v[:, 0]
    cross = np.cross(e1, e2)
    double_area = np.linalg.norm(cross, axis=1)
    n = cross / double_area[:, None]
    t1 = e1 / np.linalg.norm(e1, axis=1)[:, None]
    frames = np.stack((t1, np.cross(n, t1), n), axis=-1)
    return frames, 0.5 * double_area, np.stack((e1, e2, n), axis=-1)


def inner_edge_pairs(triangles):
    """Triangle pairs ``(i, j)``, ``i < j``, sharing a vertex edge, in
    lexicographic order (the order representations store edges in)."""
    tri = np.asarray(triangles)
    m = tri.shape[0]
    pairs = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
    keys = np.sort(pairs, axis=1)
    owners = np.tile(np.arange(m), 3)
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True,
                                   return_counts=True)
    inverse = inverse.reshape(-1)
    order = np.argsort(inverse, kind="stable")
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    shared = starts[counts == 2]
    a = owners[order[shared]]
    b = owners[order[shared + 1]]
    result = np.stack((np.minimum(a, b), np.maximum(a, b)), axis=1)
    return result[np.lexsort((result[:, 1], result[:, 0]))]


def reconstruction_energy(ref_vertices, triangles, rotations, stretches,
                          positions, frame_rotations):
    """Local/global energy of a reconstruction, from its definition.

    ``positions`` stacks the solved vertices and one normal-tip point per
    triangle; ``frame_rotations`` are the per-triangle rotations ``R_i``.
    The energy is the sum over ordered neighbour pairs ``(j -> i)`` of
    ``A_i / |N_i| * |D_i - R_j F_j C_ji F_i^T U_i|_F^2`` with ``U_i`` the
    stretch lifted by unit normal stretch and ``C_ji`` the transpose of
    the stored ``C_ij`` when ``j > i``.
    """
    tri = np.asarray(triangles)
    m = tri.shape[0]
    nv = np.asarray(ref_vertices).shape[0]
    F, areas, basis = triangle_frames(ref_vertices, tri)
    X = np.asarray(positions, dtype=float)
    x = X[:nv][tri]
    deformed = np.stack((x[:, 1] - x[:, 0], x[:, 2] - x[:, 0], X[nv:] - x[:, 0]),
                        axis=-1)
    D = deformed @ np.linalg.inv(basis)

    lifted = np.zeros((m, 3, 3))
    lifted[:, :2, :2] = stretches
    lifted[:, 2, 2] = 1.0
    U3 = F @ lifted @ np.swapaxes(F, -1, -2)

    pairs = inner_edge_pairs(tri)
    C = np.asarray(rotations, dtype=float)
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    C_sd = np.concatenate([C, np.swapaxes(C, -1, -2)])
    counts = np.bincount(dst, minlength=m)
    R = np.asarray(frame_rotations, dtype=float)
    predicted = R[src] @ F[src] @ C_sd @ np.swapaxes(F[dst], -1, -2) @ U3[dst]
    diff = D[dst] - predicted
    return float(np.sum(areas[dst] / counts[dst] * np.sum(diff * diff, axis=(1, 2))))


def check_final_energy(reported, recomputed):
    scale = max(abs(reported), abs(recomputed), 1e-300)
    require(abs(reported - recomputed) <= FINAL_ENERGY_REL * scale,
            f"reported energy {reported:.17g} differs from recomputed "
            f"{recomputed:.17g}")


def _sym_apply(S, fn):
    w, V = np.linalg.eigh(S)
    return (V * fn(w)[..., None, :]) @ np.swapaxes(V, -1, -2)


def log_euclidean_mean(stretch_stacks):
    """Log-Euclidean mean ``exp(mean_k log U_k)`` of stacks of SPD 2x2
    matrices, each of shape ``(m, 2, 2)``, through ``np.linalg.eigh``."""
    logs = [_sym_apply(np.asarray(U, dtype=float), np.log) for U in stretch_stacks]
    return _sym_apply(np.mean(logs, axis=0), np.exp)


def check_mean_stretches(mean_stretches, stretch_stacks):
    """The Fréchet mean's stretches are the log-Euclidean mean (C6)."""
    expected = log_euclidean_mean(stretch_stacks)
    err = float(np.max(np.abs(np.asarray(mean_stretches) - expected)))
    require(err < C6_MEAN_ABS, f"mean stretches are {err:.3g} from the log-Euclidean mean")


def check_resynthesis(synthesized, original):
    """All-mode coefficients re-synthesize a training shape (C6)."""
    err = max(float(np.max(np.abs(synthesized.rotations - original.rotations))),
              float(np.max(np.abs(synthesized.stretches - original.stretches))))
    require(err < C6_RESYNTHESIS_ABS, f"re-synthesized shape is {err:.3g} from the original")


def check_compactness(curve):
    """Cumulative variance shares never decrease and reach 1."""
    c = np.asarray(curve, dtype=float)
    require(np.all(np.diff(c) >= 0.0), "compactness decreases")
    require(abs(c[-1] - 1.0) <= COMPACTNESS_END_ABS, f"compactness ends at {c[-1]!r}, not 1")


def check_generalization(curve):
    """Leave-one-out errors never grow with the mode count (C10)."""
    g = np.asarray(curve, dtype=float)
    require(np.all(np.diff(g) <= C10_RISE_ABS), "generalization error grows with modes")


def check_classification(shares, coefficient_acc, pdm_acc):
    """Coefficient features beat 0.9 at share 0.1 and are never worse than
    the point-distribution baseline (C9)."""
    for share, coeff, pdm in zip(shares, coefficient_acc, pdm_acc):
        if share == 0.1:
            require(coeff > C9_FLOOR,
                     f"coefficient accuracy {coeff:.4f} at share 0.1 is not above "
                     f"{C9_FLOOR}")
        require(coeff >= pdm,
                 f"PDM accuracy {pdm:.4f} beats coefficients {coeff:.4f} at share "
                 f"{share}")
