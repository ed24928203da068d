"""Inverse problem: map a representation back to a triangle mesh.

The solver minimizes the area-weighted mismatch between per-triangle
deformation gradients and the gradients prescribed by the representation,

    E(phi, {R_i}) = sum_i A_i / |N_i| * sum_{j in N_i} |D_i - R_{j->i} U_i|_F^2,

where ``R_{j->i} = R_j F_j C_ji F_i^T`` transports a neighbor rotation
across the shared edge. Minimization alternates a closed-form Procrustes
fit of the rotations (local step) with a sparse linear solve for the
vertex positions (global step); both are exact block minimizers. A
spanning-tree propagation of the seed rotation provides the warm start and
is already exact for integrable inputs.

Over the directed edges ``e = (src -> dst)`` this is, with ``G X`` the
deformation-gradient columns of the stacked positions as rows ``3i + c``,
``gidx_e`` the three rows of ``dst`` and ``Rt`` the stacked ``R_i^T``,

    E(X, R) = sum_e w_e |(G X)[gidx_e] - (B Rt)_e|^2.

The sparse ``(3E x 3m)`` operator ``B`` holds the prescribed gradient
``Q_e = F_src C_e F_dst^T U_dst`` at the columns of ``src``. One iteration
polar-decomposes the blocks of ``B^T (w * (G X)[gidx])`` (local step),
solves against ``G^T`` times the ``dst``-sum of ``w * (B Rt)`` (global
step) and reads the energy off the residual rows.

The alternation is a fixed-point iteration on the stacked positions, and
Anderson acceleration (Walker and Ni, 2011, *Anderson acceleration for
fixed-point iterations*; Peng et al., 2018, *Anderson Acceleration for
Geometry Optimization and Physics Simulation*) extrapolates each plain
step from the last ``_AA_WINDOW`` (12) differences of residuals and
steps. These sit in rings next to the Gram matrix of the residual
differences, of which each new difference computes one row, so an
iteration costs three products of a ring with a vector rather than a
fresh Gram matrix. An accelerated point is kept only if its energy after
its own rotation fit is strictly below the current iterate's energy after
its rotation fit, and that fit then serves as the next local step.
Otherwise the plain step is taken, its energy evaluated, and the history
cleared; so the plain step's gradients are only gathered when no
candidate is kept. Both ways keep the energy non-increasing: a kept
candidate is below the fitted energy, and the global step, an exact
minimizer, never raises it.

To keep the global step quadratic, the out-of-plane column of each
deformation gradient is carried by an auxiliary per-triangle point (the
image of the unit normal tip). For gradients of actual meshes that column
is exactly the deformed unit normal, so nothing changes for integrable
data while non-integrable mismatch is spread smoothly by the solve.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import ConditioningError, ConvergenceError
from .liegroups import (
    _det_entries,
    _entries,
    _matrices,
    _quaternion_entries,
    polar_rotation,
)
from .representation import _check_binding

#: Energies below ``_FLOOR_FACTOR`` times the size of the prescribed
#: gradients (the energy of a zero gradient field) count as exactly
#: solvable: rounding in the solve leaves residuals of about that size.
_FLOOR_FACTOR = 1e-24

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100

#: Residual differences kept by the Anderson acceleration.
_AA_WINDOW = 12

#: Parts of at most this many vertices end the nested dissection.
_LEAF_SIZE = 32


def init_rotations(ref, rep):
    """Warm-start rotation field from spanning-tree propagation.

    Triangle 0, the root of the spanning tree, gets the identity; along
    every tree edge the local integrability condition determines the child
    from the parent. For integrable representations this already
    reproduces the full rotation field (up to the global rotation fixed at
    triangle 0).
    """
    _check_binding(ref, rep)
    m = ref.n_triangles
    R = np.empty((m, 3, 3))
    R[0] = np.eye(3)
    F = ref.frames
    parent, child = ref.spanning_tree.T
    # Only the tree edges' matrices, derived from the held quaternions.
    C = _matrices(_quaternion_entries(rep.quaternions[:, ref.tree_edge_indices]))
    backward = parent > child
    C[backward] = np.swapaxes(C[backward], -1, -2)
    # Tree edges are in breadth-first order, so each depth is one
    # contiguous run whose parents were all set by the previous run.
    starts = np.flatnonzero(np.diff(ref.tree_depths, prepend=0))
    for lo, hi in zip(starts, np.append(starts[1:], child.size)):
        p, c = parent[lo:hi], child[lo:hi]
        R[c] = R[p] @ F[p] @ C[lo:hi] @ np.swapaxes(F[c], -1, -2)
    return R


@dataclass
class EnergyReport:
    """Energy trace and final state of one reconstruction run.

    ``positions`` stacks the solved vertex positions with the per-triangle
    normal-tip points the global step optimizes alongside them.
    """

    energies: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    #: Anderson candidates refused, each of which cost a plain step on top.
    rejected: int = 0
    residuals: np.ndarray = None
    rotations: np.ndarray = None
    positions: np.ndarray = None


def _rows(D):
    """Stack the columns of ``(m, 3, 3)`` matrices as the rows ``3i + c``."""
    return np.ascontiguousarray(np.swapaxes(D, -1, -2)).reshape(-1, 3)


class PoissonSystem:
    """Prefactored normal equations of the global step.

    The quadratic form depends only on the reference, so one factorization
    serves arbitrarily many solves with different rotation fields. The
    translation nullspace is removed by pinning one coordinate during the
    solve; the returned positions are then shifted so the vertex barycenter
    matches the reference barycenter.

    Only the vertex unknowns are factored. The unknowns of triangle ``i``
    are its three vertices and its normal-tip point, and its element matrix
    is the ``4 x 4`` block ``A_i g_i^T g_i`` of its gradient rows ``g_i``.
    The tip enters no other element, so it is eliminated inside its own:
    the vertex Schur complement ``S = Kvv - Kvt Ktt^-1 Ktv`` of
    ``K = G^T W G`` is the sum of the ``3 x 3`` element Schur complements,
    and is assembled as such without forming ``K``. ``S`` couples only
    vertices that share a triangle. After each vertex solve the tips follow
    from one diagonal back-substitution. This is the same minimizer as the
    full ``(n_vertices + m)`` system up to rounding, at a fraction of its
    fill.

    The factor order is a nested dissection of the reference vertex
    coordinates (George, 1973; Lipton, Rose and Tarjan, 1979), see
    :func:`_dissection_order`. ``S`` is symmetric positive definite, so
    SuperLU factors it in that order without pivoting.
    """

    def __init__(self, ref):
        mesh = ref.mesh
        m = mesh.n_triangles
        nv = mesh.n_vertices
        self.n_vertices = nv
        self.n_triangles = m
        self._barycenter = mesh.vertices.mean(axis=0)

        # Row 3i + c of G holds column c of the coefficients of (v0, v1, v2,
        # tip) in triangle i's gradient: -(h1 + h2 + h3), h1, h2 and h3 for
        # the rows h_k of H, which are those of (e1, e2, tip - v0).
        H = ref.grad_inverses
        tri = mesh.triangles
        coefficients = np.empty((m, 3, 4))
        coefficients[..., 1:] = np.swapaxes(H, 1, 2)
        coefficients[..., 0] = -(H[:, 0] + H[:, 1] + H[:, 2])
        unknowns = np.column_stack((tri, nv + np.arange(m)))
        self._G = scipy.sparse.csr_matrix(
            (coefficients.reshape(-1), np.repeat(unknowns, 3, axis=0).reshape(-1),
             np.arange(0, 12 * m + 1, 4)),
            shape=(3 * m, nv + m),
        )
        self._weights = np.repeat(ref.tri_areas, 3)

        # The element matrix A_i g_i^T g_i in terms of the Gram entries
        # g_jk = h_j . h_k. Its tip row is A (-(g13 + g23 + g33), g13, g23,
        # g33); eliminating the tip leaves A C^T N C on (v0, v1, v2), with
        # C = [[-1, 1, 0], [-1, 0, 1]] and N_jk = g_jk - g_j3 g_k3 / g33.
        area = ref.tri_areas
        h1, h2, h3 = H[:, 0], H[:, 1], H[:, 2]
        g11, g12, g22, g13, g23, g33 = (
            np.einsum("ij,ij->i", x, y)
            for x, y in ((h1, h1), (h1, h2), (h2, h2), (h1, h3), (h2, h3), (h3, h3))
        )
        self._ktt = area * g33
        tip_rows = area[:, None] * np.stack((-(g13 + g23 + g33), g13, g23), axis=1)
        # Ktv has row i = the vertex part of element i's tip row; Kvt is its
        # transpose.
        self._ktv = scipy.sparse.csr_matrix(
            (tip_rows.reshape(-1), tri.reshape(-1), np.arange(0, 3 * m + 1, 3)),
            shape=(m, nv),
        )
        self._kvt = self._ktv.T.tocsr()
        n11 = area * (g11 - g13 * g13 / g33)
        n12 = area * (g12 - g13 * g23 / g33)
        n22 = area * (g22 - g23 * g23 / g33)
        s01, s02 = -(n11 + n12), -(n12 + n22)
        schur = np.stack((n11 + 2.0 * n12 + n22, s01, s02,
                          s01, n11, n12,
                          s02, n12, n22), axis=1)

        # Vertex 0 is pinned; the others are factored in dissection order.
        order = _dissection_order(mesh.vertices, tri)
        self._order = order = order[order != 0]
        rank = np.full(nv, -1)
        rank[order] = np.arange(nv - 1)
        rows = np.repeat(rank[tri], 3, axis=1).reshape(-1)
        cols = np.tile(rank[tri], (1, 3)).reshape(-1)
        kept = (rows >= 0) & (cols >= 0)
        S = scipy.sparse.csc_matrix(
            (schur.reshape(-1)[kept], (rows[kept], cols[kept])),
            shape=(nv - 1, nv - 1),
        )
        try:
            self._lu = scipy.sparse.linalg.splu(
                S, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as exc:
            raise ConditioningError(f"global system factorization failed: {exc}")

    def solve(self, targets):
        """Positions minimizing the weighted gradient mismatch.

        Parameters
        ----------
        targets : ndarray
            ``(m, 3, 3)`` target gradients.

        Returns
        -------
        ndarray
            ``(n_vertices + m, 3)`` stacked vertex positions and normal-tip
            points, vertex barycenter pinned to the reference barycenter.
        """
        return self._solve_weighted(self._weights[:, None] * _rows(targets))

    def _solve_weighted(self, weighted):
        """:meth:`solve` for area-weighted target rows laid out as ``G X``."""
        nv = self.n_vertices
        rhs = self._G.T @ weighted
        rhs_v, rhs_t = rhs[:nv], rhs[nv:]
        reduced = rhs_v - self._kvt @ (rhs_t / self._ktt[:, None])
        X = np.zeros((rhs.shape[0], 3))
        X[self._order] = self._lu.solve(reduced[self._order])
        X[nv:] = (rhs_t - self._ktv @ X[:nv]) / self._ktt[:, None]
        X += self._barycenter - X[:nv].mean(axis=0)
        return X

    def gradient_rows(self, X):
        """``G X``: row ``3i + c`` is column ``c`` of triangle ``i``'s gradient."""
        return self._G @ X


def _dissection_order(points, triangles):
    """Nested-dissection order of the vertices of a triangle mesh.

    Every part with more than ``_LEAF_SIZE`` vertices is sorted along its
    widest coordinate and split at the median. The low-side vertices with a
    high-side neighbor form its separator, which no edge crosses once it is
    removed. A part takes the positions of its low half, then of its high
    half, then of its separator; the vertices of a leaf or a separator keep
    their sorted order. Each level splits all of its parts at once.
    """
    n = points.shape[0]
    # The triangle sides a -> b between vertices still to place.
    a = triangles.reshape(-1)
    b = triangles[:, [1, 2, 0]].reshape(-1)
    side = np.zeros(n, dtype=np.int8)  # 1 low, 2 high, 0 placed
    position = np.empty(n, dtype=np.int64)
    # The vertices still to place, part after part, with each part's size
    # and first position.
    live, sizes, offsets = np.arange(n), np.array([n]), np.array([0])
    while live.size:
        starts = np.cumsum(sizes) - sizes
        run = np.repeat(np.arange(sizes.size), sizes)
        leaf = sizes[run] <= _LEAF_SIZE
        position[live[leaf]] = (offsets - starts)[run[leaf]] + np.flatnonzero(leaf)
        big = sizes > _LEAF_SIZE
        live, sizes, offsets = live[~leaf], sizes[big], offsets[big]
        if not live.size:
            break
        parts = np.arange(sizes.size)
        starts = np.cumsum(sizes) - sizes
        label = np.repeat(parts, sizes)
        xyz = points[live]
        low = np.minimum.reduceat(xyz, starts, axis=0)
        extent = np.maximum.reduceat(xyz, starts, axis=0) - low
        axis = np.argmax(extent, axis=1)
        width = extent[parts, axis]
        # Part label plus the coordinate scaled into [0, 1/2]: one sort key.
        scale = 0.5 / np.where(width > 0.0, width, 1.0)
        coord = xyz[np.arange(live.size), axis[label]] - low[parts, axis][label]
        live = live[np.argsort(label + coord * scale[label])]
        n_high = sizes - sizes // 2
        upper = np.arange(live.size) - starts[label] >= (sizes - n_high)[label]
        side[live] = 1 + upper
        side_a, side_b = side[a], side[b]
        cut = np.zeros(n, dtype=bool)
        cut[a[(side_a == 1) & (side_b == 2)]] = True
        cut[b[(side_a == 2) & (side_b == 1)]] = True
        inside = (side_a > 0) & (side_b > 0)
        a, b = a[inside], b[inside]
        side[live] = 0
        cut = cut[live]
        n_cut = np.bincount(label[cut], minlength=sizes.size)
        n_low = sizes - n_high - n_cut
        first = (offsets + n_low + n_high - np.cumsum(n_cut) + n_cut)[label[cut]]
        position[live[cut]] = first + np.arange(first.size)
        live = live[~cut]
        sizes = np.stack((n_low, n_high), axis=1).reshape(-1)
        offsets = np.stack((offsets, offsets + n_low), axis=1).reshape(-1)
    order = np.empty(n, dtype=np.int64)
    order[position] = np.arange(n)
    return order


def prefactor(ref):
    """Assemble and factorize the global-step system for ``ref``."""
    return PoissonSystem(ref)


class _EdgeTerms:
    """The directed-edge coupling of one representation as one operator.

    Row ``3e + c`` of the CSR matrix ``B`` holds column ``c`` of ``Q_e`` at
    the columns ``3 src_e + r``; ``B.data`` is the only copy of the
    prescribed gradients. Rotations travel as transposes ``Rt``, gradients
    as the edge rows ``Dg = (G X)[gidx]``, and ``carried(Rt) = B @ Rt`` is
    formed once per rotation field.
    """

    def __init__(self, ref, rep):
        src, dst, edge_idx, forward = ref.directed_edges()
        m, n = ref.n_triangles, src.size
        F = ref.frames
        Ft = np.ascontiguousarray(np.swapaxes(F, -1, -2))
        # U_i F_i = F_i diag(S_i, 1) for the embedded stretch U_i.
        UF = F.copy()
        UF[..., :2] = F[..., :2] @ rep.stretches
        # C_e^T: the transition rotation transposed on forward edges, as it
        # is on backward ones; the matrices are derived once, here.
        Qt = rep.rotations[edge_idx]
        Qt[forward] = np.swapaxes(Qt[forward], -1, -2)
        # The blocks Q_e^T = U_dst F_dst C_e^T F_src^T, in place of C_e^T,
        # are B's data in row order.
        np.matmul(UF[dst] @ Qt, Ft[src], out=Qt)
        columns = np.empty((n, 3, 3), dtype=np.int32)
        columns[...] = 3 * src[:, None, None] + np.arange(3)
        self.B = scipy.sparse.csr_matrix(
            (Qt.reshape(-1), columns.reshape(-1),
             np.arange(0, 9 * n + 1, 3, dtype=np.int32)), shape=(3 * n, 3 * m))
        self.dst = dst
        self.gidx = (3 * dst[:, None] + np.arange(3)).reshape(-1).astype(np.int32)
        self.counts = counts = ref.neighbor_counts
        self.weights = np.repeat(ref.tri_areas[dst] / counts[dst], 3)
        # The weighted dst-sum of edge rows: one entry per column.
        self._to_dst = scipy.sparse.csc_matrix(
            (self.weights, self.gidx, np.arange(3 * n + 1, dtype=np.int32)),
            shape=(3 * m, 3 * n)
        )
        self.isolated = iso = counts == 0
        # A_i U_i of triangles without neighbors (global target R_i U_i).
        self._isolated_targets = ref.tri_areas[iso, None, None] * (UF[iso] @ Ft[iso])

    def weighted_norm2(self, rows):
        return float(np.einsum("i,ij,ij->", self.weights, rows, rows))

    def target_size(self):
        """Weighted squared norm of the prescribed gradients, which is the
        energy of a zero gradient field under any rotations."""
        return self.weighted_norm2(self.B.data.reshape(-1, 3))

    def gather(self, rows, out=None):
        """The rows ``(G X)[gidx]`` of every edge's ``dst`` gradient."""
        # gidx is in range by construction, and "raise" would buffer ``out``.
        return np.take(rows, self.gidx, axis=0, out=out, mode="clip")

    def carried(self, Rt):
        """``B @ Rt``: each prescribed gradient carried by its source's rotation."""
        return self.B @ Rt.reshape(-1, 3)

    def energy(self, Dg, carried):
        return self.weighted_norm2(Dg - carried)

    def residuals(self, diff):
        """Per-triangle mean squared mismatch of the residual rows
        ``diff = Dg - carried``, over the edges into each triangle."""
        sq = np.einsum("ij,ij->i", diff, diff).reshape(-1, 3).sum(axis=1)
        out = np.bincount(self.dst, weights=sq, minlength=self.counts.size)
        return out / np.maximum(self.counts, 1)

    def rotation_fits(self, Dg, current):
        """Closed-form Procrustes fit of all ``Rt`` at once: the polar
        factors of the blocks ``M_i^T`` of ``B^T (w * Dg)``. Triangles
        without neighbors keep their ``current`` transposed rotation."""
        Mt = (self.B.T @ (self.weights[:, None] * Dg)).reshape(-1, 3, 3)
        det = _det_entries(_entries(Mt))
        bad = (det <= 0.0) & ~self.isolated
        if np.any(bad):
            idx = int(np.nonzero(bad)[0][0])
            raise ConditioningError(
                f"rotation fit for triangle {idx} is singular (det "
                f"{det[idx]:.3g})"
            )
        Mt[self.isolated] = current[self.isolated]
        # det M > 0, so the polar factor is a proper rotation.
        Rt = polar_rotation(Mt)
        Rt[self.isolated] = current[self.isolated]
        return Rt

    def global_rows(self, Rt, carried):
        """Area-weighted target rows of the global step: the weighted
        ``dst``-sum of the carried rows, and ``R_i U_i`` for triangles
        without neighbors."""
        rows = self._to_dst @ carried
        iso = self.isolated  # the rows of R U are those of (R U)^T = U Rt
        rows.reshape(-1, 3, 3)[iso] = self._isolated_targets @ Rt[iso]
        return rows


def local_step(ref, rep, gradients, rotations=None):
    """One exact minimization of the energy over all rotations.

    ``gradients`` is the current per-triangle deformation-gradient field;
    ``rotations`` is only consulted for triangles without neighbors.
    """
    _check_binding(ref, rep)
    terms = _EdgeTerms(ref, rep)
    if rotations is None:
        rotations = np.broadcast_to(np.eye(3), (ref.n_triangles, 3, 3))
    Dg = terms.gather(_rows(np.asarray(gradients, dtype=float)))
    Rt = terms.rotation_fits(Dg, np.swapaxes(rotations, -1, -2))
    return np.swapaxes(Rt, -1, -2)


def _check_stopping(tol, max_iter, least):
    """Raise ``ValueError`` unless ``tol`` is positive and finite and
    ``max_iter`` is an integer of at least ``least`` (0 or 1)."""
    if not (isinstance(max_iter, numbers.Integral) and max_iter >= least):
        kind = "non-negative" if least == 0 else "positive"
        raise ValueError(f"max_iter must be a {kind} integer, got {max_iter}")
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol}")


def reconstruct(ref, rep, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, system=None):
    """Solve the inverse problem for ``rep``.

    Parameters
    ----------
    ref : ReferenceGeometry
        Reference the representation is bound to.
    rep : ShapeRep
        Representation to invert.
    tol : float
        Relative energy decrease below which the alternation stops.
    max_iter : int
        Maximum number of local/global rounds after the initial solve.
    system : PoissonSystem, optional
        Reuse a prefactored system (must belong to ``ref``).

    Returns
    -------
    (TriangleMesh, EnergyReport)
        The reconstructed mesh (vertex barycenter at the reference
        barycenter, orientation fixed by triangle 0) and the energy
        trace. The energy sequence is non-increasing.

    Raises
    ------
    ValueError
        If ``tol`` is not positive and finite or ``max_iter`` is not a
        non-negative integer.
    """
    _check_stopping(tol, max_iter, 0)
    _check_binding(ref, rep)
    if system is None:
        system = prefactor(ref)
    # The alternation's edge arrays are freed before the mesh is built on
    # the reference's triangles, which checks only its geometry.
    report = _alternate(ref, rep, tol, max_iter, system)
    mesh = ref.mesh._with_vertices(report.positions[: system.n_vertices])
    return mesh, report


class _AndersonHistory:
    """The last ``_AA_WINDOW`` differences of Anderson acceleration.

    Rings hold the differences ``dF`` of successive residuals
    ``f = G(X) - X`` and ``dG`` of successive plain steps ``G(X)``, with
    the Gram matrix ``dF dF^T`` kept beside them: overwriting slot ``k``
    computes only its row. The slots in use are ``[:held]``, filled in
    order since the last :meth:`clear`, so a mix costs two products with
    a ring and the push one, each ``held x n``. Only an iterating solve
    pushes a second pair and so allocates the rings.
    """

    def __init__(self):
        self.dF = self.dG = self.gram = None
        self.pairs = 0  # differences pushed since the last clear
        self._last = None  # the last (f, G) pushed

    @property
    def held(self):
        return min(self.pairs, _AA_WINDOW)

    def push(self, f, G):
        """Record the residual ``f`` and the plain step ``G`` of an iterate."""
        f, G = f.reshape(-1), G.reshape(-1)
        if self._last is not None:
            if self.dF is None:
                self.dF, self.dG = np.empty((2, _AA_WINDOW, f.size))
                self.gram = np.empty((_AA_WINDOW, _AA_WINDOW))
            k = self.pairs % _AA_WINDOW
            np.subtract(f, self._last[0], out=self.dF[k])
            np.subtract(G, self._last[1], out=self.dG[k])
            self.pairs += 1
            held = self.held
            self.gram[k, :held] = self.gram[:held, k] = self.dF[:held] @ self.dF[k]
        self._last = f, G

    def clear(self):
        """Drop the differences; the last pair still starts the next one."""
        self.pairs = 0

    def mix(self, f, G):
        """The accelerated point ``G - gamma dG`` for the residual ``f`` and
        plain step ``G`` just pushed, with ``gamma`` minimizing
        ``|f - gamma dF|``. ``lstsq`` on the small normal equations still
        handles a rank-deficient history."""
        held = self.held
        gamma = np.linalg.lstsq(self.gram[:held, :held],
                                self.dF[:held] @ f.reshape(-1), rcond=None)[0]
        return G - (gamma @ self.dG[:held]).reshape(G.shape)


def _converged_mesh(result, what):
    """The mesh of a :func:`reconstruct` ``result``, or ``ConvergenceError``
    naming the solve by ``what`` when it stopped short of its tolerance."""
    mesh, report = result
    if not report.converged:
        raise ConvergenceError(f"reconstruction of {what} did not converge in "
                               f"{report.iterations} iterations")
    return mesh


def _alternate(ref, rep, tol, max_iter, system):
    terms = _EdgeTerms(ref, rep)
    Rt = np.ascontiguousarray(np.swapaxes(init_rotations(ref, rep), -1, -2))
    P = terms.carried(Rt)  # always the carried rows of the current Rt

    X = system._solve_weighted(terms.global_rows(Rt, P))
    Dg = terms.gather(system.gradient_rows(X))
    energy = terms.energy(Dg, P)
    report = EnergyReport(energies=[energy])

    # Anderson acceleration of the fixed point X -> G(X) = global(local(X)).
    history = _AndersonHistory()
    # The last step kept a candidate: Rt is fitted to it, and Dg holds its
    # residual rows rather than its gradient rows.
    fitted = False

    floor = _FLOOR_FACTOR * terms.target_size()
    report.converged = energy <= floor
    while not report.converged and report.iterations < max_iter:
        previous = energy
        if not fitted:
            Rt = terms.rotation_fits(Dg, Rt)
            P = terms.carried(Rt)
            energy = terms.energy(Dg, P)
        report.energies.append(energy)

        G = system._solve_weighted(terms.global_rows(Rt, P))
        f = G - X
        history.push(f, G)
        fitted = False
        # Rt is fitted to Dg, so Dg's buffer takes the next point's rows.
        if history.held:
            candidate = history.mix(f, G)
            terms.gather(system.gradient_rows(candidate), out=Dg)
            try:
                Rt_c = terms.rotation_fits(Dg, Rt)
            except ConditioningError:  # no proper rotation fit: rejected
                energy_c = np.inf
            else:
                P_c = terms.carried(Rt_c)
                # Fitted, the candidate's rows are read again only as its
                # residual rows, so they turn into those in place.
                energy_c = terms.weighted_norm2(np.subtract(Dg, P_c, out=Dg))
            fitted = energy_c < energy
            if fitted:
                X, Rt, P, energy = candidate, Rt_c, P_c, energy_c
            else:
                history.clear()
                report.rejected += 1
            Rt_c = P_c = None  # a refused fit is freed before the plain step
        if not fitted:  # no candidate kept: take the plain step
            X = G
            terms.gather(system.gradient_rows(G), out=Dg)
            energy = terms.energy(Dg, P)
        report.energies.append(energy)
        report.iterations += 1
        report.converged = energy <= floor or previous - energy <= tol * previous

    report.residuals = terms.residuals(Dg if fitted else Dg - P)
    report.rotations = np.ascontiguousarray(np.swapaxes(Rt, -1, -2))
    report.positions = X
    return report
