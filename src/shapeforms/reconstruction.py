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

The alternation is a fixed-point iteration on the stacked positions, and
Anderson acceleration (Peng et al., 2018, *Anderson Acceleration for
Geometry Optimization and Physics Simulation*) extrapolates each plain
step from the last few. An accelerated point is kept only if its energy
after its own rotation fit is strictly below that of the plain step, and
that fit then serves as the next local step; otherwise the plain step is
taken and the history cleared. This safeguard is what keeps the energy
non-increasing.

To keep the global step quadratic, the out-of-plane column of each
deformation gradient is carried by an auxiliary per-triangle point (the
image of the unit normal tip). For gradients of actual meshes that column
is exactly the deformed unit normal, so nothing changes for integrable
data while non-integrable mismatch is spread smoothly by the solve.
"""

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import ConditioningError
from .liegroups import polar_rotation
from .mesh import TriangleMesh
from .representation import _check_binding

#: Energies below ``_FLOOR_FACTOR`` times the size of the prescribed
#: gradients (the energy of a zero gradient field) count as exactly
#: solvable: rounding in the solve leaves residuals of about that size.
_FLOOR_FACTOR = 1e-24

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100

#: Residual differences kept by the Anderson acceleration.
_AA_WINDOW = 5


def embed_stretch(ref, i, stretch2):
    """Lift a tangential 2x2 stretch of triangle ``i`` back to 3x3.

    The normal direction gets unit stretch, matching the convention that
    deformation gradients map unit normal to unit normal.
    """
    return _embed_stretches(ref, stretch2, i)


def _embed_stretches(ref, stretches, triangles=slice(None)):
    stretches = np.asarray(stretches, dtype=float)
    padded = np.zeros(stretches.shape[:-2] + (3, 3))
    padded[..., :2, :2] = stretches
    padded[..., 2, 2] = 1.0
    F = ref.frames[triangles]
    return F @ padded @ np.swapaxes(F, -1, -2)


def init_rotations(ref, rep):
    """Warm-start rotation field from spanning-tree propagation.

    The seed triangle gets the identity; along every tree edge the local
    integrability condition determines the child from the parent. For
    integrable representations this already reproduces the full rotation
    field (up to the global rotation fixed at the seed).
    """
    _check_binding(ref, rep)
    m = ref.n_triangles
    R = np.empty((m, 3, 3))
    R[ref.seed_triangle] = np.eye(3)
    F = ref.frames
    parent, child = ref.spanning_tree.T
    C = rep.rotations[ref.tree_edge_indices]
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
    residuals: np.ndarray = None
    rotations: np.ndarray = None
    positions: np.ndarray = None


class PoissonSystem:
    """Prefactored normal equations of the global step.

    The quadratic form depends only on the reference, so one factorization
    serves arbitrarily many solves with different rotation fields. The
    translation nullspace is removed by pinning one coordinate during the
    solve; the returned positions are then shifted so the vertex barycenter
    matches the reference barycenter.

    Only the vertex unknowns are factored. The normal-tip point of triangle
    ``i`` enters only that triangle's three gradient rows, so the tip block
    ``Ktt`` of ``K = G^T W G`` is exactly diagonal. The tips are therefore
    eliminated first: the Schur complement ``S = Kvv - Kvt Ktt^-1 Ktv``
    couples only vertices that already share a triangle, so it has the
    sparsity pattern of ``Kvv``, and after each vertex solve the tips follow
    from one diagonal back-substitution. This is the same minimizer as the
    full ``(n_vertices + m)`` system up to rounding, at a fraction of its
    fill.
    """

    def __init__(self, ref):
        mesh = ref.mesh
        m = mesh.n_triangles
        nv = mesh.n_vertices
        self.n_vertices = nv
        self.n_triangles = m
        self._barycenter = mesh.vertices.mean(axis=0)

        H = ref.grad_inverses  # rows: coefficients of (e1, e2, tip - v0)
        tri = mesh.triangles
        rows = (3 * np.arange(m)[:, None] + np.arange(3)[None, :]).ravel()

        data = []
        cols = []
        for k, col_idx in ((0, tri[:, 1]), (1, tri[:, 2])):
            data.append(H[:, k, :].ravel())
            cols.append(np.repeat(col_idx, 3))
        data.append(H[:, 2, :].ravel())
        cols.append(np.repeat(nv + np.arange(m), 3))
        data.append(-H.sum(axis=1).ravel())
        cols.append(np.repeat(tri[:, 0], 3))

        G = scipy.sparse.coo_matrix(
            (
                np.concatenate(data),
                (np.tile(rows, 4), np.concatenate(cols)),
            ),
            shape=(3 * m, nv + m),
        ).tocsr()
        self._G = G

        self._weights = np.repeat(ref.tri_areas, 3)
        K = (G.T @ scipy.sparse.diags(self._weights) @ G).tocsc()
        start = time.perf_counter()
        self._ktt = K[nv:, nv:].diagonal()
        self._kvt = K[:nv, nv:].tocsr()
        self._ktv = K[nv:, :nv].tocsr()
        S = K[:nv, :nv] - self._kvt @ scipy.sparse.diags(1.0 / self._ktt) @ self._ktv
        try:
            self._lu = scipy.sparse.linalg.splu(S.tocsc()[1:, 1:])
        except RuntimeError as exc:
            raise ConditioningError(f"global system factorization failed: {exc}")
        self.factor_seconds = time.perf_counter() - start

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
        nv = self.n_vertices
        rows = targets.transpose(0, 2, 1).reshape(-1, 3)
        rhs = self._G.T @ (self._weights[:, None] * rows)
        rhs_v, rhs_t = rhs[:nv], rhs[nv:]
        reduced = rhs_v - self._kvt @ (rhs_t / self._ktt[:, None])
        X = np.zeros((rhs.shape[0], 3))
        X[1:nv] = self._lu.solve(reduced[1:])
        X[nv:] = (rhs_t - self._ktv @ X[:nv]) / self._ktt[:, None]
        X += self._barycenter - X[:nv].mean(axis=0)
        return X

    def gradients(self, X):
        """Deformation gradients of stacked positions ``X``."""
        return (self._G @ X).reshape(self.n_triangles, 3, 3).transpose(0, 2, 1)


def prefactor(ref):
    """Assemble and factorize the global-step system for ``ref``."""
    return PoissonSystem(ref)


def _scatter_sum(index, values, size):
    """Sum the rows of ``values`` into ``size`` bins by ``index``."""
    width = int(np.prod(values.shape[1:]))
    flat = values.reshape(index.size, width)
    bins = (index[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(bins, weights=flat.ravel(), minlength=size * width)
    # bincount returns integers when there is nothing to count.
    return sums.astype(float, copy=False).reshape((size,) + values.shape[1:])


class _EdgeTerms:
    """Directed-edge arrays shared by energy, local and global step.

    ``energy``, ``residuals`` and ``global_targets`` all need the
    prescribed gradients carried by a rotation field,
    ``transported(R) = R[src] @ prescribed``. Each takes that product as
    ``carried`` when the caller already holds it, so one rotation field
    costs one product.
    """

    def __init__(self, ref, rep, stretches3):
        src, dst, edge_idx, forward = ref.directed_edges()
        self.src = src
        self.dst = dst
        C = rep.rotations[edge_idx]
        backward = ~forward
        C[backward] = np.swapaxes(C[backward], -1, -2)
        F = ref.frames
        transport = F[src] @ C @ np.swapaxes(F[dst], -1, -2)
        self.prescribed = transport @ stretches3[dst]
        counts = ref.neighbor_counts
        self.weights = ref.tri_areas[dst] / counts[dst]
        self.counts = counts
        self.tri_areas = ref.tri_areas
        self.isolated = counts == 0

    def target_size(self):
        """Weighted squared norm of the prescribed gradients, which is the
        energy of a zero gradient field under any rotations."""
        sq = np.sum(self.prescribed * self.prescribed, axis=(-2, -1))
        return float(self.weights @ sq)

    def transported(self, R):
        """The prescribed gradient of every directed edge carried by the
        rotation of its source triangle."""
        return R[self.src] @ self.prescribed

    def _squared_mismatch(self, D, R, carried):
        if carried is None:
            carried = self.transported(R)
        diff = D[self.dst] - carried
        return np.sum(diff * diff, axis=(-2, -1))

    def energy(self, D, R, carried=None):
        return float(self.weights @ self._squared_mismatch(D, R, carried))

    def residuals(self, D, R, carried=None):
        sq = self._squared_mismatch(D, R, carried)
        out = _scatter_sum(self.dst, sq, self.counts.shape[0])
        return out / np.maximum(self.counts, 1)

    def rotation_fits(self, D, current):
        """Closed-form Procrustes update of all rotations at once.

        Triangles without neighbors keep their ``current`` rotation.
        """
        terms = self.weights[:, None, None] * (
            D[self.dst] @ np.swapaxes(self.prescribed, -1, -2)
        )
        M = _scatter_sum(self.src, terms, self.counts.shape[0])

        det = np.linalg.det(M)
        bad = (det <= 0.0) & ~self.isolated
        if np.any(bad):
            idx = int(np.nonzero(bad)[0][0])
            raise ConditioningError(
                f"rotation fit for triangle {idx} is singular (det "
                f"{det[idx]:.3g})"
            )
        if np.any(self.isolated):
            M[self.isolated] = current[self.isolated]
        # det M > 0, so the polar factor is a proper rotation.
        R = polar_rotation(M)
        if np.any(self.isolated):
            R[self.isolated] = current[self.isolated]
        return R

    def global_targets(self, R, stretches3, carried=None):
        if carried is None:
            carried = self.transported(R)
        B = _scatter_sum(self.dst, carried, R.shape[0])
        B /= np.maximum(self.counts, 1)[:, None, None]
        if np.any(self.isolated):
            B[self.isolated] = R[self.isolated] @ stretches3[self.isolated]
        return B


def local_step(ref, rep, gradients, rotations=None):
    """One exact minimization of the energy over all rotations.

    ``gradients`` is the current per-triangle deformation-gradient field;
    ``rotations`` is only consulted for triangles without neighbors.
    """
    _check_binding(ref, rep)
    stretches3 = _embed_stretches(ref, rep.stretches)
    terms = _EdgeTerms(ref, rep, stretches3)
    if rotations is None:
        rotations = np.broadcast_to(np.eye(3), (ref.n_triangles, 3, 3))
    return terms.rotation_fits(np.asarray(gradients, dtype=float), rotations)


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
        barycenter, orientation fixed by the seed triangle) and the energy
        trace. The energy sequence is non-increasing.
    """
    _check_binding(ref, rep)
    if system is None:
        system = prefactor(ref)

    stretches3 = _embed_stretches(ref, rep.stretches)
    terms = _EdgeTerms(ref, rep, stretches3)
    R = init_rotations(ref, rep)
    P = terms.transported(R)  # always the product of the current R

    X = system.solve(terms.global_targets(R, stretches3, P))
    D = system.gradients(X)
    report = EnergyReport()
    energy = terms.energy(D, R, P)
    report.energies.append(energy)

    # Anderson acceleration of the fixed point X -> G(X) = global(local(X)):
    # the differences of the last residuals f = G(X) - X and of the images
    # G(X), and the last (f, G(X)) pair for the next differences.
    dF = deque(maxlen=_AA_WINDOW)
    dG = deque(maxlen=_AA_WINDOW)
    last = None
    fitted = False  # R is already the rotation fit of D

    floor = _FLOOR_FACTOR * terms.target_size()
    report.converged = energy <= floor
    while not report.converged and report.iterations < max_iter:
        previous = energy
        if not fitted:
            R = terms.rotation_fits(D, R)
            P = terms.transported(R)
            energy = terms.energy(D, R, P)
        report.energies.append(energy)

        G = system.solve(terms.global_targets(R, stretches3, P))
        f = G - X
        X, D, fitted = G, system.gradients(G), False
        energy = terms.energy(D, R, P)
        if last is not None:
            dF.append((f - last[0]).ravel())
            dG.append((G - last[1]).ravel())
        last = f, G

        if dF:
            gamma = np.linalg.lstsq(np.column_stack(dF), f.ravel(), rcond=None)[0]
            candidate = G - (np.column_stack(dG) @ gamma).reshape(G.shape)
            D_c = system.gradients(candidate)
            # A candidate without a proper rotation fit is rejected.
            try:
                R_c = terms.rotation_fits(D_c, R)
                P_c = terms.transported(R_c)
                energy_c = terms.energy(D_c, R_c, P_c)
            except ConditioningError:
                energy_c = np.inf
            if energy_c < energy:
                X, D, R, P, energy = candidate, D_c, R_c, P_c, energy_c
                fitted = True
            else:
                dF.clear()
                dG.clear()
        report.energies.append(energy)
        report.iterations += 1
        report.converged = energy <= floor or previous - energy <= tol * previous

    report.residuals = terms.residuals(D, R, P)
    report.rotations = R
    report.positions = X
    mesh = TriangleMesh(X[: system.n_vertices], ref.mesh.triangles)
    return mesh, report
