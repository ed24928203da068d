"""First and second moment statistics on shape representations.

A cohort is handled stacked: its logs at a base form one ``(n, E, 3)`` and
one ``(n, m, 2, 2)`` array, built from the cached
``ShapeRep.log_stretches`` and from the transition rotations. These pass
through the elementwise kernels of :mod:`liegroups` as the row-major
entries ``(9, b, E)`` of blocks of ``b`` shapes, stacked under
``_BLOCK_BYTES`` so that the temporaries stay small.

The mean is the Riemannian center of mass. Its stretch part is the
closed-form log-Euclidean mean, the average of the stretch logarithms
(Arsigny et al., "Log-Euclidean metrics for fast and simple calculus on
diffusion tensors", 2006). Its rotation part is the fixed point of
``mu <- exp(mean_i log(C_i mu^T)) mu``, each step taking the logs of the
whole cohort block by block; it converges for well-localized data (all
relative transition rotations away from angle pi).

Principal modes come from the eigendecomposition of the Gram matrix of the
logs at the mean (Fletcher et al., "Principal geodesic analysis for the
study of nonlinear statistics of shape", 2004), reusing the logs of the
mean's last step. They have unit metric length, so mode coefficients are
plain inner products. A tangent vector is its ``(3E + 4m)`` coordinates
(see :class:`TangentRep`), and a model keeps its modes as the rows of one
``(k, 3E + 4m)`` matrix of them, so projecting a shape and synthesizing
one take one matrix product each.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ReferenceMismatchError
from .liegroups import (
    _check_each,
    _entries,
    _exp_entries,
    _log_entries,
    _matrices,
    _times,
    _times_transpose,
    spd2_exp,
    spd2_log,
)
from .reference import build_reference
from .representation import (
    DistanceParams,
    ShapeRep,
    TangentRep,
    _coordinate_weights,
    _read_json,
    _shape_from_payload,
    _shape_payload,
    _tangent_from_payload,
    _tangent_payload,
    _write_json,
    encode,
    rep_exp,
    rep_log,
)

DEFAULT_MEAN_TOL = 1e-10
DEFAULT_MEAN_MAX_ITER = 50
#: Default bound on the residual of a supplied mean, per shape.
DEFAULT_PGA_MEAN_TOL = 1e-6

#: Relative eigenvalue cutoff separating true modes from rank noise.
EIGENVALUE_CUTOFF = 1e-12

#: Byte budget of one block of stacked shapes (or draws) in the batched
#: rotation kernels. Their temporaries come to a few times the block, so
#: the analysis of a cohort needs little more memory than its logs.
_BLOCK_BYTES = 2**18


def _check_same_reference(reps):
    if not reps:
        raise ValueError("need at least one representation")
    first = reps[0].reference_hash
    for rep in reps[1:]:
        if rep.reference_hash != first:
            raise ReferenceMismatchError("representations use different references")


def _stacked_entries(reps):
    """The rotation entries ``(9, n, E)`` of ``reps``, stacked contiguously."""
    entries = np.empty((9, len(reps), reps[0].n_edges))
    for i, rep in enumerate(reps):
        entries[:, i] = _entries(rep.rotations)
    return entries


def _mean_entries(mu):
    """The rotation entries ``(9, E)`` of ``mu``, contiguous."""
    return np.ascontiguousarray(_entries(mu.rotations))


def _stretch_logs(reps, mu_logs):
    """Stretch parts ``(n, m, 2, 2)`` of the logs of ``reps`` at the stretch
    logarithms ``mu_logs``."""
    return np.stack([rep.log_stretches for rep in reps]) - mu_logs


def _log_mean(reps):
    """The log-Euclidean mean of the stretches: the mean of the logs."""
    total = np.array(reps[0].log_stretches)
    for rep in reps[1:]:
        total += rep.log_stretches
    return total / len(reps)


def _blocks(count, item_bytes):
    """Slices covering ``range(count)`` in blocks of items whose arrays of
    ``item_bytes`` each stay under ``_BLOCK_BYTES``; one item at least."""
    step = max(1, _BLOCK_BYTES // max(item_bytes, 1))
    return [slice(start, start + step) for start in range(0, count, step)]


def _relative_entries(reps, mu_entries):
    """Entries ``(9, n, E)`` of the relative rotations ``C mu^T`` of
    ``reps``, for the rotations ``mu`` with entries ``mu_entries``
    ``(9, E)``, formed in blocks of shapes under ``_BLOCK_BYTES``."""
    n_edges = mu_entries.shape[1]
    out = np.empty((9, len(reps), n_edges))
    for block in _blocks(len(reps), 72 * n_edges):
        out[:, block] = _times_transpose(_stacked_entries(reps[block]), mu_entries)
    return out


def _rotation_logs(reps, mu_entries):
    """Rotation parts ``(n, E, 3)`` of the logs of ``reps`` at the rotations
    with entries ``mu_entries`` ``(9, E)``.

    The shapes are stacked in blocks under ``_BLOCK_BYTES``, so one batched
    logarithm covers a block. As when :func:`rep_log` takes one shape at a
    time, a cut-locus error names the worst edge of the first shape at it.
    """
    n_edges = mu_entries.shape[1]
    out = np.empty((len(reps), n_edges, 3))
    for block in _blocks(len(reps), 72 * n_edges):
        out[block] = _log_entries(_relative_entries(reps[block], mu_entries), "edge",
                                  check=_check_each)
    return out


def _residual(rot_total, stretch_total):
    """Unweighted product norm of a summed log, see :func:`mean_residual`."""
    return float(np.sqrt(2.0 * np.sum(rot_total**2) + np.sum(stretch_total**2)))


def mean_residual(mu, reps):
    """Norm of the summed logs at ``mu`` (zero exactly at the mean).

    Measured in the unweighted product norm (Frobenius norms of the skew
    and symmetric components); the metric weights only rescale it by a
    bounded factor, so the zero test is equivalent. ``reps`` must not be
    empty.
    """
    _check_same_reference(reps)
    _check_same_reference([mu, reps[0]])
    rot_logs = _rotation_logs(reps, _mean_entries(mu))
    return _residual(rot_logs.sum(axis=0),
                     _stretch_logs(reps, mu.log_stretches).sum(axis=0))


def _mean_logs(reps, mu_entries, mu_logs, log_mean, tol, max_iter):
    """Fixed-point iteration for the Fréchet mean of ``reps``.

    The iteration starts at the rotations with entries ``mu_entries``
    ``(9, E)`` and the stretch logarithms ``mu_logs``; after the first step
    the stretch part is the closed-form ``log_mean``, which must be the mean
    of the stretch logarithms of ``reps``. It stops when the
    summed logs have :func:`mean_residual` below ``tol``. Returns the mean's
    rotation entries and stretch logarithms and the logs ``(n, E, 3)`` and
    ``(n, m, 2, 2)`` of ``reps`` at the mean.
    """
    n = len(reps)
    for _ in range(max_iter):
        rot_logs = _rotation_logs(reps, mu_entries)
        rot_total = rot_logs.sum(axis=0)
        # The stretch logs sum to n (log_mean - mu_logs).
        residual = _residual(rot_total, n * (log_mean - mu_logs))
        if residual < tol:
            return mu_entries, mu_logs, rot_logs, _stretch_logs(reps, mu_logs)
        mu_entries = _times(_exp_entries((1.0 / n) * rot_total), mu_entries)
        mu_logs = log_mean
    raise ConvergenceError(
        f"mean iteration did not reach {tol:g} within {max_iter} steps "
        f"(residual {residual:.3g})"
    )


def _mean_and_logs(reps, tol, max_iter):
    """Fréchet mean of ``reps``, from ``reps[0]``, with the rotation and
    stretch logs ``(n, E, 3)``, ``(n, m, 2, 2)`` of ``reps`` at it.

    ``reps[0]`` itself is returned when it already passes the test. Any
    other mean keeps the log-Euclidean mean as its ``log_stretches``.
    """
    start = reps[0]
    mu_entries, mu_logs, rot_logs, stretch_logs = _mean_logs(
        reps, _mean_entries(start), start.log_stretches, _log_mean(reps), tol,
        max_iter)
    if mu_logs is not start.log_stretches:
        start = ShapeRep._from_log_stretches(_matrices(mu_entries), mu_logs,
                                             start.reference_hash)
    return start, rot_logs, stretch_logs


def frechet_mean(reps, tol=DEFAULT_MEAN_TOL, max_iter=DEFAULT_MEAN_MAX_ITER):
    """Riemannian center of mass of ``reps``.

    The stretch part is the log-Euclidean mean; the rotation part iterates
    from ``reps[0]`` until the summed logs at the candidate have norm below
    ``tol``, which takes a handful of steps for realistic spreads.

    Raises
    ------
    ValueError
        If ``max_iter`` is below 1.
    ConvergenceError
        If the residual is still above ``tol`` after ``max_iter`` steps.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    _check_same_reference(reps)
    return _mean_and_logs(reps, tol, max_iter)[0]


@dataclass(frozen=True)
class PGAModel:
    """Mean, orthonormal principal modes, and per-mode variances.

    Modes are tangent vectors at the mean with unit metric norm;
    ``variances`` are the Gram eigenvalues divided by the sample count,
    in descending order. The model is immutable: at construction it stacks
    the modes' tangent coordinates once into a read-only ``(k, 3E + 4m)``
    mode matrix, which :func:`coefficients` and :func:`synthesize` use, and
    ``modes`` becomes a tuple of views of its rows.

    Raises
    ------
    ReferenceMismatchError
        If a mode is not a tangent vector at ``mean``.
    """

    mean: ShapeRep
    modes: tuple
    variances: np.ndarray
    params: DistanceParams
    reference_hash: str

    def __post_init__(self):
        base_hash = self.mean.content_hash()
        if any(mode.base_hash != base_hash for mode in self.modes):
            raise ReferenceMismatchError("a mode is not a tangent vector at the mean")
        n_edges = self.mean.n_edges
        matrix = np.array([mode.coordinates for mode in self.modes], dtype=float)
        matrix = matrix.reshape(-1, 3 * n_edges + 4 * self.mean.n_triangles)
        matrix.flags.writeable = False
        # The modes become read-only views of the matrix rows.
        modes = tuple(TangentRep._from_coordinates(row, n_edges, base_hash)
                      for row in matrix)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "variances", np.asarray(self.variances, dtype=float))
        object.__setattr__(self, "_mode_matrix", matrix)

    @property
    def n_modes(self):
        return len(self.modes)

    def save(self, path):
        payload = {
            "reference_hash": self.reference_hash,
            "omega": self.params.omega,
            "variances": self.variances.tolist(),
            "mean": _shape_payload(self.mean),
            "modes": [_tangent_payload(mode) for mode in self.modes],
        }
        _write_json(path, payload)

    @classmethod
    def load(cls, path):
        payload = _read_json(path)
        mean = _shape_from_payload(payload["mean"], payload["reference_hash"])
        base_hash = mean.content_hash()
        return cls(
            mean=mean,
            modes=[_tangent_from_payload(entry, base_hash)
                   for entry in payload["modes"]],
            variances=np.array(payload["variances"], dtype=float),
            params=DistanceParams(payload["omega"]),
            reference_hash=payload["reference_hash"],
        )


def _principal_modes(ref, params, rot_logs, stretch_logs, mean_tol):
    """Variances ``(k,)`` and mode matrix ``(k, 3E + 4m)`` of the stacked
    logs at a mean.

    The summed logs must vanish (residual at most ``mean_tol`` per shape).
    Eigenvalues below ``EIGENVALUE_CUTOFF`` times the largest are
    discarded as numerical rank noise, and at most ``n - 1`` modes kept.
    """
    n = rot_logs.shape[0]
    residual = _residual(rot_logs.sum(axis=0), stretch_logs.sum(axis=0))
    if residual > mean_tol * max(n, 1):
        raise ValueError(
            f"supplied base point is not the mean (log-sum residual {residual:.3g})"
        )
    # The Gram matrix part by part, so the logs are never concatenated.
    n_edges = rot_logs.shape[1]
    parts = (rot_logs.reshape(n, -1), stretch_logs.reshape(n, -1))
    weights = _coordinate_weights(ref, params)
    gram = (parts[0] * weights[: 3 * n_edges]) @ parts[0].T
    gram += (parts[1] * weights[3 * n_edges:]) @ parts[1].T
    eigvals, eigvecs = np.linalg.eigh(gram)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]

    if eigvals.size and eigvals[0] > 0.0:
        keep = eigvals > EIGENVALUE_CUTOFF * eigvals[0]
    else:
        keep = np.zeros(eigvals.shape, dtype=bool)
    keep &= np.arange(eigvals.size) < max(n - 1, 1)
    kept = np.nonzero(keep)[0]
    modes = np.empty((kept.size, parts[0].shape[1] + parts[1].shape[1]))
    np.matmul(eigvecs[:, kept].T, parts[0], out=modes[:, : 3 * n_edges])
    np.matmul(eigvecs[:, kept].T, parts[1], out=modes[:, 3 * n_edges:])
    modes /= np.sqrt(eigvals[kept])[:, None]
    return eigvals[kept] / n, modes


def _mean_and_modes(ref, reps, mu, params, mean_tol):
    """The mean of ``reps`` (``mu``, or computed when it is ``None``) with
    the variances and mode matrix of :func:`_principal_modes`."""
    if mu is None:
        mu, rot_logs, stretch_logs = _mean_and_logs(
            reps, DEFAULT_MEAN_TOL, DEFAULT_MEAN_MAX_ITER)
    else:
        rot_logs = _rotation_logs(reps, _mean_entries(mu))
        stretch_logs = _stretch_logs(reps, mu.log_stretches)
    return (mu,) + _principal_modes(ref, params, rot_logs, stretch_logs, mean_tol)


def pga(ref, reps, mu=None, params=DistanceParams(), mean_tol=DEFAULT_PGA_MEAN_TOL):
    """Principal geodesic analysis of ``reps`` around their mean.

    ``mu`` must be the Fréchet mean (checked through the residual of the
    summed logs); when it is not supplied, it is computed and the logs of
    its last step serve the analysis. Eigenvalues below
    ``EIGENVALUE_CUTOFF`` times the largest are discarded as numerical rank
    noise.
    """
    _check_same_reference(reps)
    if mu is not None and mu.reference_hash != reps[0].reference_hash:
        raise ReferenceMismatchError("mean uses a different reference")
    mu, variances, matrix = _mean_and_modes(ref, reps, mu, params, mean_tol)
    base_hash = mu.content_hash()
    modes = [TangentRep._from_coordinates(row, mu.n_edges, base_hash) for row in matrix]
    return PGAModel(
        mean=mu,
        modes=modes,
        variances=variances,
        params=params,
        reference_hash=reps[0].reference_hash,
    )


def coefficients(ref, model, rep):
    """Mode coefficients of ``rep``: inner products with the modes."""
    if rep.reference_hash != model.reference_hash:
        raise ReferenceMismatchError("representation uses a different reference")
    v = rep_log(model.mean, rep)
    return model._mode_matrix @ (_coordinate_weights(ref, model.params) * v.coordinates)


def synthesize(model, coeffs):
    """Shape representation for a coefficient vector.

    Fewer coefficients than modes weight the leading modes.
    """
    coeffs = np.asarray(coeffs, dtype=float).reshape(-1)
    if coeffs.size > model.n_modes:
        raise ValueError(
            f"{coeffs.size} coefficients for a model with {model.n_modes} modes"
        )
    v = coeffs @ model._mode_matrix[: coeffs.size]
    mean = model.mean
    return rep_exp(mean, TangentRep._from_coordinates(v, mean.n_edges,
                                                      mean.content_hash()))


def _mode_count(model, modes):
    """``modes`` checked as a number of the model's leading modes."""
    if modes < 0:
        raise ValueError(f"mode count must not be negative, got {modes}")
    if modes > model.n_modes:
        raise ValueError(f"requested {modes} of {model.n_modes} modes")
    return int(modes)


def sample(model, count, seed, n_modes=None):
    """Draw shapes from the model's Gaussian coefficient distribution.

    ``n_modes`` (default all) leading modes are drawn.

    Raises
    ------
    ValueError
        If ``count`` is negative, or ``n_modes`` negative or above the
        model's mode count.
    """
    return [synthesize(model, a)
            for a in _sample_coefficients(model, count, seed, n_modes)]


def _sample_coefficients(model, count, seed, n_modes=None):
    """The ``(count, n_modes)`` coefficient draws behind :func:`sample`."""
    if count < 0:
        raise ValueError(f"sample count must not be negative, got {count}")
    n_modes = model.n_modes if n_modes is None else _mode_count(model, n_modes)
    rng = np.random.default_rng(seed)
    std = np.sqrt(model.variances[:n_modes])
    return rng.standard_normal(size=(count, n_modes)) * std


def unbiased_reference(meshes, outer_iterations=2, reconstruct_kwargs=None,
                       reference=None, mean_kwargs=None):
    """Re-center the reference on the cohort mean.

    Starting from ``reference`` (by default the first mesh as reference),
    alternates: encode the cohort, compute the mean, reconstruct the mean
    shape, and promote it to the new reference. ``mean_kwargs`` go to every
    :func:`frechet_mean` call and ``reconstruct_kwargs`` to every
    reconstruction. Returns ``(ref, reps, mean_rep)`` of the final round,
    in which the reference agrees with the cohort mean.
    """
    from .reconstruction import reconstruct

    kwargs = reconstruct_kwargs or {}
    mean_kwargs = mean_kwargs or {}
    ref = build_reference(meshes[0]) if reference is None else reference
    for _ in range(outer_iterations):
        reps = [encode(ref, mesh)[0] for mesh in meshes]
        mu = frechet_mean(reps, **mean_kwargs)
        mean_mesh, _ = reconstruct(ref, mu, **kwargs)
        ref = build_reference(mean_mesh)
    reps = [encode(ref, mesh)[0] for mesh in meshes]
    mu = frechet_mean(reps, **mean_kwargs)
    return ref, reps, mu
