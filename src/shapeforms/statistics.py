"""First and second moment statistics on shape representations.

A cohort is handled stacked: its logs at a base form one ``(n, E, 3)``
array and one ``(n, m, 3)`` array of stretch-log triples, built from the
``ShapeRep.log_stretches`` and ``ShapeRep.quaternions`` that each shape
holds (32 E bytes of quaternions); a call stacks the quaternions into
one ``(4, n, E)`` array. A pass over the cohort takes the relative
quaternions ``q conj(q_mu)`` of blocks of ``b`` shapes, ``(4, b, E)``
under ``_BLOCK_BYTES`` so that the temporaries stay small, and their
logarithms, all with the elementwise kernels of :mod:`liegroups`. The
moments form and convert no rotation matrix.

The mean is the Riemannian center of mass. Its stretch part is the
closed-form log-Euclidean mean, the average of the stretch logarithms
(Arsigny et al., "Log-Euclidean metrics for fast and simple calculus on
diffusion tensors", 2006). Its rotation part is the fixed point of
``mu <- exp(mean_i log(C_i mu^T)) mu``, each step taking the logs of the
whole cohort block by block and making the update one quaternion product;
it converges for well-localized data (all relative transition rotations
away from angle pi). The steps stay on quaternions, and a mean returned as
a shape holds the quaternions of the last product, at which its final
pass was taken, and the log-Euclidean mean. Shape and model files store
exactly these arrays, so a computed mean, the same mean supplied, and a
mean reloaded from a model file or a shape file give the same model, bit
for bit.

Principal modes come from the eigendecomposition of the Gram matrix of the
logs at the mean (Fletcher et al., "Principal geodesic analysis for the
study of nonlinear statistics of shape", 2004), reusing the logs of the
mean's last step. They have unit metric length, so mode coefficients are
plain inner products. A tangent vector is its ``(3E + 3m)`` coordinates
(see :class:`TangentRep`), and a model keeps its modes as the rows of one
``(k, 3E + 3m)`` matrix of them, so synthesizing a shape takes one matrix
product.

Projection onto modes has one path, :func:`_project`: the stacked logs of
the shapes at the mean, weighted, times the mode matrix, one coefficient
row per shape. :func:`coefficients` is its one-shape case; the CLI's
``pga --out-coeffs`` and ``features`` project a whole cohort through it,
and the leave-one-out generalization each held-out shape.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, MeshFormatError, ReferenceMismatchError
from .liegroups import (
    _check_each,
    _exp_quaternions,
    _quaternion_log,
    _quaternion_product,
)
from .reconstruction import _check_stopping, _converged_mesh, reconstruct
from .reference import build_reference
from .representation import (
    DistanceParams,
    ShapeRep,
    TangentRep,
    _TRIPLE_WEIGHTS,
    _check_binding,
    _check_finite,
    _check_same_reference,
    _check_tangent,
    _coordinate_weights,
    _encode_stack,
    _float_rows,
    _read_json,
    _shape_from_payload,
    _shape_payload,
    _tangent_from_payload,
    _tangent_payload,
    _tangent_size,
    _value,
    _write_json,
    rep_exp,
)

DEFAULT_MEAN_TOL = 1e-10
DEFAULT_MEAN_MAX_ITER = 50
#: Bound on the log-sum residual of a mean supplied to ``pga``, per shape.
DEFAULT_PGA_MEAN_TOL = 1e-6

#: Relative eigenvalue cutoff separating true modes from rank noise.
EIGENVALUE_CUTOFF = 1e-12

#: Byte budget of one block of stacked shapes (or draws) in the batched
#: rotation kernels. Their temporaries come to a few times the block, so
#: the analysis of a cohort needs little more memory than its logs.
_BLOCK_BYTES = 2**18


def _quaternion_stack(reps):
    """The held ``ShapeRep.quaternions`` of ``reps`` stacked into one
    writeable ``(4, n, E)`` array."""
    return np.stack([rep.quaternions for rep in reps], axis=1)


def _stretch_logs(reps, mu_logs):
    """Stretch parts ``(n, m, 3)`` of the logs of ``reps`` at the stretch
    log triples ``mu_logs``."""
    logs = np.stack([rep.log_stretches for rep in reps])
    logs -= mu_logs
    return logs


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


def _rotation_logs(quats, mu_q):
    """Rotation parts ``(n, E, 3)`` of the logs at the rotations with
    quaternions ``mu_q`` ``(4, E)`` of the shapes with quaternions ``quats``
    ``(4, n, E)``: one pass over a cohort.

    The relative quaternions ``q conj(mu_q)`` and their logs are taken in
    blocks of shapes under ``_BLOCK_BYTES``. As when :func:`rep_log` takes
    one shape at a time, a cut-locus error names the worst edge of the first
    shape at it.
    """
    out = np.empty(quats.shape[1:] + (3,))
    for block in _blocks(quats.shape[1], 32 * quats.shape[2]):
        relative = _quaternion_product(quats[:, block], mu_q, conjugate=True)
        out[block] = _quaternion_log(relative, "edge", check=_check_each)
    return out


def _residual(rot_total, stretch_total):
    """Unweighted product norm of a summed log, see :func:`mean_residual`."""
    return float(np.sqrt(2.0 * np.sum(rot_total**2)
                         + np.sum(stretch_total**2 * _TRIPLE_WEIGHTS)))


def mean_residual(mu, reps):
    """Norm of the summed logs at ``mu`` (zero exactly at the mean).

    Measured in the unweighted product norm (Frobenius norms of the skew
    and symmetric components); the metric weights only rescale it by a
    bounded factor, so the zero test is equivalent. ``reps`` must not be
    empty.
    """
    _check_same_reference(*reps)
    _check_same_reference(mu, reps[0])
    rot_logs = _rotation_logs(_quaternion_stack(reps), mu.quaternions)
    return _residual(rot_logs.sum(axis=0),
                     _stretch_logs(reps, mu.log_stretches).sum(axis=0))


def _mean_logs(quats, mu_q, mu_logs, log_mean, tol, max_iter, logs=None):
    """Fixed-point iteration for the Fréchet mean of the shapes with the
    quaternions ``quats`` ``(4, n, E)``.

    The iteration starts at the rotations with quaternions ``mu_q``
    ``(4, E)`` and at the stretch logarithms ``mu_logs``; after the first
    step the stretch part is the closed-form ``log_mean``, which must be
    the mean of the stretch logarithms of the shapes. The first pass reads
    the rotation logs ``(n, E, 3)`` of the shapes at the start from ``logs``
    when they are given. It stops when the summed logs have
    :func:`mean_residual` below ``tol``.

    A step is one quaternion product, ``exp(mean log) mu_q``, and the next
    pass is taken at that product. Returns the mean's quaternions (``mu_q``
    itself when no step was made), its stretch logarithms and the rotation
    logs ``(n, E, 3)`` of the shapes at it.
    """
    n = quats.shape[1]
    rot_logs = logs
    for _ in range(max_iter):
        if rot_logs is None:
            rot_logs = _rotation_logs(quats, mu_q)
        rot_total = rot_logs.sum(axis=0)
        # The stretch logs sum to n (log_mean - mu_logs).
        residual = _residual(rot_total, n * (log_mean - mu_logs))
        if residual < tol:
            return mu_q, mu_logs, rot_logs
        rot_logs = None  # the next pass runs without this one's logs
        mu_q = _quaternion_product(_exp_quaternions((1.0 / n) * rot_total), mu_q)
        mu_logs = log_mean
    raise ConvergenceError(
        f"mean iteration did not reach {tol:g} within {max_iter} steps "
        f"(residual {residual:.3g})"
    )


def _mean_and_logs(reps, tol, max_iter):
    """Fréchet mean of ``reps``, from ``reps[0]``, with the rotation and
    stretch logs ``(n, E, 3)``, ``(n, m, 3)`` of ``reps`` at it.

    ``reps[0]`` itself is returned when it already passes the test. Any
    other mean holds the quaternions of the iteration's last product and
    the log-Euclidean mean as its ``log_stretches``, so the logs returned
    are those at the quaternions it holds.
    """
    mu = reps[0]
    mu_q, mu_logs, rot_logs = _mean_logs(_quaternion_stack(reps), mu.quaternions,
                                         mu.log_stretches, _log_mean(reps), tol,
                                         max_iter)
    if mu_q is not mu.quaternions:
        mu = ShapeRep._from_parts(mu_q, mu_logs, mu.reference_hash)
    return mu, rot_logs, _stretch_logs(reps, mu_logs)


def frechet_mean(reps, tol=DEFAULT_MEAN_TOL, max_iter=DEFAULT_MEAN_MAX_ITER):
    """Riemannian center of mass of ``reps``.

    The stretch part is the log-Euclidean mean; the rotation part iterates
    from ``reps[0]`` until the summed logs at the candidate have norm below
    ``tol``, which takes a handful of steps for realistic spreads.

    Raises
    ------
    ValueError
        If ``tol`` is not positive and finite or ``max_iter`` is not a
        positive integer.
    ConvergenceError
        If the residual is still above ``tol`` after ``max_iter`` steps.
    """
    _check_stopping(tol, max_iter, 1)
    _check_same_reference(*reps)
    return _mean_and_logs(reps, tol, max_iter)[0]


@dataclass(frozen=True)
class PGAModel:
    """Mean, orthonormal principal modes, and per-mode variances.

    Modes are tangent vectors at the mean with unit metric norm;
    ``variances`` are the Gram eigenvalues divided by the sample count,
    in descending order. The model is immutable: at construction it stacks
    the modes' tangent coordinates once into a read-only ``(k, 3E + 3m)``
    mode matrix, which :func:`coefficients` and :func:`synthesize` use, and
    ``modes`` becomes a tuple of views of its rows. :func:`coefficients`
    takes every log at the mean's held ``quaternions`` and
    ``log_stretches``, which a file stores, so a loaded, a supplied and a
    computed mean project alike.

    The model also holds the intrinsic targets of the last
    :func:`~shapeforms.evaluation.specificity` call, so that calls at
    several mode counts on one cohort form them once. The entry is keyed by
    the ordered ``content_hash()`` values of the training shapes, formed
    again when the key changes and freed with the model. Its arrays and
    their size are those stated at
    :func:`~shapeforms.evaluation.specificity`.

    Raises
    ------
    ReferenceMismatchError
        If a mode is not a tangent vector at ``mean`` (another base point or
        another size), or if ``reference_hash`` is not the reference of
        ``mean``.
    ValueError
        If the number of variances is not the number of modes.
    """

    mean: ShapeRep
    modes: tuple
    variances: np.ndarray
    params: DistanceParams
    reference_hash: str

    def __post_init__(self):
        if self.reference_hash != self.mean.reference_hash:
            raise ReferenceMismatchError(
                f"model reference {self.reference_hash!r} is not its mean's "
                f"{self.mean.reference_hash!r}")
        for k, mode in enumerate(self.modes):
            _check_tangent(self.mean, mode, f"mode {k}")
        variances = np.asarray(self.variances, dtype=float)
        if variances.shape != (len(self.modes),):
            raise ValueError(f"{variances.size} variances for {len(self.modes)} modes")
        n_edges, base_hash = self.mean.n_edges, self.mean.content_hash()
        matrix = np.array([mode.coordinates for mode in self.modes], dtype=float)
        matrix = matrix.reshape(-1, _tangent_size(self.mean))
        matrix.flags.writeable = False
        # The modes become read-only views of the matrix rows.
        modes = tuple(TangentRep._from_coordinates(row, n_edges, base_hash)
                      for row in matrix)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "variances", variances)
        object.__setattr__(self, "_mode_matrix", matrix)
        object.__setattr__(self, "_specificity_targets", None)

    @property
    def n_modes(self):
        return len(self.modes)

    def save(self, path):
        """Write the model as JSON. The mean is the payload of a shape file,
        its quaternions and stretch logs, so that a loaded model projects
        and synthesizes with the bits of this one."""
        payload = {
            "reference_hash": self.reference_hash,
            "omega": self.params.omega,
            "variances": self.variances,
            "mean": _shape_payload(self.mean),
            "modes": [_tangent_payload(mode) for mode in self.modes],
        }
        _write_json(path, payload)

    @classmethod
    def load(cls, path):
        """Read a file written by :meth:`save`; its mean is read as a shape
        file is (see :func:`_shape_from_payload`). Invalid values, such as a
        non-finite mode entry, a mean quaternion off unit norm or a mode of
        another size than the mean's, raise :class:`MeshFormatError`."""
        payload = _read_json(path)
        reference_hash = _value(payload, "reference_hash", path, kind=str)
        mean = _shape_from_payload(_value(payload, "mean", path), reference_hash, path)
        base_hash = mean.content_hash()
        variances = _float_rows(payload, "variances", None, path)
        _check_finite(variances.reshape(-1, 1), path, "variance")
        modes = [_tangent_from_payload(entry, base_hash, path, f"mode {k}")
                 for k, entry in enumerate(_value(payload, "modes", path, kind=list))]
        try:
            return cls(mean=mean, modes=modes, variances=variances,
                       params=DistanceParams(_value(payload, "omega", path, kind=float)),
                       reference_hash=reference_hash)
        except (ReferenceMismatchError, ValueError) as exc:
            raise MeshFormatError(str(exc), path=path) from exc


def _principal_modes(weights, rot_logs, stretch_logs):
    """Variances ``(k,)`` and mode matrix ``(k, 3E + 3m)`` of the stacked
    logs at a mean, in the metric of the :func:`_coordinate_weights`
    ``weights``.

    The summed logs must vanish (residual at most ``DEFAULT_PGA_MEAN_TOL``
    per shape). Eigenvalues below ``EIGENVALUE_CUTOFF`` times the largest
    are discarded as numerical rank noise, and at most ``n - 1`` modes kept.
    """
    n = rot_logs.shape[0]
    residual = _residual(rot_logs.sum(axis=0), stretch_logs.sum(axis=0))
    if residual > DEFAULT_PGA_MEAN_TOL * max(n, 1):
        raise ValueError(
            f"supplied base point is not the mean (log-sum residual {residual:.3g})"
        )
    # The Gram matrix part by part, so the logs are never concatenated.
    n_edges = rot_logs.shape[1]
    parts = (rot_logs.reshape(n, -1), stretch_logs.reshape(n, -1))
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


def _mean_and_modes(ref, reps, mu, params):
    """The mean of ``reps`` (``mu``, or computed when it is ``None``) with
    the variances and mode matrix of :func:`_principal_modes`."""
    if mu is None:
        mu, rot_logs, stretch_logs = _mean_and_logs(
            reps, DEFAULT_MEAN_TOL, DEFAULT_MEAN_MAX_ITER)
    else:
        rot_logs = _rotation_logs(_quaternion_stack(reps), mu.quaternions)
        stretch_logs = _stretch_logs(reps, mu.log_stretches)
    return (mu,) + _principal_modes(_coordinate_weights(ref, params), rot_logs,
                                    stretch_logs)


def pga(ref, reps, mu=None, params=DistanceParams()):
    """Principal geodesic analysis of ``reps`` around their mean.

    ``mu`` must be the Fréchet mean (the residual of the summed logs is at
    most ``DEFAULT_PGA_MEAN_TOL`` per shape); when it is not supplied, it
    is computed and the logs of its last step serve the analysis. Eigenvalues below
    ``EIGENVALUE_CUTOFF`` times the largest are discarded as numerical rank
    noise. A shape or ``mu`` encoded on another reference than ``ref``
    raises :class:`ReferenceMismatchError`.
    """
    _check_binding(ref, *reps)
    if mu is not None:
        _check_binding(ref, mu)
    mu, variances, matrix = _mean_and_modes(ref, reps, mu, params)
    base_hash = mu.content_hash()
    modes = [TangentRep._from_coordinates(row, mu.n_edges, base_hash) for row in matrix]
    return PGAModel(
        mean=mu,
        modes=modes,
        variances=variances,
        params=params,
        reference_hash=reps[0].reference_hash,
    )


def _project(rot_logs, stretch_logs, matrix, weights):
    """Coefficient rows ``(n, k)`` of shapes on the modes in the rows of
    ``matrix`` ``(k, 3E + 3m)``, from their rotation and stretch logs
    ``(n, E, 3)`` and ``(n, m, 3)`` at the model's mean.

    ``weights`` are the :func:`_coordinate_weights`. A stack of
    ``(1, 3E + 3m)`` rows times the mode matrix is one matrix-vector
    product per row, so a row has the same bits whether its shape is
    projected alone or in a cohort, which one ``(n, 3E + 3m)`` matrix
    product would not keep.
    """
    n = len(rot_logs)
    logs = np.concatenate((rot_logs.reshape(n, -1), stretch_logs.reshape(n, -1)),
                          axis=1)
    logs *= weights
    return (logs[:, None, :] @ matrix.T)[:, 0]


def _coefficient_rows(ref, model, reps):
    """Mode coefficients ``(n, k)`` of ``reps`` in ``model``, see :func:`_project`."""
    _check_binding(ref, model.mean, *reps)
    return _project(_rotation_logs(_quaternion_stack(reps), model.mean.quaternions),
                    _stretch_logs(reps, model.mean.log_stretches), model._mode_matrix,
                    _coordinate_weights(ref, model.params))


def coefficients(ref, model, rep):
    """Mode coefficients of ``rep``: inner products with the modes, the
    one-shape case of :func:`_coefficient_rows`. A model or shape encoded
    on another reference than ``ref`` raises :class:`ReferenceMismatchError`."""
    return _coefficient_rows(ref, model, [rep])[0]


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


def _check_count(name, value, least):
    """Raise ``ValueError`` unless the count ``value`` is an integer
    (``numbers.Integral``) of at least ``least``."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        bound = "must not be negative" if least == 0 else f"must be at least {least}"
        raise ValueError(f"{name} {bound}, got {value}")


def _mode_count(model, modes):
    """``modes`` checked as a number of the model's leading modes."""
    _check_count("mode count", modes, 0)
    if modes > model.n_modes:
        raise ValueError(f"requested {modes} of {model.n_modes} modes")
    return int(modes)


def sample(model, count, seed, n_modes=None):
    """Draw shapes from the model's Gaussian coefficient distribution.

    ``n_modes`` (default all) leading modes are drawn.

    Raises
    ------
    ValueError
        If ``count`` is not a non-negative integer, or ``n_modes`` not an
        integer from 0 to the model's mode count.
    """
    return [synthesize(model, a)
            for a in _sample_coefficients(model, count, seed, n_modes)]


def _sample_coefficients(model, count, seed, n_modes=None):
    """The ``(count, n_modes)`` coefficient draws behind :func:`sample`."""
    _check_count("sample count", count, 0)
    n_modes = model.n_modes if n_modes is None else _mode_count(model, n_modes)
    rng = np.random.default_rng(seed)
    std = np.sqrt(model.variances[:n_modes])
    return rng.standard_normal(size=(count, n_modes)) * std


def unbiased_reference(meshes, outer_iterations=2, reference=None, mean_kwargs=None):
    """Re-center the reference on the cohort mean.

    Starting from ``reference`` (by default the first mesh as reference),
    alternates: encode the cohort, compute the mean, reconstruct the mean
    shape, and promote it to the new reference. ``mean_kwargs`` go to every
    :func:`frechet_mean` call. Returns ``(ref, reps, mean_rep)`` of the
    final round, in which the reference agrees with the cohort mean.

    Raises
    ------
    ConvergenceError
        If a mean or a reconstruction of the mean does not converge.
    """
    mean_kwargs = mean_kwargs or {}
    ref = build_reference(meshes[0]) if reference is None else reference
    for k in range(outer_iterations):
        reps = _encode_stack(ref, meshes)[0]
        mu = frechet_mean(reps, **mean_kwargs)
        ref = build_reference(_converged_mesh(reconstruct(ref, mu),
                                              f"the mean in round {k + 1}"))
    reps = _encode_stack(ref, meshes)[0]
    mu = frechet_mean(reps, **mean_kwargs)
    return ref, reps, mu
