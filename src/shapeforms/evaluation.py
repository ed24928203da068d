"""Model quality measures, classification harness, and baselines.

Specificity, generalization ability, and compactness quantify how a
fitted model relates to its training cohort. Classification uses a linear
soft-margin SVM on mode coefficients with Monte-Carlo cross-validation
over class-balanced splits; a point-distribution model (rigid Procrustes
alignment plus vertex PCA) serves as the baseline feature extractor.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ReferenceMismatchError
from .liegroups import (
    _PI_MARGIN,
    _exp_quaternions,
    _quaternion_log,
    _quaternion_product,
    _rotation_angle,
)
from .reconstruction import _check_stopping, _converged_mesh, prefactor, reconstruct
from .representation import (
    DistanceParams,
    ShapeRep,
    TangentRep,
    _check_binding,
    _coordinate_weights,
    _exp_distances,
    _float_rows,
    _read_json,
    _value,
    _write_json,
    rep_exp,
)
from .statistics import (
    DEFAULT_MEAN_MAX_ITER,
    DEFAULT_MEAN_TOL,
    _blocks,
    _check_count,
    _log_mean,
    _mean_logs,
    _mode_count,
    _principal_modes,
    _project,
    _quaternion_stack,
    _sample_coefficients,
    _stretch_logs,
    pga,
    synthesize,
)

DEFAULT_SVM_ITERATIONS = 600
DEFAULT_CV_DRAWS = 200
#: Byte budget of one stacked per-draw array in ``monte_carlo_cv``. Draws
#: are trained in as few blocks as keep each array below it. The iterations
#: read only the stacked Grams, which a block this small keeps in a core's
#: L2 cache over all of them.
_SVM_BLOCK_BYTES = 2**20


# ---------------------------------------------------------------------------
# model quality measures


def _align_to(target, configs):
    """Rigidly align ``configs`` to ``target`` (Kabsch, proper rotations only).

    Both are ``(V, 3)`` vertex arrays or stacks ``(..., V, 3)`` that
    broadcast against each other, so one call aligns a whole cohort with
    one batched SVD. Each configuration is rotated about its centroid and
    placed at its target's centroid.
    """
    P = configs - configs.mean(axis=-2, keepdims=True)
    centroid = target.mean(axis=-2, keepdims=True)
    Q = target - centroid
    U, _, Vt = np.linalg.svd(np.swapaxes(P, -1, -2) @ Q)
    V = np.swapaxes(Vt, -1, -2)
    Ut = np.swapaxes(U, -1, -2)
    flip = np.ones(V.shape[:-1])
    flip[..., 2] = np.sign(np.linalg.det(V @ Ut))
    R = (V * flip[..., None, :]) @ Ut
    return P @ np.swapaxes(R, -1, -2) + centroid


def _aligned_rms(target, configs):
    """Vertex RMS distance of ``configs`` to ``target`` after rigid alignment."""
    residual = _align_to(target, configs) - target
    return np.sqrt(np.mean(np.sum(residual**2, axis=-1), axis=-1))


def _check_metric(metric):
    """Refuse a ``metric`` other than ``"intrinsic"`` and ``"vertex"``."""
    if metric not in ("intrinsic", "vertex"):
        raise ValueError(f"unknown metric {metric!r}")


def _search(ref, reps, metric, weights):
    """The nearest-target search of ``metric`` for a measure of ``reps``,
    picked once: ``search(mean, a, matrix, targets, rows, label)`` yields,
    block by block of rows of ``a``, the distances ``(b,)`` of the shapes
    ``exp_mean(a @ matrix)`` to their nearest target. ``"intrinsic"`` is
    :func:`_nearest_distances` of the :func:`_nearest_targets` ``targets``;
    ``"vertex"`` reconstructs each of ``reps`` once, here, and is
    :func:`_vertex_distances` against those of ``reps[rows]``."""
    if metric == "intrinsic":
        return lambda mean, a, matrix, targets, rows, label: _nearest_distances(
            a, matrix, targets, weights)
    system = prefactor(ref)
    vertices = np.stack([_converged_mesh(reconstruct(ref, t, system=system),
                                         f"training shape {k}").vertices
                         for k, t in enumerate(reps)])
    return lambda mean, a, matrix, targets, rows, label: _vertex_distances(
        ref, system, mean, a, matrix, vertices[rows], label)


def _vertex_distances(ref, system, mean, a, matrix, vertices, label):
    """Yield, row by row of ``a``, the distance ``(1,)`` of the shape
    ``exp_mean(row @ matrix)`` to its nearest target: the smallest
    :func:`_aligned_rms` of its mesh, reconstructed on ``system``
    (``ConvergenceError`` names ``label(k)`` for row ``k``), against the
    target vertices ``(n, V, 3)``."""
    for k, row in enumerate(a):
        v = TangentRep._from_coordinates(row @ matrix, mean.n_edges,
                                         mean.content_hash())
        mesh = _converged_mesh(reconstruct(ref, rep_exp(mean, v), system=system),
                               label(k))
        yield np.min(_aligned_rms(vertices, mesh.vertices), keepdims=True)


def _nearest_targets(mean, shapes):
    """The ``shapes`` as :func:`_nearest_distances` targets at the shape
    ``mean``: the unit quaternions ``(4, n, E)`` of their relative
    rotations, each product of a shape's held quaternions written straight
    into the array, their stretch log triples ``(n, 3m)``, and the angles
    ``(n, E)`` of those relative rotations. The shapes must be bound to the
    mean's reference."""
    relative = np.empty((4, len(shapes), mean.n_edges))
    for k, rep in enumerate(shapes):
        relative[:, k] = _quaternion_product(rep.quaternions, mean.quaternions,
                                             conjugate=True)
    stretch_logs = _stretch_logs(shapes, mean.log_stretches)
    return relative, stretch_logs.reshape(len(shapes), -1), _rotation_angle(relative)


def _nearest_distances(a, matrix, targets, weights):
    """Yield, block by block of rows of ``a``, the distances ``(b,)`` of the
    shapes ``exp_mu(a @ matrix)`` to their nearest target among the
    :func:`_nearest_targets` at ``mu``, in the metric of the
    :func:`_coordinate_weights` ``weights``. Specificity searches the
    training shapes; generalization is the one-target case, the held-out
    shape. Each sample's rotations are exponentiated once, for all of its
    targets, and its distance to a target is :func:`_exp_distances`.

    The search is exact, and measures only the targets that can be the
    nearest, as triangle-inequality pruning does for k-means (Elkan,
    "Using the triangle inequality to accelerate k-means", 2003). A
    sample's tangent vector ``xi`` has the edge angles ``phi = |xi_e|``,
    and a target's relative rotations at ``mu`` the angles ``theta_t``. By
    the triangle inequality of the bi-invariant angle metric, the angle
    between the sample's and the target's rotation of an edge lies between
    ``|phi - theta_t|`` and ``phi + theta_t``, for ``phi < pi``. So the
    squared distance to ``t`` is at least ``LB_t^2 = sum w (phi -
    theta_t)^2 + |stretch difference|^2``, whose stretch part is exact; both
    parts expand into products over the coordinates, formed for a block of
    samples at once. A sample's target with the smallest bound is measured
    exactly, then every target whose bound is within a rounding margin,
    derived in the code, of that distance. Every other target's computed
    distance is at least the smallest one, so the minimum is over the same
    exact distances as a search of all targets. With one target there is
    nothing to prune: no bound is formed, and a block of samples is
    measured in one :func:`_exp_distances` call.

    A sample whose upper bound ``phi + theta_t`` on some edge reaches
    ``pi - 2 _PI_MARGIN`` for some target may be at the cut locus, or have
    ``|xi_e| >= pi``; it is measured against every target in order, so
    that the first sample at the cut locus raises the ``CutLocusError`` of
    the exhaustive search, naming the same edge. The second margin covers
    the rounding of the angles. Blocks of samples, and of the targets a
    sample is measured against in one call, are sized by a sample's own
    arrays under ``_BLOCK_BYTES``: its ``D`` coordinates and the ``4E``
    quaternion entries of its rotations.
    """
    relative, stretch_logs, theta = targets
    n_edges = theta.shape[1]
    split = 3 * n_edges
    rot_w, stretch_w = weights[:split:3], weights[split:]
    target_sq = (theta * theta) @ rot_w + (stretch_logs * stretch_logs) @ stretch_w
    # phi + theta_t stays below the limit at every edge and target when
    # phi + the largest theta_t of the edge does; rounding keeps the order.
    reach = np.max(theta, axis=0)
    limit = np.pi - 2.0 * _PI_MARGIN
    # The rounding margin, in EPS = 2u for the unit roundoff u; a sum of D
    # terms rounds by at most D/2 EPS of the sum of their magnitudes.
    # - The bound sums D positive terms into the sample's and the target's
    #   squares, whose sum is ``scale``, and D into the cross term, with
    #   |2 cross| <= scale; so it is within (D + 4) EPS scale of its value
    #   in the computed angles.
    # - Each edge's computed angle is at least |phi - theta| - 8 EPS (phi +
    #   theta) (pinned by TestAngleBounds), so its square is at least
    #   (phi - theta)^2 - 32 EPS (phi^2 + theta^2): 32 EPS scale in all.
    # - The exact distance and its square round by (D/2 + 4) EPS of best^2.
    # So (D + 64) EPS (scale + best^2) covers the difference between the
    # bound and any computed distance, and no pruned target's computed
    # distance is below the smallest measured one.
    slack = (matrix.shape[1] + 64) * np.finfo(float).eps
    item_bytes = 8 * max(4 * n_edges, matrix.shape[1])
    for block in _blocks(len(a), item_bytes):
        vectors = a[block] @ matrix
        rot = vectors[:, :split].reshape(len(vectors), n_edges, 3)
        quaternions = _exp_quaternions(rot)
        stretch = vectors[:, split:]
        if len(theta) == 1:
            # Nothing to prune: the block is measured against its one target.
            yield _exp_distances(quaternions, stretch, relative[:, 0], stretch_logs[0],
                                 weights)
            continue
        x, y, z = np.moveaxis(rot, -1, 0)
        phi = np.sqrt(x * x + y * y + z * z)
        w_phi = phi * rot_w
        w_stretch = stretch * stretch_w
        scale = (np.einsum("be,be->b", w_phi, phi)
                 + np.einsum("bc,bc->b", w_stretch, stretch))[:, None] + target_sq
        bound = scale - 2.0 * (w_phi @ theta.T + w_stretch @ stretch_logs.T)
        # A NaN fails the comparison and takes the exhaustive search.
        exhaustive = ~np.all(phi + reach < limit, axis=1)
        nearest = np.empty(len(vectors))
        for k in range(len(vectors)):
            q, s = quaternions[:, k], stretch[k]
            if exhaustive[k]:
                best, near = np.inf, np.arange(len(theta))
            else:
                first = np.argmin(bound[k])
                best = _exp_distances(q, s, relative[:, first], stretch_logs[first],
                                      weights)
                near = np.flatnonzero(
                    bound[k] <= best * best + slack * (scale[k] + best * best))
                near = near[near != first]
            # np.minimum keeps a NaN distance, as the minimum over all does.
            for part in _blocks(len(near), item_bytes):
                t = near[part]
                best = np.minimum(best, np.min(_exp_distances(
                    q, s, relative[:, t], stretch_logs[t], weights)))
            nearest[k] = best
        yield nearest


def specificity(ref, model, training, n_samples=1000, modes=None, metric="intrinsic",
                seed=0):
    """Mean distance of model samples to their nearest training shape.

    ``modes`` (default all) leading modes are sampled. One path serves both
    metrics, which choose only the distance: ``"intrinsic"`` measures in
    tangent coordinates at the model mean, forming no sampled shape;
    ``"vertex"`` reconstructs each training shape and each sample once and
    measures vertex RMS after rigid alignment (a pragmatic stand-in for
    physically based surface distances), raising ``ConvergenceError`` for
    a reconstruction that does not converge.

    The intrinsic nearest shape is found by the exact search of
    :func:`_nearest_distances`, of which :func:`generalization_curve` is
    the one-target case: lower bounds from the triangle inequality of the
    angle metric leave the rotation angle kernel only the training shapes
    that a sample can be nearest to, and the minimum is over the same exact
    distances as a search of all of them (a sum over a different count of
    rows may round them differently, by an ulp). A ``CutLocusError`` is
    raised as by that search, for the first sample at the cut locus of any
    training shape, nearest or not.
    """
    if not training:
        raise ValueError("training set is empty")
    _check_count("n_samples", n_samples, 1)
    _check_metric(metric)
    n_modes = model.n_modes if modes is None else _mode_count(model, modes)
    _check_binding(ref, model.mean, *training)
    search = _search(ref, training, metric, _coordinate_weights(ref, model.params))
    targets = _nearest_targets(model.mean, training) if metric == "intrinsic" else None
    return _specificity(model, search, targets, n_samples, n_modes, seed)


def _specificity(model, search, targets, n_samples, n_modes, seed):
    """:func:`specificity` by the :func:`_search` ``search`` of the training
    shapes, with their :func:`_nearest_targets` at the model mean for the
    intrinsic one."""
    draws = _sample_coefficients(model, n_samples, seed, n_modes)
    total = 0.0
    for d in search(model.mean, draws, model._mode_matrix[:n_modes], targets,
                    slice(None), lambda k: f"specificity sample {k}"):
        total += float(np.sum(d))
    return total / n_samples


def generalization_curve(ref, reps, max_modes=None, params=DistanceParams(),
                         metric="intrinsic"):
    """Leave-one-out reconstruction error per mode count.

    Each fold fits mean and modes on the remaining shapes, projects the
    held-out shape, and measures the distance of the projection to it.
    Returns an array indexed by mode count ``1 .. max_modes``. The distance
    is that of :func:`specificity` with the held-out shape as the one
    target: the same search serves both measures, for either metric;
    ``"vertex"`` reconstructs each shape and each distinct projection once.
    """
    if len(reps) < 3:
        raise ValueError("need at least three shapes for leave-one-out")
    # Folds expose at most len(reps) - 2 modes; later counts repeat the last.
    if max_modes is None:
        max_modes = len(reps) - 2
    _check_count("max_modes", max_modes, 1)
    _check_metric(metric)
    weights = _coordinate_weights(ref, params)
    return _generalization(ref, reps, max_modes, weights,
                           _search(ref, reps, metric, weights))


def _generalization(ref, reps, max_modes, weights, search):
    """:func:`generalization_curve` by the :func:`_search` ``search`` of
    ``reps``, in the metric of the :func:`_coordinate_weights` ``weights``.

    A fold's rotation mean is sought from the full cohort's, and its stretch
    log mean is the exact downdate ``(n mean - L_i) / (n - 1)``. Only the
    distinct prefixes of the held-out coefficients are measured.

    The quaternions of the shapes and their logs at the full mean are each
    held once, in the order of fold 0, ``1, ..., n - 1, 0``. Fold ``i > 0``
    swaps columns ``i - 1`` and ``n - 1``, after which the first ``n - 1``
    columns are its shapes in their own order and the last is the held-out
    one. The first pass of a fold's mean would be taken at the full mean, so
    it reads the full mean's last-pass logs of its shapes instead. The
    held-out shape is the one :func:`_nearest_targets` target at the fold
    mean, formed once; its log is projected and it is searched.
    """
    _check_binding(ref, *reps)
    n = len(reps)
    log_mean = _log_mean(reps)
    quats = _quaternion_stack(reps[1:] + reps[:1])
    full_mean, _, logs = _mean_logs(quats, reps[0].quaternions, log_mean, log_mean,
                                    DEFAULT_MEAN_TOL, DEFAULT_MEAN_MAX_ITER)
    errors = np.zeros((n, max_modes))
    for i, held_out in enumerate(reps):
        if i:
            quats[:, [i - 1, n - 1]] = quats[:, [n - 1, i - 1]]
            logs[[i - 1, n - 1]] = logs[[n - 1, i - 1]]
        rest = reps[:i] + reps[i + 1:]
        fold_log_mean = (n * log_mean - held_out.log_stretches) / (n - 1)
        mu, _, rot_logs = _mean_logs(quats[:, :-1], full_mean, fold_log_mean,
                                     fold_log_mean, DEFAULT_MEAN_TOL,
                                     DEFAULT_MEAN_MAX_ITER, logs=logs[:-1])
        matrix = _principal_modes(weights, rot_logs,
                                  _stretch_logs(rest, fold_log_mean))[1]
        del rot_logs  # the distances below run without the fold's logs
        fold_mean = ShapeRep._from_parts(mu, fold_log_mean, held_out.reference_hash)
        targets = _nearest_targets(fold_mean, [held_out])
        a = _project(_quaternion_log(targets[0], "edge"), targets[1], matrix,
                     weights)[0]
        used = np.minimum(np.arange(1, max_modes + 1), a.size)
        distinct = np.unique(used)
        prefixes = a * (np.arange(a.size) < distinct[:, None])
        d = np.concatenate(list(search(
            fold_mean, prefixes, matrix, targets, slice(i, i + 1),
            lambda k: f"shape {i} projected on {distinct[k]} modes")))
        errors[i] = d[np.searchsorted(distinct, used)]
        # The next fold's mean iteration runs without this fold's arrays.
        del mu, matrix, targets, a, prefixes, fold_mean
    return errors.mean(axis=0)


def compactness(model, modes):
    """Cumulative share of variance captured by the first ``modes`` modes."""
    modes = _mode_count(model, modes)
    total = float(np.sum(model.variances))
    if total == 0.0:
        return 1.0
    return float(np.sum(model.variances[:modes]) / total)


@dataclass
class MetricsReport:
    """Specificity/generalization/compactness curves over mode counts."""

    modes: np.ndarray
    specificity: np.ndarray
    generalization: np.ndarray
    compactness: np.ndarray

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("modes,specificity,generalization,compactness\n")
            for row in zip(
                self.modes, self.specificity, self.generalization, self.compactness
            ):
                handle.write(
                    f"{int(row[0])},{row[1]:.17g},{row[2]:.17g},{row[3]:.17g}\n"
                )


def metrics_report(ref, reps, params=DistanceParams(), n_samples=1000,
                   metric="intrinsic", seed=0, max_modes=None):
    """Evaluate all three quality measures on a cohort; in the vertex
    metric each training shape is reconstructed once for all of them."""
    _check_count("n_samples", n_samples, 1)
    if max_modes is not None:
        _check_count("max_modes", max_modes, 1)
    _check_metric(metric)
    if len(reps) < 3:
        raise ValueError("need at least three shapes for leave-one-out")
    model = pga(ref, reps, params=params)
    if model.n_modes == 0:
        raise ValueError("the shapes do not vary: the model has no modes")
    cap = model.n_modes if max_modes is None else min(max_modes, model.n_modes)
    mode_counts = np.arange(1, cap + 1)
    weights = _coordinate_weights(ref, model.params)
    search = _search(ref, reps, metric, weights)
    targets = _nearest_targets(model.mean, reps) if metric == "intrinsic" else None
    spec = np.array([_specificity(model, search, targets, n_samples, int(k), seed)
                     for k in mode_counts])
    del targets  # the folds below run without them
    gen = _generalization(ref, reps, cap, weights, search)
    comp = np.array([compactness(model, int(k)) for k in mode_counts])
    return MetricsReport(modes=mode_counts, specificity=spec, generalization=gen,
                         compactness=comp)


# ---------------------------------------------------------------------------
# linear SVM on coefficients


@dataclass
class ClassifierModel:
    """Linear decision rule ``sign(features @ eta + bias)``.

    Trained on centered features scaled by one pooled factor (per-column
    unit variance would inflate low-variance modes into pure noise
    features and drown the informative directions). ``eta`` and ``bias``
    below are de-standardized back into raw coefficient space, so the
    discriminating direction can be synthesized directly.

    The fields may carry a leading axis of draws, as in
    :func:`monte_carlo_cv`: ``weights_std``, ``feature_mean`` and
    ``feature_std`` ``(draws, d)`` and ``bias_std`` ``(draws,)``. Each
    draw's rule then applies to its own features ``(draws, t, d)``.
    """

    weights_std: np.ndarray
    bias_std: float
    feature_mean: np.ndarray
    feature_std: np.ndarray
    regularization: float

    @property
    def eta(self):
        return self.weights_std / self.feature_std

    @property
    def bias(self):
        return self.bias_std - (
            self.weights_std * self.feature_mean / self.feature_std).sum(axis=-1)

    def decision_function(self, features):
        features = np.atleast_2d(np.asarray(features, dtype=float))
        return (features @ self.eta[..., None])[..., 0] + np.asarray(self.bias)[..., None]

    def predict(self, features):
        return np.where(self.decision_function(features) >= 0.0, 1, -1)

    def save(self, path):
        payload = {
            "weights_std": self.weights_std,
            "bias_std": self.bias_std,
            "feature_mean": self.feature_mean,
            "feature_std": self.feature_std,
            "regularization": self.regularization,
        }
        _write_json(path, payload)

    @classmethod
    def load(cls, path):
        """Read a file written by :meth:`save`; a missing key or a value of
        another type raises :class:`MeshFormatError`."""
        payload = _read_json(path)
        return cls(
            weights_std=_float_rows(payload, "weights_std", None, path),
            bias_std=float(_value(payload, "bias_std", path, kind=float)),
            feature_mean=_float_rows(payload, "feature_mean", None, path),
            feature_std=_float_rows(payload, "feature_std", None, path),
            regularization=float(_value(payload, "regularization", path, kind=float)),
        )


def _train_stack(X, y, reg, n_iterations):
    """Train one linear SVM per draw of stacked splits, all at once.

    ``X`` is ``(draws, n, d)`` raw features and ``y`` the ``(draws, n)``
    labels in {-1, +1}. Each draw is centered by its own mean and divided
    by its own pooled scale. On the objective ``0.5 / reg * |w|^2 + mean
    hinge``, with the bias not regularized, it takes ``n_iterations``
    full-batch subgradient steps of size ``1/(alpha t)`` (Pegasos,
    Shalev-Shwartz et al. 2007) and averages the iterates of the last half.
    It stops there and measures no optimality gap.

    The steps run in the ``n``-dimensional dual. With ``Z`` the
    label-signed rows and ``c_t`` the count of steps in which each row was
    active, ``w_t = Z^T c_t / (alpha n t)``, so ``alpha n t`` times the
    margins are ``[K | alpha n y] @ [c_t; t b_t]`` with ``K = Z Z^T``. A
    step costs ``n (n + 1)`` per draw; ``d`` enters only in forming ``K``
    and in reading out the weights. Returns the :class:`ClassifierModel`
    of all draws, with a leading draw axis.
    """
    _check_count("n_iterations", n_iterations, 2)
    draws, n, d = X.shape
    mean = X.mean(axis=1)
    centered = X - mean[:, None, :]
    # One pooled scale: relative variances between modes are informative
    # and must survive normalization.
    pooled = np.sqrt(np.mean(centered**2, axis=(1, 2)))
    scale = np.where(pooled > 0.0, pooled, 1.0)
    Z = centered / scale[:, None, None] * y[..., None]
    alpha = 1.0 / reg
    gram = np.empty((draws, n, n + 1))
    gram[..., :n] = Z @ np.swapaxes(Z, 1, 2)
    gram[..., n] = alpha * n * y
    u = np.zeros((draws, n + 1))  # [c_t; t b_t]
    c = u[:, :n]
    b = np.zeros(draws)
    c_sum = np.zeros((draws, n))
    b_sum = np.zeros(draws)
    margins = np.empty((draws, n))  # alpha n t times the margins of step t
    tail = n_iterations // 2
    active = np.ones((draws, n))  # the margins of v_0 = 0 are all 0
    for t in range(1, n_iterations + 1):
        c += active
        # The signed count of active rows is an exact integer sum, so the
        # bias takes the primal subgradient step bit for bit.
        signed = (active[:, None, :] @ y[..., None])[:, 0, 0]
        b = b + 1.0 / (alpha * t) * (signed / n)
        u[:, n] = t * b
        if t > n_iterations - tail:
            c_sum += c / t
            b_sum += b
        np.matmul(gram, u[..., None], out=margins[..., None])
        np.less(margins, alpha * n * t, out=active)
    weights = (c_sum[:, None, :] @ Z)[:, 0] / (alpha * n * tail)
    return ClassifierModel(weights_std=weights, bias_std=b_sum / tail,
                           feature_mean=mean,
                           feature_std=np.repeat(scale[:, None], d, axis=1),
                           regularization=reg)


def _svm_data(features, labels):
    """``features`` as an ``(n, d)`` float array and ``labels`` as ``n``
    floats, which hold both classes -1 and +1 and no other value."""
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("features must be (n, d) with one label per row")
    classes = np.unique(y)
    if not np.array_equal(classes, [-1.0, 1.0]):
        raise ValueError(f"labels must contain both classes -1 and +1, got {classes}")
    return X, y


def train_svm(features, labels, reg=1.0, n_iterations=DEFAULT_SVM_ITERATIONS):
    """Soft-margin linear SVM via deterministic full-batch subgradient descent.

    Takes ``n_iterations`` (at least 2) subgradient steps with a ``1/t``
    step size on ``0.5 / reg * |w|^2 + mean hinge`` over centered,
    globally-scaled features, and averages the iterates of the last
    ``n_iterations // 2`` steps. It stops after those steps and reports no
    optimality gap, so the result approximates the minimizer to an unknown
    degree. Each step costs ``n (n + 1)`` for ``n`` rows; the feature count
    ``d`` enters only in forming the rows' Gram matrix and reading out the
    weights. Duplicating rows or rescaling all features leaves the
    decision rule unchanged. This is the one-draw case of the kernel that
    ``monte_carlo_cv`` trains its draws with.
    """
    X, y = _svm_data(features, labels)
    stack = _train_stack(X[None], y[None], reg, n_iterations)
    return ClassifierModel(
        weights_std=stack.weights_std[0],
        bias_std=float(stack.bias_std[0]),
        feature_mean=stack.feature_mean[0],
        feature_std=stack.feature_std[0],
        regularization=reg,
    )


def monte_carlo_cv(features, labels, train_share, draws=DEFAULT_CV_DRAWS, reg=1.0,
                   seed=0, n_iterations=DEFAULT_SVM_ITERATIONS):
    """Accuracy of the SVM under repeated class-balanced random splits.

    Each draw trains on ``round(train_share * n_min)`` samples per class
    (``n_min`` the smaller class size) and tests on the complement.
    Returns mean and standard deviation of the accuracy over ``draws >= 1``
    draws. All splits are drawn first; the draws are then trained together
    by the ``train_svm`` kernel and tested by the one
    :class:`ClassifierModel` of their block's draws, in as few blocks as
    keep each stacked array under ``_SVM_BLOCK_BYTES``, which bounds the
    memory: the features ``(draws, rows, d)`` of the training and of the
    test rows, and the Grams ``(draws, n, n + 1)`` of the ``n`` training
    rows. Neither the block size nor the number of draws changes any
    draw's result. The labels are checked as by ``train_svm``: -1 and +1,
    both present.
    """
    if not 0.0 < train_share < 1.0:
        raise ValueError("train_share must be in (0, 1)")
    _check_count("draws", draws, 1)
    X, y = _svm_data(features, labels)
    idx_pos = np.nonzero(y == 1)[0]
    idx_neg = np.nonzero(y == -1)[0]
    k = int(round(train_share * min(idx_pos.size, idx_neg.size)))
    k = max(k, 1)
    if k >= idx_pos.size or k >= idx_neg.size:
        raise ValueError(
            f"train share {train_share} leaves no test samples for some class"
        )

    rng = np.random.default_rng(seed)
    splits = np.empty((draws, idx_pos.size + idx_neg.size), dtype=int)
    for row in splits:
        pos = rng.permutation(idx_pos)
        neg = rng.permutation(idx_neg)
        row[:] = np.concatenate([pos[:k], neg[:k], pos[k:], neg[k:]])
    train, test = splits[:, : 2 * k], splits[:, 2 * k:]

    d = X.shape[1]
    n = train.shape[1]
    per_draw = X.itemsize * max(n * max(d, n + 1), test.shape[1] * d)
    block = max(1, _SVM_BLOCK_BYTES // per_draw)
    accuracies = np.empty(draws)
    for lo in range(0, draws, block):
        rows = slice(lo, lo + block)
        model = _train_stack(X[train[rows]], y[train[rows]], reg, n_iterations)
        predicted = model.predict(X[test[rows]])
        accuracies[rows] = np.mean(predicted == y[test[rows]], axis=1)
    return float(accuracies.mean()), float(accuracies.std())


def accuracy_curve(features, labels, shares, draws=DEFAULT_CV_DRAWS, reg=1.0,
                   seed=0, n_iterations=DEFAULT_SVM_ITERATIONS):
    """Mean/std accuracy for a sequence of training shares."""
    rows = []
    for share in shares:
        mean, std = monte_carlo_cv(
            features, labels, share, draws=draws, reg=reg, seed=seed,
            n_iterations=n_iterations,
        )
        rows.append((float(share), mean, std))
    return rows


# ---------------------------------------------------------------------------
# point-distribution baseline


@dataclass
class PDMModel:
    """Vertex-space PCA after group-wise rigid alignment."""

    mean_vertices: np.ndarray
    components: np.ndarray  # (n_components, 3 * n_vertices), orthonormal rows
    variances: np.ndarray

    @property
    def n_modes(self):
        return self.components.shape[0]


def pdm_fit(meshes, tol=1e-10, max_iter=100):
    """Point-distribution model: generalized Procrustes + PCA.

    Rigid alignment only (no scaling), iterated until no coordinate of the
    mean configuration moves by ``tol`` or more in a round; principal
    components with nonzero variance are retained.

    Raises
    ------
    ValueError
        If ``tol`` is not positive and finite or ``max_iter`` is not a
        positive integer.
    ConvergenceError
        If the mean still moves after ``max_iter`` rounds.
    """
    _check_stopping(tol, max_iter, 1)
    triangles = meshes[0].triangles
    for mesh in meshes[1:]:
        if not np.array_equal(mesh.triangles, triangles):
            raise ReferenceMismatchError("meshes have different combinatorics")
    configs = np.stack([m.vertices - m.vertices.mean(axis=0) for m in meshes])
    mean = configs[0].copy()
    for _ in range(max_iter):
        new_mean = _align_to(mean, configs).mean(axis=0)
        new_mean -= new_mean.mean(axis=0)
        change = np.max(np.abs(new_mean - mean))
        mean = new_mean
        if change < tol:
            break
    else:
        raise ConvergenceError(
            f"Procrustes mean did not reach {tol:g} within {max_iter} rounds "
            f"(last change {change:.3g})"
        )
    aligned = _align_to(mean, configs)

    n = aligned.shape[0]
    flat = aligned.reshape(n, -1)
    centered = flat - mean.reshape(1, -1)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    keep = svals > 1e-12 * max(svals[0], 1e-300)
    components = vt[keep]
    variances = (svals[keep] ** 2) / n
    return PDMModel(mean_vertices=mean, components=components, variances=variances)


def pdm_coefficients(model, mesh):
    """Project a mesh onto the model components (after rigid alignment).

    Raises :class:`ReferenceMismatchError` if the mesh has another vertex
    count than the model.
    """
    if mesh.n_vertices != model.mean_vertices.shape[0]:
        raise ReferenceMismatchError(
            f"mesh has {mesh.n_vertices} vertices, the model "
            f"{model.mean_vertices.shape[0]}"
        )
    aligned = _align_to(model.mean_vertices, mesh.vertices - mesh.vertices.mean(axis=0))
    centered = aligned.reshape(-1) - model.mean_vertices.reshape(-1)
    return model.components @ centered


# ---------------------------------------------------------------------------
# discriminating direction


def discriminating_path(ref, model, clf, steps, value_range):
    """Meshes along the classifier's discriminating direction.

    The de-standardized weight vector is normalized in coefficient space
    and sampled at ``steps`` equidistant scales within ``value_range``;
    each coefficient vector is synthesized and reconstructed. A
    reconstruction that does not converge raises ``ConvergenceError``.
    """
    _check_binding(ref, model.mean)
    eta = np.asarray(clf.eta, dtype=float)
    norm = float(np.linalg.norm(eta))
    if norm == 0.0:
        raise ValueError("classifier weight vector is zero")
    if eta.size != model.n_modes:
        raise ValueError(
            f"classifier has {eta.size} weights but the model {model.n_modes} modes"
        )
    direction = eta / norm
    lo, hi = value_range
    scales = np.linspace(lo, hi, steps)
    system = prefactor(ref)
    return [
        _converged_mesh(reconstruct(ref, synthesize(model, c * direction),
                                    system=system), f"discriminating path step {k}")
        for k, c in enumerate(scales)
    ]
