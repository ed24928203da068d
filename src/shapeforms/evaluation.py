"""Model quality measures, classification harness, and baselines.

Specificity, generalization ability, and compactness quantify how a
fitted model relates to its training cohort. Classification uses a linear
soft-margin SVM on mode coefficients with Monte-Carlo cross-validation
over class-balanced splits; a point-distribution model (rigid Procrustes
alignment plus vertex PCA) serves as the baseline feature extractor.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ReferenceMismatchError
from .liegroups import _log_entries
from .reconstruction import prefactor, reconstruct
from .representation import (
    DistanceParams,
    _check_binding,
    _check_pair,
    _coordinate_weights,
    _read_json,
    _tangent_distances,
    _write_json,
)
from .statistics import (
    DEFAULT_MEAN_MAX_ITER,
    DEFAULT_MEAN_TOL,
    DEFAULT_PGA_MEAN_TOL,
    _blocks,
    _check_same_reference,
    _log_mean,
    _mean_entries,
    _mean_logs,
    _mode_count,
    _principal_modes,
    _relative_entries,
    _sample_coefficients,
    _stretch_logs,
    coefficients,
    pga,
    synthesize,
)

DEFAULT_SVM_ITERATIONS = 600
DEFAULT_CV_DRAWS = 200
#: Byte budget of one stacked per-draw array in ``monte_carlo_cv``. Draws
#: are trained in as few blocks as keep each array below it; a block this
#: small stays in a core's L2 cache over all the iterations.
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


def specificity(ref, model, training, n_samples=1000, modes=None, metric="intrinsic",
                seed=0):
    """Mean distance of model samples to their nearest training shape.

    ``metric="intrinsic"`` measures in representation space; ``metric="vertex"``
    reconstructs meshes and measures vertex RMS after rigid alignment (a
    pragmatic stand-in for physically based surface distances). ``modes``
    (default all) leading modes are sampled.

    The intrinsic distances are taken in tangent coordinates at the model
    mean, so no sampled shape is formed. Draws are measured against all
    training shapes at once, in blocks whose per-draw arrays stay under
    ``_BLOCK_BYTES``.
    """
    if not training:
        raise ValueError("training set is empty")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    if metric not in ("intrinsic", "vertex"):
        raise ValueError(f"unknown metric {metric!r}")
    n_modes = model.n_modes if modes is None else _mode_count(model, modes)
    draws = _sample_coefficients(model, n_samples, seed, n_modes)
    if metric == "intrinsic":
        mu = model.mean
        _check_binding(ref, mu)
        for t in training:
            _check_pair(mu, t)
        relative = _relative_entries(training, _mean_entries(mu))
        stretch_logs = _stretch_logs(training, mu.log_stretches).reshape(
            len(training), -1)
        weights = _coordinate_weights(ref, model.params)
        matrix = model._mode_matrix[:n_modes]
        total = 0.0
        for block in _blocks(n_samples, 8 * max(relative[0].size, stretch_logs.size)):
            vectors = draws[block] @ matrix
            d = _tangent_distances(vectors[:, None, :], relative, stretch_logs, weights)
            total += float(np.sum(np.min(d, axis=1)))
        return total / n_samples
    system = prefactor(ref)
    train_meshes = np.stack([
        reconstruct(ref, t, system=system)[0].vertices for t in training
    ])
    total = 0.0
    for a in draws:
        mesh, _ = reconstruct(ref, synthesize(model, a), system=system)
        total += float(np.min(_aligned_rms(train_meshes, mesh.vertices)))
    return total / n_samples


def _intrinsic_generalization(ref, reps, max_modes, params):
    """Leave-one-out errors ``(n, max_modes)`` of :func:`generalization_curve`
    in the intrinsic metric, in tangent coordinates at each fold's mean.

    Each fold's rotation mean starts from the full cohort's, and its
    log-Euclidean stretch mean is the exact downdate ``(n mean - L_i) /
    (n - 1)`` of the full cohort's.
    """
    _check_same_reference(reps)
    _check_binding(ref, reps[0])
    n = len(reps)
    log_mean = _log_mean(reps)
    full_mean = _mean_logs(reps, _mean_entries(reps[0]), log_mean, log_mean,
                           DEFAULT_MEAN_TOL, DEFAULT_MEAN_MAX_ITER)[0]
    errors = np.zeros((n, max_modes))
    for i, held_out in enumerate(reps):
        fold_log_mean = (n * log_mean - held_out.log_stretches) / (n - 1)
        errors[i] = _fold_errors(ref, params, reps[:i] + reps[i + 1:], held_out,
                                 full_mean, fold_log_mean, max_modes)
    return errors


def _fold_model(ref, params, rest, start, log_mean):
    """Mean rotation entries and mode matrix of the model of ``rest``."""
    mu, _, rot_logs, stretch_logs = _mean_logs(
        rest, start, log_mean, log_mean, DEFAULT_MEAN_TOL, DEFAULT_MEAN_MAX_ITER)
    return mu, _principal_modes(ref, params, rot_logs, stretch_logs,
                                DEFAULT_PGA_MEAN_TOL)[1]


def _fold_errors(ref, params, rest, held_out, start, log_mean, max_modes):
    """Distances of ``held_out`` to its projections with ``1 .. max_modes``
    modes of the model of ``rest``, whose rotation mean is sought from the
    entries ``start`` and whose stretch log mean is ``log_mean``.

    The projections are measured in tangent coordinates at the mean, in
    blocks under ``_BLOCK_BYTES``; mode counts past the model's repeat its
    last error.
    """
    mu, matrix = _fold_model(ref, params, rest, start, log_mean)
    relative = _relative_entries([held_out], mu)[:, 0]
    stretch_log = (held_out.log_stretches - log_mean).reshape(-1)
    weights = _coordinate_weights(ref, params)
    v = np.concatenate((_log_entries(relative, "edge").reshape(-1), stretch_log))
    a = matrix @ (weights * v)
    used = np.minimum(np.arange(1, max_modes + 1), a.size)
    distinct = np.unique(used)
    d = np.empty(distinct.size)
    for block in _blocks(distinct.size, 8 * max(relative.size, matrix.shape[1])):
        prefixes = a * (np.arange(a.size) < distinct[block, None])
        d[block] = _tangent_distances(prefixes @ matrix, relative, stretch_log,
                                      weights)
    return d[np.searchsorted(distinct, used)]


def generalization_curve(ref, reps, max_modes=None, params=None, metric="intrinsic"):
    """Leave-one-out reconstruction error per mode count.

    Each fold fits mean and modes on the remaining shapes, projects the
    held-out shape, and measures the distance of the projection to it.
    Returns an array indexed by mode count ``1 .. max_modes``.
    """
    if len(reps) < 3:
        raise ValueError("need at least three shapes for leave-one-out")
    # Folds expose at most len(reps) - 2 modes; beyond that the curve
    # plateaus because no further coefficients exist.
    if max_modes is None:
        max_modes = len(reps) - 2
    if max_modes < 1:
        raise ValueError(f"max_modes must be at least 1, got {max_modes}")

    if metric not in ("intrinsic", "vertex"):
        raise ValueError(f"unknown metric {metric!r}")
    if metric == "intrinsic":
        params = DistanceParams() if params is None else params
        return _intrinsic_generalization(ref, reps, max_modes, params).mean(axis=0)
    system = prefactor(ref)
    errors = np.zeros((len(reps), max_modes))
    for i, held_out in enumerate(reps):
        rest = [r for k, r in enumerate(reps) if k != i]
        kwargs = {} if params is None else {"params": params}
        model = pga(ref, rest, **kwargs)
        a = coefficients(ref, model, held_out)
        mesh_h, _ = reconstruct(ref, held_out, system=system)
        for modes in range(1, max_modes + 1):
            used = min(modes, model.n_modes)
            projected = synthesize(model, a[:used])
            mesh_p, _ = reconstruct(ref, projected, system=system)
            errors[i, modes - 1] = _aligned_rms(mesh_h.vertices, mesh_p.vertices)
    return errors.mean(axis=0)


def generalization(ref, reps, modes, params=None, metric="intrinsic"):
    """Leave-one-out error for one mode count."""
    return float(
        generalization_curve(ref, reps, max_modes=modes, params=params,
                             metric=metric)[modes - 1]
    )


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


def metrics_report(ref, reps, params=None, n_samples=1000, metric="intrinsic", seed=0,
                   max_modes=None):
    """Evaluate all three quality measures on a cohort."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    if max_modes is not None and max_modes < 1:
        raise ValueError(f"max_modes must be at least 1, got {max_modes}")
    kwargs = {} if params is None else {"params": params}
    model = pga(ref, reps, **kwargs)
    if model.n_modes == 0:
        raise ValueError("the shapes do not vary: the model has no modes")
    cap = model.n_modes if max_modes is None else min(max_modes, model.n_modes)
    mode_counts = np.arange(1, cap + 1)
    spec = np.array(
        [
            specificity(ref, model, reps, n_samples=n_samples, modes=int(k),
                        metric=metric, seed=seed)
            for k in mode_counts
        ]
    )
    gen = generalization_curve(ref, reps, max_modes=cap, params=model.params,
                               metric=metric)
    comp = np.array([compactness(model, int(k)) for k in mode_counts])
    return MetricsReport(
        modes=mode_counts, specificity=spec, generalization=gen, compactness=comp
    )


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
        return self.bias_std - float(
            (self.weights_std * self.feature_mean / self.feature_std).sum()
        )

    def decision_function(self, features):
        features = np.atleast_2d(np.asarray(features, dtype=float))
        return features @ self.eta + self.bias

    def predict(self, features):
        return np.where(self.decision_function(features) >= 0.0, 1, -1)

    def save(self, path):
        payload = {
            "weights_std": self.weights_std.tolist(),
            "bias_std": self.bias_std,
            "feature_mean": self.feature_mean.tolist(),
            "feature_std": self.feature_std.tolist(),
            "regularization": self.regularization,
        }
        _write_json(path, payload)

    @classmethod
    def load(cls, path):
        payload = _read_json(path)
        return cls(
            weights_std=np.array(payload["weights_std"], dtype=float),
            bias_std=float(payload["bias_std"]),
            feature_mean=np.array(payload["feature_mean"], dtype=float),
            feature_std=np.array(payload["feature_std"], dtype=float),
            regularization=float(payload["regularization"]),
        )


def _train_stack(X, y, reg, n_iterations):
    """Train one linear SVM per draw of stacked splits, all at once.

    ``X`` is ``(draws, n, d)`` raw features and ``y`` the ``(draws, n)``
    labels in {-1, +1}. Each draw is centered by its own mean and divided
    by its own pooled scale, then minimizes ``0.5 / reg * |w|^2 + mean
    hinge`` by full-batch subgradient descent with ``1/(alpha t)`` steps
    (Pegasos, Shalev-Shwartz et al. 2007) and averaging over the last half
    of the iterations. The bias is not regularized. Returns the
    standardized weights ``(draws, d)`` and bias ``(draws,)``, the means
    ``(draws, d)`` and the pooled scales ``(draws,)``.
    """
    if n_iterations < 2:
        raise ValueError(f"n_iterations must be at least 2, got {n_iterations}")
    draws, n, d = X.shape
    mean = X.mean(axis=1)
    centered = X - mean[:, None, :]
    # One pooled scale: relative variances between modes are informative
    # and must survive normalization.
    pooled = np.sqrt(np.mean(centered**2, axis=(1, 2)))
    scale = np.where(pooled > 0.0, pooled, 1.0)
    # Label-signed rows with a ones column for the bias, so the margins
    # and the hinge subgradient are one batched product each.
    A = np.empty((draws, n, d + 1))
    A[..., :d] = centered / scale[:, None, None] * y[..., None]
    A[..., d] = y
    alpha = 1.0 / reg
    penalized = np.ones(d + 1)
    penalized[d] = 0.0
    v = np.zeros((draws, d + 1))
    v_sum = np.zeros_like(v)
    tail = n_iterations // 2
    for t in range(1, n_iterations + 1):
        active = (A @ v[..., None])[..., 0] < 1.0
        hinge = (active[:, None, :].astype(float) @ A)[:, 0] / n
        v = v - 1.0 / (alpha * t) * (alpha * penalized * v - hinge)
        if t > n_iterations - tail:
            v_sum += v
    v = v_sum / tail
    return v[:, :d], v[:, d], mean, scale


def train_svm(features, labels, reg=1.0, n_iterations=DEFAULT_SVM_ITERATIONS):
    """Soft-margin linear SVM via deterministic full-batch subgradient descent.

    Minimizes ``0.5 / reg * |w|^2 + mean hinge`` on centered,
    globally-scaled features with a ``1/t`` step size and tail averaging
    over the last ``n_iterations // 2`` steps (``n_iterations`` must be at
    least 2). Duplicating rows or rescaling all features leaves the
    decision rule unchanged. This is the one-draw case of the kernel that
    ``monte_carlo_cv`` trains its draws with.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("features must be (n, d) with one label per row")
    classes = np.unique(y)
    if not np.array_equal(classes, [-1.0, 1.0]):
        raise ValueError(f"labels must contain both classes -1 and +1, got {classes}")
    w, b, mean, scale = _train_stack(X[None], y[None], reg, n_iterations)
    return ClassifierModel(
        weights_std=w[0],
        bias_std=float(b[0]),
        feature_mean=mean[0],
        feature_std=np.full(X.shape[1], scale[0]),
        regularization=reg,
    )


def monte_carlo_cv(features, labels, train_share, draws=DEFAULT_CV_DRAWS, reg=1.0,
                   seed=0, n_iterations=DEFAULT_SVM_ITERATIONS):
    """Accuracy of the SVM under repeated class-balanced random splits.

    Each draw trains on ``round(train_share * n_min)`` samples per class
    (``n_min`` the smaller class size) and tests on the complement.
    Returns mean and standard deviation of the accuracy over ``draws >= 1``
    draws. All splits are drawn first; the draws are then trained and
    tested together by the ``train_svm`` kernel, in as few blocks as keep
    each stacked ``(draws, rows, features)`` array under
    ``_SVM_BLOCK_BYTES``, which bounds the memory. Neither the block size
    nor the number of draws changes any draw's result.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=int)
    if not 0.0 < train_share < 1.0:
        raise ValueError("train_share must be in (0, 1)")
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    idx_pos = np.nonzero(y == 1)[0]
    idx_neg = np.nonzero(y == -1)[0]
    if idx_pos.size == 0 or idx_neg.size == 0:
        raise ValueError("both classes must be present")
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
    per_draw = X.itemsize * max(train.shape[1] * (d + 1), test.shape[1] * d)
    block = max(1, _SVM_BLOCK_BYTES // per_draw)
    accuracies = np.empty(draws)
    for lo in range(0, draws, block):
        rows = slice(lo, lo + block)
        w, b, mean, scale = _train_stack(X[train[rows]], y[train[rows]], reg,
                                         n_iterations)
        # The decision rule of ClassifierModel, de-standardized per draw.
        eta = w / scale[:, None]
        bias = b - (w * mean / scale[:, None]).sum(axis=1)
        decision = (X[test[rows]] @ eta[..., None])[..., 0] + bias[:, None]
        predicted = np.where(decision >= 0.0, 1, -1)
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

    Rigid alignment only (no scaling), iterated to stationarity of the
    mean configuration; principal components with nonzero variance are
    retained.
    """
    triangles = meshes[0].triangles
    for mesh in meshes[1:]:
        if not np.array_equal(mesh.triangles, triangles):
            raise ReferenceMismatchError("meshes have different combinatorics")
    configs = np.stack([m.vertices - m.vertices.mean(axis=0) for m in meshes])
    mean = configs[0].copy()
    for _ in range(max_iter):
        new_mean = _align_to(mean, configs).mean(axis=0)
        new_mean -= new_mean.mean(axis=0)
        if np.max(np.abs(new_mean - mean)) < tol:
            mean = new_mean
            break
        mean = new_mean
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
    """Project a mesh onto the model components (after rigid alignment)."""
    aligned = _align_to(model.mean_vertices, mesh.vertices - mesh.vertices.mean(axis=0))
    centered = aligned.reshape(-1) - model.mean_vertices.reshape(-1)
    return model.components @ centered


def pdm_synthesize(model, coeffs):
    """Vertex configuration for a PDM coefficient vector."""
    coeffs = np.asarray(coeffs, dtype=float)
    flat = model.mean_vertices.reshape(-1) + coeffs @ model.components[: coeffs.size]
    return flat.reshape(-1, 3)


# ---------------------------------------------------------------------------
# discriminating direction


def discriminating_path(ref, model, clf, steps, value_range, system=None):
    """Meshes along the classifier's discriminating direction.

    The de-standardized weight vector is normalized in coefficient space
    and sampled at ``steps`` equidistant scales within ``value_range``;
    each coefficient vector is synthesized and reconstructed.
    """
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
    if system is None:
        system = prefactor(ref)
    meshes = []
    for c in scales:
        rep = synthesize(model, c * direction)
        mesh, _ = reconstruct(ref, rep, system=system)
        meshes.append(mesh)
    return meshes
