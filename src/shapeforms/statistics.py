"""First and second moment statistics on shape representations.

The mean is the Riemannian center of mass, computed by the fixed-point
iteration ``mu <- exp_mu(mean_i log_mu(s_i))``. On the flat stretch part
one step already lands on the result; the rotation part converges for
well-localized data (all relative transition rotations away from angle
pi). Principal modes come from the eigendecomposition of the Gram matrix
of the logs at the mean, normalized to unit metric length, so mode
coefficients are plain inner products.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ReferenceMismatchError
from .reference import build_reference
from .representation import (
    DistanceParams,
    ShapeRep,
    TangentRep,
    _sym_to_triples,
    _triples_to_sym,
    _write_json,
    encode,
    flatten_tangent,
    rep_exp,
    rep_log,
    unflatten_tangent,
)

DEFAULT_MEAN_TOL = 1e-10
DEFAULT_MEAN_MAX_ITER = 50

#: Relative eigenvalue cutoff separating true modes from rank noise.
EIGENVALUE_CUTOFF = 1e-12


def _check_same_reference(reps):
    if not reps:
        raise ValueError("need at least one representation")
    first = reps[0].reference_hash
    for rep in reps[1:]:
        if rep.reference_hash != first:
            raise ReferenceMismatchError("representations use different references")


def mean_residual(mu, reps):
    """Norm of the summed logs at ``mu`` (zero exactly at the mean).

    Measured in the unweighted product norm (Frobenius norms of the skew
    and symmetric components); the metric weights only rescale it by a
    bounded factor, so the zero test is equivalent.
    """
    return _summed_log(mu, reps)[1]


def _summed_log(mu, reps):
    """Sum of the logs of ``reps`` at ``mu`` and its :func:`mean_residual`."""
    total = TangentRep.zero(mu)
    for rep in reps:
        total = total + rep_log(mu, rep)
    return total, _residual(total)


def _residual(total):
    """Unweighted product norm of a summed log, see :func:`mean_residual`."""
    return float(
        np.sqrt(2.0 * np.sum(total.rot_part**2) + np.sum(total.stretch_part**2))
    )


def frechet_mean(reps, tol=DEFAULT_MEAN_TOL, max_iter=DEFAULT_MEAN_MAX_ITER):
    """Riemannian center of mass of ``reps``.

    Iterates until the summed logs at the candidate have norm below
    ``tol``. The stretch part is exact after the first step; the rotation
    part needs a handful of iterations for realistic spreads.

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
    n = len(reps)
    mu = reps[0]
    if n == 1:
        return mu
    for _ in range(max_iter):
        total, residual = _summed_log(mu, reps)
        if residual < tol:
            return mu
        mu = rep_exp(mu, (1.0 / n) * total)
    raise ConvergenceError(
        f"mean iteration did not reach {tol:g} within {max_iter} steps "
        f"(residual {residual:.3g})"
    )


@dataclass
class PGAModel:
    """Mean, orthonormal principal modes, and per-mode variances.

    Modes are tangent vectors at the mean with unit metric norm;
    ``variances`` are the Gram eigenvalues divided by the sample count,
    in descending order.
    """

    mean: ShapeRep
    modes: list
    variances: np.ndarray
    params: DistanceParams
    reference_hash: str

    @property
    def n_modes(self):
        return len(self.modes)

    def save(self, path):
        payload = {
            "reference_hash": self.reference_hash,
            "omega": self.params.omega,
            "variances": self.variances.tolist(),
            "mean": {
                "rotations": self.mean.rotations.reshape(-1, 9).tolist(),
                "stretches": _sym_to_triples(self.mean.stretches),
            },
            "modes": [
                {
                    "rot_part": mode.rot_part.tolist(),
                    "stretch_part": _sym_to_triples(mode.stretch_part),
                }
                for mode in self.modes
            ],
        }
        _write_json(path, payload)

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        rotations = np.array(payload["mean"]["rotations"], dtype=float).reshape(
            -1, 3, 3
        )
        triples = np.array(payload["mean"]["stretches"], dtype=float)
        stretches = _triples_to_sym(triples)
        mean = ShapeRep(rotations, stretches, payload["reference_hash"])
        base_hash = mean.content_hash()
        modes = []
        for entry in payload["modes"]:
            rot = np.array(entry["rot_part"], dtype=float).reshape(-1, 3)
            spd = _triples_to_sym(np.array(entry["stretch_part"], dtype=float))
            modes.append(TangentRep(rot, spd, base_hash))
        return cls(
            mean=mean,
            modes=modes,
            variances=np.array(payload["variances"], dtype=float),
            params=DistanceParams(payload["omega"]),
            reference_hash=payload["reference_hash"],
        )


def pga(ref, reps, mu=None, params=DistanceParams(), mean_tol=1e-6):
    """Principal geodesic analysis of ``reps`` around their mean.

    ``mu`` must be the Fréchet mean (checked through the residual of the
    summed logs); it is computed when not supplied. Each log at ``mu`` is
    taken once and serves both the residual and the Gram matrix.
    Eigenvalues below ``EIGENVALUE_CUTOFF`` times the largest are discarded
    as numerical rank noise.
    """
    _check_same_reference(reps)
    if mu is None:
        mu = frechet_mean(reps)
    elif mu.reference_hash != reps[0].reference_hash:
        raise ReferenceMismatchError("mean uses a different reference")
    total = TangentRep.zero(mu)
    vectors = []
    for rep in reps:
        v = rep_log(mu, rep)
        total = total + v
        vectors.append(flatten_tangent(ref, params, v))
    residual = _residual(total)
    if residual > mean_tol * max(len(reps), 1):
        raise ValueError(
            f"supplied base point is not the mean (log-sum residual {residual:.3g})"
        )

    n = len(reps)
    base_hash = mu.content_hash()
    vectors = np.stack(vectors)
    gram = vectors @ vectors.T
    eigvals, eigvecs = np.linalg.eigh(gram)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]

    if eigvals.size and eigvals[0] > 0.0:
        keep = eigvals > EIGENVALUE_CUTOFF * eigvals[0]
    else:
        keep = np.zeros(eigvals.shape, dtype=bool)
    keep &= np.arange(eigvals.size) < max(n - 1, 1)

    modes = []
    variances = []
    for p in np.nonzero(keep)[0]:
        direction = eigvecs[:, p] @ vectors
        direction /= np.sqrt(eigvals[p])
        modes.append(unflatten_tangent(ref, params, direction, base_hash))
        variances.append(eigvals[p] / n)

    return PGAModel(
        mean=mu,
        modes=modes,
        variances=np.array(variances),
        params=params,
        reference_hash=reps[0].reference_hash,
    )


def coefficients(ref, model, rep):
    """Mode coefficients of ``rep``: inner products with the modes."""
    if rep.reference_hash != model.reference_hash:
        raise ReferenceMismatchError("representation uses a different reference")
    v = flatten_tangent(ref, model.params, rep_log(model.mean, rep))
    if not model.modes:
        return np.zeros(0)
    basis = np.stack(
        [flatten_tangent(ref, model.params, mode) for mode in model.modes]
    )
    return basis @ v


def synthesize(model, coeffs):
    """Shape representation for a coefficient vector."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size > model.n_modes:
        raise ValueError(
            f"{coeffs.size} coefficients for a model with {model.n_modes} modes"
        )
    total = TangentRep.zero(model.mean)
    for a, mode in zip(coeffs, model.modes):
        total = total + float(a) * mode
    return rep_exp(model.mean, total)


def sample(model, count, seed, n_modes=None):
    """Draw shapes from the model's Gaussian coefficient distribution."""
    return [synthesize(model, a)
            for a in _sample_coefficients(model, count, seed, n_modes)]


def _sample_coefficients(model, count, seed, n_modes=None):
    """The ``(count, n_modes)`` coefficient draws behind :func:`sample`."""
    if n_modes is None:
        n_modes = model.n_modes
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
