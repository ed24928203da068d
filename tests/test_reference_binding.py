"""One binding rule for every public function that combines shapes.

A function given a reference raises ``ReferenceMismatchError`` for a
shape, mean or model encoded on another reference; a function that
combines shapes without a reference raises it when their references
differ. Each table row is run with a foreign cohort from a reference with
moved vertices (same sizes, another hash) and from one of another size.
"""

import dataclasses
import inspect
from types import SimpleNamespace

import numpy as np
import pytest

import shapeforms
from shapeforms.errors import ReferenceMismatchError
from shapeforms.evaluation import (
    discriminating_path,
    generalization_curve,
    metrics_report,
    pdm_coefficients,
    pdm_fit,
    specificity,
    train_svm,
)
from shapeforms.reconstruction import init_rotations, local_step, reconstruct
from shapeforms.reference import build_reference
from shapeforms.representation import (
    encode,
    geodesic,
    relative_rotation_angles,
    rep_distance,
    rep_log,
)
from shapeforms.statistics import coefficients, frechet_mean, mean_residual, pga
from shapeforms.synthetic import icosphere, smooth_deformation


def _cohort(ref_mesh, reference=None):
    """Six deformations of ``ref_mesh`` encoded on ``reference`` (by
    default ``ref_mesh`` itself), with their model."""
    ref = build_reference(ref_mesh if reference is None else reference)
    meshes = [smooth_deformation(ref_mesh, seed=s, stretch=0.1, wave_amplitude=0.04)
              for s in range(6)]
    reps = [encode(ref, mesh)[0] for mesh in meshes]
    return SimpleNamespace(ref=ref, meshes=meshes, reps=reps, model=pga(ref, reps))


@pytest.fixture(scope="module")
def data():
    d = _cohort(icosphere(1))
    d.clf = train_svm([coefficients(d.ref, d.model, rep) for rep in d.reps],
                      [1, 1, 1, -1, -1, -1])
    return d


@pytest.fixture(scope="module", params=["moved", "resized"])
def foreign(request):
    if request.param == "moved":
        # Same triangles and sizes, moved vertices: only the hash differs.
        moved = smooth_deformation(icosphere(1), seed=99, stretch=0.05)
        return _cohort(icosphere(1), reference=moved)
    return _cohort(icosphere(2))


# (public function, call with the home data ``d`` and a foreign cohort ``f``).
TABLE = [
    ("init_rotations", lambda d, f: init_rotations(d.ref, f.reps[0])),
    ("local_step", lambda d, f: local_step(
        d.ref, f.reps[0], np.broadcast_to(np.eye(3), (d.ref.n_triangles, 3, 3)))),
    ("reconstruct", lambda d, f: reconstruct(d.ref, f.reps[0])),
    ("rep_distance", lambda d, f: rep_distance(d.ref, d.reps[0], f.reps[0])),
    ("rep_log", lambda d, f: rep_log(d.reps[0], f.reps[0])),
    ("geodesic", lambda d, f: geodesic(d.reps[0], f.reps[0], 0.5)),
    ("relative_rotation_angles",
     lambda d, f: relative_rotation_angles(d.reps[0], f.reps[0])),
    ("frechet_mean", lambda d, f: frechet_mean(d.reps[:2] + f.reps[:1])),
    ("mean_residual", lambda d, f: mean_residual(f.model.mean, d.reps)),
    ("pga", lambda d, f: pga(d.ref, f.reps)),
    ("pga mu", lambda d, f: pga(d.ref, d.reps, mu=f.model.mean)),
    ("coefficients", lambda d, f: coefficients(d.ref, f.model, f.reps[0])),
    ("specificity", lambda d, f: specificity(d.ref, f.model, f.reps, n_samples=2)),
    ("generalization_curve",
     lambda d, f: generalization_curve(d.ref, f.reps, max_modes=1)),
    ("metrics_report",
     lambda d, f: metrics_report(d.ref, f.reps, n_samples=2, max_modes=1)),
    ("discriminating_path",
     lambda d, f: discriminating_path(d.ref, f.model, d.clf, 2, (-0.5, 0.5))),
]

# Exported functions with a ``ref`` parameter that combine it with no shape.
EXEMPT = {
    "encode": "encodes meshes on the reference",
    "deformation_gradients": "takes a mesh, whose triangle list it checks",
    "flat_projection": "takes only the reference",
    "flatten": "takes only the reference",
    "prefactor": "takes only the reference",
}


@pytest.mark.parametrize("call", [row[1] for row in TABLE],
                         ids=[row[0] for row in TABLE])
def test_foreign_shape_raises(data, foreign, call):
    with pytest.raises(ReferenceMismatchError):
        call(data, foreign)


def test_table_covers_every_function_given_a_reference():
    given_ref = {name for name in shapeforms.__all__
                 if inspect.isfunction(getattr(shapeforms, name))
                 and "ref" in inspect.signature(getattr(shapeforms, name)).parameters}
    tabled = {name.split()[0] for name, _ in TABLE}
    assert given_ref - tabled == set(EXEMPT)
    assert not tabled & set(EXEMPT)


def test_pdm_coefficients_rejects_another_vertex_count(data):
    model = pdm_fit(data.meshes)
    mesh = smooth_deformation(icosphere(2), seed=0)
    with pytest.raises(ReferenceMismatchError, match="mesh has 162 vertices, the model 42"):
        pdm_coefficients(model, mesh)


def test_model_reference_is_its_means(data):
    # Saved, such a model would load with its mean bound to the wrong hash.
    with pytest.raises(ReferenceMismatchError, match="model reference 'other'"):
        dataclasses.replace(data.model, reference_hash="other")
