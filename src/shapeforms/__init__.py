"""Rigid-motion-invariant statistical shape modeling of triangle meshes.

Shapes in dense correspondence with a common reference are encoded by
per-edge transition rotations and per-triangle tangential stretches, a
representation that never needs alignment. On top of it the library
provides geodesic calculus, Fréchet means and principal geodesic
analysis, an efficient local/global solver mapping representations back
to meshes, quasi-isometric flattening, and a classification/evaluation
harness with a point-distribution-model baseline.
"""

from .errors import (
    ConditioningError,
    ConvergenceError,
    CutLocusError,
    DegenerateGeometryError,
    MeshFormatError,
    MeshTopologyError,
    OrientationError,
    ReferenceMismatchError,
    ShapeFormsError,
)
from .evaluation import (
    ClassifierModel,
    MetricsReport,
    PDMModel,
    accuracy_curve,
    compactness,
    discriminating_path,
    generalization_curve,
    metrics_report,
    monte_carlo_cv,
    pdm_coefficients,
    pdm_fit,
    specificity,
    train_svm,
)
from .flattening import FlatteningReport, flat_projection, flatten
from .liegroups import polar3, so3_exp, so3_log, spd2_exp, spd2_log
from .mesh import TriangleMesh, load_mesh, save_mesh, unique_edges
from .reconstruction import (
    EnergyReport,
    PoissonSystem,
    init_rotations,
    local_step,
    prefactor,
    reconstruct,
)
from .reference import ReferenceGeometry, build_reference, deformation_gradients
from .representation import (
    DEFAULT_OMEGA,
    DeformationDecomposition,
    DistanceParams,
    ShapeRep,
    TangentRep,
    encode,
    geodesic,
    relative_rotation_angles,
    rep_distance,
    rep_exp,
    rep_log,
)
from .statistics import (
    PGAModel,
    coefficients,
    frechet_mean,
    mean_residual,
    pga,
    sample,
    synthesize,
    unbiased_reference,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
