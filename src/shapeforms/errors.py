"""Exception types shared across the library.

The CLI maps each class to a stable, machine-readable error category,
so modules should raise the most specific type that applies.
"""


class ShapeFormsError(Exception):
    """Base class for all library errors."""

    category = "internal"


class MeshFormatError(ShapeFormsError):
    """A mesh, shape, model or CSV file could not be parsed, or holds
    invalid values: a non-finite value, a rotation that is not one, or a
    stretch that is not positive-definite. Carries the file's ``path`` and,
    for meshes and CSV files, a line number when known."""

    category = "format"

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix += str(path)
        if line is not None:
            prefix += f":{line}"
        super().__init__(f"{prefix}: {message}" if prefix else message)


class MeshTopologyError(ShapeFormsError):
    """Non-manifold edges, inconsistent winding, or a disconnected dual graph."""

    category = "topology"


class DegenerateGeometryError(ShapeFormsError):
    """A triangle with (numerically) vanishing area."""

    category = "degenerate"


class OrientationError(ShapeFormsError):
    """A matrix with non-positive determinant passed to ``polar3`` directly.

    ``encode`` never raises it: every deformation gradient it builds maps
    the reference normal onto the deformed triangle's own normal and has a
    positive determinant, so a mirrored or folded mesh encodes without
    error.
    """

    category = "orientation"


class ConditioningError(ShapeFormsError):
    """A matrix too close to singular for a stable decomposition."""

    category = "conditioning"


class CutLocusError(ShapeFormsError):
    """Rotation logarithm requested at (or numerically at) angle pi."""

    category = "cutlocus"


class ReferenceMismatchError(ShapeFormsError):
    """Objects bound to different reference shapes were combined.

    Every function given a reference raises it for a shape, mean or model
    encoded on another reference (another hash, or other sizes); functions
    that combine shapes without a reference raise it when the shapes'
    references differ, and ``pdm_coefficients`` for a mesh with another
    vertex count than its model.
    """

    category = "mismatch"


class ConvergenceError(ShapeFormsError):
    """An iterative solver exhausted its iteration budget.

    For reconstructions the policy is: ``reconstruct`` and ``flatten``
    return their mesh with ``converged`` false in the report and do not
    raise; every library function that reconstructs internally
    (``unbiased_reference``, ``discriminating_path`` and the vertex metric
    of ``specificity``, ``generalization_curve`` and ``metrics_report``)
    raises this error, naming the shape; the command line writes an
    unconverged mesh with a warning on stderr. ``frechet_mean`` and
    ``pdm_fit`` raise it when their iteration does not converge.
    """

    category = "convergence"
