"""Command-line interface.

Every subcommand is a file-in/file-out pipeline and is deterministic given
its ``--seed``; numeric output is printed with 17 significant digits so
identical invocations produce byte-identical files. Errors are reported on
stderr as ``error:<category>: message`` with a nonzero exit code. Each
mesh written from a reconstruction that stopped at its iteration limit
(including a flattening) gets one ``warning:`` line on stderr; the file is
still written and the exit code stays 0.

Option defaults are the library's own constants, so a command and the
function it calls agree unless a flag says otherwise.
"""

import argparse
import csv
import math
import os
import sys

import numpy as np

from . import synthetic
from .errors import MeshFormatError, ShapeFormsError
from .evaluation import DEFAULT_CV_DRAWS, accuracy_curve, metrics_report, train_svm
from .flattening import flatten
from .mesh import load_mesh, save_mesh
from .reconstruction import DEFAULT_MAX_ITER, DEFAULT_TOL, prefactor, reconstruct
from .reference import build_reference
from .representation import (
    DEFAULT_OMEGA,
    DistanceParams,
    ShapeRep,
    _encode_stack,
    encode,
    geodesic,
    relative_rotation_angles,
)
from .statistics import (
    DEFAULT_MEAN_MAX_ITER,
    DEFAULT_MEAN_TOL,
    PGAModel,
    _coefficient_rows,
    frechet_mean,
    pga,
    sample,
    synthesize,
    unbiased_reference,
)


def _positive_float(text):
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"{text} is not positive and finite")
    return value


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not positive")
    return value


def _non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return value


def _share_list(text):
    shares = [float(x) for x in text.split(",") if x]
    for s in shares:
        if not 0.0 < s < 1.0:
            raise argparse.ArgumentTypeError(f"share {s} outside (0, 1)")
    return shares


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shapeforms",
        description="Rigid-motion-invariant statistical shape modeling "
        "of triangle meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="mesh -> representation JSON")
    p.add_argument("--reference", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("reconstruct", help="representation JSON -> mesh")
    p.add_argument("--reference", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=_positive_float, default=DEFAULT_TOL)
    p.add_argument("--max-iter", type=_non_negative_int, default=DEFAULT_MAX_ITER)

    p = sub.add_parser("interpolate", help="geodesic between two meshes")
    p.add_argument("inputs", nargs=2, metavar="MESH")
    p.add_argument("--reference", required=True)
    p.add_argument("--steps", type=_positive_int, required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("mean", help="cohort -> mean representation + mesh")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--reference", required=True)
    p.add_argument("--out-rep", required=True)
    p.add_argument("--out-mesh", required=True)
    p.add_argument("--out-reference",
                   help="write the (possibly re-centered) reference mesh")
    p.add_argument("--rebias", type=_non_negative_int, default=0,
                   help="outer iterations re-centering the reference on the mean")
    p.add_argument("--tol", type=_positive_float, default=DEFAULT_MEAN_TOL)
    p.add_argument("--max-iter", type=_positive_int, default=DEFAULT_MEAN_MAX_ITER)

    p = sub.add_parser("pga", help="cohort -> model JSON + coefficients CSV")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--reference", required=True)
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-coeffs", required=True)
    p.add_argument("--omega", type=_positive_float, default=DEFAULT_OMEGA)

    p = sub.add_parser("synthesize", help="coefficients -> mesh")
    p.add_argument("--reference", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--coeffs", required=True,
                   help="comma-separated coefficient values")
    p.add_argument("--out", required=True)

    p = sub.add_parser("sample", help="draw random shapes from a model")
    p.add_argument("--reference", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--count", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--meshes", action="store_true",
                   help="also reconstruct each sample as OBJ")

    p = sub.add_parser("flatten", help="reference mesh -> planar OBJ + report")
    p.add_argument("--reference", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.add_argument("--scalars",
                   help="text file with one value per vertex, passed through "
                   "as an extra OBJ vertex column")

    p = sub.add_parser("features", help="cohort + model -> coefficients CSV")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--reference", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("classify", help="features + labels -> accuracy CSV")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True,
                   help="CSV with a shape,label header; row k labels feature "
                        "row k and names its shape or the shape's file name")
    p.add_argument("--out", required=True)
    p.add_argument("--out-model",
                   help="classifier trained on the full data, as JSON")
    p.add_argument("--shares", type=_share_list,
                   default=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    p.add_argument("--draws", type=_positive_int, default=DEFAULT_CV_DRAWS)
    p.add_argument("--reg", type=_positive_float, default=1.0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("metrics", help="specificity/generalization/compactness CSV")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--reference", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--omega", type=_positive_float, default=DEFAULT_OMEGA)
    p.add_argument("--n-samples", type=_positive_int, default=1000)
    p.add_argument("--metric", choices=["intrinsic", "vertex"], default="intrinsic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-modes", type=_positive_int)

    p = sub.add_parser("diagnose",
                       help="relative transition-rotation angle histogram")
    p.add_argument("inputs", nargs=2, metavar="MESH")
    p.add_argument("--reference", help="defaults to the first input mesh")
    p.add_argument("--out", required=True)
    p.add_argument("--bins", type=_positive_int, default=36)

    p = sub.add_parser("gen-synthetic", help="write seeded synthetic data")
    p.add_argument("--kind", required=True, choices=list(_SYNTHETIC))
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_positive_int, default=20,
                   help="shapes per cohort (cohort kinds only)")
    p.add_argument("--subdivisions", type=_non_negative_int, default=2)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except ShapeFormsError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error:usage: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return 1
    return 0


def _load_reference(path):
    return build_reference(load_mesh(path))


def _encode_all(ref, paths):
    """The representations of the meshes at ``paths``, encoded as one stack."""
    return _encode_stack(ref, [load_mesh(path) for path in paths])[0]


def _fmt(value):
    return f"{value:.17g}"


def _warn_unconverged(report, path):
    """One stderr line when the mesh written to ``path`` comes from a
    reconstruction that stopped before meeting its tolerance."""
    if not report.converged:
        print(f"warning: {path}: reconstruction did not converge in "
              f"{report.iterations} iterations", file=sys.stderr)


def _write_reconstruction(ref, rep, path, **kwargs):
    """Reconstruct ``rep``, write the mesh to ``path`` and warn if the
    solve did not converge; ``kwargs`` go to :func:`reconstruct`."""
    mesh, report = reconstruct(ref, rep, **kwargs)
    save_mesh(mesh, path)
    _warn_unconverged(report, path)
    return report


def _cmd_encode(args):
    ref = _load_reference(args.reference)
    rep, _ = encode(ref, load_mesh(args.input))
    rep.save(args.out)
    print(f"encoded {args.input}: {rep.n_edges} edge rotations, "
          f"{rep.n_triangles} stretches")


def _cmd_reconstruct(args):
    ref = _load_reference(args.reference)
    report = _write_reconstruction(ref, ShapeRep.load(args.input), args.out,
                                   tol=args.tol, max_iter=args.max_iter)
    print(f"reconstructed in {report.iterations} iterations, "
          f"converged={report.converged}, "
          f"final energy {_fmt(report.energies[-1])}")


def _cmd_interpolate(args):
    ref = _load_reference(args.reference)
    rep_a, rep_b = _encode_all(ref, args.inputs)
    os.makedirs(args.out_dir, exist_ok=True)
    system = prefactor(ref)
    for k, lam in enumerate(np.linspace(0.0, 1.0, args.steps)):
        path = os.path.join(args.out_dir, f"interp_{k:03d}.obj")
        _write_reconstruction(ref, geodesic(rep_a, rep_b, lam), path, system=system)
    print(f"wrote {args.steps} meshes to {args.out_dir}")


def _cmd_mean(args):
    ref = _load_reference(args.reference)
    mean_kwargs = {"tol": args.tol, "max_iter": args.max_iter}
    if args.rebias > 0:
        meshes = [load_mesh(path) for path in args.inputs]
        ref, _, mu = unbiased_reference(meshes, outer_iterations=args.rebias,
                                        reference=ref, mean_kwargs=mean_kwargs)
    else:
        mu = frechet_mean(_encode_all(ref, args.inputs), **mean_kwargs)
    mu.save(args.out_rep)
    _write_reconstruction(ref, mu, args.out_mesh)
    if args.out_reference is not None:
        save_mesh(ref.mesh, args.out_reference)
    print(f"mean of {len(args.inputs)} shapes written to {args.out_rep}")


def _write_coeff_csv(path, names, rows):
    n_modes = rows.shape[1] if rows.size else 0
    with open(path, "w", encoding="utf-8") as handle:
        header = ",".join(["shape"] + [f"mode_{k + 1}" for k in range(n_modes)])
        handle.write(header + "\n")
        for name, row in zip(names, rows):
            handle.write(",".join([name] + [_fmt(x) for x in row]) + "\n")


def _cmd_pga(args):
    ref = _load_reference(args.reference)
    reps = _encode_all(ref, args.inputs)
    model = pga(ref, reps, params=DistanceParams(args.omega))
    model.save(args.out_model)
    _write_coeff_csv(args.out_coeffs, args.inputs, _coefficient_rows(ref, model, reps))
    print(f"model with {model.n_modes} modes written to {args.out_model}")


def _cmd_synthesize(args):
    ref = _load_reference(args.reference)
    model = PGAModel.load(args.model)
    coeffs = [float(x) for x in args.coeffs.split(",") if x]
    _write_reconstruction(ref, synthesize(model, coeffs), args.out)
    print(f"synthesized shape written to {args.out}")


def _cmd_sample(args):
    ref = _load_reference(args.reference)
    model = PGAModel.load(args.model)
    reps = sample(model, args.count, seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    system = prefactor(ref) if args.meshes else None
    for k, rep in enumerate(reps):
        stem = os.path.join(args.out_dir, f"sample_{k:03d}")
        rep.save(stem + ".json")
        if args.meshes:
            _write_reconstruction(ref, rep, stem + ".obj", system=system)
    print(f"wrote {args.count} samples to {args.out_dir}")


def _cmd_flatten(args):
    ref = _load_reference(args.reference)
    scalars = None
    if args.scalars is not None:
        scalars = np.loadtxt(args.scalars, dtype=float).reshape(-1)
    mesh, report = flatten(ref)
    save_mesh(mesh, args.out, vertex_scalars=scalars)
    _warn_unconverged(report, args.out)
    if args.report is not None:
        report.save(args.report)
    print(f"flattened: max edge distortion {_fmt(report.max_edge_distortion)}, "
          f"planarity residual {_fmt(report.planarity_residual)}")


def _cmd_features(args):
    ref = _load_reference(args.reference)
    model = PGAModel.load(args.model)
    rows = _coefficient_rows(ref, model, _encode_all(ref, args.inputs))
    _write_coeff_csv(args.out, args.inputs, rows)
    print(f"wrote {len(rows)} feature rows to {args.out}")


def _read_csv(path, last=None):
    """The rows below the header of the CSV file ``path``, as pairs of a
    line number and the row's fields, skipping blank lines. The header must
    begin with ``shape`` and, for a ``last`` name, end with it. A row with
    another number of fields than the header raises
    :class:`MeshFormatError` naming its line."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        if header[:1] != ["shape"] or last and (len(header) < 2 or header[-1] != last):
            raise ValueError(f"{path}: expected a 'shape,{last or '...'}' header")
        rows = []
        for record in filter(None, reader):
            if len(record) != len(header):
                raise MeshFormatError(f"{len(record)} fields under a header of "
                                      f"{len(header)}", path=path, line=reader.line_num)
            rows.append((reader.line_num, record))
    return rows


def _cmd_classify(args):
    rows = _read_csv(args.features)
    label_rows = _read_csv(args.labels, "label")
    features = np.array([[float(x) for x in row[1:]] for _, row in rows], dtype=float)
    labels = np.array([int(row[-1]) for _, row in label_rows], dtype=int)
    if labels.shape[0] != features.shape[0]:
        raise ValueError(
            f"{features.shape[0]} feature rows but {labels.shape[0]} labels"
        )
    # Rows pair by position; each label row names its feature row's shape,
    # by the name or by its final path component.
    for (line, row), (label_line, label_row) in zip(rows, label_rows):
        name, label_name = row[0], label_row[0]
        if label_name not in (name, os.path.basename(name)):
            raise ValueError(
                f"{args.labels}:{label_line}: label row names shape {label_name!r}, "
                f"but line {line} of {args.features} is shape {name!r}")
    rows = accuracy_curve(features, labels, args.shares, draws=args.draws,
                          reg=args.reg, seed=args.seed)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("share,mean_accuracy,std_accuracy\n")
        for share, mean, std in rows:
            handle.write(f"{_fmt(share)},{_fmt(mean)},{_fmt(std)}\n")
    if args.out_model is not None:
        clf = train_svm(features, labels, reg=args.reg)
        clf.save(args.out_model)
    for share, mean, std in rows:
        print(f"share {share:.2f}: accuracy {mean:.4f} +- {std:.4f}")


def _cmd_metrics(args):
    ref = _load_reference(args.reference)
    report = metrics_report(
        ref, _encode_all(ref, args.inputs), params=DistanceParams(args.omega),
        n_samples=args.n_samples, metric=args.metric, seed=args.seed,
        max_modes=args.max_modes,
    )
    report.write_csv(args.out)
    print(f"metrics over {report.modes.size} mode counts written to {args.out}")


def _cmd_diagnose(args):
    ref_path = args.reference if args.reference is not None else args.inputs[0]
    ref = _load_reference(ref_path)
    angles = relative_rotation_angles(*_encode_all(ref, args.inputs))
    counts, edges = np.histogram(angles, bins=args.bins, range=(0.0, np.pi))
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("bin_lo,bin_hi,count\n")
        for lo, hi, count in zip(edges[:-1], edges[1:], counts):
            handle.write(f"{_fmt(lo)},{_fmt(hi)},{int(count)}\n")
    print(f"max_angle {_fmt(float(angles.max()) if angles.size else 0.0)}")


def _numbered(prefix, meshes):
    return {f"{prefix}_{k:03d}.obj": mesh for k, mesh in enumerate(meshes)}


def _two_class_cohort(args):
    half = args.count // 2
    plain = synthetic.ellipsoid_cohort(half, seed=args.seed,
                                       subdivisions=args.subdivisions)
    bumped = synthetic.ellipsoid_cohort(
        args.count - half, seed=args.seed + 1,
        subdivisions=args.subdivisions, bump_amplitude=(0.15, 0.3),
    )
    return {**_numbered("class_neg", plain), **_numbered("class_pos", bumped)}


#: ``gen-synthetic`` kinds: what the summary line calls the data, and the
#: ``{file name: mesh}`` it writes.
_SYNTHETIC = {
    "pipe-pair": ("pipe pair", lambda args: dict(zip(
        ("pipe_cylinder.obj", "pipe_helix.obj"), synthetic.pipe_pair()))),
    "ellipsoid-cohort": ("{count} ellipsoids", lambda args: _numbered(
        "shape", synthetic.ellipsoid_cohort(args.count, seed=args.seed,
                                            subdivisions=args.subdivisions))),
    "two-class-cohort": ("two-class cohort ({count} shapes)", _two_class_cohort),
    "cylinder-patch": ("cylinder patch", lambda args: {
        "cylinder_patch.obj": synthetic.cylinder_patch()}),
    "hemisphere": ("hemisphere patch", lambda args: {
        "hemisphere.obj": synthetic.hemisphere_patch()}),
    "blob": ("blob", lambda args: {"blob.obj": synthetic.blob(seed=args.seed)}),
}


def _cmd_gen_synthetic(args):
    if args.kind == "two-class-cohort" and args.count < 2:
        raise ValueError(
            f"a two-class cohort needs --count 2 or more, got {args.count}")
    what, make = _SYNTHETIC[args.kind]
    meshes = make(args)
    os.makedirs(args.out_dir, exist_ok=True)
    for name, mesh in meshes.items():
        save_mesh(mesh, os.path.join(args.out_dir, name))
    if args.kind == "two-class-cohort":
        with open(os.path.join(args.out_dir, "labels.csv"), "w",
                  encoding="utf-8") as handle:
            handle.write("shape,label\n")
            for name in meshes:
                handle.write(f"{name},{1 if name.startswith('class_pos') else -1}\n")
    print(f"wrote {what.format(count=args.count)} to {args.out_dir}")


_COMMANDS = {
    "encode": _cmd_encode,
    "reconstruct": _cmd_reconstruct,
    "interpolate": _cmd_interpolate,
    "mean": _cmd_mean,
    "pga": _cmd_pga,
    "synthesize": _cmd_synthesize,
    "sample": _cmd_sample,
    "flatten": _cmd_flatten,
    "features": _cmd_features,
    "classify": _cmd_classify,
    "metrics": _cmd_metrics,
    "diagnose": _cmd_diagnose,
    "gen-synthetic": _cmd_gen_synthetic,
}


if __name__ == "__main__":
    sys.exit(main())
