"""Command-line interface.

Every subcommand is a file-in/file-out pipeline and is deterministic given
its ``--seed``; numeric output is printed with 17 significant digits so
identical invocations produce byte-identical files. Errors are reported on
stderr as ``error:<category>: message`` with a nonzero exit code.
"""

import argparse
import csv
import os
import sys


def _positive_float(text):
    value = float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"{text} is not positive")
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
    p.add_argument("--omega", type=_positive_float, default=None)

    p = sub.add_parser("reconstruct", help="representation JSON -> mesh")
    p.add_argument("--reference", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=_positive_float, default=1e-8)
    p.add_argument("--max-iter", type=_non_negative_int, default=100)

    p = sub.add_parser("interpolate", help="geodesic between two meshes")
    p.add_argument("inputs", nargs=2, metavar=("A", "B"))
    p.add_argument("--reference", required=True)
    p.add_argument("--steps", type=_positive_int, required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("mean", help="cohort -> mean representation + mesh")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--reference", required=True)
    p.add_argument("--out-rep", required=True)
    p.add_argument("--out-mesh", required=True)
    p.add_argument("--out-reference", default=None,
                   help="write the (possibly re-centered) reference mesh")
    p.add_argument("--rebias", type=_non_negative_int, default=0,
                   help="outer iterations re-centering the reference on the mean")
    p.add_argument("--tol", type=_positive_float, default=1e-10)
    p.add_argument("--max-iter", type=_positive_int, default=50)

    p = sub.add_parser("pga", help="cohort -> model JSON + coefficients CSV")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--reference", required=True)
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-coeffs", required=True)
    p.add_argument("--omega", type=_positive_float, default=None)

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
    p.add_argument("--report", default=None)
    p.add_argument("--scalars", default=None,
                   help="text file with one value per vertex, passed through "
                   "as an extra OBJ vertex column")

    p = sub.add_parser("features", help="cohort + model -> coefficients CSV")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--reference", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("classify", help="features + labels -> accuracy CSV")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--out-model", default=None,
                   help="classifier trained on the full data, as JSON")
    p.add_argument("--shares", type=_share_list,
                   default=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    p.add_argument("--draws", type=_positive_int, default=200)
    p.add_argument("--reg", type=_positive_float, default=1.0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("metrics", help="specificity/generalization/compactness CSV")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--reference", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--omega", type=_positive_float, default=None)
    p.add_argument("--n-samples", type=_positive_int, default=1000)
    p.add_argument("--metric", choices=["intrinsic", "vertex"], default="intrinsic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-modes", type=_positive_int, default=None)

    p = sub.add_parser("diagnose",
                       help="relative transition-rotation angle histogram")
    p.add_argument("inputs", nargs=2, metavar=("A", "B"))
    p.add_argument("--reference", default=None,
                   help="defaults to the first input mesh")
    p.add_argument("--out", required=True)
    p.add_argument("--bins", type=_positive_int, default=36)

    p = sub.add_parser("gen-synthetic", help="write seeded synthetic data")
    p.add_argument("--kind", required=True,
                   choices=["pipe-pair", "ellipsoid-cohort", "two-class-cohort",
                            "cylinder-patch", "hemisphere", "blob"])
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=20,
                   help="shapes per cohort (cohort kinds only)")
    p.add_argument("--subdivisions", type=int, default=2)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)

    import json

    from .errors import ShapeFormsError

    handler = _COMMANDS[args.command]
    try:
        handler(args)
    except ShapeFormsError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, KeyError) as exc:
        print(f"error:format: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error:usage: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return 1
    return 0


def _load_reference(path):
    from .mesh import load_mesh
    from .reference import build_reference

    return build_reference(load_mesh(path))


def _params(omega):
    from .representation import DistanceParams

    return DistanceParams(omega) if omega is not None else DistanceParams()


def _fmt(value):
    return f"{value:.17g}"


def _warn_unconverged(report, path):
    """One stderr line when the reconstruction written to ``path`` stopped
    before meeting its tolerance."""
    if not report.converged:
        print(f"warning: {path}: reconstruction did not converge in "
              f"{report.iterations} iterations", file=sys.stderr)


def _cmd_encode(args):
    from .mesh import load_mesh
    from .representation import encode

    ref = _load_reference(args.reference)
    rep, _ = encode(ref, load_mesh(args.input))
    rep.save(args.out, omega=args.omega)
    print(f"encoded {args.input}: {rep.n_edges} edge rotations, "
          f"{rep.n_triangles} stretches")


def _cmd_reconstruct(args):
    from .mesh import save_mesh
    from .reconstruction import reconstruct
    from .representation import ShapeRep

    ref = _load_reference(args.reference)
    rep = ShapeRep.load(args.input)
    mesh, report = reconstruct(ref, rep, tol=args.tol, max_iter=args.max_iter)
    save_mesh(mesh, args.out)
    _warn_unconverged(report, args.out)
    print(f"reconstructed in {report.iterations} iterations, "
          f"converged={report.converged}, "
          f"final energy {_fmt(report.energies[-1])}")


def _cmd_interpolate(args):
    import numpy as np

    from .mesh import load_mesh, save_mesh
    from .reconstruction import prefactor, reconstruct
    from .representation import encode, geodesic

    ref = _load_reference(args.reference)
    rep_a, _ = encode(ref, load_mesh(args.inputs[0]))
    rep_b, _ = encode(ref, load_mesh(args.inputs[1]))
    os.makedirs(args.out_dir, exist_ok=True)
    system = prefactor(ref)
    for k, lam in enumerate(np.linspace(0.0, 1.0, args.steps)):
        rep = geodesic(rep_a, rep_b, lam)
        mesh, report = reconstruct(ref, rep, system=system)
        path = os.path.join(args.out_dir, f"interp_{k:03d}.obj")
        save_mesh(mesh, path)
        _warn_unconverged(report, path)
    print(f"wrote {args.steps} meshes to {args.out_dir}")


def _cmd_mean(args):
    from .mesh import load_mesh, save_mesh
    from .reconstruction import reconstruct
    from .representation import encode
    from .statistics import frechet_mean, unbiased_reference

    meshes = [load_mesh(path) for path in args.inputs]
    ref = _load_reference(args.reference)
    mean_kwargs = {"tol": args.tol, "max_iter": args.max_iter}
    if args.rebias > 0:
        ref, _, mu = unbiased_reference(meshes, outer_iterations=args.rebias,
                                        reference=ref, mean_kwargs=mean_kwargs)
    else:
        reps = [encode(ref, mesh)[0] for mesh in meshes]
        mu = frechet_mean(reps, **mean_kwargs)
    mu.save(args.out_rep)
    mesh, report = reconstruct(ref, mu)
    save_mesh(mesh, args.out_mesh)
    _warn_unconverged(report, args.out_mesh)
    if args.out_reference is not None:
        save_mesh(ref.mesh, args.out_reference)
    print(f"mean of {len(meshes)} shapes written to {args.out_rep}")


def _write_coeff_csv(path, names, rows):
    n_modes = rows.shape[1] if rows.size else 0
    with open(path, "w", encoding="utf-8") as handle:
        header = ",".join(["shape"] + [f"mode_{k + 1}" for k in range(n_modes)])
        handle.write(header + "\n")
        for name, row in zip(names, rows):
            handle.write(",".join([name] + [_fmt(x) for x in row]) + "\n")


def _cmd_pga(args):
    import numpy as np

    from .mesh import load_mesh
    from .representation import encode
    from .statistics import coefficients, pga

    ref = _load_reference(args.reference)
    reps = [encode(ref, load_mesh(path))[0] for path in args.inputs]
    model = pga(ref, reps, params=_params(args.omega))
    model.save(args.out_model)
    rows = np.stack([coefficients(ref, model, rep) for rep in reps])
    _write_coeff_csv(args.out_coeffs, args.inputs, rows)
    print(f"model with {model.n_modes} modes written to {args.out_model}")


def _cmd_synthesize(args):
    from .mesh import save_mesh
    from .reconstruction import reconstruct
    from .statistics import PGAModel, synthesize

    ref = _load_reference(args.reference)
    model = PGAModel.load(args.model)
    coeffs = [float(x) for x in args.coeffs.split(",") if x]
    rep = synthesize(model, coeffs)
    mesh, report = reconstruct(ref, rep)
    save_mesh(mesh, args.out)
    _warn_unconverged(report, args.out)
    print(f"synthesized shape written to {args.out}")


def _cmd_sample(args):
    from .mesh import save_mesh
    from .reconstruction import prefactor, reconstruct
    from .statistics import PGAModel, sample

    ref = _load_reference(args.reference)
    model = PGAModel.load(args.model)
    reps = sample(model, args.count, seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    system = prefactor(ref) if args.meshes else None
    for k, rep in enumerate(reps):
        rep.save(os.path.join(args.out_dir, f"sample_{k:03d}.json"))
        if args.meshes:
            mesh, report = reconstruct(ref, rep, system=system)
            path = os.path.join(args.out_dir, f"sample_{k:03d}.obj")
            save_mesh(mesh, path)
            _warn_unconverged(report, path)
    print(f"wrote {args.count} samples to {args.out_dir}")


def _cmd_flatten(args):
    import numpy as np

    from .flattening import flatten
    from .mesh import save_mesh

    ref = _load_reference(args.reference)
    scalars = None
    if args.scalars is not None:
        scalars = np.loadtxt(args.scalars, dtype=float).reshape(-1)
    mesh, report = flatten(ref)
    save_mesh(mesh, args.out, vertex_scalars=scalars)
    if args.report is not None:
        report.save(args.report)
    print(f"flattened: max edge distortion {_fmt(report.max_edge_distortion)}, "
          f"planarity residual {_fmt(report.planarity_residual)}")


def _cmd_features(args):
    import numpy as np

    from .mesh import load_mesh
    from .representation import encode
    from .statistics import PGAModel, coefficients

    ref = _load_reference(args.reference)
    model = PGAModel.load(args.model)
    rows = []
    for path in args.inputs:
        rep, _ = encode(ref, load_mesh(path))
        rows.append(coefficients(ref, model, rep))
    _write_coeff_csv(args.out, args.inputs, np.stack(rows))
    print(f"wrote {len(rows)} feature rows to {args.out}")


def _read_feature_csv(path):
    import numpy as np

    names, rows = [], []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if not header or header[0] != "shape":
            raise ValueError(f"{path}: expected a 'shape,...' header")
        for record in reader:
            names.append(record[0])
            rows.append([float(x) for x in record[1:]])
    return names, np.array(rows, dtype=float)


def _read_label_csv(path):
    labels = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if not header or header[-1] != "label":
            raise ValueError(f"{path}: expected a '...,label' header")
        for record in reader:
            labels.append(int(record[-1]))
    return labels


def _cmd_classify(args):
    import numpy as np

    from .evaluation import accuracy_curve, train_svm

    _, features = _read_feature_csv(args.features)
    labels = np.array(_read_label_csv(args.labels), dtype=int)
    if labels.shape[0] != features.shape[0]:
        raise ValueError(
            f"{features.shape[0]} feature rows but {labels.shape[0]} labels"
        )
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
    from .evaluation import metrics_report
    from .mesh import load_mesh
    from .representation import encode

    ref = _load_reference(args.reference)
    reps = [encode(ref, load_mesh(path))[0] for path in args.inputs]
    report = metrics_report(
        ref, reps, params=_params(args.omega), n_samples=args.n_samples,
        metric=args.metric, seed=args.seed, max_modes=args.max_modes,
    )
    report.write_csv(args.out)
    print(f"metrics over {report.modes.size} mode counts written to {args.out}")


def _cmd_diagnose(args):
    import numpy as np

    from .mesh import load_mesh
    from .representation import encode, relative_rotation_angles

    ref_path = args.reference if args.reference is not None else args.inputs[0]
    ref = _load_reference(ref_path)
    rep_a, _ = encode(ref, load_mesh(args.inputs[0]))
    rep_b, _ = encode(ref, load_mesh(args.inputs[1]))
    angles = relative_rotation_angles(rep_a, rep_b)
    counts, edges = np.histogram(angles, bins=args.bins, range=(0.0, np.pi))
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("bin_lo,bin_hi,count\n")
        for lo, hi, count in zip(edges[:-1], edges[1:], counts):
            handle.write(f"{_fmt(lo)},{_fmt(hi)},{int(count)}\n")
    print(f"max_angle {_fmt(float(angles.max()) if angles.size else 0.0)}")


def _cmd_gen_synthetic(args):
    from . import synthetic
    from .mesh import save_mesh

    os.makedirs(args.out_dir, exist_ok=True)
    out = args.out_dir
    if args.kind == "pipe-pair":
        cylinder, helix = synthetic.pipe_pair()
        save_mesh(cylinder, os.path.join(out, "pipe_cylinder.obj"))
        save_mesh(helix, os.path.join(out, "pipe_helix.obj"))
        print(f"wrote pipe pair to {out}")
    elif args.kind == "ellipsoid-cohort":
        meshes = synthetic.ellipsoid_cohort(
            args.count, seed=args.seed, subdivisions=args.subdivisions
        )
        for k, mesh in enumerate(meshes):
            save_mesh(mesh, os.path.join(out, f"shape_{k:03d}.obj"))
        print(f"wrote {args.count} ellipsoids to {out}")
    elif args.kind == "two-class-cohort":
        half = args.count // 2
        plain = synthetic.ellipsoid_cohort(
            half, seed=args.seed, subdivisions=args.subdivisions
        )
        bumped = synthetic.ellipsoid_cohort(
            args.count - half, seed=args.seed + 1,
            subdivisions=args.subdivisions, bump_amplitude=(0.15, 0.3),
        )
        names, labels = [], []
        for k, mesh in enumerate(plain):
            name = f"class_neg_{k:03d}.obj"
            save_mesh(mesh, os.path.join(out, name))
            names.append(name)
            labels.append(-1)
        for k, mesh in enumerate(bumped):
            name = f"class_pos_{k:03d}.obj"
            save_mesh(mesh, os.path.join(out, name))
            names.append(name)
            labels.append(1)
        with open(os.path.join(out, "labels.csv"), "w", encoding="utf-8") as handle:
            handle.write("shape,label\n")
            for name, label in zip(names, labels):
                handle.write(f"{name},{label}\n")
        print(f"wrote two-class cohort ({args.count} shapes) to {out}")
    elif args.kind == "cylinder-patch":
        save_mesh(synthetic.cylinder_patch(), os.path.join(out, "cylinder_patch.obj"))
        print(f"wrote cylinder patch to {out}")
    elif args.kind == "hemisphere":
        save_mesh(synthetic.hemisphere_patch(), os.path.join(out, "hemisphere.obj"))
        print(f"wrote hemisphere patch to {out}")
    elif args.kind == "blob":
        save_mesh(synthetic.blob(seed=args.seed), os.path.join(out, "blob.obj"))
        print(f"wrote blob to {out}")


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
