"""The four benchmark workloads and the standalone layer probes.

A workload generates its inputs untimed from the workload seed, prepares
its references in :meth:`Workload.prepare` (timed as set-up) and then
exposes one round of steps. Each step returns ``(failed, check)``: whether
the operation failed, and a thunk that checks its output apart from the
timing. Every call into a shapeforms module goes through the tracer, so
the traced run records a span around it.
"""

from dataclasses import dataclass

import numpy as np

import checks
from shapeforms import (
    ShapeRep,
    build_reference,
    coefficients,
    compactness,
    deformation_gradients,
    encode,
    flat_projection,
    flatten,
    frechet_mean,
    generalization_curve,
    init_rotations,
    load_mesh,
    local_step,
    monte_carlo_cv,
    pdm_coefficients,
    pdm_fit,
    pga,
    polar3,
    prefactor,
    reconstruct,
    rep_distance,
    rep_exp,
    rep_log,
    sample,
    save_mesh,
    so3_exp,
    so3_log,
    spd2_exp,
    spd2_log,
    specificity,
    synthesize,
    train_svm,
)
from shapeforms.synthetic import (
    cylinder_patch,
    ellipsoid_cohort,
    icosphere,
    smooth_deformation,
)


@dataclass
class Step:
    """One timed step of a round; ``operation`` steps are counted and
    enter the per-operation times, the others only the round time."""

    label: str
    fn: object
    operation: bool = True


@dataclass
class Kit:
    """The workload's own arrays, handed to the standalone probes."""

    ref: object
    meshes: list
    reps: list
    system: object = None
    patch_ref: object = None
    patch_system: object = None
    features: np.ndarray = None
    labels: np.ndarray = None


def _seeds(seed, stream, count):
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2**31, count)]


def traced_reconstruct(t, ref, rep, system):
    """``reconstruct`` whose span carries its local/global rounds (the
    initial global solve counts as one), with the counts of the call."""
    mesh, report = t.call("reconstruction.reconstruct", reconstruct, ref, rep,
                          system=system)
    t.annotate(rounds=report.iterations + 1)
    t.count("reconstruction.iterations", report.iterations)
    t.count("reconstruction.unconverged", int(not report.converged))
    return mesh, report


class Workload:
    name = ""
    #: Preparations after each round, each timed as a whole.
    SETUP_BATCH = 1

    def __init__(self, seed, workdir, tracer):
        self.seed = seed
        self.workdir = workdir
        self.t = tracer

    def prepare(self):
        raise NotImplementedError

    def steps(self):
        raise NotImplementedError

    def kit(self):
        raise NotImplementedError


class Roundtrip(Workload):
    """File in, file out on integrable inputs: encode, save, load and
    reconstruct deformed icospheres, plus the flattening of a developable
    patch."""

    name = "roundtrip-20k"
    TARGETS = 2
    PATCH = (60, 90)  # 10,800 triangles

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        self.sphere = icosphere(5)
        self.targets = [smooth_deformation(self.sphere, seed=s)
                        for s in _seeds(seed, 1, self.TARGETS)]
        for k, mesh in enumerate(self.targets):
            save_mesh(mesh, self.workdir / f"target{k}.obj")
        rng = np.random.default_rng([seed, 2])
        n_u, n_v = self.PATCH
        self.patch_args = dict(n_u=n_u, n_v=n_v, radius=rng.uniform(0.8, 1.2),
                               height=rng.uniform(1.5, 2.5),
                               wedge=rng.uniform(1.2, 1.6) * np.pi)
        self.patch = cylinder_patch(**self.patch_args)
        self.development = checks.cylinder_development(**self.patch_args)

    def prepare(self):
        t = self.t
        self.ref = t.call("reference.build", build_reference, self.sphere)
        self.system = t.call("reconstruction.prefactor", prefactor, self.ref)
        self.patch_ref = t.call("reference.build", build_reference, self.patch)
        self.patch_system = t.call("reconstruction.prefactor", prefactor,
                                   self.patch_ref)

    def _chain(self, k):
        t, ref = self.t, self.ref
        rep_path = self.workdir / f"rep{k}.json"
        mesh = t.call("mesh.load", load_mesh, self.workdir / f"target{k}.obj")
        rep, _ = t.call("representation.encode", encode, ref, mesh)
        t.call("representation.save", rep.save, rep_path)
        loaded = t.call("representation.load", ShapeRep.load, rep_path)
        out, report = traced_reconstruct(t, ref, loaded, self.system)
        t.call("mesh.save", save_mesh, out, self.workdir / f"out{k}.obj")

        def check():
            checks.check_same_rep(rep, loaded)
            checks.check_roundtrip(self.targets[k].vertices, out.vertices,
                                   report.iterations)

        return not report.converged, check

    def _flatten(self):
        flat, _ = self.t.call("flattening.flatten", flatten, self.patch_ref,
                              system=self.patch_system)

        def check():
            checks.check_flattening(self.patch.vertices, self.patch.triangles,
                                    flat.vertices, self.development)

        return False, check

    def steps(self):
        chains = [Step(f"chain{k}", lambda k=k: self._chain(k))
                  for k in range(self.TARGETS)]
        return chains + [Step("flatten", self._flatten)]

    def kit(self):
        # The probes need four shapes, two per class for the SVM calls.
        extra = [smooth_deformation(self.sphere, seed=s)
                 for s in _seeds(self.seed, 4, 3 - self.TARGETS)]
        meshes = [self.sphere] + self.targets + extra
        return Kit(ref=self.ref, meshes=meshes,
                   reps=[encode(self.ref, m)[0] for m in meshes],
                   system=self.system, patch_ref=self.patch_ref,
                   patch_system=self.patch_system)


class Decode(Workload):
    """Reconstruction of non-integrable representations: a PGA model's
    Fréchet mean and samples drawn from it.

    Every one of these reconstructions currently stops at ``max_iter``
    unconverged, and that is counted as a failed operation. This workload
    ignores ``--seed``: samples drawn with other seeds end near the limit
    on either side of it (of 53 samples drawn with ``sample`` seeds 1 to
    27, 7 converged, after 94 to 100 iterations), so seed-drawn samples
    would make the failed share differ from run to run.
    """

    name = "decode-1k"
    SETUP_BATCH = 4
    COHORT = 12
    COHORT_SEED = 0
    SAMPLE_SEED = 1
    SAMPLES = 2

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        self.cohort = ellipsoid_cohort(self.COHORT, seed=self.COHORT_SEED,
                                       subdivisions=3)
        ref = build_reference(self.cohort[0])
        self.cohort_reps = [encode(ref, m)[0] for m in self.cohort]
        self.mean = frechet_mean(self.cohort_reps)
        model = pga(ref, self.cohort_reps, mu=self.mean)
        self.targets = [self.mean] + sample(model, self.SAMPLES, seed=self.SAMPLE_SEED)

    def prepare(self):
        self.ref = self.t.call("reference.build", build_reference, self.cohort[0])
        self.system = self.t.call("reconstruction.prefactor", prefactor, self.ref)

    def _decode(self, rep):
        _, report = traced_reconstruct(self.t, self.ref, rep, self.system)

        def check():
            checks.check_energy_trace(report.energies)
            recomputed = checks.reconstruction_energy(
                self.ref.mesh.vertices, self.ref.mesh.triangles, rep.rotations,
                rep.stretches, report.positions, report.rotations)
            checks.check_final_energy(report.energies[-1], recomputed)

        return not report.converged, check

    def steps(self):
        return [Step(f"decode{k}", lambda rep=rep: self._decode(rep))
                for k, rep in enumerate(self.targets)]

    def kit(self):
        return Kit(ref=self.ref, meshes=self.cohort[:4],
                   reps=[self.mean] + self.cohort_reps[:3], system=self.system)


class Quality(Workload):
    """The paper's model-quality analysis: mean, PGA, specificity per mode
    count, the generalization curve and compactness, plus re-synthesis of
    every shape from its all-mode coefficients."""

    name = "quality-5k"
    SETUP_BATCH = 4
    SHAPES = 6
    SPECIFICITY_SAMPLES = 10

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        self.sphere = icosphere(4)
        self.meshes = [smooth_deformation(self.sphere, seed=s)
                       for s in _seeds(seed, 3, self.SHAPES)]
        ref = build_reference(self.sphere)
        self.reps = [encode(ref, m)[0] for m in self.meshes]

    def prepare(self):
        self.ref = self.t.call("reference.build", build_reference, self.sphere)

    def _mean(self):
        self.mu = self.t.call("statistics.frechet_mean", frechet_mean, self.reps)
        mu = self.mu

        def check():
            checks.check_mean_stretches(mu.stretches, [r.stretches for r in self.reps])

        return False, check

    def _pga(self):
        self.model = self.t.call("statistics.pga", pga, self.ref, self.reps, mu=self.mu)
        return False, None

    def _specificity(self, modes):
        value = self.t.call("evaluation.specificity", specificity, self.ref,
                            self.model, self.reps,
                            n_samples=self.SPECIFICITY_SAMPLES, modes=modes, seed=0)

        def check():
            checks.require(np.isfinite(value) and value > 0.0,
                           f"specificity {value!r} is not a positive distance")

        return False, check

    def _generalization(self):
        curve = self.t.call("evaluation.generalization_curve", generalization_curve,
                            self.ref, self.reps)
        return False, lambda: checks.check_generalization(curve)

    def _compactness(self):
        model = self.model
        curve = [self.t.call("evaluation.compactness", compactness, model, k)
                 for k in range(1, model.n_modes + 1)]
        return False, lambda: checks.check_compactness(curve)

    def _resynthesis(self):
        t, model = self.t, self.model
        pairs = []
        for rep in self.reps:
            a = t.call("statistics.coefficients", coefficients, self.ref, model, rep)
            pairs.append((t.call("statistics.synthesize", synthesize, model, a), rep))

        def check():
            for synthesized, rep in pairs:
                checks.check_resynthesis(synthesized, rep)

        return False, check

    def steps(self):
        # The number of modes is SHAPES - 1 for shapes in general position.
        spec = [Step(f"specificity{k}", lambda k=k: self._specificity(k))
                for k in range(1, self.SHAPES)]
        return ([Step("frechet_mean", self._mean), Step("pga", self._pga)] + spec
                + [Step("generalization_curve", self._generalization),
                   Step("compactness", self._compactness),
                   Step("resynthesis", self._resynthesis)])

    def kit(self):
        return Kit(ref=self.ref, meshes=self.meshes[:4], reps=self.reps[:4])


class Classify(Workload):
    """The C9 classification experiment: coefficient and PDM features of two
    ellipsoid classes, then Monte-Carlo cross-validated SVMs at nine shares."""

    name = "classify-c9"
    SETUP_BATCH = 40
    PER_CLASS = 60
    SHARES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    DRAWS = 10

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        # Seed 0 gives the cohort of acceptance criterion C9.
        self.meshes = (ellipsoid_cohort(self.PER_CLASS, seed=100 + 2 * seed)
                       + ellipsoid_cohort(self.PER_CLASS, seed=101 + 2 * seed,
                                          bump_amplitude=(0.18, 0.35)))
        self.labels = np.repeat([-1, 1], self.PER_CLASS)

    def prepare(self):
        self.ref = self.t.call("reference.build", build_reference, self.meshes[0])

    def _features(self):
        t, ref = self.t, self.ref
        self.reps = [t.call("representation.encode", encode, ref, m)[0]
                     for m in self.meshes]
        model = t.call("statistics.pga", pga, ref, self.reps)
        self.features = np.stack([
            t.call("statistics.coefficients", coefficients, ref, model, r)
            for r in self.reps])
        pdm = t.call("evaluation.pdm_fit", pdm_fit, self.meshes)
        self.pdm_features = np.stack([
            t.call("evaluation.pdm_coefficients", pdm_coefficients, pdm, m)
            for m in self.meshes])
        self.accuracy = {}
        return False, None

    def _cv(self, kind, share):
        X = self.features if kind == "coefficients" else self.pdm_features
        mean, _ = self.t.call("evaluation.monte_carlo_cv", monte_carlo_cv, X,
                              self.labels, share, draws=self.DRAWS, seed=0)
        self.t.count("evaluation.svm_fits", self.DRAWS)
        self.accuracy[kind, share] = mean
        if kind == "pdm" and share == self.SHARES[-1]:
            acc = self.accuracy
            return False, lambda: checks.check_classification(
                self.SHARES, [acc["coefficients", s] for s in self.SHARES],
                [acc["pdm", s] for s in self.SHARES])
        return False, None

    def steps(self):
        cv = [Step(f"cv-{kind}-{share}", lambda k=kind, s=share: self._cv(k, s))
              for kind in ("coefficients", "pdm") for share in self.SHARES]
        return [Step("features", self._features, operation=False)] + cv

    def kit(self):
        pick = [0, 1, self.PER_CLASS, self.PER_CLASS + 1]
        return Kit(ref=self.ref, meshes=[self.meshes[i] for i in pick],
                   reps=[self.reps[i] for i in pick], features=self.features,
                   labels=self.labels)


WORKLOADS = {w.name: w for w in (Roundtrip, Decode, Quality, Classify)}


#: Calls per standalone probe; the per-layer value is their median.
PROBE_CALLS = 3


def probe_layers(t, kit, workdir, speed):
    """Time, on the workload's own arrays, each layer call that the
    operations did not reach: library internals (the warm start, the local
    step, the global solve, the Lie-group kernels, ``flat_projection``)
    and public calls this workload makes no use of. These spans carry the
    operation id ``probe`` and lie outside every operation span; each is
    followed by its share of calibration, like the rounds' steps."""
    t.op_id = "probe"
    reached = {s["name"] for s in t.spans}

    def timed(name, fn, *args, times=PROBE_CALLS, **kwargs):
        for _ in range(times):
            out = t.call(name, fn, *args, **kwargs)
            speed.follow(t.durations(name)[-1])
        return out

    def probe(name, fn, *args, times=PROBE_CALLS, **kwargs):
        if name not in reached:
            timed(name, fn, *args, times=times, **kwargs)

    ref, meshes, reps = kit.ref, kit.meshes, kit.reps
    system = kit.system or timed("reconstruction.prefactor", prefactor, ref)
    rotations = timed("reconstruction.init_rotations", init_rotations, ref, reps[0])
    gradients = deformation_gradients(ref, meshes[0])
    timed("reconstruction.local_step", local_step, ref, reps[0], gradients, rotations)
    timed("reconstruction.solve", system.solve, gradients)
    if "reconstruction.reconstruct" not in reached:
        traced_reconstruct(t, ref, reps[1], system)
        speed.follow(t.durations("reconstruction.reconstruct")[-1])
    probe("representation.encode", encode, ref, meshes[0])
    path = workdir / "probe_rep.json"
    probe("representation.save", reps[0].save, path)
    probe("representation.load", ShapeRep.load, path)
    mesh_path = workdir / "probe_mesh.obj"
    probe("mesh.save", save_mesh, meshes[0], mesh_path)
    probe("mesh.load", load_mesh, mesh_path)
    tangent = timed("representation.rep_log", rep_log, reps[0], reps[1])
    timed("representation.rep_exp", rep_exp, reps[0], tangent)
    timed("representation.rep_distance", rep_distance, ref, reps[0], reps[1])

    relative = reps[1].rotations @ np.swapaxes(reps[0].rotations, -1, -2)
    axis_angles = so3_log(relative)
    logs = spd2_log(reps[0].stretches)
    kernels = (("liegroups.polar3", polar3, gradients, 3 * gradients.nbytes),
               ("liegroups.so3_log", so3_log, relative,
                relative.nbytes + axis_angles.nbytes),
               ("liegroups.so3_exp", so3_exp, axis_angles,
                relative.nbytes + axis_angles.nbytes),
               ("liegroups.spd2_log", spd2_log, reps[0].stretches, 2 * logs.nbytes),
               ("liegroups.spd2_exp", spd2_exp, logs, 2 * logs.nbytes))
    for name, fn, arg, nbytes in kernels:
        for _ in range(5):
            with t.span(name, items=arg.shape[0], bytes=nbytes):
                fn(arg)
            speed.follow(t.durations(name)[-1])

    probe("statistics.frechet_mean", frechet_mean, reps)
    mu = frechet_mean(reps)
    probe("statistics.pga", pga, ref, reps, mu=mu)
    model = pga(ref, reps, mu=mu)
    probe("statistics.coefficients", coefficients, ref, model, reps[0])
    coeffs = coefficients(ref, model, reps[0])
    probe("statistics.synthesize", synthesize, model, coeffs)
    probe("statistics.sample", sample, model, 2, seed=0)
    probe("evaluation.specificity", specificity, ref, model, reps, n_samples=2,
          modes=1, seed=0, times=1)
    probe("evaluation.generalization_curve", generalization_curve, ref, reps, times=1)
    if kit.features is None:
        features = np.stack([coefficients(ref, model, r) for r in reps])
        labels = np.resize([-1, 1], len(reps))
    else:
        features, labels = kit.features, kit.labels
    probe("evaluation.train_svm", train_svm, features, labels)
    probe("evaluation.monte_carlo_cv", monte_carlo_cv, features, labels, 0.5, draws=2)
    probe("evaluation.pdm_fit", pdm_fit, meshes)
    probe("evaluation.pdm_coefficients", pdm_coefficients, pdm_fit(meshes), meshes[0])

    patch_ref = kit.patch_ref or build_reference(cylinder_patch(n_u=10, n_v=15))
    patch_system = kit.patch_system or prefactor(patch_ref)
    timed("flattening.flat_projection", flat_projection, patch_ref)
    probe("flattening.flatten", flatten, patch_ref, system=patch_system, times=1)
    t.op_id = None

