"""One convergence policy for every public function that reconstructs.

``reconstruct`` and ``flatten`` return their mesh with ``converged`` false;
every library function that reconstructs internally raises
``ConvergenceError``; the command line writes an unconverged mesh and
warns on stderr, and fails with ``error:convergence`` where the
reconstruction is not written. Each table row runs with every
reconstruction cut to one local/global round, which no decode of a mean,
sample or curved patch meets.
"""

import ast
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

import shapeforms
from shapeforms import reconstruction
from shapeforms.cli import main
from shapeforms.errors import ConvergenceError
from shapeforms.evaluation import (
    discriminating_path,
    generalization_curve,
    metrics_report,
    specificity,
    train_svm,
)
from shapeforms.flattening import flatten
from shapeforms.mesh import save_mesh
from shapeforms.reconstruction import reconstruct
from shapeforms.reference import build_reference
from shapeforms.representation import encode
from shapeforms.statistics import _coefficient_rows, pga, sample, unbiased_reference
from shapeforms.synthetic import hemisphere_patch, icosphere, smooth_deformation

SRC = Path(shapeforms.__file__).resolve().parent
WARNING = re.compile(r"warning: (.+): reconstruction did not converge in 1 iterations")


@pytest.fixture
def one_round(monkeypatch):
    """Cut every reconstruction, also those inside other calls, to at most
    one local/global round."""
    alternate = reconstruction._alternate
    monkeypatch.setattr(
        reconstruction, "_alternate",
        lambda ref, rep, tol, max_iter, system: alternate(ref, rep, tol,
                                                          min(max_iter, 1), system))


@pytest.fixture(scope="module")
def data():
    ref = build_reference(icosphere(1))
    meshes = [smooth_deformation(ref.mesh, seed=s, stretch=0.1, wave_amplitude=0.04)
              for s in range(6)]
    reps = [encode(ref, mesh)[0] for mesh in meshes]
    model = pga(ref, reps)
    clf = train_svm(_coefficient_rows(ref, model, reps), [1, 1, 1, -1, -1, -1])
    return SimpleNamespace(ref=ref, meshes=meshes, reps=reps, model=model, clf=clf,
                           patch=build_reference(hemisphere_patch()))


# (public function, call, label of the reconstruction named in the error;
# None for a function that returns its unconverged report).
LIBRARY = [
    ("reconstruct", lambda d: reconstruct(d.ref, d.model.mean)[1], None),
    ("flatten", lambda d: flatten(d.patch)[1], None),
    ("unbiased_reference", lambda d: unbiased_reference(d.meshes[:4]),
     "the mean in round 1"),
    ("discriminating_path",
     lambda d: discriminating_path(d.ref, d.model, d.clf, 2, (-0.5, 0.5)),
     "discriminating path step 0"),
    ("specificity",
     lambda d: specificity(d.ref, d.model, d.reps[:3], n_samples=2, metric="vertex"),
     "specificity sample 0"),
    ("generalization_curve",
     lambda d: generalization_curve(d.ref, d.reps[:4], max_modes=1, metric="vertex"),
     "shape 0 projected on 1 modes"),
    ("metrics_report",
     lambda d: metrics_report(d.ref, d.reps[:4], n_samples=2, metric="vertex",
                              max_modes=1),
     "specificity sample 0"),
]


def reconstructing_functions():
    """The exported functions whose code reaches ``reconstruct``, following
    calls by name through the library modules."""
    calls = {}
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                calls.setdefault(node.name, set()).update(
                    call.func.id for call in ast.walk(node)
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Name))
    reaching = {"reconstruct"}
    while True:
        more = {name for name, called in calls.items() if called & reaching}
        if more <= reaching:
            break
        reaching |= more
    return reaching & set(shapeforms.__all__)


def test_table_covers_every_reconstructing_function():
    assert {name for name, _, _ in LIBRARY} == reconstructing_functions()


@pytest.mark.parametrize("call, label", [row[1:] for row in LIBRARY],
                         ids=[row[0] for row in LIBRARY])
def test_library_policy(data, one_round, call, label):
    if label is None:
        report = call(data)
        assert report.converged is False
        assert report.iterations == 1
    else:
        with pytest.raises(ConvergenceError,
                           match=f"^reconstruction of {label} did not converge "
                                 "in 1 iterations"):
            call(data)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, data):
    root = tmp_path_factory.mktemp("policy")
    save_mesh(data.ref.mesh, root / "ref.obj")
    for k, mesh in enumerate(data.meshes[:4]):
        save_mesh(mesh, root / f"shape_{k}.obj")
    save_mesh(data.patch.mesh, root / "hemisphere.obj")
    data.model.save(root / "model.json")
    sample(data.model, 1, seed=0)[0].save(root / "sample.json")
    return root


SHAPES = [f"shape_{k}.obj" for k in range(4)]
# (command line, whether it writes the meshes and warns; else it fails).
CLI = [
    (["reconstruct", "--reference", "ref.obj", "--input", "sample.json",
      "--out", "back.obj"], True),
    (["interpolate", "shape_0.obj", "shape_1.obj", "--reference", "ref.obj",
      "--steps", "3", "--out-dir", "interp"], True),
    (["mean", *SHAPES, "--reference", "ref.obj", "--out-rep", "mean.json",
      "--out-mesh", "mean.obj"], True),
    (["synthesize", "--reference", "ref.obj", "--model", "model.json",
      "--coeffs", "0.1", "--out", "synth.obj"], True),
    (["sample", "--reference", "ref.obj", "--model", "model.json", "--count", "2",
      "--seed", "1", "--out-dir", "samples", "--meshes"], True),
    (["flatten", "--reference", "hemisphere.obj", "--out", "flat.obj"], True),
    (["mean", *SHAPES, "--reference", "ref.obj", "--out-rep", "rb.json",
      "--out-mesh", "rb.obj", "--rebias", "1"], False),
    (["metrics", *SHAPES, "--reference", "ref.obj", "--out", "metrics.csv",
      "--metric", "vertex", "--n-samples", "2"], False),
]


@pytest.mark.parametrize("argv, writes", CLI,
                         ids=[" ".join(argv[:1] + [a for a in argv if a in (
                             "--rebias", "--meshes", "--metric")])
                              for argv, _ in CLI])
def test_cli_policy(workspace, one_round, capsys, monkeypatch, argv, writes):
    monkeypatch.chdir(workspace)
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    if writes:
        assert code == 0
        warned = [WARNING.fullmatch(line) for line in err.splitlines()]
        assert warned and all(warned), err
        for match in warned:
            assert (workspace / match.group(1)).exists()
    else:
        assert code == 1
        assert re.fullmatch(r"error:convergence: reconstruction of .+ did not "
                            r"converge in 1 iterations\n", err), err
        for name in ("rb.obj", "metrics.csv"):
            assert not (workspace / name).exists()
