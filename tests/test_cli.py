import functools
import glob
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from shapeforms import cli, representation
from shapeforms.cli import main
from shapeforms.flattening import flatten
from shapeforms.liegroups import polar3
from shapeforms.mesh import load_mesh, save_mesh
from shapeforms.reference import build_reference
from shapeforms.representation import ShapeRep, encode
from shapeforms.statistics import PGAModel, coefficients
from shapeforms.synthetic import (
    cylinder_patch,
    hemisphere_patch,
    icosphere,
    smooth_deformation,
)

from helpers import earlier_format_payload, needle_mesh

README = Path(__file__).resolve().parents[1] / "README.md"
WARNING = re.compile(r"warning: .+: reconstruction did not converge in \d+ iterations")


def rigid_rms(a, b):
    P = a.vertices - a.vertices.mean(axis=0)
    Q = b.vertices - b.vertices.mean(axis=0)
    H = P.T @ Q
    U, _, Vt = np.linalg.svd(H)
    S = np.diag([1.0, 1.0, np.sign(np.linalg.det(Vt.T @ U.T))])
    R = Vt.T @ S @ U.T
    return float(np.sqrt(np.mean(np.sum((P @ R.T - Q) ** 2, axis=1))))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    base = icosphere(1)
    save_mesh(base, root / "ref.obj")
    for seed in range(4):
        save_mesh(smooth_deformation(base, seed=seed), root / f"shape_{seed}.obj")
    save_mesh(cylinder_patch(n_u=8, n_v=12), root / "patch.obj")
    return root


@pytest.fixture(scope="module")
def model_file(workspace):
    """The ``pga`` model of the workspace's four shapes, written once for the
    tests that read a model, so that each of them also runs alone."""
    path = workspace / "fixture_model.json"
    inputs = [str(workspace / f"shape_{k}.obj") for k in range(4)]
    assert main(["pga", *inputs, "--reference", str(workspace / "ref.obj"),
                 "--out-model", str(path),
                 "--out-coeffs", str(workspace / "fixture_coeffs.csv")]) == 0
    return path


class TestRoundtrip:
    def test_encode_reconstruct(self, workspace, capsys):
        rep = workspace / "rep.json"
        out = workspace / "back.obj"
        assert main([
            "encode", "--reference", str(workspace / "ref.obj"),
            "--input", str(workspace / "shape_0.obj"), "--out", str(rep),
        ]) == 0
        assert main([
            "reconstruct", "--reference", str(workspace / "ref.obj"),
            "--input", str(rep), "--out", str(out),
        ]) == 0
        original = load_mesh(workspace / "shape_0.obj")
        back = load_mesh(out)
        assert rigid_rms(back, original) < 1e-6 * original.bbox_diagonal

    def test_shape_file_with_malformed_logs_refused(self, workspace, capsys):
        rep = workspace / "wide_rep.json"
        assert main([
            "encode", "--reference", str(workspace / "ref.obj"),
            "--input", str(workspace / "shape_0.obj"), "--out", str(rep),
        ]) == 0
        payload = json.loads(rep.read_text())
        payload["log_stretches"] = [row + [0.0] for row in payload["log_stretches"]]
        rep.write_text(json.dumps(payload) + "\n")
        capsys.readouterr()
        out = workspace / "wide_rep.obj"
        assert main([
            "reconstruct", "--reference", str(workspace / "ref.obj"),
            "--input", str(rep), "--out", str(out),
        ]) == 1
        assert capsys.readouterr().err.startswith(
            f"error:format: {rep}: 'log_stretches' is not a list of rows of 3 numbers")
        assert not out.exists()

    def test_shape_file_that_is_no_shape_refused(self, workspace, capsys):
        rep = workspace / "scaled_rep.json"
        assert main([
            "encode", "--reference", str(workspace / "ref.obj"),
            "--input", str(workspace / "shape_0.obj"), "--out", str(rep),
        ]) == 0
        payload = json.loads(rep.read_text())
        payload["quaternions"][5] = [2.0, 0.0, 0.0, 0.0]
        rep.write_text(json.dumps(payload) + "\n")
        capsys.readouterr()
        out = workspace / "refused_rep.obj"
        assert main([
            "reconstruct", "--reference", str(workspace / "ref.obj"),
            "--input", str(rep), "--out", str(out),
        ]) == 1
        assert capsys.readouterr().err.startswith(
            f"error:format: {rep}: quaternion of edge 5 is not a finite unit "
            f"quaternion")
        assert not out.exists()

    def test_earlier_format_shape_file_refused(self, workspace, tmp_path, capsys):
        # A shape file of the rotation-matrix format has no quaternions; its
        # shape is made again from the mesh by ``encode``.
        rep = tmp_path / "rep.json"
        assert main([
            "encode", "--reference", str(workspace / "ref.obj"),
            "--input", str(workspace / "shape_0.obj"), "--out", str(rep),
        ]) == 0
        shape = ShapeRep.load(rep)
        rep.write_text(json.dumps({"reference_hash": shape.reference_hash,
                                   **earlier_format_payload(shape)}) + "\n")
        capsys.readouterr()
        out = tmp_path / "never.obj"
        assert main([
            "reconstruct", "--reference", str(workspace / "ref.obj"),
            "--input", str(rep), "--out", str(out),
        ]) == 1
        assert capsys.readouterr().err == (
            f"error:format: {rep}: missing key 'quaternions'\n")
        assert not out.exists()

    def test_unconverged_reconstruction_warns(self, workspace, capsys):
        # A PGA sample is not integrable, so one iteration cannot converge.
        inputs = [str(workspace / f"shape_{k}.obj") for k in range(4)]
        model = workspace / "warn_model.json"
        assert main([
            "pga", *inputs, "--reference", str(workspace / "ref.obj"),
            "--out-model", str(model),
            "--out-coeffs", str(workspace / "warn_coeffs.csv"),
        ]) == 0
        sample_dir = workspace / "warn_samples"
        assert main([
            "sample", "--reference", str(workspace / "ref.obj"),
            "--model", str(model), "--count", "1", "--seed", "2",
            "--out-dir", str(sample_dir),
        ]) == 0
        capsys.readouterr()
        out = workspace / "warn_back.obj"
        assert main([
            "reconstruct", "--reference", str(workspace / "ref.obj"),
            "--input", str(sample_dir / "sample_000.json"), "--out", str(out),
            "--max-iter", "1",
        ]) == 0
        captured = capsys.readouterr()
        assert "converged=False" in captured.out
        assert captured.err == (
            f"warning: {out}: reconstruction did not converge in 1 iterations\n"
        )
        assert out.exists()

    def test_exact_input_converged_without_iterations(self, workspace, capsys):
        rep = workspace / "exact_rep.json"
        assert main([
            "encode", "--reference", str(workspace / "ref.obj"),
            "--input", str(workspace / "shape_2.obj"), "--out", str(rep),
        ]) == 0
        capsys.readouterr()
        assert main([
            "reconstruct", "--reference", str(workspace / "ref.obj"),
            "--input", str(rep), "--out", str(workspace / "exact_back.obj"),
            "--max-iter", "0",
        ]) == 0
        captured = capsys.readouterr()
        assert "in 0 iterations, converged=True" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("command, value", [
        ("reconstruct", "-1"), ("reconstruct", "two"),
        ("mean", "0"), ("mean", "-1"),
    ])
    def test_invalid_max_iter_rejected(self, workspace, capsys, command, value):
        ref = str(workspace / "ref.obj")
        if command == "reconstruct":
            args = ["reconstruct", "--reference", ref, "--input", "rep.json",
                    "--out", str(workspace / "never.obj")]
        else:
            args = ["mean", ref, ref, "--reference", ref,
                    "--out-rep", str(workspace / "never.json"),
                    "--out-mesh", str(workspace / "never.obj")]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--max-iter", value])
        assert exc.value.code == 2
        assert "--max-iter" in capsys.readouterr().err
        assert not (workspace / "never.obj").exists()

    @pytest.mark.parametrize("value", ["0", "-0.5", "nan", "inf"])
    def test_invalid_tol_rejected(self, workspace, capsys, value):
        out = workspace / "never.obj"
        with pytest.raises(SystemExit) as exc:
            main(["reconstruct", "--reference", str(workspace / "ref.obj"),
                  "--input", "rep.json", "--out", str(out), "--tol", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--tol" in err and f"{value} is not positive and finite" in err
        assert not out.exists()

    def test_converged_reconstruction_is_quiet(self, workspace, capsys):
        rep = workspace / "quiet_rep.json"
        assert main([
            "encode", "--reference", str(workspace / "ref.obj"),
            "--input", str(workspace / "shape_1.obj"), "--out", str(rep),
        ]) == 0
        capsys.readouterr()
        assert main([
            "reconstruct", "--reference", str(workspace / "ref.obj"),
            "--input", str(rep), "--out", str(workspace / "quiet_back.obj"),
        ]) == 0
        captured = capsys.readouterr()
        assert "converged=True" in captured.out
        assert captured.err == ""

    def test_corrupt_rep_json_fails_cleanly(self, workspace, capsys):
        bad = workspace / "bad.json"
        bad.write_text("{not json")
        code = main([
            "reconstruct", "--reference", str(workspace / "ref.obj"),
            "--input", str(bad), "--out", str(workspace / "never.obj"),
        ])
        assert code == 1
        assert "error:format" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text[:19], "Expecting value: line 1 column 20 (char 19)"),
        (lambda text: text.replace('"omega": 10.0', '"omega": "ten"'),
         "'omega' is not a number: got str"),
        (lambda text: text.replace('"reference_hash": "', '"reference_hash": 5, "x": "'),
         "'reference_hash' is not a string: got int"),
    ], ids=["truncated", "text_omega", "numeric_reference_hash"])
    def test_invalid_model_file_fails_with_its_name(self, workspace, model_file,
                                                    tmp_path, capsys, edit, message):
        model = tmp_path / "model.json"
        model.write_text(edit(model_file.read_text()))
        capsys.readouterr()
        assert main(["synthesize", "--reference", str(workspace / "ref.obj"),
                     "--model", str(model), "--coeffs", "0.1",
                     "--out", str(tmp_path / "never.obj")]) == 1
        assert capsys.readouterr().err == f"error:format: {model}: {message}\n"

    def test_encode_missing_file_fails(self, workspace, capsys):
        code = main([
            "encode", "--reference", str(workspace / "ref.obj"),
            "--input", str(workspace / "nope.obj"), "--out", str(workspace / "x.json"),
        ])
        assert code == 1
        assert "error:format" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "name, content",
        [("big_index.obj", b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999999\n"),
         ("big_index.off", b"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999999\n"),
         ("latin1.obj", b"# caf\xe9\nv 0 0 0\n"),
         ("negative.off", b"OFF\n-3 1 0\n0 0 0\n"),
         ("huge.off", b"OFF\n1000000000000000 1 0\n0 0 0\n")],
        ids=["obj-index", "off-index", "non-utf8", "negative-count", "huge-count"],
    )
    def test_unreadable_mesh_is_a_format_error(self, workspace, capsys, name, content):
        bad = workspace / name
        bad.write_bytes(content)
        code = main([
            "encode", "--reference", str(bad),
            "--input", str(workspace / "shape_0.obj"), "--out", str(workspace / "x.json"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:format: ")
        assert str(bad) in err


class TestInterpolate:
    def test_three_steps_middle_is_mean(self, workspace):
        out_dir = workspace / "interp"
        assert main([
            "interpolate", str(workspace / "shape_0.obj"), str(workspace / "shape_1.obj"),
            "--reference", str(workspace / "ref.obj"),
            "--steps", "3", "--out-dir", str(out_dir),
        ]) == 0
        files = sorted(out_dir.glob("interp_*.obj"))
        assert len(files) == 3

        mean_rep = workspace / "mean.json"
        mean_mesh = workspace / "mean.obj"
        assert main([
            "mean", str(workspace / "shape_0.obj"), str(workspace / "shape_1.obj"),
            "--reference", str(workspace / "ref.obj"),
            "--out-rep", str(mean_rep), "--out-mesh", str(mean_mesh),
        ]) == 0
        middle = load_mesh(files[1])
        mean = load_mesh(mean_mesh)
        assert rigid_rms(middle, mean) < 1e-6 * mean.bbox_diagonal


class TestModelPipeline:
    def test_pga_features_classify(self, workspace):
        model = workspace / "model.json"
        coeffs = workspace / "coeffs.csv"
        inputs = [str(workspace / f"shape_{k}.obj") for k in range(4)]
        assert main([
            "pga", *inputs,
            "--reference", str(workspace / "ref.obj"),
            "--out-model", str(model), "--out-coeffs", str(coeffs),
        ]) == 0
        header = coeffs.read_text().splitlines()[0]
        assert header.startswith("shape,mode_1")

        features = workspace / "features.csv"
        assert main([
            "features", *inputs,
            "--reference", str(workspace / "ref.obj"),
            "--model", str(model), "--out", str(features),
        ]) == 0

        labels = workspace / "labels.csv"
        labels.write_text("shape,label\n" + "\n".join(
            f"shape_{k}.obj,{1 if k % 2 else -1}" for k in range(4)
        ) + "\n")
        accuracy = workspace / "accuracy.csv"
        assert main([
            "classify", "--features", str(features), "--labels", str(labels),
            "--out", str(accuracy), "--shares", "0.5", "--draws", "4",
        ]) == 0
        lines = accuracy.read_text().splitlines()
        assert lines[0] == "share,mean_accuracy,std_accuracy"
        assert len(lines) == 2

    def test_coefficient_csvs_hold_library_coefficients(self, workspace, tmp_path,
                                                        monkeypatch):
        polar_calls = []

        def counted(D):
            polar_calls.append(np.shape(D))
            return polar3(D)

        monkeypatch.setattr(representation, "polar3", counted)
        inputs = [str(workspace / f"shape_{k}.obj") for k in range(4)]
        reference = str(workspace / "ref.obj")
        model_path, coeffs, features = (tmp_path / name for name in (
            "model.json", "coeffs.csv", "features.csv"))
        assert main(["pga", *inputs, "--reference", reference,
                     "--out-model", str(model_path), "--out-coeffs", str(coeffs)]) == 0
        # The cohort is one stack; the reference mesh encodes nothing.
        assert polar_calls == [(4, 80, 3, 3)]
        assert main(["features", *inputs, "--reference", reference,
                     "--model", str(model_path), "--out", str(features)]) == 0
        assert len(polar_calls) == 2
        monkeypatch.undo()

        # The loaded model, whose mean's stretch logs are those of its
        # rounded stretches, is the one behind features.csv.
        ref = build_reference(load_mesh(reference))
        model = PGAModel.load(model_path)
        expected = [coefficients(ref, model, encode(ref, load_mesh(path))[0])
                    for path in inputs]
        for path in (features, coeffs):
            rows = cli._read_csv(path)
            assert [row[0] for _, row in rows] == inputs
            values = np.array([[float(x) for x in row[1:]] for _, row in rows])
            if path == features:
                assert np.array_equal(values, expected)
            else:
                assert np.allclose(values, expected, rtol=1e-12, atol=0.0)

    def test_ill_conditioned_shape_named(self, workspace, tmp_path, capsys):
        save_mesh(needle_mesh(icosphere(1), 7), tmp_path / "needle.obj")
        inputs = [str(workspace / "shape_0.obj"), str(workspace / "shape_1.obj"),
                  str(tmp_path / "needle.obj"), str(workspace / "shape_2.obj")]
        assert main(["pga", *inputs, "--reference", str(workspace / "ref.obj"),
                     "--out-model", str(tmp_path / "model.json"),
                     "--out-coeffs", str(tmp_path / "coeffs.csv")]) == 1
        assert re.fullmatch(r"error:conditioning: singular value ratio \S+ below "
                            r"1e-10 at index \(2, 7\)\n", capsys.readouterr().err)
        assert not (tmp_path / "model.json").exists()

    def test_synthesize_and_sample(self, workspace, model_file):
        model = model_file
        out = workspace / "synth.obj"
        assert main([
            "synthesize", "--reference", str(workspace / "ref.obj"),
            "--model", str(model), "--coeffs", "0.2,-0.1", "--out", str(out),
        ]) == 0
        assert out.exists()

        sample_dir = workspace / "samples"
        assert main([
            "sample", "--reference", str(workspace / "ref.obj"),
            "--model", str(model), "--count", "3", "--seed", "11",
            "--out-dir", str(sample_dir),
        ]) == 0
        assert len(list(sample_dir.glob("sample_*.json"))) == 3

    def test_model_with_a_mode_of_another_size_refused(self, workspace, model_file,
                                                       capsys):
        # One mode holding the coordinates of two, with one variance, which
        # without a size check load as a model of two modes and sample.
        payload = json.loads(model_file.read_text())
        payload["modes"] = [{part: payload["modes"][0][part] + payload["modes"][1][part]
                             for part in ("rot_part", "stretch_part")}]
        payload["variances"] = payload["variances"][:1]
        model = workspace / "doubled_mode_model.json"
        model.write_text(json.dumps(payload) + "\n")
        capsys.readouterr()
        sample_dir = workspace / "refused_samples"
        assert main([
            "sample", "--reference", str(workspace / "ref.obj"),
            "--model", str(model), "--count", "2", "--out-dir", str(sample_dir),
        ]) == 1
        assert capsys.readouterr().err == (
            f"error:format: {model}: mode 0 sized (240 edges, 160 triangles) does "
            f"not fit the base shape (120, 80)\n")
        assert not sample_dir.exists()

    def test_model_with_an_earlier_format_mean_refused(self, workspace, model_file,
                                                      tmp_path, capsys):
        payload = json.loads(model_file.read_text())
        mean = PGAModel.load(model_file).mean
        payload["mean"] = {**earlier_format_payload(mean),
                           "log_stretches": payload["mean"]["log_stretches"]}
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload) + "\n")
        capsys.readouterr()
        out = tmp_path / "never.obj"
        assert main(["synthesize", "--reference", str(workspace / "ref.obj"),
                     "--model", str(model), "--coeffs", "0.1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error:format: {model}: missing key 'quaternions'\n")
        assert not out.exists()

    def test_shape_name_with_a_comma_is_quoted(self, workspace, tmp_path):
        # ``pga`` writes the name ``a,0.obj`` quoted, as ``csv.reader``
        # reads it back, so ``classify`` takes the file it wrote.
        inputs = [str(tmp_path / "a,0.obj")] + [
            str(workspace / f"shape_{k}.obj") for k in range(1, 4)]
        save_mesh(load_mesh(workspace / "shape_0.obj"), inputs[0])
        coeffs = tmp_path / "coeffs.csv"
        assert main(["pga", *inputs, "--reference", str(workspace / "ref.obj"),
                     "--out-model", str(tmp_path / "model.json"),
                     "--out-coeffs", str(coeffs)]) == 0
        rows = coeffs.read_text().splitlines()
        assert rows[1].startswith(f'"{inputs[0]}",')
        assert [row[0] for _, row in cli._read_csv(coeffs)] == inputs
        labels = tmp_path / "labels.csv"
        labels.write_text('shape,label\n"a,0.obj",-1\n' + "".join(
            f"shape_{k}.obj,{1 if k % 2 else -1}\n" for k in range(1, 4)))
        accuracy = tmp_path / "accuracy.csv"
        assert main(["classify", "--features", str(coeffs), "--labels", str(labels),
                     "--out", str(accuracy), "--shares", "0.5", "--draws", "4"]) == 0
        assert len(accuracy.read_text().splitlines()) == 2

    def test_metrics(self, workspace):
        out = workspace / "metrics.csv"
        inputs = [str(workspace / f"shape_{k}.obj") for k in range(4)]
        assert main([
            "metrics", *inputs,
            "--reference", str(workspace / "ref.obj"),
            "--out", str(out), "--n-samples", "20",
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "modes,specificity,generalization,compactness"
        last = lines[-1].split(",")
        assert float(last[3]) == pytest.approx(1.0, abs=1e-12)

    def test_metrics_in_vertex_distance(self, workspace):
        out = workspace / "metrics_vertex.csv"
        inputs = [str(workspace / f"shape_{k}.obj") for k in range(4)]
        assert main([
            "metrics", *inputs,
            "--reference", str(workspace / "ref.obj"),
            "--out", str(out), "--metric", "vertex", "--n-samples", "4",
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "modes,specificity,generalization,compactness"
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert rows.shape[0] >= 1
        assert np.all(np.isfinite(rows))
        assert rows[-1, 3] == pytest.approx(1.0, abs=1e-12)


class TestFlattenDiagnoseSynthetic:
    def test_flatten_with_report(self, workspace):
        out = workspace / "flat.obj"
        report = workspace / "flat.json"
        assert main([
            "flatten", "--reference", str(workspace / "patch.obj"),
            "--out", str(out), "--report", str(report),
        ]) == 0
        flat = load_mesh(out)
        assert np.allclose(flat.vertices[:, 2], 0.0)
        assert report.exists()

    def test_flatten_converged_is_quiet(self, workspace, capsys):
        capsys.readouterr()
        assert main([
            "flatten", "--reference", str(workspace / "patch.obj"),
            "--out", str(workspace / "flat_quiet.obj"),
        ]) == 0
        assert capsys.readouterr().err == ""

    def test_unconverged_flatten_warns(self, workspace, capsys, monkeypatch):
        hemisphere = workspace / "hemisphere.obj"
        save_mesh(hemisphere_patch(), hemisphere)
        monkeypatch.setattr(cli, "flatten", functools.partial(flatten, max_iter=1))
        out = workspace / "flat_short.obj"
        capsys.readouterr()
        assert main([
            "flatten", "--reference", str(hemisphere), "--out", str(out),
        ]) == 0
        assert capsys.readouterr().err == (
            f"warning: {out}: reconstruction did not converge in 1 iterations\n"
        )
        assert out.exists()

    def test_flatten_closed_surface_error(self, workspace, capsys):
        code = main([
            "flatten", "--reference", str(workspace / "ref.obj"),
            "--out", str(workspace / "nope.obj"),
        ])
        assert code == 1
        assert "error:topology" in capsys.readouterr().err

    def test_gen_synthetic_and_diagnose(self, workspace, capsys):
        data_dir = workspace / "pipes"
        assert main([
            "gen-synthetic", "--kind", "pipe-pair", "--out-dir", str(data_dir),
        ]) == 0
        hist = workspace / "hist.csv"
        assert main([
            "diagnose", str(data_dir / "pipe_cylinder.obj"),
            str(data_dir / "pipe_helix.obj"), "--out", str(hist),
        ]) == 0
        printed = capsys.readouterr().out
        max_angle = float(printed.split("max_angle")[-1].split()[0])
        assert 0.0 < max_angle < np.pi
        lines = hist.read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"

    def test_two_class_cohort(self, workspace):
        out_dir = workspace / "cohort"
        assert main([
            "gen-synthetic", "--kind", "two-class-cohort", "--count", "6",
            "--seed", "5", "--out-dir", str(out_dir), "--subdivisions", "1",
        ]) == 0
        labels = (out_dir / "labels.csv").read_text().splitlines()
        assert labels[0] == "shape,label"
        assert len(labels) == 7


class TestExtendedFlags:
    def test_mean_with_rebias_writes_reference(self, workspace):
        out_rep = workspace / "mean_rb.json"
        out_mesh = workspace / "mean_rb.obj"
        out_ref = workspace / "ref_rb.obj"
        assert main([
            "mean", *[str(workspace / f"shape_{k}.obj") for k in range(3)],
            "--reference", str(workspace / "ref.obj"),
            "--out-rep", str(out_rep), "--out-mesh", str(out_mesh),
            "--rebias", "1", "--out-reference", str(out_ref),
        ]) == 0
        rebias_ref = load_mesh(out_ref)
        mean_mesh = load_mesh(out_mesh)
        original_ref = load_mesh(workspace / "ref.obj")
        # Re-centering is a fixed-point iteration: one round already moves
        # the reference far closer to the cohort mean.
        assert (
            rigid_rms(rebias_ref, mean_mesh)
            < 0.1 * rigid_rms(original_ref, mean_mesh)
        )

    def _rebias_mean(self, workspace, name, *extra):
        out_rep = workspace / f"{name}.json"
        assert main([
            "mean", *[str(workspace / f"shape_{k}.obj") for k in range(3)],
            "--out-rep", str(out_rep), "--out-mesh", str(workspace / f"{name}.obj"),
            "--rebias", "1", *extra,
        ]) == 0
        return out_rep.read_bytes()

    def test_rebias_honors_reference_and_mean_settings(self, workspace):
        ref = str(workspace / "ref.obj")
        first = self._rebias_mean(workspace, "rb_ref", "--reference", ref)
        other = self._rebias_mean(workspace, "rb_other", "--reference",
                                  str(workspace / "shape_3.obj"))
        loose = self._rebias_mean(workspace, "rb_loose", "--reference", ref,
                                  "--tol", "1e-2")
        assert other != first
        assert loose != first
        assert self._rebias_mean(workspace, "rb_again", "--reference", ref) == first

    def test_rebias_honors_max_iter(self, workspace, capsys):
        assert main([
            "mean", *[str(workspace / f"shape_{k}.obj") for k in range(3)],
            "--reference", str(workspace / "ref.obj"),
            "--out-rep", str(workspace / "rb_short.json"),
            "--out-mesh", str(workspace / "rb_short.obj"),
            "--rebias", "1", "--max-iter", "1",
        ]) == 1
        assert "within 1 steps" in capsys.readouterr().err

    def test_negative_rebias_rejected(self, workspace, capsys):
        out = workspace / "never_rb.json"
        with pytest.raises(SystemExit) as exc:
            main([
                "mean", *[str(workspace / f"shape_{k}.obj") for k in range(3)],
                "--reference", str(workspace / "ref.obj"), "--out-rep", str(out),
                "--out-mesh", str(workspace / "never_rb.obj"), "--rebias", "-1",
            ])
        assert exc.value.code == 2
        assert "--rebias" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_with_meshes(self, workspace, model_file):
        sample_dir = workspace / "samples_mesh"
        assert main([
            "sample", "--reference", str(workspace / "ref.obj"),
            "--model", str(model_file), "--count", "2",
            "--seed", "3", "--out-dir", str(sample_dir), "--meshes",
        ]) == 0
        assert len(list(sample_dir.glob("sample_*.obj"))) == 2

    def test_flatten_scalar_passthrough(self, workspace):
        patch = load_mesh(workspace / "patch.obj")
        scalars = workspace / "scalars.txt"
        scalars.write_text("\n".join("2.5" for _ in range(patch.n_vertices)) + "\n")
        out = workspace / "flat_scal.obj"
        assert main([
            "flatten", "--reference", str(workspace / "patch.obj"),
            "--out", str(out), "--scalars", str(scalars),
        ]) == 0
        first = out.read_text().splitlines()[0].split()
        assert len(first) == 5
        assert first[-1] == "2.5"

    @staticmethod
    def _flatten_scalars(root, text, monkeypatch=None):
        """Flatten a 110-vertex patch with the scalars file ``text``, or
        refuse any flattening under ``monkeypatch``; the exit code and the
        scalars file."""
        patch = root / "patch.obj"
        save_mesh(cylinder_patch(n_u=9, n_v=10), patch)
        scalars = root / "scalars.txt"
        scalars.write_text(text)
        if monkeypatch is not None:
            monkeypatch.setattr(cli, "flatten", lambda ref: pytest.fail("flattened"))
        code = main(["flatten", "--reference", str(patch),
                     "--out", str(root / "never.obj"), "--scalars", str(scalars)])
        assert not (root / "never.obj").exists()
        return code, scalars

    def test_flatten_scalar_not_a_number_refused_with_its_line(self, tmp_path,
                                                                capsys):
        # Blank lines are skipped, and counted in the line numbers.
        values = ["0.5"] * 110
        values[6] = "x"
        code, scalars = self._flatten_scalars(tmp_path, "\n\n" + "\n".join(values))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error:format: {scalars}:9: 'x' is not a number\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_flatten_scalar_not_finite_refused_with_its_line(self, tmp_path, capsys,
                                                             value):
        # ``float`` parses these, but an OBJ vertex column must be finite.
        values = ["0.5"] * 110
        values[6] = value
        code, scalars = self._flatten_scalars(tmp_path, "\n".join(values))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error:format: {scalars}:7: {value!r} is not a finite number\n")

    def test_flatten_scalar_count_checked_before_flattening(self, tmp_path, capsys,
                                                            monkeypatch):
        code, scalars = self._flatten_scalars(tmp_path, "0.5\n" * 109, monkeypatch)
        assert code == 1
        assert capsys.readouterr().err == (
            f"error:format: {scalars}: expected 110 vertex scalars, got 109\n")

    def test_flatten_scalar_rows_of_two_refused(self, tmp_path, capsys):
        # 55 rows of two values hold 110 numbers, but not one per vertex line.
        code, scalars = self._flatten_scalars(tmp_path, "0.5 1.5\n" * 55)
        assert code == 1
        assert capsys.readouterr().err == (
            f"error:format: {scalars}:1: '0.5 1.5' is not a number\n")

    def test_classify_writes_model(self, tmp_path):
        features, labels = self._classify_inputs(tmp_path)
        clf_path = tmp_path / "clf.json"
        assert main([
            "classify", "--features", str(features), "--labels", str(labels),
            "--out", str(tmp_path / "acc2.csv"), "--shares", "0.5",
            "--draws", "2", "--out-model", str(clf_path),
        ]) == 0
        import json

        payload = json.loads(clf_path.read_text())
        assert "weights_std" in payload and "feature_std" in payload

    @staticmethod
    def _classify_inputs(root):
        """A features CSV of eight shapes named by their paths, and a labels
        CSV that names them by file name, in the same order."""
        rng = np.random.default_rng(0)
        names = [f"cohort/shape_{k}.obj" for k in range(8)]
        features = root / "features.csv"
        features.write_text("shape,mode_1,mode_2\n" + "".join(
            f"{name},{x:.17g},{y:.17g}\n" for name, (x, y)
            in zip(names, rng.normal(size=(8, 2)))))
        labels = root / "labels.csv"
        labels.write_text("shape,label\n" + "".join(
            f"shape_{k}.obj,{1 if k % 2 else -1}\n" for k in range(8)))
        return features, labels

    def _classify(self, features, labels, out):
        return main(["classify", "--features", str(features), "--labels", str(labels),
                     "--out", str(out), "--shares", "0.5", "--draws", "2"])

    def test_reordered_labels_refused(self, tmp_path, capsys):
        # Rows pair by position; a labels file in another order would
        # silently give every shape another shape's label.
        features, labels = self._classify_inputs(tmp_path)
        rows = labels.read_text().splitlines()
        labels.write_text("\n".join([rows[0], rows[2], rows[1], *rows[3:]]) + "\n")
        out = tmp_path / "never.csv"
        assert self._classify(features, labels, out) == 1
        assert capsys.readouterr().err == (
            f"error:usage: {labels}:2: label row names shape 'shape_1.obj', but line 2 "
            f"of {features} is shape 'cohort/shape_0.obj'\n")
        assert not out.exists()

    def test_labels_may_name_the_feature_rows_in_full(self, tmp_path):
        features, labels = self._classify_inputs(tmp_path)
        assert self._classify(features, labels, tmp_path / "by_file_name.csv") == 0
        full = tmp_path / "full_names.csv"
        full.write_text(labels.read_text().replace("shape_", "cohort/shape_"))
        assert self._classify(features, full, tmp_path / "by_path.csv") == 0
        assert ((tmp_path / "by_path.csv").read_bytes()
                == (tmp_path / "by_file_name.csv").read_bytes())

    def test_labels_without_a_shape_column_refused(self, tmp_path, capsys):
        features, labels = self._classify_inputs(tmp_path)
        labels.write_text("label\n" + "".join(
            f"{1 if k % 2 else -1}\n" for k in range(8)))
        assert self._classify(features, labels, tmp_path / "never.csv") == 1
        assert capsys.readouterr().err == (
            f"error:usage: {labels}: expected a 'shape,label' header\n")

    def test_blank_lines_skipped(self, tmp_path):
        features, labels = self._classify_inputs(tmp_path)
        assert self._classify(features, labels, tmp_path / "plain.csv") == 0
        for path in (features, labels):
            rows = path.read_text().splitlines()
            path.write_text("\n".join(rows[:3] + [""] + rows[3:] + [""]) + "\n")
        assert self._classify(features, labels, tmp_path / "blank.csv") == 0
        assert ((tmp_path / "blank.csv").read_bytes()
                == (tmp_path / "plain.csv").read_bytes())

    @pytest.mark.parametrize("which", ["features", "labels"])
    def test_short_row_refused_with_its_line(self, tmp_path, capsys, which):
        features, labels = self._classify_inputs(tmp_path)
        path = features if which == "features" else labels
        rows = path.read_text().splitlines()
        rows[4] = rows[4].rsplit(",", 1)[0]
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "never.csv"
        assert self._classify(features, labels, out) == 1
        fields = len(rows[0].split(","))
        assert capsys.readouterr().err == (
            f"error:format: {path}:5: {fields - 1} fields under a header of {fields}\n")
        assert not out.exists()

    @pytest.mark.parametrize("which, value, message", [
        ("features", "x", "'x' is not a number"),
        ("labels", "one", "'one' is not an integer"),
        ("features", "nan", "'nan' is not a finite number"),
        ("features", "inf", "'inf' is not a finite number"),
        ("features", "-inf", "'-inf' is not a finite number"),
    ])
    def test_unparsable_value_refused_with_its_line(self, tmp_path, capsys, which,
                                                    value, message):
        features, labels = self._classify_inputs(tmp_path)
        path = features if which == "features" else labels
        rows = path.read_text().splitlines()
        rows[3] = rows[3].rsplit(",", 1)[0] + f",{value}"
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "never.csv"
        assert self._classify(features, labels, out) == 1
        assert capsys.readouterr().err == f"error:format: {path}:4: {message}\n"
        assert not out.exists()

    def test_label_lines_named_past_a_blank_line(self, tmp_path, capsys):
        features, labels = self._classify_inputs(tmp_path)
        rows = labels.read_text().splitlines()
        labels.write_text("\n".join([rows[0], "", rows[2], rows[1], *rows[3:]]) + "\n")
        assert self._classify(features, labels, tmp_path / "never.csv") == 1
        assert capsys.readouterr().err == (
            f"error:usage: {labels}:3: label row names shape 'shape_1.obj', but line 2 "
            f"of {features} is shape 'cohort/shape_0.obj'\n")

    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_invalid_draws_rejected(self, workspace, capsys, value):
        out = workspace / "never.csv"
        with pytest.raises(SystemExit) as exc:
            main([
                "classify", "--features", str(workspace / "features.csv"),
                "--labels", str(workspace / "labels.csv"),
                "--out", str(out), "--draws", value,
            ])
        assert exc.value.code == 2
        assert "--draws" in capsys.readouterr().err
        assert not out.exists()


class TestCountOptions:
    @pytest.mark.parametrize("command, flag", [
        ("metrics", "--n-samples"), ("metrics", "--max-modes"),
        ("interpolate", "--steps"), ("sample", "--count"), ("diagnose", "--bins"),
    ])
    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_invalid_count_rejected(self, workspace, capsys, command, flag, value):
        ref = str(workspace / "ref.obj")
        shapes = [str(workspace / f"shape_{k}.obj") for k in range(3)]
        out = workspace / "never"
        args = {
            "metrics": ["metrics", *shapes, "--reference", ref, "--out", str(out)],
            "interpolate": ["interpolate", *shapes[:2], "--reference", ref,
                            "--out-dir", str(out)],
            "sample": ["sample", "--reference", ref, "--model", "model.json",
                       "--out-dir", str(out)],
            "diagnose": ["diagnose", *shapes[:2], "--out", str(out)],
        }[command]
        required = {"interpolate": "--steps", "sample": "--count"}
        if command in required and required[command] != flag:
            args += [required[command], "1"]
        with pytest.raises(SystemExit) as exc:
            main(args + [flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["ellipsoid-cohort", "two-class-cohort"])
    @pytest.mark.parametrize("value, message", [
        ("0", "0 is not positive"), ("-2", "-2 is not positive"),
        ("two", "invalid _positive_int value"),
    ])
    def test_gen_synthetic_invalid_count_rejected(self, workspace, capsys, kind,
                                                  value, message):
        out = workspace / "never_cohort"
        with pytest.raises(SystemExit) as exc:
            main(["gen-synthetic", "--kind", kind, "--out-dir", str(out),
                  "--count", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--count" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("value, message", [
        ("-1", "-1 is negative"), ("two", "invalid _non_negative_int value"),
    ])
    def test_gen_synthetic_invalid_subdivisions_rejected(self, workspace, capsys,
                                                         value, message):
        out = workspace / "never_subdivided"
        with pytest.raises(SystemExit) as exc:
            main(["gen-synthetic", "--kind", "ellipsoid-cohort", "--out-dir", str(out),
                  "--count", "2", "--subdivisions", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--subdivisions" in err and message in err
        assert not out.exists()

    def test_two_class_cohort_needs_two_shapes(self, workspace, capsys):
        out = workspace / "never_two_class"
        assert main(["gen-synthetic", "--kind", "two-class-cohort", "--out-dir",
                     str(out), "--count", "1"]) == 1
        assert "error:usage: a two-class cohort needs --count 2 or more, got 1" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_gen_synthetic_zero_subdivisions_accepted(self, workspace, capsys):
        out = workspace / "coarse_cohort"
        assert main(["gen-synthetic", "--kind", "ellipsoid-cohort", "--out-dir",
                     str(out), "--count", "2", "--subdivisions", "0"]) == 0
        assert "wrote 2 ellipsoids" in capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == ["shape_000.obj",
                                                         "shape_001.obj"]


class TestUsage:
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_help_renders(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage:")

    def test_missing_positional_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["interpolate", "a"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: shapeforms interpolate")
        assert "the following arguments are required" in err
        assert "Traceback" not in err


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, workspace):
        a = workspace / "rep_a.json"
        b = workspace / "rep_b.json"
        for out in (a, b):
            assert main([
                "encode", "--reference", str(workspace / "ref.obj"),
                "--input", str(workspace / "shape_2.obj"), "--out", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("metric", ["intrinsic", "vertex"])
    def test_metrics_identical_bytes(self, workspace, metric):
        inputs = [str(workspace / f"shape_{k}.obj") for k in range(4)]
        outs = [workspace / f"metrics_{metric}_{run}.csv" for run in ("a", "b")]
        for out in outs:
            assert main([
                "metrics", *inputs, "--reference", str(workspace / "ref.obj"),
                "--metric", metric, "--n-samples", "5", "--out", str(out),
            ]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_identical_bytes_across_processes(self, workspace):
        import subprocess
        import sys

        outs = []
        for name in ("proc_a.json", "proc_b.json"):
            out = workspace / name
            result = subprocess.run(
                [sys.executable, "-m", "shapeforms.cli",
                 "encode", "--reference", str(workspace / "ref.obj"),
                 "--input", str(workspace / "shape_3.obj"), "--out", str(out)],
                capture_output=True,
            )
            assert result.returncode == 0, result.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def readme_cli_commands():
    """The ``shapeforms`` command lines of the README's CLI section, with
    backslash continuations joined."""
    section = README.read_text(encoding="utf-8").split("## Command-line interface")[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines
            if line.strip() and not line.lstrip().startswith("#")]


class TestReadme:
    def test_cli_block_runs(self, tmp_path, monkeypatch, capsys):
        commands = readme_cli_commands()
        assert len(commands) >= 10
        monkeypatch.chdir(tmp_path)
        for words in commands:
            assert words[0] == "shapeforms"
            argv = []
            for word in words[1:]:
                argv += sorted(glob.glob(word)) if glob.has_magic(word) else [word]
            assert main(argv) == 0, (words, capsys.readouterr().err)
        for line in capsys.readouterr().err.splitlines():
            assert WARNING.fullmatch(line), line
        # The loaded model projects the cohort as the model that wrote it.
        assert (tmp_path / "features.csv").read_bytes() == \
            (tmp_path / "coeffs.csv").read_bytes()
