import numpy as np
import pytest

from shapeforms.cli import main
from shapeforms.mesh import load_mesh, save_mesh
from shapeforms.synthetic import cylinder_patch, icosphere, smooth_deformation


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

    def test_encode_missing_file_fails(self, workspace, capsys):
        code = main([
            "encode", "--reference", str(workspace / "ref.obj"),
            "--input", str(workspace / "nope.obj"), "--out", str(workspace / "x.json"),
        ])
        assert code == 1
        assert "error:format" in capsys.readouterr().err


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

    def test_synthesize_and_sample(self, workspace):
        model = workspace / "model.json"
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

    def test_sample_with_meshes(self, workspace):
        sample_dir = workspace / "samples_mesh"
        assert main([
            "sample", "--reference", str(workspace / "ref.obj"),
            "--model", str(workspace / "model.json"), "--count", "2",
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

    def test_classify_writes_model(self, workspace):
        clf_path = workspace / "clf.json"
        assert main([
            "classify", "--features", str(workspace / "features.csv"),
            "--labels", str(workspace / "labels.csv"),
            "--out", str(workspace / "acc2.csv"), "--shares", "0.5",
            "--draws", "2", "--out-model", str(clf_path),
        ]) == 0
        import json

        payload = json.loads(clf_path.read_text())
        assert "weights_std" in payload and "feature_std" in payload

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
