"""Tests of the benchmark's own checks, tracer and host-speed calibration.

Each check must reject a corrupted output, and each independent
computation must agree with small cases worked by hand. Run with
``python3 -m pytest perfbench``; numpy is the only dependency.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import hostspeed
import tracer


def rot_z(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def cloud(n=200, seed=0):
    return np.random.default_rng(seed).normal(size=(n, 3))


# --- Kabsch RMS --------------------------------------------------------------


def test_kabsch_rms_of_a_rigid_motion_is_zero():
    P = cloud()
    Q = P @ rot_z(1.1).T + np.array([3.0, -2.0, 5.0])
    assert checks.kabsch_rms(P, Q) < 1e-12


def test_kabsch_rms_by_hand():
    # Best rotation turns the x-axis pair onto the y-axis pair; each point
    # then lies 1 from its target, so the RMS is 1.
    P = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    Q = np.array([[0.0, 2.0, 0.0], [0.0, -2.0, 0.0]])
    assert checks.kabsch_rms(P, Q) == pytest.approx(1.0, abs=1e-12)


def test_kabsch_rms_allows_no_mirror():
    P = np.array([[0.0, 0, 0], [1, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert checks.kabsch_rms(P * np.array([1.0, 1.0, -1.0]), P) > 0.1


# --- round trip ----------------------------------------------------------------


def test_roundtrip_accepts_a_rigid_copy_and_rejects_a_moved_vertex():
    target = cloud()
    moved = target @ rot_z(0.4).T + 1.0
    checks.check_roundtrip(target, moved, iterations=1)
    corrupted = moved.copy()
    corrupted[17, 0] += 1e-3 * checks.bbox_diagonal(target)
    with pytest.raises(checks.CheckError):
        checks.check_roundtrip(target, corrupted, iterations=1)


def test_roundtrip_rejects_too_many_iterations():
    target = cloud()
    with pytest.raises(checks.CheckError):
        checks.check_roundtrip(target, target, iterations=3)


def test_same_rep_rejects_one_changed_bit():
    rep = SimpleNamespace(reference_hash="h", rotations=np.eye(3)[None].copy(),
                          stretches=np.eye(2)[None].copy())
    checks.check_same_rep(rep, rep)
    other = SimpleNamespace(reference_hash="h", rotations=rep.rotations.copy(),
                            stretches=rep.stretches.copy())
    other.stretches[0, 0, 0] = np.nextafter(1.0, 2.0)
    with pytest.raises(checks.CheckError):
        checks.check_same_rep(rep, other)


# --- energy ----------------------------------------------------------------


def test_energy_trace_rejects_one_rise():
    checks.check_energy_trace([3.0, 2.0, 2.0, 1.0])
    with pytest.raises(checks.CheckError):
        checks.check_energy_trace([3.0, 2.0, 2.5, 1.0])


def square():
    """Unit square in z = 0 split into two triangles sharing edge (0, 2)."""
    vertices = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    triangles = np.array([[0, 1, 2], [0, 2, 3]])
    # Frames: F_0 = I, F_1 = Rz(45 deg); the reference's own transition
    # rotation is C_01 = F_0^T F_1 = Rz(45 deg).
    rotations = rot_z(np.pi / 4)[None]
    # Normal tips v_0 + n of both triangles.
    positions = np.vstack([vertices, [[0.0, 0, 1], [0.0, 0, 1]]])
    return vertices, triangles, rotations, positions


def test_inner_edge_pairs_of_the_square():
    _, triangles, _, _ = square()
    assert checks.inner_edge_pairs(triangles).tolist() == [[0, 1]]


def test_energy_of_the_reference_itself_is_zero():
    vertices, triangles, rotations, positions = square()
    stretches = np.broadcast_to(np.eye(2), (2, 2, 2))
    E = checks.reconstruction_energy(vertices, triangles, rotations, stretches,
                                     positions, np.broadcast_to(np.eye(3), (2, 3, 3)))
    assert E == pytest.approx(0.0, abs=1e-28)


def test_energy_of_a_turned_frame_by_hand():
    # R_0 = Rz(60 deg): only the pair 0 -> 1 mismatches, by |I - R_0|^2 =
    # 4 (1 - cos 60) = 2, weighted by A_1 / |N_1| = 0.5, so E = 1.
    vertices, triangles, rotations, positions = square()
    stretches = np.broadcast_to(np.eye(2), (2, 2, 2))
    R = np.stack([rot_z(np.pi / 3), np.eye(3)])
    E = checks.reconstruction_energy(vertices, triangles, rotations, stretches,
                                     positions, R)
    assert E == pytest.approx(1.0, rel=1e-12)


def test_energy_of_a_stretched_triangle_by_hand():
    # U_1 = diag(2, 1): the pair 0 -> 1 misses by |diag(1, 0, 0)|^2 = 1,
    # weighted by A_1 = 0.5.
    vertices, triangles, rotations, positions = square()
    stretches = np.stack([np.eye(2), np.diag([2.0, 1.0])])
    E = checks.reconstruction_energy(vertices, triangles, rotations, stretches,
                                     positions, np.broadcast_to(np.eye(3), (2, 3, 3)))
    assert E == pytest.approx(0.5, rel=1e-12)


def test_final_energy_rejects_a_mismatch():
    checks.check_final_energy(1.0, 1.0 + 1e-12)
    with pytest.raises(checks.CheckError):
        checks.check_final_energy(1.0, 1.0 + 1e-6)


# --- flattening --------------------------------------------------------------


def chordal_cylinder(n_u=3, n_v=4, radius=1.0, height=2.0, wedge=1.5 * np.pi):
    """A chordal cylinder patch built by hand, and its development."""
    us = np.linspace(0.0, height, n_u + 1)
    vs = np.linspace(0.0, wedge, n_v + 1)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    vertices = np.stack([radius * np.cos(vv), radius * np.sin(vv), uu],
                        axis=-1).reshape(-1, 3)
    faces = []
    for i in range(n_u):
        for j in range(n_v):
            a = i * (n_v + 1) + j
            faces += [(a, a + n_v + 2, a + 1), (a, a + n_v + 1, a + n_v + 2)]
    development = checks.cylinder_development(n_u, n_v, radius, height, wedge)
    return vertices, np.array(faces), development


def test_cylinder_development_by_hand():
    # A half cylinder of radius 1 in two rings: the chord between the rings
    # is 2 sin(pi / 4) = sqrt(2); heights 0 and 1 stay.
    flat = checks.cylinder_development(1, 2, 1.0, 1.0, np.pi)
    r2 = np.sqrt(2.0)
    expected = [[0, 0], [r2, 0], [2 * r2, 0], [0, 1], [r2, 1], [2 * r2, 1]]
    assert np.allclose(flat, expected, atol=1e-15)


def test_flattening_accepts_the_development_and_rejects_a_stretched_edge():
    vertices, triangles, development = chordal_cylinder()
    turned = development @ np.array([[0.6, -0.8], [0.8, 0.6]]) + 4.0
    flat = np.column_stack([turned, np.zeros(len(turned))])
    checks.check_flattening(vertices, triangles, flat, development)
    checks.check_flattening(vertices, triangles, flat * [1.0, -1.0, 1.0], development)
    stretched = flat.copy()
    stretched[0, :2] -= 1e-4 * (flat[1, :2] - flat[0, :2])
    with pytest.raises(checks.CheckError):
        checks.check_flattening(vertices, triangles, stretched, development)


# --- statistics ----------------------------------------------------------------


def test_log_euclidean_mean_by_hand():
    # log diag(4, 1) and log diag(1, 4) average to diag(log 2, log 2).
    a = np.diag([4.0, 1.0])[None]
    b = np.diag([1.0, 4.0])[None]
    assert np.allclose(checks.log_euclidean_mean([a, b]), 2.0 * np.eye(2), atol=1e-14)
    Q = np.array([[0.6, -0.8], [0.8, 0.6]])
    turned = [Q @ a @ Q.T, Q @ b @ Q.T]
    assert np.allclose(checks.log_euclidean_mean(turned), 2.0 * np.eye(2), atol=1e-14)


def test_mean_stretches_reject_a_perturbed_mean():
    rng = np.random.default_rng(1)
    stacks = []
    for _ in range(3):
        X = rng.normal(size=(5, 2, 2), scale=0.3)
        w, V = np.linalg.eigh(X + np.swapaxes(X, -1, -2))
        stacks.append((V * np.exp(w)[..., None, :]) @ np.swapaxes(V, -1, -2))
    mean = checks.log_euclidean_mean(stacks)
    checks.check_mean_stretches(mean, stacks)
    perturbed = mean.copy()
    perturbed[2] += 1e-6 * np.eye(2)
    with pytest.raises(checks.CheckError):
        checks.check_mean_stretches(perturbed, stacks)


def test_resynthesis_rejects_a_distant_shape():
    rep = SimpleNamespace(rotations=np.eye(3)[None], stretches=np.eye(2)[None])
    near = SimpleNamespace(rotations=rep.rotations + 1e-12, stretches=rep.stretches)
    checks.check_resynthesis(near, rep)
    far = SimpleNamespace(rotations=rep.rotations, stretches=rep.stretches + 1e-6)
    with pytest.raises(checks.CheckError):
        checks.check_resynthesis(far, rep)


def test_model_quality_curves():
    checks.check_compactness([0.5, 0.8, 1.0])
    checks.check_generalization([0.5, 0.4, 0.4])
    with pytest.raises(checks.CheckError):
        checks.check_compactness([0.5, 0.4, 1.0])
    with pytest.raises(checks.CheckError):
        checks.check_compactness([0.5, 0.8, 0.99])
    with pytest.raises(checks.CheckError):
        checks.check_generalization([0.5, 0.4, 0.45])


def test_classification_rejects_a_pdm_baseline_that_wins():
    shares = [0.1, 0.5, 0.9]
    checks.check_classification(shares, [0.95, 1.0, 1.0], [0.9, 1.0, 1.0])
    with pytest.raises(checks.CheckError):
        checks.check_classification(shares, [0.95, 0.97, 1.0], [0.9, 0.98, 1.0])
    with pytest.raises(checks.CheckError):
        checks.check_classification(shares, [0.9, 1.0, 1.0], [0.8, 1.0, 1.0])


# --- tracer --------------------------------------------------------------------


def test_self_time_excludes_children(tmp_path):
    # outer runs 0..10 and holds inner 1..3 and second 4..6: self time 6.
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    t = tracer.Tracer(clock=lambda: next(ticks))
    with t.span("outer"):
        with t.span("inner"):
            pass
        with t.span("second"):
            pass
    path = tmp_path / "trace.json"
    t.write(path)
    spans = {s["name"]: s for s in json.loads(path.read_text())["spans"]}
    assert spans["inner"]["parent"] == spans["outer"]["id"]
    assert spans["outer"]["self"] == 6.0
    assert spans["inner"]["self"] == 2.0


# --- host-speed calibration ----------------------------------------------------


def test_calibration_follows_work_in_proportion_and_scales_by_its_mean():
    # Every reading of the clock advances it by 4 ms: one kernel takes 4 ms.
    ticks = iter(np.arange(0.0, 10.0, 0.004))
    speed = hostspeed.HostSpeed(clock=lambda: float(next(ticks)))
    speed.follow(0.1)  # a SHARE of 25 ms: 7 kernels, 3 ms run ahead
    assert len(speed.samples) == 7
    speed.follow(0.01)  # 2.5 ms owed, within the 3 ms already run
    assert len(speed.samples) == 7
    speed.follow(0.01)  # 2 ms owed: one more kernel
    assert len(speed.samples) == 8
    assert speed.samples == pytest.approx([0.004] * 8)
    assert speed.scale() == pytest.approx(hostspeed.REFERENCE_S / 0.004)


def test_calibration_needs_a_sample():
    with pytest.raises(RuntimeError):
        hostspeed.HostSpeed().scale()
