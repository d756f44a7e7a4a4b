import filecmp
import json
import os

import numpy as np
import pytest

from psdesign.cli import main, validate_report
from psdesign.pfm import read_pfm


def write_config(path, **overrides):
    cfg = {
        "seed": 7,
        "alpha": 0.05,
        "outputs": str(path.parent / "out"),
        "scene": {
            "kind": "plane",
            "width": 12,
            "height": 10,
            "params": {},
            "albedo": {"kind": "constant", "value": 0.8},
        },
        "lights": {"rows": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
        "noise": {"sigma": 0.0},
        "optimizer": {"max_iters": 500, "restarts": 2},
        "trials": 4,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def test_render_matches_analytic_values(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "r"
    assert main(["render", "--config", str(cfg_path), "--out", str(out)]) == 0
    sidecar = json.loads((out / "render.json").read_text())
    assert sidecar["sigmas"] == [0.0, 0.0, 0.0]
    # frontal plane with albedo 0.8: axis lights x and y render 0, z renders 0.8
    for i, expected in enumerate([0.0, 0.0, 0.8]):
        img = read_pfm(out / sidecar["images"][i])
        assert img.shape == (10, 12)
        assert np.allclose(img, np.float32(expected), atol=0.0)


def test_render_deterministic_bytes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, noise={"sigma": 0.03})
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["render", "--config", str(cfg_path), "--out", str(a)]) == 0
    assert main(["render", "--config", str(cfg_path), "--out", str(b)]) == 0
    for name in os.listdir(a):
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_render_then_solve_round_trip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, scene={
        "kind": "sphere", "width": 25, "height": 25,
        "params": {"radius": 0.9}, "albedo": {"kind": "constant", "value": 0.9},
    }, lights={"baseline": "orthogonal-triad"})
    out_r = tmp_path / "render"
    out_s = tmp_path / "solve"
    assert main(["render", "--config", str(cfg_path), "--out", str(out_r)]) == 0
    assert main(["solve", "--sidecar", str(out_r / "render.json"),
                 "--out", str(out_s)]) == 0
    est = read_pfm(out_s / "normals.pfm").astype(float)
    est_mask = read_pfm(out_s / "normals.mask.pfm") > 0.5
    gt = read_pfm(out_r / "gt_normals.pfm").astype(float)
    gt_mask = read_pfm(out_r / "gt_normals.mask.pfm") > 0.5
    joint = est_mask & gt_mask
    assert joint.sum() > 50
    dots = np.clip(np.einsum("hwc,hwc->hw", est, gt), -1.0, 1.0)
    cross = np.linalg.norm(np.cross(est, gt), axis=-1)
    angles = np.degrees(np.arctan2(cross, dots))
    assert angles[joint].max() < 1e-5  # float32 storage bounds the round trip
    # shadowed pixels (outside the sphere, or dark in some image) are masked
    assert (~est_mask).sum() > 0


def test_solve_mismatched_image_count(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out_r = tmp_path / "render"
    assert main(["render", "--config", str(cfg_path), "--out", str(out_r)]) == 0
    sidecar = json.loads((out_r / "render.json").read_text())
    sidecar["images"] = sidecar["images"][:2]
    (out_r / "render.json").write_text(json.dumps(sidecar))
    code = main(["solve", "--sidecar", str(out_r / "render.json"),
                 "--out", str(tmp_path / "s")])
    assert code == 1


def test_optimize_shape_agnostic(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, lights={"baseline": "random", "m": 3}, seed=3)
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(cfg_path), "--shape-agnostic",
                 "--out", str(out)]) == 0
    lights = json.loads((out / "lights_optimized.json").read_text())
    assert lights["phi"] == pytest.approx(3.0, abs=1e-6)
    report = json.loads((out / "optimize_report.json").read_text())
    traj = report["phi_trajectory"]
    assert all(b <= a for a, b in zip(traj, traj[1:]))

    # identical seeds give identical reports
    out2 = tmp_path / "opt2"
    assert main(["optimize", "--config", str(cfg_path), "--shape-agnostic",
                 "--out", str(out2)]) == 0
    assert (out / "optimize_report.json").read_text() == \
        (out2 / "optimize_report.json").read_text()


def test_baseline_csv(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, lights={"baseline": "orthogonal-triad"})
    out = tmp_path / "base"
    assert main(["baseline", "--config", str(cfg_path), "--count", "50",
                 "--shape-agnostic", "--out", str(out)]) == 0
    lines = (out / "baseline_phi.csv").read_text().strip().splitlines()
    assert lines[0] == "index,phi"
    assert len(lines) == 51
    phis = [float(line.split(",")[1]) for line in lines[1:]]
    assert min(phis) >= 3.0  # identity prior floor

    out2 = tmp_path / "base2"
    assert main(["baseline", "--config", str(cfg_path), "--count", "50",
                 "--shape-agnostic", "--out", str(out2)]) == 0
    assert (out / "baseline_phi.csv").read_text() == (out2 / "baseline_phi.csv").read_text()


def test_baseline_zero_count_is_usage_error(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    assert main(["baseline", "--config", str(cfg_path), "--count", "0",
                 "--out", str(tmp_path / "x")]) == 1


def test_pipeline_zero_noise(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, scene={
        "kind": "sphere", "width": 33, "height": 33,
        "params": {"radius": 0.85}, "albedo": {"kind": "constant", "value": 0.9},
    }, lights={"baseline": "random", "m": 3}, trials=2)
    out = tmp_path / "pipe"
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    validate_report(report)
    for row in report["comparison"]:
        if row["note"] == "ok":
            assert row["mean_deg"] < 1e-6
    traj = report["optimization"]["phi_trajectory"]
    assert all(b <= a for a, b in zip(traj, traj[1:]))


def test_pipeline_noisy_and_deterministic(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, scene={
        "kind": "sphere", "width": 33, "height": 33,
        "params": {"radius": 0.85}, "albedo": {"kind": "constant", "value": 0.9},
    }, lights={"baseline": "random", "m": 3}, noise={"sigma": 0.02}, trials=6)
    a, b = tmp_path / "p1", tmp_path / "p2"
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(a)]) == 0
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(b)]) == 0
    for name in os.listdir(a):
        assert filecmp.cmp(a / name, b / name, shallow=False), name
    report = json.loads((a / "report.json").read_text())
    validate_report(report)
    rows = {r["name"]: r for r in report["comparison"]}
    assert rows["optimized"]["mean_deg"] <= rows["initial"]["mean_deg"]


def test_reports_carry_optimality_certificate(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, scene={
        "kind": "paraboloid", "width": 33, "height": 33,
        "params": {}, "albedo": {"kind": "constant", "value": 0.9},
    }, lights={"baseline": "random", "m": 6}, noise={"sigma": 0.01},
        optimizer={"max_iters": 4000, "restarts": 2}, trials=2)
    out = tmp_path / "pipe"
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 0
    opt = json.loads((out / "report.json").read_text())["optimization"]
    assert opt["converged"] is True
    assert 0.0 <= opt["optimality_gap"] <= 1e-12 * opt["phi_lower_bound"]
    assert opt["phi_final"] - opt["phi_lower_bound"] <= 1e-12 * opt["phi_lower_bound"]

    opt_out = tmp_path / "opt"
    assert main(["optimize", "--config", str(cfg_path), "--shape-agnostic",
                 "--out", str(opt_out)]) == 0
    report = json.loads((opt_out / "optimize_report.json").read_text())
    assert report["phi_lower_bound"] == 1.5  # (tr I^1/2)^2 / 6
    assert report["converged"] is True
    assert 0.0 <= report["optimality_gap"] <= 1e-12 * 1.5


def test_evaluate_command(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, scene={
        "kind": "sphere", "width": 25, "height": 25,
        "params": {"radius": 0.9}, "albedo": {"kind": "constant", "value": 0.9},
    }, lights={"baseline": "orthogonal-triad"}, noise={"sigma": 0.02})
    out_r = tmp_path / "render"
    out_s = tmp_path / "solve"
    out_e = tmp_path / "eval"
    assert main(["render", "--config", str(cfg_path), "--out", str(out_r)]) == 0
    assert main(["solve", "--sidecar", str(out_r / "render.json"), "--out", str(out_s)]) == 0
    assert main(["evaluate", "--est", str(out_s / "normals.pfm"),
                 "--gt", str(out_r / "gt_normals.pfm"), "--out", str(out_e)]) == 0
    stats = json.loads((out_e / "error_stats.json").read_text())
    assert stats["mean_deg"] > 0.0
    hist = (out_e / "error_hist.csv").read_text().splitlines()
    assert hist[0] == "bin_lo_deg,bin_hi_deg,count"
    assert (out_e / "error_map.pfm").exists()


@pytest.mark.parametrize("key", ["step_size", "armijo_shrink", "grad_tol", "max_iter"])
def test_unknown_optimizer_setting_is_usage_error(tmp_path, key):
    # a setting the optimizer does not read must not be silently ignored
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, optimizer={"max_iters": 500, key: 0.5})
    assert main(["optimize", "--config", str(cfg_path), "--shape-agnostic",
                 "--out", str(tmp_path / "x")]) == 1
    assert not (tmp_path / "x").exists()


def test_exit_codes(tmp_path):
    # missing config file: I/O error
    assert main(["render", "--config", str(tmp_path / "nope.json")]) == 3
    # invalid JSON: config error
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["render", "--config", str(bad)]) == 1
    # rank-deficient explicit light rows: numerical failure
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, lights={"rows": [[1, 0, 0], [0, 1, 0],
                                            [0.7071067811865476, 0.7071067811865476, 0]]})
    assert main(["render", "--config", str(cfg_path)]) == 2
    # output path collides with an existing file: I/O error
    cfg2 = tmp_path / "cfg2.json"
    write_config(cfg2)
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    assert main(["render", "--config", str(cfg2), "--out", str(blocker / "sub")]) == 3
    # unknown flag: argparse usage error with exit code 1
    with pytest.raises(SystemExit) as exc:
        main(["render", "--bogus"])
    assert exc.value.code == 1
