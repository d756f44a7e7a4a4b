import filecmp
import functools
import json
import os
import pathlib

import jsonschema
import numpy as np
import pytest

from psdesign import NoiseSpec, Stage, add_noise, cli, render_stack, solve_map, stream_key
from psdesign.cli import main, validate_report
from psdesign.oed import build_shape_prior
from psdesign.optimize import baseline_heuristic_spread, optimize_lights
from psdesign.pfm import read_pfm, write_pfm
from psdesign.scenes import generate

from conftest import noise_draws


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
    # naming the sidecar's own images writes the same bytes
    own = [str(out_r / name) for name in json.loads((out_r / "render.json").read_text())["images"]]
    named = tmp_path / "named"
    assert main(["solve", "--sidecar", str(out_r / "render.json"), "--images", *own,
                 "--out", str(named)]) == 0
    assert sorted(os.listdir(named)) == sorted(os.listdir(out_s))
    for name in os.listdir(out_s):
        assert filecmp.cmp(out_s / name, named / name, shallow=False), name


def test_solve_mismatched_image_count(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out_r = tmp_path / "render"
    assert main(["render", "--config", str(cfg_path), "--out", str(out_r)]) == 0
    sidecar = json.loads((out_r / "render.json").read_text())
    two = [str(out_r / name) for name in sidecar["images"][:2]]
    assert main(["solve", "--sidecar", str(out_r / "render.json"), "--images", *two,
                 "--out", str(tmp_path / "s")]) == 1
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
        assert row["note"] == "ok"
        assert row["mean_deg"] < 1e-6
    # at m = 3 the heuristic ring is the orthogonal triad, so its row is the triad's
    rows = {row.pop("name"): row for row in report["comparison"]}
    assert rows["heuristic-spread"] == rows["orthogonal-triad"]
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


@pytest.mark.parametrize("key", ["max_iters", "restarts"])
def test_zero_optimizer_count_is_config_error(tmp_path, capsys, key):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, optimizer={key: 0})
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"{key} must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["nan", "inf", "-0.1"])
def test_bad_noise_level_is_numeric_error(tmp_path, sigma):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "out"
    assert main(["render", "--config", str(cfg_path), "--sigma", sigma, "--out", str(out)]) == 2
    assert not (out / "render.json").exists()


def test_random_rig_with_no_lights_is_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, lights={"baseline": "random", "m": 0})
    out = tmp_path / "out"
    assert main(["render", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (out / "render.json").exists()


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


def test_per_image_noise_levels(tmp_path):
    # image i adds sigmas[i] times stream i of the run seed; a level of 0 leaves it clean
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, noise={"sigmas": [0.01, 0.0, 0.02]})
    out = tmp_path / "r"
    assert main(["render", "--config", str(cfg_path), "--out", str(out)]) == 0
    sidecar = json.loads((out / "render.json").read_text())
    assert sidecar["sigmas"] == [0.01, 0.0, 0.02]
    draws = noise_draws(7, 3, 120).reshape(3, 10, 12)
    expected = [0.0 + 0.01 * draws[0], np.zeros((10, 12)), 0.8 + 0.02 * draws[2]]
    for name, image in zip(sidecar["images"], expected):
        assert np.array_equal(read_pfm(out / name), image.astype(np.float32)), name


def test_sigma_flag_replaces_a_sigmas_list(tmp_path):
    listed, uniform = tmp_path / "listed.json", tmp_path / "uniform.json"
    write_config(listed, noise={"sigmas": [0.01, 0.0, 0.02]})
    write_config(uniform, noise={"sigma": 0.03})
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["render", "--config", str(listed), "--sigma", "0.03", "--out", str(a)]) == 0
    assert main(["render", "--config", str(uniform), "--out", str(b)]) == 0
    assert json.loads((a / "render.json").read_text())["sigmas"] == [0.03] * 3
    assert sorted(os.listdir(a)) == sorted(os.listdir(b))
    for name in os.listdir(a):
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_seed_flag_replaces_the_run_and_optimizer_seeds(tmp_path, monkeypatch):
    seeds = []

    def recording(initial, prior, config):
        seeds.append(config.seed)
        return optimize_lights(initial, prior, config)

    monkeypatch.setattr(cli, "optimize_lights", recording)
    # without optimizer.seed the optimizer takes the run seed; --seed replaces
    # both the run seed and an explicit optimizer.seed
    for optimizer, expected in [({"max_iters": 50}, [7, 11]),
                                ({"max_iters": 50, "seed": 5}, [5, 11])]:
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, lights={"baseline": "random", "m": 3}, optimizer=optimizer)
        seeds.clear()
        for flags in ([], ["--seed", "11"]):
            assert main(["optimize", "--config", str(cfg_path), "--shape-agnostic", *flags,
                         "--out", str(tmp_path / "opt")]) == 0
        assert seeds == expected

    # the random rig and the noise follow the replaced run seed
    flagged, seeded = tmp_path / "flagged.json", tmp_path / "seeded.json"
    write_config(flagged, lights={"baseline": "random", "m": 4}, noise={"sigma": 0.02})
    write_config(seeded, seed=11, lights={"baseline": "random", "m": 4}, noise={"sigma": 0.02})
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["render", "--config", str(flagged), "--seed", "11", "--out", str(a)]) == 0
    assert main(["render", "--config", str(seeded), "--out", str(b)]) == 0
    assert sorted(os.listdir(a)) == sorted(os.listdir(b))
    for name in os.listdir(a):
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_heuristic_spread_without_m_has_three_lights(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, lights={"baseline": "heuristic-spread"})
    out = tmp_path / "r"
    assert main(["render", "--config", str(cfg_path), "--out", str(out)]) == 0
    sidecar = json.loads((out / "render.json").read_text())
    assert np.array_equal(sidecar["lights"], baseline_heuristic_spread(3).rows)
    assert len(sidecar["images"]) == 3


def test_linear_algebra_failure_is_numeric_error(tmp_path, capsys, monkeypatch):
    # np.linalg.LinAlgError is a ValueError, which the config-error clause also catches
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "optimize_lights", singular)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    capsys.readouterr()
    assert main(["optimize", "--config", str(cfg_path), "--shape-agnostic",
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "psdesign: numerical failure: Singular matrix\n"


def test_solve_rejects_a_three_channel_image(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out_r = tmp_path / "render"
    assert main(["render", "--config", str(cfg_path), "--out", str(out_r)]) == 0
    normals = str(out_r / "gt_normals.pfm")
    capsys.readouterr()
    assert main(["solve", "--sidecar", str(out_r / "render.json"),
                 "--images", normals, normals, normals, "--out", str(tmp_path / "s")]) == 3
    assert "expected a 1-channel intensity image" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_solve_masks_an_infinite_pixel(tmp_path):
    # +inf in one pixel of img_002 makes that estimate infinite with z = +inf
    # (the rig's pseudo-inverse weighs image 2 positively in z): the solve masks
    # the pixel and keeps every other one, with no RuntimeWarning
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("### Run config", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(example)
    out_r, sidecar = tmp_path / "render", str(tmp_path / "render" / "render.json")
    assert main(["render", "--config", str(cfg_path), "--out", str(out_r)]) == 0
    assert main(["solve", "--sidecar", sidecar, "--out", str(tmp_path / "finite")]) == 0
    before = read_pfm(tmp_path / "finite" / "normals.mask.pfm") > 0.5
    assert before[32, 32]
    image = read_pfm(out_r / "img_002.pfm")
    image[32, 32] = np.inf
    write_pfm(out_r / "img_002.pfm", image)
    assert main(["solve", "--sidecar", sidecar, "--out", str(tmp_path / "inf")]) == 0
    after = read_pfm(tmp_path / "inf" / "normals.mask.pfm") > 0.5
    before[32, 32] = False
    assert np.array_equal(after, before)


def test_no_valid_pixels_is_numeric_error(tmp_path, capsys):
    # a valid config, but the first light of seed 7's random rig renders the
    # frontal plane at 0.014, below the 3-sigma shadow threshold of 0.06, so
    # the solve leaves no pixel valid
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, lights={"baseline": "random", "m": 6}, noise={"sigma": 0.02})
    config = ["--config", str(cfg_path)]
    assert main(["render", *config, "--out", str(tmp_path / "r")]) == 0
    assert main(["solve", "--sidecar", str(tmp_path / "r" / "render.json"),
                 "--out", str(tmp_path / "s")]) == 0
    capsys.readouterr()
    for argv in (["optimize", *config], ["baseline", *config, "--count", "3"],
                 ["pipeline", *config], ["evaluate", "--est", str(tmp_path / "s" / "normals.pfm"),
                                         "--gt", str(tmp_path / "r" / "gt_normals.pfm")]):
        assert main([*argv, "--out", str(tmp_path / argv[0])]) == 2, argv[0]
        assert capsys.readouterr().err.startswith("psdesign: no valid pixels: "), argv[0]


def _set(*path, value):
    """A config edit that sets the value at ``path``."""
    def edit(cfg):
        functools.reduce(dict.__getitem__, path[:-1], cfg)[path[-1]] = value
        return cfg
    return edit


def _rename(*path, to):
    """A config edit that moves the value at ``path`` to the sibling key ``to``."""
    def edit(cfg):
        parent = functools.reduce(dict.__getitem__, path[:-1], cfg)
        parent[to] = parent.pop(path[-1])
        return cfg
    return edit


ROWS = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

# (config edit, JSON path of the error, text naming the offending key or value)
MALFORMED = {
    "top-level list": (lambda cfg: [cfg], "$", "is not of type 'object'"),
    "scene string": (_set("scene", value="sphere"), "$.scene", "'sphere'"),
    "noise number": (_set("noise", value=0.02), "$.noise", "0.02"),
    "lights string": (_set("lights", value="random"), "$.lights", "'random'"),
    "albedo string": (_set("scene", "albedo", value="constant"), "$.scene.albedo", "'constant'"),
    "params list": (_set("scene", "params", value=[0.9]), "$.scene.params", "[0.9]"),
    "trials null": (_set("trials", value=None), "$.trials", "None"),
    "fractional width": (_set("scene", "width", value=12.7), "$.scene.width", "12.7"),
    "fractional m": (_set("lights", value={"baseline": "random", "m": 6.9}), "$.lights.m", "6.9"),
    "triad with m": (_set("lights", value={"baseline": "orthogonal-triad", "m": 8}),
                     "$.lights", "'m' was unexpected"),
    "rows and baseline": (_set("lights", value={"rows": ROWS, "baseline": "random"}),
                          "$.lights", "'baseline' was unexpected"),
    "sigma and sigmas": (_set("noise", value={"sigma": 0.02, "sigmas": [0.1] * 3}),
                         "$.noise", "'sigma' was unexpected"),
    "scene.prams": (_rename("scene", "params", to="prams"), "$.scene", "'prams' was unexpected"),
    "lights.n": (_set("lights", value={"baseline": "random", "n": 8}),
                 "$.lights", "'n' was unexpected"),
    "noise.sigm": (_set("noise", value={"sigm": 0.02}), "$.noise", "'sigm' was unexpected"),
    "trails": (_rename("trials", to="trails"), "$", "'trails' was unexpected"),
    "zero trials": (_set("trials", value=0), "$.trials", "0 is less than the minimum"),
    "alpha of one": (_set("alpha", value=1.0), "$.alpha", "1.0"),
    "sphere curvature": (_set("scene", "params", value={"curvature": 0.5}),
                         "$.scene.params", "'curvature' was unexpected"),
    "unknown albedo kind": (_set("scene", "albedo", value={"kind": "stripes"}),
                            "$.scene.albedo.kind", "'stripes'"),
}


@pytest.mark.parametrize("command", ["render", "pipeline"])
@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_config_is_config_error(tmp_path, capsys, monkeypatch, command, case):
    edit, path, offending = MALFORMED[case]
    cfg_path = tmp_path / "cfg.json"
    cfg = write_config(cfg_path, scene={"kind": "sphere", "width": 12, "height": 10,
                                        "params": {"radius": 0.9}})
    cfg_path.write_text(json.dumps(edit(cfg)))

    def no_work(spec):
        raise AssertionError("the config was not rejected before the scene was generated")

    monkeypatch.setattr(cli, "generate", no_work)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"{path}: " in err and offending in err, err
    assert "Traceback" not in err
    assert not out.exists()


# (config sections, exit code): a rig or noise levels that pass the schema but not their checks
BAD_RUN = {
    "wrong-length sigmas": ({"noise": {"sigmas": [0.01, 0.02]}}, 1),
    "negative sigma": ({"noise": {"sigma": -0.1}}, 2),
    "rank-deficient rows": ({"lights": {"rows": [[1, 0, 0], [0, 1, 0],
                                                 [0.7071067811865476, 0.7071067811865476, 0]]}},
                            2),
    "non-unit rows": ({"lights": {"rows": [[2, 0, 0], [0, 1, 0], [0, 0, 1]]}}, 1),
    "random rig with no lights": ({"lights": {"baseline": "random", "m": 0}}, 1),
    "mixed zero and positive sigmas": ({"noise": {"sigmas": [0.01, 0.0, 0.02]}}, 2),
}
# render writes such a run (see test_per_image_noise_levels); no solve can whiten it
RENDERABLE = {"mixed zero and positive sigmas"}
LOADING_COMMANDS = [["render"], ["optimize", "--shape-agnostic"],
                    ["baseline", "--count", "3", "--shape-agnostic"], ["pipeline"]]


@pytest.mark.parametrize("case, argv", [
    pytest.param(case, argv, id=f"{case}-{argv[0]}")
    for case in BAD_RUN for argv in LOADING_COMMANDS
    if not (case in RENDERABLE and argv == ["render"])])
def test_bad_rig_or_noise_fails_at_load(tmp_path, monkeypatch, argv, case):
    # also for shape-agnostic runs, which never read the noise levels
    sections, code = BAD_RUN[case]
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **sections)

    def no_work(spec):
        raise AssertionError("the config was not rejected before the scene was generated")

    monkeypatch.setattr(cli, "generate", no_work)
    out = tmp_path / "out"
    assert main([*argv, "--config", str(cfg_path), "--out", str(out)]) == code
    assert not out.exists()


@pytest.mark.parametrize("command", ["render", "pipeline"])
def test_integral_floats_run_as_integers(tmp_path, command):
    outs = []
    for width, m in [(16, 6), (16.0, 6.0)]:
        cfg_path = tmp_path / f"cfg-{width!r}.json"
        write_config(cfg_path, scene={"kind": "sphere", "width": width, "height": 12,
                                      "albedo": {"kind": "checkerboard", "cell": 4.0}},
                     lights={"baseline": "random", "m": m}, noise={"sigma": 0.01},
                     optimizer={"max_iters": 50.0}, trials=2.0)
        outs.append(tmp_path / f"out-{width!r}")
        assert main([command, "--config", str(cfg_path), "--out", str(outs[-1])]) == 0
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    for name in names:
        assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), name


@pytest.mark.parametrize("sidecar", [[], {"lights": ROWS, "sigmas": [0.0] * 3, "images": 5}])
def test_malformed_sidecar_is_config_error(tmp_path, capsys, sidecar):
    path = tmp_path / "render.json"
    path.write_text(json.dumps(sidecar))
    assert main(["solve", "--sidecar", str(path), "--out", str(tmp_path / "s")]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_schemas_are_valid_draft_07():
    for schema in (cli.CONFIG_SCHEMA, cli.SIDECAR_SCHEMA, cli.REPORT_SCHEMA):
        jsonschema.Draft7Validator.check_schema(schema)


def test_readme_config_example_is_valid():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Run config", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    jsonschema.Draft7Validator(cli.CONFIG_SCHEMA).validate(json.loads(example))


def test_pipeline_rows_without_valid_pixels(tmp_path, capsys):
    # three lights 20 degrees about the normal of the plane p = 2: the ring the
    # heuristic and the triad share puts one light below that plane's horizon,
    # and the rig optimized on its one-normal prior grazes it with one light
    # just below
    normal = np.array([-2.0, 0.0, 1.0]) / np.sqrt(5.0)
    across = np.array([1.0, 0.0, 2.0]) / np.sqrt(5.0)
    azimuths = np.radians([0.0, 120.0, 240.0])[:, None]
    rows = np.cos(np.radians(20.0)) * normal + np.sin(np.radians(20.0)) * (
        np.cos(azimuths) * across + np.sin(azimuths) * np.array([0.0, 1.0, 0.0]))
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, seed=3, scene={
        "kind": "plane", "width": 16, "height": 12, "params": {"p": 2.0},
        "albedo": {"kind": "constant", "value": 0.8},
    }, lights={"rows": rows.tolist()}, optimizer={"max_iters": 50}, trials=2)
    out = tmp_path / "pipe"
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    validate_report(report)
    dark = ["heuristic-spread", "orthogonal-triad", "optimized"]
    for row in report["comparison"]:
        assert (row["note"] == "no-valid-pixels") == (row["name"] in dark), row
    stdout = capsys.readouterr().out
    for name in dark:
        row = next(r for r in report["comparison"] if r["name"] == name)
        assert all(row[key] is None for key in
                   ("mean_deg", "median_deg", "p90_deg", "max_deg", "sample_count"))
        assert f"hist_{name}" not in report["outputs"]
        assert not (out / f"hist_{name}.csv").exists()
        assert f"{name}: n/a" in stdout
    assert (out / "hist_initial.csv").exists() and "initial: n/a" not in stdout


def test_reports_say_how_many_pixels_the_prior_rests_on(tmp_path):
    # a random rig leaves part of the sphere unsolved, so the prior the design
    # is built for rests on fewer pixels than the scene has
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, seed=3, scene={
        "kind": "sphere", "width": 33, "height": 33,
        "params": {"radius": 0.85}, "albedo": {"kind": "constant", "value": 0.9},
    }, lights={"baseline": "random", "m": 6}, noise={"sigma": 0.01}, trials=2)
    cfg = cli.load_run_config(cfg_path)
    nmap, amap = generate(cfg.scene)
    noise = NoiseSpec(sigmas=cfg.sigmas, seed=stream_key(cfg.seed, Stage.NOISE, 0))
    est_initial, _ = solve_map(add_noise(render_stack(nmap, amap, cfg.lights), noise), cfg.lights)
    count = build_shape_prior(est_initial).pixel_count
    assert 0 < count < np.count_nonzero(nmap.mask)
    expected = {"pixel_count": count, "frame_share": count / (33 * 33)}
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "pipe")]) == 0
    assert main(["optimize", "--config", str(cfg_path), "--out", str(tmp_path / "opt")]) == 0
    assert main(["optimize", "--config", str(cfg_path), "--shape-agnostic",
                 "--out", str(tmp_path / "agnostic")]) == 0
    report = json.loads((tmp_path / "pipe" / "report.json").read_text())
    assert report["prior"] == expected
    assert json.loads((tmp_path / "opt" / "optimize_report.json").read_text())["prior"] == expected
    agnostic = json.loads((tmp_path / "agnostic" / "optimize_report.json").read_text())
    assert agnostic["prior"] is None
    del report["prior"]
    with pytest.raises(jsonschema.ValidationError, match="'prior' is a required property"):
        validate_report(report)
