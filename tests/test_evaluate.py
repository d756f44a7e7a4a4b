import numpy as np
import pytest

from psdesign import (
    AlbedoMap,
    DimensionMismatchError,
    EmptyMaskError,
    LightConfig,
    NoiseSpec,
    NormalMap,
    add_noise,
    angular_error,
    baseline_orthogonal_triad,
    compare_configs,
    compare_maps,
    covariance,
    render_stack,
    solve_map,
)
from psdesign.oed import build_shape_prior
from psdesign.scenes import AlbedoSpec, SceneSpec, generate

from conftest import noise_draws


class TestAngularError:
    def test_same_vector(self):
        assert angular_error((0, 0, 1), (0, 0, 1)) == 0.0

    def test_orthogonal(self):
        assert angular_error((0, 0, 1), (0, 1, 0)) == 90.0

    def test_constructed_angle(self):
        theta = np.radians(10.0)
        b = (0.0, np.sin(theta), np.cos(theta))
        assert angular_error((0, 0, 1), b) == pytest.approx(10.0, abs=1e-9)


def plane_maps(width=12, height=10):
    return generate(SceneSpec(kind="plane", width=width, height=height,
                              albedo=AlbedoSpec(value=0.9)))


class TestCompareMaps:
    def test_identical_maps(self):
        nmap, _ = plane_maps()
        stats = compare_maps(nmap, nmap)
        assert stats.mean_deg == 0.0
        assert stats.median_deg == 0.0
        assert stats.max_deg == 0.0
        assert stats.count == nmap.mask.sum()

    def test_uniform_rotation_is_uniform_error(self):
        nmap, _ = plane_maps()
        theta = np.radians(5.0)
        rot = np.array([
            [1.0, 0.0, 0.0],
            [0.0, np.cos(theta), -np.sin(theta)],
            [0.0, np.sin(theta), np.cos(theta)],
        ])
        rotated = NormalMap(normals=nmap.normals @ rot.T, mask=nmap.mask)
        stats = compare_maps(rotated, nmap)
        assert stats.mean_deg == pytest.approx(5.0, abs=1e-9)
        assert stats.median_deg == pytest.approx(5.0, abs=1e-9)

    def test_quantile_ordering(self):
        nmap, amap = generate(SceneSpec(kind="sphere", width=33, height=33,
                                        albedo=AlbedoSpec(value=0.9)))
        lights = baseline_orthogonal_triad()
        noisy = add_noise(render_stack(nmap, amap, lights),
                          NoiseSpec(sigmas=[0.02] * 3, seed=4))
        est, _ = solve_map(noisy, lights)
        stats = compare_maps(est, nmap)
        assert 0.0 <= stats.median_deg <= stats.p90_deg <= stats.max_deg <= 180.0
        assert stats.histogram_counts.sum() == stats.count
        assert stats.error_map.shape == (33, 33)
        assert np.isnan(stats.error_map[0, 0])  # outside the sphere

    def test_sub_arccos_rotation_measured(self):
        # arccos of the dot product reads a 1e-6 degree tilt as 0 or ~8.5e-7
        # degrees (about 2e-7 off); the atan2 form must resolve it
        nmap, _ = generate(SceneSpec(kind="sphere", width=21, height=21,
                                     albedo=AlbedoSpec(value=0.9)))
        theta = np.radians(1e-6)
        tangent = np.cross(nmap.normals, [0.6, 0.8, 0.0])
        tangent /= np.linalg.norm(tangent, axis=-1, keepdims=True)
        tilted = NormalMap(normals=np.cos(theta) * nmap.normals + np.sin(theta) * tangent,
                           mask=nmap.mask)
        stats = compare_maps(tilted, nmap)
        valid = stats.error_map[nmap.mask]
        assert np.abs(valid - 1e-6).max() <= 1e-9
        assert stats.max_deg == pytest.approx(1e-6, abs=1e-9)

    def test_error_map_nan_exactly_off_joint_mask(self, rng):
        nmap, _ = generate(SceneSpec(kind="sphere", width=19, height=17,
                                     albedo=AlbedoSpec(value=0.9)))
        est = NormalMap(normals=nmap.normals, mask=nmap.mask & (rng.random((17, 19)) < 0.7))
        gt = NormalMap(normals=nmap.normals, mask=nmap.mask & (rng.random((17, 19)) < 0.7))
        stats = compare_maps(est, gt)
        joint = est.mask & gt.mask
        assert np.array_equal(np.isnan(stats.error_map), ~joint)
        assert stats.count == joint.sum()

    def test_dimension_mismatch(self):
        a, _ = plane_maps(8, 8)
        b, _ = plane_maps(9, 8)
        with pytest.raises(DimensionMismatchError):
            compare_maps(a, b)

    def test_disjoint_masks(self):
        normals = np.zeros((1, 2, 3))
        normals[..., 2] = 1.0
        a = NormalMap(normals=normals, mask=np.array([[True, False]]))
        b = NormalMap(normals=normals, mask=np.array([[False, True]]))
        with pytest.raises(EmptyMaskError):
            compare_maps(a, b)


class TestCompareConfigs:
    def scene(self):
        return generate(SceneSpec(kind="sphere", width=33, height=33,
                                  params={"radius": 0.85},
                                  albedo=AlbedoSpec(value=0.9)))

    def test_zero_noise_ties_at_zero(self):
        nmap, amap = self.scene()
        triad = baseline_orthogonal_triad()
        cx, sx, cy, sy = np.cos(0.1), np.sin(0.1), np.cos(0.2), np.sin(0.2)
        rot = (np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
               @ np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]]))
        configs = {
            "triad": triad,
            "tilted": LightConfig(rows=triad.rows @ rot.T),
        }
        table = compare_configs(nmap, amap, configs, sigma=0.0, trials=1, seed=0)
        for row in table:
            assert row.note == "ok"
            assert row.stats.mean_deg < 1e-7

    def test_deterministic(self):
        nmap, amap = self.scene()
        configs = {"triad": baseline_orthogonal_triad()}
        a = compare_configs(nmap, amap, configs, sigma=0.02, trials=3, seed=9)
        b = compare_configs(nmap, amap, configs, sigma=0.02, trials=3, seed=9)
        assert a[0].stats.mean_deg == b[0].stats.mean_deg
        assert np.array_equal(a[0].stats.histogram_counts, b[0].stats.histogram_counts)

    def test_phi_recorded_under_scene_prior(self):
        from psdesign import phi_shape_aware

        nmap, amap = self.scene()
        prior = build_shape_prior(nmap)
        table = compare_configs(nmap, amap, {"triad": baseline_orthogonal_triad()},
                                sigma=0.01, trials=1, seed=0)
        assert table[0].phi == pytest.approx(
            phi_shape_aware(baseline_orthogonal_triad(), prior), rel=1e-12
        )

    def test_all_shadow_config_noted(self):
        nmap, amap = self.scene()
        # a light pointing straight along -z sees nothing: every pixel is
        # shadowed in that image, so no pixel survives the mask
        rows = np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        dark = LightConfig(rows=rows)
        table = compare_configs(nmap, amap, {"dark": dark}, sigma=0.01, trials=2, seed=5)
        assert table[0].note == "no-valid-pixels"
        assert table[0].stats is None

    def test_more_than_64_lights_draw_distinct_trial_streams(self, noise_specs):
        nmap, amap = self.scene()
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(65, 3))
        rows[:, 2] = np.abs(rows[:, 2]) + 1.0
        configs = {"triad": baseline_orthogonal_triad(),
                   "many": LightConfig(rows=rows / np.linalg.norm(rows, axis=1, keepdims=True))}
        table = compare_configs(nmap, amap, configs, sigma=0.01, trials=2, seed=3)
        assert [row.name for row in table] == ["triad", "many"]
        assert table[1].note == "ok" and table[1].stats.count > 0
        assert [spec.sigmas.size for spec in noise_specs] == [3, 3, 65, 65]
        pooled = np.concatenate([noise_draws(spec.seed, spec.sigmas.size, 16).ravel()
                                 for spec in noise_specs])
        assert np.unique(pooled).size == pooled.size  # no image of any trial repeats a draw


def test_pooled_mse_matches_covariance_trace():
    # frontal plane and an orthogonal triad: every light sees every pixel,
    # so the solve is exactly the linear Gaussian model and the pooled
    # mean squared error of n_tilde must match trace((S^T S)^-1) sigma^2
    nmap, amap = generate(SceneSpec(kind="plane", width=40, height=40,
                                    albedo=AlbedoSpec(value=0.9)))
    lights = baseline_orthogonal_triad()
    sigma = 0.005
    clean = render_stack(nmap, amap, lights)
    predicted = np.trace(covariance(lights, [sigma] * 3).matrix)

    true_n_tilde = 0.9 * nmap.normals
    sq_errors = []
    for trial in range(30):
        noisy = add_noise(clean, NoiseSpec(sigmas=[sigma] * 3, seed=1000 + 16 * trial))
        est_n, est_a = solve_map(noisy, lights)
        est_tilde = est_a.values[..., None] * est_n.normals
        diff = est_tilde[est_n.mask] - true_n_tilde[est_n.mask]
        sq_errors.append(np.einsum("ij,ij->i", diff, diff))
    measured = np.concatenate(sq_errors).mean()
    assert measured == pytest.approx(predicted, rel=0.2)
