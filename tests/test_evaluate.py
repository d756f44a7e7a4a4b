from concurrent.futures import ThreadPoolExecutor
from functools import reduce
from itertools import islice
from operator import add
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psdesign import (
    AlbedoMap,
    DimensionMismatchError,
    EmptyMaskError,
    LightConfig,
    NoiseSpec,
    NormalMap,
    Stage,
    add_noise,
    angular_error,
    baseline_heuristic_spread,
    baseline_orthogonal_triad,
    compare_configs,
    compare_maps,
    covariance,
    render_stack,
    solve_map,
    stream_key,
)
from psdesign import core, evaluate
from psdesign.evaluate import HISTOGRAM_EDGES, _stats_from_samples
from psdesign.oed import build_shape_prior
from psdesign.scenes import AlbedoSpec, SceneSpec, generate

from conftest import noise_draws
from test_blocks import cap_rig, reach_threads
from test_forward import traced_peak


class TestAngularError:
    def test_same_vector(self):
        assert angular_error((0, 0, 1), (0, 0, 1)) == 0.0

    def test_orthogonal(self):
        assert angular_error((0, 0, 1), (0, 1, 0)) == 90.0

    def test_constructed_angle(self):
        theta = np.radians(10.0)
        b = (0.0, np.sin(theta), np.cos(theta))
        assert angular_error((0, 0, 1), b) == pytest.approx(10.0, abs=1e-9)

    def test_sub_arccos_tilt_measured(self):
        # arccos of the dot product reads a 1e-6 degree tilt about 2e-7 off
        theta = np.radians(1e-6)
        b = (0.0, np.sin(theta), np.cos(theta))
        assert angular_error((0, 0, 1), b) == pytest.approx(1e-6, abs=1e-9)

    def test_degrees_are_np_degrees_bits(self):
        # a = e_x and b = (x, y, 0) give atan2(sqrt(y * y), x): 0, pi, pi / 2,
        # about 1e-300, a subnormal angle, just below pi, then angles across [0, pi]
        theta = np.random.default_rng(5).uniform(0.0, np.pi, 100_000)
        x = np.concatenate([[1.0, -1.0, 0.0, 1e150, 1e160, -1.0], np.cos(theta)])
        y = np.concatenate([[0.0, 0.0, 1.0, 1e-150, 1e-160, 5e-16], np.sin(theta)])
        radians = np.arctan2(np.sqrt(y * y), x)
        assert (radians[0], radians[1], radians[2]) == (0.0, np.pi, np.pi / 2)
        assert np.finfo(float).tiny < radians[3] < 1e-299
        assert 0.0 < radians[4] < np.finfo(float).tiny
        assert np.pi - 1e-15 < radians[5] < np.pi
        expected = np.degrees(radians)
        a = np.stack([np.ones_like(x), np.zeros_like(x), np.zeros_like(x)])
        b = np.stack([x, y, np.zeros_like(x)])
        out = np.empty_like(x)
        assert evaluate._angle_deg(a, b, out=out) is out
        assert out.tobytes() == evaluate._angle_deg(a, b).tobytes() == expected.tobytes()
        for k in range(6):
            assert np.float64(angular_error(a[:, k], b[:, k])).tobytes() == expected[k].tobytes()


def plane_maps(width=12, height=10):
    return generate(SceneSpec(kind="plane", width=width, height=height,
                              albedo=AlbedoSpec(value=0.9)))


def test_histogram_counts_each_sample_once():
    # the last regular bin is closed, so it holds 30 itself
    stats = _stats_from_samples(np.array([1.0, 30.0, 45.0]), None)
    assert stats.histogram_counts.sum() == stats.count == 3
    assert stats.histogram_counts[-2] == 1 and stats.histogram_counts[-1] == 1
    assert stats.histogram_counts[2] == 1  # [1.0, 1.5)


# bin edges, their neighbours and values past the last edge; drawing from a
# short list also gives ties
EDGE_VALUES = [0.0, np.nextafter(0.0, 1.0), 0.5, np.nextafter(0.5, 0.0), 15.0, 29.5,
               np.nextafter(30.0, 0.0), 30.0, np.nextafter(30.0, 31.0), 30.5, 45.0, 180.0]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(EDGE_VALUES) | st.floats(0.0, 180.0), min_size=1, max_size=300))
def test_one_selection_gives_numpys_statistics(values):
    # one partition for the median, p90 and max gives numpy's bits
    samples = np.array(values)
    reference = [samples.mean(), np.median(samples), np.percentile(samples, 90.0), samples.max()]
    stats = _stats_from_samples(samples.copy(), None)
    found = [stats.mean_deg, stats.median_deg, stats.p90_deg, stats.max_deg]
    assert [np.float64(x).tobytes() for x in found] == [x.tobytes() for x in reference]
    counts = np.append(np.histogram(samples, bins=HISTOGRAM_EDGES)[0],
                       np.count_nonzero(samples > HISTOGRAM_EDGES[-1]))
    assert np.array_equal(stats.histogram_counts, counts)
    assert stats.count == samples.size


def five_rank_selection(samples: np.ndarray) -> list:
    """The median, p90 and maximum as one partition at all five ranks selects
    them, on a copy of ``samples``."""
    n, samples = samples.size, samples.copy()
    rank = (n - 1) * 0.9
    lo, hi, t = int(rank), min(int(rank) + 1, n - 1), rank - int(rank)
    samples.partition(sorted({(n - 1) // 2, n // 2, lo, hi, n - 1}))
    a, b = samples[lo], samples[hi]
    return [(samples[(n - 1) // 2] + samples[n // 2]) / 2.0,
            b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t, samples[n - 1]]


@pytest.mark.parametrize("nan_share", [0.0, 1e-9, 0.15, 0.6])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 129, 130, 65_536, 65_537, 300_000, 300_001])
def test_selection_at_scale_gives_the_five_rank_bits(n, nan_share):
    # half the samples are bin edges and their neighbours (ties), half are
    # angles in [0, 180]; NaN is absent, one sample, above p90, or past the median
    rng = np.random.default_rng([n, int(nan_share * 100)])
    samples = np.where(rng.random(n) < 0.5, rng.choice(EDGE_VALUES, n), rng.uniform(0.0, 180.0, n))
    samples[rng.permutation(n)[:max(int(nan_share * n), nan_share > 0)]] = np.nan
    stats = _stats_from_samples(samples.copy(), None)
    found = [stats.mean_deg, stats.median_deg, stats.p90_deg, stats.max_deg]
    reference = [samples.mean(), *five_rank_selection(samples)]
    assert [np.float64(x).tobytes() for x in found] == [x.tobytes() for x in reference]
    if nan_share == 0.0:
        numpy_stats = [np.median(samples), np.percentile(samples, 90.0), samples.max()]
        assert [np.float64(x).tobytes() for x in found[1:]] == [x.tobytes() for x in numpy_stats]
    else:  # NaN sorts last: it is the maximum, and the median once it reaches rank n // 2
        nans = np.count_nonzero(np.isnan(samples))
        assert np.isnan(stats.max_deg) and np.isnan(stats.median_deg) == (n // 2 >= n - nans)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from(EDGE_VALUES) | st.floats(0.0, 180.0), max_size=80),
                min_size=1, max_size=6),
       st.sampled_from([5.0, 1.0, 0.0]))
def test_tallied_trials_select_the_pooled_bits_or_miss(trials, reach):
    # trials need not share a distribution here, so bounded brackets may miss a
    # rank; when they do not, and always when unbounded, the row is the pool's
    pooled = np.array([x for trial in trials for x in trial])
    with mock.patch.object(evaluate, "BRACKET_SE", reach):
        rows = []
        for bounded in (True, False):
            tally = evaluate._Tally(bounded, max(map(len, trials)))
            for trial in trials:
                tally.buf[:len(trial)] = trial
                tally.add([(0, len(trial), evaluate._bin_counts(np.array(trial, dtype=float)))])
            rows.append(tally.stats())
    if not pooled.size:
        assert rows == [None, None]
        return
    assert rows[1] is not None
    reference = _stats_from_samples(pooled.copy(), None)
    fields = ("median_deg", "p90_deg", "max_deg", "count")
    for row in [row for row in rows if row is not None]:
        assert [getattr(row, f) for f in fields] == [getattr(reference, f) for f in fields]
        assert row.mean_deg == reduce(add, [np.sum(trial) for trial in trials]) / pooled.size
        assert np.array_equal(row.histogram_counts, reference.histogram_counts)


ORDERS = {
    "ascending": lambda n: np.arange(n) * 0.25,
    "descending": lambda n: np.arange(n)[::-1] * 0.25,
    "sawtooth": lambda n: np.arange(n) % 97 * 0.5,
    "organ pipe": lambda n: np.abs(np.arange(n) - n // 2) * 0.5,
}


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", [4416, 6398, 30_216, 65_536, 300_001])
def test_selection_of_ordered_samples_gives_the_five_rank_bits(n, order):
    # on ordered input a selection can leave the ranks beside its own out of
    # place (numpy 2.4 on AVX-512 does at several of these sizes), so the
    # lower median, p90's upper neighbour and the maximum each need their step
    samples = ORDERS[order](n)
    stats = _stats_from_samples(samples.copy(), None)
    found = [stats.median_deg, stats.p90_deg, stats.max_deg]
    for reference in (five_rank_selection(samples),
                      [np.median(samples), np.percentile(samples, 90.0), samples.max()]):
        assert [np.float64(x).tobytes() for x in found] == [x.tobytes() for x in reference]


def test_bin_counts_are_numpys_histogram_past_its_block():
    # more samples than np.histogram's 65,536-sample block, with every edge case
    # of the doubled-angle binning: signed zero, an interior edge, both
    # neighbours of 30 and 30 itself, an angle far past the last edge and NaN
    samples = np.random.default_rng(24).uniform(0.0, 35.0, 200_000)
    samples[:9] = [0.0, -0.0, 29.5, np.nextafter(30.0, 0.0), 30.0, np.nextafter(30.0, 31.0),
                   180.0, np.nan, 30.0]
    counts = np.histogram(samples, bins=HISTOGRAM_EDGES)[0]
    expected = np.append(counts, samples.size - counts.sum())
    assert np.array_equal(evaluate._bin_counts(samples), expected)
    assert expected[-2:].tolist() == [np.count_nonzero((samples >= 29.5) & (samples <= 30.0)),
                                      np.count_nonzero(~(samples <= 30.0))]


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

    def test_dark_rig_draws_nothing(self, noise_specs):
        # no pixel is lit by every clean image of the dark rig: alone it draws
        # nothing; beside the ring it reads the trials' shared draws and scores none
        nmap, amap = self.scene()
        dark = LightConfig(rows=np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        ring = self.configs()["ring"]
        [alone] = compare_configs(nmap, amap, {"dark": dark}, sigma=0.01, trials=2, seed=5)
        assert (alone.note, alone.stats, noise_specs) == ("no-valid-pixels", None, [])
        table = compare_configs(nmap, amap, {"dark": dark, "ring": ring}, sigma=0.01, trials=2,
                                seed=5)
        assert [row.note for row in table] == ["no-valid-pixels", "ok"]
        assert table[0].stats is None
        assert [(spec.seed, spec.sigmas.size) for spec in noise_specs] == [
            (stream_key(5, Stage.COMPARE, k), 3) for k in range(2)]
        self.assert_stats_of(table[1], self.estimate_samples(nmap, amap, ring, 0.01, 5, 2))

    def test_albedo_map_of_another_shape_is_rejected_before_any_draw(self, noise_specs):
        nmap, _ = self.scene()
        wide = AlbedoMap(values=np.full((nmap.height, nmap.width + 1), 0.9))
        with pytest.raises(DimensionMismatchError, match="albedo map"):
            compare_configs(nmap, wide, self.configs(), sigma=0.01, trials=2, seed=5)
        assert noise_specs == []

    def configs(self):
        azimuths = np.radians([0.0, 90.0, 180.0, 270.0])
        slant = np.radians(30.0)
        ring = np.stack([np.sin(slant) * np.cos(azimuths), np.sin(slant) * np.sin(azimuths),
                         np.full(4, np.cos(slant))], axis=1)
        return {"triad": baseline_orthogonal_triad(), "ring": LightConfig(rows=ring)}

    @staticmethod
    def clean_lit(nmap, amap, lights, sigma):
        """Pixels valid in the ground truth whose clean images all reach tau."""
        clean = render_stack(nmap, amap, lights).images.reshape(lights.m, -1)
        return nmap.mask.reshape(-1) & (clean.min(axis=0) >= max(3.0 * sigma, 1e-6))

    def estimate_samples(self, nmap, amap, lights, sigma, seed, trials):
        """Errors of each trial of n_tilde = rho n + F sigma z at the clean-lit
        pixels, z from substream(stream_key(seed, COMPARE, k), i) and F = R^-1
        for S = QR, less the draws facing away or degenerate, as one array per trial."""
        lit = self.clean_lit(nmap, amap, lights, sigma)
        gt = nmap.normals.reshape(-1, 3).T[:, lit]
        rho = amap.values.reshape(-1)[lit]
        factor = np.linalg.inv(np.linalg.qr(lights.rows, mode="r"))
        pooled = []
        for k in range(trials):
            z = sigma * noise_draws(stream_key(seed, Stage.COMPARE, k), 3, lit.size)[:, lit]
            est = rho * gt
            for j in range(3):
                for i in range(j, 3):
                    est[j] += factor[j, i] * z[i]
            keep = (est[2] > 0.0) & (np.linalg.norm(est, axis=0) > 1e-9)
            pooled.append(evaluate._angle_deg(est, gt)[keep])
        return pooled

    def assert_stats_of(self, row, trials):
        samples = np.concatenate(trials)
        counts = np.append(np.histogram(samples, bins=HISTOGRAM_EDGES)[0],
                           np.count_nonzero(samples > HISTOGRAM_EDGES[-1]))
        assert row.note == "ok"
        # the trials' own pairwise sums, added in trial order
        assert row.stats.mean_deg == reduce(add, [trial.sum() for trial in trials]) / samples.size
        assert row.stats.median_deg == np.median(samples)
        assert row.stats.p90_deg == np.percentile(samples, 90.0)
        assert row.stats.max_deg == samples.max()
        assert row.stats.count == samples.size
        assert np.array_equal(row.stats.histogram_counts, counts)

    def test_rows_are_the_estimate_draw_at_clean_lit_pixels(self):
        # the sphere's rim holds valid pixels that some light leaves below tau
        nmap, amap = self.scene()
        sigma, trials, seed = 0.02, 3, 11
        configs = self.configs()
        table = compare_configs(nmap, amap, configs, sigma=sigma, trials=trials, seed=seed)
        for row, lights in zip(table, configs.values()):
            lit = self.clean_lit(nmap, amap, lights, sigma)
            assert 0 < np.count_nonzero(lit) < np.count_nonzero(nmap.mask)
            self.assert_stats_of(row, self.estimate_samples(nmap, amap, lights, sigma, seed,
                                                            trials))

    def test_pixels_below_tau_in_the_clean_render_are_never_scored(self, monkeypatch):
        # at sigma 0.05 a pixel whose clean image is just below tau passes the
        # noisy tau test in some trial of the image path; no trial scores it here
        nmap, amap = self.scene()
        lights, sigma, trials, seed = self.configs()["ring"], 0.05, 4, 3
        lit = self.clean_lit(nmap, amap, lights, sigma)
        clean = render_stack(nmap, amap, lights)
        keys = [stream_key(seed, Stage.COMPARE, k) for k in range(trials)]
        noisy_lit = [solve_map(add_noise(clean, NoiseSpec.uniform(sigma, lights.m, seed=key)),
                               lights)[0].mask.reshape(-1) for key in keys]
        assert any((mask & ~lit).any() for mask in noisy_lit)
        scored = self.spy_on_scored_pixels(monkeypatch, nmap)
        [row] = compare_configs(nmap, amap, {"ring": lights}, sigma=sigma, trials=trials,
                                seed=seed)
        assert scored == [np.flatnonzero(lit).tolist()] * trials
        assert row.stats.count <= trials * np.count_nonzero(lit)

    @staticmethod
    def spy_on_scored_pixels(monkeypatch, nmap) -> list:
        """The list to which each call of ``_angle_deg`` appends the frame
        indices of the pixels it scores, found by their ground-truth normals."""
        valid = np.flatnonzero(nmap.mask)
        pixel_of = {nmap.normals.reshape(-1, 3)[p].tobytes(): p for p in valid}
        assert len(pixel_of) == valid.size  # every pixel of the sphere has its own normal
        scored, angle_deg = [], evaluate._angle_deg

        def spy(est, gt, out=None):
            scored.append([pixel_of[normal.tobytes()] for normal in np.transpose(gt)])
            return angle_deg(est, gt, out=out)

        monkeypatch.setattr(evaluate, "_angle_deg", spy)
        return scored

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("shape, slices", [((24, 30), 1), ((36, 40), 2), ((41, 40), 3)])
    @pytest.mark.parametrize("m", [3, 6, 16, 17])
    def test_a_pixel_whose_clean_image_ties_tau_is_scored(self, monkeypatch, m, shape, slices,
                                                          cpus):
        # sigma puts tau = max(3 sigma, 1e-6) exactly on a clean rendered value,
        # so the scored pixels are the clean render's tau test at its tie.  With
        # 512-column product slices the frames are 1, 2 and 3 slices, the tail
        # merged into the last, each marked on 1 or 2 threads
        monkeypatch.setattr(core, "PRODUCT_COLUMNS", 512)
        nmap, amap = generate(SceneSpec(kind="sphere", width=shape[1], height=shape[0],
                                        albedo=AlbedoSpec(value=0.9)))
        lights, prior = cap_rig(m), build_shape_prior(nmap)
        blocks = core.product_blocks(nmap.mask.size)
        assert len(blocks) == slices and blocks[-1].stop - blocks[-1].start > 512
        low = render_stack(nmap, amap, lights).images.reshape(m, -1).min(axis=0)
        ties = [v for v in np.sort(low[nmap.mask.reshape(-1)]) if 3.0 * (v / 3.0) == v >= 1e-6]
        tau = ties[len(ties) // 4]
        sigma = tau / 3.0
        assert max(3.0 * sigma, 1e-6) == tau
        lit = self.clean_lit(nmap, amap, lights, sigma)
        assert lit[low == tau].all() and (nmap.mask.reshape(-1) & ~lit).any()
        pools = reach_threads(monkeypatch, cpus)
        scored = self.spy_on_scored_pixels(monkeypatch, nmap)
        compare_configs(nmap, amap, {"cap": lights}, sigma=sigma, trials=2, seed=7, prior=prior)
        assert len(pools) == (cpus > 1)
        assert scored == [np.flatnonzero(lit).tolist()] * 2

    @staticmethod
    def tilted_plane():
        """A plane 85 degrees from the camera axis and a cone of 4 lights about
        its normal, which light every pixel."""
        nmap, amap = generate(SceneSpec(kind="plane", width=12, height=10, params={"p": 12.0},
                                        albedo=AlbedoSpec(value=0.9)))
        n, side = nmap.normals[0, 0], np.array([0.0, 1.0, 0.0])
        cone = np.array([np.cos(0.35) * n + np.sin(0.35) * (np.cos(a) * side + np.sin(a)
                                                            * np.cross(n, side))
                         for a in np.arange(4) * np.pi / 2])
        return nmap, amap, LightConfig(rows=cone / np.linalg.norm(cone, axis=1, keepdims=True))

    def test_count_is_the_clean_lit_draws_less_the_dropped_ones(self, monkeypatch):
        # every pixel of the tilted plane is clean-lit, and the noise turns some
        # draws away from the camera; blocks of 7 pixels compact around those
        nmap, amap, lights = self.tilted_plane()
        sigma, trials, seed = 0.02, 3, 11
        assert self.clean_lit(nmap, amap, lights, sigma).all()
        samples = self.estimate_samples(nmap, amap, lights, sigma, seed, trials)
        assert 0 < np.concatenate(samples).size < trials * nmap.mask.size
        monkeypatch.setattr(core, "BLOCK_PIXELS", 7)
        [row] = compare_configs(nmap, amap, {"cone": lights}, sigma=sigma, trials=trials,
                                seed=seed)
        self.assert_stats_of(row, samples)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_dropped_draws_compact_across_blocks_on_threads(self, monkeypatch, cpus):
        # blocks of 7 indices, each compacting around its own dropped draws, on
        # up to 3 threads, then compacted in order
        nmap, amap, lights = self.tilted_plane()
        samples = self.estimate_samples(nmap, amap, lights, 0.02, 11, 3)
        monkeypatch.setattr(core, "BLOCK_PIXELS", 7)
        pools = reach_threads(monkeypatch, cpus)
        [row] = compare_configs(nmap, amap, {"cone": lights}, sigma=0.02, trials=3, seed=11)
        assert len(pools) == (cpus > 1)
        self.assert_stats_of(row, samples)

    @pytest.mark.parametrize("block", [7, 64])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_trial_draws_stream_2_ahead_into_a_spare_row(self, monkeypatch, noise_specs, cpus,
                                                          block):
        # trial k draws streams 0 and 1 in one run; stream 2 of trial k + 1 is
        # drawn during trial k's scoring run into the row trial k does not read,
        # and the two rows trade places, so stream 2 alternates between them
        nmap, amap = self.scene()
        configs, sigma, trials, seed = self.configs(), 0.02, 5, 13
        references = [self.estimate_samples(nmap, amap, lights, sigma, seed, trials)
                      for lights in configs.values()]
        keys = [stream_key(seed, Stage.COMPARE, k) for k in range(trials)]
        monkeypatch.setattr(core, "BLOCK_PIXELS", block)
        pools = reach_threads(monkeypatch, cpus)
        draws, fill = [], evaluate._fill_image

        def spy(out, noise, i, clean=None):
            draws.append((keys.index(noise.seed), i, out.__array_interface__["data"][0]))
            return fill(out, noise, i, clean)

        monkeypatch.setattr(evaluate, "_fill_image", spy)
        table = compare_configs(nmap, amap, configs, sigma=sigma, trials=trials, seed=seed)
        assert len(pools) == (cpus > 1)
        for row, samples in zip(table, references):
            self.assert_stats_of(row, samples)
        assert [(spec.seed, spec.sigmas.size) for spec in noise_specs] == [(key, 3) for key in keys]
        runs = [{(0, 0), (0, 1), (0, 2)}]
        for k in range(1, trials):
            runs += [{(k, 2)}, {(k, 0), (k, 1)}]
        drawn = iter([(k, i) for k, i, _ in draws])
        assert [set(islice(drawn, len(run))) for run in runs] == runs
        assert next(drawn, None) is None
        row = {(k, i): address for k, i, address in draws}
        assert {row[k, 0] for k in range(trials)} == {row[0, 0]}
        assert {row[k, 1] for k in range(trials)} == {row[0, 1]}
        stream_2 = [row[k, 2] for k in range(trials)]
        assert len(set(stream_2) | {row[0, 0], row[0, 1]}) == 4
        assert all(a != b for a, b in zip(stream_2, stream_2[1:]))

    @pytest.mark.parametrize("reach", [None, 0.0])
    def test_a_rank_outside_the_brackets_redraws_every_trial_unbounded(self, monkeypatch, reach):
        # brackets of no reach hold a first-trial sample or two, which misses a
        # rank of the pooled trials: the call draws every trial's 3 streams again
        # and keeps every sample; at the default reach it draws each once
        nmap, amap = self.scene()
        configs, sigma, trials, seed = self.configs(), 0.02, 5, 13
        references = [self.estimate_samples(nmap, amap, lights, sigma, seed, trials)
                      for lights in configs.values()]
        keys = [stream_key(seed, Stage.COMPARE, k) for k in range(trials)]
        if reach is not None:
            monkeypatch.setattr(evaluate, "BRACKET_SE", reach)
        draws, fill = [], evaluate._fill_image

        def spy(out, noise, i, clean=None):
            draws.append((keys.index(noise.seed), i))
            return fill(out, noise, i, clean)

        monkeypatch.setattr(evaluate, "_fill_image", spy)
        table = compare_configs(nmap, amap, configs, sigma=sigma, trials=trials, seed=seed)
        for row, samples in zip(table, references):
            self.assert_stats_of(row, samples)
        passes = 1 if reach is None else 2
        assert sorted(draws) == sorted([(k, i) for k in range(trials) for i in range(3)] * passes)

    def test_memory_does_not_grow_with_the_pool(self, monkeypatch):
        # a pool of every trial's float64 samples grows by the lit counts x 8
        # bytes per trial; the bracketed samples kept instead grow by a few
        # percent.  One thread, so that how the threads' block temporaries
        # overlap does not move the peaks
        monkeypatch.setattr(core, "_cpu_count", lambda: 1)
        nmap, amap = generate(SceneSpec(kind="sphere", width=256, height=256,
                                        albedo=AlbedoSpec(value=0.9)))
        configs = {**self.configs(), "spread": baseline_heuristic_spread(6), "cap": cap_rig(6)}
        lit = sum(np.count_nonzero(self.clean_lit(nmap, amap, lights, 0.01))
                  for lights in configs.values())
        prior = build_shape_prior(nmap)
        peaks = [traced_peak(lambda: compare_configs(nmap, amap, configs, sigma=0.01,
                                                     trials=trials, seed=3, prior=prior))
                 for trials in (2, 20)]
        assert peaks[1] - peaks[0] < 0.25 * (20 - 2) * lit * 8

    def test_a_row_does_not_depend_on_the_configs_beside_it(self):
        # every config of a trial reads the same draw at its own pixels
        nmap, amap = self.scene()
        sigma, trials, seed = 0.02, 3, 6
        triad = baseline_orthogonal_triad()
        samples = self.estimate_samples(nmap, amap, triad, sigma, seed, trials)
        [alone] = compare_configs(nmap, amap, {"triad": triad}, sigma=sigma, trials=trials,
                                  seed=seed)
        ring_first, _ = compare_configs(nmap, amap, {"ring": self.configs()["ring"],
                                                     "triad": triad},
                                        sigma=sigma, trials=trials, seed=seed)[::-1]
        for row in (alone, ring_first):
            self.assert_stats_of(row, samples)

    def test_rig_listed_twice_gives_identical_rows(self):
        nmap, amap = self.scene()
        ring = self.configs()["ring"]
        table = compare_configs(nmap, amap, {"a": ring, "triad": baseline_orthogonal_triad(),
                                             "b": ring}, sigma=0.02, trials=3, seed=2)
        assert [row.name for row in table] == ["a", "triad", "b"]
        assert_same_rows([table[0]], [table[2]])

    def test_rows_do_not_depend_on_the_thread_count(self, monkeypatch):
        # 256 x 256 images reach PARALLEL_MIN_PIXELS, so the comparison runs on
        # threads when more than one CPU is reported
        nmap, amap = generate(SceneSpec(kind="sphere", width=256, height=256,
                                        albedo=AlbedoSpec(value=0.9)))
        assert nmap.mask.size >= core.PARALLEL_MIN_PIXELS
        pools = []

        def counting(*args, **kwargs):
            pools.append(kwargs)
            return ThreadPoolExecutor(*args, **kwargs)

        monkeypatch.setattr(core, "ThreadPoolExecutor", counting)
        tables = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(core, "_cpu_count", lambda cpus=cpus: cpus)
            tables.append(compare_configs(nmap, amap, self.configs(), sigma=0.02, trials=2,
                                          seed=12))
            assert len(pools) == cpus - 1  # one pool per call, for its renders and trials
        assert [row.note for row in tables[0]] == ["ok", "ok"]
        assert_same_rows(tables[0], tables[1])
        assert_same_rows(tables[0], tables[2])

    def test_builds_no_per_trial_maps(self, monkeypatch):
        nmap, amap = self.scene()
        prior = build_shape_prior(nmap)
        built = []
        for cls in (NormalMap, AlbedoMap):
            def counting(self, validate=cls.__post_init__):
                built.append(type(self).__name__)
                validate(self)
            monkeypatch.setattr(cls, "__post_init__", counting)
        table = compare_configs(nmap, amap, self.configs(), sigma=0.02, trials=3, seed=1,
                                prior=prior)
        assert [row.note for row in table] == ["ok", "ok"]
        assert built == []

    def test_rows_carry_no_error_map(self):
        nmap, amap = self.scene()
        table = compare_configs(nmap, amap, self.configs(), sigma=0.02, trials=2, seed=4)
        for row in table:
            assert row.stats.error_map is None
            assert row.stats.histogram_edges is HISTOGRAM_EDGES
        assert np.array_equal(HISTOGRAM_EDGES, np.arange(0.0, 30.25, 0.5))
        with pytest.raises(ValueError):
            HISTOGRAM_EDGES[0] = 1.0

    def test_65_light_rig_is_scored_from_three_trial_streams(self, noise_specs):
        nmap, amap = self.scene()
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(65, 3))
        rows[:, 2] = np.abs(rows[:, 2]) + 1.0
        many = LightConfig(rows=rows / np.linalg.norm(rows, axis=1, keepdims=True))
        table = compare_configs(nmap, amap, {"triad": baseline_orthogonal_triad(), "many": many},
                                sigma=0.01, trials=2, seed=3)
        assert [row.name for row in table] == ["triad", "many"]
        self.assert_stats_of(table[1], self.estimate_samples(nmap, amap, many, 0.01, 3, 2))
        # one draw of 3 normals per pixel per trial, whatever m, shared by both rows
        assert [(spec.seed, spec.sigmas.size) for spec in noise_specs] == [
            (stream_key(3, Stage.COMPARE, k), 3) for k in range(2)]
        pooled = np.concatenate([noise_draws(spec.seed, spec.sigmas.size, 16).ravel()
                                 for spec in noise_specs])
        assert np.unique(pooled).size == pooled.size  # no stream of any trial repeats a draw


def assert_same_rows(a, b):
    """Two comparison tables hold the same bytes, names aside."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x.note, x.phi) == (y.note, y.phi)
        assert np.array_equal(x.lights.rows, y.lights.rows)
        fields = ("mean_deg", "median_deg", "p90_deg", "max_deg", "count")
        assert [getattr(x.stats, f) for f in fields] == [getattr(y.stats, f) for f in fields]
        assert np.array_equal(x.stats.histogram_counts, y.stats.histogram_counts)


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


def test_estimate_draw_agrees_with_the_image_path(monkeypatch):
    """Oracle: compare_configs against render, add_noise, solve_map and
    compare_maps, where no pixel is clamped or near shadow.

    Fixed before the first run, and not to be re-picked if it fails: a 32 x 32
    frontal plane of albedo 0.9; a ring of 6 lights at slant 30 degrees and
    the orthogonal triad (every clean image is 0.78 or 0.52, tau 0.06);
    sigma 0.02 and 20 trials per path; compare_configs under seed 2601, the
    image path under keys stream_key(2602, COMPARE, k), so the two paths draw
    independently.  Both paths must score all 20 x 1024 samples.  The row
    means must agree within k = 4 standard errors, sd * sqrt(1/n + 1/n) with
    sd the image path's sample deviation.  The residuals n_tilde - rho n that
    compare_configs scores, whitened by the Cholesky factor of
    oed.covariance(lights, sigma), must have second moments within 4 standard
    errors of the identity: |C_ij - delta_ij| <= 4 sqrt((1 + delta_ij) / N).
    """
    nmap, amap = plane_maps(width=32, height=32)
    azimuths = np.radians(np.arange(6) * 60.0)
    slant = np.radians(30.0)
    ring = LightConfig(rows=np.stack([np.sin(slant) * np.cos(azimuths),
                                      np.sin(slant) * np.sin(azimuths),
                                      np.full(6, np.cos(slant))], axis=1))
    configs = {"ring6": ring, "triad": baseline_orthogonal_triad()}
    sigma, trials, k_se = 0.02, 20, 4.0
    scored, angle_deg = [], evaluate._angle_deg

    def spy(est, gt, out=None):
        scored.append((np.array(est), np.array(gt)))
        return angle_deg(est, gt, out=out)

    monkeypatch.setattr(evaluate, "_angle_deg", spy)
    table = compare_configs(nmap, amap, configs, sigma=sigma, trials=trials, seed=2601)
    monkeypatch.setattr(evaluate, "_angle_deg", angle_deg)
    assert len(scored) == trials * len(configs)  # one block per trial and config
    size = trials * nmap.mask.size
    for c, (row, lights) in enumerate(zip(table, configs.values())):
        image = []
        for k in range(trials):
            noise = NoiseSpec.uniform(sigma, lights.m, seed=stream_key(2602, Stage.COMPARE, k))
            est, _ = solve_map(add_noise(render_stack(nmap, amap, lights), noise), lights)
            image.append(compare_maps(est, nmap).error_map[est.mask])
        image = np.concatenate(image)
        assert row.stats.count == image.size == size
        se = image.std(ddof=1) * np.sqrt(2.0 / size)
        assert abs(row.stats.mean_deg - image.mean()) <= k_se * se, (row.name, se)

        # trial by trial, the configs' scoring calls alternate
        est = np.concatenate([e for e, _ in scored[c::len(configs)]], axis=1)
        gt = np.concatenate([g for _, g in scored[c::len(configs)]], axis=1)
        factor = np.linalg.cholesky(covariance(lights, np.full(lights.m, sigma)).matrix)
        white = np.linalg.solve(factor, est - 0.9 * gt)
        moments = white @ white.T / white.shape[1]
        bound = k_se * np.sqrt((1.0 + np.eye(3)) / white.shape[1])
        assert np.all(np.abs(moments - np.eye(3)) <= bound), (row.name, moments)
