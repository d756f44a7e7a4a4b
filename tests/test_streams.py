"""The random-stream layout: keys, streams, and no draw shared between stages."""

import numpy as np
import pytest

from psdesign import (
    OptimizerConfig,
    ShapePrior,
    Stage,
    optimize_lights,
    stream_key,
    substream,
)
from psdesign import optimize
from psdesign.cli import main, resolve_lights
from psdesign.optimize import random_unit_rows

from conftest import directions, noise_draws, well_conditioned_config
from test_cli import write_config

SEED, M = 7, 6


def draws(generator, count=64):
    return generator.standard_normal(count)


class TestKeys:
    @pytest.mark.parametrize("seed", [0, 1, 7, 20240811, 2**62 + 5, 2**64 - 1, -1, -12345])
    def test_stream_zero_of_a_run_seed_is_philox_keyed_by_it(self, seed):
        expected = np.random.Generator(np.random.Philox(key=seed % 2**64))
        assert np.array_equal(draws(substream(seed, 0)), draws(expected))
        assert stream_key(seed, Stage.NOISE, 0) == seed % 2**64

    @pytest.mark.parametrize("index", [0, 1, 5, 2**40])
    def test_stream_i_is_the_key_jumped_i_times(self, index):
        key = stream_key(SEED, Stage.COMPARE, 3)
        expected = np.random.Generator(np.random.Philox(key=key).jumped(index))
        assert np.array_equal(draws(substream(key, index)), draws(expected))

    def test_key_words(self):
        key = stream_key(2**64 + 9, Stage.RERENDER, 5)
        assert np.random.Philox(key=key).state["state"]["key"].tolist() == [9, 4 << 56 | 5]

    def test_every_stage_and_index_has_its_own_key(self):
        keys = {stream_key(SEED, stage, index) for stage in Stage for index in range(20)}
        assert len(keys) == len(Stage) * 20
        assert len({int(stage) for stage in Stage}) == len(Stage)

    @pytest.mark.parametrize("index", [-1, 2**56])
    def test_index_outside_its_word_rejected(self, index):
        with pytest.raises(ValueError):
            stream_key(SEED, Stage.RIG, index)

    def test_streams_of_stages_share_no_draw(self):
        streams = [draws(substream(stream_key(SEED, stage, index), jump), 256)
                   for stage in Stage for index in range(3) for jump in range(3)]
        pooled = np.concatenate(streams)
        assert np.unique(pooled).size == pooled.size


class TestNoCollisions:
    """Each stage draws fresh numbers, even where two stages share one run seed."""

    def test_random_rig_is_not_the_render_noise(self):
        rig = resolve_lights({"baseline": "random", "m": M}, SEED).rows
        noise_rig = directions(noise_draws(SEED, M, 3 * M)[0])
        noise_rig[:, 2] = np.abs(noise_rig[:, 2])
        assert not np.allclose(rig, noise_rig)

    @pytest.mark.parametrize("seed", [SEED, stream_key(SEED, Stage.RIG, 0)])
    def test_render_rig_and_noise_draw_apart(self, tmp_path, noise_specs, seed):
        # a run seed beyond 64 bits is reduced mod 2^64 for every stage, noise too
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, seed=seed, lights={"baseline": "random", "m": M},
                     noise={"sigma": 0.02})
        assert main(["render", "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 0
        rig = resolve_lights({"baseline": "random", "m": M}, seed).rows
        [spec] = noise_specs
        image0 = directions(noise_draws(spec.seed, M, 3 * M)[0])
        image0[:, 2] = np.abs(image0[:, 2])
        assert not np.allclose(rig, image0)

    def test_optimizer_restarts_are_not_the_noise_images(self, monkeypatch):
        starts = []

        def recording(m, rng):
            starts.append(random_unit_rows(m, rng))
            return starts[-1]

        initial = well_conditioned_config(np.random.default_rng(1), M)
        monkeypatch.setattr(optimize, "random_unit_rows", recording)
        # a singular prior is never certified, so every restart runs
        prior = ShapePrior(m_agg=np.diag([0.0, 1.0, 1.0]), pixel_count=1)
        optimize_lights(initial, prior, OptimizerConfig(max_iters=2, restarts=3, seed=SEED))
        assert len(starts) == 2
        noise = noise_draws(SEED, M, 3 * M)
        for restart, start in enumerate(starts, start=1):
            assert not np.allclose(start, directions(noise[restart]))

    def test_pipeline_stages_draw_distinct_noise(self, tmp_path, noise_specs):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path, scene={"kind": "paraboloid", "width": 16, "height": 16,
                                            "params": {"curvature": 0.3}},
                           noise={"sigma": 0.02}, trials=2)
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "p")]) == 0
        # the initial render, the re-render, then one draw of 3 normals per pixel
        # per comparison trial, which all 4 configs share
        assert len(noise_specs) == 2 + 2
        assert [(spec.seed, spec.sigmas.size) for spec in noise_specs[2:]] == [
            (stream_key(cfg["seed"], Stage.COMPARE, k), 3) for k in range(2)]
        initial, rerender = (noise_draws(spec.seed, 3, 32) for spec in noise_specs[:2])
        for i in range(2):
            assert np.intersect1d(rerender[i], initial[i + 1]).size == 0
        pooled = np.concatenate([noise_draws(spec.seed, 3, 32).ravel() for spec in noise_specs])
        assert np.unique(pooled).size == pooled.size

    def test_baseline_rigs_are_not_the_prior_noise(self, tmp_path, noise_specs, monkeypatch):
        samples = []

        def recording(count, m, prior, seed):
            samples.extend(optimize.baseline_random(count, m, prior, seed=seed))
            return samples

        monkeypatch.setattr("psdesign.cli.baseline_random", recording)
        cfg_path = tmp_path / "cfg.json"
        azimuths = np.arange(M) * np.pi / 3.0
        cone = np.stack([0.6 * np.cos(azimuths), 0.6 * np.sin(azimuths), np.full(M, 0.8)], axis=1)
        write_config(cfg_path, seed=SEED, lights={"rows": cone.tolist()}, noise={"sigma": 0.02})
        assert main(["baseline", "--config", str(cfg_path), "--count", "4",
                     "--out", str(tmp_path / "b")]) == 0
        [spec] = noise_specs  # the classic-PS pass behind the prior
        image0 = directions(noise_draws(spec.seed, M, 3 * M)[0])
        assert not np.allclose(samples[0][0], image0)
        assert samples[0][0].shape == (M, 3) and len(samples) == 4
