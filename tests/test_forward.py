import numpy as np
import pytest

from psdesign import (
    AlbedoMap,
    DimensionMismatchError,
    IntensityStack,
    LightConfig,
    NoiseSpec,
    NormalMap,
    add_noise,
    render_pixel,
    render_stack,
)
from psdesign.scenes import AlbedoSpec, SceneSpec, generate


def identity_triad():
    return LightConfig(rows=np.eye(3))


def tiny_map(normal=(0.0, 0.0, 1.0), albedo=1.0):
    normals = np.zeros((1, 1, 3))
    normals[0, 0] = normal
    return (
        NormalMap(normals=normals, mask=np.ones((1, 1), bool)),
        AlbedoMap(values=np.full((1, 1), albedo)),
    )


class TestRenderPixel:
    def test_frontal(self):
        assert render_pixel((0, 0, 1), 1.0, (0, 0, 1)) == 1.0

    def test_grazing_clamps(self):
        assert render_pixel((0, 0, 1), 0.5, (1, 0, 0)) == 0.0

    def test_known_cosine(self):
        n = np.ones(3) / np.sqrt(3.0)
        assert render_pixel(n, 0.5, (0, 0, 1)) == pytest.approx(0.5 / np.sqrt(3.0), abs=1e-15)

    def test_rho_range(self):
        with pytest.raises(ValueError):
            render_pixel((0, 0, 1), 0.0, (0, 0, 1))
        with pytest.raises(ValueError):
            render_pixel((0, 0, 1), 1.5, (0, 0, 1))


class TestRenderStack:
    def test_axis_lights(self):
        nmap, amap = tiny_map()
        stack = render_stack(nmap, amap, identity_triad())
        assert stack.images[:, 0, 0] == pytest.approx([0.0, 0.0, 1.0])
        assert np.all(stack.sigmas == 0.0)

    def test_empty_scene(self):
        normals = np.zeros((2, 2, 3))
        normals[..., 2] = 1.0
        nmap = NormalMap(normals=normals, mask=np.zeros((2, 2), bool))
        amap = AlbedoMap(values=np.ones((2, 2)))
        stack = render_stack(nmap, amap, identity_triad())
        assert np.all(stack.images == 0.0)

    def test_matches_per_pixel_oracle(self):
        # the scalar renderer applied pixel by pixel is the reference
        nmap, amap = generate(
            SceneSpec(kind="sphere", width=17, height=17, params={"radius": 0.9},
                      albedo=AlbedoSpec(value=0.8))
        )
        stack = render_stack(nmap, amap, identity_triad())
        for i, light in enumerate(np.eye(3)):
            for r in range(17):
                for c in range(17):
                    if not nmap.mask[r, c]:
                        expected = 0.0
                    else:
                        expected = render_pixel(nmap.normals[r, c], amap.values[r, c], light)
                    assert stack.images[i, r, c] == pytest.approx(expected, abs=1e-15)

    def test_random_rig_matches_per_pixel_oracle(self):
        # lights on both hemispheres (clamping), varying albedo, and masked
        # pixels whose normals would otherwise render bright
        rng = np.random.default_rng(5)
        normals = rng.normal(size=(6, 7, 3))
        normals[..., 2] = np.abs(normals[..., 2]) + 0.1
        normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
        mask = rng.random((6, 7)) < 0.7
        albedo = rng.uniform(0.2, 1.0, size=(6, 7))
        rows = rng.normal(size=(6, 3))
        lights = LightConfig(rows=rows / np.linalg.norm(rows, axis=1, keepdims=True))
        stack = render_stack(NormalMap(normals=normals, mask=mask), AlbedoMap(values=albedo),
                             lights)
        assert not mask.all() and (stack.images == 0.0).any()
        for i, light in enumerate(lights.rows):
            for r in range(6):
                for c in range(7):
                    expected = render_pixel(normals[r, c], albedo[r, c], light) if mask[r, c] else 0.0
                    assert stack.images[i, r, c] == pytest.approx(expected, abs=1e-15)

    def test_dimension_mismatch(self):
        nmap, _ = tiny_map()
        with pytest.raises(DimensionMismatchError):
            render_stack(nmap, AlbedoMap(values=np.ones((2, 2))), identity_triad())

    def test_linear_in_albedo_away_from_shadow(self):
        normals = np.zeros((4, 4, 3))
        normals[..., 2] = 1.0
        nmap = NormalMap(normals=normals, mask=np.ones((4, 4), bool))
        lights = LightConfig(rows=np.array(
            [[0.0, 0.0, 1.0],
             [0.6, 0.0, 0.8],
             [0.0, 0.6, 0.8]]))
        lo = render_stack(nmap, AlbedoMap(values=np.full((4, 4), 0.3)), lights)
        hi = render_stack(nmap, AlbedoMap(values=np.full((4, 4), 0.6)), lights)
        assert np.array_equal(2.0 * lo.images, hi.images)


class TestAddNoise:
    def test_zero_sigma_is_identity(self):
        stack = IntensityStack(images=np.random.default_rng(0).random((3, 8, 8)),
                               sigmas=np.zeros(3))
        noisy = add_noise(stack, NoiseSpec(sigmas=np.zeros(3), seed=5))
        assert np.array_equal(noisy.images, stack.images)

    def test_deterministic_given_seed(self):
        stack = IntensityStack(images=np.zeros((2, 16, 16)), sigmas=np.zeros(2))
        spec = NoiseSpec(sigmas=[0.05, 0.01], seed=99)
        a = add_noise(stack, spec)
        b = add_noise(stack, spec)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.sigmas, [0.05, 0.01])

    def test_mismatched_counts(self):
        stack = IntensityStack(images=np.zeros((3, 2, 2)), sigmas=np.zeros(3))
        with pytest.raises(DimensionMismatchError):
            add_noise(stack, NoiseSpec(sigmas=[0.1, 0.1], seed=0))

    def test_law_of_large_numbers(self):
        # sample mean within 4 sigma/sqrt(n), sample std within 1 percent
        n = 1000
        sigma = 0.01
        stack = IntensityStack(images=np.zeros((1, n, n)), sigmas=np.zeros(1))
        noisy = add_noise(stack, NoiseSpec(sigmas=[sigma], seed=7))
        draws = noisy.images[0] - stack.images[0]
        assert abs(draws.mean()) < 4.0 * sigma / np.sqrt(n * n)
        assert abs(draws.std() - sigma) < 0.01 * sigma

    def test_cross_image_noise_uncorrelated(self):
        side = 400  # 160k pixels
        stack = IntensityStack(images=np.zeros((2, side, side)), sigmas=np.zeros(2))
        noisy = add_noise(stack, NoiseSpec(sigmas=[0.02, 0.02], seed=3))
        corr = np.corrcoef(noisy.images[0].ravel(), noisy.images[1].ravel())[0, 1]
        assert abs(corr) < 0.01

    def test_negative_values_allowed(self):
        stack = IntensityStack(images=np.zeros((1, 64, 64)), sigmas=np.zeros(1))
        noisy = add_noise(stack, NoiseSpec(sigmas=[0.5], seed=1))
        assert (noisy.images < 0.0).any()
