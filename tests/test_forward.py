import hashlib
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import psdesign
from psdesign import forward

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
    solve_map,
    substream,
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

    def test_nan_normals_at_masked_out_pixels_render_zero(self):
        normals = np.zeros((3, 4, 3))
        normals[..., 2] = 1.0
        normals[1, 2] = np.nan
        normals[2, 3] = (np.inf, -np.inf, np.nan)
        mask = np.ones((3, 4), bool)
        mask[1, 2] = mask[2, 3] = mask[0, 1] = False
        albedo = np.full((3, 4), 0.7)
        albedo[0, 1] = np.nan
        lights = LightConfig(rows=np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, 0.6, 0.8]]))
        with np.errstate(invalid="ignore"):
            stack = render_stack(NormalMap(normals=normals, mask=mask),
                                 AlbedoMap(values=albedo), lights)
        off = stack.images[:, ~mask]
        assert np.all(off == 0.0) and not np.signbit(off).any()
        assert np.all(stack.images[:, mask] > 0.0)

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


NOISE_SEED = 2024
# large enough that add_noise fills the images on threads when it may use
# more than one CPU
NOISE_SHAPE = (256, 260)


def noise_case(m: int):
    """A random clean stack and a noise spec with sigma = 0 for image 1."""
    rng = np.random.default_rng(m)
    sigmas = rng.uniform(0.005, 0.2, size=m)
    sigmas[1] = 0.0
    stack = IntensityStack(images=rng.random((m, *NOISE_SHAPE)), sigmas=np.zeros(m))
    return stack, NoiseSpec(sigmas=sigmas, seed=NOISE_SEED + m)


def noise_digest(m: int) -> str:
    stack, spec = noise_case(m)
    return hashlib.sha256(add_noise(stack, spec).images.tobytes()).hexdigest()


def child_env() -> dict:
    """Environment for a child Python that imports psdesign and this module."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(psdesign.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))


# Runs noise_digest in a process that may use one CPU only.
ONE_CPU_CHILD = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from psdesign import forward
from test_forward import noise_digest
print(noise_digest(int(sys.argv[1])))
assert forward._POOL is None, "one CPU must fill the images in a plain loop"
"""


class TestNoiseExactness:
    @pytest.mark.parametrize("m", [3, 16])
    def test_equals_per_image_normal_draws(self, m):
        assert NOISE_SHAPE[0] * NOISE_SHAPE[1] >= forward.PARALLEL_MIN_PIXELS
        stack, spec = noise_case(m)
        clean = stack.images.tobytes()
        noisy = add_noise(stack, spec)
        for i, sigma in enumerate(spec.sigmas):
            expected = stack.images[i] + substream(spec.seed, i).normal(0.0, sigma, NOISE_SHAPE)
            assert noisy.images[i].tobytes() == expected.tobytes()
        assert stack.images.tobytes() == clean
        assert noisy.images[1].tobytes() == stack.images[1].tobytes()
        with pytest.raises(ValueError):
            noisy.images[0, 0, 0] = 0.0

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="no CPU affinity control on this platform")
    @pytest.mark.parametrize("m", [3, 16])
    def test_same_bytes_on_one_cpu(self, m):
        child = subprocess.run([sys.executable, "-c", ONE_CPU_CHILD, str(m)], env=child_env(),
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == noise_digest(m)

    def test_concurrent_callers_share_one_pool(self, monkeypatch):
        import concurrent.futures

        created = []

        class CountedPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                created.append(self)
                time.sleep(0.05)  # widens the window a check-then-create race needs
                super().__init__(*args, **kwargs)

        expected = {m: noise_digest(m) for m in (3, 6)}
        monkeypatch.setattr(forward, "_POOL", None)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedPool)
        callers = 4 * max(2, os.cpu_count() or 1)  # more threads than CPUs
        start = threading.Barrier(callers)
        got = [None] * callers

        def call(k):
            start.wait()
            got[k] = noise_digest((3, 6)[k % 2])

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(k,)) for k in range(callers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert got == [expected[(3, 6)[k % 2]] for k in range(callers)]
        assert len(created) == (1 if forward._cpu_count() > 1 else 0)
        if created:
            created[0].shutdown()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_forked_child_fills_noise(self):
        # the child inherits the pool object without its threads; with a
        # stale pool its add_noise would wait forever, so the alarm ends it
        child = subprocess.run([sys.executable, "-c", FORK_CHILD], env=child_env(),
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr


FORK_CHILD = """
import os, signal
from test_forward import noise_digest
expected = noise_digest(16)  # creates the pool on more than one CPU
pid = os.fork()
if pid == 0:
    signal.alarm(30)
    os._exit(0 if noise_digest(16) == expected else 1)
_, status = os.waitpid(pid, 0)
raise SystemExit(os.waitstatus_to_exitcode(status))
"""


def traced_peak(run):
    """Peak bytes numpy and Python allocate while ``run()`` executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_frame_path_writes_each_stack_once():
    # a copy anywhere in a stage would at least double its peak allocation
    nmap, amap = generate(SceneSpec(kind="sphere", width=64, height=64))
    rows = np.random.default_rng(8).normal(size=(16, 3))
    rows[:, 2] = np.abs(rows[:, 2]) + 1.0
    lights = LightConfig(rows=rows / np.linalg.norm(rows, axis=1, keepdims=True))
    clean = render_stack(nmap, amap, lights)
    stack_bytes = clean.images.nbytes
    assert traced_peak(lambda: render_stack(nmap, amap, lights)) < 1.25 * stack_bytes
    noise = NoiseSpec.uniform(0.01, 16, seed=1)
    assert traced_peak(lambda: add_noise(clean, noise)) < 1.25 * stack_bytes
    est, albedo = solve_map(clean, lights)
    map_bytes = est.normals.nbytes + est.mask.nbytes + albedo.values.nbytes
    assert traced_peak(lambda: solve_map(clean, lights)) < 2.0 * map_bytes
