"""Lambertian image formation and the additive Gaussian error model.

Rendering clamps negative cosines to zero (attached shadow: a surface cannot
emit negative light).  Noise is *not* clamped, so the error stays exactly
Gaussian; quantization and sensor saturation are not modeled.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .core import (
    AlbedoMap,
    DimensionMismatchError,
    IntensityStack,
    LightConfig,
    NonPositiveSigmaError,
    NormalMap,
    _readonly,
    freeze,
)

# Per-image work below this many pixels runs in a plain loop: on a 2-core Xeon
# the hand-off to a thread cost more than it saved below about 256 x 256.
PARALLEL_MIN_PIXELS = 1 << 16
_POOL = None  # created on first use, sized to the CPUs this process may run on
_POOL_LOCK = threading.Lock()


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _forget_pool() -> None:
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    # a forked child inherits the pool object but none of its threads
    os.register_at_fork(after_in_child=_forget_pool)


def _for_each(task, count: int, pixels: int) -> None:
    """Run ``task(i)`` for i in range(count), each on an image of ``pixels``
    pixels, concurrently on up to min(CPUs, count) threads; tasks must write
    disjoint outputs."""
    cpus = _cpu_count()
    if min(cpus, count) <= 1 or pixels < PARALLEL_MIN_PIXELS:
        for i in range(count):
            task(i)
        return
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor

            _POOL = ThreadPoolExecutor(max_workers=cpus, thread_name_prefix="psdesign")
        pool = _POOL
    for _ in pool.map(task, range(count)):  # re-raises a task's exception
        pass


def substream(seed: int, index: int) -> np.random.Generator:
    """Counter-based RNG stream for (seed, index).

    Philox streams keyed by ``seed + index`` are statistically independent,
    which makes per-image (and per-trial) noise reproducible regardless of
    evaluation order.
    """
    key = (int(seed) + int(index)) % (1 << 64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class NoiseSpec:
    """Per-image noise levels and the seed of the counter-based generator."""

    sigmas: np.ndarray
    seed: int = 0

    def __post_init__(self):
        sigmas = np.atleast_1d(np.asarray(self.sigmas, dtype=float))
        if sigmas.ndim != 1:
            raise DimensionMismatchError("sigmas must be a flat sequence")
        if np.any(sigmas < 0.0):
            raise NonPositiveSigmaError("noise levels must be >= 0")
        object.__setattr__(self, "sigmas", _readonly(sigmas))
        object.__setattr__(self, "seed", int(self.seed))

    @classmethod
    def uniform(cls, sigma: float, m: int, seed: int = 0) -> "NoiseSpec":
        """Same noise level for all ``m`` images."""
        return cls(sigmas=np.full(m, float(sigma)), seed=seed)


def render_pixel(n, rho: float, s) -> float:
    """Lambertian intensity of one pixel: max(0, rho * (n . s)).

    ``n`` must be a unit normal and ``rho`` a physical albedo in (0, 1].
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"albedo must be in (0, 1], got {rho}")
    n = np.asarray(n, dtype=float)
    s = np.asarray(s, dtype=float)
    return float(max(0.0, rho * float(n @ s)))


def render_stack(nmap: NormalMap, amap: AlbedoMap, lights: LightConfig) -> IntensityStack:
    """Render one noiseless image per light; invalid pixels render to 0."""
    if (nmap.height, nmap.width) != (amap.height, amap.width):
        raise DimensionMismatchError(
            f"normal map {nmap.height}x{nmap.width} vs albedo map {amap.height}x{amap.width}"
        )
    images = (lights.rows @ nmap.normals.reshape(-1, 3).T).reshape(lights.m, *amap.values.shape)
    invalid = ~nmap.mask

    def finish(i: int) -> None:  # one image at a time, while it is in cache
        np.maximum(images[i], 0.0, out=images[i])
        images[i] *= amap.values
        # a broadcast write, not a gather; it also zeroes NaN from the
        # unconstrained normals at invalid pixels
        np.copyto(images[i], 0.0, where=invalid)

    _for_each(finish, lights.m, nmap.mask.size)
    return IntensityStack(images=freeze(images), sigmas=np.zeros(lights.m))


def add_noise(stack: IntensityStack, noise: NoiseSpec) -> IntensityStack:
    """Add independent N(0, sigma_i^2) noise to every pixel of image i.

    Deterministic given the seed: image i is, bit for bit,
    ``clean_i + substream(seed, i).normal(0.0, sigma_i, shape)``, written once
    into a new stack.  Images of at least PARALLEL_MIN_PIXELS pixels are filled
    concurrently on the CPUs this process may use; the streams are independent,
    so the bytes do not depend on the thread count.  Results are not clamped,
    so negative intensities can occur near shadow.
    """
    if noise.sigmas.shape[0] != stack.m:
        raise DimensionMismatchError(
            f"got {noise.sigmas.shape[0]} noise levels for {stack.m} images"
        )
    clean = stack.images
    images = np.empty(clean.shape)

    def fill(i: int) -> None:
        sigma = noise.sigmas[i]
        if sigma == 0.0:
            images[i] = clean[i]
            return
        substream(noise.seed, i).standard_normal(out=images[i])
        images[i] *= sigma
        images[i] += clean[i]

    _for_each(fill, stack.m, stack.height * stack.width)
    return IntensityStack(images=freeze(images), sigmas=noise.sigmas)
