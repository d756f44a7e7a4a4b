"""Lambertian image formation and the additive Gaussian error model.

Rendering clamps negative cosines to zero (attached shadow: a surface cannot
emit negative light).  Noise is *not* clamped, so the error stays exactly
Gaussian; quantization and sensor saturation are not modeled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    AlbedoMap,
    DimensionMismatchError,
    IntensityStack,
    LightConfig,
    NonPositiveSigmaError,
    NormalMap,
)


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
        sigmas = sigmas.copy()
        sigmas.flags.writeable = False
        object.__setattr__(self, "sigmas", sigmas)
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
    np.maximum(images, 0.0, out=images)
    images *= amap.values
    images[:, ~nmap.mask] = 0.0
    return IntensityStack(images=images, sigmas=np.zeros(lights.m))


def add_noise(stack: IntensityStack, noise: NoiseSpec) -> IntensityStack:
    """Add independent N(0, sigma_i^2) noise to every pixel of image i.

    Deterministic given the seed: image i draws from ``substream(seed, i)``.
    Results are not clamped, so negative intensities can occur near shadow.
    """
    if noise.sigmas.shape[0] != stack.m:
        raise DimensionMismatchError(
            f"got {noise.sigmas.shape[0]} noise levels for {stack.m} images"
        )
    images = stack.images.copy()
    shape = stack.images.shape[1:]
    for i, sigma in enumerate(noise.sigmas):
        if sigma == 0.0:
            continue
        images[i] += substream(noise.seed, i).normal(0.0, sigma, size=shape)
    return IntensityStack(images=images, sigmas=noise.sigmas)
