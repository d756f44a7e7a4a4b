"""Lambertian image formation and the additive Gaussian error model.

Rendering clamps negative cosines to zero (attached shadow), one
``product_blocks`` slice per ``render_block``, which ``render_stack`` and
``evaluate.compare_configs`` share.  Noise is *not* clamped, so the error
stays exactly Gaussian; quantization and sensor saturation are not modeled.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    AlbedoMap,
    DimensionMismatchError,
    IntensityStack,
    InvalidSpecError,
    LightConfig,
    NormalMap,
    _readonly,
    _require_int,
    freeze,
    pixel_blocks,
    product_blocks,
    require_sigmas,
    runner,
)


class Stage(enum.IntEnum):
    """The stages that draw random numbers; each keys its own Philox streams.
    The heuristic spread and the orthogonal triad draw none."""

    NOISE = 0  # add_noise under a plain run seed
    RIG = 1  # the random imaging rig of a run config
    RESTART = 2  # the random starts of optimize_lights
    BASELINE = 3  # baseline_random
    RERENDER = 4  # the pipeline's render under the optimized rig
    COMPARE = 5  # compare_configs, one key per trial: 3 normals per pixel, shared by configs


def stream_key(seed: int, stage: Stage, index: int) -> int:
    """Two-word Philox key: word 0 is seed mod 2^64, word 1 stage << 56 | index.

    Distinct (seed mod 2^64, stage, index) give distinct keys; the NOISE key
    with index 0 is the run seed itself."""
    if not 0 <= _require_int("stream index", index) < 1 << 56:
        raise InvalidSpecError(f"stream index must be in [0, 2^56), got {index}")
    return int(_require_int("seed", seed)) % (1 << 64) | (int(stage) << 56 | int(index)) << 64


def substream(key: int, index: int) -> np.random.Generator:
    """Stream ``index`` of a Philox key, as ``Philox(key).jumped(index)``.

    Jumps are 2^128 draws apart, so the streams of one key never overlap, and
    distinct keys give independent streams (Salmon et al., SC11).  An int
    outside [0, 2^128) is a run seed, taken mod 2^64 as by stream_key, so
    ``substream(seed, 0)`` is Philox keyed by the seed."""
    key, index = int(_require_int("key", key)), int(_require_int("stream index", index))
    if not 0 <= index < 1 << 128:
        raise InvalidSpecError(f"stream index must be in [0, 2^128), got {index}")
    if not 0 <= key < 1 << 128:
        key %= 1 << 64
    # the counter that jumped(index) sets, without building a second generator
    return np.random.Generator(np.random.Philox(key=key, counter=index << 128))


@dataclass(frozen=True)
class NoiseSpec:
    """Per-image noise levels; image i draws from substream(seed, i), where
    ``seed`` is a run seed or a stream_key."""

    sigmas: np.ndarray
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sigmas", _readonly(require_sigmas(self.sigmas)))
        object.__setattr__(self, "seed", int(_require_int("seed", self.seed)))

    @classmethod
    def uniform(cls, sigma: float, m: int, seed: int = 0) -> "NoiseSpec":
        """Same noise level for all ``m`` images."""
        return cls(sigmas=np.full(m, float(sigma)), seed=seed)


def render_pixel(n, rho: float, s) -> float:
    """Lambertian intensity of one pixel: max(0, rho * (n . s)).

    ``n`` must be a unit normal and ``rho`` a physical albedo in (0, 1].
    """
    if not 0.0 < rho <= 1.0:
        raise InvalidSpecError(f"albedo must be in (0, 1], got {rho}")
    n = np.asarray(n, dtype=float)
    s = np.asarray(s, dtype=float)
    return float(max(0.0, rho * float(n @ s)))


def render_block(out: np.ndarray, rows: np.ndarray, normals: np.ndarray, albedo: np.ndarray,
                 mask: np.ndarray, s: slice) -> np.ndarray:
    """Render into (m, B) ``out`` one ``product_blocks`` slice ``s`` of the
    (3, P) ``normals``: ``rows`` times it, clamped at 0, times ``albedo``, and
    0 off ``mask``, where normals are unconstrained (with no warning)."""
    with np.errstate(invalid="ignore", over="ignore"):  # the mask zeroes NaN, inf and overflow
        np.matmul(rows, normals[:, s], out=out)
        rho, invalid = albedo[s], ~mask[s]
        for image in out:  # one image at a time
            np.maximum(image, 0.0, out=image)
            image *= rho
            np.copyto(image, 0.0, where=invalid)  # a masked write, not a gather
    return out


def render_stack(nmap: NormalMap, amap: AlbedoMap, lights: LightConfig) -> IntensityStack:
    """Render one noiseless image per light by ``render_block``; invalid pixels are 0."""
    if (nmap.height, nmap.width) != (amap.height, amap.width):
        raise DimensionMismatchError(
            f"normal map {nmap.height}x{nmap.width} vs albedo map {amap.height}x{amap.width}"
        )
    images = np.empty((lights.m, nmap.mask.size))
    frame = nmap.normals.reshape(-1, 3).T, amap.values.reshape(-1), nmap.mask.reshape(-1)
    with runner(images.shape[1]) as run:
        run(lambda s: render_block(images[:, s], lights.rows, *frame, s),
            product_blocks(images.shape[1]))
    return IntensityStack(images=freeze(images.reshape(lights.m, *amap.values.shape)),
                          sigmas=np.zeros(lights.m))


def _fill_image(out: np.ndarray, noise: NoiseSpec, i: int,
                clean: np.ndarray | None = None) -> None:
    """Write sigma_i * substream(noise.seed, i).standard_normal() into the (P,)
    ``out``, plus ``clean`` when given; an image with sigma 0 draws nothing."""
    sigma = noise.sigmas[i]
    if sigma == 0.0:
        out[...] = 0.0 if clean is None else clean
        return
    draws = substream(noise.seed, i)  # successive draws continue its one stream
    for s in pixel_blocks(out.size):  # each block scaled and shifted while in cache
        draws.standard_normal(out=out[s])
        out[s] *= sigma
        if clean is not None:
            out[s] += clean[s]


def add_noise(stack: IntensityStack, noise: NoiseSpec) -> IntensityStack:
    """Add independent N(0, sigma_i^2) noise to every pixel of image i.

    Deterministic given the seed: image i is, bit for bit,
    ``clean_i + substream(seed, i).normal(0.0, sigma_i, shape)``, written once
    into a new stack by _fill_image, one runner task per image; the streams are
    independent, so the bytes do not depend on the thread count.  Results are
    not clamped, so negative intensities can occur near shadow.
    """
    require_sigmas(noise.sigmas, stack.m)
    images = np.empty(stack.images.shape)
    out, clean = images.reshape(stack.m, -1), stack.images.reshape(stack.m, -1)
    with runner(out.shape[1]) as run:
        run(lambda i: _fill_image(out[i], noise, i, clean[i]), range(stack.m))
    return IntensityStack(images=freeze(images), sigmas=noise.sigmas)
