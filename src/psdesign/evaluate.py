"""Quantitative comparison of normal-map estimates and light configurations.

Angular errors are pooled per pixel per trial (not per-trial means), so
medians and quantiles are meaningful.  Histograms use the fixed 0.5-degree
bins of HISTOGRAM_EDGES on [0, 30] with a final overflow bin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import (
    AlbedoMap,
    DimensionMismatchError,
    EmptyMaskError,
    LightConfig,
    NormalMap,
    freeze,
    pixel_blocks,
    runner,
)
# add_noise and solve_map are not called here, but perfbench's traced run patches them here
from .forward import NoiseSpec, Stage, _fill_noise, add_noise, render_stack, stream_key  # noqa: F401
from .oed import ShapePrior, build_shape_prior, phi_shape_aware
from .solver import _solve_columns, solve_map  # noqa: F401

HISTOGRAM_EDGES = freeze(np.arange(0.0, 30.25, 0.5))


@dataclass(frozen=True)
class AngularErrorStats:
    """Summary statistics of angular errors, in degrees.

    ``histogram_counts`` has one entry per bin of ``histogram_edges`` (the
    sealed HISTOGRAM_EDGES, whose last bin is closed) plus a trailing overflow
    bin for errors above its last edge.  ``error_map`` holds per-pixel error
    with NaN off the joint mask for ``compare_maps``, and is None for
    ``compare_configs`` rows, which pool errors over trials.
    """

    mean_deg: float
    median_deg: float
    p90_deg: float
    max_deg: float
    histogram_edges: np.ndarray
    histogram_counts: np.ndarray
    error_map: np.ndarray | None
    count: int


def angular_error(a, b) -> float:
    """Angle between two vectors, in degrees."""
    return float(_angle_deg(np.asarray(a, dtype=float), np.asarray(b, dtype=float)))


def _angle_deg(a, b, out=None):
    """Angle in degrees between a and b, each given by its x, y, z components:
    atan2(|a x b|, a . b), which keeps full precision near 0 degrees, where
    arccos of the dot product bottoms out around 1e-6 deg."""
    (ax, ay, az), (bx, by, bz) = a, b
    cross_sq = (ay * bz - az * by) ** 2 + (az * bx - ax * bz) ** 2 + (ax * by - ay * bx) ** 2
    return np.degrees(np.arctan2(np.sqrt(cross_sq), ax * bx + ay * by + az * bz), out=out)


def _joint_errors(est_xyz, gt_xyz, joint, out) -> int:
    """Write the angular errors at the ``joint`` pixels into ``out`` in
    row-major pixel order, each block at the count of those before it, and
    return how many there are.  The normals come as (3, P) unit columns and
    ``joint`` as a (P,) mask."""
    blocks = pixel_blocks(joint.size)

    def write(block) -> None:
        s, start = block
        idx = np.flatnonzero(joint[s])
        # row by row: take along axis 1 would first copy the strided (3, B) block
        _angle_deg([row[s].take(idx) for row in est_xyz], [row[s].take(idx) for row in gt_xyz],
                   out=out[start:start + idx.size])

    with runner(joint.size) as run:
        starts = np.cumsum([0] + run(np.count_nonzero, [joint[s] for s in blocks]))
        run(write, zip(blocks, starts))
    return int(starts[-1])


def _stats_from_samples(samples: np.ndarray, error_map: np.ndarray | None) -> AngularErrorStats:
    """Statistics of ``samples``, which the median and p90 reorder in place."""
    if samples.size == 0:
        raise EmptyMaskError("no valid pixels in common")
    counts = np.histogram(samples, bins=HISTOGRAM_EDGES)[0]
    return AngularErrorStats(  # arguments run in order: the mean sums before any reordering
        mean_deg=float(samples.mean()),
        median_deg=float(np.median(samples, overwrite_input=True)),
        p90_deg=float(np.percentile(samples, 90.0, overwrite_input=True)),
        max_deg=float(samples.max()),
        histogram_edges=HISTOGRAM_EDGES,
        histogram_counts=np.append(counts, samples.size - counts.sum()),  # angles are >= 0
        error_map=error_map,
        count=int(samples.size),
    )


def compare_maps(est: NormalMap, gt: NormalMap) -> AngularErrorStats:
    """Angular-error statistics of an estimate against ground truth.

    Statistics run over the intersection of the two validity masks; the error
    map is NaN off it.
    """
    if (est.height, est.width) != (gt.height, gt.width):
        raise DimensionMismatchError(
            f"maps differ in size: {est.height}x{est.width} vs {gt.height}x{gt.width}"
        )
    joint = (est.mask & gt.mask).reshape(-1)
    # room for every pixel: pages never written are never committed
    samples = np.empty(joint.size)
    samples = samples[:_joint_errors(est.normals.reshape(-1, 3).T, gt.normals.reshape(-1, 3).T,
                                     joint, samples)]
    errors = np.full(joint.size, np.nan)
    errors[joint] = samples
    return _stats_from_samples(samples, errors.reshape(gt.mask.shape))


@dataclass(frozen=True)
class ConfigComparison:
    """One row of a light-configuration comparison table."""

    name: str
    lights: LightConfig
    phi: float
    stats: AngularErrorStats | None
    note: str = "ok"


def compare_configs(
    gt_normals: NormalMap,
    albedo: AlbedoMap,
    configs: Mapping[str, LightConfig],
    sigma: float,
    trials: int,
    seed: int,
    prior: ShapePrior | None = None,
) -> list[ConfigComparison]:
    """Monte Carlo comparison of named light configurations on one scene.

    Trial k draws sigma-scaled noise once, for max(m) images: image i from
    ``substream(stream_key(seed, Stage.COMPARE, k), i)``.  Each config adds
    its first m images to its clean stack (common random numbers), so a row
    does not depend on the configs beside it, and solves and scores it on the
    solver's (3, P) arrays.  One noise buffer and one noisy buffer serve every
    trial and config; every config's clean stack lives for the whole call.
    One runner (see ``core.runner``) serves the whole call, so its threads
    start once; the blocks of the renders, solves and angular errors, the
    noise fill, the noisy add and each config's statistics are its tasks.
    Samples are pooled across trials, so the stats carry no error map; a
    config that leaves no pixel valid in any trial gets note="no-valid-pixels"
    and no stats.  Each row also records phi under the scene's prior.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if prior is None:
        prior = build_shape_prior(gt_normals)
    gt_xyz = gt_normals.normals.reshape(-1, 3).T
    gt_mask = gt_normals.mask.reshape(-1)
    blocks = pixel_blocks(gt_mask.size)
    with runner(gt_mask.size) as run:
        cleans = [render_stack(gt_normals, albedo, c).images.reshape(c.m, -1)
                  for c in configs.values()]
        noise = np.empty((max((len(clean) for clean in cleans), default=0), gt_mask.size))
        noisy = np.empty_like(noise)
        # a config pools at most this many errors; pages never written are never
        # committed, so no per-trial piece is kept and no concatenated copy made
        pooled = [np.empty(trials * int(np.count_nonzero(gt_mask))) for _ in cleans]
        counts = [0] * len(cleans)
        for k in range(trials):
            spec = NoiseSpec.uniform(sigma, len(noise), seed=stream_key(seed, Stage.COMPARE, k))
            _fill_noise(noise, spec)
            for c, (lights, clean) in enumerate(zip(configs.values(), cleans)):
                flat = noisy[:lights.m]
                run(lambda s: np.add(clean[:, s], noise[:lights.m, s], out=flat[:, s]), blocks)
                normals, _, valid = _solve_columns(flat, lights, spec.sigmas[:lights.m], unit=True)
                valid &= gt_mask
                counts[c] += _joint_errors(normals, gt_xyz, valid, pooled[c][counts[c]:])
        # no samples: e.g. a light below the horizon shadows the whole scene
        stats = run(lambda c: _stats_from_samples(pooled[c][:counts[c]], None)
                    if counts[c] else None, range(len(counts)))
    return [ConfigComparison(name=name, lights=lights, phi=phi_shape_aware(lights, prior),
                             stats=row, note="ok" if row is not None else "no-valid-pixels")
            for (name, lights), row in zip(configs.items(), stats)]
