"""Quantitative comparison of normal-map estimates and light configurations.

Angular errors are pooled per pixel per trial (not per-trial means), so
medians and quantiles are meaningful.  Histograms default to 0.5-degree bins
on [0, 30] with a final overflow bin.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import (
    AlbedoMap,
    DimensionMismatchError,
    EmptyMaskError,
    LightConfig,
    NormalMap,
)
from .forward import NoiseSpec, Stage, add_noise, render_stack, stream_key
from .oed import ShapePrior, build_shape_prior, phi_shape_aware
from .solver import solve_map

DEFAULT_BIN_WIDTH = 0.5
DEFAULT_MAX_DEGREES = 30.0


@dataclass(frozen=True)
class AngularErrorStats:
    """Summary statistics of angular errors, in degrees.

    ``histogram_counts`` has one entry per bin plus a trailing overflow bin
    for errors above ``histogram_edges[-1]``; ``error_map`` holds per-pixel
    mean error with NaN at invalid pixels.
    """

    mean_deg: float
    median_deg: float
    p90_deg: float
    max_deg: float
    histogram_edges: np.ndarray
    histogram_counts: np.ndarray
    error_map: np.ndarray
    count: int


def angular_error(a, b) -> float:
    """Angle between two unit vectors, in degrees: arccos(clamp(a . b))."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.degrees(np.arccos(np.clip(a @ b, -1.0, 1.0))))


def _error_map_deg(est: NormalMap, gt: NormalMap) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Error map (NaN off the joint mask), joint mask, and the joint errors."""
    if (est.height, est.width) != (gt.height, gt.width):
        raise DimensionMismatchError(
            f"maps differ in size: {est.height}x{est.width} vs {gt.height}x{gt.width}"
        )
    joint = est.mask & gt.mask
    idx = np.flatnonzero(joint)
    ax, ay, az = (est.normals[..., c].reshape(-1).take(idx) for c in range(3))
    bx, by, bz = (gt.normals[..., c].reshape(-1).take(idx) for c in range(3))
    cross_sq = (ay * bz - az * by) ** 2 + (az * bx - ax * bz) ** 2 + (ax * by - ay * bx) ** 2
    # same angle as arccos of the dot product, but atan2 keeps full precision
    # near 0 degrees, where arccos bottoms out around 1e-6 deg
    samples = np.degrees(np.arctan2(np.sqrt(cross_sq), ax * bx + ay * by + az * bz))
    errors = np.full(joint.size, np.nan)
    errors[idx] = samples
    return errors.reshape(joint.shape), joint, samples


def _stats_from_samples(
    samples: np.ndarray,
    error_map: np.ndarray,
    bin_width: float,
    max_degrees: float,
) -> AngularErrorStats:
    if samples.size == 0:
        raise EmptyMaskError("no valid pixels in common")
    edges = np.arange(0.0, max_degrees + 0.5 * bin_width, bin_width)
    counts = np.histogram(samples, bins=edges)[0]
    overflow = int(np.count_nonzero(samples >= edges[-1]))
    return AngularErrorStats(
        mean_deg=float(samples.mean()),
        median_deg=float(np.median(samples)),
        p90_deg=float(np.percentile(samples, 90.0)),
        max_deg=float(samples.max()),
        histogram_edges=edges,
        histogram_counts=np.append(counts, overflow),
        error_map=error_map,
        count=int(samples.size),
    )


def compare_maps(
    est: NormalMap,
    gt: NormalMap,
    bin_width: float = DEFAULT_BIN_WIDTH,
    max_degrees: float = DEFAULT_MAX_DEGREES,
) -> AngularErrorStats:
    """Angular-error statistics of an estimate against ground truth.

    Statistics run over the intersection of the two validity masks.
    """
    errors, _, samples = _error_map_deg(est, gt)
    return _stats_from_samples(samples, errors, bin_width, max_degrees)


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

    Per config and trial: render, add noise from a fresh stream key, solve,
    compare with ground truth.  Samples are pooled across trials; each row also
    records the shape-aware objective under the scene's prior.  A config that
    leaves no pixel valid in any trial is reported with note="no-valid-pixels"
    and no error statistics.  The k-th trial over all configs, in order, draws
    from ``stream_key(seed, Stage.COMPARE, k)``, whatever the configs' light
    counts.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if prior is None:
        prior = build_shape_prior(gt_normals)
    results = []
    keys = (stream_key(seed, Stage.COMPARE, k) for k in itertools.count())
    for name, lights in configs.items():
        phi = phi_shape_aware(lights, prior)
        clean = render_stack(gt_normals, albedo, lights)
        pooled = []
        mean_map = np.zeros((gt_normals.height, gt_normals.width))
        hit_count = np.zeros((gt_normals.height, gt_normals.width), dtype=int)
        for key in itertools.islice(keys, trials):
            noise = NoiseSpec.uniform(sigma, lights.m, seed=key)
            est, _ = solve_map(add_noise(clean, noise), lights)
            _, joint, errors = _error_map_deg(est, gt_normals)
            pooled.append(errors)
            mean_map[joint] += errors
            hit_count[joint] += 1
        samples = np.concatenate(pooled)
        if samples.size == 0:
            # e.g. a light below the horizon shadows the whole scene
            results.append(
                ConfigComparison(name=name, lights=lights, phi=phi,
                                 stats=None, note="no-valid-pixels")
            )
            continue
        error_map = np.where(hit_count > 0, mean_map / np.maximum(hit_count, 1), np.nan)
        stats = _stats_from_samples(samples, error_map, DEFAULT_BIN_WIDTH, DEFAULT_MAX_DEGREES)
        results.append(ConfigComparison(name=name, lights=lights, phi=phi, stats=stats))
    return results
