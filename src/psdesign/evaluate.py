"""Quantitative comparison of normal-map estimates and light configurations.

Angular errors are pooled per pixel per trial (not per-trial means), so
medians and quantiles are meaningful.  Histograms use the fixed 0.5-degree
bins of HISTOGRAM_EDGES on [0, 30] with a final overflow bin.
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
    freeze,
)
from .forward import NoiseSpec, Stage, add_noise, render_stack, stream_key
from .oed import ShapePrior, build_shape_prior, phi_shape_aware
# solve_map is not called here, but perfbench's traced run patches it here
from .solver import _unit_columns, solve_map  # noqa: F401

HISTOGRAM_EDGES = freeze(np.arange(0.0, 30.25, 0.5))


@dataclass(frozen=True)
class AngularErrorStats:
    """Summary statistics of angular errors, in degrees.

    ``histogram_counts`` has one entry per bin of ``histogram_edges`` (the
    sealed HISTOGRAM_EDGES) plus a trailing overflow bin for errors above its
    last edge.  ``error_map`` holds per-pixel error with NaN off the joint
    mask for ``compare_maps``, and is None for ``compare_configs`` rows, which
    pool errors over trials.
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


def _angle_deg(a, b):
    """Angle in degrees between a and b, each given by its x, y, z components:
    atan2(|a x b|, a . b), which keeps full precision near 0 degrees, where
    arccos of the dot product bottoms out around 1e-6 deg."""
    (ax, ay, az), (bx, by, bz) = a, b
    cross_sq = (ay * bz - az * by) ** 2 + (az * bx - ax * bz) ** 2 + (ax * by - ay * bx) ** 2
    return np.degrees(np.arctan2(np.sqrt(cross_sq), ax * bx + ay * by + az * bz))


def _joint_errors(est_xyz: np.ndarray, est_mask: np.ndarray, gt: NormalMap):
    """Flat indices of the pixels valid in both an estimate and ``gt``, and
    the angular errors there.  The estimate comes as (3, P) unit normals and a
    (P,) mask, in ``gt``'s row-major pixel order."""
    idx = np.flatnonzero(est_mask & gt.mask.reshape(-1))
    gt_xyz = gt.normals.reshape(-1, 3).T
    return idx, _angle_deg(est_xyz.take(idx, axis=1), gt_xyz.take(idx, axis=1))


def _stats_from_samples(samples: np.ndarray, error_map: np.ndarray | None) -> AngularErrorStats:
    if samples.size == 0:
        raise EmptyMaskError("no valid pixels in common")
    counts = np.histogram(samples, bins=HISTOGRAM_EDGES)[0]
    overflow = int(np.count_nonzero(samples >= HISTOGRAM_EDGES[-1]))
    return AngularErrorStats(
        mean_deg=float(samples.mean()),
        median_deg=float(np.median(samples)),
        p90_deg=float(np.percentile(samples, 90.0)),
        max_deg=float(samples.max()),
        histogram_edges=HISTOGRAM_EDGES,
        histogram_counts=np.append(counts, overflow),
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
    idx, samples = _joint_errors(est.normals.reshape(-1, 3).T, est.mask.reshape(-1), gt)
    errors = np.full(gt.mask.size, np.nan)
    errors[idx] = samples
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

    Per config and trial: render, add noise from a fresh stream key, solve and
    score against ground truth on the solver's (3, P) arrays, building no map.
    Samples are pooled across trials, so the stats carry no error map
    (``error_map`` is None); each row also records the shape-aware objective
    under the scene's prior.
    A config that leaves no pixel valid in any trial is reported with
    note="no-valid-pixels" and no error statistics.  The k-th trial over all
    configs, in order, draws from ``stream_key(seed, Stage.COMPARE, k)``,
    whatever the configs' light counts.
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
        for key in itertools.islice(keys, trials):
            noise = NoiseSpec.uniform(sigma, lights.m, seed=key)
            # no name holds the noisy stack, so it is freed once it is solved
            normals, _, valid = _unit_columns(
                add_noise(clean, noise).images.reshape(lights.m, -1), lights, noise.sigmas)
            pooled.append(_joint_errors(normals, valid, gt_normals)[1])
        samples = np.concatenate(pooled)
        if samples.size == 0:
            # e.g. a light below the horizon shadows the whole scene
            results.append(
                ConfigComparison(name=name, lights=lights, phi=phi,
                                 stats=None, note="no-valid-pixels")
            )
            continue
        results.append(ConfigComparison(name=name, lights=lights, phi=phi,
                                        stats=_stats_from_samples(samples, None)))
    return results
