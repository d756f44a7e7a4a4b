"""Quantitative comparison of normal-map estimates and light configurations.

Angular errors are pooled per pixel per trial (not per-trial means), so
medians and quantiles are meaningful.  Histograms use the fixed 0.5-degree
bins of HISTOGRAM_EDGES on [0, 30] with a final overflow bin.  One pass over
``pixel_blocks`` writes each block's errors and counts their bins; one
partition of the samples then selects the median, p90 and maximum, the bits
that np.median and np.percentile(., 90) give.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import (
    AlbedoMap,
    DimensionMismatchError,
    EmptyMaskError,
    InvalidSpecError,
    LightConfig,
    NormalMap,
    freeze,
    pixel_blocks,
    runner,
)
# add_noise and solve_map are not called here, but perfbench's traced run patches them here
from .forward import NoiseSpec, Stage, _fill_noise, add_noise, render_stack, stream_key  # noqa: F401
from .oed import ShapePrior, build_shape_prior, phi_shape_aware
from .solver import _finish_columns, _inverse, _lit, _product, solve_map  # noqa: F401

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


def _score(est_xyz, gt_xyz, joint, out, starts=None, unit=False) -> tuple[int, np.ndarray]:
    """Write the angular errors at the ``joint`` pixels of (3, P) columns into
    ``out`` in row-major order; return their count and ``_bin_counts``.  Block
    b writes at ``starts[b]`` (default: its first pixel), then the blocks are
    compacted.  With ``unit``, ``_finish_columns`` finishes n_tilde estimates."""
    blocks = pixel_blocks(joint.size)
    starts = [s.start for s in blocks] if starts is None else starts

    def score(block) -> tuple[int, np.ndarray]:
        s, start = block
        idx = np.flatnonzero(joint[s])
        est, ok = np.empty((3, idx.size)), np.ones(idx.size, dtype=bool)
        for row, e in zip(est_xyz, est):  # take along axis 1 would first copy the strided block
            row[s].take(idx, out=e)
        if unit:
            _finish_columns(est, np.empty(idx.size), ok, unit=True)
        samples = out[start:start + idx.size]
        _angle_deg(est, [row[s].take(idx) for row in gt_xyz], out=samples)
        if not ok.all():  # np.compress buffers its output, so it may overlap the input
            samples = np.compress(ok, samples, out=samples[:np.count_nonzero(ok)])
        return samples.size, _bin_counts(samples)

    with runner(joint.size) as run:
        scored = run(score, zip(blocks, starts))
    count = 0
    for start, (n, _) in zip(starts, scored):  # numpy skips a copy onto itself
        out[count:count + n] = out[start:start + n]
        count += n
    return count, np.sum([bins for _, bins in scored], axis=0)


def _bin_counts(samples: np.ndarray) -> np.ndarray:
    """Counts in the bins of HISTOGRAM_EDGES, then the overflow (angles are >= 0).
    The edges are k/2, so 2 * angle is exact and its floor is its bin; NaN and
    angles above 30 overflow, as np.histogram leaves them out."""
    counts = np.bincount(np.fmin(2.0 * samples, 60.0).astype(np.intp), minlength=61)
    top = np.count_nonzero(samples == 30.0)  # the last bin is closed
    counts[59:] += top, -top
    return counts


def _stats_from_samples(samples: np.ndarray, error_map: np.ndarray | None,
                        counts: np.ndarray | None = None) -> AngularErrorStats:
    """Statistics of ``samples`` and their ``_bin_counts``.  One partition, in
    place, selects np.median's middle pair and the neighbours of the linear
    index (n - 1) * 0.9, which numpy's two-sided lerp interpolates for p90."""
    n = samples.size
    if n == 0:
        raise EmptyMaskError("no valid pixels in common")
    mean, counts = float(samples.mean()), _bin_counts(samples) if counts is None else counts
    rank = (n - 1) * 0.9
    lo, hi, t = int(rank), min(int(rank) + 1, n - 1), rank - int(rank)
    samples.partition(sorted({(n - 1) // 2, n // 2, lo, hi, n - 1}))
    a, b = samples[lo], samples[hi]
    return AngularErrorStats(
        mean_deg=mean,
        median_deg=float((samples[(n - 1) // 2] + samples[n // 2]) / 2.0),
        p90_deg=float(b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t),
        max_deg=float(samples[n - 1]),
        histogram_edges=HISTOGRAM_EDGES,
        histogram_counts=counts,
        error_map=error_map,
        count=int(n),
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
    count, counts = _score(est.normals.reshape(-1, 3).T, gt.normals.reshape(-1, 3).T, joint,
                           samples)
    samples = samples[:count]
    errors = np.full(joint.size, np.nan)
    errors[joint] = samples
    return _stats_from_samples(samples, errors.reshape(gt.mask.shape), counts)


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
    does not depend on the configs beside it.  One block pass adds the noise
    and marks the pixels lit in every image (the solver's tau test) and valid
    in the ground truth; a trial with none stops there.  Otherwise the solver's
    whole-frame product gives n_tilde, and a second block pass tests,
    normalises and scores the lit pixels only.  The buffers are allocated once
    per call, and one runner (see ``core.runner``) serves the whole call.
    Samples are pooled across trials, and one partition of each row's pool
    selects its median, p90 and maximum.  The stats carry no error map; a
    config that leaves no pixel valid in any trial gets note="no-valid-pixels"
    and no stats.  Each row also records phi under the scene's prior.
    """
    if trials < 1:
        raise InvalidSpecError("trials must be >= 1")
    if prior is None:
        prior = build_shape_prior(gt_normals)
    gt_xyz = gt_normals.normals.reshape(-1, 3).T
    gt_mask = gt_normals.mask.reshape(-1)
    blocks = pixel_blocks(gt_mask.size)
    with runner(gt_mask.size) as run:
        cleans = [render_stack(gt_normals, albedo, c).images.reshape(c.m, -1)
                  for c in configs.values()]
        inverses = [_inverse(c, np.full(c.m, float(sigma))) for c in configs.values()]
        noise = np.empty((max((len(clean) for clean in cleans), default=0), gt_mask.size))
        noisy = np.empty_like(noise)
        n_tilde, lit = np.empty((3, gt_mask.size)), np.empty(gt_mask.size, dtype=bool)
        # a config pools at most this many errors; pages never written are never
        # committed, so no per-trial piece is kept and no concatenated copy made
        pooled = [np.empty(trials * int(np.count_nonzero(gt_mask))) for _ in cleans]
        counts, bins = [0] * len(cleans), [0] * len(cleans)
        for k in range(trials):
            spec = NoiseSpec.uniform(sigma, len(noise), seed=stream_key(seed, Stage.COMPARE, k))
            _fill_noise(noise, spec)
            for c, (clean, (pinv, tau)) in enumerate(zip(cleans, inverses)):
                flat = noisy[:len(clean)]

                def observe(s: slice) -> int:  # run calls it before the loop moves on
                    np.add(clean[:, s], noise[:len(clean), s], out=flat[:, s])
                    return np.count_nonzero(np.logical_and(_lit(flat[:, s], tau, out=lit[s]),
                                                           gt_mask[s], out=lit[s]))

                lit_counts = run(observe, blocks)
                if not any(lit_counts):  # e.g. a light below the horizon shadows every pixel
                    continue
                _product(pinv, flat, out=n_tilde)
                n, hist = _score(n_tilde, gt_xyz, lit, pooled[c][counts[c]:],
                                 np.cumsum([0, *lit_counts[:-1]]), unit=True)
                counts[c], bins[c] = counts[c] + n, bins[c] + hist
        stats = run(lambda c: _stats_from_samples(pooled[c][:counts[c]], None, bins[c])
                    if counts[c] else None, range(len(counts)))
    return [ConfigComparison(name=name, lights=lights, phi=phi_shape_aware(lights, prior),
                             stats=row, note="ok" if row is not None else "no-valid-pixels")
            for (name, lights), row in zip(configs.items(), stats)]
