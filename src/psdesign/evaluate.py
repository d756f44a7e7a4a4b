"""Quantitative comparison of normal-map estimates and light configurations.

Angular errors are pooled per pixel per trial (not per-trial means), so
medians and quantiles are meaningful.  Histograms use the fixed 0.5-degree
bins of HISTOGRAM_EDGES on [0, 30] with a final overflow bin.  One pass over
the ``pixel_blocks`` of the scored pixels' frame indices writes each block's
errors and counts their bins; single-rank partitions of the samples then
select the median, p90 and maximum: np.median's and np.percentile(., 90)'s bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Mapping

import numpy as np

from .core import (
    AlbedoMap,
    DimensionMismatchError,
    EmptyMaskError,
    InvalidSpecError,
    LightConfig,
    NormalMap,
    _require_int,
    freeze,
    pixel_blocks,
    require_sigmas,
    runner,
)
# render_stack, add_noise and solve_map are not called here: they are imported
# only because perfbench's traced run patches them here, until it drops them
from .forward import NoiseSpec, Stage, _fill_image, add_noise, render_stack, stream_key  # noqa: F401
from .oed import ShapePrior, build_shape_prior, phi_shape_aware
from .solver import DEGENERATE_NORM, MIN_SHADOW_TAU, solve_map  # noqa: F401

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
    angle = np.arctan2(np.sqrt(cross_sq), ax * bx + ay * by + az * bz, out=out)
    return np.multiply(angle, 180.0 / np.pi, out=out)  # np.degrees' bits, at a fifth the time


def _score(gt_xyz, pixels, out, estimate) -> list[partial]:
    """One task per block ``s`` of the ascending frame indices ``pixels`` of
    (3, P) ground-truth columns: it writes the angular errors of the block's
    kept estimates at ``out[s.start:]`` and returns s.start, their count and
    ``_bin_counts``.  ``estimate(at, gt)`` gives the (3, n) estimates at a
    block's indices ``at``, whose ground truth is ``gt``, and which of them to
    keep (None: all)."""
    def score(s: slice) -> tuple[int, int, np.ndarray]:
        at = pixels[s]
        gt = [row.take(at) for row in gt_xyz]
        est, ok = estimate(at, gt)
        samples = _angle_deg(est, gt, out=out[s])
        if ok is not None and not ok.all():  # np.compress buffers, so it may overlap its input
            samples = np.compress(ok, samples, out=samples[:np.count_nonzero(ok)])
        return s.start, samples.size, _bin_counts(samples)

    return [partial(score, s) for s in pixel_blocks(pixels.size)]


def _call(task):
    return task()


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
    """Statistics of ``samples`` and their ``_bin_counts``.  In-place
    partitions at one rank each (numpy's SIMD path; NaN sorts last) select, in
    turn: the upper median n // 2, the p90 neighbours lo (above it from n = 3
    on) and hi = lo + 1 that numpy's two-sided lerp interpolates, the lower
    median below n // 2 and the maximum above hi."""
    n = samples.size
    if n == 0:
        raise EmptyMaskError("no valid pixels in common")
    mean, counts = float(samples.mean()), _bin_counts(samples) if counts is None else counts
    rank, mid = (n - 1) * 0.9, n // 2
    lo, hi, t = int(rank), min(int(rank) + 1, n - 1), rank - int(rank)
    samples.partition(mid)
    if lo > mid:
        samples[mid + 1:].partition(lo - mid - 1)
    if hi > lo:
        samples[hi:].partition(0)
    if n % 2 == 0:
        samples[:mid].partition(-1)
    if hi < n - 1:
        samples[hi + 1:].partition(-1)
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
    joint = np.flatnonzero(est.mask & gt.mask)
    samples = np.empty(joint.size)
    est_xyz = est.normals.reshape(-1, 3).T
    tasks = _score(gt.normals.reshape(-1, 3).T, joint, samples,
                   lambda at, _: ([row.take(at) for row in est_xyz], None))
    with runner(est.mask.size) as run:  # every block keeps all its samples, in place
        counts = np.sum([bins for *_, bins in run(_call, tasks)], axis=0)
    errors = np.full(gt.mask.shape, np.nan)
    errors.reshape(-1)[joint] = samples
    return _stats_from_samples(samples, errors, counts)


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

    A config scores its clean-lit pixels, a set fixed per call: valid in the
    ground truth, with rho * min_i(s_i . n) >= tau, the solver's threshold.
    There the solver's estimate is exactly n_tilde = rho n + F sigma z,
    z ~ N(0, I_3), with F = R^-1 for S = QR: sigma^2 F F^T is
    ``oed.covariance``, and a rig near LightConfig's rank limit keeps a factor.
    Trial k draws sigma z once per pixel, row i from
    ``substream(stream_key(seed, Stage.COMPARE, k), i)``, and every config
    reads it (common random numbers), so a row does not depend on the configs
    beside it.  The lit set is marked once, as an index array that each trial
    walks in blocks; element-wise multiply-adds over blocks give the set and
    n_tilde, so no byte depends on the block size or thread count.  As in the
    solver, n_tilde with z <= 0 or |n_tilde| <= 1e-9 is dropped.  One runner
    (see ``core.runner``) serves the call.  Trial k draws z rows 0 and 1 in one
    run; row 2 was drawn into a spare row in trial k - 1's run, which scored
    every config's blocks, and trades places with it.  Samples pool across
    trials, in a row's pool of trials x its lit count, and _stats_from_samples
    selects; the stats carry no error map.  A config with no sample gets
    note="no-valid-pixels" and no stats; if no config has a clean-lit pixel,
    nothing is drawn.  Each row records phi under the prior.
    """
    if _require_int("trials", trials) < 1:
        raise InvalidSpecError("trials must be >= 1")
    if albedo.values.shape != gt_normals.mask.shape:
        raise DimensionMismatchError(f"albedo map {albedo.values.shape} vs normal map "
                                     f"{gt_normals.mask.shape}")
    if prior is None:
        prior = build_shape_prior(gt_normals)
    gt_xyz = gt_normals.normals.reshape(-1, 3).T
    gt_mask, rho = gt_normals.mask.reshape(-1), albedo.values.reshape(-1)
    sigma, blocks = float(require_sigmas(sigma, 1)[0]), pixel_blocks(gt_mask.size)
    tau = max(3.0 * sigma, MIN_SHADOW_TAU)  # the solver's, at equal noise levels
    lits = []
    with runner(gt_mask.size) as run:
        for lights in configs.values():
            lit = np.empty(gt_mask.size, dtype=bool)

            def mark(s: slice) -> None:  # run calls it before the loop moves on
                low = np.full(s.stop - s.start, np.inf)
                for sx, sy, sz in lights.rows:
                    np.minimum(low, sx * gt_xyz[0, s] + sy * gt_xyz[1, s] + sz * gt_xyz[2, s],
                               out=low)
                np.logical_and(rho[s] * low >= tau, gt_mask[s], out=lit[s])

            # invalid pixels hold unconstrained normals, and the mask drops them
            with np.errstate(invalid="ignore", over="ignore"):
                run(mark, blocks)
            lits.append(np.flatnonzero(lit))
        factors = [np.linalg.inv(np.linalg.qr(c.rows, mode="r")) for c in configs.values()]
        pooled = [np.empty(trials * lit.size) for lit in lits]  # room for every draw
        counts, bins = [0] * len(lits), [0] * len(lits)
        z, spare = [np.empty(gt_mask.size) for _ in range(3)], np.empty(gt_mask.size)

        def draw(factor, at, gt: list) -> tuple[list, np.ndarray]:
            r, zs = rho.take(at), [row.take(at) for row in z]
            est = [r * g for g in gt]
            for j, e in enumerate(est):  # F is upper triangular
                for i in range(j, 3):
                    e += factor[j, i] * zs[i]
            norm_sq = est[0] * est[0] + est[1] * est[1] + est[2] * est[2]
            return est, (est[2] > 0.0) & (norm_sq > DEGENERATE_NORM ** 2)

        specs = [NoiseSpec.uniform(sigma, 3, seed=stream_key(seed, Stage.COMPARE, k))
                 for k in range(trials)]
        for k in range(trials if any(lit.size for lit in lits) else 0):
            if k:  # the last trial's run drew stream 2 into the spare row
                z[2], spare = spare, z[2]
            run(_call, [partial(_fill_image, z[i], specs[k], i) for i in range(2 if k else 3)])
            ahead = [partial(_fill_image, spare, spec, 2) for spec in specs[k + 1:k + 2]]
            jobs = [_score(gt_xyz, lit, pooled[c][counts[c]:], partial(draw, factor))
                    for c, (lit, factor) in enumerate(zip(lits, factors))]
            scored = islice(run(_call, ahead + [task for tasks in jobs for task in tasks]),
                            len(ahead), None)
            for c, tasks in enumerate(jobs):  # compact the blocks in order
                base = counts[c]
                for start, n, hist in islice(scored, len(tasks)):  # numpy skips a self-copy
                    pooled[c][counts[c]:counts[c] + n] = pooled[c][base + start:base + start + n]
                    counts[c], bins[c] = counts[c] + n, bins[c] + hist
        stats = run(lambda c: _stats_from_samples(pooled[c][:counts[c]], None, bins[c])
                    if counts[c] else None, range(len(counts)))
    return [ConfigComparison(name=name, lights=lights, phi=phi_shape_aware(lights, prior),
                             stats=row, note="ok" if row is not None else "no-valid-pixels")
            for (name, lights), row in zip(configs.items(), stats)]
