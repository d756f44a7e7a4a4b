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
    DEGENERATE_NORM,
    AlbedoMap,
    DimensionMismatchError,
    EmptyMaskError,
    InvalidSpecError,
    LightConfig,
    NormalMap,
    _require_int,
    freeze,
    pixel_blocks,
    product_blocks,
    runner,
)
# render_stack, add_noise and solve_map are not called here: they are imported
# only because perfbench's traced run patches them here, until it drops them
from .forward import (NoiseSpec, Stage, _fill_image, add_noise, render_block,  # noqa: F401
                      render_stack, stream_key)
from .oed import ShapePrior, build_shape_prior, phi_shape_aware
from .solver import lit_columns, solve_map, whitened_factor, whitening  # noqa: F401

HISTOGRAM_EDGES = freeze(np.arange(0.0, 30.25, 0.5))
BRACKET_SE = 5.0  # a bracket's reach either side of its rank, in standard errors


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


def _select(samples: np.ndarray, ranks: list[int]) -> list:
    """The values at ascending, distinct ``ranks``: in-place partitions at one rank
    each (numpy's SIMD path; NaN sorts last), each of the part above the last."""
    for start, r in zip([0] + [r + 1 for r in ranks], ranks):
        samples[start:].partition(r - start)
    return [samples[r] for r in ranks]


def _stats(n: int, mean: float, counts: np.ndarray, error_map: np.ndarray | None,
           pools: list, top=None) -> AngularErrorStats | None:
    """Statistics of n samples from ``pools`` of (count below, the samples
    between two values), or None when a rank read lies in no pool: the medians,
    the p90 neighbours lo and hi that numpy's two-sided lerp interpolates, and
    the maximum n - 1 unless its value ``top`` is given."""
    rank = (n - 1) * 0.9
    lo, hi, t = int(rank), min(int(rank) + 1, n - 1), rank - int(rank)
    ranks, at = sorted({(n - 1) // 2, n // 2, lo, hi, n - 1}), {n - 1: top}
    for below, kept in pools:
        inside = [r for r in ranks if below <= r < below + kept.size]
        at.update(zip(inside, _select(kept, [r - below for r in inside])))
    if any(at.get(r) is None for r in ranks):
        return None
    a, b = at[lo], at[hi]
    return AngularErrorStats(
        mean_deg=mean,
        median_deg=float((at[(n - 1) // 2] + at[n // 2]) / 2.0),
        p90_deg=float(b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t),
        max_deg=float(at[n - 1]),
        histogram_edges=HISTOGRAM_EDGES,
        histogram_counts=counts,
        error_map=error_map,
        count=int(n),
    )


def _stats_from_samples(samples: np.ndarray, error_map: np.ndarray | None,
                        counts: np.ndarray | None = None) -> AngularErrorStats:
    """Statistics of ``samples`` and their ``_bin_counts``, selected in place."""
    n = samples.size
    if n == 0:
        raise EmptyMaskError("no valid pixels in common")
    mean, counts = float(samples.mean()), _bin_counts(samples) if counts is None else counts
    return _stats(n, mean, counts, error_map, [(0, samples)])


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


class _Tally:
    """A row's count, histogram, trial sums and maximum over its trials, and per
    value bracket [low, high, count below, samples inside] (sampling selection:
    Floyd & Rivest, CACM 1975).  The brackets reach BRACKET_SE standard errors
    sqrt(q (1 - q) n0) of rank either side of the median and p90 ranks q (n0 - 1)
    of the first trial with n0 > 0 samples; a side past those is unbounded (all
    for n0 <= 26), and brackets that meet merge.  Not ``bounded``, one unbounded
    bracket keeps every sample."""

    def __init__(self, bounded: bool, size: int):
        self.buf, self.count, self.bins, self.total, self.top = np.empty(size), 0, 0, 0.0, -np.inf
        self.brackets = None if bounded else [[-np.inf, np.inf, 0, []]]

    def add(self, blocks: list) -> None:
        """Add a trial whose blocks (start, count, bins) were scored into ``buf``."""
        n = 0
        for start, size, hist in blocks:  # compact the blocks in order; numpy skips a self-copy
            self.buf[n:n + size] = self.buf[start:start + size]
            n, self.bins = n + size, self.bins + hist
        if not n:
            return
        trial = self.buf[:n]
        self.count, self.total = self.count + n, self.total + trial.sum()
        self.top = max(self.top, trial.max())
        if self.brackets is None:
            q = np.array([0.5, 0.9])
            reach = BRACKET_SE * np.sqrt(q * (1.0 - q) * n)
            lows = np.floor(q * (n - 1) - reach).astype(int).tolist()
            highs = np.ceil(q * (n - 1) + reach).astype(int).tolist()
            spans = [(lows[0], highs[1])] if lows[1] <= highs[0] else list(zip(lows, highs))
            ranks = sorted({r for span in spans for r in span if 0 <= r < n})
            at = dict(zip(ranks, _select(trial, ranks)))
            self.brackets = [[at.get(lo, -np.inf), at.get(hi, np.inf), 0, []] for lo, hi in spans]
        for bracket in self.brackets:
            bracket[2] += np.count_nonzero(trial < bracket[0])
            bracket[3].append(trial[(trial >= bracket[0]) & (trial <= bracket[1])])

    def stats(self) -> AngularErrorStats | None:
        """The row's statistics; None with no sample, or when ``_stats`` misses."""
        if not self.count:
            return None
        pools = [(below, np.concatenate(kept)) for _, _, below, kept in self.brackets]
        return _stats(self.count, float(self.total / self.count), self.bins, None, pools, self.top)


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

    A config scores its clean-lit pixels, a set fixed per call and marked once
    over ``product_blocks``: each task renders its slice with
    ``forward.render_block`` and tests it with the solver's ``lit_columns``
    (masked pixels render to 0, below tau), so the set is that test of
    render_stack's images, bit for bit.  There the solver's estimate is exactly
    n_tilde = rho n + F sigma z, z ~ N(0, I_3), with F = R^-1 of S = QR from
    ``whitened_factor`` at unit weights: sigma^2 F F^T is ``oed.covariance``,
    which uses the same helper.  Trial k draws sigma z once per pixel, row i
    from ``substream(stream_key(seed, Stage.COMPARE, k), i)``, and every config
    reads it (common random numbers), so a row does not depend on the configs
    beside it.  Each trial walks a config's set, an index array, in blocks;
    element-wise multiply-adds give n_tilde, so no byte depends on the block
    size or thread count.  As in the solver, n_tilde with z <= 0 or
    |n_tilde| <= 1e-9 is dropped.  One runner (see ``core.runner``) serves the call.
    Trial k draws z rows 0 and 1 in one run; row 2 was drawn into a spare row
    in trial k - 1's run, which scored every config's blocks, and trades places
    with it.  The blocks write a row's trial buffer and compact in order; the
    row keeps the samples inside the brackets its first trial with samples sets
    (see ``_Tally``).  If a rank the stats read lies outside them, every trial
    is drawn again with one unbounded bracket per row.  mean_deg is the trial
    sums' sum, in trial order, over the count.  The stats carry no error map.
    A config with no sample gets note="no-valid-pixels" and no stats; if no
    config has a clean-lit pixel, nothing is drawn.  Each row records phi under
    the prior.
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
    tau, frame = whitening(sigma, 1)[1], (gt_xyz, rho, gt_mask)
    lits = []
    with runner(gt_mask.size) as run:
        for lights in configs.values():
            lit = np.empty(gt_mask.size, dtype=bool)

            def mark(s: slice) -> None:  # run calls it before the loop moves on
                images = np.empty((lights.m, s.stop - s.start))
                lit_columns(render_block(images, lights.rows, *frame, s), tau, lit[s])

            run(mark, product_blocks(gt_mask.size))
            lits.append(np.flatnonzero(lit))
        factors = [whitened_factor(c.rows, np.ones(c.m))[1] for c in configs.values()]
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
        for bounded in (True, False):  # a rank outside the brackets redraws, unbounded
            tallies = [_Tally(bounded, lit.size) for lit in lits]
            for k in range(trials if any(lit.size for lit in lits) else 0):
                if k:  # the last trial's run drew stream 2 into the spare row
                    z[2], spare = spare, z[2]
                run(_call, [partial(_fill_image, z[i], specs[k], i) for i in range(2 if k else 3)])
                ahead = [partial(_fill_image, spare, spec, 2) for spec in specs[k + 1:k + 2]]
                jobs = [_score(gt_xyz, lit, tally.buf, partial(draw, factor))
                        for lit, tally, factor in zip(lits, tallies, factors)]
                scored = islice(run(_call, ahead + [task for tasks in jobs for task in tasks]),
                                len(ahead), None)
                parts = [list(islice(scored, len(tasks))) for tasks in jobs]
                run(lambda c: tallies[c].add(parts[c]), range(len(lits)))
            stats = run(_Tally.stats, tallies)
            if all(row or not tally.count for row, tally in zip(stats, tallies)):
                break
    return [ConfigComparison(name=name, lights=lights, phi=phi_shape_aware(lights, prior),
                             stats=row, note="ok" if row is not None else "no-valid-pixels")
            for (name, lights), row in zip(configs.items(), stats)]
