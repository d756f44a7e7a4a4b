"""Descent on the design objective over unit-row light configurations, and the
baseline configurations used for comparison.

The objective trace(M (S^T S)^-1) goes to zero as rows are scaled up, so the
unconstrained problem is ill-posed; rows are constrained to the unit sphere
(pure direction choice at fixed source power).  Descent is projected gradient
with Armijo backtracking: project the Euclidean gradient onto each row's
tangent plane, step, renormalize rows.

The infimum phi* = (tr M^1/2)^2 / m over unit rows is known in closed form
(``oed.phi_lower_bound``), so it is the stopping certificate: a descent stops,
converged, once phi <= phi* (1 + OPTIMALITY_RTOL), and the restarts left after
a certified result are skipped.  When phi* is not attained (M singular, as for
a true plane) the gradient tolerance GRAD_TOL and max_iters still end each
descent.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .core import (
    LightConfig,
    NonUnitRowsError,
    RANK_RTOL,
    RankCollapseError,
    rank_ratio,
)
from .forward import Stage, stream_key, substream
from .oed import ShapePrior, phi_lower_bound, phi_of_rows

# Descent constants: first trial step, Armijo sufficient decrease and
# backtracking factor, smallest step tried, tangent-gradient stopping norm.
STEP_SIZE = 0.25
ARMIJO_DECREASE = 1e-4
ARMIJO_SHRINK = 0.5
MIN_STEP = 1e-15
GRAD_TOL = 1e-8
# Certified optimal: phi within this share of phi*.  No rig scores below phi*,
# so no later restart can improve on a certified result by more than this.
OPTIMALITY_RTOL = 1e-12
HEURISTIC_SEED = 0x5F3D  # baseline_heuristic_spread is deterministic per m
# Rank floor for the heuristic spread: the 3-light optimum is exactly coplanar,
# which LightConfig rejects; nudging to this singular-value ratio keeps the
# config constructible (and its phi astronomically large, as it should be)
# while moving the pairwise angles by O(1e-14) degrees.
HEURISTIC_RANK_FLOOR = 1e-7
HEURISTIC_MAX_MOVE = 0.05  # per point and repulsion step


@dataclass(frozen=True)
class OptimizerConfig:
    """Iteration cap, restart count and restart seed of the projected descent."""

    max_iters: int = 1000
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class OptimizationReport:
    initial_s: LightConfig
    final_s: LightConfig
    phi_trajectory: list[float] = field(default_factory=list)
    iterations_used: int = 0
    converged: bool = False
    gradient_norm_final: float = float("inf")
    optimality_gap: float = float("inf")  # phi_final - phi*, >= 0


def phi_gradient(lights: LightConfig, prior: ShapePrior) -> np.ndarray:
    """Exact gradient of trace(M (S^T S)^-1) with respect to S."""
    return _gradient_of_rows(lights.rows, prior.m_agg)


def _gradient_of_rows(rows: np.ndarray, m_agg: np.ndarray) -> np.ndarray:
    """Closed form -2 S A M A, A = (S^T S)^-1, of every rig in a (..., m, 3) stack.

    It uses that A and M are symmetric, and equals what a reverse-mode sweep
    through the Gram inverse produces.
    """
    a = np.linalg.inv(np.swapaxes(rows, -1, -2) @ rows)
    return -2.0 * rows @ a @ m_agg @ a


def _tangent_gradient(rows: np.ndarray, grad: np.ndarray) -> np.ndarray:
    radial = np.einsum("ij,ij->i", grad, rows)
    return grad - radial[:, None] * rows


def _renormalize_rows(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def random_unit_rows(m: int, rng: np.random.Generator) -> np.ndarray:
    """m directions i.i.d. uniform on the unit sphere, resampled if coplanar."""
    while True:
        rows = rng.normal(size=(m, 3))
        norms = np.linalg.norm(rows, axis=1)
        if np.any(norms < 1e-12):
            continue
        rows /= norms[:, None]
        if rank_ratio(rows) > RANK_RTOL:
            return rows


def random_hemisphere_rows(m: int, rng: np.random.Generator) -> np.ndarray:
    """Like random_unit_rows but camera-facing (z > 0): usable for imaging.

    A light below the visible hemisphere contributes no data at all, so
    random *imaging* rigs are drawn from the upper half sphere; the design
    objective itself is still sampled over the full sphere.
    """
    while True:
        rows = random_unit_rows(m, rng)
        rows[:, 2] = np.abs(rows[:, 2])
        if rank_ratio(rows) > RANK_RTOL:
            return rows


def _descend(
    rows: np.ndarray, m_agg: np.ndarray, cfg: OptimizerConfig, phi_certified: float
) -> tuple[np.ndarray, list[float], int, bool, float]:
    phi = float(phi_of_rows(rows, m_agg))
    trajectory = [phi]
    iterations = 0
    while True:
        # tested at every iterate, the last one too, so that converged and
        # grad_norm describe the rows returned
        tangent = _tangent_gradient(rows, _gradient_of_rows(rows, m_agg))
        grad_norm = float(np.linalg.norm(tangent))
        converged = phi <= phi_certified or grad_norm < GRAD_TOL
        if converged or iterations == cfg.max_iters:
            break
        step = STEP_SIZE
        accepted = False
        saw_full_rank = False
        while step >= MIN_STEP:
            candidate = _renormalize_rows(rows - step * tangent)
            if rank_ratio(candidate) <= RANK_RTOL:
                step *= 0.5  # rejected: degenerate iterate
                continue
            saw_full_rank = True
            candidate_phi = float(phi_of_rows(candidate, m_agg))
            if candidate_phi <= phi - ARMIJO_DECREASE * step * grad_norm**2:
                rows, phi = candidate, candidate_phi
                trajectory.append(phi)
                accepted = True
                break
            step *= ARMIJO_SHRINK
        if not accepted:
            if not saw_full_rank:
                raise RankCollapseError(
                    "every candidate step led to a rank-deficient configuration"
                )
            break  # no acceptable decrease at machine precision; stationary
        iterations += 1
    return rows, trajectory, iterations, converged, grad_norm


def optimize_lights(
    initial: LightConfig, prior: ShapePrior, cfg: OptimizerConfig
) -> OptimizationReport:
    """Projected gradient descent on the shape-aware objective.

    Restart 0 starts from ``initial``; restart r >= 1 from uniformly random
    unit rows drawn from stream r of the RESTART key of ``cfg.seed``.  Each
    descent stops, converged, once phi <= phi* (1 + OPTIMALITY_RTOL) or its
    tangent gradient norm falls below GRAD_TOL.  The lowest final
    objective wins; ties within 1e-12 keep the earliest restart, and once the
    best result is certified within OPTIMALITY_RTOL of phi* the remaining
    restarts are not run, since none could improve on it by more than
    phi* * OPTIMALITY_RTOL.
    """
    if not initial.unit_norm:
        raise NonUnitRowsError("the optimizer requires a unit-norm light configuration")
    bound = phi_lower_bound(prior.m_agg, initial.m)
    phi_certified = bound * (1.0 + OPTIMALITY_RTOL)
    starts = stream_key(cfg.seed, Stage.RESTART, 0)
    best = None
    for restart in range(cfg.restarts):
        if restart == 0:
            start = np.array(initial.rows)
        else:
            start = random_unit_rows(initial.m, substream(starts, restart))
        rows, trajectory, iterations, converged, grad_norm = _descend(
            start, prior.m_agg, cfg, phi_certified
        )
        result = (trajectory[-1], rows, trajectory, iterations, converged, grad_norm)
        if best is None or result[0] < best[0] - 1e-12:
            best = result
        if best[0] <= phi_certified:
            break
    phi, rows, trajectory, iterations, converged, grad_norm = best
    # The objective only sees rows through their outer products, so it is
    # exactly invariant to per-row sign flips; report the camera-facing
    # representative (z >= 0), which is the one an imaging rig can use.
    rows = np.where(rows[:, 2:3] < 0.0, -rows, rows)
    return OptimizationReport(
        initial_s=initial,
        final_s=LightConfig(rows=rows),
        phi_trajectory=trajectory,
        iterations_used=iterations,
        converged=converged,
        gradient_norm_final=grad_norm,
        optimality_gap=max(phi - bound, 0.0),  # below 0 is roundoff: phi* bounds phi
    )


def baseline_random(
    count: int, m: int, prior: ShapePrior, seed: int = 0
) -> list[tuple[LightConfig, float]]:
    """``count`` configurations with rows i.i.d. uniform on the sphere.

    Each is scored with the shape-aware objective; the rows are drawn from the
    BASELINE stream key of ``seed``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rows = substream(stream_key(seed, Stage.BASELINE, 0), 0).normal(size=(count, m, 3))
    rows /= np.linalg.norm(rows, axis=2, keepdims=True)
    phis = phi_of_rows(rows, prior.m_agg)
    return [(LightConfig(rows=rows[k]), float(phis[k])) for k in range(count)]


def min_pairwise_angle_deg(rows: np.ndarray) -> float:
    """Smallest angle in degrees between any two direction vectors."""
    rows = np.asarray(rows, dtype=float)
    dots = np.clip(rows @ rows.T, -1.0, 1.0)
    iu = np.triu_indices(rows.shape[0], k=1)
    return float(np.degrees(np.arccos(dots[iu].max())))


def _repel(points: np.ndarray, exponent: float, iters: int, step: float) -> np.ndarray:
    """Minimize sum of inverse-power pair potentials over (starts, m, 3) points.

    Points step along the tangent part of their force, -(W P - <W P, p> p) with
    w_ij = dist_ij^-(k+2); the rest, p_i * sum_j w_ij, is radial, and raw steps
    along it overshoot and collide points at large k.  Moves are capped too.
    """
    pts = points.copy()
    diagonal = np.arange(pts.shape[1])
    for _ in range(iters):
        dist = np.linalg.norm(pts[:, :, None, :] - pts[:, None, :, :], axis=-1)
        dist[:, diagonal, diagonal] = np.inf
        pull = dist ** -(exponent + 2.0) @ pts
        radial = np.einsum("smc,smc->sm", pull, pts)
        move = step * exponent * (radial[..., None] * pts - pull)
        length = np.linalg.norm(move, axis=-1, keepdims=True)
        move *= HEURISTIC_MAX_MOVE / np.maximum(length, HEURISTIC_MAX_MOVE)
        pts = _renormalize_rows(pts + move)
    return pts


@functools.lru_cache(maxsize=64)
def baseline_heuristic_spread(m: int) -> LightConfig:
    """m unit directions maximizing the minimal pairwise angle (repulsion descent).

    For m = 3 the optimum is three coplanar directions 120 degrees apart, which
    is rank deficient; the result is nudged out of plane to a singular-value
    ratio of ~1e-7 so it remains a constructible configuration whose objective
    value is finite but enormous.

    The result depends on m alone (HEURISTIC_SEED) and a LightConfig is
    immutable, so one is computed per m and shared by every caller.
    """
    if m < 3:
        raise ValueError("need at least 3 lights")
    key = stream_key(HEURISTIC_SEED, Stage.HEURISTIC, m)
    pts = np.stack([random_unit_rows(m, substream(key, start)) for start in range(8)])
    for exponent, iters, step in ((2.0, 600, 0.05), (8.0, 500, 0.01), (24.0, 400, 0.002)):
        pts = _repel(pts, exponent, iters, step)
    best = int(np.argmax([min_pairwise_angle_deg(rows) for rows in pts]))
    return LightConfig(rows=_ensure_rank_floor(pts[best]))


def _ensure_rank_floor(rows: np.ndarray) -> np.ndarray:
    """Push a (near-)coplanar configuration just off the plane."""
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    if s[-1] > HEURISTIC_RANK_FLOOR * s[0]:
        return rows
    plane_normal = vt[-1]
    signs = np.where(np.arange(rows.shape[0]) % 2 == 0, 1.0, -1.0)
    nudge = 2.0 * HEURISTIC_RANK_FLOOR * float(s[0])
    nudged = rows + (nudge * signs)[:, None] * plane_normal[None, :]
    return _renormalize_rows(nudged)


def baseline_orthogonal_triad() -> LightConfig:
    """Three mutually orthogonal unit directions symmetric about the view axis.

    Tilts are 120 degrees apart at a common slant of arccos(1/sqrt(3)) from
    +z, so S^T S is exactly the identity.
    """
    azimuths = 2.0 * np.pi * np.arange(3) / 3.0
    radial = np.sqrt(2.0 / 3.0)
    base = np.stack(
        [radial * np.cos(azimuths), radial * np.sin(azimuths), np.full(3, 1.0 / np.sqrt(3.0))],
        axis=1,
    )
    return LightConfig(rows=_renormalize_rows(base))
