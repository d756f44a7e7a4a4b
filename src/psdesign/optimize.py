"""Descent on the design objective over unit-row light configurations, and the
baseline configurations used for comparison.

The objective trace(M (S^T S)^-1) goes to zero as rows are scaled up, so the
unconstrained problem is ill-posed; rows are constrained to the unit sphere
(pure direction choice at fixed source power).  Descent is projected gradient
with Armijo backtracking: project the Euclidean gradient onto each row's
tangent plane, step, renormalize rows.  The first trial step is STEP_SIZE;
every later line search starts from the Barzilai-Borwein step of the last
accepted move (Barzilai & Borwein, IMA J. Numer. Anal. 1988; with a
retraction onto unit rows as in Wen & Yin, Math. Prog. 2013).

The infimum phi* = (tr M^1/2)^2 / m over unit rows is known in closed form
(``oed.phi_lower_bound``), so a descent stops, converged, once phi - phi* <=
OPTIMALITY_RTOL phi*; short of it (phi* is not attained when M is singular, as
for a true plane), after max_iters iterations or when no step lowers phi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DimensionMismatchError,
    InvalidSpecError,
    LightConfig,
    RANK_RTOL,
    _require_int,
    freeze,
    rank_ratio,
)
from .forward import Stage, stream_key, substream
from .oed import ShapePrior, phi_lower_bound, phi_of_rows

# Descent constants: first trial step, Armijo sufficient decrease and backtracking.
STEP_SIZE = 0.25
ARMIJO_DECREASE = 1e-4
ARMIJO_SHRINK = 0.5
# A line search stops once step * tangent-gradient norm is below float64 resolution.
EPS = np.finfo(float).eps
# Certified optimal: phi within this share of phi*.  No rig scores below phi*,
# so no later restart can improve on a certified result by more than this.
OPTIMALITY_RTOL = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    """Iteration cap, restart count and restart seed of the projected descent."""

    max_iters: int = 1000
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if _require_int("max_iters", self.max_iters) < 1:
            raise InvalidSpecError("max_iters must be >= 1")
        if _require_int("restarts", self.restarts) < 1:
            raise InvalidSpecError("restarts must be >= 1")
        _require_int("seed", self.seed)


@dataclass(frozen=True)
class OptimizationReport:
    """A descent's result.  ``converged`` means certified, phi - phi* <=
    OPTIMALITY_RTOL phi*; ``gradient_norm_final`` is a diagnostic only."""

    initial_s: LightConfig
    final_s: LightConfig
    phi_trajectory: list[float]
    iterations_used: int
    converged: bool
    gradient_norm_final: float
    optimality_gap: float  # phi_final - phi*, >= 0


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
    """Divide each row of a fresh (..., 3) stack by its norm, in place, and
    return the stack.  The squares are summed in np.linalg.norm's order, so
    the norm has its bits; working in place allocates no second stack."""
    x, y, z = rows.T  # component views
    rows /= np.sqrt(x * x + y * y + z * z).T[..., None]
    return rows


def random_unit_rows(m: int, rng: np.random.Generator) -> np.ndarray:
    """m directions i.i.d. uniform on the unit sphere (normalized Gaussian draws),
    full rank almost surely.  m < 3 raises DimensionMismatchError before any draw."""
    if _require_int("m", m) < 3:
        raise DimensionMismatchError(f"need at least 3 lights, got {m}")
    return _renormalize_rows(rng.normal(size=(m, 3)))


def random_hemisphere_rows(m: int, rng: np.random.Generator) -> np.ndarray:
    """Like random_unit_rows but camera-facing (z > 0): usable for imaging, and
    full rank almost surely.

    A light below the visible hemisphere contributes no data at all, so
    random *imaging* rigs are drawn from the upper half sphere; the design
    objective itself is still sampled over the full sphere.
    """
    rows = random_unit_rows(m, rng)
    rows[:, 2] = np.abs(rows[:, 2])
    return rows


def _bb_step(s: np.ndarray | None, y: np.ndarray | None) -> float:
    """Barzilai-Borwein first trial step <s, s>/<s, y> of a line search.

    s is the last accepted move of the rows and y the change of the tangent
    gradient over it.  With no previous move (s None), <s, y> <= 0 or a ratio
    that is not finite, it is STEP_SIZE.
    """
    if s is None:
        return STEP_SIZE
    sy = float(np.vdot(s, y))
    step = float(np.vdot(s, s)) / sy if sy > 0.0 else STEP_SIZE
    return step if np.isfinite(step) else STEP_SIZE


def _descend(
    initial: LightConfig, start: np.ndarray, m_agg: np.ndarray, cfg: OptimizerConfig, bound: float
) -> OptimizationReport:
    """One projected descent from the rows ``start``, reported against ``initial``."""
    rows = start
    phi = float(phi_of_rows(rows, m_agg))
    trajectory = [phi]
    before = None  # rows and tangent gradient before the last accepted move
    while True:
        # tested at every iterate, the last one too, so that converged and
        # grad_norm describe the rows returned
        tangent = _tangent_gradient(rows, _gradient_of_rows(rows, m_agg))
        grad_norm = float(np.linalg.norm(tangent))
        # the gap as the report computes it: certified means gap <= OPTIMALITY_RTOL phi*
        converged = phi - bound <= OPTIMALITY_RTOL * bound
        if converged or len(trajectory) > cfg.max_iters:
            break
        s, y = (None, None) if before is None else (rows - before[0], tangent - before[1])
        step = _bb_step(s, y)
        before = (rows, tangent)
        while step * grad_norm >= EPS:
            candidate = _renormalize_rows(rows - step * tangent)
            # rank-deficient candidates, which singular priors drift toward, fail like
            # Armijo tests; every iterate is full rank, so small enough steps are too
            full_rank = rank_ratio(candidate) > RANK_RTOL
            candidate_phi = float(phi_of_rows(candidate, m_agg)) if full_rank else np.inf
            # strictly lower too: the Armijo margin rounds away once it is below
            # half an ulp of phi, and a step that keeps phi is no progress
            if candidate_phi < phi and candidate_phi <= phi - ARMIJO_DECREASE * step * grad_norm**2:
                rows, phi = candidate, candidate_phi
                trajectory.append(phi)
                break
            step *= ARMIJO_SHRINK
        else:
            break  # no lower phi at any step the rows resolve
    # The objective only sees rows through their outer products, so it is
    # exactly invariant to per-row sign flips; report the camera-facing
    # representative (z >= 0), which is the one an imaging rig can use.
    return OptimizationReport(
        initial_s=initial,
        final_s=LightConfig(rows=np.where(rows[:, 2:3] < 0.0, -rows, rows)),
        phi_trajectory=trajectory,
        iterations_used=len(trajectory) - 1,
        converged=converged,
        gradient_norm_final=grad_norm,
        optimality_gap=max(phi - bound, 0.0),  # below 0 is roundoff: phi* bounds phi
    )


def optimize_lights(
    initial: LightConfig, prior: ShapePrior, cfg: OptimizerConfig
) -> OptimizationReport:
    """Projected gradient descent on the shape-aware objective.

    Each line search starts from the Barzilai-Borwein step of the previous
    accepted move (STEP_SIZE on a descent's first iteration) and backtracks
    until a full-rank candidate passes the Armijo test and lowers phi
    strictly.  Restart 0 starts from ``initial``; restart r >= 1 from uniformly
    random unit rows drawn from stream r of the RESTART key of ``cfg.seed``.
    A descent stops converged, once phi - phi* <= OPTIMALITY_RTOL phi*; after
    ``cfg.max_iters`` iterations; or when no step with step * tangent-gradient
    norm >= EPS lowers phi.  The lowest final objective wins, ties within 1e-12
    keep the earliest restart, and no restart runs after a converged result.
    """
    bound = phi_lower_bound(prior.m_agg, initial.m)
    best = _descend(initial, initial.rows, prior.m_agg, cfg, bound)
    for restart in range(1, cfg.restarts):
        if best.converged:
            break
        rng = substream(stream_key(cfg.seed, Stage.RESTART, 0), restart)
        report = _descend(initial, random_unit_rows(initial.m, rng), prior.m_agg, cfg, bound)
        if report.phi_trajectory[-1] < best.phi_trajectory[-1] - 1e-12:
            best = report
    return best


def baseline_random(
    count: int, m: int, prior: ShapePrior, seed: int = 0
) -> list[tuple[np.ndarray, float]]:
    """``count`` rigs of m rows i.i.d. uniform on the sphere, each with its phi.

    Returns ``count`` pairs (rows, phi): rows is a read-only (m, 3) view into
    one sealed (count, m, 3) buffer, which ``LightConfig(rows=rows)`` adopts
    without a copy, and phi is the shape-aware objective as a float.  The rows
    are normalized Gaussian draws from the BASELINE stream key of ``seed``,
    full rank almost surely for m >= 3; m < 3 raises DimensionMismatchError
    before any draw.
    """
    if _require_int("count", count) < 1:
        raise InvalidSpecError("count must be >= 1")
    if _require_int("m", m) < 3:
        raise DimensionMismatchError(f"need at least 3 lights, got {m}")
    rows = _renormalize_rows(
        substream(stream_key(seed, Stage.BASELINE, 0), 0).normal(size=(count, m, 3)))
    return list(zip(freeze(rows), phi_of_rows(rows, prior.m_agg).tolist()))


def baseline_heuristic_spread(m: int) -> LightConfig:
    """m camera-facing lights at equal azimuths 2 pi k / m on one ring at the
    slant arctan(sqrt 2) = 54.74 degrees from +z; no random draws.

    This is the tight frame, the textbook rig: S^T S = (m/3) I for every
    m >= 3, optimal for the shape-agnostic objective (M = I), where phi = 9/m
    (Drbohlav & Chantler, ICCV 2005).  Every row has z = 1/sqrt(3), and at
    m = 3 the rows are the orthogonal triad's bits.  m < 3 raises
    DimensionMismatchError.
    """
    if _require_int("m", m) < 3:
        raise DimensionMismatchError(f"need at least 3 lights, got {m}")
    azimuths = 2.0 * np.pi * np.arange(m) / m
    radial = np.sqrt(2.0 / 3.0)
    base = np.stack(
        [radial * np.cos(azimuths), radial * np.sin(azimuths), np.full(m, 1.0 / np.sqrt(3.0))],
        axis=1,
    )
    return LightConfig(rows=_renormalize_rows(base))


def baseline_orthogonal_triad() -> LightConfig:
    """Three mutually orthogonal unit directions symmetric about the view axis:
    the 3-light ring of baseline_heuristic_spread, so S^T S is the identity."""
    return baseline_heuristic_spread(3)
