"""Statistical machinery: estimate covariance, confidence regions, and the
design objectives that score a light configuration.

The linear solve propagates image noise into the estimate; for weights
W = diag(1/sigma_i^2) the covariance of n_tilde is (S^T W S)^-1.  The design
objectives are trace((S^T S)^-1) (shape agnostic) and
trace(M (S^T S)^-1) with M the pixel-averaged normalization Jacobian
(shape aware); smaller values mean tighter confidence regions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    AlphaOutOfRangeError,
    DimensionMismatchError,
    EmptyMaskError,
    LightConfig,
    NormalMap,
    _readonly,
    _require_int,
    normalize,
    require_sigmas,
    require_spd,
)
from .solver import PixelEstimate, whitened_factor


@dataclass(frozen=True)
class EstimateCovariance:
    """3x3 symmetric positive-definite covariance of the unnormalized estimate."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _readonly(require_spd(self.matrix)))


@dataclass(frozen=True)
class ConfidenceRegion:
    """Ellipsoid { p : (p - center)^T shape (p - center) <= radius_sq }.

    ``shape`` is the inverse covariance; ``radius_sq`` is the chi-square
    quantile at the requested confidence; ``semiaxes`` are
    sqrt(radius_sq * eigenvalue_i(C)), sorted descending.
    """

    center: np.ndarray
    shape: np.ndarray
    radius_sq: float
    alpha: float
    semiaxes: np.ndarray

    def contains(self, point) -> bool:
        d = np.asarray(point, dtype=float) - self.center
        return bool(float(d @ self.shape @ d) <= self.radius_sq)


@dataclass(frozen=True)
class ShapePrior:
    """Pixel-averaged M = mean(B^T B), the shape information entering the objective.

    B is evaluated at the normalized per-pixel estimate, where it is the
    projector I - n n^T (so B^T B = B).  Averaging over valid pixels keeps
    objective values comparable across image sizes.
    """

    m_agg: np.ndarray
    pixel_count: int

    def __post_init__(self):
        m_agg = require_spd(self.m_agg, semidefinite=True)
        object.__setattr__(self, "m_agg", _readonly(m_agg))
        object.__setattr__(self, "pixel_count", int(self.pixel_count))

    @classmethod
    def identity(cls) -> "ShapePrior":
        """Shape-agnostic prior: reduces the aware objective to trace((S^T S)^-1)."""
        return cls(m_agg=np.eye(3), pixel_count=0)


def covariance(lights: LightConfig, sigmas) -> EstimateCovariance:
    """Covariance (S^T W S)^-1 of the weighted least-squares estimate.

    W = diag(1/sigma_i^2); for equal sigmas this is sigma^2 (S^T S)^-1.  It is
    F F^T of ``whitened_factor`` at weights 1/sigma, all strictly positive.
    """
    sig = require_sigmas(sigmas, lights.m, positive=True)
    f = whitened_factor(lights.rows, 1.0 / sig)[1]
    cov = f @ f.T
    return EstimateCovariance(matrix=0.5 * (cov + cov.T))  # exact symmetry despite roundoff


def chi_square_quantile(prob: float, dof: int = 3) -> float:
    """Chi-square quantile by the inverse regularized gamma, as scipy.stats.chi2.ppf
    computes it.  scipy.stats takes longer to import than all of psdesign, and
    scipy.special over half of ``import psdesign``, so it loads on first use."""
    from scipy.special import gammaincinv

    if not 0.0 < prob < 1.0:
        raise AlphaOutOfRangeError(f"probability must be in (0, 1), got {prob}")
    return float(2.0 * gammaincinv(dof / 2.0, prob))


def confidence_region(
    est: PixelEstimate, cov: EstimateCovariance, alpha: float
) -> ConfidenceRegion:
    """Ellipsoid containing the true n_tilde with probability 1 - alpha."""
    if not 0.0 < alpha < 1.0:
        raise AlphaOutOfRangeError(f"alpha must be in (0, 1), got {alpha}")
    kappa = chi_square_quantile(1.0 - alpha, dof=3)
    # the singular values of C's Cholesky factor: eigvalsh(C) can go negative near cond 1e16
    semiaxes = np.sqrt(kappa) * np.linalg.svd(np.linalg.cholesky(cov.matrix), compute_uv=False)
    return ConfidenceRegion(
        center=np.asarray(est.n_tilde, dtype=float).copy(),
        shape=np.linalg.inv(cov.matrix),
        radius_sq=kappa,
        alpha=float(alpha),
        semiaxes=semiaxes,
    )


def a_criterion(cov: EstimateCovariance) -> float:
    """Average estimate variance: trace(C) / 3."""
    return float(np.trace(cov.matrix)) / 3.0


def b_matrix(n_tilde) -> np.ndarray:
    """Jacobian of normalization v -> v/|v|: (I - n n^T)/|v| with n = v/|v|.

    At unit input this is the orthogonal projector off the direction n, which
    is symmetric and idempotent with eigenvalues {1, 1, 0}; that projector
    form is what enters the shape-aware objective.  Raises
    DegenerateVectorError where ``normalize`` does.
    """
    n, norm = normalize(n_tilde)
    return (np.eye(3) - np.outer(n, n)) / norm


def phi_of_rows(rows: np.ndarray, m_agg: np.ndarray) -> np.ndarray:
    """trace(M (S^T S)^-1) of every (m, 3) rig in a (..., m, 3) stack.

    The one implementation of the objective, without LAPACK: each Gram
    G = S^T S is factored as L L^T elementwise over the stack, and with
    W = L^-1, phi = sum_k w_k M w_k^T over the rows w_k of W (M symmetric; its
    upper triangle is read).  Cholesky is backward stable (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 10), and a relative change dG of G
    moves phi by at most kappa(G) |dG| / |G| relative for any positive
    semidefinite M, so phi is within a small multiple of kappa(G) eps of its
    exact value.  A rig scores the same bits alone as in any stack.  A rig
    whose Gram has a pivot that is not positive and finite scores +inf,
    without a warning.  LightConfig checks full rank on construction, the
    descent per candidate, and baseline_random relies on Gaussian draws being
    full rank almost surely.
    """
    m00, m01, m02, _, m11, m12, _, _, m22 = m_agg.ravel().tolist()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # g[j, i] is entry (i, j) of every Gram over the stack, with the stack
        # axes reversed (the last .T restores them); numpy scalars, not 0-d
        # arrays, when rows is one rig
        g = (np.swapaxes(rows, -1, -2) @ rows).T
        p0 = g[0, 0]
        l00 = np.sqrt(p0)
        l10, l20 = g[0, 1] / l00, g[0, 2] / l00
        p1 = g[1, 1] - l10 * l10
        l11 = np.sqrt(p1)
        l21 = (g[1, 2] - l20 * l10) / l11
        p2 = g[2, 2] - l20 * l20 - l21 * l21
        w00, w11, w22 = 1.0 / l00, 1.0 / l11, 1.0 / np.sqrt(p2)
        w10 = -l10 * w00 * w11
        w21 = -l21 * w11 * w22
        w20 = -(l20 * w00 + l21 * w10) * w22
        phi = (w00 * w00 * m00 + w10 * (w10 * m00 + 2.0 * w11 * m01) + w11 * w11 * m11
               + w20 * (w20 * m00 + 2.0 * (w21 * m01 + w22 * m02))
               + w21 * (w21 * m11 + 2.0 * w22 * m12) + w22 * w22 * m22)
        # every pivot positive and finite (a sum of finite values is finite)
        ok = (0.0 < p0) & (0.0 < p1) & (0.0 < p2) & np.isfinite(p0 + p1 + p2)
    return np.where(ok, phi, np.inf).T


def phi_shape_agnostic(lights: LightConfig) -> float:
    """trace((S^T S)^-1): total variance of the raw estimate per unit noise."""
    return float(phi_of_rows(lights.rows, np.eye(3)))


def phi_shape_aware(lights: LightConfig, prior: ShapePrior) -> float:
    """trace(M (S^T S)^-1): variance that survives normalization, M-weighted."""
    return float(phi_of_rows(lights.rows, prior.m_agg))


def phi_lower_bound(m_agg, m: int) -> float:
    """Infimum (tr M^1/2)^2 / m of trace(M (S^T S)^-1) over m unit rows.

    Unit rows fix trace(S^T S) = m, and trace(M G^-1) over trace(G) = m is
    smallest at G = m M^1/2 / tr M^1/2.  Every such G is a Gram S^T S of unit
    rows (Schur-Horn), so no rig scores below the bound, and rigs at it exist
    whenever M is positive definite.  Roundoff below zero in the eigenvalues
    of M is clipped.  m < 3 raises DimensionMismatchError.
    """
    if _require_int("m", m) < 3:
        raise DimensionMismatchError(f"need at least 3 lights, got {m}")
    root_trace = float(np.sqrt(np.clip(np.linalg.eigvalsh(m_agg), 0.0, None)).sum())
    return root_trace * root_trace / m


def build_shape_prior(nmap: NormalMap) -> ShapePrior:
    """Average B^T B over valid pixels of a normal map.

    With B the projector at each (already unit) normal, B^T B = B = I - n n^T,
    so the average is I - mean(n n^T).
    """
    normals = nmap.valid_normals()
    count = normals.shape[0]
    if count == 0:
        raise EmptyMaskError("shape prior needs at least one valid pixel")
    second_moment = (normals.T @ normals) / count
    m_agg = np.eye(3) - second_moment
    m_agg = 0.5 * (m_agg + m_agg.T)  # exact symmetry despite summation order
    return ShapePrior(m_agg=m_agg, pixel_count=count)
