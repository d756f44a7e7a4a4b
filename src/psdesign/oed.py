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
from scipy import stats

from .core import (
    AlphaOutOfRangeError,
    DegenerateVectorError,
    DimensionMismatchError,
    EmptyMaskError,
    LightConfig,
    NonPositiveSigmaError,
    NormalMap,
    _readonly,
    require_spd,
)
from .solver import PixelEstimate

PRIOR_SYM_TOL = 1e-12
PRIOR_PSD_TOL = -1e-12


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
        m = np.asarray(self.m_agg, dtype=float)
        if m.shape != (3, 3):
            raise DimensionMismatchError(f"prior matrix must be 3x3, got {m.shape}")
        if np.max(np.abs(m - m.T)) > PRIOR_SYM_TOL:
            raise DimensionMismatchError("prior matrix must be symmetric")
        if np.min(np.linalg.eigvalsh(0.5 * (m + m.T))) < PRIOR_PSD_TOL:
            raise DimensionMismatchError("prior matrix must be positive semidefinite")
        object.__setattr__(self, "m_agg", _readonly(m))
        object.__setattr__(self, "pixel_count", int(self.pixel_count))

    @classmethod
    def identity(cls) -> "ShapePrior":
        """Shape-agnostic prior: reduces the aware objective to trace((S^T S)^-1)."""
        return cls(m_agg=np.eye(3), pixel_count=0)


def covariance(lights: LightConfig, sigmas) -> EstimateCovariance:
    """Covariance (S^T W S)^-1 of the weighted least-squares estimate.

    W = diag(1/sigma_i^2); for equal sigmas this is sigma^2 (S^T S)^-1.
    All noise levels must be strictly positive.
    """
    sig = np.atleast_1d(np.asarray(sigmas, dtype=float))
    if sig.shape != (lights.m,):
        raise DimensionMismatchError(f"got {sig.shape[0]} sigmas for {lights.m} lights")
    if np.any(sig <= 0.0):
        raise NonPositiveSigmaError("covariance requires strictly positive noise levels")
    whitened = lights.rows / sig[:, None]
    info = whitened.T @ whitened
    return EstimateCovariance(matrix=np.linalg.inv(info))


def chi_square_quantile(prob: float, dof: int = 3) -> float:
    """Quantile of the chi-square distribution (inverse regularized gamma)."""
    if not 0.0 < prob < 1.0:
        raise AlphaOutOfRangeError(f"probability must be in (0, 1), got {prob}")
    return float(stats.chi2.ppf(prob, df=dof))


def confidence_region(
    est: PixelEstimate, cov: EstimateCovariance, alpha: float
) -> ConfidenceRegion:
    """Ellipsoid containing the true n_tilde with probability 1 - alpha."""
    if not 0.0 < alpha < 1.0:
        raise AlphaOutOfRangeError(f"alpha must be in (0, 1), got {alpha}")
    kappa = chi_square_quantile(1.0 - alpha, dof=3)
    eigvals = np.linalg.eigvalsh(cov.matrix)
    semiaxes = np.sqrt(kappa * eigvals)[::-1]
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
    form is what enters the shape-aware objective.
    """
    v = np.asarray(n_tilde, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm <= 1e-9:
        raise DegenerateVectorError(f"cannot differentiate normalization at norm {norm:.3e}")
    n = v / norm
    return (np.eye(3) - np.outer(n, n)) / norm


def phi_of_rows(rows: np.ndarray, m_agg: np.ndarray) -> np.ndarray:
    """trace(M (S^T S)^-1) of every (m, 3) rig in a (..., m, 3) stack.

    The one implementation of the objective.  Full rank is the caller's to
    ensure: LightConfig checks it on construction, the descent per candidate.
    """
    gram = np.swapaxes(rows, -1, -2) @ rows
    return np.trace(m_agg @ np.linalg.inv(gram), axis1=-2, axis2=-1)


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
    of M is clipped.
    """
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
