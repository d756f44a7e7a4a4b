"""Shared domain types: light configurations, normal/albedo maps, image stacks.

All types are immutable after construction (frozen dataclasses over read-only
numpy arrays) and may be shared freely across threads.

An array is adopted, not copied, when it is sealed: a read-only view of
read-only memory, of the right dtype.  The library seals the fresh buffers it
builds (``freeze``) and every array these types hold; any other array is
copied.  Adoption skips only the copy: NormalMap validates on every
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Construction-time tolerances, chosen at double-precision roundoff scale.
UNIT_TOL = 1e-12
MAP_UNIT_TOL = 1e-9
RANK_RTOL = 1e-9


class PhotometryError(Exception):
    """Base class for every error raised by this package."""


class DegenerateVectorError(PhotometryError):
    """A vector too close to zero to normalize."""


class DimensionMismatchError(PhotometryError):
    """Paired inputs disagree on size (image counts, map dimensions, ...)."""


class SingularLightMatrixError(PhotometryError):
    """The light matrix is rank deficient (or too close to it)."""


class NonPositiveSigmaError(PhotometryError):
    """A noise level is negative, or zero where a positive value is required."""


class AlphaOutOfRangeError(PhotometryError):
    """Confidence level outside (0, 1)."""


class EmptyMaskError(PhotometryError):
    """No valid pixels to operate on."""


class NonUnitRowsError(PhotometryError):
    """An operation requires unit-norm light rows but got a free-norm config."""


class RankCollapseError(PhotometryError):
    """Optimizer iterate became rank deficient and could not be repaired."""


class FileFormatError(PhotometryError):
    """A file does not conform to the expected on-disk format."""


class InvalidSpecError(PhotometryError):
    """A scene or run specification fails validation."""


def freeze(a: np.ndarray) -> np.ndarray:
    """Seal a fresh buffer that nothing else holds: make its memory read-only
    and return a read-only view of it, which cannot be made writeable again."""
    if a.base is not None:
        a.base.flags.writeable = False
    a.flags.writeable = False
    return a.view()


def _readonly(a: np.ndarray, dtype=float) -> np.ndarray:
    """``a`` itself when it is sealed and of ``dtype``, else a sealed copy."""
    if (a.dtype == dtype and not a.flags.writeable
            and isinstance(a.base, np.ndarray) and not a.base.flags.writeable):
        return a
    return freeze(np.array(a, dtype=dtype, copy=True))


def normalize(v) -> tuple[np.ndarray, float]:
    """Split a 3-vector into (unit direction, norm).

    The returned direction times the norm reconstructs the input to roundoff.
    Raises DegenerateVectorError when the norm is at or below 1e-12.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise DimensionMismatchError(f"expected a 3-vector, got shape {v.shape}")
    n = float(np.linalg.norm(v))
    if n <= UNIT_TOL:
        raise DegenerateVectorError(f"cannot normalize near-zero vector (norm={n:.3e})")
    return v / n, n


def is_unit(v, tol: float = UNIT_TOL) -> bool:
    """True when the squared norm of ``v`` is within ``tol`` of 1."""
    v = np.asarray(v, dtype=float)
    return bool(abs(float(v @ v) - 1.0) <= tol)


def rank_ratio(matrix: np.ndarray) -> float:
    """Smallest over largest singular value (0 for an all-zero matrix)."""
    s = np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)
    top = float(s[0])
    if top == 0.0:
        return 0.0
    return float(s[-1]) / top


@dataclass(frozen=True)
class LightConfig:
    """Stacked light-direction row vectors, the design variable.

    ``rows`` is an (m, 3) matrix with m >= 3 and full column rank.  In the
    default unit-norm mode every row must have norm 1: the design objective is
    unbounded below under row scaling, so unit rows model pure direction
    choice at fixed source power.  A free-norm mode exists for experimentation
    but the optimizer refuses it.
    """

    rows: np.ndarray
    unit_norm: bool = True

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise DimensionMismatchError(f"light rows must be (m, 3), got {rows.shape}")
        if rows.shape[0] < 3:
            raise DimensionMismatchError(f"need at least 3 lights, got {rows.shape[0]}")
        if not np.all(np.isfinite(rows)):
            raise InvalidSpecError("light rows contain non-finite values")
        if rank_ratio(rows) <= RANK_RTOL:
            raise SingularLightMatrixError(
                "light matrix is rank deficient; pick three non-coplanar directions"
            )
        if self.unit_norm:
            sq = np.einsum("ij,ij->i", rows, rows)
            if np.any(np.abs(sq - 1.0) > UNIT_TOL):
                raise NonUnitRowsError(
                    "unit-norm mode requires every row to have norm 1 "
                    "(use unit_norm=False for a free-norm config)"
                )
        object.__setattr__(self, "rows", _readonly(rows))

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    def gram(self) -> np.ndarray:
        """S^T S, the 3x3 Gram matrix of the design."""
        return self.rows.T @ self.rows


@dataclass(frozen=True)
class NormalMap:
    """H x W grid of unit surface normals with a validity mask.

    The camera looks along -Z, so every valid normal points toward the viewer
    (z component strictly positive) and has unit norm within 1e-9.  Values at
    invalid pixels are unconstrained.
    """

    normals: np.ndarray  # (H, W, 3)
    mask: np.ndarray  # (H, W) bool

    def __post_init__(self):
        normals = np.asarray(self.normals, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        if normals.ndim != 3 or normals.shape[2] != 3:
            raise DimensionMismatchError(f"normals must be (H, W, 3), got {normals.shape}")
        if mask.shape != normals.shape[:2]:
            raise DimensionMismatchError(
                f"mask shape {mask.shape} does not match normals {normals.shape[:2]}"
            )
        valid = normals[mask]
        if valid.size:
            sq = np.einsum("ij,ij->i", valid, valid)
            if np.any(np.abs(sq - 1.0) > MAP_UNIT_TOL):
                raise InvalidSpecError("valid normals must be unit within 1e-9")
            if np.any(valid[:, 2] <= 0.0):
                raise InvalidSpecError("valid normals must face the camera (z > 0)")
        object.__setattr__(self, "normals", _readonly(normals))
        object.__setattr__(self, "mask", _readonly(mask, dtype=bool))

    @property
    def height(self) -> int:
        return self.normals.shape[0]

    @property
    def width(self) -> int:
        return self.normals.shape[1]

    def valid_normals(self) -> np.ndarray:
        """The (P, 3) array of normals at valid pixels, in row-major order."""
        return self.normals[self.mask]


@dataclass(frozen=True)
class AlbedoMap:
    """H x W grid of per-pixel diffuse reflectance values."""

    values: np.ndarray  # (H, W)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise DimensionMismatchError(f"albedo values must be (H, W), got {values.shape}")
        object.__setattr__(self, "values", _readonly(values))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def validate_range(self, mask: np.ndarray | None = None, upper: bool = True) -> None:
        """Check 0 < albedo (and <= 1 when ``upper``) at masked pixels.

        Physical albedo lies in (0, 1]; solver *estimates* may exceed 1 under
        noise, so the upper bound is only enforced where the caller asks.
        """
        vals = self.values if mask is None else self.values[np.asarray(mask, dtype=bool)]
        if vals.size == 0:
            return
        if np.any(vals <= 0.0):
            raise InvalidSpecError("albedo must be strictly positive at valid pixels")
        if upper and np.any(vals > 1.0):
            raise InvalidSpecError("albedo must be <= 1 at valid pixels")


@dataclass(frozen=True)
class IntensityStack:
    """m images of per-pixel irradiance, one per light, plus per-image sigmas."""

    images: np.ndarray  # (m, H, W)
    sigmas: np.ndarray  # (m,)

    def __post_init__(self):
        images = np.asarray(self.images, dtype=float)
        sigmas = np.atleast_1d(np.asarray(self.sigmas, dtype=float))
        if images.ndim != 3:
            raise DimensionMismatchError(f"images must be (m, H, W), got {images.shape}")
        if sigmas.shape != (images.shape[0],):
            raise DimensionMismatchError(
                f"got {sigmas.shape[0]} sigmas for {images.shape[0]} images"
            )
        if np.any(sigmas < 0.0):
            raise NonPositiveSigmaError("noise levels must be >= 0")
        object.__setattr__(self, "images", _readonly(images))
        object.__setattr__(self, "sigmas", _readonly(sigmas))

    @property
    def m(self) -> int:
        return self.images.shape[0]

    @property
    def height(self) -> int:
        return self.images.shape[1]

    @property
    def width(self) -> int:
        return self.images.shape[2]


def require_spd(matrix: np.ndarray, tol: float = UNIT_TOL) -> np.ndarray:
    """Validate that a 3x3 matrix is symmetric positive definite.

    Symmetry is checked within ``tol``; eigenvalues must be strictly positive.
    Returns the validated array (as float64).
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        raise DimensionMismatchError(f"expected a 3x3 matrix, got {m.shape}")
    if np.max(np.abs(m - m.T)) > tol:
        raise InvalidSpecError("matrix is not symmetric within tolerance")
    eigvals = np.linalg.eigvalsh(0.5 * (m + m.T))
    if np.any(eigvals <= 0.0):
        raise InvalidSpecError(f"matrix is not positive definite (eigenvalues {eigvals})")
    return m
