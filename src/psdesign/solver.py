"""Inverse problem: recover per-pixel normals and albedo from an image stack.

The per-pixel model is linear, I = rho * S n = S n_tilde, with one S for every
pixel, so a single (3, m) matrix solves them all: the whitened pseudo-inverse
(S^T W S)^-1 S^T W, W = diag(1/sigma_i^2), formed once per call from the SVD of
W^1/2 S and applied to the (m, P) stack as one matrix product.  Singular values
at or below max(m, 3) * eps of the largest are cut, as in lstsq(rcond=None).
LightConfig keeps cond(S) below 1e9, so the cut never fires on a valid config,
and the explicit pseudo-inverse has forward error O(cond(S) * eps), the order
of a per-column orthogonal solve.  Pixels are excluded when any raw intensity
falls below the shadow threshold tau = max(3 * max(sigma), 1e-6): near-shadow
measurements violate the linear model, which says nothing about clamped
intensities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    AlbedoMap,
    DimensionMismatchError,
    IntensityStack,
    LightConfig,
    NonPositiveSigmaError,
    NormalMap,
    freeze,
)

DEGENERATE_NORM = 1e-9
MIN_SHADOW_TAU = 1e-6
CAMERA_AXIS = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class PixelEstimate:
    """Unnormalized solution n_tilde with its albedo/normal factorization.

    When valid, albedo equals |n_tilde| and normal equals n_tilde / |n_tilde|.
    ``residual`` is the (whitened, when weighted) least-squares residual norm.
    """

    n_tilde: np.ndarray
    albedo: float
    normal: np.ndarray
    valid: bool
    residual: float = 0.0


def _noise_terms(lights: LightConfig, sigmas) -> tuple[np.ndarray, float]:
    """Row weights 1/sigma_i (ones when every sigma is equal) and the shadow tau.

    Equal sigmas (including all-zero, the noiseless case) reduce to the
    unweighted solve; mixed zero/positive sigmas have no consistent weighting
    and are rejected.
    """
    sig = np.atleast_1d(np.asarray(sigmas, dtype=float))
    if sig.shape != (lights.m,):
        raise DimensionMismatchError(f"got {sig.shape[0]} sigmas for {lights.m} lights")
    if np.any(sig < 0.0):
        raise NonPositiveSigmaError("noise levels must be >= 0")
    tau = max(3.0 * float(sig.max()), MIN_SHADOW_TAU)
    if np.ptp(sig) == 0.0:
        return np.ones(lights.m), tau
    if np.any(sig == 0.0):
        raise NonPositiveSigmaError(
            "cannot whiten with mixed zero and positive noise levels"
        )
    return 1.0 / sig, tau


def _solve_columns(flat: np.ndarray, lights: LightConfig, sigmas):
    """The one per-pixel kernel: n_tilde as (3, P) for an (m, P) stack, its
    norms, the weights, and which pixels are neither shadowed nor degenerate
    (|n_tilde| <= 1e-9).  The weights sit in the columns of the pseudo-inverse,
    so the stack itself is never scaled."""
    w, tau = _noise_terms(lights, sigmas)
    design = lights.rows * w[:, None]
    pinv = np.linalg.pinv(design, rcond=max(design.shape) * np.finfo(float).eps) * w
    n_tilde = pinv @ flat
    norms = np.sqrt(np.einsum("cp,cp->p", n_tilde, n_tilde))
    ok = ~np.any(flat < tau, axis=0) & (norms > DEGENERATE_NORM)
    return n_tilde, norms, w, ok


def _solve_pixel(intensities: np.ndarray, lights: LightConfig, sigmas) -> PixelEstimate:
    n_tilde, norms, w, ok = _solve_columns(intensities[:, None], lights, sigmas)
    n_tilde, norm, valid = n_tilde[:, 0], float(norms[0]), bool(ok[0])
    return PixelEstimate(
        n_tilde=n_tilde, albedo=norm,
        normal=n_tilde / norm if valid else CAMERA_AXIS.copy(), valid=valid,
        residual=float(np.linalg.norm(w * (intensities - lights.rows @ n_tilde))),
    )


def solve_exact(intensities, lights: LightConfig) -> PixelEstimate:
    """Invert the square 3-light system: n_tilde = S^-1 I.

    Requires exactly three lights; rank is already guaranteed by LightConfig.
    """
    i = np.asarray(intensities, dtype=float)
    if lights.m != 3:
        raise DimensionMismatchError(f"solve_exact needs exactly 3 lights, got {lights.m}")
    if i.shape != (3,):
        raise DimensionMismatchError(f"expected 3 intensities, got shape {i.shape}")
    return _solve_pixel(i, lights, np.zeros(3))


def solve_lsq(intensities, lights: LightConfig, sigmas) -> PixelEstimate:
    """Weighted least-squares estimate of n_tilde from m >= 3 intensities.

    Minimizes sum_i ((I_i - S_i . n)/sigma_i)^2, i.e. applies the whitened
    pseudo-inverse (S^T W S)^-1 S^T W; with equal sigmas this is the plain
    (S^T S)^-1 S^T I.  See the module docstring for the rank cutoff and the
    accuracy of the explicit pseudo-inverse.
    """
    i = np.asarray(intensities, dtype=float)
    if i.shape != (lights.m,):
        raise DimensionMismatchError(f"expected {lights.m} intensities, got shape {i.shape}")
    return _solve_pixel(i, lights, sigmas)


def solve_map(stack: IntensityStack, lights: LightConfig) -> tuple[NormalMap, AlbedoMap]:
    """Per-pixel least squares over the whole stack.

    The output mask is false wherever the pixel is shadowed (any intensity
    below the threshold), the solution is degenerate (|n_tilde| <= 1e-9), or
    the estimated normal faces away from the camera (z <= 0, inexpressible in
    a camera-facing normal map).
    """
    if stack.m != lights.m:
        raise DimensionMismatchError(f"stack has {stack.m} images but config has {lights.m} lights")
    h, w_px = stack.height, stack.width
    n_tilde, norms, _, ok = _solve_columns(stack.images.reshape(stack.m, -1), lights, stack.sigmas)
    valid = ok & (n_tilde[2] > 0.0)
    n_tilde /= np.where(valid, norms, 1.0)
    np.copyto(n_tilde, CAMERA_AXIS[:, None], where=~valid)
    # the maps adopt these fresh buffers; (3, P) transposed is a strided view
    # of the (H, W, 3) map, not a copy
    nmap = NormalMap(normals=freeze(n_tilde).T.reshape(h, w_px, 3),
                     mask=freeze(valid).reshape(h, w_px))
    return nmap, AlbedoMap(values=freeze(norms).reshape(h, w_px))
