"""Inverse problem: recover per-pixel normals and albedo from an image stack.

The per-pixel model is linear, I = rho * S n = S n_tilde, with one S for every
pixel, so a single (3, m) matrix solves them all: the whitened pseudo-inverse
(S^T W S)^-1 S^T W, W = diag(1/sigma_i^2), formed once per call from the SVD of
W^1/2 S (``_inverse``).  It is applied to the (m, P) stack as one whole-frame
matrix product, straight into the (3, P) output; the shadow test (one minimum
over the images), the norms, the degeneracy and facing tests and the
normalisation (``_finish_columns``) then run over the frame in
``pixel_blocks``, on every CPU (see ``core.runner``).  The product is neither
blocked nor split between threads because BLAS picks its kernel by shape: a
one-column block goes through gemv, and from 16 lights on the last columns of
a product round differently with its width, so narrower products would not
reproduce the bytes of a whole-frame one.  ``compare_configs`` solves
nothing: at a pixel whose clean images all pass the shadow test, this solve
is rho n plus Gaussian noise of covariance (S^T W S)^-1, which it draws
directly, with element-wise multiply-adds in blocks.  Singular values at or
below max(m, 3) * eps of the largest are cut, as in lstsq(rcond=None).
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
    CAMERA_AXIS,
    AlbedoMap,
    DimensionMismatchError,
    IntensityStack,
    LightConfig,
    NonPositiveSigmaError,
    NormalMap,
    freeze,
    pixel_blocks,
    require_sigmas,
    runner,
)

DEGENERATE_NORM = 1e-9
MIN_SHADOW_TAU = 1e-6


@dataclass(frozen=True)
class PixelEstimate:
    """Unnormalized solution n_tilde with its albedo/normal factorization.

    When valid, albedo equals |n_tilde| and normal equals n_tilde / |n_tilde|.
    """

    n_tilde: np.ndarray
    albedo: float
    normal: np.ndarray
    valid: bool


def _inverse(lights: LightConfig, sigmas) -> tuple[np.ndarray, float]:
    """The whitened (3, m) pseudo-inverse and the shadow tau.  The row weights
    1/sigma_i (ones when every sigma is equal, the noiseless all-zero case too)
    sit in its columns, so the stack itself is never scaled; mixed zero and
    positive sigmas have no consistent weighting and are rejected."""
    sig = require_sigmas(sigmas, lights.m)
    if np.ptp(sig) != 0.0 and np.any(sig == 0.0):
        raise NonPositiveSigmaError("cannot whiten with mixed zero and positive noise levels")
    w = np.ones(lights.m) if np.ptp(sig) == 0.0 else 1.0 / sig
    design = lights.rows * w[:, None]
    pinv = np.linalg.pinv(design, rcond=max(design.shape) * np.finfo(float).eps) * w
    return pinv, max(3.0 * float(sig.max()), MIN_SHADOW_TAU)


def _finish_columns(cols: np.ndarray, norm: np.ndarray, valid: np.ndarray, unit: bool) -> None:
    """Norms of the (3, B) n_tilde ``cols`` into ``norm``; ``valid`` cleared where
    |n_tilde| <= 1e-9, and with ``unit`` where z <= 0 (facing away from the
    camera), when the columns also become unit normals, the camera axis where
    invalid."""
    np.sqrt(np.einsum("cp,cp->p", cols, cols, out=norm), out=norm)
    valid &= norm > DEGENERATE_NORM
    if unit:
        valid &= cols[2] > 0.0
        cols /= np.where(valid, norm, 1.0)
        np.copyto(cols, CAMERA_AXIS[:, None], where=~valid)


def _solve_columns(flat: np.ndarray, lights: LightConfig, sigmas, unit: bool = False):
    """The one per-pixel kernel: n_tilde as (3, P) for an (m, P) stack, its
    norms, and which pixels are lit and pass ``_finish_columns`` (with
    ``unit`` as given).  All three arrays are fresh, so callers may seal them."""
    pinv, tau = _inverse(lights, sigmas)
    n_tilde = np.matmul(pinv, flat)  # one whole-frame product (see the module docstring)
    norms, ok = np.empty(flat.shape[1]), np.empty(flat.shape[1], dtype=bool)

    def finish(s: slice) -> None:  # lit: every image reaches tau (NaN fails), one reduction
        _finish_columns(n_tilde[:, s], norms[s],
                        np.greater_equal(flat[:, s].min(axis=0), tau, out=ok[s]), unit)

    with runner(len(norms)) as run:
        run(finish, pixel_blocks(len(norms)))
    return n_tilde, norms, ok


def solve_exact(intensities, lights: LightConfig) -> PixelEstimate:
    """Invert the square 3-light system: n_tilde = S^-1 I.

    Requires exactly three lights (LightConfig guarantees the rank); S^-1 is
    then the pseudo-inverse, so this is ``solve_lsq`` without weights.
    """
    if lights.m != 3:
        raise DimensionMismatchError(f"solve_exact needs exactly 3 lights, got {lights.m}")
    return solve_lsq(intensities, lights, np.zeros(3))


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
    n_tilde, norms, ok = _solve_columns(i[:, None], lights, sigmas)
    n_tilde, norm, valid = n_tilde[:, 0], float(norms[0]), bool(ok[0])
    return PixelEstimate(n_tilde=n_tilde, albedo=norm,
                         normal=n_tilde / norm if valid else CAMERA_AXIS.copy(), valid=valid)


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
    normals, albedo, valid = _solve_columns(stack.images.reshape(stack.m, -1), lights,
                                            stack.sigmas, unit=True)
    # the maps adopt these fresh buffers; (3, P) is the map's own layout.  The
    # solve and the map's checks each run on a runner of their own
    nmap = NormalMap(normals=freeze(normals).reshape(3, h, w_px).transpose(1, 2, 0),
                     mask=freeze(valid).reshape(h, w_px))
    return nmap, AlbedoMap(values=freeze(albedo).reshape(h, w_px))
