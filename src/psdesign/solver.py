"""Inverse problem: recover per-pixel normals and albedo from an image stack.

The per-pixel model is linear, I = rho * S n = S n_tilde, with one S for every
pixel, so a single (3, m) matrix solves them all: the whitened pseudo-inverse
(S^T W S)^-1 S^T W = F Q^T W^1/2 with W = diag(w^2), from the QR factorisation
W^1/2 S = Q R and F = R^-1 (``whitened_factor``; ``whitening`` is the one rule
for the weights w and the shadow threshold tau).  Householder QR is backward
stable in S, so F F^T = (S^T W S)^-1 is within O(cond(S) eps) relative, where
an inverted Gram is within O(cond(S)^2 eps) (Higham, Accuracy and Stability of
Numerical Algorithms, ch. 19-20); ``oed.covariance`` and ``compare_configs``
take their F from the same helper.  Each runner task (``core.runner``)
applies the pseudo-inverse to one ``product_blocks`` slice of the (m, P)
stack, straight into the (3, P) output, and makes the slice's two per-pixel
decisions in cache: ``lit_columns`` drops a pixel when any raw intensity falls
below tau (the linear model says nothing about clamped, near-shadow
intensities), ``core.finish_columns`` one without a direction or facing away.
The slices are PRODUCT_COLUMNS wide, the tail merged into the last: BLAS
picks its kernel by shape, so they keep the whole-frame product's bytes.
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
    finish_columns,
    freeze,
    product_blocks,
    require_sigmas,
    runner,
)

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


def whitening(sigmas, m: int) -> tuple[np.ndarray, float]:
    """Row weights, ones when all m sigmas are equal (all zero too) and else
    1/sigma_i, and the shadow tau = max(3 * max(sigma), 1e-6).  Mixed zero and
    positive sigmas have no consistent weighting and are rejected."""
    sig = require_sigmas(sigmas, m)
    if np.ptp(sig) != 0.0 and np.any(sig == 0.0):
        raise NonPositiveSigmaError("cannot whiten with mixed zero and positive noise levels")
    w = np.ones(m) if np.ptp(sig) == 0.0 else 1.0 / sig
    return w, max(3.0 * float(sig.max()), MIN_SHADOW_TAU)


def whitened_factor(rows: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q (m, 3) and F = R^-1 (3, 3, upper triangular) of diag(w) rows = Q R."""
    q, r = np.linalg.qr(rows * w[:, None])
    return q, np.linalg.inv(r)


def lit_columns(images: np.ndarray, tau: float, out: np.ndarray) -> np.ndarray:
    """Lit, into ``out``, where each of the (m, B) ``images`` reaches ``tau`` (NaN fails)."""
    return np.greater_equal(images.min(axis=0), tau, out=out)


def _solve_columns(flat: np.ndarray, lights: LightConfig, sigmas, unit: bool = False):
    """The one per-pixel kernel: n_tilde as (3, P) for an (m, P) stack, its
    norms, and which pixels pass ``lit_columns`` and ``core.finish_columns``
    (with ``unit``), silently.  All three arrays are fresh, so callers may seal them."""
    w, tau = whitening(sigmas, lights.m)
    q, f = whitened_factor(lights.rows, w)
    pinv, count = f @ q.T * w, flat.shape[1]
    n_tilde, norms, ok = np.empty((3, count)), np.empty(count), np.empty(count, dtype=bool)

    def block(s: slice) -> None:
        finish_columns(np.matmul(pinv, flat[:, s], out=n_tilde[:, s]), norms[s],
                       lit_columns(flat[:, s], tau, ok[s]), unit)

    with np.errstate(invalid="ignore", over="ignore"), runner(count) as run:
        run(block, product_blocks(count))
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
    (S^T S)^-1 S^T I.  The pseudo-inverse is F Q^T W^1/2 from the QR factor
    of the whitened rows (see the module docstring for its accuracy).
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
    below the threshold), the solution has no direction (|n_tilde| <= 1e-9,
    infinite or NaN), or the estimated normal faces away from the camera
    (z <= 0, inexpressible in a camera-facing normal map).
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
