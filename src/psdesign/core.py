"""Shared domain types: light configurations, normal/albedo maps, image stacks.

All types are immutable after construction (frozen dataclasses over read-only
numpy arrays) and may be shared freely across threads.

An array is adopted, not copied, when it is sealed: a read-only view of
read-only memory, of the right dtype.  The library seals the fresh buffers it
builds (``freeze``) and every array these types hold; any other array is
copied.  Adoption skips only the copy: NormalMap validates on every
construction.

A NormalMap's normals live component-major, in one (3, H, W) buffer; its
(H, W, 3) ``normals`` is a view of that buffer, so ``normals.reshape(-1, 3).T``
is a C-contiguous (3, P) array of x, y and z rows.  A sealed view of that
layout is adopted, which is how the scenes, the ingest and the solver hand
over the buffers they build; any other input is copied into it.  The solver
and the ingest make each normal by ``finish_columns``, the one direction rule.

The per-pixel layers walk a frame in ``pixel_blocks``: the temporaries of one
block stay in the L2 cache instead of each being a fresh whole-frame array.
The light and solve products walk it in ``product_blocks``, PRODUCT_COLUMNS
wide with the remainder merged into the last: BLAS picks its kernel by shape
(gemv for one column, edge kernels for narrow ones), so a constant width, not
BLOCK_PIXELS, keeps the whole-frame product's bytes.  Blocks write disjoint
outputs, so a layer hands them to a ``runner``, which spreads them over the
CPUs; the bytes do not depend on the thread count.
Each call opens its own runner, whose threads end with it: no runner is
shared between calls, and the module holds no mutable state.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

# Construction-time tolerances, chosen at double-precision roundoff scale.
UNIT_TOL = 1e-12
MAP_UNIT_TOL = 1e-9
RANK_RTOL = 1e-9
DEGENERATE_NORM = 1e-9  # a vector has a direction when its norm is in (this, inf)

# Pixels per block of the per-pixel layers: a (3, B) float block is 768 KiB.
BLOCK_PIXELS = 1 << 15
# Columns per slice of the light and solve products (see the module docstring).
PRODUCT_COLUMNS = 1 << 15

# Frames below this many pixels run their tasks in a plain loop: on a 2-core
# Xeon the hand-off to a thread cost more than it saved below about 256 x 256.
PARALLEL_MIN_PIXELS = 1 << 16


class PhotometryError(Exception):
    """Base class for every error raised by this package."""


class DegenerateVectorError(PhotometryError):
    """A vector without a direction: near zero, infinite or NaN."""


class DimensionMismatchError(PhotometryError):
    """Paired inputs disagree on size (image counts, map dimensions, ...)."""


class SingularLightMatrixError(PhotometryError):
    """The light matrix is rank deficient (or too close to it)."""


class NonPositiveSigmaError(PhotometryError):
    """A noise level is negative or not finite, or zero where a positive value
    is required."""


class AlphaOutOfRangeError(PhotometryError):
    """Confidence level outside (0, 1)."""


class EmptyMaskError(PhotometryError):
    """No valid pixels to operate on."""


class NonUnitRowsError(PhotometryError):
    """A light configuration has a row whose norm is not 1."""


class FileFormatError(PhotometryError):
    """A file does not conform to the expected on-disk format."""


class InvalidSpecError(PhotometryError, ValueError):
    """A scene, run or call specification fails validation."""


def _require_int(name: str, value) -> int:
    """``value`` if it is an int or numpy integer (not a bool, not 64.0)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidSpecError(f"{name} must be an integer, got {value!r}")
    return value


def freeze(a: np.ndarray) -> np.ndarray:
    """Seal a fresh buffer that nothing else holds: make its memory read-only
    and return a read-only view of it, which cannot be made writeable again."""
    if a.base is not None:
        a.base.flags.writeable = False
    a.flags.writeable = False
    return a.view()


# The view direction, which camera-facing normal maps hold at invalid pixels
CAMERA_AXIS = freeze(np.array([0.0, 0.0, 1.0]))


def _sealed(a: np.ndarray, dtype=float) -> bool:
    """Whether ``a`` is a read-only view of read-only memory, of ``dtype``."""
    return (a.dtype == dtype and not a.flags.writeable
            and isinstance(a.base, np.ndarray) and not a.base.flags.writeable)


def _readonly(a: np.ndarray, dtype=float) -> np.ndarray:
    """``a`` itself when it is sealed and of ``dtype``, else a sealed copy."""
    return a if _sealed(a, dtype) else freeze(np.array(a, dtype=dtype, copy=True))


def pixel_blocks(count: int) -> list[slice]:
    """Consecutive slices of at most BLOCK_PIXELS that cover range(count)."""
    step = BLOCK_PIXELS
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def product_blocks(count: int) -> list[slice]:
    """Consecutive slices of PRODUCT_COLUMNS that cover range(count), the last
    one absorbing the remainder: none is narrower unless the whole frame is."""
    step = PRODUCT_COLUMNS
    n = max(count // step, 1) if count else 0
    return [slice(i * step, count if i == n - 1 else (i + 1) * step) for i in range(n)]


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run(pool, helpers: int, task, items) -> list:
    """``[task(item) for item in items]`` on this thread and ``helpers`` of ``pool``."""
    items = list(items)
    results, todo, lock = [None] * len(items), iter(range(len(items))), threading.Lock()
    errstate = np.geterr()  # threads start with numpy's default

    def drain() -> None:
        with np.errstate(**errstate):
            while True:
                with lock:
                    i = next(todo, None)
                if i is None:
                    return
                results[i] = task(items[i])

    started = [pool.submit(drain) for _ in range(min(helpers, len(items) - 1))]
    try:
        drain()
    finally:  # a helper still queued has nothing left to do
        errors = [future.exception() for future in started if not future.cancel()]
    for error in filter(None, errors):
        raise error
    return results


@contextmanager
def runner(pixels: int):
    """Yield ``run(task, items)``, which returns ``[task(item) for item in
    items]`` for tasks with disjoint outputs on a frame of ``pixels``.  From
    PARALLEL_MIN_PIXELS on, with more than one CPU, the calling thread runs
    the tasks beside up to CPUs - 1 threads, each under the caller's
    ``np.errstate``, of a pool that the runner opens and closes on exit.  A
    task's exception is raised once the tasks already started have finished.
    Smaller frames, or one CPU, run a plain loop."""
    helpers = _cpu_count() - 1
    if helpers < 1 or pixels < PARALLEL_MIN_PIXELS:
        yield partial(_run, None, 0)
    else:
        with ThreadPoolExecutor(max_workers=helpers, thread_name_prefix="psdesign") as pool:
            yield partial(_run, pool, helpers)


def require_sigmas(sigmas, count: int | None = None, positive: bool = False) -> np.ndarray:
    """Validate a flat sequence of noise levels, ``count`` of them when given.

    Every level must be finite and >= 0, or > 0 when ``positive``.  Returns
    the levels as a float64 array.
    """
    sig = np.atleast_1d(np.asarray(sigmas, dtype=float))
    if sig.ndim != 1:
        raise DimensionMismatchError("sigmas must be a flat sequence")
    if count is not None and sig.shape[0] != count:
        raise DimensionMismatchError(f"got {sig.shape[0]} noise levels, expected {count}")
    if not np.all(np.isfinite(sig) & ((sig > 0.0) if positive else (sig >= 0.0))):
        raise NonPositiveSigmaError(
            f"noise levels must be finite and {'> 0' if positive else '>= 0'}, got {sig}"
        )
    return sig


def finish_columns(cols: np.ndarray, norm: np.ndarray, valid: np.ndarray, unit: bool) -> None:
    """Norms of the (3, B) ``cols`` into ``norm``, and ``valid`` cleared unless
    DEGENERATE_NORM < |v| < inf (NaN and overflow fail, with no warning); with
    ``unit`` also where z <= 0 (facing away from the camera), and the columns
    become a NormalMap's unit normals, the camera axis where invalid."""
    with np.errstate(over="ignore", invalid="ignore"):
        np.sqrt(np.einsum("cp,cp->p", cols, cols, out=norm), out=norm)
        valid &= (norm > DEGENERATE_NORM) & (norm < np.inf)
        if unit:
            valid &= cols[2] > 0.0
            cols /= np.where(valid, norm, 1.0)
            np.copyto(cols, CAMERA_AXIS[:, None], where=~valid)


def normalize(v) -> tuple[np.ndarray, float]:
    """Split a 3-vector into (unit direction, norm).

    The returned direction times the norm reconstructs the input to roundoff.
    Raises DegenerateVectorError unless 1e-9 < norm < inf (``finish_columns``).
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise DimensionMismatchError(f"expected a 3-vector, got shape {v.shape}")
    norm, ok = np.empty(1), np.ones(1, dtype=bool)
    finish_columns(v[:, None], norm, ok, unit=False)
    if not ok[0]:
        raise DegenerateVectorError(f"cannot normalize a vector of norm {norm[0]:.3e}")
    return v / norm[0], float(norm[0])


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

    ``rows`` is an (m, 3) matrix with m >= 3, full column rank and rows of
    norm 1: the design objective is unbounded below under row scaling, so
    unit rows model pure direction choice at fixed source power.
    """

    rows: np.ndarray

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
        if np.any(np.abs(np.einsum("ij,ij->i", rows, rows) - 1.0) > UNIT_TOL):
            raise NonUnitRowsError("every light row must have norm 1")
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
    invalid pixels are unconstrained.  ``normals`` is an (H, W, 3) view of a
    component-major (3, H, W) buffer (see the module docstring).
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
        if not (_sealed(normals) and normals.transpose(2, 0, 1).flags.c_contiguous):
            normals = freeze(np.array(normals.transpose(2, 0, 1), order="C")).transpose(1, 2, 0)
        rows, valid = normals.reshape(-1, 3).T, mask.reshape(-1)

        def failures(s: slice) -> tuple[bool, bool]:  # not unit, not facing; NaN fails both
            block, inside = rows[:, s], valid[s]
            sq = np.abs(np.einsum("cp,cp->p", block, block) - 1.0)
            return np.any(inside & ~(sq <= MAP_UNIT_TOL)), np.any(inside & ~(block[2] > 0.0))

        # invalid pixels may hold anything: squaring a huge value there overflows harmlessly
        with np.errstate(over="ignore"), runner(valid.size) as run:
            flags = run(failures, pixel_blocks(valid.size))
        nonunit, backfacing = np.any([(False, False), *flags], 0)
        if nonunit:  # reported before a facing failure anywhere
            raise InvalidSpecError("valid normals must be unit within 1e-9")
        if backfacing:
            raise InvalidSpecError("valid normals must face the camera (z > 0)")
        object.__setattr__(self, "normals", normals)
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


@dataclass(frozen=True)
class IntensityStack:
    """m images of per-pixel irradiance, one per light, plus per-image sigmas."""

    images: np.ndarray  # (m, H, W)
    sigmas: np.ndarray  # (m,)

    def __post_init__(self):
        images = np.asarray(self.images, dtype=float)
        if images.ndim != 3:
            raise DimensionMismatchError(f"images must be (m, H, W), got {images.shape}")
        sigmas = require_sigmas(self.sigmas, images.shape[0])
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


def require_spd(matrix: np.ndarray, semidefinite: bool = False) -> np.ndarray:
    """Validate a finite, symmetric 3x3 matrix that is positive definite, or
    positive semidefinite when ``semidefinite``.

    Symmetry is checked within UNIT_TOL; a semidefinite matrix may have
    eigenvalues down to -UNIT_TOL, its roundoff; a definite one must have a
    Cholesky factor.  Returns the validated array (as float64).
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        raise DimensionMismatchError(f"expected a 3x3 matrix, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidSpecError("matrix has non-finite entries")
    if np.max(np.abs(m - m.T)) > UNIT_TOL:
        raise InvalidSpecError("matrix is not symmetric within tolerance")
    sym = 0.5 * (m + m.T)
    try:  # near cond 1e16 a definite matrix has a Cholesky factor, not eigvalsh > 0
        if not semidefinite:
            np.linalg.cholesky(sym)
        elif np.linalg.eigvalsh(sym)[0] < -UNIT_TOL:
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        kind = "semidefinite" if semidefinite else "definite"
        raise InvalidSpecError(f"matrix is not positive {kind} (eigenvalues "
                               f"{np.linalg.eigvalsh(sym)})") from None
    return m
