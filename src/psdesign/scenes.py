"""Analytic ground-truth scenes and ingestion of user-provided normal maps.

Scenes live in the normalized image frame [-1, 1]^2 under orthographic
projection, camera looking along -Z.  Pixel center i of a dimension of size d
maps to 2 * (i + 0.5) / d - 1.  Surfaces are described in gradient space
(p, q) = (df/dx, df/dy); the stored camera-facing normal is
(-p, -q, 1) / |(-p, -q, 1)|.  Both builders write the (3, H, W) layout of
NormalMap, which adopts it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import pfm
from .core import (
    CAMERA_AXIS,
    AlbedoMap,
    EmptyMaskError,
    InvalidSpecError,
    NormalMap,
    freeze,
)

SCENE_KINDS = ("sphere", "paraboloid", "plane", "from_file")
INGEST_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class AlbedoSpec:
    """Constant albedo, or a two-tone checkerboard with a given cell size."""

    kind: str = "constant"
    value: float = 1.0
    value2: float = 1.0
    cell: int = 8

    def __post_init__(self):
        if self.kind not in ("constant", "checkerboard"):
            raise InvalidSpecError(f"unknown albedo kind {self.kind!r}")
        for v in (self.value, self.value2) if self.kind == "checkerboard" else (self.value,):
            if not 0.0 < v <= 1.0:
                raise InvalidSpecError(f"albedo values must be in (0, 1], got {v}")
        if self.kind == "checkerboard" and self.cell < 1:
            raise InvalidSpecError("checkerboard cell must be >= 1")

    def render(self, height: int, width: int) -> np.ndarray:
        if self.kind == "constant":
            return np.full((height, width), self.value)
        iy, ix = np.mgrid[0:height, 0:width]
        board = ((iy // self.cell) + (ix // self.cell)) % 2
        return np.where(board == 0, self.value, self.value2)


@dataclass(frozen=True)
class SceneSpec:
    """What to generate: surface kind, resolution, kind-specific parameters.

    params keys: sphere -> radius (fraction of the frame, default 0.9);
    paraboloid -> curvature (default 0.5); plane -> p, q (default 0);
    from_file -> path to a 3-channel PFM normal map.
    """

    kind: str
    width: int
    height: int
    params: Mapping[str, object] = field(default_factory=dict)
    albedo: AlbedoSpec = field(default_factory=AlbedoSpec)

    def __post_init__(self):
        if self.kind not in SCENE_KINDS:
            raise InvalidSpecError(f"unknown scene kind {self.kind!r}")
        if self.width < 1 or self.height < 1:
            raise InvalidSpecError("scene dimensions must be >= 1")
        object.__setattr__(self, "params", dict(self.params))


def _frame_coords(width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Pixel-center coordinates in [-1, 1]; x along columns, y along rows."""
    xs = 2.0 * (np.arange(width) + 0.5) / width - 1.0
    ys = 2.0 * (np.arange(height) + 0.5) / height - 1.0
    return np.meshgrid(xs, ys)


def _normals_from_gradient(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    planes = np.stack([-p, -q, np.ones_like(p)])
    planes /= np.linalg.norm(planes, axis=0)
    return planes


def _normal_map(planes: np.ndarray, mask: np.ndarray) -> NormalMap:
    """Hand a fresh (3, H, W) buffer to NormalMap, which adopts it."""
    return NormalMap(normals=freeze(planes).transpose(1, 2, 0), mask=mask)


def generate(spec: SceneSpec) -> tuple[NormalMap, AlbedoMap]:
    """Build ground-truth normal and albedo maps for a scene spec."""
    if spec.kind == "from_file":
        path = spec.params.get("path")
        if not path:
            raise InvalidSpecError("from_file scene needs params['path']")
        nmap = ingest_normal_map(path)
        if (nmap.height, nmap.width) != (spec.height, spec.width):
            raise InvalidSpecError(
                f"file is {nmap.height}x{nmap.width}, spec says {spec.height}x{spec.width}"
            )
        return nmap, AlbedoMap(values=spec.albedo.render(nmap.height, nmap.width))

    x, y = _frame_coords(spec.width, spec.height)
    mask = np.ones((spec.height, spec.width), dtype=bool)

    if spec.kind == "plane":
        p = float(spec.params.get("p", 0.0))
        q = float(spec.params.get("q", 0.0))
        normals = _normals_from_gradient(np.full_like(x, p), np.full_like(y, q))
    elif spec.kind == "paraboloid":
        a = float(spec.params.get("curvature", 0.5))
        # f = -a (x^2 + y^2)  =>  p = -2 a x, q = -2 a y
        normals = _normals_from_gradient(-2.0 * a * x, -2.0 * a * y)
    else:  # sphere, the one kind left that SceneSpec admits
        radius = float(spec.params.get("radius", 0.9))
        if not 0.0 < radius <= 1.0:
            raise InvalidSpecError(f"sphere radius fraction must be in (0, 1], got {radius}")
        u = x / radius
        v = y / radius
        rho2 = u * u + v * v
        mask = rho2 < 1.0
        nz = np.sqrt(np.clip(1.0 - rho2, 0.0, None))
        normals = np.stack([u, v, nz])
        normals[:, ~mask] = CAMERA_AXIS[:, None]

    return _normal_map(normals, mask), AlbedoMap(values=spec.albedo.render(spec.height, spec.width))


def ingest_normal_map(path) -> NormalMap:
    """Load a 3-channel PFM as a normal map.

    Pixels with non-finite or near-zero vectors are masked out, as are
    back-facing ones (z <= 0); the remaining vectors are normalized.  A mask
    sidecar, when present, is intersected with these checks.
    """
    data, file_mask = pfm.read_normal_map_arrays(path)
    vectors = np.array(data.transpose(2, 0, 1), dtype=float, order="C")
    finite = np.all(np.isfinite(vectors), axis=0)
    vectors[:, ~finite] = 0.0
    norms = np.linalg.norm(vectors, axis=0)
    mask = finite & (norms > INGEST_NORM_FLOOR)
    if file_mask is not None:
        mask &= file_mask
    vectors /= np.where(mask, norms, 1.0)
    mask &= vectors[2] > 0.0
    vectors[:, ~mask] = CAMERA_AXIS[:, None]
    if not mask.any():
        raise EmptyMaskError(f"{path}: no valid camera-facing normals")
    return _normal_map(vectors, mask)


def export_normal_map(path, nmap: NormalMap) -> None:
    """Write a normal map and its mask sidecar as PFM files."""
    pfm.write_normal_map(path, nmap.normals, nmap.mask)
