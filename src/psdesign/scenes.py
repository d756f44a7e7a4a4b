"""Analytic ground-truth scenes and ingestion of user-provided normal maps.

Scenes live in the normalized image frame [-1, 1]^2 under orthographic
projection, camera looking along -Z.  Pixel center i of a dimension of size d
maps to 2 * (i + 0.5) / d - 1.  Surfaces are described in gradient space
(p, q) = (df/dx, df/dy); the stored camera-facing normal is
(-p, -q, 1) / |(-p, -q, 1)|.  Both builders write the (3, H, W) layout of
NormalMap, which adopts it.  The analytic ones broadcast a (1, W) row of x and
an (H, 1) column of y into it, with no full-frame grid, and keep the operations
and their order of a grid evaluation (the norm sums p*p + q*q + 1, as
np.linalg.norm does), so the bytes are the same.
"""

from __future__ import annotations

import numbers
import sys
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
    _require_int,
    finish_columns,
    freeze,
)

# Each kind's parameters and their defaults: sphere radius as a fraction of the
# frame, paraboloid curvature, plane gradient (p, q), and from_file's path to a
# 3-channel PFM normal map, which has no default
SCENE_PARAMS = {"sphere": {"radius": 0.9}, "paraboloid": {"curvature": 0.5},
                "plane": {"p": 0.0, "q": 0.0}, "from_file": {"path": None}}
SCENE_KINDS = tuple(SCENE_PARAMS)


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
            if isinstance(v, bool) or not (isinstance(v, numbers.Real) and 0.0 < v <= 1.0):
                raise InvalidSpecError(f"albedo values must be numbers in (0, 1], got {v!r}")
        if _require_int("cell", self.cell) < 1 and self.kind == "checkerboard":
            raise InvalidSpecError("checkerboard cell must be >= 1")

    def render(self, height: int, width: int) -> np.ndarray:
        if self.kind == "constant":
            return np.full((height, width), self.value)
        odd_row, odd_col = ((np.arange(n) // self.cell) % 2 == 1 for n in (height, width))
        return np.where(odd_row[:, None] != odd_col[None, :], self.value2, self.value)


@dataclass(frozen=True)
class SceneSpec:
    """What to generate: surface kind, resolution, and the kind's parameters
    (SCENE_PARAMS), each a finite number but for from_file's path."""

    kind: str
    width: int
    height: int
    params: Mapping[str, object] = field(default_factory=dict)
    albedo: AlbedoSpec = field(default_factory=AlbedoSpec)

    def __post_init__(self):
        if self.kind not in SCENE_KINDS:
            raise InvalidSpecError(f"unknown scene kind {self.kind!r}")
        if _require_int("width", self.width) < 1 or _require_int("height", self.height) < 1:
            raise InvalidSpecError("scene dimensions must be >= 1")
        object.__setattr__(self, "params", dict(self.params))
        params = {**SCENE_PARAMS[self.kind], **self.params}
        for key, value in self.params.items():
            if key not in SCENE_PARAMS[self.kind]:
                raise InvalidSpecError(f"{self.kind} scene has no parameter {key!r}")
            # a finite float64: NaN fails, and so do a bool and an int that float() overflows
            if key != "path" and (isinstance(value, bool) or not (
                    isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max)):
                raise InvalidSpecError(f"parameter {key!r} must be a finite number, got {value!r}")
        if self.kind == "sphere" and not 0.0 < params["radius"] <= 1.0:
            raise InvalidSpecError(f"sphere radius must be in (0, 1], got {params['radius']}")
        if self.kind == "from_file" and not params["path"]:
            raise InvalidSpecError("from_file scene needs params['path']")


def _frame_coords(width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Pixel-center coordinates in [-1, 1]: x as a (1, W) row, y as an (H, 1) column."""
    xs = 2.0 * (np.arange(width) + 0.5) / width - 1.0
    ys = 2.0 * (np.arange(height) + 0.5) / height - 1.0
    return xs[None, :], ys[:, None]


def _normal_map(planes: np.ndarray, mask: np.ndarray) -> NormalMap:
    """Hand a fresh (3, H, W) buffer to NormalMap, which adopts it."""
    return NormalMap(normals=freeze(planes).transpose(1, 2, 0), mask=mask)


def generate(spec: SceneSpec) -> tuple[NormalMap, AlbedoMap]:
    """Build ground-truth normal and albedo maps for a scene spec."""
    params = {**SCENE_PARAMS[spec.kind], **spec.params}
    if spec.kind == "from_file":
        nmap = ingest_normal_map(params["path"])
        if (nmap.height, nmap.width) != (spec.height, spec.width):
            raise InvalidSpecError(
                f"file is {nmap.height}x{nmap.width}, spec says {spec.height}x{spec.width}"
            )
        return nmap, AlbedoMap(values=freeze(spec.albedo.render(nmap.height, nmap.width)))

    x, y = _frame_coords(spec.width, spec.height)
    planes = np.empty((3, spec.height, spec.width))

    if spec.kind == "sphere":
        radius = float(params["radius"])
        u = x / radius
        v = y / radius
        rho2 = np.add(u * u, v * v, out=planes[2])
        mask = rho2 < 1.0
        planes[0], planes[1] = u, v
        # z = sqrt(max(1 - rho2, 0)), evaluated in place over rho2
        np.sqrt(np.clip(np.subtract(1.0, rho2, out=rho2), 0.0, None, out=rho2), out=rho2)
        np.copyto(planes, CAMERA_AXIS[:, None, None], where=~mask)
    else:
        mask = np.ones((spec.height, spec.width), dtype=bool)
        if spec.kind == "plane":
            p, q = (np.full((1, 1), float(params[k])) for k in ("p", "q"))
        else:  # paraboloid, the one kind left that SceneSpec admits
            a = float(params["curvature"])
            # f = -a (x^2 + y^2)  =>  p = -2 a x, q = -2 a y
            p, q = -2.0 * a * x, -2.0 * a * y
        # (-p, -q, 1) over its norm, summed in np.linalg.norm's order
        norm = np.add(p * p, q * q, out=planes[2])
        np.sqrt(np.add(norm, 1.0, out=norm), out=norm)
        np.divide(-p, norm, out=planes[0])
        np.divide(-q, norm, out=planes[1])
        np.divide(1.0, norm, out=norm)

    albedo = freeze(spec.albedo.render(spec.height, spec.width))
    return _normal_map(planes, mask), AlbedoMap(values=albedo)


def ingest_normal_map(path) -> NormalMap:
    """Load a 3-channel PFM as a normal map.

    ``core.finish_columns``, the solver's rule, masks vectors without a
    direction (norm <= 1e-9, inf or NaN) or facing away (z <= 0) and
    normalizes the rest; a mask sidecar, when present, is intersected with it.
    """
    data, file_mask = pfm.read_normal_map_arrays(path)
    vectors = np.array(data.transpose(2, 0, 1), dtype=float, order="C")
    mask = np.ones(data.shape[:2], dtype=bool) if file_mask is None else file_mask
    finish_columns(vectors.reshape(3, -1), np.empty(mask.size), mask.reshape(-1), unit=True)
    if not mask.any():
        raise EmptyMaskError(f"{path}: no valid camera-facing normals")
    return _normal_map(vectors, mask)


def export_normal_map(path, nmap: NormalMap) -> None:
    """Write a normal map and its mask sidecar as PFM files."""
    pfm.write_normal_map(path, nmap.normals, nmap.mask)
