"""Portable Float Map reader/writer.

A header is optional blanks, the magic "PF" (3-channel) or "Pf" (1-channel),
then width, height and scale, each after a run of blanks, and one blank or one
CR LF, all within 256 bytes (a blank is a space, tab, CR or LF; only the LF of
a CR LF may be the 257th byte).  The scale's sign encodes endianness (negative
= little-endian); raw 32-bit floats follow in bottom-to-top row order.  Chosen
because it round-trips float32 exactly with a trivially specified layout.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .core import FileFormatError

# Longest header read, whitespace included: three short lines are far shorter,
# and the cap stops a non-PFM or blank file from being scanned to its end.
MAX_HEADER_BYTES = 256
_HEADER = re.compile(
    rb"[ \t\r\n]*([^ \t\r\n]+)" + rb"[ \t\r\n]+([^ \t\r\n]+)" * 3 + rb"(\r\n|[ \t\r\n])")


def read_pfm(path) -> np.ndarray:
    """Read a PFM file into a new native float32 array, (H, W) or (H, W, 3), top row first."""
    with open(path, "rb") as f:
        head = f.read(MAX_HEADER_BYTES + 1)
        match = _HEADER.match(head)
        if match is None or match.end() > MAX_HEADER_BYTES and match[5] != b"\r\n":
            raise FileFormatError(
                f"{path}: no PFM header within its first {MAX_HEADER_BYTES} bytes")
        magic, width, height, scale = match.group(1, 2, 3, 4)
        if magic not in (b"PF", b"Pf"):
            raise FileFormatError(f"{path}: not a PFM file (magic {magic!r})")
        channels = 3 if magic == b"PF" else 1
        try:
            width, height, scale = int(width), int(height), float(scale)
        except ValueError as exc:
            raise FileFormatError(f"{path}: malformed PFM header") from exc
        if width <= 0 or height <= 0:
            raise FileFormatError(f"{path}: bad dimensions {width}x{height}")
        if scale == 0.0 or not np.isfinite(scale):
            raise FileFormatError(f"{path}: scale must be finite and nonzero, got {scale}")
        size = 4 * width * height * channels
        f.seek(match.end())
        # checked before reading, so that huge dimensions ask for no huge read
        raw = f.read(size) if size <= os.fstat(f.fileno()).st_size - f.tell() else b""
        if len(raw) != size:
            raise FileFormatError(f"{path}: truncated pixel data")
    data = np.frombuffer(raw, dtype="<f4" if scale < 0.0 else ">f4")
    data = data.reshape((height, width) if channels == 1 else (height, width, 3))
    return np.array(data[::-1], dtype=np.float32)  # file stores bottom row first


def write_pfm(path, image: np.ndarray) -> None:
    """Write a real array as little-endian float32 PFM; (H, W) -> "Pf", (H, W, 3) -> "PF"."""
    arr = np.asarray(image)
    if arr.ndim == 2:
        magic = b"Pf"
    elif arr.ndim == 3 and arr.shape[2] == 3:
        magic = b"PF"
    else:
        raise FileFormatError(f"cannot write array of shape {arr.shape} as PFM")
    payload = np.ascontiguousarray(arr[::-1], dtype="<f4")
    with open(path, "wb") as f:
        f.write(magic + f"\n{arr.shape[1]} {arr.shape[0]}\n-1.0\n".encode("ascii"))
        f.write(payload)


def mask_path(path) -> str:
    """Sidecar path for the 0/1 validity mask of a normal map."""
    path = os.fspath(path)
    stem, ext = os.path.splitext(path)
    return f"{stem}.mask{ext or '.pfm'}"


def write_normal_map(path, normals: np.ndarray, mask: np.ndarray) -> None:
    """Write normals as a 3-channel PFM plus a 1-channel 0/1 mask sidecar."""
    write_pfm(path, normals)
    write_pfm(mask_path(path), mask)


def read_normal_map_arrays(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Read a 3-channel PFM and, if present, its mask sidecar."""
    normals = read_pfm(path)
    if normals.ndim != 3:
        raise FileFormatError(f"{path}: expected a 3-channel normal map")
    mpath = mask_path(path)
    if os.path.exists(mpath):
        mask = read_pfm(mpath)
        if mask.ndim != 2 or mask.shape != normals.shape[:2]:
            raise FileFormatError(f"{mpath}: mask does not match {path}")
        return normals, mask > 0.5
    return normals, None
