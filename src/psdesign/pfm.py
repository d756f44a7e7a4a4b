"""Portable Float Map reader/writer.

Layout: a "PF" (3-channel) or "Pf" (1-channel) magic line, a "width height"
line, a scale line whose sign encodes endianness (negative = little-endian),
then raw 32-bit floats in bottom-to-top row order.  Chosen because it
round-trips float32 exactly with a trivially specified layout.
"""

from __future__ import annotations

import os

import numpy as np

from .core import FileFormatError

# Longest header read, whitespace included: three short lines are far shorter,
# and the cap stops a non-PFM or blank file from being scanned to its end.
MAX_HEADER_BYTES = 256


def _read_token(f) -> bytes:
    """Next whitespace-delimited token of the header; consumes the byte that
    ends it, or both bytes of a CR LF line end."""
    token = b""
    while True:
        if f.tell() >= MAX_HEADER_BYTES:
            raise FileFormatError(f"{f.name}: PFM header longer than {MAX_HEADER_BYTES} bytes")
        ch = f.read(1)
        if ch == b"":
            raise FileFormatError(f"{f.name}: unexpected end of file in PFM header")
        if ch in b" \t\r\n":
            if token:
                if ch == b"\r" and f.peek(1)[:1] == b"\n":
                    f.read(1)
                return token
            continue
        token += ch


def read_pfm(path) -> np.ndarray:
    """Read a PFM file into float32, shape (H, W) or (H, W, 3), top row first."""
    with open(path, "rb") as f:
        magic = _read_token(f)
        if magic == b"PF":
            channels = 3
        elif magic == b"Pf":
            channels = 1
        else:
            raise FileFormatError(f"{path}: not a PFM file (magic {magic!r})")
        try:
            width = int(_read_token(f))
            height = int(_read_token(f))
            scale = float(_read_token(f))
        except ValueError as exc:
            raise FileFormatError(f"{path}: malformed PFM header") from exc
        if width <= 0 or height <= 0:
            raise FileFormatError(f"{path}: bad dimensions {width}x{height}")
        if scale == 0.0 or not np.isfinite(scale):
            raise FileFormatError(f"{path}: scale must be finite and nonzero, got {scale}")
        size = 4 * width * height * channels
        # checked before reading, so that huge dimensions ask for no huge read
        raw = f.read(size) if size <= os.fstat(f.fileno()).st_size - f.tell() else b""
        if len(raw) != size:
            raise FileFormatError(f"{path}: truncated pixel data")
    dtype = "<f4" if scale < 0.0 else ">f4"
    data = np.frombuffer(raw, dtype=dtype).astype(np.float32)
    data = data.reshape((height, width) if channels == 1 else (height, width, 3))
    return data[::-1].copy()  # file stores bottom row first


def write_pfm(path, image: np.ndarray) -> None:
    """Write float data as little-endian PFM; (H, W) -> "Pf", (H, W, 3) -> "PF"."""
    arr = np.asarray(image)
    if arr.ndim == 2:
        magic = b"Pf"
    elif arr.ndim == 3 and arr.shape[2] == 3:
        magic = b"PF"
    else:
        raise FileFormatError(f"cannot write array of shape {arr.shape} as PFM")
    height, width = arr.shape[:2]
    payload = arr[::-1].astype("<f4").tobytes()
    with open(path, "wb") as f:
        f.write(magic + b"\n")
        f.write(f"{width} {height}\n".encode("ascii"))
        f.write(b"-1.0\n")
        f.write(payload)


def mask_path(path) -> str:
    """Sidecar path for the 0/1 validity mask of a normal map."""
    path = os.fspath(path)
    stem, ext = os.path.splitext(path)
    return f"{stem}.mask{ext or '.pfm'}"


def write_normal_map(path, normals: np.ndarray, mask: np.ndarray) -> None:
    """Write normals as a 3-channel PFM plus a 1-channel 0/1 mask sidecar."""
    write_pfm(path, np.asarray(normals, dtype=np.float32))
    write_pfm(mask_path(path), np.asarray(mask, dtype=np.float32))


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
