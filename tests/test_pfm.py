import io
import re
import struct

import numpy as np
import pytest

from psdesign import FileFormatError, pfm
from psdesign.cli import main
from psdesign.pfm import mask_path, read_normal_map_arrays, read_pfm, write_normal_map, write_pfm

from test_forward import traced_peak


def test_single_channel_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.standard_normal((7, 5)).astype(np.float32) * 1e10
    # salt in exact edge values: zeros, subnormals, float32 extremes
    img[0, 0] = 0.0
    img[0, 1] = -0.0
    img[1, 0] = np.float32(1e-40)  # subnormal
    img[1, 1] = np.finfo(np.float32).max
    img[2, 0] = np.finfo(np.float32).tiny
    img[2, 1] = -np.finfo(np.float32).max
    path = tmp_path / "a.pfm"
    write_pfm(path, img)
    back = read_pfm(path)
    assert back.dtype == np.float32
    assert img.tobytes() == back.tobytes()


def test_three_channel_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    img = (rng.standard_normal((9, 4, 3)) * 10).astype(np.float32)
    path = tmp_path / "b.pfm"
    write_pfm(path, img)
    back = read_pfm(path)
    assert back.shape == (9, 4, 3)
    assert img.tobytes() == back.tobytes()


def test_random_finite_float32_values(tmp_path):
    # arbitrary bit patterns, filtered to finite floats
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2**32, size=4096, dtype=np.uint32)
    vals = bits.view(np.float32)
    vals = vals[np.isfinite(vals)][:4000]
    img = vals[: (len(vals) // 4) * 4].reshape(-1, 4)
    path = tmp_path / "c.pfm"
    write_pfm(path, img)
    assert img.tobytes() == read_pfm(path).tobytes()


def test_row_order_is_bottom_to_top_in_file(tmp_path):
    img = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)  # row 0 is the top
    path = tmp_path / "d.pfm"
    write_pfm(path, img)
    raw = path.read_bytes()
    # header: magic, dims, scale; payload starts with the bottom row (3, 4)
    payload = raw.split(b"-1.0\n", 1)[1]
    assert struct.unpack("<4f", payload) == (3.0, 4.0, 1.0, 2.0)


def test_big_endian_read(tmp_path):
    path = tmp_path / "be.pfm"
    with open(path, "wb") as f:
        f.write(b"Pf\n1 2\n1.0\n")  # positive scale: big-endian
        f.write(np.array([-2.5, 1.5], dtype=">f4").tobytes())  # bottom row first
    back = read_pfm(path)
    assert back.shape == (2, 1)
    assert back[0, 0] == 1.5 and back[1, 0] == -2.5


def _edge_frame():
    """A float64 frame of values whose float32 rounding is an edge case."""
    f32 = np.finfo(np.float32)
    edges = [np.nan, np.inf, -np.inf, 1e39, -1e300, float(f32.max) * (1 + 2.0**-25),
             1e-40, -1e-45, 5e-324, -0.0, 0.0, 1.0 / 3.0, float(f32.tiny) / 3.0, 1.0 + 2.0**-24]
    frame = np.random.default_rng(5).standard_normal((6, 7))
    frame.flat[:len(edges)] = edges
    return frame


# float64 edge values, a bool mask, and the (H, W, 3) view of a (3, H, W) buffer
UNCAST_FRAMES = {
    "float64": _edge_frame,
    "bool mask": lambda: np.random.default_rng(6).random((5, 4)) < 0.5,
    "component-major view": lambda: np.random.default_rng(7).random((3, 5, 4)).transpose(1, 2, 0),
}


@pytest.mark.parametrize("case", list(UNCAST_FRAMES))
def test_writing_any_real_array_rounds_it_to_float32_once(tmp_path, case):
    frame = UNCAST_FRAMES[case]()
    with np.errstate(over="ignore"):  # values past float32's range round to inf either way
        write_pfm(tmp_path / "uncast.pfm", frame)
        write_pfm(tmp_path / "cast.pfm", frame.astype(np.float32))
    assert (tmp_path / "uncast.pfm").read_bytes() == (tmp_path / "cast.pfm").read_bytes()


@pytest.mark.parametrize("scale, order", [(b"-1.0", "<f4"), (b"1.0", ">f4")])
@pytest.mark.parametrize("shape", [(3, 2), (1, 4), (3, 2, 3), (1, 2, 3)])
def test_read_gives_an_owned_native_float32_top_row_first(tmp_path, scale, order, shape):
    img = np.arange(np.prod(shape), dtype=np.float32).reshape(shape) - 5.5
    magic, path = b"PF" if len(shape) == 3 else b"Pf", tmp_path / "a.pfm"
    header = magic + f"\n{shape[1]} {shape[0]}\n".encode("ascii") + scale + b"\n"
    path.write_bytes(header + img[::-1].astype(order).tobytes())  # bottom row first
    back = read_pfm(path)
    assert back.dtype == np.float32 and back.dtype.isnative
    assert back.flags.c_contiguous and back.flags.writeable and back.flags.owndata
    assert back.tobytes() == img.tobytes()


def test_a_frame_is_converted_in_one_copy_each_way(tmp_path):
    frame = np.random.default_rng(8).random((1024, 1024))
    frame_bytes, path = 4 * frame.size, tmp_path / "f.pfm"  # one float32 frame
    assert traced_peak(lambda: write_pfm(path, frame)) < 1.25 * frame_bytes
    # the file's bytes and the float32 frame built from them
    assert traced_peak(lambda: read_pfm(path)) < 2.25 * frame_bytes


def test_header_errors(tmp_path):
    bad_magic = tmp_path / "x.pfm"
    bad_magic.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
    with pytest.raises(FileFormatError):
        read_pfm(bad_magic)

    truncated = tmp_path / "t.pfm"
    truncated.write_bytes(b"Pf\n4 4\n-1.0\n" + b"\x00" * 10)
    with pytest.raises(FileFormatError):
        read_pfm(truncated)

    zero_scale = tmp_path / "z.pfm"
    zero_scale.write_bytes(b"Pf\n1 1\n0.0\n" + b"\x00" * 4)
    with pytest.raises(FileFormatError):
        read_pfm(zero_scale)

    garbage_dims = tmp_path / "g.pfm"
    garbage_dims.write_bytes(b"Pf\nx y\n-1.0\n")
    with pytest.raises(FileFormatError):
        read_pfm(garbage_dims)


def test_write_rejects_bad_shapes(tmp_path):
    with pytest.raises(FileFormatError):
        write_pfm(tmp_path / "bad.pfm", np.zeros((2, 2, 4), dtype=np.float32))


def test_mask_path():
    assert mask_path("out/normals.pfm") == "out/normals.mask.pfm"


@pytest.mark.parametrize("channels", [1, 3])
def test_crlf_header_round_trip(tmp_path, channels):
    # the byte after "-1.0\r" is the "\n" of the line end, not the first float;
    # runs of spaces and tabs and a blank line between the tokens read the same
    img = np.arange(1, 7, dtype=np.float32).reshape((2, 3) if channels == 1 else (1, 2, 3))
    path = tmp_path / "crlf.pfm"
    write_pfm(path, img)
    raw = path.read_bytes()
    header, payload = raw[:len(raw) - img.nbytes], raw[len(raw) - img.nbytes:]
    magic, dims, scale, _ = header.split(b"\n")
    spaced = magic + b" \t \n" + dims.replace(b" ", b"\t  \t") + b"  \n\n\t" + scale + b"\n"
    for spelled in (header.replace(b"\n", b"\r\n"), spaced):
        path.write_bytes(spelled + payload)
        assert read_pfm(path).tobytes() == img.tobytes()


def _normal_map_file(tmp_path, name, header=b"PF\n2 2\n-1.0\n", mask_shape=(2, 2)):
    """A 2x2 map of camera-facing normals whose file starts with ``header``, and
    a mask sidecar of ``mask_shape``."""
    path = tmp_path / f"{name}.pfm"
    normals = np.zeros((2, 2, 3), dtype=np.float32)
    normals[..., 2] = 1.0
    write_normal_map(path, normals, np.ones(mask_shape, dtype=np.float32))
    path.write_bytes(header + normals.astype("<f4").tobytes())
    return path


# (header of the normal map, shape of its mask sidecar)
BAD_NORMAL_MAPS = {
    "end of file in the header": (b"PF\n2", (2, 2)),
    "zero width": (b"PF\n0 2\n-1.0\n", (2, 2)),
    "negative height": (b"PF\n2 -2\n-1.0\n", (2, 2)),
    "nan scale": (b"PF\n2 2\nnan\n", (2, 2)),
    "inf scale": (b"PF\n2 2\n-inf\n", (2, 2)),
    "mask of another shape": (b"PF\n2 2\n-1.0\n", (2, 1)),
    "endless header token": (b"P" * 8192, (2, 2)),
    "endless header blanks": (b"PF" + b" " * 8192, (2, 2)),
    # a payload of 1.2e19 bytes, past the largest read size
    "dimensions past the end of the file": (b"PF\n1000000000 1000000000\n-1.0\n", (2, 2)),
}


class _CountingReader(io.BufferedReader):
    """A binary file that appends the length of every read to ``reads``."""

    def __init__(self, path, reads):
        super().__init__(io.FileIO(path))
        self.reads = reads

    def read(self, size=-1):
        data = super().read(size)
        self.reads.append(len(data))
        return data


@pytest.mark.parametrize("case", list(BAD_NORMAL_MAPS))
def test_bad_normal_map_is_io_error(tmp_path, capsys, monkeypatch, case):
    header, mask_shape = BAD_NORMAL_MAPS[case]
    bad = _normal_map_file(tmp_path, "bad", header, mask_shape)
    reads = []
    with monkeypatch.context() as patch:
        patch.setattr(pfm, "open", lambda path, mode: _CountingReader(path, reads), raising=False)
        with pytest.raises(FileFormatError, match=re.escape(str(bad))):
            read_normal_map_arrays(bad)
    # rejected from its header: not read to the end of 8 KiB of token or blanks
    assert sum(reads) <= 1024
    good = _normal_map_file(tmp_path, "good")
    argv = ["evaluate", "--est", str(bad), "--gt", str(good), "--out", str(tmp_path / "e")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("psdesign: I/O error: ") and str(bad) in err


# headers of a 2x1 image: blanks may lead the magic, and the scale's line end
# may be one blank or one CR LF, within 256 bytes but for the LF of that CR LF
ACCEPTED_HEADERS = {
    "leading blanks": b"  PF\n2 1\n-1.0\n",
    "CR LF on bytes 256 and 257": b"Pf\n2 1\n" + b" " * 244 + b"-1.0\r\n",
    "ending byte 256": b"Pf\n2 1\n" + b" " * 244 + b"-1.0\n",
}
# (header, what the message says besides the path)
REJECTED_HEADERS = {
    "ending byte 257": (b"Pf\n2 1\n" + b" " * 245 + b"-1.0\n", "256 bytes"),
    "blanks only": (b" \t\r\n" * 100, "256 bytes"),
    "wrong magic": (b"P6\n2 1\n255\n", "not a PFM file"),
}


@pytest.mark.parametrize("case", list(ACCEPTED_HEADERS))
def test_header_read_up_to_its_last_byte(tmp_path, case):
    header = ACCEPTED_HEADERS[case]
    channels = 3 if header.lstrip().startswith(b"PF") else 1
    pixels = np.repeat(np.float32([0.0, 1.0]), channels)
    path = tmp_path / "a.pfm"
    path.write_bytes(header + pixels.astype("<f4").tobytes())
    # a payload read one byte early (from the LF of the CR LF) reads [1.4e-44, -0]
    assert read_pfm(path).tobytes() == pixels.tobytes()


@pytest.mark.parametrize("case", list(REJECTED_HEADERS))
def test_header_rejected(tmp_path, case):
    header, message = REJECTED_HEADERS[case]
    path = tmp_path / "r.pfm"
    path.write_bytes(header + np.float32([0.0, 1.0]).astype("<f4").tobytes())
    with pytest.raises(FileFormatError, match=re.escape(str(path))) as err:
        read_pfm(path)
    assert message in str(err.value)
