import itertools
import tracemalloc

import numpy as np
import pytest

from psdesign import EmptyMaskError, FileFormatError, InvalidSpecError
from psdesign.pfm import write_pfm
from psdesign.core import CAMERA_AXIS
from psdesign.scenes import (
    SCENE_PARAMS,
    AlbedoSpec,
    SceneSpec,
    export_normal_map,
    generate,
    ingest_normal_map,
)

ORACLE_SURFACES = [
    ("sphere", {}), ("sphere", {"radius": 0.37}), ("sphere", {"radius": 0.9}),
    ("sphere", {"radius": 1.0}), ("paraboloid", {}), ("paraboloid", {"curvature": 0.5}),
    ("paraboloid", {"curvature": -3.0}), ("plane", {}), ("plane", {"p": 0.3, "q": -1.7}),
    ("plane", {"p": 12.0, "q": 0.0}),
]
# (width, height), odd, one-pixel and degenerate frames included
ORACLE_SIZES = [(256, 256), (64, 64), (33, 17), (7, 3), (1, 9), (10, 1), (1, 1)]
# the last cell is larger than every frame, so its board is one cell
ORACLE_ALBEDOS = [AlbedoSpec(value=0.7)] + [
    AlbedoSpec(kind="checkerboard", value=0.6, value2=0.95, cell=cell) for cell in (1, 3, 8, 300)
]


def meshgrid_scene(kind, width, height, params, albedo):
    """The full-frame grid evaluation that generate's broadcasting replaces."""
    xs = 2.0 * (np.arange(width) + 0.5) / width - 1.0
    ys = 2.0 * (np.arange(height) + 0.5) / height - 1.0
    x, y = np.meshgrid(xs, ys)
    mask = np.ones((height, width), dtype=bool)
    if kind == "sphere":
        radius = float(params.get("radius", 0.9))
        u = x / radius
        v = y / radius
        rho2 = u * u + v * v
        mask = rho2 < 1.0
        normals = np.stack([u, v, np.sqrt(np.clip(1.0 - rho2, 0.0, None))])
        normals[:, ~mask] = CAMERA_AXIS[:, None]
    else:
        if kind == "plane":
            p = np.full_like(x, float(params.get("p", 0.0)))
            q = np.full_like(y, float(params.get("q", 0.0)))
        else:
            a = float(params.get("curvature", 0.5))
            p, q = -2.0 * a * x, -2.0 * a * y
        normals = np.stack([-p, -q, np.ones_like(p)])
        normals /= np.linalg.norm(normals, axis=0)
    if albedo.kind == "constant":
        values = np.full((height, width), albedo.value)
    else:
        iy, ix = np.mgrid[0:height, 0:width]
        board = ((iy // albedo.cell) + (ix // albedo.cell)) % 2
        values = np.where(board == 0, albedo.value, albedo.value2)
    return normals.transpose(1, 2, 0), mask, values


class TestGenerate:
    def test_flat_plane(self):
        nmap, amap = generate(SceneSpec(kind="plane", width=8, height=6))
        assert nmap.mask.all()
        assert np.abs(nmap.normals - [0.0, 0.0, 1.0]).max() == 0.0
        assert np.all(amap.values == 1.0)

    def test_tilted_plane(self):
        spec = SceneSpec(kind="plane", width=4, height=4, params={"p": 0.5, "q": -0.25})
        nmap, _ = generate(spec)
        expected = np.array([-0.5, 0.25, 1.0])
        expected /= np.linalg.norm(expected)
        assert np.abs(nmap.normals - expected).max() < 1e-15

    def test_sphere_center_and_rim(self):
        # odd dimensions put one pixel center exactly at the origin
        nmap, _ = generate(SceneSpec(kind="sphere", width=65, height=65,
                                     params={"radius": 0.9}))
        assert np.array_equal(nmap.normals[32, 32], [0.0, 0.0, 1.0])
        assert not nmap.mask[0, 0]
        assert not nmap.mask[32, 0]  # x = -0.985 < -r

    def test_sphere_mask_rasterization_rule(self):
        width = height = 24
        radius = 0.7
        nmap, _ = generate(SceneSpec(kind="sphere", width=width, height=height,
                                     params={"radius": radius}))
        xs = 2.0 * (np.arange(width) + 0.5) / width - 1.0
        ys = 2.0 * (np.arange(height) + 0.5) / height - 1.0
        xg, yg = np.meshgrid(xs, ys)
        assert np.array_equal(nmap.mask, xg**2 + yg**2 < radius**2)

    def test_paraboloid_normal_by_differentiation(self):
        # f = -a (x^2 + y^2): the gradient at a known pixel center, normalized,
        # is the oracle for the stored normal
        a = 0.5
        spec = SceneSpec(kind="paraboloid", width=5, height=9, params={"curvature": a})
        nmap, _ = generate(spec)
        # width 5 puts column 3 at x = 0.4; height 9 puts row 4 at y = 0
        x, y = 0.4, 0.0
        p = -2.0 * a * x
        q = -2.0 * a * y
        expected = np.array([-p, -q, 1.0])
        expected /= np.linalg.norm(expected)
        assert np.allclose(expected, [0.3714, 0.0, 0.9285], atol=1e-4)
        assert np.abs(nmap.normals[4, 3] - expected).max() < 1e-12

    def test_generated_normals_unit_and_camera_facing(self):
        for kind, params in (("sphere", {"radius": 0.8}),
                             ("paraboloid", {"curvature": 1.2}),
                             ("plane", {"p": 1.0, "q": -2.0})):
            nmap, _ = generate(SceneSpec(kind=kind, width=16, height=16, params=params))
            valid = nmap.valid_normals()
            assert np.abs(np.einsum("ij,ij->i", valid, valid) - 1.0).max() < 1e-9
            assert valid[:, 2].min() > 0.0

    def test_checkerboard_albedo(self):
        spec = SceneSpec(kind="plane", width=8, height=8,
                         albedo=AlbedoSpec(kind="checkerboard", value=0.4, value2=0.9, cell=2))
        _, amap = generate(spec)
        assert amap.values[0, 0] == 0.4
        assert amap.values[0, 2] == 0.9
        assert amap.values[2, 2] == 0.4

    @pytest.mark.parametrize("kind, params", ORACLE_SURFACES, ids=[
        " ".join([kind, *(f"{k}={v}" for k, v in params.items())]) for kind, params in ORACLE_SURFACES
    ])
    def test_bytes_of_the_meshgrid_evaluation(self, kind, params):
        for (width, height), albedo in itertools.product(ORACLE_SIZES, ORACLE_ALBEDOS):
            nmap, amap = generate(SceneSpec(kind=kind, width=width, height=height,
                                            params=params, albedo=albedo))
            normals, mask, values = meshgrid_scene(kind, width, height, params, albedo)
            case = (width, height, albedo)
            assert nmap.normals.tobytes() == normals.tobytes(), case
            assert nmap.mask.tobytes() == mask.tobytes(), case
            assert amap.values.tobytes() == values.tobytes(), case

    @pytest.mark.parametrize("kind, params", [("sphere", {}), ("paraboloid", {}),
                                              ("plane", {"p": 0.3, "q": -1.7})],
                             ids=["sphere", "paraboloid", "tilted plane"])
    def test_transient_memory_below_twice_the_output(self, kind, params):
        # two full-frame coordinate grids plus a stacked copy would pass 2x
        spec = SceneSpec(kind=kind, width=256, height=256, params=params,
                         albedo=AlbedoSpec(kind="checkerboard", value=0.6, value2=0.95))
        nmap, amap = generate(spec)
        out_bytes = nmap.normals.nbytes + nmap.mask.nbytes + amap.values.nbytes
        tracemalloc.start()
        try:
            generate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * out_bytes

    @pytest.mark.parametrize("field, make", [
        ("width", lambda: SceneSpec(kind="sphere", width=64.5, height=64)),
        ("width", lambda: SceneSpec(kind="sphere", width=64.0, height=64)),
        ("height", lambda: SceneSpec(kind="plane", width=8, height=True)),
        ("height", lambda: SceneSpec(kind="plane", width=8, height=np.float64(8.0))),
        ("cell", lambda: AlbedoSpec(kind="checkerboard", cell=2.5)),
        ("cell", lambda: AlbedoSpec(kind="checkerboard", cell=8.0)),
        ("cell", lambda: AlbedoSpec(kind="checkerboard", cell=True)),
        ("cell", lambda: AlbedoSpec(cell=2.5)),
    ], ids=["width 64.5", "width 64.0", "height True", "height float64",
            "cell 2.5", "cell 8.0", "cell True", "constant cell 2.5"])
    def test_non_integer_sizes_rejected(self, field, make):
        with pytest.raises(InvalidSpecError, match=f"^{field} must be an integer"):
            make()

    def test_numpy_integer_sizes_accepted(self):
        albedo = AlbedoSpec(kind="checkerboard", value=0.6, value2=0.95, cell=np.int32(3))
        nmap, amap = generate(SceneSpec(kind="sphere", width=np.int64(7), height=np.uint8(5),
                                        albedo=albedo))
        assert nmap.normals.shape == (5, 7, 3)
        assert amap.values.tobytes() == albedo.render(5, 7).tobytes()

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpecError):
            SceneSpec(kind="torus", width=4, height=4)
        with pytest.raises(InvalidSpecError):
            SceneSpec(kind="plane", width=0, height=4)
        with pytest.raises(InvalidSpecError):
            AlbedoSpec(value=0.0)
        with pytest.raises(InvalidSpecError):
            generate(SceneSpec(kind="sphere", width=4, height=4, params={"radius": 1.5}))
        with pytest.raises(InvalidSpecError):
            generate(SceneSpec(kind="from_file", width=4, height=4))

    @pytest.mark.parametrize("kind, params, key", [
        ("sphere", {"radus": 0.5}, "radus"),
        ("plane", {"p": 0.1, "radius": 0.5}, "radius"),
        ("from_file", {"path": "n.pfm", "curvature": 0.5}, "curvature"),
        ("paraboloid", {"curvature": float("nan")}, "curvature"),
        ("plane", {"p": float("inf")}, "p"),
        ("plane", {"q": -np.inf}, "q"),
        ("paraboloid", {"curvature": 10**400}, "curvature"),
        ("sphere", {"radius": "0.5"}, "radius"),
        ("sphere", {"radius": True}, "radius"),
        ("plane", {"p": 0.1, "q": False}, "q"),
        ("from_file", {}, "path"),
        ("from_file", {"path": ""}, "path"),
    ], ids=["misspelt radius", "radius of a plane", "curvature of a file", "nan curvature",
            "inf p", "-inf q", "int past float64", "string radius", "True radius", "False q",
            "no path", "empty path"])
    def test_bad_params_rejected_where_the_spec_is_built(self, kind, params, key):
        # a misspelt key rendered the default sphere, and a non-finite one
        # failed inside generate with a message about unit normals
        with pytest.raises(InvalidSpecError) as err:
            SceneSpec(kind=kind, width=8, height=8, params=params)
        assert f"'{key}'" in str(err.value)

    @pytest.mark.parametrize("radius", [0.0, -0.5, 1.5])
    def test_radius_out_of_range_rejected_where_the_spec_is_built(self, radius):
        with pytest.raises(InvalidSpecError, match="radius"):
            SceneSpec(kind="sphere", width=8, height=8, params={"radius": radius})

    def test_defaults_are_the_tables(self):
        for kind in ("sphere", "paraboloid", "plane"):
            implicit, explicit = (generate(SceneSpec(kind=kind, width=9, height=7, params=params))
                                  for params in ({}, SCENE_PARAMS[kind]))
            assert implicit[0].normals.tobytes() == explicit[0].normals.tobytes()
            assert np.array_equal(implicit[0].mask, explicit[0].mask)
        # params are kept as given, so reports echo them unchanged
        spec = SceneSpec(kind="sphere", width=2, height=2, params={"radius": 1})
        assert spec.params == {"radius": 1} and type(spec.params["radius"]) is int


class TestIngest:
    def test_round_trip(self, tmp_path):
        nmap, _ = generate(SceneSpec(kind="sphere", width=21, height=21))
        path = tmp_path / "n.pfm"
        export_normal_map(path, nmap)
        loaded = ingest_normal_map(path)
        assert np.array_equal(loaded.mask, nmap.mask)
        # float32 quantization bounds the round-trip error
        assert np.abs(loaded.normals[loaded.mask] - nmap.normals[nmap.mask]).max() < 2e-7
        # ingestion itself is deterministic bit for bit
        again = ingest_normal_map(path)
        assert np.array_equal(again.normals, loaded.normals)
        assert np.array_equal(again.mask, loaded.mask)

    def test_zero_vector_pixel_masked(self, tmp_path):
        data = np.zeros((2, 2, 3), dtype=np.float32)
        data[..., 2] = 1.0
        data[1, 1] = 0.0
        path = tmp_path / "z.pfm"
        write_pfm(path, data)
        loaded = ingest_normal_map(path)
        assert loaded.mask[0, 0] and not loaded.mask[1, 1]

    def test_unnormalized_vectors_normalized(self, tmp_path):
        data = np.zeros((1, 1, 3), dtype=np.float32)
        data[0, 0] = (0.0, 0.0, 2.0)
        path = tmp_path / "u.pfm"
        write_pfm(path, data)
        loaded = ingest_normal_map(path)
        assert np.array_equal(loaded.normals[0, 0], [0.0, 0.0, 1.0])

    def test_non_finite_and_backfacing_masked(self, tmp_path):
        data = np.zeros((1, 3, 3), dtype=np.float32)
        data[0, 0] = (0.0, 0.0, 1.0)
        data[0, 1] = (np.nan, 0.0, 1.0)
        data[0, 2] = (0.0, 0.0, -1.0)
        path = tmp_path / "bad.pfm"
        write_pfm(path, data)
        loaded = ingest_normal_map(path)
        assert list(loaded.mask[0]) == [True, False, False]

    def test_a_vector_at_or_below_the_solvers_floor_is_masked(self, tmp_path):
        # core.finish_columns keeps a direction above a norm of 1e-9, for the
        # solver and the ingest alike: a camera-facing vector of norm 5e-10 is
        # masked, and every other pixel is v / np.linalg.norm(v), bit for bit
        rng = np.random.default_rng(35)
        data = rng.normal(size=(6, 7, 3)) * 10.0 ** rng.uniform(-8.0, 8.0, size=(6, 7, 1))
        data[..., 2] = np.abs(data[..., 2]) + 0.5 * np.abs(data).max(axis=-1)
        data[2, 3] = (3e-10, 0.0, 4e-10)
        path = tmp_path / "tiny.pfm"
        write_pfm(path, data)
        vectors = data.astype(np.float32).astype(float)
        assert 4.9e-10 < np.linalg.norm(vectors[2, 3]) < 5.1e-10
        loaded = ingest_normal_map(path)
        others = np.ones((6, 7), dtype=bool)
        others[2, 3] = False
        assert np.array_equal(loaded.mask, others)
        assert np.array_equal(loaded.normals[2, 3], CAMERA_AXIS)
        unit = vectors / np.linalg.norm(vectors, axis=-1, keepdims=True)
        assert loaded.normals[others].tobytes() == unit[others].tobytes()

    def test_empty_after_filtering(self, tmp_path):
        data = np.zeros((2, 2, 3), dtype=np.float32)  # all zero vectors
        path = tmp_path / "e.pfm"
        write_pfm(path, data)
        with pytest.raises(EmptyMaskError):
            ingest_normal_map(path)

    def test_single_channel_rejected(self, tmp_path):
        path = tmp_path / "gray.pfm"
        write_pfm(path, np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(FileFormatError):
            ingest_normal_map(path)

    def test_from_file_scene(self, tmp_path):
        nmap, _ = generate(SceneSpec(kind="paraboloid", width=12, height=10))
        path = tmp_path / "p.pfm"
        export_normal_map(path, nmap)
        spec = SceneSpec(kind="from_file", width=12, height=10,
                         params={"path": str(path)}, albedo=AlbedoSpec(value=0.5))
        loaded, amap = generate(spec)
        assert loaded.mask.all()
        assert np.all(amap.values == 0.5)
