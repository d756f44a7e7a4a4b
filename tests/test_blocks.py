"""Block-walked per-pixel layers: the block size and the thread count change
no output bit, the sliced light and solve products keep the whole-frame
bytes, the checks still reach the last partial block, and every map holds
its normals component-major."""

import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from psdesign import (
    InvalidSpecError,
    LightConfig,
    NoiseSpec,
    NormalMap,
    add_noise,
    compare_configs,
    compare_maps,
    render_stack,
    solve_map,
)
from psdesign import core, solver
from psdesign.scenes import AlbedoSpec, SceneSpec, export_normal_map, generate, ingest_normal_map
from test_forward import psdesign_threads

DEFAULT = core.BLOCK_PIXELS


def reach_threads(monkeypatch, cpus: int = 2) -> list:
    """Report ``cpus`` CPUs and send frames of any size to the runner's
    threads; returns the list to which each pool opened appends itself."""
    pools = []

    def counting(*args, **kwargs):
        pools.append(ThreadPoolExecutor(*args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(core, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(core, "PARALLEL_MIN_PIXELS", 1)
    monkeypatch.setattr(core, "ThreadPoolExecutor", counting)
    return pools


def cap_rig(m: int) -> LightConfig:
    """m unit rows on a golden-angle spiral within 40 degrees of the camera axis."""
    k = np.arange(m) + 0.5
    slant = np.radians(40.0) * np.sqrt(k / m)
    tilt = k * np.pi * (3.0 - np.sqrt(5.0))
    return LightConfig(rows=np.stack([np.sin(slant) * np.cos(tilt),
                                      np.sin(slant) * np.sin(tilt), np.cos(slant)], axis=1))


RIGS = {"cap4": cap_rig(4), "cap16": cap_rig(16)}


def sphere(h: int, w: int):
    return generate(SceneSpec(kind="sphere", width=w, height=h,
                              albedo=AlbedoSpec(kind="checkerboard", value=0.9, value2=0.6,
                                                cell=3)))


def stats_bytes(stats):
    if stats is None:
        return None
    error_map = None if stats.error_map is None else stats.error_map.tobytes()
    return (stats.mean_deg, stats.median_deg, stats.p90_deg, stats.max_deg, stats.count,
            stats.histogram_counts.tobytes(), error_map)


def layer_outputs(h: int, w: int) -> list:
    """Everything the four block-walked layers return on an h x w sphere."""
    nmap, amap = sphere(h, w)
    lights = RIGS["cap16"]
    clean = render_stack(nmap, amap, lights)
    est, albedo = solve_map(add_noise(clean, NoiseSpec.uniform(0.01, lights.m, seed=5)), lights)
    table = compare_configs(nmap, amap, RIGS, sigma=0.01, trials=2, seed=5)
    return [clean.images.tobytes(), est.normals.tobytes(), est.mask.tobytes(),
            albedo.values.tobytes(), stats_bytes(compare_maps(est, nmap))] + [
        (row.name, row.phi, row.note, stats_bytes(row.stats)) for row in table]


# pixel counts below one block, equal to it, one more, and a non-multiple
BLOCK_CASES = [
    (1, (1, 1)), (1, (1, 2)), (1, (5, 3)),
    (7, (1, 5)), (7, (1, 7)), (7, (2, 4)), (7, (30, 20)),
    (DEFAULT, (100, 100)), (DEFAULT, (128, DEFAULT // 128)), (DEFAULT, (99, 331)),
    (DEFAULT, (300, 200)),
]


@pytest.mark.parametrize("block, shape", BLOCK_CASES,
                         ids=[f"{b}-{h}x{w}" for b, (h, w) in BLOCK_CASES])
def test_block_size_changes_no_byte(monkeypatch, block, shape):
    h, w = shape
    assert h * w < core.PARALLEL_MIN_PIXELS  # the reference runs in a plain loop
    monkeypatch.setattr(core, "BLOCK_PIXELS", h * w + 1)  # one block: the whole frame
    whole = layer_outputs(h, w)
    assert whole[4] is not None and all(row[2] == "ok" for row in whole[5:])
    monkeypatch.setattr(core, "BLOCK_PIXELS", block)
    assert layer_outputs(h, w) == whole
    for cpus in (1, 2, 3):
        pools = reach_threads(monkeypatch, cpus)
        assert layer_outputs(h, w) == whole, f"{cpus} CPUs"
        assert bool(pools) == (cpus > 1)


@pytest.mark.parametrize("count", [0, 1, 7, core.PRODUCT_COLUMNS - 1, core.PRODUCT_COLUMNS,
                                   2 * core.PRODUCT_COLUMNS - 1, 2 * core.PRODUCT_COLUMNS,
                                   5 * core.PRODUCT_COLUMNS + 13])
def test_product_blocks_are_fixed_width_with_the_tail_merged(monkeypatch, count):
    blocks = core.product_blocks(count)
    assert [i for s in blocks for i in range(count)[s]] == list(range(count))
    widths = [s.stop - s.start for s in blocks]
    assert all(width == core.PRODUCT_COLUMNS for width in widths[:-1])
    assert all(0 < width < 2 * core.PRODUCT_COLUMNS for width in widths)
    assert len(blocks) == max(count // core.PRODUCT_COLUMNS, min(count, 1))
    monkeypatch.setattr(core, "BLOCK_PIXELS", 7)
    assert core.product_blocks(count) == blocks


# 2 slices, 2 slices with a 256-pixel tail, and 2 with a 13-pixel tail
PRODUCT_SHAPES = [(256, 256), (257, 256), (59, 1111)]


@pytest.mark.parametrize("block", [7, DEFAULT])
@pytest.mark.parametrize("shape", PRODUCT_SHAPES, ids=[f"{h}x{w}" for h, w in PRODUCT_SHAPES])
def test_sliced_products_keep_the_whole_frame_bytes(monkeypatch, shape, block):
    assert shape[0] * shape[1] in (2 * core.PRODUCT_COLUMNS, 2 * core.PRODUCT_COLUMNS + 256,
                                   2 * core.PRODUCT_COLUMNS + 13)
    monkeypatch.setattr(core, "BLOCK_PIXELS", block)
    nmap, amap = sphere(*shape)
    for m in (3, 16, 17):
        lights = cap_rig(m)
        lit = np.maximum(lights.rows @ rows_of(nmap), 0.0) * amap.values.reshape(-1)
        lit[:, ~nmap.mask.reshape(-1)] = 0.0
        sigmas = np.linspace(0.01, 0.02, m)
        flat = lit + sigmas[:, None] * np.random.default_rng(m).standard_normal(lit.shape)
        w, _ = solver.whitening(sigmas, m)
        q, f = solver.whitened_factor(lights.rows, w)
        for cpus in (1, 2, 3):
            pools = reach_threads(monkeypatch, cpus)
            images = render_stack(nmap, amap, lights).images
            assert images.reshape(m, -1).tobytes() == lit.tobytes(), f"m={m}, {cpus} CPUs"
            n_tilde = solver._solve_columns(flat, lights, sigmas)[0]
            assert n_tilde.tobytes() == ((f @ q.T * w) @ flat).tobytes(), f"m={m}, {cpus} CPUs"
            assert bool(pools) == (cpus > 1)


def up_normals(h: int, w: int) -> np.ndarray:
    normals = np.zeros((h, w, 3))
    normals[..., 2] = 1.0
    return normals


@pytest.mark.parametrize("block, shape", [(7, (30, 20)), (DEFAULT, (300, 200))])
@pytest.mark.parametrize("bad, message", [((0.0, 0.6, 0.6), "unit"),
                                          ((0.0, 0.0, -1.0), "face the camera"),
                                          ((np.nan, 0.0, 1.0), "unit")],
                         ids=["non-unit", "back-facing", "nan"])
def test_bad_normal_in_the_last_partial_block_is_rejected(monkeypatch, block, shape, bad,
                                                          message):
    monkeypatch.setattr(core, "BLOCK_PIXELS", block)
    assert (shape[0] * shape[1]) % block != 0
    normals = up_normals(*shape)
    normals[-1, -1] = bad
    # the same pixel off the mask is unconstrained
    mask = np.ones(shape, bool)
    mask[-1, -1] = False
    for threads in (False, True):
        if threads:
            reach_threads(monkeypatch)
        with pytest.raises(InvalidSpecError, match=message):
            NormalMap(normals=normals, mask=np.ones(shape, bool))
        NormalMap(normals=normals, mask=mask)


def test_unit_check_is_reported_before_an_earlier_facing_failure(monkeypatch):
    monkeypatch.setattr(core, "BLOCK_PIXELS", 7)
    normals = up_normals(30, 20)
    normals[0, 0] = (0.0, 0.0, -1.0)  # first block: back-facing
    normals[-1, -1] = (0.0, 0.6, 0.6)  # last block: not unit
    for threads in (False, True):
        if threads:  # the first and last blocks may now run on different threads
            reach_threads(monkeypatch)
        with pytest.raises(InvalidSpecError, match="unit"):
            NormalMap(normals=normals, mask=np.ones((30, 20), bool))


@pytest.mark.parametrize("junk", [np.nan, np.inf, -np.inf, 1e308])
def test_junk_at_invalid_pixels_raises_no_warning(monkeypatch, junk):
    monkeypatch.setattr(core, "BLOCK_PIXELS", 7)
    nmap, amap = sphere(30, 20)
    normals = np.array(nmap.normals)
    normals[~nmap.mask] = junk
    for threads in (False, True):
        if threads:  # each thread's numpy error state must be the caller's
            reach_threads(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            junky = NormalMap(normals=normals, mask=nmap.mask)
            images = render_stack(junky, amap, RIGS["cap16"]).images
            scored = compare_maps(junky, nmap), compare_maps(nmap, junky)
        assert images.tobytes() == render_stack(nmap, amap, RIGS["cap16"]).images.tobytes()
        clean = stats_bytes(compare_maps(nmap, nmap))
        assert [stats_bytes(stats) for stats in scored] == [clean, clean]


def rows_of(nmap: NormalMap) -> np.ndarray:
    """The (3, P) x, y, z rows of a map's normals."""
    return nmap.normals.reshape(-1, 3).T


def solved():
    nmap, amap = sphere(20, 30)
    lights = RIGS["cap4"]
    return solve_map(render_stack(nmap, amap, lights), lights)


def ingested(tmp_path):
    path = tmp_path / "normals.pfm"
    export_normal_map(path, sphere(20, 30)[0])
    return ingest_normal_map(path)


MAKERS = {
    "sphere": lambda _: sphere(20, 30)[0],
    "paraboloid": lambda _: generate(SceneSpec(kind="paraboloid", width=30, height=20))[0],
    "plane": lambda _: generate(SceneSpec(kind="plane", width=30, height=20,
                                          params={"p": 0.3, "q": -0.2}))[0],
    "ingest": ingested,
    "solve_map": lambda _: solved()[0],
    "C-order input": lambda _: NormalMap(normals=up_normals(20, 30), mask=np.ones((20, 30), bool)),
}


@pytest.mark.parametrize("kind", MAKERS)
def test_maps_hold_component_major_normals(tmp_path, kind):
    nmap = MAKERS[kind](tmp_path)
    rows = rows_of(nmap)
    assert rows.shape == (3, 600)
    assert rows.flags.c_contiguous and not rows.flags.writeable
    assert np.shares_memory(rows, nmap.normals)
    # a map built from another map's normals adopts them
    assert NormalMap(normals=nmap.normals, mask=nmap.mask).normals is nmap.normals


def test_solve_map_adopts_its_buffers(monkeypatch):
    made = []
    original = solver._solve_columns

    def recording(*args, **kwargs):
        made.append(original(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(solver, "_solve_columns", recording)
    est, albedo = solved()
    [(normals, norms, ok)] = made
    assert np.shares_memory(rows_of(est), normals)
    assert np.shares_memory(est.mask, ok)
    assert np.shares_memory(albedo.values, norms)


def test_solve_map_opens_a_pool_for_the_solve_and_one_for_the_map_checks(monkeypatch):
    # the solve and the map's checks each run on a runner of their own, and
    # each pool's threads end before solve_map returns
    nmap, amap = sphere(20, 30)
    lights = RIGS["cap4"]
    stack = render_stack(nmap, amap, lights)
    monkeypatch.setattr(core, "BLOCK_PIXELS", 64)  # 10 blocks: every pool starts a thread
    monkeypatch.setattr(core, "PRODUCT_COLUMNS", 64)  # the solve's 9 slices too
    outputs = []
    for cpus, opened in ((1, 0), (2, 2)):
        pools = reach_threads(monkeypatch, cpus)
        est, albedo = solve_map(stack, lights)
        assert len(pools) == opened, f"{cpus} CPUs"
        assert psdesign_threads() == []
        outputs.append((est.normals.tobytes(), est.mask.tobytes(), albedo.values.tobytes()))
    assert outputs[0] == outputs[1]
