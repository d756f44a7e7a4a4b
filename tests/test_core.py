import os
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from psdesign import (
    AlbedoMap,
    AlbedoSpec,
    AlphaOutOfRangeError,
    DegenerateVectorError,
    DimensionMismatchError,
    IntensityStack,
    LightConfig,
    NoiseSpec,
    NonPositiveSigmaError,
    NonUnitRowsError,
    NormalMap,
    OptimizerConfig,
    PhotometryError,
    SceneSpec,
    ShapePrior,
    SingularLightMatrixError,
    Stage,
    b_matrix,
    baseline_heuristic_spread,
    baseline_random,
    chi_square_quantile,
    compare_configs,
    covariance,
    export_normal_map,
    generate,
    normalize,
    phi_lower_bound,
    render_pixel,
    solve_exact,
    solve_lsq,
    stream_key,
    substream,
)
from psdesign import core
from psdesign.core import freeze, require_sigmas, require_spd, InvalidSpecError


class TestNormalize:
    def test_axis_scaling(self):
        unit, norm = normalize([0.0, 0.0, 2.0])
        assert np.allclose(unit, [0.0, 0.0, 1.0], atol=1e-15)
        assert norm == 2.0

    def test_symmetric(self):
        unit, norm = normalize([1.0, 1.0, 1.0])
        assert np.allclose(unit, np.ones(3) / np.sqrt(3.0), atol=1e-15)
        assert norm == pytest.approx(np.sqrt(3.0), abs=1e-15)

    def test_pythagorean(self):
        unit, norm = normalize([3.0, 4.0, 0.0])
        assert np.allclose(unit, [0.6, 0.8, 0.0], atol=1e-15)
        assert norm == 5.0

    def test_reconstruction(self):
        v = np.array([0.3, -1.2, 0.7])
        unit, norm = normalize(v)
        assert np.abs(unit * norm - v).max() < 1e-12

    def test_degenerate(self):
        with pytest.raises(DegenerateVectorError):
            normalize([0.0, 0.0, 0.0])
        with pytest.raises(DegenerateVectorError):
            normalize([1e-13, 0.0, 0.0])

    @pytest.mark.parametrize("v", [(np.inf, 0.0, 1.0), (np.nan, 0.0, 1.0),
                                   (1e200, 1e200, 1e200), (3e-10, 0.0, 4e-10)])
    def test_no_direction(self, v):
        # an infinite or NaN norm, one whose sum of squares overflows and one at
        # or below the solver's floor of 1e-9 raise, with no RuntimeWarning
        with pytest.raises(DegenerateVectorError):
            normalize(v)
        with pytest.raises(DegenerateVectorError):
            b_matrix(v)

    def test_just_above_the_floor(self):
        unit, norm = normalize([0.0, 0.0, 2e-9])
        assert (unit.tolist(), norm) == ([0.0, 0.0, 1.0], 2e-9)
        assert np.allclose(b_matrix([0.0, 0.0, 2e-9]), np.diag([5e8, 5e8, 0.0]), rtol=1e-15,
                           atol=0.0)


finite_components = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@given(st.tuples(finite_components, finite_components, finite_components))
def test_normalize_idempotent(v):
    v = np.asarray(v)
    if np.linalg.norm(v) <= 1e-6:
        return
    unit, _ = normalize(v)
    again, norm = normalize(unit)
    assert norm == pytest.approx(1.0, abs=1e-12)
    assert np.abs(again - unit).max() < 1e-12


class TestLightConfig:
    def test_identity_triad(self):
        cfg = LightConfig(rows=np.eye(3))
        assert cfg.m == 3
        assert np.array_equal(cfg.gram(), np.eye(3))

    def test_needs_three(self):
        with pytest.raises(DimensionMismatchError):
            LightConfig(rows=np.eye(3)[:2])

    def test_rejects_coplanar(self):
        # three lights with z = 0 span a plane through the origin
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                         [np.sqrt(0.5), np.sqrt(0.5), 0.0]])
        with pytest.raises(SingularLightMatrixError):
            LightConfig(rows=rows)
        # all-zero rows have no largest singular value to divide by: ratio 0, no warning
        with warnings.catch_warnings(), pytest.raises(SingularLightMatrixError):
            warnings.simplefilter("error")
            LightConfig(rows=np.zeros((3, 3)))

    def test_rejects_non_unit_in_default_mode(self):
        with pytest.raises(NonUnitRowsError):
            LightConfig(rows=2.0 * np.eye(3))

    def test_immutable(self):
        cfg = LightConfig(rows=np.eye(3))
        with pytest.raises(ValueError):
            cfg.rows[0, 0] = 2.0


class TestNormalMap:
    def test_valid_construction(self):
        normals = np.zeros((2, 2, 3))
        normals[..., 2] = 1.0
        nm = NormalMap(normals=normals, mask=np.ones((2, 2), bool))
        assert nm.height == 2 and nm.width == 2
        assert nm.valid_normals().shape == (4, 3)

    def test_rejects_non_unit(self):
        normals = np.zeros((1, 1, 3))
        normals[..., 2] = 1.1
        with pytest.raises(InvalidSpecError):
            NormalMap(normals=normals, mask=np.ones((1, 1), bool))

    def test_rejects_back_facing(self):
        normals = np.zeros((1, 1, 3))
        normals[..., 2] = -1.0
        with pytest.raises(InvalidSpecError):
            NormalMap(normals=normals, mask=np.ones((1, 1), bool))

    def test_invalid_pixels_unconstrained(self):
        normals = np.zeros((1, 2, 3))
        normals[0, 0, 2] = 1.0
        normals[0, 1] = (9.0, 9.0, -9.0)  # masked out, anything goes
        nm = NormalMap(normals=normals, mask=np.array([[True, False]]))
        assert nm.valid_normals().shape == (1, 3)

    def test_mask_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            NormalMap(normals=np.zeros((2, 2, 3)), mask=np.ones((2, 3), bool))


class TestIntensityStack:
    def test_sigma_count_must_match(self):
        with pytest.raises(DimensionMismatchError):
            IntensityStack(images=np.zeros((3, 2, 2)), sigmas=np.zeros(2))

    def test_negative_sigma_rejected(self):
        from psdesign import NonPositiveSigmaError

        with pytest.raises(NonPositiveSigmaError):
            IntensityStack(images=np.zeros((2, 1, 1)), sigmas=[-0.1, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "check",
    [
        lambda sigmas: NoiseSpec(sigmas=sigmas),
        lambda sigmas: IntensityStack(images=np.zeros((3, 1, 1)), sigmas=sigmas),
        lambda sigmas: solve_lsq(np.ones(3), LightConfig(rows=np.eye(3)), sigmas),
        lambda sigmas: covariance(LightConfig(rows=np.eye(3)), sigmas),
    ],
    ids=["NoiseSpec", "IntensityStack", "solve_lsq", "covariance"],
)
def test_non_finite_sigma_rejected(check, bad):
    with pytest.raises(NonPositiveSigmaError):
        check([bad, 0.1, 0.1])


def up_normals(h=3, w=4):
    normals = np.zeros((h, w, 3))
    normals[..., 2] = 1.0
    return normals


# each type with a factory of writable inputs and the names of its arrays
MAP_TYPES = {
    "IntensityStack": (lambda: dict(images=np.random.default_rng(1).random((3, 4, 5)),
                                    sigmas=np.full(3, 0.1)),
                       IntensityStack, ("images", "sigmas")),
    "NormalMap": (lambda: dict(normals=up_normals(), mask=np.ones((3, 4), bool)),
                  NormalMap, ("normals", "mask")),
    "AlbedoMap": (lambda: dict(values=np.full((3, 4), 0.5)), AlbedoMap, ("values",)),
}


class TestAdoption:
    """Sealed buffers are adopted; everything a caller can still write is copied."""

    @pytest.mark.parametrize("kind", sorted(MAP_TYPES))
    def test_later_writes_to_inputs_do_not_leak(self, kind):
        build, cls, names = MAP_TYPES[kind]
        inputs = build()
        obj = cls(**inputs)
        before = {n: getattr(obj, n).copy() for n in names}
        for n in names:
            inputs[n][...] = 0
        for n in names:
            assert np.array_equal(getattr(obj, n), before[n])

    @pytest.mark.parametrize("kind", sorted(MAP_TYPES))
    def test_read_only_input_the_caller_can_unlock_is_copied(self, kind):
        build, cls, names = MAP_TYPES[kind]
        inputs = build()
        for a in inputs.values():
            a.flags.writeable = False
        obj = cls(**inputs)
        for n in names:
            assert not np.shares_memory(getattr(obj, n), inputs[n])

    @pytest.mark.parametrize("kind", sorted(MAP_TYPES))
    def test_arrays_reject_writes(self, kind):
        build, cls, names = MAP_TYPES[kind]
        obj = cls(**build())
        for n in names:
            a = getattr(obj, n)
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1
            with pytest.raises(ValueError):
                a.flags.writeable = True

    @pytest.mark.parametrize("kind", sorted(MAP_TYPES))
    def test_sealed_arrays_are_adopted(self, kind):
        build, cls, names = MAP_TYPES[kind]
        first = cls(**build())
        second = cls(**{n: getattr(first, n) for n in names})
        for n in names:
            assert getattr(second, n) is getattr(first, n)

    def test_writable_view_of_read_only_memory_is_copied(self):
        memory = np.full((3, 4), 0.5)
        view = memory[:]
        memory.flags.writeable = False  # the view stays writable
        amap = AlbedoMap(values=view)
        view[0, 0] = 0.9
        assert amap.values[0, 0] == 0.5

    def test_sealed_buffer_of_another_dtype_is_copied(self):
        sealed = freeze(np.ones((2, 2), dtype=np.float32))
        amap = AlbedoMap(values=sealed)
        assert amap.values.dtype == np.float64
        assert not np.shares_memory(amap.values, sealed)

    @pytest.mark.parametrize("bad", [(0.0, 0.6, 0.6), (0.0, 0.0, -1.0)])
    def test_adopted_normals_are_still_validated(self, bad):
        normals = up_normals()
        normals[1, 2] = bad  # not unit, then facing away from the camera
        with pytest.raises(InvalidSpecError):
            NormalMap(normals=freeze(normals), mask=freeze(np.ones((3, 4), bool)))


def test_require_spd():
    require_spd(np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(InvalidSpecError):
        require_spd(np.diag([1.0, -2.0, 3.0]))
    lopsided = np.eye(3)
    lopsided[0, 1] = 1e-6
    with pytest.raises(InvalidSpecError):
        require_spd(lopsided)


def _plane(width=3, height=2):
    return generate(SceneSpec(kind="plane", width=width, height=height))


def _from_file_of_another_size(tmp_path):
    path = tmp_path / "plane.pfm"
    export_normal_map(path, _plane()[0])
    generate(SceneSpec(kind="from_file", width=2, height=3, params={"path": str(path)}))


TRIAD = LightConfig(rows=np.eye(3))

# (call on a tmp_path, typed error) for outside input that each check rejects
BAD_INPUT = {
    "zero comparison trials": (
        lambda _: compare_configs(*_plane(), {"triad": TRIAD}, 0.01, trials=0, seed=1),
        ValueError),
    "zero max_iters": (lambda _: OptimizerConfig(max_iters=0), ValueError),
    "zero restarts": (lambda _: OptimizerConfig(restarts=0), ValueError),
    "chi-square quantile of 1": (lambda _: chi_square_quantile(1.0), AlphaOutOfRangeError),
    "unknown albedo kind": (lambda _: AlbedoSpec(kind="stripes"), InvalidSpecError),
    "checkerboard cell 0": (lambda _: AlbedoSpec(kind="checkerboard", cell=0), InvalidSpecError),
    "from_file of another size": (_from_file_of_another_size, InvalidSpecError),
    "solve_exact of 2 intensities": (lambda _: solve_exact([1.0, 2.0], TRIAD),
                                     DimensionMismatchError),
    "solve_lsq of 4 intensities": (lambda _: solve_lsq(np.ones(4), TRIAD, np.ones(3)),
                                   DimensionMismatchError),
    "(m, 2) light rows": (lambda _: LightConfig(rows=np.eye(3)[:, :2]), DimensionMismatchError),
    "non-finite light rows": (lambda _: LightConfig(rows=np.diag([1.0, 1.0, np.nan])),
                              InvalidSpecError),
    "2-D normals": (lambda _: NormalMap(normals=np.ones((2, 3)), mask=np.ones((2, 3), bool)),
                    DimensionMismatchError),
    "3-D albedo": (lambda _: AlbedoMap(values=np.ones((2, 2, 1))), DimensionMismatchError),
    "2-D images": (lambda _: IntensityStack(images=np.ones((3, 4)), sigmas=np.zeros(3)),
                   DimensionMismatchError),
    "2-D sigmas": (lambda _: require_sigmas(np.ones((3, 1))), DimensionMismatchError),
    "normalize a 2-vector": (lambda _: normalize([1.0, 2.0]), DimensionMismatchError),
    "phi lower bound of 0 lights": (lambda _: phi_lower_bound(np.eye(3), 0),
                                    DimensionMismatchError),
    "b_matrix of a 2-vector": (lambda _: b_matrix([1.0, 2.0]), DimensionMismatchError),
}


@pytest.mark.parametrize("case", list(BAD_INPUT))
def test_outside_input_raises_a_typed_error(tmp_path, case):
    call, error = BAD_INPUT[case]
    with pytest.raises(error):
        call(tmp_path)


# a check of each call's own arguments, with no type of its own
ARGUMENT_CHECKS = {
    "zero max_iters": lambda: OptimizerConfig(max_iters=0),
    "zero restarts": lambda: OptimizerConfig(restarts=0),
    "zero comparison trials": lambda: compare_configs(*_plane(), {"triad": TRIAD}, 0.01,
                                                      trials=0, seed=1),
    "zero random rigs": lambda: baseline_random(0, 3, ShapePrior.identity()),
    "stream index 2^56": lambda: stream_key(1, Stage.NOISE, 2**56),
    "albedo 0": lambda: render_pixel([0.0, 0.0, 1.0], 0.0, [0.0, 0.0, 1.0]),
    "2.5 max_iters": lambda: OptimizerConfig(max_iters=2.5),
    "2.5 restarts": lambda: OptimizerConfig(restarts=2.5),
    "2.0 comparison trials": lambda: compare_configs(*_plane(), {"triad": TRIAD}, 0.01,
                                                     trials=2.0, seed=1),
    "True comparison trials": lambda: compare_configs(*_plane(), {"triad": TRIAD}, 0.01,
                                                      trials=True, seed=1),
    "2.5 random rigs": lambda: baseline_random(2.5, 3, ShapePrior.identity()),
    "random rigs of 3.5 lights": lambda: baseline_random(2, 3.5, ShapePrior.identity()),
    "spread of 6.5 lights": lambda: baseline_heuristic_spread(6.5),
    # seeds, keys and stream indices are integers too, never truncated
    "1.5 optimizer seed": lambda: OptimizerConfig(seed=1.5),
    "True optimizer seed": lambda: OptimizerConfig(seed=True),
    "string optimizer seed": lambda: OptimizerConfig(seed="3"),
    "1.5 noise seed": lambda: NoiseSpec.uniform(0.1, 3, seed=1.5),
    "1.5 stream seed": lambda: stream_key(1.5, Stage.NOISE, 0),
    "1.5 stream index": lambda: stream_key(1, Stage.NOISE, 1.5),
    "2.5 substream key": lambda: substream(2.5, 0),
    "0.5 substream index": lambda: substream(1, 0.5),
    "substream index -1": lambda: substream(1, -1),
    # an albedo is a number, and a bool is not one
    "True albedo": lambda: AlbedoSpec(value=True),
    "True second checkerboard albedo": lambda: AlbedoSpec(kind="checkerboard", value=0.5,
                                                          value2=True),
    "string albedo": lambda: AlbedoSpec(value="0.5"),
}


@pytest.mark.parametrize("case", list(ARGUMENT_CHECKS))
def test_argument_checks_raise_a_package_error(case):
    # an InvalidSpecError, which callers that catch ValueError still catch
    with pytest.raises(PhotometryError) as err:
        ARGUMENT_CHECKS[case]()
    assert isinstance(err.value, InvalidSpecError) and isinstance(err.value, ValueError)


def test_cpu_count_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for reported, expected in ((5, 5), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda reported=reported: reported)
        assert core._cpu_count() == expected
