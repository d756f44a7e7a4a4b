import numpy as np
import pytest
from hypothesis import given, strategies as st

from psdesign import (
    AlbedoMap,
    DegenerateVectorError,
    DimensionMismatchError,
    IntensityStack,
    LightConfig,
    NonUnitRowsError,
    NormalMap,
    SingularLightMatrixError,
    normalize,
)
from psdesign.core import freeze, require_spd, InvalidSpecError


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

    def test_rejects_non_unit_in_default_mode(self):
        with pytest.raises(NonUnitRowsError):
            LightConfig(rows=2.0 * np.eye(3))

    def test_free_norm_mode(self):
        cfg = LightConfig(rows=2.0 * np.eye(3), unit_norm=False)
        assert cfg.m == 3

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
