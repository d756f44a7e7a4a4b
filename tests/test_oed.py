import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import psdesign
from psdesign import (
    AlphaOutOfRangeError,
    DimensionMismatchError,
    EstimateCovariance,
    InvalidSpecError,
    LightConfig,
    NonPositiveSigmaError,
    NormalMap,
    ShapePrior,
    a_criterion,
    b_matrix,
    build_shape_prior,
    chi_square_quantile,
    confidence_region,
    covariance,
    phi_lower_bound,
    phi_shape_agnostic,
    phi_shape_aware,
    substream,
)
from psdesign.core import DegenerateVectorError, EmptyMaskError
from psdesign.oed import phi_of_rows
from psdesign.optimize import (
    baseline_orthogonal_triad,
    random_hemisphere_rows,
    random_unit_rows,
)
from psdesign.solver import PixelEstimate

from conftest import exact_weighted_inverse, rotated_ring, well_conditioned_config

ALGEBRA_TOL = 1e-12
EIGEN_TOL = 1e-9


def identity_triad():
    return LightConfig(rows=np.eye(3))


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------
class TestCovariance:
    def test_whitened_identity(self):
        cov = covariance(identity_triad(), [1.0, 1.0, 1.0])
        assert np.abs(cov.matrix - np.eye(3)).max() < ALGEBRA_TOL

    def test_sigma_squared_scaling(self):
        cov = covariance(identity_triad(), [0.1, 0.1, 0.1])
        assert np.abs(cov.matrix - 0.01 * np.eye(3)).max() < ALGEBRA_TOL

    def test_equal_sigma_closed_form(self, rng):
        for _ in range(20):
            lights = well_conditioned_config(rng, 4)
            sigma = float(rng.uniform(0.01, 0.5))
            got = covariance(lights, [sigma] * 4).matrix
            want = sigma**2 * np.linalg.inv(lights.gram())
            assert np.abs(got - want).max() < ALGEBRA_TOL * max(1.0, np.abs(want).max())

    def test_rejects_zero_sigma(self):
        with pytest.raises(NonPositiveSigmaError):
            covariance(identity_triad(), [0.0, 0.1, 0.1])

    def test_near_the_rank_limit_matches_the_exact_inverse(self):
        # triads 1e-7 off a rotated plane, so cond(S^T W S) is about 4e14: an
        # inverted Gram is off by up to 3e-2 of the largest entry, F F^T by 1e-9
        sigmas = [0.01, 0.02, 0.05]
        errors = []
        for k in range(10):
            rows = rotated_ring(3, k)
            exact = np.array(exact_weighted_inverse(rows, sigmas), dtype=float)
            got = covariance(LightConfig(rows=rows), sigmas).matrix
            errors.append(np.abs(got - exact).max() / np.abs(exact).max())
        assert max(errors) <= 1e-7, errors

    @pytest.mark.parametrize("sigma", [1.0, 10.0, 100.0])
    def test_any_noise_scale_gives_an_exactly_symmetric_matrix(self, rng, sigma):
        # the inverse is symmetric only to roundoff, which grows with sigma^2
        # past the symmetry check's absolute tolerance
        for _ in range(200):
            lights = LightConfig(rows=random_hemisphere_rows(3, rng))
            matrix = covariance(lights, [sigma] * 3).matrix
            assert np.array_equal(matrix, matrix.T)


# ---------------------------------------------------------------------------
# chi-square quantile and confidence regions
# ---------------------------------------------------------------------------
def chi2_cdf_by_quadrature(x: float) -> float:
    # dof 3 density: sqrt(t) exp(-t/2) / sqrt(2 pi)
    pdf = lambda t: np.sqrt(t) * np.exp(-t / 2.0) / np.sqrt(2.0 * np.pi)
    val, _ = integrate.quad(pdf, 0.0, x)
    return val


def quantile_by_bisection(prob: float) -> float:
    lo, hi = 0.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf_by_quadrature(mid) < prob:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestConfidenceRegion:
    def test_quantile_against_bisection_oracle(self):
        oracle = quantile_by_bisection(0.95)
        assert oracle == pytest.approx(7.8147, abs=2e-4)  # sanity on the oracle itself
        assert chi_square_quantile(0.95) == pytest.approx(oracle, abs=1e-9)

    def test_quantile_other_levels(self):
        for prob in (0.5, 0.9, 0.99):
            assert chi_square_quantile(prob) == pytest.approx(
                quantile_by_bisection(prob), abs=1e-9
            )

    def test_quantile_matches_scipy_stats_bit_for_bit(self):
        from scipy.stats import chi2

        for dof in (1, 2, 3, 4, 7):
            for prob in np.linspace(1e-6, 1.0 - 1e-6, 201):
                assert chi_square_quantile(float(prob), dof) == chi2.ppf(prob, df=dof)

    def test_import_leaves_scipy_stats_unloaded(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(psdesign.__file__)))
        child = subprocess.run(
            [sys.executable, "-c",
             "import sys, psdesign, psdesign.cli\n"
             "loaded = sorted(n for n in sys.modules if n.partition('.')[0] == 'scipy')\n"
             "sys.exit(f'scipy modules loaded: {loaded}' if loaded else 0)"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr

    def test_alpha_near_one_shrinks_to_point(self):
        est = PixelEstimate(n_tilde=np.array([0.0, 0.0, 0.8]), albedo=0.8,
                            normal=np.array([0.0, 0.0, 1.0]), valid=True)
        cov = covariance(identity_triad(), [0.1] * 3)
        region = confidence_region(est, cov, alpha=1.0 - 1e-12)
        assert region.radius_sq < 1e-6
        assert region.semiaxes.max() < 1e-3

    def test_alpha_out_of_range(self):
        est = PixelEstimate(n_tilde=np.zeros(3), albedo=0.0,
                            normal=np.array([0.0, 0.0, 1.0]), valid=False)
        cov = covariance(identity_triad(), [0.1] * 3)
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(AlphaOutOfRangeError):
                confidence_region(est, cov, bad)

    def test_membership_and_semiaxes(self, rng):
        center = np.array([0.1, -0.2, 0.9])
        est = PixelEstimate(n_tilde=center, albedo=float(np.linalg.norm(center)),
                            normal=unit(center), valid=True)
        lights = well_conditioned_config(rng, 3)
        cov = covariance(lights, [0.05] * 3)
        region = confidence_region(est, cov, alpha=0.05)
        assert region.contains(center)
        assert not region.contains(center + np.array([10.0, 0.0, 0.0]))
        # semiaxes: sqrt(kappa * eigenvalues), sorted descending
        eig = np.sort(np.linalg.eigvalsh(cov.matrix))[::-1]
        assert np.allclose(region.semiaxes, np.sqrt(region.radius_sq * eig), atol=1e-12)
        assert np.all(np.diff(region.semiaxes) <= 0.0)
        # a point at distance semiaxis along the matching eigenvector is on the boundary
        vecs = np.linalg.eigh(cov.matrix)[1]
        boundary = center + region.semiaxes[-1] * vecs[:, 0] * (1.0 - 1e-9)
        assert region.contains(boundary)

    @pytest.mark.parametrize("signs", [(1, 1, 1), (1, -1, 1)])
    @pytest.mark.parametrize("sigma", [0.01, 0.1, 1.0])
    def test_a_triad_3e_9_off_a_plane_has_finite_positive_semiaxes(self, signs, sigma):
        # cond(S^T S) is near 1e17, where the eigenvalues eigvalsh finds for the
        # covariance can go negative; a valid rig must still get its region
        azimuth = np.radians([0.0, 120.0, 240.0])
        rows = np.stack([np.cos(azimuth), np.sin(azimuth), 3e-9 * np.array(signs)], axis=1)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        est = PixelEstimate(n_tilde=np.array([0.0, 0.0, 1.0]), albedo=1.0,
                            normal=np.array([0.0, 0.0, 1.0]), valid=True)
        cov = covariance(LightConfig(rows=rows), [sigma] * 3)
        region = confidence_region(est, cov, alpha=0.05)
        assert np.all(np.isfinite(region.semiaxes)) and np.all(region.semiaxes > 0.0)
        if signs == (1, 1, 1):  # S^T S = diag(3c^2 / 2, 3c^2 / 2, 3 s_z^2)
            c, s_z = np.hypot(rows[:, 0], rows[:, 1]), rows[:, 2]
            for k in range(3):
                variances = sigma**2 * np.array([1 / (3 * s_z[k]**2), 2 / (3 * c[k]**2),
                                                 2 / (3 * c[k]**2)])
                np.testing.assert_allclose(region.semiaxes, np.sqrt(region.radius_sq * variances),
                                           rtol=1e-6)


def test_a_criterion():
    cov_i = covariance(identity_triad(), [1.0] * 3)
    assert a_criterion(cov_i) == pytest.approx(1.0, abs=1e-15)
    from psdesign import EstimateCovariance

    assert a_criterion(EstimateCovariance(matrix=np.diag([1.0, 2.0, 3.0]))) == 2.0
    cov_s = covariance(identity_triad(), [0.1] * 3)
    assert a_criterion(cov_s) == pytest.approx(0.01, abs=1e-15)


# ---------------------------------------------------------------------------
# b_matrix: the normalization Jacobian
# ---------------------------------------------------------------------------
class TestBMatrix:
    def test_z_axis_projector(self):
        assert np.abs(b_matrix([0.0, 0.0, 1.0]) - np.diag([1.0, 1.0, 0.0])).max() < ALGEBRA_TOL

    def test_norm_scaling(self):
        assert np.abs(b_matrix([0.0, 0.0, 2.0]) - np.diag([0.5, 0.5, 0.0])).max() < ALGEBRA_TOL

    def test_degenerate_input(self):
        with pytest.raises(DegenerateVectorError):
            b_matrix([0.0, 0.0, 0.0])

    def test_matches_finite_differences(self, rng):
        # columns of B against central differences of v -> v/|v|
        h = 1e-6
        for _ in range(50):
            v = rng.normal(size=3) * rng.uniform(0.5, 3.0)
            if np.linalg.norm(v) < 0.3:
                continue
            b = b_matrix(v)
            fd = np.empty((3, 3))
            for j in range(3):
                vp = v.copy()
                vm = v.copy()
                vp[j] += h
                vm[j] -= h
                fd[:, j] = (vp / np.linalg.norm(vp) - vm / np.linalg.norm(vm)) / (2.0 * h)
            assert np.abs(b - fd).max() / np.abs(fd).max() < 1e-6


unit_vector_st = st.builds(
    lambda x, y, z: np.array([x, y, z]),
    *(st.floats(-1.0, 1.0, allow_nan=False) for _ in range(3)),
).filter(lambda v: np.linalg.norm(v) > 1e-3).map(unit)


@settings(max_examples=200, deadline=None)
@given(unit_vector_st)
def test_projector_lemma_at_unit_input(n):
    # at unit norm, B is the symmetric idempotent projector I - n n^T
    b = b_matrix(n)
    assert np.abs(b - b.T).max() < ALGEBRA_TOL
    assert np.abs(b @ b - b).max() < ALGEBRA_TOL
    assert np.trace(b) == pytest.approx(2.0, abs=ALGEBRA_TOL)
    assert np.linalg.matrix_rank(b, tol=1e-9) == 2
    eig = np.sort(np.linalg.eigvalsh(b))
    assert np.abs(eig - [0.0, 1.0, 1.0]).max() < EIGEN_TOL


# ---------------------------------------------------------------------------
# the design objectives
# ---------------------------------------------------------------------------
class TestPhi:
    def test_identity_triad(self):
        assert phi_shape_agnostic(identity_triad()) == pytest.approx(3.0, abs=1e-15)

    def test_free_norm_scaling(self):
        # doubled rows quarter the objective, which is why rigs must have unit rows
        assert phi_of_rows(2.0 * np.eye(3), np.eye(3)) == 0.75

    def test_unit_row_triads_never_beat_three(self):
        # random-search oracle for the analytic floor of trace of inverse Gram
        rng = substream(606, 0)
        count = 1_000_000
        rows = rng.normal(size=(count, 3, 3))
        rows /= np.linalg.norm(rows, axis=2, keepdims=True)
        grams = np.einsum("kmi,kmj->kij", rows, rows)
        dets = np.linalg.det(grams)
        keep = dets > 1e-12  # drop numerically singular samples
        phis = np.trace(np.linalg.inv(grams[keep]), axis1=1, axis2=2)
        assert phis.min() >= 3.0
        assert phis.min() == pytest.approx(3.0, abs=0.05)  # floor is approached

    def test_identity_prior_reduces_to_agnostic(self, rng):
        prior = ShapePrior.identity()
        for _ in range(20):
            lights = well_conditioned_config(rng, int(rng.integers(3, 7)))
            assert phi_shape_aware(lights, prior) == pytest.approx(
                phi_shape_agnostic(lights), abs=ALGEBRA_TOL
            )

    def test_single_projector_pixel(self):
        prior = ShapePrior(m_agg=np.diag([1.0, 1.0, 0.0]), pixel_count=1)
        assert phi_shape_aware(identity_triad(), prior) == pytest.approx(2.0, abs=1e-15)

    def test_aggregated_equals_long_way(self, rng):
        # oracle: sum_pixels trace(B (S^T S)^-1 B^T) without aggregation
        for _ in range(10):
            lights = well_conditioned_config(rng, 4)
            normals = rng.normal(size=(40, 3))
            normals[:, 2] = np.abs(normals[:, 2]) + 0.1
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            bs = [b_matrix(n) for n in normals]
            m_agg = sum(b.T @ b for b in bs) / len(bs)
            prior = ShapePrior(m_agg=0.5 * (m_agg + m_agg.T), pixel_count=len(bs))
            inv_gram = np.linalg.inv(lights.gram())
            long_way = sum(np.trace(b @ inv_gram @ b.T) for b in bs) / len(bs)
            assert phi_shape_aware(lights, prior) == pytest.approx(long_way, abs=1e-12)

    def test_rotation_equivariance(self, rng):
        for _ in range(20):
            lights = well_conditioned_config(rng, int(rng.integers(3, 6)))
            q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            rotated = LightConfig(rows=lights.rows @ q.T)
            assert phi_shape_agnostic(rotated) == pytest.approx(
                phi_shape_agnostic(lights), rel=1e-9
            )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=9, max_size=9),
    st.integers(3, 16),
    st.integers(0, 2**32 - 1),
)
def test_no_unit_rig_scores_below_lower_bound(entries, m, rig_seed):
    b = np.array(entries).reshape(3, 3)
    m_agg = b.T @ b
    prior = ShapePrior(m_agg=0.5 * (m_agg + m_agg.T), pixel_count=1)
    lights = LightConfig(rows=random_unit_rows(m, substream(rig_seed, 0)))
    bound = phi_lower_bound(prior.m_agg, m)
    assert phi_shape_aware(lights, prior) >= bound * (1.0 - 1e-12)


class TestPhiLowerBound:
    def test_closed_form(self):
        assert phi_lower_bound(np.eye(3), 3) == 3.0
        assert phi_lower_bound(np.diag([4.0, 1.0, 0.0]), 6) == pytest.approx(1.5, rel=1e-15)
        assert phi_lower_bound(np.zeros((3, 3)), 4) == 0.0

    def test_attained_by_orthogonal_triad(self):
        # S^T S = I is the optimal Gram of the identity prior at m = 3
        lights = baseline_orthogonal_triad()
        assert phi_shape_agnostic(lights) == pytest.approx(phi_lower_bound(np.eye(3), 3), rel=1e-14)


# ---------------------------------------------------------------------------
# shape prior construction
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "m_agg, error",
    [
        (np.eye(2), DimensionMismatchError),
        (np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), InvalidSpecError),
        (np.diag([1.0, 1.0, -0.5]), InvalidSpecError),
    ],
    ids=["not-3x3", "asymmetric", "not-psd"],
)
def test_shape_prior_rejects_bad_matrix(m_agg, error):
    # a well-shaped 3x3 with bad values is an invalid spec, not a size mismatch
    with pytest.raises(error):
        ShapePrior(m_agg=m_agg, pixel_count=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "check",
    [lambda m: ShapePrior(m_agg=m, pixel_count=1), lambda m: EstimateCovariance(matrix=m)],
    ids=["ShapePrior", "EstimateCovariance"],
)
def test_non_finite_matrix_rejected(check, bad):
    m = np.eye(3)
    m[2, 2] = bad
    with pytest.raises(InvalidSpecError):
        check(m)


class TestBuildShapePrior:
    def map_of(self, normals):
        normals = np.asarray(normals, dtype=float)[None, :, :]
        return NormalMap(normals=normals, mask=np.ones(normals.shape[:2], bool))

    def test_all_up(self):
        nmap = self.map_of([[0.0, 0.0, 1.0]] * 5)
        prior = build_shape_prior(nmap)
        assert np.abs(prior.m_agg - np.diag([1.0, 1.0, 0.0])).max() < ALGEBRA_TOL
        assert prior.pixel_count == 5

    def test_single_pixel(self):
        n = unit([0.3, -0.4, 0.85])
        prior = build_shape_prior(self.map_of([n]))
        b = b_matrix(n)
        assert np.abs(prior.m_agg - b.T @ b).max() < ALGEBRA_TOL
        assert prior.pixel_count == 1

    def test_empty_mask(self):
        normals = np.zeros((1, 1, 3))
        normals[..., 2] = 1.0
        nmap = NormalMap(normals=normals, mask=np.zeros((1, 1), bool))
        with pytest.raises(EmptyMaskError):
            build_shape_prior(nmap)

    def test_hemisphere_matches_direct_average(self):
        # oracle: the same average accumulated per pixel in reverse order,
        # then checked against the uniform-hemisphere expectation 2/3 I
        import math

        rng = substream(77, 0)
        count = 100_000
        normals = rng.normal(size=(count, 3))
        normals[:, 2] = np.abs(normals[:, 2])
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        nmap = NormalMap(normals=normals.reshape(1, count, 3),
                         mask=np.ones((1, count), bool))
        prior = build_shape_prior(nmap)

        direct = np.zeros((3, 3))
        for idx in range(count - 1, -1, -1):
            n = normals[idx]
            direct += np.eye(3) - np.outer(n, n)
        direct /= count
        assert np.abs(prior.m_agg - direct).max() < 1e-10

        expected = (2.0 / 3.0) * np.eye(3)
        assert np.abs(prior.m_agg - expected).max() < 5e-3
        assert math.isclose(np.trace(prior.m_agg), 2.0, abs_tol=1e-9)
