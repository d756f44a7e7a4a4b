import re
from fractions import Fraction

import numpy as np
import pytest

from psdesign import (
    AlbedoMap,
    DimensionMismatchError,
    IntensityStack,
    LightConfig,
    NoiseSpec,
    NormalMap,
    add_noise,
    covariance,
    render_stack,
    solve_exact,
    solve_lsq,
    solve_map,
    substream,
)
from psdesign.core import DEGENERATE_NORM, NonPositiveSigmaError, rank_ratio
from psdesign.oed import b_matrix
from psdesign.solver import _solve_columns
from psdesign.scenes import AlbedoSpec, SceneSpec, generate

from conftest import (
    exact_weighted_inverse,
    rotated_ring,
    well_conditioned_config,
    well_conditioned_rows,
)
from test_blocks import cap_rig

ROUND_TRIP_TOL = 1e-10


def identity_triad():
    return LightConfig(rows=np.eye(3))


def lit_rows(rng, m, n, floor=0.05):
    """Well-conditioned rows that all see the normal n from the front."""
    while True:
        rows = well_conditioned_rows(rng, m)
        if (rows @ n).min() > floor:
            return rows


class TestSolveExact:
    def test_identity_inversion(self):
        est = solve_exact([0.0, 0.0, 1.0], identity_triad())
        assert np.allclose(est.n_tilde, [0.0, 0.0, 1.0], atol=1e-15)
        assert est.albedo == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(est.normal, [0.0, 0.0, 1.0], atol=1e-15)
        # two of the three intensities sit below the shadow threshold
        assert not est.valid

    def test_inverse_of_render(self):
        value = 0.5 / np.sqrt(3.0)
        est = solve_exact([value, value, value], identity_triad())
        assert est.albedo == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(est.normal, np.ones(3) / np.sqrt(3.0), atol=1e-12)
        assert est.valid

    def test_round_trip_random(self, rng):
        for _ in range(50):
            lights = well_conditioned_config(rng, 3)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            rho = float(rng.uniform(0.2, 1.0))
            intensities = rho * lights.rows @ n
            if intensities.min() < 1e-3:  # keep the pixel shadow free
                continue
            est = solve_exact(intensities, lights)
            assert est.valid
            assert abs(est.albedo - rho) < ROUND_TRIP_TOL
            assert np.abs(est.normal - n).max() < ROUND_TRIP_TOL

    def test_wrong_light_count(self):
        lights = LightConfig(rows=np.vstack([np.eye(3), [0.0, 0.6, 0.8]]))
        with pytest.raises(DimensionMismatchError, match="solve_exact needs exactly 3 lights, got 4"):
            solve_exact([1.0, 1.0, 1.0, 1.0], lights)
        with pytest.raises(DimensionMismatchError,
                           match=re.escape("expected 3 intensities, got shape (2,)")):
            solve_exact([1.0, 1.0], identity_triad())


class TestSolveLsq:
    def test_square_case_matches_exact(self, rng):
        cases = [(well_conditioned_config(rng, 3), rng.uniform(0.1, 1.0, size=3))
                 for _ in range(20)]
        cases.append((identity_triad(), np.array([0.0, 0.0, 1.0])))  # invalid: two in shadow
        for lights, i in cases:
            a = solve_exact(i, lights)
            b = solve_lsq(i, lights, [0.1, 0.1, 0.1])
            assert np.abs(a.n_tilde - b.n_tilde).max() < 1e-12
            # unweighted, it is solve_lsq field by field
            c = solve_lsq(i, lights, np.zeros(3))
            assert a.n_tilde.tobytes() == c.n_tilde.tobytes()
            assert a.normal.tobytes() == c.normal.tobytes()
            assert (a.albedo, a.valid) == (c.albedo, c.valid)

    def test_duplicated_triad_is_redundant(self, rng):
        n = np.array([0.3, -0.2, 0.93])
        n /= np.linalg.norm(n)
        rows3 = lit_rows(rng, 3, n)
        lights3 = LightConfig(rows=rows3)
        lights6 = LightConfig(rows=np.vstack([rows3, rows3]))
        i3 = 0.7 * rows3 @ n
        a = solve_lsq(i3, lights3, np.zeros(3))
        b = solve_lsq(np.concatenate([i3, i3]), lights6, np.zeros(6))
        assert np.abs(a.n_tilde - b.n_tilde).max() < 1e-12

    def test_noiseless_m4_round_trip(self, rng):
        for _ in range(20):
            lights = well_conditioned_config(rng, 4)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            rho = float(rng.uniform(0.2, 1.0))
            i = rho * lights.rows @ n
            if i.min() < 1e-3:
                continue
            est = solve_lsq(i, lights, np.zeros(4))
            assert abs(est.albedo - rho) < ROUND_TRIP_TOL
            assert np.abs(est.normal - n).max() < ROUND_TRIP_TOL

    def test_unbiased_under_noise(self, rng):
        # Monte Carlo: mean of n_tilde within 4 standard errors of truth
        rows = well_conditioned_rows(rng, 4)
        rows[:, 2] = np.abs(rows[:, 2]) + 0.3
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        lights = LightConfig(rows=rows)
        n_true = np.array([0.1, 0.2, 0.97])
        n_true /= np.linalg.norm(n_true)
        rho = 0.8
        sigma = 0.01
        clean = rho * rows @ n_true
        trials = 10_000
        draws = substream(51, 0).normal(0.0, sigma, size=(trials, 4))
        estimates = np.empty((trials, 3))
        for t in range(trials):
            estimates[t] = solve_lsq(clean + draws[t], lights, [sigma] * 4).n_tilde
        se = np.sqrt(np.diag(covariance(lights, [sigma] * 4).matrix) / trials)
        assert np.all(np.abs(estimates.mean(axis=0) - rho * n_true) < 4.0 * se)

    def test_weighted_equals_closed_form(self, rng):
        # explicit (S^T W S)^-1 S^T W I reproduced to 1e-12
        for _ in range(20):
            lights = well_conditioned_config(rng, 5)
            sig = rng.uniform(0.01, 0.2, size=5)
            i = rng.uniform(0.05, 1.0, size=5)
            est = solve_lsq(i, lights, sig)
            w = np.diag(1.0 / sig**2)
            closed = np.linalg.inv(lights.rows.T @ w @ lights.rows) @ lights.rows.T @ w @ i
            assert np.abs(est.n_tilde - closed).max() < 1e-12

    def test_equal_weights_equal_closed_form(self, rng):
        for _ in range(20):
            lights = well_conditioned_config(rng, 4)
            i = rng.uniform(0.05, 1.0, size=4)
            est = solve_lsq(i, lights, np.full(4, 0.03))
            closed = np.linalg.inv(lights.gram()) @ lights.rows.T @ i
            assert np.abs(est.n_tilde - closed).max() < 1e-12

    def test_all_zero_sigma_falls_back_to_unweighted(self, rng):
        # inconsistent overdetermined data still solves (plain least squares)
        lights = well_conditioned_config(rng, 4)
        i = rng.uniform(0.1, 1.0, size=4)
        est = solve_lsq(i, lights, np.zeros(4))
        closed = np.linalg.lstsq(lights.rows, i, rcond=None)[0]
        assert np.abs(est.n_tilde - closed).max() < 1e-12

    def test_mixed_zero_sigma_rejected(self, rng):
        lights = well_conditioned_config(rng, 4)
        with pytest.raises(NonPositiveSigmaError):
            solve_lsq(np.ones(4), lights, [0.0, 0.1, 0.1, 0.1])

    def test_matches_the_exact_solution_at_the_rank_limit(self):
        # six lights 60 degrees apart, 1e-7 off a rotated plane; the bound is
        # 10 eps over the rig's singular-value ratio, 1.6e-8 here
        sigmas = np.array([0.01, 0.02, 0.05] * 2)
        for k in range(10):
            rows = rotated_ring(6, k)
            draws = np.random.default_rng([3202, k]).normal(size=6)
            i = rows @ np.array([0.3, -0.2, 0.9]) + sigmas * draws
            inverse = exact_weighted_inverse(rows, sigmas)
            rhs = [sum(Fraction(r[a]) * Fraction(v) / Fraction(s) ** 2
                       for r, v, s in zip(rows.tolist(), i.tolist(), sigmas.tolist()))
                   for a in range(3)]
            exact = np.array([sum(g * b for g, b in zip(row, rhs)) for row in inverse], dtype=float)
            got = solve_lsq(i, LightConfig(rows=rows), sigmas).n_tilde
            error = np.abs(got - exact).max() / np.abs(exact).max()
            assert error <= 10.0 * np.finfo(float).eps / rank_ratio(rows), (k, error)

    def test_scale_equivariance(self, rng):
        n = np.array([0.2, 0.1, 0.97])
        n /= np.linalg.norm(n)
        lights = LightConfig(rows=lit_rows(rng, 4, n))
        i = 0.4 * lights.rows @ n
        a = solve_lsq(i, lights, np.zeros(4))
        b = solve_lsq(2.0 * i, lights, np.zeros(4))
        assert b.albedo == pytest.approx(2.0 * a.albedo, rel=1e-12)
        assert np.abs(a.normal - b.normal).max() < 1e-12


def reference_solve(images, rows, sigmas):
    """Column-by-column weighted least squares and the expected validity mask."""
    m, h, w = images.shape
    weights = np.ones(m) if np.ptp(sigmas) == 0.0 else 1.0 / sigmas
    flat = images.reshape(m, -1)
    n_tilde = np.stack([
        np.linalg.lstsq(rows * weights[:, None], flat[:, p] * weights, rcond=None)[0]
        for p in range(h * w)
    ])
    norms = np.linalg.norm(n_tilde, axis=1)
    tau = max(3.0 * sigmas.max(), 1e-6)
    valid = ~np.any(flat < tau, axis=0) & (norms > 1e-9) & (n_tilde[:, 2] > 0.0)
    return n_tilde.reshape(h, w, 3), valid.reshape(h, w)


@pytest.mark.parametrize("m", [3, 6, 16])
@pytest.mark.parametrize("sigma_kind", ["equal", "zero", "unequal"])
def test_solve_map_matches_columnwise_lstsq(rng, m, sigma_kind):
    sigmas = {"equal": np.full(m, 0.01), "zero": np.zeros(m),
              "unequal": rng.uniform(0.004, 0.01, size=m)}[sigma_kind]
    tau = max(3.0 * sigmas.max(), 1e-6)
    back = np.array([0.3, -0.2, -0.9]) / np.linalg.norm([0.3, -0.2, -0.9])
    if m == 3:
        rows = lit_rows(rng, 3, back)  # every light sees the back-facing normal
    else:
        half = well_conditioned_rows(rng, m // 2)
        rows = np.vstack([half, -half])  # S^T 1 = 0, so n_tilde = 0 has lit pixels
    h, w = 5, 8
    images = rng.uniform(0.05, 1.0, size=(m, h, w))
    images[0, 0, 0] = 0.5 * tau  # shadowed
    null = np.ones(m)
    if m > 3:
        # S^T W^2 null = 0: a lit pixel whose weighted solution is exactly zero
        weights = np.ones(m) if sigma_kind != "unequal" else 1.0 / sigmas
        null = weights**-2 / (weights**-2).min()
        images[:, 0, 1] = (tau + 0.1) * null  # degenerate
    else:
        images[1, 0, 1] = 0.5 * tau  # shadowed: m = 3 has no degenerate lit pixel
    lit_back = 0.7 * rows @ back
    images[:, 0, 2] = lit_back + max(0.0, tau + 0.1 - lit_back.min()) * (m > 3) * null

    lights = LightConfig(rows=rows)
    nmap, amap = solve_map(IntensityStack(images=images, sigmas=sigmas), lights)
    ref, ref_valid = reference_solve(images, rows, sigmas)

    ref_norms = np.linalg.norm(ref, axis=-1)
    assert np.array_equal(nmap.mask, ref_valid)
    assert not nmap.mask[0, :3].any()
    assert np.all(images[:, 0, 2] >= tau) and ref[0, 2, 2] < 0.0  # back-facing only
    lit = ref_norms > 1e-9
    assert np.all(np.abs(amap.values - ref_norms)[lit] <= 1e-12 * ref_norms[lit])
    if m > 3:
        assert np.all(images[:, 0, 1] >= tau) and amap.values[0, 1] <= 1e-9
    est = amap.values[..., None] * nmap.normals
    err = np.linalg.norm(est - ref, axis=-1)
    assert np.all(err[nmap.mask] <= 1e-12 * ref_norms[nmap.mask])
    assert np.all(nmap.normals[~nmap.mask] == [0.0, 0.0, 1.0])


class TestSolveMap:
    def sphere(self, side=33, albedo=0.9):
        return generate(SceneSpec(kind="sphere", width=side, height=side,
                                  params={"radius": 0.9}, albedo=AlbedoSpec(value=albedo)))

    def test_noiseless_sphere_exact(self):
        from psdesign import baseline_orthogonal_triad, compare_maps

        nmap, amap = self.sphere()
        lights = baseline_orthogonal_triad()
        est, _ = solve_map(render_stack(nmap, amap, lights), lights)
        stats = compare_maps(est, nmap)
        assert stats.max_deg <= 1e-7

    def test_shadowed_pixel_masked(self):
        normals = np.zeros((1, 1, 3))
        normals[0, 0] = (0.0, 0.0, 1.0)
        nmap = NormalMap(normals=normals, mask=np.ones((1, 1), bool))
        amap = AlbedoMap(values=np.ones((1, 1)))
        # one light orthogonal to the normal renders an all-zero image
        lights = LightConfig(rows=np.array(
            [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.6, 0.8]]))
        est, _ = solve_map(render_stack(nmap, amap, lights), lights)
        assert not est.mask[0, 0]

    def test_shadow_mask_at_tau_and_nan(self):
        # tau = 3 * sigma; the mask equals the (m, P) boolean formulation it replaced
        lights = LightConfig(rows=np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, 0.6, 0.8]]))
        sigmas, tau = np.full(3, 0.01), 0.03
        flat = np.full((3, 5), 0.5)
        flat[:2, 1] = tau  # exactly at tau: lit
        flat[2, 2] = np.nextafter(tau, 0.0)  # just below: shadowed
        flat[0, 3] = np.nan  # NaN: fails through its NaN norm
        flat[:, 4] = [np.nan, tau, 0.0]
        _, norms, ok = _solve_columns(flat, lights, sigmas)
        before = ~np.any(flat < tau, axis=0) & (norms > DEGENERATE_NORM)
        assert np.array_equal(ok, before)
        assert ok.tolist() == [True, True, False, False, False]

    def test_non_finite_estimates_are_masked_silently(self):
        # an infinite intensity, six intensities of 1e300 (|n_tilde|^2
        # overflows) and a NaN mask their pixels, with no RuntimeWarning; every
        # other pixel is solved as if those three were finite
        nmap, amap = self.sphere(side=9)
        lights = cap_rig(6)
        finite = render_stack(nmap, amap, lights).images.copy()
        images = finite.copy()
        images[2, 3, 4] = np.inf
        images[:, 4, 4] = 1e300
        images[5, 5, 3] = np.nan
        bad = np.zeros((9, 9), dtype=bool)
        bad[3, 4] = bad[4, 4] = bad[5, 3] = True
        sigmas = np.full(6, 0.01)
        got_n, got_a = solve_map(IntensityStack(images=images, sigmas=sigmas), lights)
        ref_n, ref_a = solve_map(IntensityStack(images=finite, sigmas=sigmas), lights)
        assert ref_n.mask[bad].all()
        assert np.array_equal(got_n.mask, ref_n.mask & ~bad)
        assert np.all(got_n.normals[bad] == [0.0, 0.0, 1.0])
        assert got_n.normals[~bad].tobytes() == ref_n.normals[~bad].tobytes()
        assert got_a.values[~bad].tobytes() == ref_a.values[~bad].tobytes()

    def test_overflowing_intensities_give_an_invalid_estimate(self):
        est = solve_lsq(np.full(6, 1e300), cap_rig(6), np.zeros(6))
        assert not est.valid
        assert est.albedo == np.inf
        assert np.array_equal(est.normal, [0.0, 0.0, 1.0])

    def test_stack_size_must_match(self):
        nmap, amap = self.sphere(side=9)
        stack = render_stack(nmap, amap, identity_triad())
        other = LightConfig(rows=np.vstack([np.eye(3), [0.0, 0.6, 0.8]]))
        with pytest.raises(DimensionMismatchError):
            solve_map(stack, other)

    def test_round_trip_albedo(self):
        from psdesign import baseline_orthogonal_triad

        nmap, amap = self.sphere()
        lights = baseline_orthogonal_triad()
        est_n, est_a = solve_map(render_stack(nmap, amap, lights), lights)
        joint = est_n.mask
        assert np.abs(est_a.values[joint] - amap.values[joint]).max() < ROUND_TRIP_TOL

    def test_noisy_error_matches_covariance_prediction(self):
        # pooled squared angular error against the propagated covariance
        from psdesign import baseline_orthogonal_triad

        nmap, amap = self.sphere(side=41)
        lights = baseline_orthogonal_triad()
        sigma = 0.01
        cov = covariance(lights, [sigma] * 3).matrix
        clean = render_stack(nmap, amap, lights)

        trials = 40
        sq_sum = np.zeros(nmap.normals.shape[:2])
        hits = np.zeros(nmap.normals.shape[:2], dtype=int)
        for t in range(trials):
            noisy = add_noise(clean, NoiseSpec(sigmas=[sigma] * 3, seed=800 + 16 * t))
            est, _ = solve_map(noisy, lights)
            joint = est.mask & nmap.mask
            dots = np.einsum("hwc,hwc->hw", est.normals, nmap.normals)
            cross = np.linalg.norm(np.cross(est.normals, nmap.normals), axis=-1)
            ang = np.arctan2(cross, dots)
            sq_sum[joint] += ang[joint] ** 2
            hits[joint] += 1

        stable = hits == trials  # pixels valid in every trial
        assert stable.sum() > 100
        measured_mse = (sq_sum[stable] / trials).mean()

        predicted = np.zeros_like(sq_sum)
        for r, c in zip(*np.nonzero(stable)):
            b = b_matrix(amap.values[r, c] * nmap.normals[r, c])
            predicted[r, c] = np.trace(b @ cov @ b.T)
        predicted_mse = predicted[stable].mean()

        assert measured_mse == pytest.approx(predicted_mse, rel=0.2)
