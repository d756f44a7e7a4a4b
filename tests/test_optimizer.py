import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from psdesign import (
    DimensionMismatchError,
    LightConfig,
    NoiseSpec,
    OptimizerConfig,
    ShapePrior,
    add_noise,
    baseline_heuristic_spread,
    baseline_orthogonal_triad,
    baseline_random,
    build_shape_prior,
    optimize_lights,
    phi_gradient,
    phi_lower_bound,
    phi_shape_agnostic,
    phi_shape_aware,
    render_stack,
    solve_map,
    substream,
)
from psdesign import optimize
from psdesign.core import rank_ratio
from psdesign.optimize import (
    OPTIMALITY_RTOL,
    STEP_SIZE,
    _bb_step,
    random_hemisphere_rows,
    random_unit_rows,
)
from psdesign.scenes import SceneSpec, generate

from conftest import NEARLY_COPLANAR_ROWS, well_conditioned_config


def identity_triad():
    return LightConfig(rows=np.eye(3))


class TestPhiGradient:
    def test_identity_everything(self):
        g = phi_gradient(identity_triad(), ShapePrior.identity())
        assert np.abs(g - (-2.0 * np.eye(3))).max() < 1e-12

    def test_zero_prior_zero_gradient(self):
        prior = ShapePrior(m_agg=np.zeros((3, 3)), pixel_count=0)
        g = phi_gradient(identity_triad(), prior)
        assert np.all(g == 0.0)

    def test_against_finite_differences(self, rng):
        # smaller sweep here; the acceptance suite runs the full 100 pairs
        h = 1e-6
        for _ in range(20):
            m = int(rng.integers(3, 7))
            lights = well_conditioned_config(rng, m)
            b = rng.normal(size=(3, 3))
            m_agg = b.T @ b / 3.0
            prior = ShapePrior(m_agg=0.5 * (m_agg + m_agg.T), pixel_count=1)
            g = phi_gradient(lights, prior)
            rows = np.array(lights.rows)
            fd = np.empty_like(rows)
            for i in range(m):
                for j in range(3):
                    rp, rm = rows.copy(), rows.copy()
                    rp[i, j] += h
                    rm[i, j] -= h
                    fp = np.trace(prior.m_agg @ np.linalg.inv(rp.T @ rp))
                    fm = np.trace(prior.m_agg @ np.linalg.inv(rm.T @ rm))
                    fd[i, j] = (fp - fm) / (2.0 * h)
            rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-3)
            assert rel.max() < 1e-6


class TestOptimizeLights:
    def test_reaches_orthogonal_optimum(self):
        start = LightConfig(rows=random_unit_rows(3, substream(12, 0)))
        report = optimize_lights(start, ShapePrior.identity(),
                                 OptimizerConfig(max_iters=2000, seed=12))
        assert report.phi_trajectory[-1] == pytest.approx(3.0, abs=1e-6)
        assert np.abs(report.final_s.gram() - np.eye(3)).max() < 1e-4

    def test_stationary_start_stops_immediately(self):
        report = optimize_lights(identity_triad(), ShapePrior.identity(),
                                 OptimizerConfig())
        assert report.iterations_used <= 2
        assert report.converged
        assert abs(report.phi_trajectory[-1] - report.phi_trajectory[0]) < 1e-9

    def test_trajectory_non_increasing(self, rng):
        nmap, _ = generate(SceneSpec(kind="sphere", width=21, height=21))
        prior = build_shape_prior(nmap)
        start = LightConfig(rows=random_unit_rows(4, rng))
        report = optimize_lights(start, prior, OptimizerConfig(max_iters=200))
        traj = report.phi_trajectory
        assert all(b <= a for a, b in zip(traj, traj[1:]))

    def test_final_rows_unit(self, rng):
        start = LightConfig(rows=random_unit_rows(5, rng))
        report = optimize_lights(start, ShapePrior.identity(), OptimizerConfig())
        sq = np.einsum("ij,ij->i", report.final_s.rows, report.final_s.rows)
        assert np.abs(sq - 1.0).max() < 1e-12

    def test_rotation_invariant_optimum(self, rng):
        # rotated starts land on the same objective value
        base = random_unit_rows(3, rng)
        for _ in range(3):
            q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            start = LightConfig(rows=base @ q.T)
            report = optimize_lights(start, ShapePrior.identity(),
                                     OptimizerConfig(max_iters=2000))
            assert report.phi_trajectory[-1] == pytest.approx(3.0, abs=1e-6)

    def test_restart_determinism(self):
        start = LightConfig(rows=random_unit_rows(3, substream(5, 0)))
        cfg = OptimizerConfig(restarts=4, seed=77, max_iters=500)
        a = optimize_lights(start, ShapePrior.identity(), cfg)
        b = optimize_lights(start, ShapePrior.identity(), cfg)
        assert np.array_equal(a.final_s.rows, b.final_s.rows)
        assert a.phi_trajectory == b.phi_trajectory


class TestBarzilaiBorweinStep:
    def test_no_previous_move(self):
        assert _bb_step(None, None) == STEP_SIZE

    @pytest.mark.parametrize("y", [[-1.0, 0.0, 0.5], [0.0, 3.0, 0.0]],
                             ids=["negative curvature", "zero curvature"])
    def test_curvature_not_positive(self, y):
        s = np.array([[2.0, 0.0, 1.0]])
        assert _bb_step(s, np.array([y])) == STEP_SIZE

    def test_overflowing_ratio(self):
        # <s, y> is a positive subnormal, so <s, s>/<s, y> is inf
        s = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        y = np.array([[1e-320, 0.0, 0.0], [0.0, 5.0, 0.0]])
        assert _bb_step(s, y) == STEP_SIZE

    @pytest.mark.parametrize("s, y, expected", [
        ([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], 5.0 / 3.0),
        ([[0.5, -0.5, 0.0], [0.0, 0.0, 0.25]], [[4.0, 0.0, 0.0], [0.0, 1.0, 8.0]], 0.5625 / 4.0),
        ([[2.0**-30, 0.0, 0.0]], [[1.0, 1e6, -3.0]], 2.0**-30),
    ])
    def test_two_point_ratio(self, s, y, expected):
        s, y = np.array(s), np.array(y)
        assert _bb_step(s, y) == expected
        assert _bb_step(s, y) == np.vdot(s, s) / np.vdot(s, y)


def spd_of_trace_two(smallest: float, split: float, seed: int) -> np.ndarray:
    """Randomly rotated symmetric M with eigenvalues smallest, split and 1 - split
    of the remaining trace."""
    rest = 2.0 - smallest
    q = np.linalg.qr(substream(seed, 0).normal(size=(3, 3)))[0]
    m_agg = q @ np.diag([smallest, split * rest, (1.0 - split) * rest]) @ q.T
    return 0.5 * (m_agg + m_agg.T)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(5e-4, 2e-3) | st.floats(0.05, 1.0),
    st.floats(0.05, 0.95),
    st.integers(3, 16),
    st.integers(0, 2**32 - 1),
)
# two descents that stopped at phi <= phi* (1 + OPTIMALITY_RTOL) as floats,
# with gaps 1.6e-4 and 5.1e-5 relative above OPTIMALITY_RTOL phi*
@example(0.5933343534119816, 0.592250031152369, 10, 3027857205)
@example(0.0015558851018525309, 0.0977896884171712, 14, 1597772437)
def test_descent_contract_holds_under_two_point_steps(smallest, split, m, seed):
    prior = ShapePrior(m_agg=spd_of_trace_two(smallest, split, seed), pixel_count=1)
    start = LightConfig(rows=random_unit_rows(m, substream(seed, 1)))
    report = optimize_lights(start, prior, OptimizerConfig())
    traj = report.phi_trajectory
    assert all(b <= a for a, b in zip(traj, traj[1:]))
    rows = report.final_s.rows
    assert np.abs(np.einsum("ij,ij->i", rows, rows) - 1.0).max() <= 1e-12
    bound = phi_lower_bound(prior.m_agg, m)
    assert report.converged == (report.optimality_gap <= OPTIMALITY_RTOL * bound)
    grad = phi_gradient(report.final_s, prior)
    tangent = grad - np.einsum("ij,ij->i", grad, rows)[:, None] * rows
    assert report.gradient_norm_final == pytest.approx(np.linalg.norm(tangent), rel=1e-9)


def estimated_prior(kind: str) -> ShapePrior:
    """Prior of a noisy 32x32 estimate, as the pipeline builds it: a plane's
    estimate is not exactly flat, so its M is positive definite."""
    gt, albedo = generate(SceneSpec(kind=kind, width=32, height=32))
    lights = baseline_orthogonal_triad()
    stack = add_noise(render_stack(gt, albedo, lights), NoiseSpec.uniform(0.01, 3, seed=4))
    return build_shape_prior(solve_map(stack, lights)[0])


@pytest.fixture
def restart_starts(monkeypatch):
    """Counts the random restart starts optimize_lights draws."""
    calls = []

    def counting(m, rng):
        calls.append(m)
        return random_unit_rows(m, rng)

    monkeypatch.setattr(optimize, "random_unit_rows", counting)
    return calls


class TestOptimalityCertificate:
    @pytest.mark.parametrize("m", [3, 6, 16])
    @pytest.mark.parametrize("kind", ["identity", "sphere", "paraboloid", "plane"])
    def test_certified_and_later_restarts_skipped(self, kind, m, restart_starts):
        prior = ShapePrior.identity() if kind == "identity" else estimated_prior(kind)
        start = LightConfig(rows=random_unit_rows(m, substream(41, m)))
        report = optimize_lights(start, prior,
                                 OptimizerConfig(max_iters=4000, restarts=3, seed=8))
        bound = phi_lower_bound(prior.m_agg, m)
        assert report.converged
        assert report.optimality_gap == max(report.phi_trajectory[-1] - bound, 0.0)
        assert 0.0 <= report.optimality_gap <= OPTIMALITY_RTOL * bound
        assert restart_starts == []  # restart 0 was certified; 1 and 2 never ran

    def test_restarts_stop_at_first_certified(self, restart_starts):
        # e1, e2, e3, e3 is stationary (zero tangent gradient) at phi 2.5 > phi* 2.25,
        # so restart 0 stops uncertified after 0 iterations and restart 1 certifies
        start = LightConfig(rows=np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]]))
        report = optimize_lights(start, ShapePrior.identity(),
                                 OptimizerConfig(restarts=4, seed=3))
        assert restart_starts == [4]
        assert report.phi_trajectory[-1] < 2.5
        assert 0.0 <= report.optimality_gap <= OPTIMALITY_RTOL * 2.25

    def test_start_at_bound_takes_no_iterations(self, restart_starts):
        report = optimize_lights(identity_triad(), ShapePrior.identity(),
                                 OptimizerConfig(restarts=3))
        assert report.iterations_used == 0
        assert report.converged
        assert report.phi_trajectory == [3.0]
        assert report.optimality_gap == 0.0
        assert report.gradient_norm_final < 1e-12
        assert restart_starts == []

    def test_max_iters_exit_reports_the_returned_rows(self):
        prior = ShapePrior(m_agg=np.diag([0.2, 0.5, 0.9]), pixel_count=1)
        start = LightConfig(rows=random_unit_rows(4, substream(1, 0)))
        report = optimize_lights(start, prior, OptimizerConfig(max_iters=5))
        grad = phi_gradient(report.final_s, prior)
        rows = report.final_s.rows
        tangent = grad - np.einsum("ij,ij->i", grad, rows)[:, None] * rows
        assert report.iterations_used == 5
        assert not report.converged
        assert report.gradient_norm_final == pytest.approx(np.linalg.norm(tangent), rel=1e-9)

    def test_random_three_light_starts_certify_on_a_sphere_prior(self):
        # the 64^2 ground-truth sphere prior, whose m = 3 descents converge
        # slowly at a fixed first trial step: none of these 20 certified
        # within the default max_iters
        prior = build_shape_prior(generate(SceneSpec(kind="sphere", width=64, height=64))[0])
        bound = phi_lower_bound(prior.m_agg, 3)
        for i in range(20):
            start = LightConfig(rows=random_unit_rows(3, substream(115, i)))
            report = optimize_lights(start, prior, OptimizerConfig())
            assert report.converged, i
            assert report.optimality_gap <= OPTIMALITY_RTOL * bound, i

    def test_singular_prior_never_certifies(self, restart_starts):
        # a true plane: M = diag(0, 1, 1) is singular and phi* is not attained
        prior = ShapePrior(m_agg=np.diag([0.0, 1.0, 1.0]), pixel_count=1)
        start = LightConfig(rows=random_unit_rows(4, substream(6, 0)))
        report = optimize_lights(start, prior,
                                 OptimizerConfig(max_iters=150, restarts=3, seed=2))
        assert restart_starts == [4, 4]
        assert report.optimality_gap > OPTIMALITY_RTOL * phi_lower_bound(prior.m_agg, 4)
        assert not report.converged


def off_plane_triad() -> np.ndarray:
    """Three unit rows 120 degrees apart, 3e-9 off the plane z = 0."""
    azimuth = np.radians([0.0, 120.0, 240.0])
    rows = np.stack([np.cos(azimuth), np.sin(azimuth), [3e-9, -3e-9, 3e-9]], axis=1)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestDescentExits:
    """The exits short of max_iters: certified, and a line search that finds
    no lower phi before step * tangent-gradient norm falls below EPS."""

    @pytest.mark.parametrize(
        "rows",
        [off_plane_triad(), NEARLY_COPLANAR_ROWS],
        ids=["off-plane triad", "nearly coplanar"],
    )
    def test_degenerate_starts_certify(self, rows):
        # rank-deficient candidates are halved away until a step lowers phi
        report = optimize_lights(LightConfig(rows=rows), ShapePrior.identity(), OptimizerConfig())
        traj = report.phi_trajectory
        assert report.iterations_used > 0
        assert all(b < a for a, b in zip(traj, traj[1:]))
        assert report.converged
        assert report.optimality_gap <= OPTIMALITY_RTOL * phi_lower_bound(np.eye(3), 3)

    def test_stationary_start_stops_unconverged(self):
        # e1, e2, e3, e3 has a zero tangent gradient at phi 2.5 > phi* 2.25
        start = LightConfig(rows=np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]]))
        report = optimize_lights(start, ShapePrior.identity(), OptimizerConfig())
        assert report.iterations_used == 0
        assert report.phi_trajectory == [2.5]
        assert not report.converged
        assert report.optimality_gap == 0.25
        assert report.gradient_norm_final == 0.0


class TestBaselineRandom:
    def test_single_sample_reproducible(self):
        one = baseline_random(1, 3, ShapePrior.identity(), seed=9)
        two = baseline_random(1, 3, ShapePrior.identity(), seed=9)
        assert np.array_equal(one[0][0], two[0][0])
        assert one[0][1] == two[0][1]

    def test_rigs_are_sealed_views_of_one_buffer(self):
        samples = baseline_random(50, 4, ShapePrior.identity(), seed=3)
        assert len(samples) == 50
        first = samples[0][0]
        for rows, phi in samples:
            assert isinstance(rows, np.ndarray) and rows.dtype == float
            assert rows.shape == (4, 3) and not rows.flags.writeable
            assert rows.base is first.base and not rows.base.flags.writeable
            assert type(phi) is float
        adopted = LightConfig(rows=samples[7][0]).rows
        assert np.shares_memory(adopted, samples[7][0])
        assert np.array_equal(adopted, samples[7][0])

    @pytest.mark.parametrize(
        "count, m, error",
        [(0, 3, ValueError), (5, 0, DimensionMismatchError),
         (5, 1, DimensionMismatchError), (5, 2, DimensionMismatchError)],
    )
    def test_bad_arguments_rejected(self, count, m, error):
        with pytest.raises(error):
            baseline_random(count, m, ShapePrior.identity(), seed=1)

    def test_identity_prior_floor(self):
        samples = baseline_random(100_000, 3, ShapePrior.identity(), seed=31)
        phis = np.array([phi for _, phi in samples])
        assert phis.min() >= 3.0

    @pytest.mark.parametrize("m", [3, 4, 6, 16])
    def test_phi_matches_direct_evaluation(self, m):
        prior = ShapePrior(m_agg=np.diag([0.5, 0.7, 0.2]), pixel_count=3)
        for rows, phi in baseline_random(2000, m, prior, seed=2):
            assert phi == pytest.approx(phi_shape_aware(LightConfig(rows=rows), prior), rel=1e-12)


class NoDraws:
    """A generator stand-in that fails on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from the generator ({name})")


@pytest.mark.parametrize("draw", [random_unit_rows, random_hemisphere_rows])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_random_rows_need_three_lights(draw, m):
    with pytest.raises(DimensionMismatchError, match=f"need at least 3 lights, got {m}"):
        draw(m, NoDraws())


class TestHeuristicSpread:
    """The tight-frame ring: equal azimuths at a slant of arctan(sqrt 2)."""

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_too_few_lights_is_a_typed_error(self, m):
        with pytest.raises(DimensionMismatchError):
            baseline_heuristic_spread(m)

    @pytest.mark.parametrize("m", range(3, 17))
    def test_tight_frame(self, m):
        cfg = baseline_heuristic_spread(m)
        assert np.abs(cfg.rows.T @ cfg.rows - (m / 3.0) * np.eye(3)).max() <= 1e-12 * m
        assert phi_shape_agnostic(cfg) == pytest.approx(9.0 / m, rel=1e-12)
        assert np.abs(cfg.rows[:, 2] - 1.0 / np.sqrt(3.0)).max() <= 1e-12

    @pytest.mark.parametrize("m", range(3, 17))
    def test_every_m_in_envelope_gives_a_valid_rig(self, m):
        rows = baseline_heuristic_spread(m).rows
        assert rows.shape == (m, 3)
        assert np.all(np.isfinite(rows))
        assert np.abs(np.einsum("ij,ij->i", rows, rows) - 1.0).max() <= 1e-12
        assert rank_ratio(rows) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        assert np.array_equal(baseline_heuristic_spread(4).rows,
                              baseline_heuristic_spread(4).rows)

    def test_three_lights_are_the_orthogonal_triad(self):
        assert np.array_equal(baseline_heuristic_spread(3).rows,
                              baseline_orthogonal_triad().rows)

    def test_draws_no_random_numbers(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the heuristic spread drew random numbers")

        before = baseline_heuristic_spread(7).rows
        monkeypatch.setattr(optimize, "random_unit_rows", refuse)
        monkeypatch.setattr(optimize, "substream", refuse)
        assert np.array_equal(baseline_heuristic_spread(7).rows, before)

    def test_rows_are_sealed(self):
        rows = baseline_heuristic_spread(5).rows
        with pytest.raises(ValueError):
            rows[0, 0] = 0.0
        with pytest.raises(ValueError):
            rows.flags.writeable = True


class TestOrthogonalTriad:
    def test_gram_is_identity(self):
        cfg = baseline_orthogonal_triad()
        assert np.abs(cfg.gram() - np.eye(3)).max() < 1e-12

    def test_common_slant(self):
        cfg = baseline_orthogonal_triad()
        slant = np.degrees(np.arccos(cfg.rows @ np.array([0.0, 0.0, 1.0])))
        expected = np.degrees(np.arccos(1.0 / np.sqrt(3.0)))
        assert np.abs(slant - expected).max() < 1e-9

    def test_phi_is_three(self):
        assert phi_shape_agnostic(baseline_orthogonal_triad()) == pytest.approx(3.0, abs=1e-12)
