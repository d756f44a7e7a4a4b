import numpy as np
import pytest

from psdesign import (
    LightConfig,
    NoiseSpec,
    NonUnitRowsError,
    OptimizerConfig,
    ShapePrior,
    SingularLightMatrixError,
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
    HEURISTIC_RANK_FLOOR,
    OPTIMALITY_RTOL,
    min_pairwise_angle_deg,
    random_unit_rows,
)
from psdesign.scenes import SceneSpec, generate

from conftest import well_conditioned_config


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

    def test_refuses_free_norm(self):
        cfg = LightConfig(rows=2.0 * np.eye(3), unit_norm=False)
        with pytest.raises(NonUnitRowsError):
            optimize_lights(cfg, ShapePrior.identity(), OptimizerConfig())

    def test_restart_determinism(self):
        start = LightConfig(rows=random_unit_rows(3, substream(5, 0)))
        cfg = OptimizerConfig(restarts=4, seed=77, max_iters=500)
        a = optimize_lights(start, ShapePrior.identity(), cfg)
        b = optimize_lights(start, ShapePrior.identity(), cfg)
        assert np.array_equal(a.final_s.rows, b.final_s.rows)
        assert a.phi_trajectory == b.phi_trajectory


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
        # so restart 0 converges uncertified and restart 1 certifies
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

    def test_singular_prior_never_certifies(self, restart_starts):
        # a true plane: M = diag(0, 1, 1) is singular and phi* is not attained
        prior = ShapePrior(m_agg=np.diag([0.0, 1.0, 1.0]), pixel_count=1)
        start = LightConfig(rows=random_unit_rows(4, substream(6, 0)))
        report = optimize_lights(start, prior,
                                 OptimizerConfig(max_iters=150, restarts=3, seed=2))
        assert restart_starts == [4, 4]
        assert report.optimality_gap > OPTIMALITY_RTOL * phi_lower_bound(prior.m_agg, 4)
        assert not report.converged


class TestBaselineRandom:
    def test_single_sample_reproducible(self):
        one = baseline_random(1, 3, ShapePrior.identity(), seed=9)
        two = baseline_random(1, 3, ShapePrior.identity(), seed=9)
        assert np.array_equal(one[0][0].rows, two[0][0].rows)
        assert one[0][1] == two[0][1]

    def test_identity_prior_floor(self):
        samples = baseline_random(100_000, 3, ShapePrior.identity(), seed=31)
        phis = np.array([phi for _, phi in samples])
        assert phis.min() >= 3.0

    @pytest.mark.parametrize("m", [3, 4, 6, 16])
    def test_phi_matches_direct_evaluation(self, m):
        prior = ShapePrior(m_agg=np.diag([0.5, 0.7, 0.2]), pixel_count=3)
        for lights, phi in baseline_random(2000, m, prior, seed=2):
            assert phi == pytest.approx(phi_shape_aware(lights, prior), rel=1e-12)


class TestHeuristicSpread:
    def test_three_lights_coplanar_equiangular(self):
        cfg = baseline_heuristic_spread(3)
        angle = min_pairwise_angle_deg(cfg.rows)
        assert angle == pytest.approx(120.0, abs=0.1)

    def test_three_light_config_degenerate_for_phi(self):
        # either the objective raises or it returns an enormous value;
        # record which so comparison tables can tell the two apart
        cfg = baseline_heuristic_spread(3)
        try:
            phi = phi_shape_agnostic(cfg)
            outcome = ("large-value", phi)
            assert phi > 1e10
        except SingularLightMatrixError:
            outcome = ("singular", None)
        assert outcome[0] in ("large-value", "singular")

    def test_four_lights_tetrahedral(self):
        cfg = baseline_heuristic_spread(4)
        dots = cfg.rows @ cfg.rows.T
        off_diag = dots[~np.eye(4, dtype=bool)]
        assert np.abs(np.degrees(np.arccos(off_diag)) - np.degrees(np.arccos(-1.0 / 3.0))).max() < 0.1

    @pytest.mark.parametrize("m", range(3, 17))
    def test_every_m_in_envelope_gives_a_valid_rig(self, m):
        # the repulsion used to overshoot and collide points for m >= 13
        rows = baseline_heuristic_spread(m).rows
        assert rows.shape == (m, 3)
        assert np.all(np.isfinite(rows))
        assert np.abs(np.einsum("ij,ij->i", rows, rows) - 1.0).max() <= 1e-12
        assert rank_ratio(rows) >= HEURISTIC_RANK_FLOOR

    def test_deterministic(self):
        assert np.array_equal(baseline_heuristic_spread(4).rows,
                              baseline_heuristic_spread(4).rows)

    def test_cached_rig_is_shared_and_sealed(self):
        cached = baseline_heuristic_spread(5)
        assert baseline_heuristic_spread(5) is cached
        assert np.array_equal(baseline_heuristic_spread.__wrapped__(5).rows, cached.rows)
        with pytest.raises(ValueError):
            cached.rows[0, 0] = 0.0
        with pytest.raises(ValueError):
            cached.rows.flags.writeable = True


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
