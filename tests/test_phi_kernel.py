"""The objective kernel ``oed.phi_of_rows``: accuracy against exact rational
arithmetic, its stack and warning contract, and the descent on a nearly
coplanar rig whose estimated prior is nearly rank 2."""

import itertools
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest

from psdesign import (
    LightConfig, ShapePrior, baseline_random, cli, optimize,
)
from psdesign.core import RANK_RTOL, rank_ratio
from psdesign.forward import Stage, stream_key, substream
from psdesign.oed import phi_lower_bound, phi_of_rows

from conftest import NEARLY_COPLANAR_ROWS

EPS = np.finfo(float).eps
# phi is within ACCURACY_MULTIPLE * kappa(G) * eps of its exact value.  To first
# order a change dG of the Gram moves phi by at most kappa(G) |dG| / |G| relative
# for any positive semidefinite M; forming S^T S from m unit rows costs up to
# about 3 m eps |G| and the 3x3 Cholesky factor and its inverse a few eps |G|
# more, which is below 64 eps |G| for every m tested here.
ACCURACY_MULTIPLE = 64
# The README run config with the nearly coplanar triad as its rig: the prior
# estimated through it is nearly rank 2.
SPREAD_CONFIG = {
    "seed": 1234,
    "alpha": 0.05,
    "scene": {
        "kind": "sphere", "width": 64, "height": 64, "params": {"radius": 0.9},
        "albedo": {"kind": "constant", "value": 0.9},
    },
    "lights": {"rows": NEARLY_COPLANAR_ROWS.tolist()},
    "noise": {"sigma": 0.02},
    "optimizer": {"max_iters": 1000, "restarts": 4},
    "trials": 20,
}


def exact_phi(rows, m_agg) -> Fraction:
    """trace(M G^-1) in rational arithmetic on the float rows and M."""
    s = [[Fraction(float(v)) for v in row] for row in rows]
    g = [[sum(row[i] * row[j] for row in s) for j in range(3)] for i in range(3)]

    def cofactor(i, j):
        a, b = (i + 1) % 3, (i + 2) % 3
        c, d = (j + 1) % 3, (j + 2) % 3
        return g[a][c] * g[b][d] - g[a][d] * g[b][c]

    det = sum(g[0][j] * cofactor(0, j) for j in range(3))
    # (G^-1)_ji = cofactor(i, j) / det
    return sum(
        Fraction(float(m_agg[j][i])) * cofactor(i, j) for i in range(3) for j in range(3)
    ) / det


def gram_condition(rows) -> float:
    sv = np.linalg.svd(rows, compute_uv=False)
    return float((sv[0] / sv[-1]) ** 2)


def assert_accurate(rows, m_agg):
    exact = exact_phi(rows, m_agg)
    assert exact > 0
    rel = abs(Fraction(float(phi_of_rows(rows, m_agg))) - exact) / exact
    assert float(rel) <= ACCURACY_MULTIPLE * gram_condition(rows) * EPS


def unit(rows):
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def random_prior(rng) -> np.ndarray:
    a = rng.normal(size=(3, 3))
    return a @ a.T + 0.1 * np.eye(3)


def near_coplanar_rows(rng, m: int, ratio: float) -> np.ndarray:
    """m unit rows nearly equiangular in a random plane, lifted out of it so
    that the singular-value ratio is about ``ratio``."""
    azimuth = 2.0 * np.pi * np.arange(m) / m + rng.uniform(-0.1, 0.1, size=m)
    lift = ratio * rng.uniform(0.5, 1.5, size=m)
    flat = np.stack([np.cos(azimuth), np.sin(azimuth), lift], axis=1)
    rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return unit(flat @ rotation.T)


@pytest.fixture(scope="module")
def spread_run(tmp_path_factory):
    """The spread config, its estimated prior and its ``psdesign optimize`` report."""
    root = tmp_path_factory.mktemp("spread")
    path = root / "run.json"
    path.write_text(json.dumps(SPREAD_CONFIG))
    cfg = cli.load_run_config(str(path))
    out = root / "optimize"
    assert cli.main(["optimize", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "optimize_report.json").read_text())
    return cfg, cli._prior_pass(cfg)[2], report


class TestAccuracy:
    @pytest.mark.parametrize("m", [3, 4, 6, 16])
    def test_random_rigs(self, m):
        rng = substream(91, m)
        for m_agg in (np.eye(3), random_prior(rng), np.diag([1.0, 1.0, 0.0])):
            for rows in unit(rng.normal(size=(40, m, 3))):
                assert_accurate(rows, m_agg)

    @pytest.mark.parametrize("ratio", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
    @pytest.mark.parametrize("m", [3, 6])
    def test_near_coplanar_rigs(self, m, ratio):
        rng = substream(92, m)
        for _ in range(10):
            rows = near_coplanar_rows(rng, m, ratio)
            assert 0.1 * ratio < rank_ratio(rows) < 10.0 * ratio
            for m_agg in (np.eye(3), random_prior(rng), np.diag([1.0, 1.0, 0.0])):
                assert_accurate(rows, m_agg)

    def test_rank_two_prior_of_the_spread_config(self, spread_run):
        # every candidate of the descent's first line search from the triad,
        # which is where a cofactor (adjugate) form of phi goes wrong
        _, prior, report = spread_run
        m_agg = prior.m_agg
        assert np.linalg.eigvalsh(m_agg)[0] < 1e-12 * np.trace(m_agg)
        rows = NEARLY_COPLANAR_ROWS
        tangent = optimize._tangent_gradient(rows, optimize._gradient_of_rows(rows, m_agg))
        grad_norm = np.linalg.norm(tangent)
        candidates = [rows, np.asarray(report["final_rows"])]
        step = optimize.STEP_SIZE
        while step * grad_norm >= optimize.EPS:
            candidate = optimize._renormalize_rows(rows - step * tangent)
            if rank_ratio(candidate) > RANK_RTOL:
                candidates.append(candidate)
            step *= optimize.ARMIJO_SHRINK
        assert len(candidates) > 40
        for candidate in candidates:
            assert_accurate(candidate, m_agg)
        for candidate, _ in baseline_random(200, 3, prior, seed=5):
            assert_accurate(candidate, m_agg)


class TestKernelContract:
    @pytest.mark.parametrize("m", [3, 4, 6, 16])
    def test_a_rig_scores_the_same_bits_alone_and_in_a_stack(self, m):
        rng = substream(93, m)
        m_agg = random_prior(rng)
        stack = unit(rng.normal(size=(120, m, 3)))
        batch = phi_of_rows(stack, m_agg)
        assert batch.shape == (120,)
        alone = np.array([phi_of_rows(rows, m_agg) for rows in stack])
        assert np.array_equal(batch, alone)
        assert np.array_equal(phi_of_rows(stack.reshape(8, 15, m, 3), m_agg), batch.reshape(8, 15))

    @pytest.mark.parametrize("m", [3, 4, 6, 16])
    def test_random_rigs_are_the_normalized_draws(self, m):
        draw = substream(stream_key(17, Stage.BASELINE, 0), 0).normal(size=(500, m, 3))
        want = draw / np.linalg.norm(draw, axis=2, keepdims=True)
        got = np.stack([rows for rows, _ in baseline_random(500, m, ShapePrior.identity(), seed=17)])
        assert np.array_equal(got, want)
        # the one row normaliser has np.linalg.norm's bits on a stack and on one rig,
        # and random_unit_rows normalizes its draw with it
        assert optimize._renormalize_rows(draw).tobytes() == want.tobytes()
        for k, i in itertools.product(range(8), range(8)):
            rig = substream(k, i).normal(size=(m, 3))
            want = unit(rig)
            assert optimize._renormalize_rows(rig).tobytes() == want.tobytes()
            assert optimize.random_unit_rows(m, substream(k, i)).tobytes() == want.tobytes()

    def test_failed_pivot_scores_inf_without_a_warning(self):
        rigs = np.array([
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, 0.8, 0.0]],  # coplanar: pivot 2 is 0
            [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.6, 0.8]],  # no x: pivot 0 is 0
            [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],  # repeated row: pivot 1 is 0
            [[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            [[np.inf, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            np.eye(3),
        ])
        m_agg = np.array([[1.0, 0.2, 0.0], [0.2, 1.0, 0.0], [0.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phis = phi_of_rows(rigs, m_agg)
            alone = [float(phi_of_rows(rows, m_agg)) for rows in rigs]
        assert phis.tolist() == [np.inf] * 5 + [2.0]
        assert alone == phis.tolist()


class TestSpreadConfigDescent:
    """``psdesign optimize`` on the spread config, whose prior is nearly rank 2."""

    def test_reports_no_phi_below_the_bound(self, spread_run):
        _, prior, report = spread_run
        bound = phi_lower_bound(prior.m_agg, 3)
        assert report["phi_lower_bound"] == bound
        trajectory = report["phi_trajectory"]
        assert min(trajectory) > 0.0
        assert trajectory[-1] >= bound * (1.0 - 1e-9)
        assert report["optimality_gap"] >= 0.0
        exact = exact_phi(np.asarray(report["final_rows"]), prior.m_agg)
        assert float(exact) >= bound * (1.0 - 1e-9)

    def test_every_accepted_step_lowers_phi(self, spread_run):
        trajectory = spread_run[2]["phi_trajectory"]
        assert len(trajectory) > 1
        assert all(b < a for a, b in zip(trajectory, trajectory[1:]))


def test_a_step_that_keeps_phi_is_rejected(monkeypatch):
    # phi flat at every candidate: the Armijo margin rounds away at small steps,
    # and a non-strict test would accept them until max_iters
    prior = ShapePrior(m_agg=np.diag([0.5, 0.7, 0.8]), pixel_count=1)
    start = LightConfig(rows=unit(np.array([[1.0, 0.2, 0.1], [0.1, 1.0, 0.3], [0.2, 0.1, 1.0]])))
    flat = float(phi_of_rows(start.rows, prior.m_agg))
    monkeypatch.setattr(optimize, "phi_of_rows", lambda rows, m_agg: flat)
    report = optimize.optimize_lights(start, prior, optimize.OptimizerConfig(max_iters=50))
    assert report.iterations_used == 0
    assert report.phi_trajectory == [flat]
    assert not report.converged
