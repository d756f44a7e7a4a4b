from fractions import Fraction

import numpy as np
import pytest

from psdesign import IntensityStack, LightConfig, NoiseSpec, add_noise, substream
from psdesign import cli, evaluate, forward
from psdesign.optimize import random_unit_rows


# A nearly coplanar triad at a singular-value ratio of about 1e-7: 120 degrees
# apart in a tilted plane, nudged just off it, with phi ~ 5e13 under M = I.
# Degenerate-input tests take it as their rig; its bits are fixed here.
NEARLY_COPLANAR_ROWS = np.array([
    [0.21745777537796718, 0.6892858398837762, 0.6910840374826949],
    [-0.8967819597471458, -0.44247272985252023, -2.9878538141366135e-06],
    [0.6793254065643828, -0.24681631191178705, -0.6910851613009785],
])


def rotated_ring(m: int, k: int) -> np.ndarray:
    """m unit rows 360/m degrees apart at elevation 1e-7 rad, turned by the Q of
    np.linalg.qr of a 3x3 normal draw under default_rng([3201, k]) and
    renormalized: a rig about 1e-7 from rank 2 that no coordinate axis aligns."""
    azimuth = np.radians(np.arange(m) * 360.0 / m)
    ring = np.stack([np.cos(azimuth), np.sin(azimuth), np.full(m, np.tan(1e-7))], axis=1)
    rows = ring @ np.linalg.qr(np.random.default_rng([3201, k]).normal(size=(3, 3)))[0].T
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def exact_weighted_inverse(rows: np.ndarray, sigmas) -> list:
    """(S^T W S)^-1 with W = diag(1/sigma_i^2), as 3 lists of 3 Fractions: the
    adjugate over the determinant, in exact arithmetic over the float values
    of ``rows`` and ``sigmas``."""
    weights = [1 / Fraction(s) ** 2 for s in np.asarray(sigmas, dtype=float).tolist()]
    s = [[Fraction(v) for v in row] for row in np.asarray(rows, dtype=float).tolist()]
    g = [[sum(w * r[a] * r[b] for w, r in zip(weights, s)) for b in range(3)] for a in range(3)]
    # the cofactor of entry (a, b), its sign from the cyclic order of the indices
    cof = [[g[(a + 1) % 3][(b + 1) % 3] * g[(a + 2) % 3][(b + 2) % 3]
            - g[(a + 1) % 3][(b + 2) % 3] * g[(a + 2) % 3][(b + 1) % 3] for b in range(3)]
           for a in range(3)]
    det = sum(g[0][b] * cof[0][b] for b in range(3))
    return [[cof[b][a] / det for b in range(3)] for a in range(3)]


@pytest.fixture
def rng():
    return substream(20240811, 0)


def well_conditioned_rows(rng: np.random.Generator, m: int, min_sv: float = 0.3) -> np.ndarray:
    """Random unit rows rejected until the smallest singular value is decent."""
    while True:
        rows = random_unit_rows(m, rng)
        if np.linalg.svd(rows, compute_uv=False)[-1] >= min_sv:
            return rows


def well_conditioned_config(rng: np.random.Generator, m: int, min_sv: float = 0.3) -> LightConfig:
    return LightConfig(rows=well_conditioned_rows(rng, m, min_sv))


def noise_draws(key: int, m: int, count: int) -> np.ndarray:
    """The first ``count`` standard-normal draws of each of the m images that
    add_noise fills under ``key``, as an (m, count) array."""
    zeros = IntensityStack(images=np.zeros((m, 1, count)), sigmas=np.zeros(m))
    return add_noise(zeros, NoiseSpec.uniform(1.0, m, seed=key)).images[:, 0]


def directions(draws: np.ndarray) -> np.ndarray:
    """Draws taken three at a time as normalized rows, as a random rig makes them."""
    rows = draws.reshape(-1, 3)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.fixture
def noise_specs(monkeypatch):
    """Records the NoiseSpec of every add_noise call the CLI makes and of every
    trial draw of compare_configs (3 sigma-scaled normals per pixel, one stream
    each, shared by the trial's configs), in call order; a trial's spec is
    recorded as its stream 0 is drawn."""
    specs = []

    def recording(stack, noise):
        specs.append(noise)
        return add_noise(stack, noise)

    def recording_image(out, noise, i, clean=None):
        if i == 0:
            specs.append(noise)
        return forward._fill_image(out, noise, i, clean)

    monkeypatch.setattr(cli, "add_noise", recording)
    monkeypatch.setattr(evaluate, "_fill_image", recording_image)
    return specs
