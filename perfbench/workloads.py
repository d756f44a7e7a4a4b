"""The three benchmark workloads and the call sites the traced run wraps.

Inputs are drawn from the benchmark seed, except the optimizer problems
(see PROBLEM_KEY); psdesign only ever sees the generated scenes, rigs and
configs.  Each workload builds its inputs in its constructor (the part timed
as set-up), checks itself once in ``check_setup`` and then runs whole passes
in ``run_pass``.  Every operation of a pass goes through ``Tally.op``, which
times the call, runs its output check outside the timed region and counts it
as failed when it raises or fails the check.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import shutil
import statistics
import time
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

import psdesign as ps
from psdesign import cli, evaluate, pfm, solver
from psdesign.cli import validate_report  # unwrapped, for the output check

SIGMA = 0.01
MAX_SLANT_DEG = 40.0  # cap of camera-near rigs; random hemisphere rigs leave ~10% of pixels valid
CHECKER = {"kind": "checkerboard", "value": 0.6, "value2": 0.95, "cell": 8}
CHECKER_SPEC = ps.AlbedoSpec(**CHECKER)
OPTIMAL_RTOL = 1e-6  # phi_final within this share of phi* counts as optimal
LOWER_BOUND_RTOL = 1e-9  # no rig may score below phi* by more than this share
UNIT_TOL = 1e-12
ROUND_TRIP_MAX_DEG = 1e-6
# Whether a descent stops at grad_tol or runs to max_iters turns on small
# differences in the prior, so the optimizer's cost varies a lot with its
# inputs.  Over 24 seeds, the optimize_lights time of a design-64 pass drawn
# from each seed had an interquartile range of 0.28 of its median (0.24 when
# only the noise came from the seed), and the pipeline's optimize_lights took
# 0.02 to 1.9 s of a 9 s run.  So the design-64 problems and the pipeline
# config come from this fixed key, which keeps those workloads' cost
# independent of the seed.
PROBLEM_KEY = 0
CAL_SMALL_CALLS = 1200
CAL_STREAM_DOUBLES = 1 << 22
CAL_EVERY_S = 1.0
CAL_MAX_EXTRA = 12
# A calibration time measured on the reference machine (2-core Xeon, 105 MiB
# L3); it only sets the scale of reference-speed seconds.
CAL_REF_S = 0.040


def api() -> SimpleNamespace:
    """The benchmark's own call table; the traced run wraps its entries."""
    return SimpleNamespace(
        generate=ps.generate,
        render_stack=ps.render_stack,
        add_noise=ps.add_noise,
        solve_map=ps.solve_map,
        compare_maps=ps.compare_maps,
        build_shape_prior=ps.build_shape_prior,
        optimize_lights=ps.optimize_lights,
        baseline_heuristic_spread=ps.baseline_heuristic_spread,
        baseline_random=ps.baseline_random,
        cli_main=cli.main,
    )


def cap_rows(m: int, rng: np.random.Generator) -> np.ndarray:
    """m unit directions uniform on the cap of slant <= MAX_SLANT_DEG about +z."""
    z = rng.uniform(np.cos(np.radians(MAX_SLANT_DEG)), 1.0, size=m)
    azimuth = rng.uniform(0.0, 2.0 * np.pi, size=m)
    radial = np.sqrt(1.0 - z * z)
    rows = np.stack([radial * np.cos(azimuth), radial * np.sin(azimuth), z], axis=1)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def phi_star(m_agg: np.ndarray, m: int) -> float:
    """Closed-form lower bound (tr M^1/2)^2 / m of trace(M (S^T S)^-1) over unit rows."""
    root_trace = np.sqrt(np.clip(np.linalg.eigvalsh(m_agg), 0.0, None)).sum()
    return float(root_trace * root_trace / m)


def rows_unit(rows: np.ndarray) -> bool:
    return bool(np.all(np.abs(np.einsum("ij,ij->i", rows, rows) - 1.0) <= UNIT_TOL))


class Calibrator:
    """Times a fixed mix of work that does not touch psdesign.

    The mix is an einsum over a 6 MB array, two passes over 64 MB of arrays
    and a loop of 3x3 numpy calls: the kinds of work the workloads do.  Its
    large arrays are allocated once, so its time does not depend on the
    state of the allocator the workload leaves behind.  Other tenants of a
    shared machine slow this kernel and psdesign alike, by up to half over
    minutes, so dividing a measured time by a calibration taken next to it
    removes most of that drift, while a change to psdesign still shows in
    full.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.normals = rng.normal(size=(1 << 18, 3))
        self.rows = rng.normal(size=(6, 3))
        self.small = rng.normal(size=(3, 3))
        self.dots = np.empty((6, 1 << 18))
        self.stream = np.ones(CAL_STREAM_DOUBLES)
        self.streamed = np.empty_like(self.stream)

    def __call__(self) -> float:
        start = time.perf_counter()
        np.multiply(self.stream, 1.0, out=self.streamed)
        np.add(self.streamed, self.stream, out=self.streamed)
        np.einsum("pc,mc->mp", self.normals, self.rows, out=self.dots)
        np.clip(self.dots, 0.0, None, out=self.dots)
        self.dots.sum()
        g = self.small
        for _ in range(CAL_SMALL_CALLS):
            g = np.linalg.inv(g @ g.T + np.eye(3))
        return time.perf_counter() - start

    def median(self, repeats: int = 3) -> float:
        """Median of ``repeats`` runs after one that brings the arrays back into cache."""
        self()
        return statistics.median(self() for _ in range(repeats))


def at_reference_speed(seconds: float, calibration: float) -> float:
    """Seconds the same work would take when the kernel runs in CAL_REF_S."""
    return seconds * CAL_REF_S / calibration


@dataclass
class Tally:
    """Operations attempted and failed, time spent in them, and what went wrong.

    ``op_seconds`` is wall time; ``ref_seconds`` is the same time scaled to
    reference speed by the calibrations taken before and after each
    operation (one at most every CAL_EVERY_S seconds, between operations).
    """

    calibrate: Calibrator
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # failed an output check (as opposed to raising)
    op_seconds: float = 0.0
    ref_seconds: float = 0.0
    problems: Counter = field(default_factory=Counter)
    calibrations: list = field(default_factory=list)
    _pending: list = field(default_factory=list)
    _last_at: float = float("-inf")

    def settle(self) -> None:
        """Calibrate and convert the operations timed since the last calibration.

        The calibration is the median of 3 kernel runs plus one more per
        second of operations being converted, so that a brief stall of the
        kernel weighs less against a long operation.
        """
        calibration = self.calibrate.median(3 + min(int(sum(self._pending)), CAL_MAX_EXTRA))
        previous = self.calibrations[-1] if self.calibrations else calibration
        for seconds in self._pending:
            self.ref_seconds += at_reference_speed(seconds, 0.5 * (previous + calibration))
        self._pending.clear()
        self.calibrations.append(calibration)
        self._last_at = time.perf_counter()

    def op(self, label: str, run, check):
        """Time ``run()``; ``check(result)`` returns a problem string or None."""
        if time.perf_counter() - self._last_at >= CAL_EVERY_S:
            self.settle()
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = run()
        except Exception as exc:  # an operation that raises is a counted failure
            self._timed(time.perf_counter() - start)
            self.failed += 1
            self.problems[f"{label} raised {type(exc).__name__}: {exc}"] += 1
            return None
        self._timed(time.perf_counter() - start)
        try:
            problem = check(result)
        except Exception as exc:  # e.g. a report that fails schema validation
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            self.wrong += 1
            self.problems[f"{label}: {problem}"] += 1
        return result

    def _timed(self, seconds: float) -> None:
        self.op_seconds += seconds
        self._pending.append(seconds)

    def skip(self, label: str, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems[f"{label}: skipped, {reason}"] += 1


class Workload:
    """Builds its inputs in ``__init__``; subclasses define ``run_pass``."""

    def check_setup(self, tally: Tally) -> None:
        """Operations that check the workload once before timing starts."""

    def close(self) -> None:
        """Remove whatever the workload wrote."""


class Recon2048(Workload):
    """Closed loop of reconstruction frames on a 2048^2 checkerboard sphere."""

    SIDE = 2048
    LIGHT_COUNTS = (3, 6, 16)

    def __init__(self, calls, seed: int, workdir):
        self.calls = calls
        self.seed = seed
        spec = ps.SceneSpec(kind="sphere", width=self.SIDE, height=self.SIDE,
                            params={"radius": 0.9}, albedo=CHECKER_SPEC)
        self.gt, self.albedo = calls.generate(spec)
        self.frame = 0

    def check_setup(self, tally: Tally) -> None:
        # m = 16 also takes the process to a pass's memory high-water mark;
        # with m = 3 here the first timed pass ran about 7% slower than the rest
        lights = ps.LightConfig(rows=cap_rows(16, np.random.default_rng([self.seed, 0])))

        def round_trip():
            clean = ps.render_stack(self.gt, self.albedo, lights)
            est, _ = ps.solve_map(clean, lights)
            return ps.compare_maps(est, self.gt)

        tally.op("noiseless round trip", round_trip,
                 lambda s: None if s.max_deg <= ROUND_TRIP_MAX_DEG
                 else f"max error {s.max_deg:.3e} deg")

    def run_pass(self, tally: Tally) -> int:
        pixels = 0
        for m in self.LIGHT_COUNTS:
            rng = np.random.default_rng([self.seed, 1, self.frame])
            self.frame += 1

            def frame(m=m, rng=rng):
                lights = ps.LightConfig(rows=cap_rows(m, rng))
                noise = ps.NoiseSpec.uniform(SIGMA, m, seed=int(rng.integers(1 << 62)))
                stack = self.calls.add_noise(self.calls.render_stack(self.gt, self.albedo, lights), noise)
                est, _ = self.calls.solve_map(stack, lights)
                return est, self.calls.compare_maps(est, self.gt)

            def check(result):
                est, stats = result
                if not est.mask.any():
                    return "empty mask"
                return None if np.isfinite(stats.mean_deg) else "non-finite mean error"

            if tally.op(f"frame m={m}", frame, check) is not None:
                pixels += self.SIDE * self.SIDE
        return pixels


class Design64(Workload):
    """Repeated passes over {sphere, paraboloid, plane} x m in {3, 6, 16}.

    The rigs, noise and optimizer seeds of the 9 problems come from
    PROBLEM_KEY, not from the benchmark seed (see PROBLEM_KEY); the seed
    draws the baseline_random rigs, which cost the same whatever they are.
    """

    SIDE = 64
    KINDS = ("sphere", "paraboloid", "plane")
    LIGHT_COUNTS = (3, 6, 16)
    RESTARTS = 4
    RANDOM_RIGS = 4000

    def __init__(self, calls, seed: int, workdir):
        self.calls = calls
        self.tasks = []
        for index, (kind, m) in enumerate(itertools.product(self.KINDS, self.LIGHT_COUNTS)):
            rng = np.random.default_rng([PROBLEM_KEY, 2, index])
            self.tasks.append(SimpleNamespace(
                kind=kind, m=m,
                spec=ps.SceneSpec(kind=kind, width=self.SIDE, height=self.SIDE, albedo=CHECKER_SPEC),
                lights=ps.LightConfig(rows=cap_rows(m, rng)),
                noise=ps.NoiseSpec.uniform(SIGMA, m, seed=int(rng.integers(1 << 62))),
                optimizer=ps.OptimizerConfig(restarts=self.RESTARTS, seed=int(rng.integers(1 << 62))),
                random_seed=int(np.random.default_rng([seed, 2, index]).integers(1 << 62)),
            ))
        self.optimal = 0
        self.optimized = 0

    def run_pass(self, tally: Tally) -> int:
        calls = self.calls
        pixels = 0
        for task in self.tasks:
            label = f"{task.kind} m={task.m}"

            def build_prior(task=task):
                gt, albedo = calls.generate(task.spec)
                stack = calls.add_noise(calls.render_stack(gt, albedo, task.lights), task.noise)
                est, _ = calls.solve_map(stack, task.lights)
                return calls.build_shape_prior(est)

            prior = tally.op(f"{label} prior", build_prior,
                             lambda p: None if abs(np.trace(p.m_agg) - 2.0) <= 1e-9
                             else f"trace M = {np.trace(p.m_agg)!r}, expected 2")
            if prior is None:
                for name in ("optimize_lights", "baseline_heuristic_spread", "baseline_random"):
                    tally.skip(f"{label} {name}", "no prior")
                continue
            pixels += self.SIDE * self.SIDE
            bound = phi_star(prior.m_agg, task.m)
            floor = bound * (1.0 - LOWER_BOUND_RTOL)

            def check_optimized(report):
                phi = report.phi_trajectory[-1]
                if not rows_unit(report.final_s.rows):
                    return "rows not unit"
                return None if phi >= floor else f"phi {phi!r} below phi* {bound!r}"

            report = tally.op(f"{label} optimize_lights",
                              lambda: calls.optimize_lights(task.lights, prior, task.optimizer),
                              check_optimized)
            if report is not None:
                self.optimized += 1
                self.optimal += report.phi_trajectory[-1] <= bound * (1.0 + OPTIMAL_RTOL)

            tally.op(f"{label} baseline_heuristic_spread",
                     lambda: calls.baseline_heuristic_spread(task.m),
                     lambda lights: None if rows_unit(lights.rows)
                     and ps.phi_shape_aware(lights, prior) >= floor
                     else "rows not unit or phi below phi*")

            def check_random(samples):
                if len(samples) != self.RANDOM_RIGS:
                    return f"{len(samples)} rigs, expected {self.RANDOM_RIGS}"
                if min(phi for _, phi in samples) < floor:
                    return "a random rig scores below phi*"
                return None

            tally.op(f"{label} baseline_random",
                     lambda: calls.baseline_random(self.RANDOM_RIGS, task.m, prior, seed=task.random_seed),
                     check_random)
        return pixels


def _digests(directory) -> dict[str, str]:
    return {
        name: hashlib.sha256(open(os.path.join(directory, name), "rb").read()).hexdigest()
        for name in sorted(os.listdir(directory))
    }


class Pipeline512(Workload):
    """Closed loop of in-process ``psdesign pipeline`` runs, each into a fresh directory.

    The config comes from PROBLEM_KEY, not from the benchmark seed.
    """

    SIDE = 512
    M = 6
    TRIALS = 20

    def __init__(self, calls, seed: int, workdir):
        self.calls = calls
        self.dir = os.path.join(workdir, f"pipeline-{os.getpid()}")
        rng = np.random.default_rng([PROBLEM_KEY, 3])
        config = {
            "seed": int(rng.integers(1 << 31)),
            "alpha": 0.05,
            "scene": {"kind": "paraboloid", "width": self.SIDE, "height": self.SIDE,
                      "params": {"curvature": 0.5}, "albedo": CHECKER},
            "lights": {"rows": cap_rows(self.M, rng).tolist()},
            "noise": {"sigma": SIGMA},
            "optimizer": {"restarts": 4},
            "trials": self.TRIALS,
        }
        os.makedirs(self.dir, exist_ok=True)
        self.config = os.path.join(self.dir, "config.json")
        with open(self.config, "w", encoding="utf-8") as f:
            json.dump(config, f)
        self.runs = 0
        self.reference = None

    def run_pass(self, tally: Tally) -> int:
        out = os.path.join(self.dir, f"run{self.runs}")
        self.runs += 1
        solved = []

        def run():
            with redirect_stdout(io.StringIO()):
                return self.calls.cli_main(["pipeline", "--config", self.config, "--out", out])

        def check(code):
            if code != 0:
                return f"exit code {code}"
            with open(os.path.join(out, "report.json"), encoding="utf-8") as f:
                report = json.load(f)
            validate_report(report)
            digests = _digests(out)
            if self.reference is None:
                self.reference = digests
            elif digests != self.reference:
                return "outputs differ from the first run"
            # the two classic-PS solves plus one per comparison trial
            rows = sum(row["note"] != "singular" for row in report["comparison"])
            solved.append((2 + rows * report["trials"]) * self.SIDE * self.SIDE)
            return None

        tally.op("pipeline", run, check)
        shutil.rmtree(out, ignore_errors=True)
        return sum(solved)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {"recon-2048": Recon2048, "design-64": Design64, "pipeline-512": Pipeline512}


def _render_counts(a, stack):
    nmap, amap = a["nmap"], a["amap"]
    return {"bytes": nmap.normals.nbytes + nmap.mask.nbytes + amap.values.nbytes
            + stack.images.nbytes}


def _noise_counts(a, stack):
    return {"bytes": a["stack"].images.nbytes + stack.images.nbytes}


def _solve_counts(a, result):
    nmap, amap = result
    return {
        "bytes": a["stack"].images.nbytes + nmap.normals.nbytes + nmap.mask.nbytes
        + amap.values.nbytes,
        "pixels": nmap.mask.size,
        "valid_pixels": int(np.count_nonzero(nmap.mask)),
    }


def _optimize_counts(a, report):
    phi = report.phi_trajectory[-1]
    return {
        "iterations": report.iterations_used,
        "converged": int(report.converged),
        "optimal": int(phi <= phi_star(a["prior"].m_agg, a["initial"].m) * (1.0 + OPTIMAL_RTOL)),
    }


def _compare_counts(a, rows):
    return {"trials": len(a["configs"]) * a["trials"]}


def _pfm_counts(a, _):
    return {"bytes": os.path.getsize(a["path"])}


def trace_targets(calls):
    """Span names and the places their functions are looked up.

    psdesign.cli and psdesign.evaluate call through their module globals, and
    solve_map builds its result through psdesign.solver.NormalMap; the
    benchmark's own calls go through ``calls``.
    """
    return [
        ("scenes.generate", [(cli, "generate"), (calls, "generate")], None),
        ("forward.render_stack", [(cli, "render_stack"), (evaluate, "render_stack"),
                                  (calls, "render_stack")], _render_counts),
        ("forward.add_noise", [(cli, "add_noise"), (evaluate, "add_noise"),
                               (calls, "add_noise")], _noise_counts),
        ("solver.solve_map", [(cli, "solve_map"), (evaluate, "solve_map"),
                              (calls, "solve_map")], _solve_counts),
        ("core.NormalMap", [(solver, "NormalMap")], None),
        ("oed.build_shape_prior", [(cli, "build_shape_prior"), (evaluate, "build_shape_prior"),
                                   (calls, "build_shape_prior")], None),
        ("optimize.optimize_lights", [(cli, "optimize_lights"), (calls, "optimize_lights")],
         _optimize_counts),
        ("optimize.baseline_heuristic_spread", [(cli, "baseline_heuristic_spread"),
                                                (calls, "baseline_heuristic_spread")], None),
        ("optimize.baseline_random", [(calls, "baseline_random")], None),
        ("evaluate.compare_maps", [(calls, "compare_maps")], None),
        ("evaluate.compare_configs", [(cli, "compare_configs")], _compare_counts),
        ("pfm.write", [(pfm, "write_pfm")], _pfm_counts),
        ("cli.validate_report", [(cli, "validate_report")], None),
        ("cli.pipeline", [(calls, "cli_main")], None),
    ]
