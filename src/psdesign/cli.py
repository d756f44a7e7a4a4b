"""Command-line interface: render, solve, optimize, pipeline, baseline, evaluate.

Configs and reports are JSON; histograms and tables are CSV with a header
row; images are PFM.  Every command is deterministic given its config file
(seeds included).  Exit codes: 0 success, 1 usage/config error, 2 numerical
failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import jsonschema
import numpy as np

from . import pfm
from .core import (
    AlphaOutOfRangeError,
    DegenerateVectorError,
    DimensionMismatchError,
    EmptyMaskError,
    FileFormatError,
    IntensityStack,
    InvalidSpecError,
    LightConfig,
    NonPositiveSigmaError,
    NonUnitRowsError,
    PhotometryError,
    RankCollapseError,
    SingularLightMatrixError,
    freeze,
)
from .evaluate import AngularErrorStats, compare_configs, compare_maps
from .forward import NoiseSpec, Stage, add_noise, render_stack, stream_key, substream
from .oed import ShapePrior, build_shape_prior, phi_lower_bound
from .optimize import (
    OptimizationReport,
    OptimizerConfig,
    baseline_heuristic_spread,
    baseline_orthogonal_triad,
    baseline_random,
    optimize_lights,
    random_hemisphere_rows,
)
from .scenes import AlbedoSpec, SceneSpec, export_normal_map, generate, ingest_normal_map
from .solver import solve_map

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


class ConfigError(PhotometryError):
    """A run-configuration file is malformed or inconsistent."""


@dataclass(frozen=True)
class RunConfig:
    scene: SceneSpec
    lights: dict
    sigma: float | None
    sigmas: list | None
    seed: int
    alpha: float
    outputs: str
    optimizer: OptimizerConfig
    trials: int = 20

    def noise_sigmas(self, m: int) -> np.ndarray:
        if self.sigmas is not None:
            sig = np.asarray(self.sigmas, dtype=float)
            if sig.shape != (m,):
                raise ConfigError(f"config lists {sig.size} sigmas for {m} lights")
            return sig
        return np.full(m, float(self.sigma or 0.0))


def _parse_albedo(raw: dict | None) -> AlbedoSpec:
    if raw is None:
        return AlbedoSpec()
    kind = raw.get("kind", "constant")
    if kind == "constant":
        return AlbedoSpec(kind="constant", value=float(raw.get("value", 1.0)))
    if kind == "checkerboard":
        return AlbedoSpec(
            kind="checkerboard",
            value=float(raw.get("value", 0.6)),
            value2=float(raw.get("value2", 0.95)),
            cell=int(raw.get("cell", 8)),
        )
    raise ConfigError(f"unknown albedo kind {kind!r}")


def _parse_scene(raw: dict) -> SceneSpec:
    try:
        return SceneSpec(
            kind=raw["kind"],
            width=int(raw["width"]),
            height=int(raw["height"]),
            params=raw.get("params", {}),
            albedo=_parse_albedo(raw.get("albedo")),
        )
    except KeyError as exc:
        raise ConfigError(f"scene config is missing {exc}") from exc


def load_run_config(path, overrides: argparse.Namespace | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if "scene" not in raw:
        raise ConfigError(f"{path}: missing 'scene' section")
    opt_raw = raw.get("optimizer", {})
    unknown = sorted(set(opt_raw) - {"max_iters", "restarts", "seed"})
    if unknown:
        raise ConfigError(f"{path}: unknown optimizer settings {unknown}")
    try:
        optimizer = OptimizerConfig(
            max_iters=int(opt_raw.get("max_iters", 1000)),
            restarts=int(opt_raw.get("restarts", 1)),
            seed=int(opt_raw.get("seed", raw.get("seed", 0))),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: bad optimizer settings ({exc})") from exc
    noise_raw = raw.get("noise", {})
    cfg = RunConfig(
        scene=_parse_scene(raw["scene"]),
        lights=raw.get("lights", {"baseline": "orthogonal-triad"}),
        sigma=noise_raw.get("sigma"),
        sigmas=noise_raw.get("sigmas"),
        seed=int(raw.get("seed", 0)),
        alpha=float(raw.get("alpha", 0.05)),
        outputs=str(raw.get("outputs", "out")),
        optimizer=optimizer,
        trials=int(raw.get("trials", 20)),
    )
    updates = {}
    if getattr(overrides, "seed", None) is not None:
        updates["seed"] = int(overrides.seed)
        updates["optimizer"] = replace(optimizer, seed=int(overrides.seed))
    if getattr(overrides, "sigma", None) is not None:
        updates["sigma"] = float(overrides.sigma)
        updates["sigmas"] = None
    if getattr(overrides, "out", None) is not None:
        updates["outputs"] = str(overrides.out)
    cfg = replace(cfg, **updates)
    if not 0.0 < cfg.alpha < 1.0:
        raise AlphaOutOfRangeError(f"alpha must be in (0, 1), got {cfg.alpha}")
    return cfg


def resolve_lights(spec: dict, seed: int) -> LightConfig:
    """Turn a config 'lights' section into a LightConfig."""
    if "rows" in spec:
        return LightConfig(rows=np.asarray(spec["rows"], dtype=float))
    name = spec.get("baseline")
    m = int(spec.get("m", 3))
    if name == "orthogonal-triad":
        return LightConfig(rows=baseline_orthogonal_triad().rows)
    if name == "heuristic-spread":
        return baseline_heuristic_spread(m)
    if name == "random":
        # imaging rigs come from the camera-facing hemisphere; a light with
        # z <= 0 cannot illuminate any visible pixel
        rng = substream(stream_key(int(spec.get("seed", seed)), Stage.RIG, 0), 0)
        return LightConfig(rows=random_hemisphere_rows(m, rng))
    raise ConfigError(f"cannot resolve lights from {spec!r}")


def _json_float(x: float) -> float | None:
    return None if (x is None or not math.isfinite(x)) else float(x)


def _dump_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


def _ensure_outdir(path) -> str:
    os.makedirs(path, exist_ok=True)
    return os.fspath(path)


def _scene_json(spec: SceneSpec) -> dict:
    albedo = {"kind": spec.albedo.kind, "value": spec.albedo.value}
    if spec.albedo.kind == "checkerboard":
        albedo.update({"value2": spec.albedo.value2, "cell": spec.albedo.cell})
    return {
        "kind": spec.kind,
        "width": spec.width,
        "height": spec.height,
        "params": {k: v for k, v in spec.params.items()},
        "albedo": albedo,
    }


def _stats_json(stats: AngularErrorStats | None) -> dict:
    if stats is None:
        return {"mean_deg": None, "median_deg": None, "p90_deg": None,
                "max_deg": None, "sample_count": None}
    return {
        "mean_deg": _json_float(stats.mean_deg),
        "median_deg": _json_float(stats.median_deg),
        "p90_deg": _json_float(stats.p90_deg),
        "max_deg": _json_float(stats.max_deg),
        "sample_count": stats.count,
    }


def _optimization_json(report: OptimizationReport, prior: ShapePrior) -> dict:
    """The fields optimize_report.json and report.json's optimization share."""
    return {
        "phi_trajectory": [float(p) for p in report.phi_trajectory],
        "iterations_used": report.iterations_used,
        "converged": report.converged,
        "gradient_norm_final": _json_float(report.gradient_norm_final),
        "phi_lower_bound": phi_lower_bound(prior.m_agg, report.initial_s.m),
        "optimality_gap": _json_float(report.optimality_gap),
    }


def _write_histogram_csv(path, stats: AngularErrorStats) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["bin_lo_deg", "bin_hi_deg", "count"])
        edges = stats.histogram_edges
        for i in range(len(edges) - 1):
            writer.writerow([f"{edges[i]:.6g}", f"{edges[i + 1]:.6g}",
                             int(stats.histogram_counts[i])])
        writer.writerow([f"{edges[-1]:.6g}", "180", int(stats.histogram_counts[-1])])


_LIGHT_ROWS_SCHEMA = {
    "type": "array",
    "minItems": 3,
    "items": {
        "type": "array",
        "minItems": 3,
        "maxItems": 3,
        "items": {"type": "number"},
    },
}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "pipeline report",
    "type": "object",
    "additionalProperties": False,
    "required": [
        "seed", "alpha", "sigma", "trials", "scene", "initial_lights",
        "optimized_lights", "optimization", "comparison", "outputs",
    ],
    "properties": {
        "seed": {"type": "integer"},
        "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "sigma": {"type": "number", "minimum": 0},
        "trials": {"type": "integer", "minimum": 1},
        "scene": {
            "type": "object",
            "required": ["kind", "width", "height"],
            "properties": {
                "kind": {"enum": ["sphere", "paraboloid", "plane", "from_file"]},
                "width": {"type": "integer", "minimum": 1},
                "height": {"type": "integer", "minimum": 1},
                "params": {"type": "object"},
                "albedo": {"type": "object"},
            },
        },
        "initial_lights": _LIGHT_ROWS_SCHEMA,
        "optimized_lights": _LIGHT_ROWS_SCHEMA,
        "optimization": {
            "type": "object",
            "required": [
                "phi_initial", "phi_final", "phi_trajectory",
                "iterations_used", "converged", "gradient_norm_final",
                "phi_lower_bound", "optimality_gap",
            ],
            "properties": {
                "phi_initial": {"type": "number"},
                "phi_final": {"type": "number"},
                "phi_trajectory": {"type": "array", "items": {"type": "number"}},
                "iterations_used": {"type": "integer", "minimum": 0},
                "converged": {"type": "boolean"},
                "gradient_norm_final": {"type": "number"},
                "phi_lower_bound": {"type": "number", "minimum": 0},
                "optimality_gap": {"type": "number", "minimum": 0},
            },
        },
        "comparison": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["name", "phi", "note", "mean_deg", "median_deg",
                             "p90_deg", "max_deg", "sample_count"],
                "properties": {
                    "name": {"type": "string"},
                    "phi": {"type": ["number", "null"]},
                    "note": {"type": "string"},
                    "mean_deg": {"type": ["number", "null"]},
                    "median_deg": {"type": ["number", "null"]},
                    "p90_deg": {"type": ["number", "null"]},
                    "max_deg": {"type": ["number", "null"]},
                    "sample_count": {"type": ["integer", "null"]},
                },
            },
        },
        "outputs": {"type": "object", "additionalProperties": {"type": "string"}},
    },
}


def validate_report(report: dict) -> None:
    jsonschema.validate(instance=report, schema=REPORT_SCHEMA)


def _observe(cfg: RunConfig, nmap, amap, lights: LightConfig, stage: Stage) -> IntensityStack:
    """Render under ``lights`` and add the run's noise, keyed by ``stage``."""
    stack = render_stack(nmap, amap, lights)
    sigmas = cfg.noise_sigmas(lights.m)
    if np.any(sigmas > 0.0):
        stack = add_noise(stack, NoiseSpec(sigmas=sigmas, seed=stream_key(cfg.seed, stage, 0)))
    return stack


def cmd_render(cfg: RunConfig) -> int:
    out = _ensure_outdir(cfg.outputs)
    nmap, amap = generate(cfg.scene)
    lights = resolve_lights(cfg.lights, cfg.seed)
    sigmas = cfg.noise_sigmas(lights.m)
    stack = _observe(cfg, nmap, amap, lights, Stage.NOISE)
    names = []
    for i in range(stack.m):
        name = f"img_{i:03d}.pfm"
        pfm.write_pfm(os.path.join(out, name), stack.images[i].astype(np.float32))
        names.append(name)
    export_normal_map(os.path.join(out, "gt_normals.pfm"), nmap)
    pfm.write_pfm(os.path.join(out, "gt_albedo.pfm"), amap.values.astype(np.float32))
    sidecar = {
        "lights": [list(map(float, row)) for row in lights.rows],
        "sigmas": [float(s) for s in sigmas],
        "seed": cfg.seed,
        "images": names,
        "scene": _scene_json(cfg.scene),
        "gt_normals": "gt_normals.pfm",
    }
    _dump_json(os.path.join(out, "render.json"), sidecar)
    print(f"wrote {stack.m} images and render.json to {out}")
    return EXIT_OK


def _load_sidecar(path) -> tuple[LightConfig, np.ndarray, list[str]]:
    with open(path, "r", encoding="utf-8") as f:
        raw = json.load(f)
    try:
        lights = LightConfig(rows=np.asarray(raw["lights"], dtype=float))
        sigmas = np.asarray(raw["sigmas"], dtype=float)
        images = list(raw["images"])
    except KeyError as exc:
        raise ConfigError(f"{path}: sidecar is missing {exc}") from exc
    return lights, sigmas, images


def cmd_solve(sidecar_path, out_dir, image_paths=None) -> int:
    lights, sigmas, names = _load_sidecar(sidecar_path)
    base = os.path.dirname(os.fspath(sidecar_path))
    paths = image_paths if image_paths else [os.path.join(base, n) for n in names]
    if len(paths) != lights.m:
        raise DimensionMismatchError(
            f"{len(paths)} images for {lights.m} lights"
        )
    images = []
    for p in paths:
        img = pfm.read_pfm(p)
        if img.ndim != 2:
            raise FileFormatError(f"{p}: expected a 1-channel intensity image")
        images.append(img.astype(float))
    stack = IntensityStack(images=freeze(np.stack(images)), sigmas=sigmas)
    nmap, amap = solve_map(stack, lights)
    out = _ensure_outdir(out_dir)
    export_normal_map(os.path.join(out, "normals.pfm"), nmap)
    pfm.write_pfm(os.path.join(out, "albedo.pfm"), amap.values.astype(np.float32))
    print(f"solved {nmap.mask.sum()} valid pixels; wrote normals.pfm and albedo.pfm to {out}")
    return EXIT_OK


def _estimate_prior(cfg: RunConfig, lights: LightConfig) -> ShapePrior:
    """Classic-PS pass with the given lights to obtain the shape prior."""
    nmap, amap = generate(cfg.scene)
    stack = _observe(cfg, nmap, amap, lights, Stage.NOISE)
    return build_shape_prior(solve_map(stack, lights)[0])


def cmd_optimize(cfg: RunConfig, shape_agnostic: bool = False) -> int:
    out = _ensure_outdir(cfg.outputs)
    initial = resolve_lights(cfg.lights, cfg.seed)
    prior = ShapePrior.identity() if shape_agnostic else _estimate_prior(cfg, initial)
    report = optimize_lights(initial, prior, cfg.optimizer)
    _dump_json(os.path.join(out, "lights_optimized.json"), {
        "rows": [list(map(float, row)) for row in report.final_s.rows],
        "phi": _json_float(report.phi_trajectory[-1]),
        "prior": "identity" if shape_agnostic else "estimated",
    })
    _dump_json(os.path.join(out, "optimize_report.json"), {
        "initial_rows": [list(map(float, row)) for row in report.initial_s.rows],
        "final_rows": [list(map(float, row)) for row in report.final_s.rows],
        **_optimization_json(report, prior),
    })
    print(
        f"optimized in {report.iterations_used} iterations: "
        f"phi {report.phi_trajectory[0]:.6g} -> {report.phi_trajectory[-1]:.6g}"
    )
    return EXIT_OK


def cmd_baseline(cfg: RunConfig, count: int, shape_agnostic: bool = False) -> int:
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    out = _ensure_outdir(cfg.outputs)
    lights = resolve_lights(cfg.lights, cfg.seed)
    prior = ShapePrior.identity() if shape_agnostic else _estimate_prior(cfg, lights)
    samples = baseline_random(count, lights.m, prior, seed=cfg.seed)
    path = os.path.join(out, "baseline_phi.csv")
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["index", "phi"])
        for k, (_, phi) in enumerate(samples):
            writer.writerow([k, repr(phi)])
    best = min(phi for _, phi in samples)
    print(f"wrote {count} objective samples to {path} (min phi {best:.6g})")
    return EXIT_OK


def cmd_pipeline(cfg: RunConfig) -> int:
    out = _ensure_outdir(cfg.outputs)
    nmap, amap = generate(cfg.scene)
    initial = resolve_lights(cfg.lights, cfg.seed)
    sigma = float(cfg.noise_sigmas(initial.m).max())

    est_initial, _ = solve_map(_observe(cfg, nmap, amap, initial, Stage.NOISE), initial)
    prior = build_shape_prior(est_initial)

    opt = optimize_lights(initial, prior, cfg.optimizer)
    optimized = opt.final_s

    est_optimized, _ = solve_map(_observe(cfg, nmap, amap, optimized, Stage.RERENDER), optimized)

    configs = {
        "initial": initial,
        "heuristic-spread": baseline_heuristic_spread(initial.m),
        "orthogonal-triad": baseline_orthogonal_triad(),
        "optimized": optimized,
    }
    table = compare_configs(nmap, amap, configs, sigma=sigma, trials=cfg.trials,
                            seed=cfg.seed, prior=prior)

    outputs = {"report": "report.json"}
    maps = {"gt_normals": nmap, "est_initial": est_initial, "est_optimized": est_optimized}
    for name, normals in maps.items():
        outputs[name] = f"{name}.pfm"
        export_normal_map(os.path.join(out, outputs[name]), normals)
    for row in table:
        if row.stats is None:
            continue
        name = f"hist_{row.name}.csv"
        _write_histogram_csv(os.path.join(out, name), row.stats)
        outputs[f"hist_{row.name}"] = name

    report = {
        "seed": cfg.seed,
        "alpha": cfg.alpha,
        "sigma": sigma,
        "trials": cfg.trials,
        "scene": _scene_json(cfg.scene),
        "initial_lights": [list(map(float, row)) for row in initial.rows],
        "optimized_lights": [list(map(float, row)) for row in optimized.rows],
        "optimization": {
            "phi_initial": _json_float(opt.phi_trajectory[0]),
            "phi_final": _json_float(opt.phi_trajectory[-1]),
            **_optimization_json(opt, prior),
        },
        "comparison": [
            {"name": row.name, "phi": _json_float(row.phi), "note": row.note,
             **_stats_json(row.stats)}
            for row in table
        ],
        "outputs": outputs,
    }
    validate_report(report)
    _dump_json(os.path.join(out, "report.json"), report)
    summary = ", ".join(
        f"{row.name}: {row.stats.mean_deg:.3f} deg" if row.stats else f"{row.name}: n/a"
        for row in table
    )
    print(f"pipeline done (mean angular error: {summary})")
    return EXIT_OK


def cmd_evaluate(est_path, gt_path, out_dir) -> int:
    est = ingest_normal_map(est_path)
    gt = ingest_normal_map(gt_path)
    stats = compare_maps(est, gt)
    out = _ensure_outdir(out_dir)
    _dump_json(os.path.join(out, "error_stats.json"), {
        **_stats_json(stats),
        "histogram_csv": "error_hist.csv",
        "error_map": "error_map.pfm",
    })
    _write_histogram_csv(os.path.join(out, "error_hist.csv"), stats)
    pfm.write_pfm(os.path.join(out, "error_map.pfm"), stats.error_map.astype(np.float32))
    print(f"mean {stats.mean_deg:.4f} deg, median {stats.median_deg:.4f} deg over {stats.count} px")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # exit code 1 for usage errors (argparse defaults to 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="psdesign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_opts(p):
        p.add_argument("--config", required=True, help="run-config JSON path")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--sigma", type=float, default=None, help="override noise level")
        p.add_argument("--out", default=None, help="override output directory")

    add_config_opts(sub.add_parser("render", help="render one image per light"))

    p_solve = sub.add_parser("solve", help="recover normals and albedo from images")
    p_solve.add_argument("--sidecar", required=True, help="render.json from the render step")
    p_solve.add_argument("--images", nargs="*", default=None, help="override image paths")
    p_solve.add_argument("--out", required=True, help="output directory")

    p_opt = sub.add_parser("optimize", help="optimize light directions")
    add_config_opts(p_opt)
    p_opt.add_argument("--shape-agnostic", action="store_true",
                       help="use the identity prior instead of an estimated one")

    add_config_opts(sub.add_parser("pipeline", help="full render/solve/optimize/compare run"))

    p_base = sub.add_parser("baseline", help="objective values of random configurations")
    add_config_opts(p_base)
    p_base.add_argument("--count", type=int, required=True, help="number of random configs")
    p_base.add_argument("--shape-agnostic", action="store_true",
                        help="use the identity prior instead of an estimated one")

    p_eval = sub.add_parser("evaluate", help="compare two normal maps")
    p_eval.add_argument("--est", required=True, help="estimated normal map (PFM)")
    p_eval.add_argument("--gt", required=True, help="ground-truth normal map (PFM)")
    p_eval.add_argument("--out", required=True, help="output directory")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "render":
            return cmd_render(load_run_config(args.config, args))
        if args.command == "solve":
            return cmd_solve(args.sidecar, args.out, args.images)
        if args.command == "optimize":
            return cmd_optimize(load_run_config(args.config, args), args.shape_agnostic)
        if args.command == "pipeline":
            return cmd_pipeline(load_run_config(args.config, args))
        if args.command == "baseline":
            return cmd_baseline(load_run_config(args.config, args), args.count,
                                args.shape_agnostic)
        if args.command == "evaluate":
            return cmd_evaluate(args.est, args.gt, args.out)
        parser.error(f"unknown command {args.command!r}")
    except (ConfigError, InvalidSpecError, DimensionMismatchError, AlphaOutOfRangeError,
            NonUnitRowsError, EmptyMaskError, ValueError) as exc:
        print(f"psdesign: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SingularLightMatrixError, RankCollapseError, DegenerateVectorError,
            NonPositiveSigmaError, np.linalg.LinAlgError) as exc:
        print(f"psdesign: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FileFormatError, OSError) as exc:
        print(f"psdesign: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
