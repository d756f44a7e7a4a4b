"""Command-line interface: render, solve, optimize, pipeline, baseline, evaluate.

Configs and reports are JSON; histograms and tables are CSV with a header
row; images are PFM.  Every command is deterministic given its config file
(seeds included).  Exit codes: 0 success, 1 usage/config error, 2 numerical
failure or no valid pixels, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import jsonschema
import numpy as np

from . import pfm
from .core import (
    DegenerateVectorError,
    DimensionMismatchError,
    EmptyMaskError,
    FileFormatError,
    IntensityStack,
    InvalidSpecError,
    LightConfig,
    NonPositiveSigmaError,
    NonUnitRowsError,
    SingularLightMatrixError,
    freeze,
    require_sigmas,
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
from .scenes import (
    SCENE_PARAMS,
    AlbedoSpec,
    SceneSpec,
    export_normal_map,
    generate,
    ingest_normal_map,
)
from .solver import solve_map, whitening

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


@dataclass(frozen=True)
class RunConfig:
    """A checked run config with its rig built and one noise level per light."""

    scene: SceneSpec
    lights: LightConfig
    sigmas: np.ndarray
    seed: int
    alpha: float
    outputs: str
    optimizer: OptimizerConfig
    trials: int = 20


# Sub-schemas shared by the run config, the render sidecar and the pipeline report
_NUMBER = {"type": "number"}
_INTEGER = {"type": "integer"}
_ALPHA = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}
_TRIALS = {"type": "integer", "minimum": 1}
_SIGMAS = {"type": "array", "items": _NUMBER}
_LIGHT_ROWS = {"type": "array", "minItems": 3,
               "items": {"type": "array", "minItems": 3, "maxItems": 3, "items": _NUMBER}}


def _object(required=(), **properties) -> dict:
    """An object with no keys but ``properties``, and with every key in ``required``."""
    return {"type": "object", "additionalProperties": False, "properties": properties,
            "required": list(required)}


def _record(**properties) -> dict:
    """An object with exactly the keys ``properties``."""
    return _object(properties, **properties)


def _when(key: str, value: str, then: dict) -> dict:
    """``then`` holds where ``key`` is ``value``; unlike oneOf, a failure names the key."""
    return {"if": {"required": [key], "properties": {key: {"const": value}}}, "then": then}


_SCENE_PARAMS = {kind: {key: {"type": "string"} if key == "path" else _NUMBER for key in params}
                 for kind, params in SCENE_PARAMS.items()}
_SCENE = {
    **_object(
        ["kind", "width", "height"], kind={"enum": list(SCENE_PARAMS)},
        width={"type": "integer", "minimum": 1}, height={"type": "integer", "minimum": 1},
        params={"type": "object"},
        # a constant albedo, the default kind, reads only its value
        albedo={**_object(kind={"enum": ["constant", "checkerboard"]}, value=_NUMBER,
                          value2=_NUMBER, cell=_INTEGER),
                "if": {"properties": {"kind": {"const": "constant"}}},
                "then": _object(kind={}, value={})}),
    "allOf": [_when("kind", kind, {"properties": {"params": _object(**params)}})
              for kind, params in _SCENE_PARAMS.items()],
}
_BASELINE_KEYS = {"orthogonal-triad": ["baseline"], "heuristic-spread": ["baseline", "m"],
                  "random": ["baseline", "m", "seed"]}

CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "run config",
    **_object(
        ["scene"], seed=_INTEGER, alpha=_ALPHA, outputs={"type": "string"}, scene=_SCENE,
        # explicit rows, or one baseline with only the keys it reads
        lights={**_object(rows=_LIGHT_ROWS, baseline={"enum": list(_BASELINE_KEYS)},
                          m=_INTEGER, seed=_INTEGER),
                "if": {"required": ["rows"]}, "then": _object(rows={}),
                "else": {"required": ["baseline"], "allOf": [
                    _when("baseline", name, _object(**dict.fromkeys(keys, {})))
                    for name, keys in _BASELINE_KEYS.items()]}},
        noise={**_object(sigma=_NUMBER, sigmas=_SIGMAS),
               "if": {"required": ["sigmas"]}, "then": _object(sigmas={})},
        optimizer=_object(max_iters=_INTEGER, restarts=_INTEGER, seed=_INTEGER),
        trials=_TRIALS),
}

# what solve reads from render.json; its other keys record provenance
SIDECAR_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "render sidecar",
    "type": "object",
    "required": ["lights", "sigmas", "images"],
    "properties": {"lights": _LIGHT_ROWS, "sigmas": _SIGMAS,
                   "images": {"type": "array", "items": {"type": "string"}}},
}

_NUMBER_OR_NULL = {"type": ["number", "null"]}
_NON_NEGATIVE = {"type": "number", "minimum": 0}
REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "pipeline report",
    **_record(
        seed=_INTEGER, alpha=_ALPHA, sigma=_NON_NEGATIVE, trials=_TRIALS, scene=_SCENE,
        initial_lights=_LIGHT_ROWS, optimized_lights=_LIGHT_ROWS,
        prior=_record(pixel_count={"type": "integer", "minimum": 0},
                      frame_share={"type": "number", "minimum": 0, "maximum": 1}),
        optimization=_record(
            phi_initial=_NUMBER, phi_final=_NUMBER,
            phi_trajectory={"type": "array", "items": _NUMBER},
            iterations_used={"type": "integer", "minimum": 0}, converged={"type": "boolean"},
            gradient_norm_final=_NUMBER, phi_lower_bound=_NON_NEGATIVE,
            optimality_gap=_NON_NEGATIVE),
        comparison={"type": "array", "minItems": 1, "items": _record(
            name={"type": "string"}, phi=_NUMBER_OR_NULL, note={"type": "string"},
            mean_deg=_NUMBER_OR_NULL, median_deg=_NUMBER_OR_NULL, p90_deg=_NUMBER_OR_NULL,
            max_deg=_NUMBER_OR_NULL, sample_count={"type": ["integer", "null"]})},
        outputs={"type": "object", "additionalProperties": {"type": "string"}}),
}

_CONFIG_VALIDATOR = jsonschema.Draft7Validator(CONFIG_SCHEMA)
_SIDECAR_VALIDATOR = jsonschema.Draft7Validator(SIDECAR_SCHEMA)
_REPORT_VALIDATOR = jsonschema.Draft7Validator(REPORT_SCHEMA)


def validate_report(report: dict) -> None:
    _REPORT_VALIDATOR.validate(report)


def _load_json(path, validator: jsonschema.Draft7Validator) -> dict:
    """Read a JSON file; bad JSON, or a schema violation at a JSON path, is an InvalidSpecError."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except json.JSONDecodeError as exc:
        raise InvalidSpecError(f"{path}: invalid JSON ({exc})") from exc
    error = jsonschema.exceptions.best_match(validator.iter_errors(raw))
    if error is not None:
        raise InvalidSpecError(f"{path}: {error.json_path}: {error.message}")
    return raw


def _typed(section: dict, **casts) -> dict:
    """``section`` with the named fields cast; draft-07 counts 16.0 as an integer."""
    return {k: casts[k](v) if k in casts else v for k, v in section.items()}


def load_run_config(path, overrides: argparse.Namespace | None = None, solve=True) -> RunConfig:
    """Read, check and resolve a run config.  The ``seed``, ``sigma`` and ``out`` of
    ``overrides`` first replace the file's; ``seed`` also replaces ``optimizer.seed``.
    With ``solve``, noise levels that the solver cannot whiten fail too; render
    alone may write them."""
    raw = _load_json(path, _CONFIG_VALIDATOR)
    if getattr(overrides, "seed", None) is not None:
        raw["seed"] = overrides.seed
        raw.get("optimizer", {}).pop("seed", None)
    if getattr(overrides, "sigma", None) is not None:
        raw["noise"] = {"sigma": overrides.sigma}
    if getattr(overrides, "out", None) is not None:
        raw["outputs"] = overrides.out
    albedo = raw["scene"].get("albedo", {})
    if albedo.get("kind") == "checkerboard":  # AlbedoSpec's defaults are a constant's
        albedo = {"value": 0.6, "value2": 0.95, **albedo}
    scene = SceneSpec(**{
        **_typed(raw["scene"], width=int, height=int),
        "albedo": AlbedoSpec(**_typed(albedo, value=float, value2=float, cell=int)),
    })
    seed = int(raw.get("seed", 0))
    optimizer = OptimizerConfig(**_typed({"seed": seed, **raw.get("optimizer", {})},
                                         max_iters=int, restarts=int, seed=int))
    lights = resolve_lights(raw.get("lights", {"baseline": "orthogonal-triad"}), seed)
    noise = raw.get("noise", {})
    sigmas = require_sigmas(noise.get("sigmas", [noise.get("sigma", 0.0)] * lights.m), lights.m)
    if solve:  # the solver's own rule, which rejects mixed zero and positive levels
        whitening(sigmas, lights.m)
    return RunConfig(
        scene=scene,
        lights=lights,
        sigmas=sigmas,
        seed=seed,
        alpha=float(raw.get("alpha", 0.05)),
        outputs=raw.get("outputs", "out"),
        optimizer=optimizer,
        trials=int(raw.get("trials", 20)),
    )


def resolve_lights(spec: dict, seed: int) -> LightConfig:
    """Turn a 'lights' section, valid under CONFIG_SCHEMA, into a LightConfig."""
    if "rows" in spec:
        return LightConfig(rows=np.asarray(spec["rows"], dtype=float))
    name = spec["baseline"]
    m = int(spec.get("m", 3))
    if name == "orthogonal-triad":
        return baseline_orthogonal_triad()
    if name == "heuristic-spread":
        return baseline_heuristic_spread(m)
    # random: imaging rigs come from the camera-facing hemisphere; a light
    # with z <= 0 cannot illuminate any visible pixel
    rng = substream(stream_key(int(spec.get("seed", seed)), Stage.RIG, 0), 0)
    return LightConfig(rows=random_hemisphere_rows(m, rng))


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
    scene = asdict(spec)
    if spec.albedo.kind == "constant":  # REPORT_SCHEMA admits no value2 or cell here
        del scene["albedo"]["value2"], scene["albedo"]["cell"]
    return scene


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
        "phi_trajectory": report.phi_trajectory,
        "iterations_used": report.iterations_used,
        "converged": report.converged,
        "gradient_norm_final": _json_float(report.gradient_norm_final),
        "phi_lower_bound": phi_lower_bound(prior.m_agg, report.initial_s.m),
        "optimality_gap": _json_float(report.optimality_gap),
    }


def _prior_json(prior: ShapePrior, scene: SceneSpec) -> dict:
    """How much data an estimated prior rests on: its pixels and their share of the frame."""
    return {"pixel_count": prior.pixel_count,
            "frame_share": prior.pixel_count / (scene.width * scene.height)}


def _write_histogram_csv(path, stats: AngularErrorStats) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["bin_lo_deg", "bin_hi_deg", "count"])
        edges = stats.histogram_edges
        for i in range(len(edges) - 1):
            writer.writerow([f"{edges[i]:.6g}", f"{edges[i + 1]:.6g}",
                             int(stats.histogram_counts[i])])
        writer.writerow([f"{edges[-1]:.6g}", "180", int(stats.histogram_counts[-1])])


def _observe(cfg: RunConfig, nmap, amap, lights: LightConfig, stage: Stage) -> IntensityStack:
    """Render under ``lights`` and add the run's noise, keyed by ``stage``."""
    return add_noise(render_stack(nmap, amap, lights),
                     NoiseSpec(sigmas=cfg.sigmas, seed=stream_key(cfg.seed, stage, 0)))


def cmd_render(cfg: RunConfig, args: argparse.Namespace) -> int:
    out = _ensure_outdir(cfg.outputs)
    nmap, amap = generate(cfg.scene)
    stack = _observe(cfg, nmap, amap, cfg.lights, Stage.NOISE)
    names = [f"img_{i:03d}.pfm" for i in range(stack.m)]
    for name, image in zip(names, stack.images):
        pfm.write_pfm(os.path.join(out, name), image)
    export_normal_map(os.path.join(out, "gt_normals.pfm"), nmap)
    pfm.write_pfm(os.path.join(out, "gt_albedo.pfm"), amap.values)
    sidecar = {
        "lights": cfg.lights.rows.tolist(),
        "sigmas": cfg.sigmas.tolist(),
        "seed": cfg.seed,
        "images": names,
        "scene": _scene_json(cfg.scene),
        "gt_normals": "gt_normals.pfm",
    }
    _dump_json(os.path.join(out, "render.json"), sidecar)
    print(f"wrote {stack.m} images and render.json to {out}")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    sidecar = _load_json(args.sidecar, _SIDECAR_VALIDATOR)
    lights = LightConfig(rows=np.asarray(sidecar["lights"], dtype=float))
    base = os.path.dirname(os.fspath(args.sidecar))
    paths = args.images if args.images else [os.path.join(base, n) for n in sidecar["images"]]
    if len(paths) != lights.m:
        raise DimensionMismatchError(f"{len(paths)} images for {lights.m} lights")
    images = []
    for p in paths:
        images.append(pfm.read_pfm(p))
        if images[-1].ndim != 2:
            raise FileFormatError(f"{p}: expected a 1-channel intensity image")
    stack = IntensityStack(images=freeze(np.stack(images, dtype=float)),
                           sigmas=sidecar["sigmas"])
    del images  # else the float32 frames stay resident through the solve
    nmap, amap = solve_map(stack, lights)
    out = _ensure_outdir(args.out)
    export_normal_map(os.path.join(out, "normals.pfm"), nmap)
    pfm.write_pfm(os.path.join(out, "albedo.pfm"), amap.values)
    print(f"solved {nmap.mask.sum()} valid pixels; wrote normals.pfm and albedo.pfm to {out}")
    return EXIT_OK


def _prior_pass(cfg: RunConfig, shape_agnostic: bool = False) -> tuple:
    """Classic-PS pass with the run's lights: the ground truth (normals, albedo), its
    solved normals and their prior; ``shape_agnostic`` skips it: (None, None, identity)."""
    if shape_agnostic:
        return None, None, ShapePrior.identity()
    truth = generate(cfg.scene)
    estimate = solve_map(_observe(cfg, *truth, cfg.lights, Stage.NOISE), cfg.lights)[0]
    return truth, estimate, build_shape_prior(estimate)


def cmd_optimize(cfg: RunConfig, args: argparse.Namespace) -> int:
    out = _ensure_outdir(cfg.outputs)
    _, estimate, prior = _prior_pass(cfg, args.shape_agnostic)
    report = optimize_lights(cfg.lights, prior, cfg.optimizer)
    _dump_json(os.path.join(out, "lights_optimized.json"), {
        "rows": report.final_s.rows.tolist(),
        "phi": _json_float(report.phi_trajectory[-1]),
        "prior": "identity" if estimate is None else "estimated",
    })
    _dump_json(os.path.join(out, "optimize_report.json"), {
        "initial_rows": report.initial_s.rows.tolist(),
        "final_rows": report.final_s.rows.tolist(),
        "prior": None if estimate is None else _prior_json(prior, cfg.scene),
        **_optimization_json(report, prior),
    })
    print(
        f"optimized in {report.iterations_used} iterations: "
        f"phi {report.phi_trajectory[0]:.6g} -> {report.phi_trajectory[-1]:.6g}"
    )
    return EXIT_OK


def cmd_baseline(cfg: RunConfig, args: argparse.Namespace) -> int:
    if args.count < 1:
        raise InvalidSpecError(f"count must be >= 1, got {args.count}")
    out = _ensure_outdir(cfg.outputs)
    prior = _prior_pass(cfg, args.shape_agnostic)[2]
    samples = baseline_random(args.count, cfg.lights.m, prior, seed=cfg.seed)
    path = os.path.join(out, "baseline_phi.csv")
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["index", "phi"])
        for k, (_, phi) in enumerate(samples):
            writer.writerow([k, repr(phi)])
    best = min(phi for _, phi in samples)
    print(f"wrote {args.count} objective samples to {path} (min phi {best:.6g})")
    return EXIT_OK


def cmd_pipeline(cfg: RunConfig, args: argparse.Namespace) -> int:
    out = _ensure_outdir(cfg.outputs)
    (nmap, amap), est_initial, prior = _prior_pass(cfg)
    initial, sigma = cfg.lights, float(cfg.sigmas.max())

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
        "initial_lights": initial.rows.tolist(),
        "optimized_lights": optimized.rows.tolist(),
        "prior": _prior_json(prior, cfg.scene),
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


def cmd_evaluate(args: argparse.Namespace) -> int:
    est = ingest_normal_map(args.est)
    gt = ingest_normal_map(args.gt)
    stats = compare_maps(est, gt)
    out = _ensure_outdir(args.out)
    _dump_json(os.path.join(out, "error_stats.json"), {
        **_stats_json(stats),
        "histogram_csv": "error_hist.csv",
        "error_map": "error_map.pfm",
    })
    _write_histogram_csv(os.path.join(out, "error_hist.csv"), stats)
    pfm.write_pfm(os.path.join(out, "error_map.pfm"), stats.error_map)
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

    def command(name, run, help, config=True, solve=True):
        """A subcommand run as ``run(args)``, or with a config as ``run(run_config, args)``."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if config:
            p.add_argument("--config", required=True, help="run-config JSON path")
            p.add_argument("--seed", type=int, default=None, help="override config seed")
            p.add_argument("--sigma", type=float, default=None, help="override noise level")
            p.add_argument("--out", default=None, help="override output directory")
            p.set_defaults(run=lambda args: run(load_run_config(args.config, args, solve), args))
        return p

    command("render", cmd_render, "render one image per light", solve=False)

    p_solve = command("solve", cmd_solve, "recover normals and albedo from images", config=False)
    p_solve.add_argument("--sidecar", required=True, help="render.json from the render step")
    p_solve.add_argument("--images", nargs="*", default=None, help="override image paths")
    p_solve.add_argument("--out", required=True, help="output directory")

    p_opt = command("optimize", cmd_optimize, "optimize light directions")

    command("pipeline", cmd_pipeline, "full render/solve/optimize/compare run")

    p_base = command("baseline", cmd_baseline, "objective values of random configurations")
    p_base.add_argument("--count", type=int, required=True, help="number of random configs")
    for p in (p_opt, p_base):
        p.add_argument("--shape-agnostic", action="store_true",
                       help="use the identity prior instead of an estimated one")

    p_eval = command("evaluate", cmd_evaluate, "compare two normal maps", config=False)
    p_eval.add_argument("--est", required=True, help="estimated normal map (PFM)")
    p_eval.add_argument("--gt", required=True, help="ground-truth normal map (PFM)")
    p_eval.add_argument("--out", required=True, help="output directory")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (SingularLightMatrixError, DegenerateVectorError, NonPositiveSigmaError,
            np.linalg.LinAlgError) as exc:  # before ValueError, which LinAlgError is
        print(f"psdesign: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (InvalidSpecError, DimensionMismatchError, NonUnitRowsError, ValueError) as exc:
        print(f"psdesign: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EmptyMaskError as exc:  # a valid config whose data leaves nothing to work on
        print(f"psdesign: no valid pixels: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FileFormatError, OSError) as exc:
        print(f"psdesign: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
