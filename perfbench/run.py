"""Stage-timed benchmark of psdesign: reconstruction, rig design and the pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload recon-2048 --seed 1 --seconds 30 --trace 0

It imports psdesign from ``src/`` of the checkout it sits in, builds the
workload's inputs from ``--seed``, runs whole passes of the workload for about
``--seconds`` seconds in this single process, checks every output and prints
one JSON object as its last line.  With ``--trace 0`` that object holds the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics, taken from spans recorded around each call into a layer on
every other pass.  The lines before it give the same figures for a reader,
with their sample counts and the run's provenance.  perfbench/README.md maps
each per-layer metric to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
# One BLAS thread on every commit compared: the benchmark process is single
# threaded by design, and 1 never exceeds the processor count.
BLAS_THREADS = 1
SETUP_SAMPLES = 3  # this process plus fresh child processes
COPY_BYTES = 448 * 2**20  # more than 4x the 105 MiB last-level cache of the reference machine
COPY_REPEATS = 5
MIN_PASSES = 2


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time import plus input building and print the seconds")
    return parser.parse_args(argv)


def set_up(args, traced: bool):
    """Import psdesign and build the workload inputs; return what the run needs.

    The imports sit here because their cost is part of the measured set-up.
    Set-up seconds are returned at reference speed (see workloads.Calibrator).
    """
    start = time.perf_counter()
    import psdesign
    import spans
    import workloads

    if not Path(psdesign.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"perfbench: imported psdesign from {psdesign.__file__}, not {ROOT / 'src'}")
    calls = workloads.api()
    tracer = spans.Tracer(workloads.trace_targets(calls)) if traced else None
    if tracer:
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](calls, args.seed, WORKDIR)
    seconds = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    calibrate = workloads.Calibrator()
    setup = workloads.at_reference_speed(seconds, calibrate.median())
    return workloads, workload, tracer, calibrate, setup


def probe_setup(args) -> float:
    """Set-up seconds measured in a fresh process running this script."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def copy_gb_per_s() -> float:
    """Bytes read plus written per second by a large array copy, in GB/s."""
    import numpy as np

    src = np.ones(COPY_BYTES // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault the pages in before timing
    times = []
    for _ in range(COPY_REPEATS):
        start = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - start)
    return 2.0 * src.nbytes / statistics.median(times) / 1e9


def provenance(args) -> dict:
    import numpy
    import scipy

    def blas_version(module):
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "numpy_openblas": blas_version(numpy),
        "scipy": scipy.__version__, "scipy_openblas": blas_version(scipy),
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
    }


def measure(workload, tally, seconds: float, tracer) -> list[dict]:
    """Run whole passes until ``seconds`` have passed, and at least MIN_PASSES.

    A pass takes 8 to 20 seconds on a 2-core machine, so the minimum keeps a
    median in every run.  Traced runs alternate untraced and traced passes,
    so the two can be compared for overhead.  Each pass reports its wall
    time, its time at reference speed and the pixels it reconstructed.
    """
    passes = []
    tally.settle()  # so that no earlier operation is charged to the first pass
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        tracing = tracer is not None and len(passes) % 2 == 1
        if tracing:
            tracer.pass_no = len(passes)
            tracer.install()
        wall, ref = tally.op_seconds, tally.ref_seconds
        pixels = workload.run_pass(tally)
        if tracing:
            tracer.uninstall()
        tally.settle()
        passes.append({"traced": tracing, "wall": tally.op_seconds - wall,
                       "ref": tally.ref_seconds - ref, "pixels": pixels})
    return passes


def per_layer_values(tracer, traced_passes: int, copy_rate: float, overhead: float) -> dict:
    totals = tracer.layer_totals(traced_passes)

    def get(layer, key):
        return totals.get(layer, {}).get(key, 0.0)

    def share(layer, key, base="calls"):
        return get(layer, key) / get(layer, base) if get(layer, base) else 0.0

    values = {
        f"{layer}.s": get(layer, "s") for layer in (
            "scenes.generate", "forward.render_stack", "forward.add_noise", "solver.solve_map",
            "core.NormalMap", "oed.build_shape_prior", "optimize.optimize_lights",
            "optimize.baseline_random", "optimize.baseline_heuristic_spread",
            "evaluate.compare_maps", "evaluate.compare_configs", "pfm.write",
            "cli.validate_report", "cli.pipeline",
        )
    }
    for layer in ("solver.solve_map", "evaluate.compare_configs", "cli.pipeline"):
        values[f"{layer}.self_s"] = get(layer, "self_s")
    for layer in ("forward.render_stack", "forward.add_noise", "solver.solve_map"):
        values[f"{layer}.gb_computed"] = get(layer, "bytes") / 1e9
    values.update({
        "solver.solve_map.mpix": get("solver.solve_map", "pixels") / 1e6,
        "solver.valid_frac": share("solver.solve_map", "valid_pixels", base="pixels"),
        "optimize.optimize_lights.calls": get("optimize.optimize_lights", "calls"),
        "optimize.optimize_lights.iterations": get("optimize.optimize_lights", "iterations"),
        "optimize.optimize_lights.converged_frac": share("optimize.optimize_lights", "converged"),
        "optimize.optimize_lights.optimal_frac": share("optimize.optimize_lights", "optimal"),
        "optimize.baseline_heuristic_spread.calls": get("optimize.baseline_heuristic_spread", "calls"),
        "optimize.baseline_heuristic_spread.failed": get("optimize.baseline_heuristic_spread", "failed"),
        "evaluate.compare_configs.trials": get("evaluate.compare_configs", "trials"),
        "pfm.write.bytes": get("pfm.write", "bytes"),
        "machine.copy_gb_per_s": copy_rate,
        "trace.overhead_frac": overhead,
    })
    return values


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    src = ROOT / "src"
    if not (src / "psdesign" / "__init__.py").is_file():
        print(f"perfbench: no psdesign sources under {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads, and inherited by probes
    sys.path.insert(0, str(src))
    WORKDIR.mkdir(exist_ok=True)

    traced = bool(args.trace)
    workloads, workload, tracer, calibrate, setup = set_up(args, traced and not args.setup_probe)
    try:
        if args.setup_probe:
            print(repr(setup))
            return 0
        tally = workloads.Tally(calibrate)
        workload.check_setup(tally)
        copy_rate = copy_gb_per_s() if traced else 0.0
        passes = measure(workload, tally, args.seconds, tracer)
        # the probes run last: just after them the calibration kernel ran slow
        setup_samples = [setup]
        if not traced:
            setup_samples += [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    finally:
        workload.close()

    info = provenance(args)
    print("perfbench provenance " + json.dumps(info, sort_keys=True))
    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    failed_frac = tally.failed / tally.attempted
    print(f"perfbench {args.workload}: {len(plain)} untraced passes, {len(traced_passes)} traced, "
          f"{tally.attempted} operations, {tally.failed} failed (failed_frac {failed_frac:.6g}), "
          f"{tally.wrong} failed an output check")
    for problem, count in sorted(tally.problems.items()):
        print(f"  {count} x {problem}")
    print(f"  pass wall s {[round(p['wall'], 3) for p in passes]}, at reference speed "
          f"{[round(p['ref'], 3) for p in passes]}; calibration median "
          f"{statistics.median(tally.calibrations):.4g} s of {len(tally.calibrations)}")

    if traced:
        overhead = (statistics.median(p["ref"] for p in traced_passes)
                    / statistics.median(p["ref"] for p in plain) - 1.0)
        values = per_layer_values(tracer, len(traced_passes), copy_rate, overhead)
        declared = spec["per_layer"]
        trace_file = WORKDIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"provenance": info, "spans": tracer.records()}))
        print(f"  spans written to {trace_file.relative_to(ROOT)}")
    else:
        pass_s = statistics.median(p["ref"] for p in plain)
        values = {
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "success_frac": 1.0 - failed_frac,
            "pass_s": pass_s,
            "recon_mpix_per_s": statistics.median(p["pixels"] / p["ref"] for p in plain) / 1e6,
        }
        declared = spec["end_to_end"]
        print(f"  setup_s median of {[round(t, 4) for t in setup_samples]}; "
              f"pass_s median of {len(plain)} passes")
        if args.workload == "design-64":
            print(f"  design_s {pass_s:.6g} s (median of {len(plain)} passes); "
                  f"design_optimal_frac {workload.optimal / max(workload.optimized, 1):.6g} "
                  f"({workload.optimal} of {workload.optimized} optimize_lights results at phi*)")
        if args.workload == "pipeline-512":
            print(f"  pipeline_s {pass_s:.6g} s (median of {len(plain)} runs)")
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
