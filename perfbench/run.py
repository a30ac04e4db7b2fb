"""Pipeline benchmark for robust-recon.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload recon-l1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each repetition is a fresh interpreter (stages.py) that imports
``robust_recon.cli`` from ``src/`` and calls ``cli.main`` once per stage
into a new run directory under ``.perfbench/``. A run cycles through a small
pool of inputs made from ``--seed`` and keeps starting repetitions while
another one still fits in ``--seconds``; timings are medians over the
repetitions. BLAS is pinned to one thread in every child process. With
``--trace 1`` untraced and traced repetitions alternate on one input
(layer functions wrapped from outside, see spans.py), and the per-layer
numbers are reported instead of the end-to-end ones.

After each repetition the outputs are checked: the run directory's
manifest, quality above a floor for broken images, the sha256 of the
reconstruction or sweep tables against the first repetition on the same
input, and hashes, quality and L-BFGS-B iterations against reference.json
where it holds the input. Every stage call and every check is one attempted
operation. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. README.md explains
the workloads and metrics; ``--record`` stores the reference of a seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
HARD_LIMIT_S = 170.0  # a run must end within 180 s
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# Known defect: on this grid with the default seeds the certified stop in
# power_iteration_norm runs out of its 500 iterations and preprocess exits
# 4. Most other seeds pass, so the probe keeps the default seeds. Its inputs
# are fixed, so one attempt per run shows it.
PROBE_CONFIG = ["grid.shape = 48,48,1", "grid.spacing_mm = 0.5,0.5,1.0"]
# A blank, flat or random image scores at most 18 dB eps-PSNR (and a flat
# or random one under 0.1 eps-SSIM); the worst inputs seen score 28 dB.
QUALITY_FLOOR = (22.0, 0.3)


@dataclass
class Workload:
    why: str
    config: list
    stages: list          # CLI argument lists, subcommand first
    # A run cycles through this many inputs, seeded inputs * seed + j. Some
    # inputs stop L-BFGS-B early on a line-search failure and the power
    # iteration count varies with the data, so medians over a pool keep one
    # odd input from setting a run's numbers.
    inputs: int = 3
    traced_stages: list | None = None
    probe: bool = False


WORKLOADS = {
    "recon-l1": Workload(
        why="defaults with l1-L capped at 300 iterations: lbfgsb dominates",
        # Uncapped, the default l1-L run ends on a line-search failure after
        # 50 to 2000 iterations depending on the seed; the cap fixes the work
        # for nine inputs in ten.
        config=["solver.max_iterations = 300"],
        stages=[["simulate"], ["preprocess"], ["reconstruct"], ["evaluate"]],
        inputs=6,  # repetitions are short, so a wider pool costs nothing
    ),
    "sweep-l2k": Workload(
        why="l2-K sweep, 4 weights x 50 sweeps: SSIM scoring and Kaczmarz dominate",
        config=["solver.method = l2-K", "sweep.alpha_max_exp = -4",
                "sweep.alpha_min_exp = -7", "sweep.max_sweeps = 50"],
        stages=[["simulate"], ["preprocess"], ["sweep", "--jobs", "2"]],
        inputs=2,  # three or four repetitions fit, so one input always repeats
        # spans recorded in pool workers would be lost
        traced_stages=[["simulate"], ["preprocess"], ["sweep", "--jobs", "1"]],
    ),
    "scale-40": Workload(
        why="40x40 grid, l2-K: simulation, I/O and rasterization dominate",
        # Not whitened: with whitening the power iteration fails on about one
        # input in twenty (the known defect the probe shows).
        config=["grid.shape = 40,40,1", "grid.spacing_mm = 0.5,0.5,1.0",
                "solver.method = l2-K", "solver.sweeps = 10"],
        stages=[["simulate"], ["preprocess"], ["reconstruct"], ["evaluate"]],
        probe=True,
    ),
}

END_TO_END = [  # name, unit, better
    ("setup_s", "s", "lower"),
    ("solve_score_s", "s", "lower"),
    ("pipeline_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("quality_psnr_db", "dB", "higher"),
    ("quality_ssim", "ratio", "higher"),
]

PER_LAYER = [  # name, unit, better
    ("solvers.lbfgsb.s", "s", "lower"),
    ("solvers.lbfgsb.self_s", "s", "lower"),
    ("solvers.lbfgsb.self_ms_per_iteration", "ms", "lower"),
    ("solvers.lbfgsb.iterations", "count", "lower"),
    ("solvers.lbfgsb.fevals", "count", "lower"),
    ("solvers.lbfgsb.fevals_per_iteration", "ratio", "lower"),
    ("solvers.lbfgsb.converged", "count", "higher"),
    ("solvers.Objective.evaluate.s", "s", "lower"),
    ("solvers.Objective.evaluate.calls", "count", "lower"),
    ("solvers.kaczmarz_reg.s", "s", "lower"),
    ("solvers.kaczmarz_reg.row_updates", "count", "lower"),
    ("solvers.kaczmarz_reg.us_per_row_update", "us", "lower"),
    ("metrics.ssim.s", "s", "lower"),
    ("metrics.ssim.calls", "count", "lower"),
    ("metrics.psnr.s", "s", "lower"),
    ("metrics.psnr.calls", "count", "lower"),
    ("metrics.scored_pairs", "count", "higher"),
    ("metrics.quality_report.s", "s", "lower"),
    ("metrics.reference_stack.s", "s", "lower"),
    ("model.rasterize_support.s", "s", "lower"),
    ("model.rasterize_support.calls", "count", "lower"),
    ("model.simulate_system_matrix.s", "s", "lower"),
    ("model.simulate_system_matrix.voxel_samples", "count", "higher"),
    ("acquisition.draw_calibration_scans.s", "s", "lower"),
    ("acquisition.draw_empty_scans.s", "s", "lower"),
    ("acquisition.draw_phantom_measurement.s", "s", "lower"),
    ("acquisition.complex_draws", "count", "higher"),
    ("preprocess.interp_backgrounds.s", "s", "lower"),
    ("preprocess.snr_scores.s", "s", "lower"),
    ("preprocess.assemble_reduced_system.self_s", "s", "lower"),
    ("preprocess.power_iteration_norm.s", "s", "lower"),
    ("preprocess.rows_retained", "count", "higher"),
    ("artifacts.write_artifact.s", "s", "lower"),
    ("artifacts.write_artifact.bytes", "B", "lower"),
    ("artifacts.read_artifact.s", "s", "lower"),
    ("artifacts.read_artifact.bytes", "B", "lower"),
    ("artifacts.sha256_file.s", "s", "lower"),
    ("artifacts.sha256_file.bytes", "B", "lower"),
    ("artifacts.verify_manifest.s", "s", "lower"),
    ("config.load_config.s", "s", "lower"),
] + [(f"cli.{stage}.{key}", "s", "lower")
     for stage in ("simulate", "preprocess", "reconstruct", "evaluate", "sweep")
     for key in ("s", "self_s")] + [
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("probe48.failure_rate", "ratio", "lower"),
]


@dataclass
class Tally:
    """Attempted and failed operations; a failure keeps its reason."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def platform_key(env: dict) -> str:
    """Outputs are byte-identical only for the same BLAS kernels, thread
    count and library versions; references are recorded per this key."""
    return (f"{env['machine']} {env['name']} {env['version']} core={env['core']} "
            f"threads={env['threads']} numpy {env['numpy']} scipy {env['scipy']}")


class Runner:
    """Starts the child processes of one workload run inside a scratch
    directory of the checkout, which close() removes."""

    def __init__(self, root: Path, name: str, seed: int, deadline: float):
        self.root = root
        self.work = WORKLOADS[name]
        self.deadline = deadline
        self.scratch = root / ".perfbench" / f"{name}-{os.getpid()}"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, **PINNED_ENV)
        self.children = 0
        self.inputs = [self.work.inputs * seed + j for j in range(self.work.inputs)]
        self.configs = [self._write_config(f"input{s}.cfg", self.work.config + [
            f"background.noise_seed = {s}", f"background.structure_seed = {s}"])
            for s in self.inputs]
        self.probe_config = self._write_config("probe.cfg", PROBE_CONFIG)

    def _write_config(self, name: str, lines: list) -> str:
        path = self.scratch / name
        path.write_text("".join(line + "\n" for line in lines))
        return str(path)

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            self.scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    def child(self, config: str, stages: list, trace: bool = False):
        """One fresh interpreter running the stages; returns (set-up
        seconds, result), or (None, None) if it failed or timed out."""
        self.children += 1
        out = self.scratch / f"run{self.children}"
        job = {"src": str(self.root / "src"), "config": config, "out": str(out),
               "stages": stages, "trace": trace,
               "result": str(self.scratch / f"result{self.children}.json")}
        job_path = self.scratch / f"job{self.children}.json"
        job_path.write_text(json.dumps(job))
        spawned = time.monotonic()  # CLOCK_MONOTONIC is shared by processes
        proc = subprocess.Popen([sys.executable, str(HERE / "stages.py"), str(job_path)],
                                env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the sweep pool goes with it
            proc.communicate()
            print(f"child timed out: {stages}", file=sys.stderr)
            return None, None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if proc.returncode != 0:
            print(err.decode(errors="replace").strip(), file=sys.stderr)
            return None, None
        result = json.loads(Path(job["result"]).read_text())
        return result["ready"] - spawned, result


def observed(result: dict) -> dict:
    """The outputs a reference records for one input and platform."""
    summaries = result["summaries"]
    if "sweep_summary.json" in summaries:
        q = summaries["sweep_summary.json"]
        psnr, ssim = q["best_psnr"]["value"], q["best_ssim"]["value"]
    else:
        q = summaries.get("quality_summary.json", {})
        psnr, ssim = q.get("eps_psnr_db"), q.get("eps_ssim")
    recon = summaries.get("reconstruction_summary.json", {})
    return {"outputs": result["outputs"], "quality_psnr_db": psnr,
            "quality_ssim": ssim, "iterations": recon.get("iterations")}


def check_repetition(tally: Tally, stages: list, result, first, reference) -> None:
    """Count the stage calls and output checks of one repetition."""
    done = {s["name"]: s for s in result["stages"]} if result else {}
    for argv in stages:
        ran = done.get(argv[0])
        tally.check(ran is not None and ran["code"] == 0,
                    f"{argv[0]}: " + (ran["stderr"] if ran else "not run"))
    if result is None:
        return
    threads = result["environment"]["threads"]
    if threads is not None:
        tally.check(threads == 1, f"BLAS runs {threads} threads, not 1")
    tally.check(result["manifest_error"] is None, f"manifest: {result['manifest_error']}")
    got = observed(result)
    psnr, ssim = got["quality_psnr_db"], got["quality_ssim"]
    floor_psnr, floor_ssim = QUALITY_FLOOR
    tally.check(psnr is not None and psnr >= floor_psnr and floor_ssim <= ssim <= 1.0,
                f"quality psnr {psnr} dB, ssim {ssim} below the floor")
    if first is not None:
        tally.check(got == observed(first), "outputs differ from an earlier repetition")
    if reference is not None:
        for key, want in reference.items():
            tally.check(got[key] == want, f"{key}: {got[key]!r} != reference {want!r}")
    if "layers" in result:
        layers = result["layers"]
        for argv in stages:
            stage = layers.get(f"cli.{argv[0]}")
            tally.check(stage is not None and stage["self_s"] >= 0.0,
                        f"cli.{argv[0]}: layer spans exceed the stage time")
        if "solvers.lbfgsb" in layers:
            tally.check(layers["solvers.lbfgsb"]["iterations"] == got["iterations"],
                        "traced lbfgsb iterations differ from the summary")


def stage_seconds(result: dict) -> dict:
    return {s["name"]: s["s"] for s in result["stages"]}


def end_to_end(results: list, firsts: list, setups: list) -> dict:
    stages = [stage_seconds(r) for r in results]
    pipeline = [sum(s.values()) for s in stages]
    quality = [observed(r) for r in firsts]
    return {
        "setup_s": statistics.median(setups),
        "solve_score_s": statistics.median(
            p - s["simulate"] - s["preprocess"] for p, s in zip(pipeline, stages)),
        "pipeline_s": statistics.median(pipeline),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "quality_psnr_db": statistics.median(q["quality_psnr_db"] for q in quality),
        "quality_ssim": statistics.median(q["quality_ssim"] for q in quality),
    }


def per_layer(result: dict, untraced_pipeline: float, probe_failed: float) -> dict:
    layers = result["layers"]

    def get(name, key="s"):
        return layers.get(name, {}).get(key, 0)

    out = {}
    for name, _, _ in PER_LAYER:
        base, _, key = name.rpartition(".")
        if key in ("s", "self_s", "calls", "bytes"):
            out[name] = get(base, key)
    iterations = get("solvers.lbfgsb", "iterations")
    fevals = result["fevals_in_lbfgsb"]
    out["solvers.lbfgsb.iterations"] = iterations
    out["solvers.lbfgsb.fevals"] = fevals
    out["solvers.lbfgsb.converged"] = get("solvers.lbfgsb", "converged")
    out["solvers.lbfgsb.fevals_per_iteration"] = fevals / iterations if iterations else 0.0
    out["solvers.lbfgsb.self_ms_per_iteration"] = (
        1e3 * get("solvers.lbfgsb", "self_s") / iterations if iterations else 0.0)
    rows = get("solvers.kaczmarz_reg", "row_updates")
    out["solvers.kaczmarz_reg.row_updates"] = rows
    out["solvers.kaczmarz_reg.us_per_row_update"] = (
        1e6 * get("solvers.kaczmarz_reg") / rows if rows else 0.0)
    stacks = get("metrics.reference_stack", "calls")
    shifts = get("metrics.reference_stack", "shifts") // stacks if stacks else 0
    images = get("metrics.quality_report", "calls")
    sweep = result["summaries"].get("sweep_summary.json")
    if sweep:
        images += sweep["columns"] * len(sweep["alpha_exponents"])
    out["metrics.scored_pairs"] = images * shifts
    out["model.simulate_system_matrix.voxel_samples"] = get(
        "model.simulate_system_matrix", "voxel_samples")
    out["acquisition.complex_draws"] = sum(
        get(f"acquisition.{fn}", "complex_draws")
        for fn in ("draw_empty_scans", "draw_calibration_scans", "draw_phantom_measurement"))
    out["preprocess.rows_retained"] = get("preprocess.assemble_reduced_system",
                                          "rows_retained")
    traced = sum(stage_seconds(result).values())
    out["trace.overhead_s"] = traced - untraced_pipeline
    out["trace.overhead_share"] = (traced - untraced_pipeline) / untraced_pipeline
    out["probe48.failure_rate"] = probe_failed
    return out


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool,
                 record: bool) -> dict | None:
    start = time.monotonic()
    work = WORKLOADS[name]
    stages = (work.traced_stages or work.stages) if trace else work.stages
    references = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    runner = Runner(root, name, seed, start + HARD_LIMIT_S)
    tally = Tally()
    setups, results, traced = [], [], []
    firsts = {}  # input index -> first result on it
    probe = None  # stage results of the known-defect probe
    key = None
    try:
        runner.child(runner.configs[0], [])  # warm-up: byte-compile, fill caches
        if work.probe and not record:
            setup, result = runner.child(runner.probe_config, [["simulate"], ["preprocess"]])
            if result is not None:
                setups.append(setup)
                probe = result["stages"]
        while True:
            rep_start = time.monotonic()
            j = 0 if trace else (len(results) % work.inputs)
            # trace mode alternates untraced and traced repetitions
            tracing = trace and len(results) > len(traced)
            setup, result = runner.child(runner.configs[j], stages, trace=tracing)
            reference = None
            if result is not None:
                key = key or platform_key(result["environment"])
                if not record:
                    reference = references.get(key, {}).get(name, {}).get(
                        str(runner.inputs[j]))
            check_repetition(tally, stages, result, firsts.get(j), reference)
            if result is None or [s["code"] for s in result["stages"]] != [0] * len(stages):
                break
            firsts.setdefault(j, result)
            setups.append(setup)
            (traced if tracing else results).append(result)
            now = time.monotonic()
            if record:
                if len(firsts) == work.inputs:
                    break
            elif now + (now - rep_start) > start + seconds and (traced or not trace):
                break
    finally:
        runner.close()

    if not results or (trace and not traced):
        print("error: no repetition completed", file=sys.stderr)
        return None
    if record and tally.failures:
        print("error: not recorded, a check failed", file=sys.stderr)
    elif record:
        entry = references.setdefault(key, {}).setdefault(name, {})
        for j, first in firsts.items():
            entry[str(runner.inputs[j])] = observed(first)
        REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    probe_failed = [s for s in probe or [] if s["code"] != 0]

    print(f"workload: {name} ({work.why})")
    print(f"seed: {seed}  inputs: {runner.inputs}  repetitions: {len(results)}"
          f"  traced: {len(traced)}  seconds: {time.monotonic() - start:.1f}")
    print("environment: " + json.dumps(results[0]["environment"], sort_keys=True))
    print("note: the l1-L path depends on the BLAS thread count; ROADMAP's "
          "2-thread baseline (2135 iterations) took a different path than "
          "runs pinned to 1 thread")
    recorded = references.get(key, {}).get(name, {})
    print("reference: inputs " + ", ".join(
        f"{s} {'recorded' if str(s) in recorded else 'not recorded'}" for s in runner.inputs)
        + " on this platform")
    times = [stage_seconds(r) for r in results]
    for t in times:
        t["pipeline"] = sum(t.values())
    for stage in times[0]:
        values = sorted(t[stage] for t in times)
        print(f"{stage}_s: median {statistics.median(values):.4f} s, min {values[0]:.4f}, "
              f"max {values[-1]:.4f}, {len(values)} repetitions")
    for j, first in sorted(firsts.items()):
        got = observed(first)
        print(f"input {runner.inputs[j]}: psnr {got['quality_psnr_db']:.4f} dB, "
              f"ssim {got['quality_ssim']:.4f}, solver iterations {got['iterations']}")
    if probe is not None:
        outcome = ", ".join(f"{s['name']} exit {s['code']} {s['stderr']!r}"
                            for s in probe_failed) or "passed"
        print(f"probe 48x48 at 0.5 mm: {outcome} (known defect, kept out of "
              "attempted and failed)")
    for failure in tally.failures:
        print(f"FAILED: {failure}")
    print(f"error_rate: {len(tally.failures) / tally.attempted:.4f} "
          f"({len(tally.failures)} of {tally.attempted} operations)")

    if trace:
        untraced = statistics.median(t["pipeline"] for t in times)
        rows = [per_layer(r, untraced, float(bool(probe_failed))) for r in traced]
        metrics = {n: (statistics.median(row[n] for row in rows), unit)
                   for n, unit, _ in PER_LAYER}
    else:
        values = end_to_end(results, list(firsts.values()), setups)
        metrics = {n: (values[n], unit) for n, unit, _ in END_TO_END}
    for n, (value, unit) in metrics.items():
        print(f"{n}: {value} {unit}")
    return {"correct": not tally.failures, "attempted": tally.attempted,
            "failed": len(tally.failures),
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store the outputs of the seed's inputs as its reference")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.record and args.trace:
        parser.error("--record takes untraced runs")
    root = Path.cwd()
    if not (root / "src" / "robust_recon" / "cli.py").is_file():
        print("error: run from the root of a robust-recon checkout "
              "(src/robust_recon/cli.py not found)", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(root, name, args.seed, args.seconds, bool(args.trace),
                              args.record)
        if result is None:
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
