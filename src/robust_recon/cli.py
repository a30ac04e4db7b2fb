"""Command line front end.

Five subcommands share one run directory (--out): simulate writes the raw
scanner artifacts, preprocess turns them into a reduced real system,
reconstruct solves it, evaluate scores the image against the generating
geometry, sweep maps quality over the regularization grid. Each stage
verifies the sha256 manifest entries of the artifacts it reads and extends
the manifest with what it writes, so a corrupted or hand-edited run
directory fails loudly instead of producing plausible images.

Exit codes: 0 success, 2 invalid config or arguments, 3 I/O or integrity
failure, 4 numerical failure. Wall-clock timing goes to a timing_*.json
sidecar that is intentionally absent from the manifest: with a fixed seed,
rerunning a stage must reproduce every hashed byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import acquisition, artifacts, metrics, model, preprocess, solvers
from .config import PipelineConfig, load_config
from .errors import ConfigError, IntegrityError, NumericalError

__all__ = [
    "main",
    "cmd_simulate",
    "cmd_preprocess",
    "cmd_reconstruct",
    "cmd_evaluate",
    "cmd_sweep",
    "phantom_from_config",
    "background_from_config",
]

SYSTEM_MATRIX = "system_matrix.rrc"
PHANTOM = "phantom.rrc"
EMPTY_SCANS = "empty_scans.rrc"
MEASUREMENT = "measurement.rrc"
REDUCED_A = "reduced_A.rrc"
REDUCED_Y = "reduced_y.rrc"
REDUCED_ROWS = "reduced_rows.rrc"
SELECTION_REPORT = "selection_report.json"
RECONSTRUCTION = "reconstruction.rrc"
RECON_SUMMARY = "reconstruction_summary.json"
QUALITY_CSV = "quality.csv"
QUALITY_SUMMARY = "quality_summary.json"
SWEEP_SUMMARY = "sweep_summary.json"


def phantom_from_config(cfg: PipelineConfig, grid: model.VoxelGrid) -> model.Phantom:
    p = cfg.phantom
    try:
        return model.make_phantom(p.kind, grid, p.concentration, subsamples=p.subsamples)
    except ValueError as exc:
        raise ConfigError(f"phantom: {exc}") from exc


def background_from_config(cfg: PipelineConfig,
                           scanner: model.ScannerConfig) -> acquisition.BackgroundModel:
    b = cfg.background
    return acquisition.make_background(
        scanner.coils, scanner.freq_count, scanner.period_ms,
        scanner.drive_frequencies_khz, b.base_std, b.mean_peak,
        mean_decay=b.mean_decay, outlier_fraction=b.outlier_fraction,
        outlier_scale=b.outlier_scale, drift_scale=b.drift_scale,
        seed=b.structure_seed)


def _write_json(path, payload) -> None:
    artifacts.atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _update_manifest(run_dir: Path, names) -> None:
    manifest = run_dir / artifacts.MANIFEST_NAME
    entries = artifacts.load_manifest(run_dir) if manifest.exists() else {}
    for name in names:
        entries[name] = artifacts.sha256_file(run_dir / name)
    artifacts.write_manifest(run_dir, entries)


def _read_artifact(run_dir: Path, name: str, expected_kind: int) -> np.ndarray:
    kind, array = artifacts.read_artifact(run_dir / name)
    if kind != expected_kind:
        raise IntegrityError(f"{name}: expected artifact kind {expected_kind}, found {kind}")
    return array


def cmd_simulate(cfg: PipelineConfig, run_dir: Path) -> dict:
    """Simulate the scanner and write the four raw artifacts.

    system_matrix.rrc holds the raw calibration scans (one delta sample per
    voxel, in scan order); the background-corrected matrix is derived by
    preprocess. The clean forward operator is regenerated from the config
    whenever needed, so it is not persisted.
    """
    run_dir.mkdir(parents=True, exist_ok=True)
    scanner = cfg.scanner_config()
    grid = cfg.voxel_grid()
    try:
        system = model.simulate_system_matrix(scanner, grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    phantom = phantom_from_config(cfg, grid)
    bg = background_from_config(cfg, scanner)
    b = cfg.background
    m = grid.voxel_count
    q = cfg.scans_per_bracket(m)
    calib_idx, empty_idx = acquisition.acquisition_schedule(m, q)
    empties = acquisition.draw_empty_scans(bg, empty_idx.size, b.noise_seed + 1,
                                           schedule=empty_idx)
    calib = acquisition.draw_calibration_scans(system, bg, b.calibration_concentration,
                                               b.noise_seed + 2, calib_idx,
                                               b.calibration_repetitions)
    meas_index = int(empty_idx[-1]) + 1
    meas = acquisition.draw_phantom_measurement(system, phantom, bg, b.noise_seed + 3,
                                                meas_index, b.measurement_repetitions)
    artifacts.write_artifact(run_dir / SYSTEM_MATRIX, artifacts.KIND_SPECTRUM_SET, calib)
    artifacts.write_artifact(run_dir / EMPTY_SCANS, artifacts.KIND_SPECTRUM_SET,
                             empties.spectra)
    artifacts.write_artifact(run_dir / MEASUREMENT, artifacts.KIND_SPECTRUM_SET,
                             meas.spectrum[None])
    artifacts.write_artifact(run_dir / PHANTOM, artifacts.KIND_IMAGE, phantom.values)
    _update_manifest(run_dir, [SYSTEM_MATRIX, EMPTY_SCANS, MEASUREMENT, PHANTOM])
    return {
        "voxels": m,
        "calibration_scans": int(calib_idx.size),
        "empty_scans": int(empty_idx.size),
        "scans_per_bracket": q,
        "coils": scanner.coils,
        "frequency_bins": scanner.freq_count,
    }


def cmd_preprocess(cfg: PipelineConfig, run_dir: Path) -> dict:
    """Score, select, correct, whiten (optionally) and scale: raw scans in,
    reduced real system out."""
    artifacts.verify_manifest(run_dir, [SYSTEM_MATRIX, EMPTY_SCANS, MEASUREMENT])
    calib = _read_artifact(run_dir, SYSTEM_MATRIX, artifacts.KIND_SPECTRUM_SET)
    empty_spectra = _read_artifact(run_dir, EMPTY_SCANS, artifacts.KIND_SPECTRUM_SET)
    meas = _read_artifact(run_dir, MEASUREMENT, artifacts.KIND_SPECTRUM_SET)
    scanner = cfg.scanner_config()
    grid = cfg.voxel_grid()
    m = grid.voxel_count
    if calib.shape != (m, scanner.coils, scanner.freq_count):
        raise IntegrityError(
            f"{SYSTEM_MATRIX}: shape {calib.shape} does not match the config "
            f"({m} voxels, {scanner.coils} coils, {scanner.freq_count} bins)")
    if meas.shape != (1, scanner.coils, scanner.freq_count):
        raise IntegrityError(f"{MEASUREMENT}: unexpected shape {meas.shape}")
    q = cfg.scans_per_bracket(m)
    _, empty_idx = acquisition.acquisition_schedule(m, q)
    if empty_spectra.shape != (empty_idx.size, scanner.coils, scanner.freq_count):
        raise IntegrityError(
            f"{EMPTY_SCANS}: shape {empty_spectra.shape} does not match the "
            f"schedule ({empty_idx.size} scans expected)")
    empties = acquisition.EmptyScanSet(empty_spectra, empty_idx,
                                       cfg.background.noise_seed + 1)
    pre = cfg.preprocess
    mu = preprocess.interp_backgrounds(empties, m, q)
    band = preprocess.band_pass(scanner.freq_count, scanner.period_ms,
                                pre.b1_khz, pre.b2_khz)
    scores = preprocess.snr_scores(calib, mu, empties, band)
    selection = preprocess.select_frequencies(scores, pre.tau, band)
    if selection.row_count == 0:
        raise ConfigError(
            f"preprocess.tau: no components reach tau={pre.tau:g}, nothing to reconstruct from")
    measured = preprocess.calibration_system_matrix(
        calib, mu, cfg.background.calibration_concentration)
    y_spec = preprocess.subtract_background(meas[0], acquisition.background_mean(empties))
    weights = preprocess.whitening_weights(empties, selection) if pre.whiten else None
    reduced = preprocess.assemble_reduced_system(measured, y_spec, selection, weights)
    artifacts.write_artifact(run_dir / REDUCED_A, artifacts.KIND_MATRIX, reduced.A)
    artifacts.write_artifact(run_dir / REDUCED_Y, artifacts.KIND_VECTOR, reduced.y)
    artifacts.write_artifact(run_dir / REDUCED_ROWS, artifacts.KIND_MATRIX,
                             reduced.row_index.astype(np.float64))
    report = {
        "tau": pre.tau,
        "whitened": reduced.whitened,
        "scale": reduced.scale,
        "rows": reduced.rows,
        "voxels": reduced.voxels,
        "band_khz": [pre.b1_khz, pre.b2_khz],
        "band_components_per_coil": int(band.size),
        "retained_per_coil": [int(s.size) for s in selection.selected],
        "scans_per_bracket": q,
        "empty_scans": int(empty_idx.size),
        "calibration_concentration": cfg.background.calibration_concentration,
    }
    _write_json(run_dir / SELECTION_REPORT, report)
    _update_manifest(run_dir, [REDUCED_A, REDUCED_Y, REDUCED_ROWS, SELECTION_REPORT])
    return {
        "rows": reduced.rows,
        "voxels": reduced.voxels,
        "tau": pre.tau,
        "whitened": reduced.whitened,
        "scale": reduced.scale,
    }


def _solve(reduced: preprocess.ReducedSystem, method: str, alpha: float,
           epsilon: float, scfg: solvers.SolverConfig) -> solvers.SolverResult:
    if method == "l2-K":
        return solvers.kaczmarz_reg(reduced, alpha, scfg)
    kind = "l1s" if method == "l1-L" else "l2"
    return solvers.lbfgsb(solvers.Objective(kind, reduced, alpha, epsilon), scfg)


def _load_reduced(run_dir: Path, voxel_count: int) -> preprocess.ReducedSystem:
    artifacts.verify_manifest(run_dir, [REDUCED_A, REDUCED_Y])
    a = _read_artifact(run_dir, REDUCED_A, artifacts.KIND_MATRIX)
    y = _read_artifact(run_dir, REDUCED_Y, artifacts.KIND_VECTOR)
    if a.shape[1] != voxel_count:
        raise IntegrityError(
            f"{REDUCED_A}: {a.shape[1]} columns but the config grid has "
            f"{voxel_count} voxels; rerun preprocess with this config")
    return preprocess.ReducedSystem(a, y)


def cmd_reconstruct(cfg: PipelineConfig, run_dir: Path) -> dict:
    grid = cfg.voxel_grid()
    reduced = _load_reduced(run_dir, grid.voxel_count)
    sol = cfg.solver
    result = _solve(reduced, sol.method, sol.alpha, sol.epsilon, cfg.solver_config())
    image = result.x.reshape(grid.shape)
    artifacts.write_artifact(run_dir / RECONSTRUCTION, artifacts.KIND_IMAGE, image)
    summary = {
        "method": sol.method,
        "alpha": sol.alpha,
        "rows": reduced.rows,
        "voxels": reduced.voxels,
        "iterations": result.iterations,
        "converged": bool(result.converged),
        "objective_value": result.objective_value,
        "projected_gradient_norm": result.projected_gradient_norm,
    }
    if sol.method == "l2-K":
        summary["sweeps"] = sol.sweeps
        summary["projection"] = sol.projection
        summary["row_order"] = sol.row_order
    else:
        summary["epsilon"] = sol.epsilon
    _write_json(run_dir / RECON_SUMMARY, summary)
    _update_manifest(run_dir, [RECONSTRUCTION, RECON_SUMMARY])
    return {
        "method": sol.method,
        "alpha": sol.alpha,
        "iterations": result.iterations,
        "converged": bool(result.converged),
        "objective_value": result.objective_value,
    }


def _reference_setup(cfg: PipelineConfig):
    grid = cfg.voxel_grid()
    return grid, model.phantom_support(cfg.phantom.kind, grid), cfg.shift_grid()


def cmd_evaluate(cfg: PipelineConfig, run_dir: Path) -> dict:
    artifacts.verify_manifest(run_dir, [RECONSTRUCTION])
    image = _read_artifact(run_dir, RECONSTRUCTION, artifacts.KIND_IMAGE)
    grid, support, shift_grid = _reference_setup(cfg)
    if image.shape != grid.shape:
        raise IntegrityError(
            f"{RECONSTRUCTION}: shape {image.shape} does not match the config grid")
    report = metrics.quality_report(
        image, support, grid, shift_grid,
        concentration=cfg.phantom.concentration,
        subsamples=cfg.metrics.subsamples,
        peak=cfg.metrics.psnr_peak,
        dynamic_range=cfg.metrics.dynamic_range)
    lines = ["dx_mm,dy_mm,dz_mm,psnr_db,ssim"]
    for shift, p, s in zip(report.shifts, report.psnr_values, report.ssim_values):
        cells = [float(shift[0]), float(shift[1]), float(shift[2]), float(p), float(s)]
        lines.append(",".join(repr(c) for c in cells))
    artifacts.atomic_write_text(run_dir / QUALITY_CSV, "\n".join(lines) + "\n")
    summary = {
        "eps_psnr_db": report.eps_psnr,
        "eps_ssim": report.eps_ssim,
        "argmax_shift_psnr_mm": list(report.argmax_psnr),
        "argmax_shift_ssim_mm": list(report.argmax_ssim),
        "psnr_peak": cfg.metrics.psnr_peak,
        "dynamic_range": cfg.metrics.dynamic_range,
        "shifts": int(report.shifts.shape[0]),
    }
    _write_json(run_dir / QUALITY_SUMMARY, summary)
    _update_manifest(run_dir, [QUALITY_CSV, QUALITY_SUMMARY])
    return {
        "eps_psnr_db": report.eps_psnr,
        "eps_ssim": report.eps_ssim,
        "argmax_shift_psnr_mm": tuple(report.argmax_psnr),
        "argmax_shift_ssim_mm": tuple(report.argmax_ssim),
    }


def _sweep_task(reduced: preprocess.ReducedSystem, stack: np.ndarray,
                cfg: PipelineConfig, alpha: float):
    """Score one regularization weight; runs in a worker when jobs > 1.

    Solves through _solve, as reconstruct does, and returns the (psnr, ssim)
    maxima over shifts of every l2-K sweep snapshot or of the final image.
    A NaN score survives the maximum, so cmd_sweep's first_argmax rejects it.
    """
    sol = cfg.solver
    scfg = cfg.solver_config(sweeps=cfg.sweep.max_sweeps, record_snapshots=True)
    result = _solve(reduced, sol.method, alpha, sol.epsilon, scfg)
    images = np.stack(result.snapshots or [result.x]).reshape((-1,) + stack.shape[1:])
    return (metrics.psnr_table(images, stack, cfg.metrics.psnr_peak).max(axis=1),
            metrics.ssim_table(images, stack, cfg.metrics.dynamic_range).max(axis=1))


def _sweep_csv_lines(alphas, col_labels, table):
    lines = ["alpha," + ",".join(col_labels)]
    for alpha, row in zip(alphas, table):
        lines.append(f"{alpha!r}," + ",".join(repr(float(v)) for v in row))
    return lines


def cmd_sweep(cfg: PipelineConfig, run_dir: Path) -> dict:
    """Quality over the regularization grid.

    For l2-K the table is (weights x sweep counts) from per-sweep snapshots;
    for the quasi-Newton methods each weight yields one column. Row-maximum
    files give the best stopping point per weight, column-maximum files the
    best weight per stopping point.
    """
    grid, support, shift_grid = _reference_setup(cfg)
    reduced = _load_reduced(run_dir, grid.voxel_count)
    stack = metrics.reference_stack(support, grid, shift_grid,
                                    cfg.phantom.concentration,
                                    cfg.metrics.subsamples)
    sw = cfg.sweep
    sol = cfg.solver
    exps = list(range(sw.alpha_max_exp, sw.alpha_min_exp - 1, -1))
    alphas = [2.0 ** e for e in exps]
    task = functools.partial(_sweep_task, reduced, stack, cfg)
    if sw.jobs > 1:
        with ProcessPoolExecutor(max_workers=sw.jobs) as pool:
            results = list(pool.map(task, alphas))
    else:
        results = list(map(task, alphas))
    psnr_table = np.stack([r[0] for r in results])
    ssim_table = np.stack([r[1] for r in results])
    best_p = metrics.first_argmax(psnr_table)
    best_s = metrics.first_argmax(ssim_table)
    if sol.method == "l2-K":
        col_labels = [str(n) for n in range(1, sw.max_sweeps + 1)]
        col_name = "sweeps"
    else:
        col_labels = ["value"]
        col_name = "column"
    written = []
    for metric_name, table in (("psnr", psnr_table), ("ssim", ssim_table)):
        name = f"sweep_{metric_name}.csv"
        artifacts.atomic_write_text(
            run_dir / name, "\n".join(_sweep_csv_lines(alphas, col_labels, table)) + "\n")
        written.append(name)
        row_max = table.max(axis=1)
        name = f"sweep_{metric_name}_row_max.csv"
        lines = [f"alpha,max_{metric_name}"]
        lines += [f"{a!r},{float(v)!r}" for a, v in zip(alphas, row_max)]
        artifacts.atomic_write_text(run_dir / name, "\n".join(lines) + "\n")
        written.append(name)
        col_max = table.max(axis=0)
        name = f"sweep_{metric_name}_col_max.csv"
        lines = [f"{col_name},max_{metric_name}"]
        lines += [f"{c},{float(v)!r}" for c, v in zip(col_labels, col_max)]
        artifacts.atomic_write_text(run_dir / name, "\n".join(lines) + "\n")
        written.append(name)

    def _best(table, at):
        col = at[1] + 1 if sol.method == "l2-K" else col_labels[at[1]]
        return {"alpha": alphas[at[0]], col_name: col, "value": float(table[at])}

    summary = {
        "method": sol.method,
        "alpha_exponents": exps,
        "columns": len(col_labels),
        "best_psnr": _best(psnr_table, best_p),
        "best_ssim": _best(ssim_table, best_s),
    }
    _write_json(run_dir / SWEEP_SUMMARY, summary)
    written.append(SWEEP_SUMMARY)
    _update_manifest(run_dir, written)
    return {
        "cells": int(psnr_table.size),
        "best_psnr_db": float(psnr_table[best_p]),
        "best_psnr_alpha": alphas[best_p[0]],
        "best_ssim": float(ssim_table[best_s]),
        "best_ssim_alpha": alphas[best_s[0]],
    }


_COMMANDS = {
    "simulate": cmd_simulate,
    "preprocess": cmd_preprocess,
    "reconstruct": cmd_reconstruct,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robust-recon",
        description="simulated scanner pipeline: robust image reconstruction "
                    "from frequency-component measurements")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "simulate": "simulate scanner artifacts for one phantom",
        "preprocess": "select components and assemble the reduced system",
        "reconstruct": "solve the reduced system for an image",
        "evaluate": "score a reconstruction against the phantom geometry",
        "sweep": "map quality over the regularization grid",
    }
    for name in _COMMANDS:
        sp = sub.add_parser(name, help=helps[name])
        sp.add_argument("--config", required=True, help="pipeline config file")
        sp.add_argument("--tau", type=float, help="selection threshold")
        sp.add_argument("--method", choices=["l1-L", "l2-L", "l2-K"],
                        help="reconstruction method")
        sp.add_argument("--alpha", type=float, help="regularization weight")
        sp.add_argument("--sweeps", type=int, help="Kaczmarz sweep count")
        sp.add_argument("--whiten", action="store_true",
                        help="whiten rows by empty-scan noise levels")
        sp.add_argument("--seed", type=int, help="noise seed override")
        sp.add_argument("--jobs", type=int, help="parallel workers for sweep")
        sp.add_argument("--out", default="run", help="run directory (default: run)")
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    over = {}
    if args.tau is not None:
        over["preprocess.tau"] = repr(args.tau)
    if args.method is not None:
        over["solver.method"] = args.method
    if args.alpha is not None:
        over["solver.alpha"] = repr(args.alpha)
    if args.sweeps is not None:
        over["solver.sweeps"] = str(args.sweeps)
    if args.whiten:
        over["preprocess.whiten"] = "true"
    if args.seed is not None:
        over["background.noise_seed"] = str(args.seed)
    if args.jobs is not None:
        over["sweep.jobs"] = str(args.jobs)
    return over


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    run_dir = Path(args.out)
    try:
        cfg = load_config(args.config, _overrides(args))
        info = _COMMANDS[args.command](cfg, run_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IntegrityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    _write_json(run_dir / f"timing_{args.command}.json",
                {"command": args.command, "wall_time_s": elapsed})
    for key, value in info.items():
        print(f"{key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
