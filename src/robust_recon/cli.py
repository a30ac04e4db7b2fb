"""Command line front end.

Five subcommands share one run directory (--out): simulate writes the raw
scanner artifacts, preprocess turns them into a reduced real system,
reconstruct solves it, evaluate scores the image against the generating
geometry, sweep maps quality over the regularization grid. Each stage
reads its inputs through artifacts.read_verified, which checks each one's
shape against the config and its sha256 against the manifest. So a
corrupted, hand-edited or mismatched run directory fails loudly instead of
producing plausible images. A stage writes its artifacts and returns
(record, {name: sha256} of what it wrote); main is the one bookkeeper of
the run directory: it writes the record to the stage's file in _COMMANDS
(simulate has none), extends the manifest with the stage's digests and the
record's, writes the timing sidecar (inside the same error handling, so
a failed write exits 3) and prints the record as one "key: value" line
per top-level key.

Exit codes: 0 success, 2 invalid config or arguments (a ValueError, such as
ConfigError), 3 I/O or integrity failure, 4 numerical failure: a
NumericalError, or an ArithmeticError such as the overflow of a config
value whose derived quantities leave the float range. A numerical failure
prints "error: <command>: <message>", with the exception type before the
message of an ArithmeticError; simulate checks its spectra before writing,
so it never writes non-finite artifacts, and simulate and preprocess
silence numpy's overflow warnings, so an overflow surfaces as that error.
The subcommands, their stage functions, record files and help lines are
one table, _COMMANDS; the override flags and the config keys they set are
another, _FLAGS. Every CSV is written by _write_csv and every JSON file by
artifacts.write_json. Wall-clock timing goes to a timing_*.json sidecar
that is intentionally absent from the manifest: with a fixed seed,
rerunning a stage must reproduce every hashed byte. So main runs each
stage with numpy's bundled OpenBLAS on one thread, whose products do not
depend on the caller's thread count, and gives that count back after. A stage whose stdout
is closed (robust-recon ... | head -1) still exits 0, with nothing on
stderr.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import acquisition, artifacts, metrics, model, preprocess, solvers
from .config import PipelineConfig, load_config
from .errors import IntegrityError, NumericalError

__all__ = ["main"]

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


def _write_csv(path, header, rows) -> str:
    """Comma-joined str() of each cell, header first. Cells are Python
    values (ndarray.tolist()), whose str() of a float is its repr."""
    lines = [",".join(str(cell) for cell in row) for row in [header, *rows]]
    return artifacts.atomic_write_text(path, "\n".join(lines) + "\n")


def _require_finite(name: str, spectra: np.ndarray) -> None:
    """NumericalError naming the artifact if (scans, coils, bins) spectra
    hold NaN or inf; checked 64 scans at a time, with no full-size mask."""
    for lo in range(0, spectra.shape[0], 64):
        if not np.isfinite(spectra[lo:lo + 64]).all():
            raise NumericalError(f"{name}: spectra hold non-finite values")


def cmd_simulate(cfg: PipelineConfig, run_dir: Path) -> tuple[dict, dict]:
    """Simulate the scanner and write the four raw artifacts.

    system_matrix.rrc holds the raw calibration scans (one delta sample per
    voxel, in scan order); the background-corrected matrix is derived by
    preprocess. The clean forward operator is a model.FieldResponse, never
    stored whole: the measurement takes the columns of the phantom's
    nonzero voxels, and each calibration block the columns of its own
    voxels. The empty scans and the measurement are drawn first (each draw
    has its own seed, so the order changes no bit); the calibration scans
    are then written as they are drawn, so simulate holds neither the
    system matrix nor the calibration set. The spectra are checked for
    non-finite values in artifact order, calibration blocks first, all
    before any file is renamed into place.
    """
    run_dir.mkdir(parents=True, exist_ok=True)
    scanner = cfg.scanner
    grid = cfg.grid
    # an overflow is reported as NumericalError below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        system = model.FieldResponse(scanner, grid)
        p = cfg.phantom
        phantom = model.make_phantom(p.kind, grid, p.concentration, p.subsamples)
        b = cfg.background
        bg = acquisition.make_background(
            scanner.coils, scanner.freq_count, scanner.period_ms,
            scanner.drive_frequencies_khz, b.base_std, b.mean_peak,
            mean_decay=b.mean_decay, outlier_fraction=b.outlier_fraction,
            outlier_scale=b.outlier_scale, drift_scale=b.drift_scale,
            seed=b.structure_seed)
        m = grid.voxel_count
        q = b.scans_per_bracket
        calib_idx, empty_idx = acquisition.acquisition_schedule(m, q)
        empties = acquisition.draw_empty_scans(bg, empty_idx.size, b.noise_seed + 1,
                                               schedule=empty_idx)
        meas_index = int(empty_idx[-1]) + 1
        meas = acquisition.draw_phantom_measurement(system, phantom, bg, b.noise_seed + 3,
                                                    meas_index, b.measurement_repetitions)
        spectra = {EMPTY_SCANS: empties, MEASUREMENT: meas.spectrum[None]}
        calib = acquisition.calibration_scan_blocks(system, bg, b.calibration_concentration,
                                                    b.noise_seed + 2, calib_idx,
                                                    b.calibration_repetitions)

        def checked_calibration():
            for block in calib:
                _require_finite(SYSTEM_MATRIX, block)
                yield block
            # still inside the writer: a failure here leaves no system matrix
            for name, array in spectra.items():
                _require_finite(name, array)

        digests = {SYSTEM_MATRIX: artifacts.write_artifact_blocks(
            run_dir / SYSTEM_MATRIX, artifacts.KIND_SPECTRUM_SET,
            (m, scanner.coils, scanner.freq_count), checked_calibration())}
    for name, array in spectra.items():
        digests[name] = artifacts.write_artifact(run_dir / name, artifacts.KIND_SPECTRUM_SET,
                                                 array)
    digests[PHANTOM] = artifacts.write_artifact(run_dir / PHANTOM, artifacts.KIND_IMAGE,
                                                phantom.values)
    return {
        "voxels": m,
        "calibration_scans": int(calib_idx.size),
        "empty_scans": int(empty_idx.size),
        "scans_per_bracket": q,
        "coils": scanner.coils,
        "frequency_bins": scanner.freq_count,
    }, digests


def cmd_preprocess(cfg: PipelineConfig, run_dir: Path) -> tuple[dict, dict]:
    """Score, select, correct, whiten (optionally) and scale: raw scans in,
    reduced real system out, through preprocess.reduce_scans. Each input is
    read by read_verified against the shape the config and the schedule
    give it, hashed and finite-checked in every bin. Of the calibration
    scans only the band's bins are kept: system_matrix.rrc is read in
    chunks and only the band is copied out, scans last, which reduce_scans
    corrects in place and builds the reduced matrix inside."""
    scanner = cfg.scanner
    coils, freqs = scanner.coils, scanner.freq_count
    m = cfg.grid.voxel_count
    pre = cfg.preprocess
    band = preprocess.band_pass(freqs, scanner.period_ms, pre.b1_khz, pre.b2_khz)
    q = cfg.background.scans_per_bracket
    _, empty_idx = acquisition.acquisition_schedule(m, q)
    spectrum_set = artifacts.KIND_SPECTRUM_SET
    empties = artifacts.read_verified(run_dir, EMPTY_SCANS, spectrum_set,
                                      (empty_idx.size, coils, freqs))
    meas = artifacts.read_verified(run_dir, MEASUREMENT, spectrum_set, (1, coils, freqs))
    # band_pass gives one run of bins, which a slice copies faster than an index
    bins = slice(band[0], band[-1] + 1) if band.size else slice(0)
    calib_band = artifacts.read_verified(run_dir, SYSTEM_MATRIX, spectrum_set,
                                         (m, coils, freqs), bins=bins)
    # an overflow is reported as NumericalError by the checks in
    # reduce_scans, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        reduced, selection = preprocess.reduce_scans(
            calib_band, empties, meas[0], q, band, pre.tau,
            cfg.background.calibration_concentration, pre.whiten)
    digests = {
        name: artifacts.write_artifact(run_dir / name, kind, array)
        for name, kind, array in (
            (REDUCED_A, artifacts.KIND_MATRIX, reduced.A),
            (REDUCED_Y, artifacts.KIND_VECTOR, reduced.y),
            (REDUCED_ROWS, artifacts.KIND_MATRIX, reduced.row_index.astype(np.float64)))}
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
    return report, digests


def _load_reduced(run_dir: Path, voxel_count: int) -> preprocess.ReducedSystem:
    y = artifacts.read_verified(run_dir, REDUCED_Y, artifacts.KIND_VECTOR)
    a = artifacts.read_verified(run_dir, REDUCED_A, artifacts.KIND_MATRIX,
                                (y.size, voxel_count))
    return preprocess.ReducedSystem(a, y)


def cmd_reconstruct(cfg: PipelineConfig, run_dir: Path) -> tuple[dict, dict]:
    grid = cfg.grid
    reduced = _load_reduced(run_dir, grid.voxel_count)
    sol = cfg.solver
    result = solvers.solve(reduced, sol.method, sol.alpha, sol.epsilon, cfg.solver_config())
    image = result.x.reshape(grid.shape)
    image_digest = artifacts.write_artifact(
        run_dir / RECONSTRUCTION, artifacts.KIND_IMAGE, image)
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
    _, settings = solvers.METHODS[sol.method]
    summary.update((key, getattr(sol, key)) for key in settings)
    return summary, {RECONSTRUCTION: image_digest}


def _reference_setup(cfg: PipelineConfig):
    grid = cfg.grid
    return grid, model.phantom_support(cfg.phantom.kind, grid), cfg.shift_grid()


def cmd_evaluate(cfg: PipelineConfig, run_dir: Path) -> tuple[dict, dict]:
    image = artifacts.read_verified(run_dir, RECONSTRUCTION, artifacts.KIND_IMAGE,
                                    cfg.grid.shape)
    grid, support, shift_grid = _reference_setup(cfg)
    psnr, ssim = metrics.quality_report(
        image, support, grid, shift_grid,
        concentration=cfg.phantom.concentration,
        subsamples=cfg.phantom.subsamples,
        peak=cfg.metrics.psnr_peak,
        dynamic_range=cfg.metrics.dynamic_range)
    rows = np.column_stack([psnr.shifts, psnr.per_shift, ssim.per_shift]).tolist()
    csv_digest = _write_csv(run_dir / QUALITY_CSV,
                            ["dx_mm", "dy_mm", "dz_mm", "psnr_db", "ssim"], rows)
    summary = {
        "eps_psnr_db": psnr.value,
        "eps_ssim": ssim.value,
        "argmax_shift_psnr_mm": list(psnr.argmax_shift),
        "argmax_shift_ssim_mm": list(ssim.argmax_shift),
        "psnr_peak": cfg.metrics.psnr_peak,
        "dynamic_range": cfg.metrics.dynamic_range,
        "shifts": len(rows),
    }
    return summary, {QUALITY_CSV: csv_digest}


def _sweep_task(reduced: preprocess.ReducedSystem, stack: np.ndarray,
                cfg: PipelineConfig, alpha: float):
    """Score one regularization weight; runs in a worker when jobs > 1.

    Solves through solvers.solve, as reconstruct does, and returns the (psnr,
    ssim) maxima over shifts of every Kaczmarz sweep snapshot or of the final
    image, and the number of SSIM cells scored exactly. Only the maxima are
    kept, so metrics.ssim_max scores the cell at each image's PSNR-best
    shift and then only the cells whose SSIM bound reaches it; the maxima
    are those of the full ssim_table, bit for bit. A NaN score survives the
    maximum, so cmd_sweep's first_argmax rejects it.
    """
    sol = cfg.solver
    scfg = cfg.solver_config(sweeps=cfg.sweep.max_sweeps, record_snapshots=True)
    result = solvers.solve(reduced, sol.method, alpha, sol.epsilon, scfg)
    images = np.stack(result.snapshots or [result.x]).reshape((-1,) + stack.shape[1:])
    psnr = metrics.psnr_table(images, stack, cfg.metrics.psnr_peak)
    ssim, scored = metrics.ssim_max(images, stack, cfg.metrics.dynamic_range, psnr)
    return psnr.max(axis=1), ssim, scored


# The inputs of _sweep_task in a sweep pool worker, set once per worker by
# the pool initializer, so a task ships only its weight.
_worker_inputs: tuple = ()


def _sweep_worker_init(reduced: preprocess.ReducedSystem, stack: np.ndarray,
                       cfg: PipelineConfig) -> None:
    global _worker_inputs
    _worker_inputs = (reduced, stack, cfg)


def _sweep_worker_task(alpha: float):
    # a worker started by spawn or forkserver has not inherited main's pin
    with _one_blas_thread():
        return _sweep_task(*_worker_inputs, alpha)


def cmd_sweep(cfg: PipelineConfig, run_dir: Path) -> tuple[dict, dict]:
    """Quality over the regularization grid.

    For Kaczmarz the table is (weights x sweep counts) from per-sweep
    snapshots; for the quasi-Newton methods each weight yields one column.
    Row-maximum files give the best stopping point per weight, column-maximum
    files the best weight per stopping point.
    """
    grid, support, shift_grid = _reference_setup(cfg)
    # before A is read, so the stack's scratch never sits on top of it
    stack = metrics.reference_stack(support, grid, shift_grid,
                                    cfg.phantom.concentration,
                                    cfg.phantom.subsamples)
    reduced = _load_reduced(run_dir, grid.voxel_count)
    sw = cfg.sweep
    sol = cfg.solver
    exps = list(range(sw.alpha_max_exp, sw.alpha_min_exp - 1, -1))
    alphas = [2.0 ** e for e in exps]
    # the pool starts every worker up front, so never more than the weights
    # or the CPUs
    jobs = min(sw.jobs, len(alphas), os.cpu_count() or 1)
    if jobs > 1:
        # imported here: a stage that starts no pool does not load it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs, initializer=_sweep_worker_init,
                                 initargs=(reduced, stack, cfg)) as pool:
            results = list(pool.map(_sweep_worker_task, alphas))
    else:
        results = [_sweep_task(reduced, stack, cfg, alpha) for alpha in alphas]
    psnr_table = np.stack([r[0] for r in results])
    ssim_table = np.stack([r[1] for r in results])
    ssim_cells_scored = sum(r[2] for r in results)
    best_p = metrics.first_argmax(psnr_table)
    best_s = metrics.first_argmax(ssim_table)
    kind, _ = solvers.METHODS[sol.method]
    if kind is None:  # Kaczmarz: one column per sweep snapshot
        col_name, columns = "sweeps", list(range(1, sw.max_sweeps + 1))
    else:
        col_name, columns = "column", ["value"]
    digests = {}
    for metric_name, table in (("psnr", psnr_table), ("ssim", ssim_table)):
        best = f"max_{metric_name}"
        files = {
            f"sweep_{metric_name}.csv": (
                ["alpha", *columns], [[a, *row] for a, row in zip(alphas, table.tolist())]),
            f"sweep_{metric_name}_row_max.csv": (
                ["alpha", best], zip(alphas, table.max(axis=1).tolist())),
            f"sweep_{metric_name}_col_max.csv": (
                [col_name, best], zip(columns, table.max(axis=0).tolist())),
        }
        for name, (header, rows) in files.items():
            digests[name] = _write_csv(run_dir / name, header, rows)

    def _best(table, at):
        return {"alpha": alphas[at[0]], col_name: columns[at[1]], "value": float(table[at])}

    summary = {
        "method": sol.method,
        "alpha_exponents": exps,
        "columns": len(columns),
        "best_psnr": _best(psnr_table, best_p),
        "best_ssim": _best(ssim_table, best_s),
        "ssim_cells": ssim_table.size * stack.shape[0],
        "ssim_cells_scored": ssim_cells_scored,
    }
    return summary, digests


# The subcommands: the stage function each one runs, the file main writes
# its record to (None: simulate's record is printed only) and its --help line.
_COMMANDS = {
    "simulate": (cmd_simulate, None, "simulate scanner artifacts for one phantom"),
    "preprocess": (cmd_preprocess, SELECTION_REPORT,
                   "select components and assemble the reduced system"),
    "reconstruct": (cmd_reconstruct, RECON_SUMMARY, "solve the reduced system for an image"),
    "evaluate": (cmd_evaluate, QUALITY_SUMMARY,
                 "score a reconstruction against the phantom geometry"),
    "sweep": (cmd_sweep, SWEEP_SUMMARY, "map quality over the regularization grid"),
}


# The override flags: argparse keywords and the config key each one sets.
_FLAGS = {
    "--tau": ({"type": float, "help": "selection threshold"}, "preprocess.tau"),
    "--method": ({"choices": list(solvers.METHODS), "help": "reconstruction method"},
                 "solver.method"),
    "--alpha": ({"type": float, "help": "regularization weight"}, "solver.alpha"),
    "--sweeps": ({"type": int, "help": "Kaczmarz sweep count"}, "solver.sweeps"),
    "--whiten": ({"action": "store_true", "default": None,
                  "help": "whiten rows by empty-scan noise levels"}, "preprocess.whiten"),
    "--seed": ({"type": int, "help": "noise seed override"}, "background.noise_seed"),
    "--jobs": ({"type": int, "help": "parallel workers for sweep"}, "sweep.jobs"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robust-recon",
        description="simulated scanner pipeline: robust image reconstruction "
                    "from frequency-component measurements")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="pipeline config file")
        for flag, (keywords, _) in _FLAGS.items():
            sp.add_argument(flag, **keywords)
        sp.add_argument("--out", default="run", help="run directory (default: run)")
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    values = {key: getattr(args, flag[2:]) for flag, (_, key) in _FLAGS.items()}
    return {key: str(value) for key, value in values.items() if value is not None}


def _openblas_threads():
    """The get and set functions of the thread count of numpy's bundled
    OpenBLAS, or None where no such library or function is found."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("lib*openblas*.so*"):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        # the symbol prefix and suffix depend on how the wheel built OpenBLAS
        for stem in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            get, put = (getattr(lib, stem.format(verb), None) for verb in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Run the body with numpy's bundled OpenBLAS on one thread, then give
    back the count it had. The thread count changes the bits of a matrix
    product, and so every byte from preprocess on. Does nothing where
    _openblas_threads finds nothing."""
    functions = _openblas_threads()
    if functions is None:
        yield
        return
    get, put = functions
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    run_dir = Path(args.out)
    try:
        cfg = load_config(args.config, _overrides(args))
        stage, record_name, _ = _COMMANDS[args.command]
        with _one_blas_thread():
            record, digests = stage(cfg, run_dir)
        if record_name is not None:
            digests[record_name] = artifacts.write_json(run_dir / record_name, record)
        manifest = run_dir / artifacts.MANIFEST_NAME
        entries = artifacts.load_manifest(run_dir) if manifest.exists() else {}
        artifacts.write_manifest(run_dir, {**entries, **digests})
        artifacts.write_json(run_dir / f"timing_{args.command}.json",
                             {"command": args.command,
                              "wall_time_s": time.perf_counter() - start})
    except (IntegrityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 4
    except ArithmeticError as exc:
        print(f"error: {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        for key, value in record.items():
            print(f"{key}: {value}")
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader has gone and the stage's files are written: send what
        # is left, and Python's flush at exit, to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


if __name__ == "__main__":
    sys.exit(main())
