"""Peak memory of the simulate and preprocess stages, of a whole read and of
the reference stack.

tracemalloc sees numpy's buffers, so its peak is the most a stage holds at
once. The calibration array (voxels, coils, freqs) sets the scale: simulate
never holds the system matrix, only the columns of the phantom's nonzero
voxels for the measurement and small blocks (it writes the calibration
scans as they are drawn, and samples the fields in a bounded chunk),
preprocess the calibration scans' band (559 of 1025 bins by default, read
from the file in 64-scan chunks), inside which it builds the reduced
matrix. A whole artifact read holds the returned array alone. Each stage
runs in a fresh interpreter, so its peak includes what it imports on its
first call whatever earlier tests imported.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

import robust_recon
from robust_recon.artifacts import KIND_MATRIX, read_verified, write_artifact, write_manifest
from robust_recon.config import load_config
from robust_recon.metrics import ShiftGrid
from robust_recon.model import VoxelGrid, phantom_support, rasterize_shifted
from robust_recon.preprocess import ReducedSystem


# one CLI command under tracemalloc; prints its traced peak in bytes. The
# child runs with -W error::RuntimeWarning, as pytest runs the suite, so a
# stray numpy warning in a stage still fails the test
TRACED_RUN = """
import sys
import tracemalloc
from robust_recon.cli import main
tracemalloc.start()
assert main(sys.argv[1:]) == 0
print(tracemalloc.get_traced_memory()[1])
"""


def traced_peak(argv) -> int:
    src = Path(robust_recon.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", TRACED_RUN, *argv],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return int(done.stdout.splitlines()[-1])


def peak_ratios(tmp_path, config_text):
    """Traced peaks of simulate and preprocess over the calibration bytes."""
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(config_text)
    conf = load_config(cfg)
    scanner = conf.scanner
    calib_bytes = (conf.grid.voxel_count * scanner.coils * scanner.freq_count
                   * np.dtype(np.complex128).itemsize)
    run = str(tmp_path / "run")
    simulate = traced_peak(["simulate", "--config", str(cfg), "--out", run])
    preprocess = traced_peak(["preprocess", "--config", str(cfg), "--out", run])
    return simulate / calib_bytes, preprocess / calib_bytes


def test_simulate_and_preprocess_hold_no_full_size_temporary(tmp_path):
    # the default 20x20 pipeline: 400 voxels x 2 coils x 1025 bins. Measured
    # 0.48x and 0.79x: the cone's 52 nonzero voxels are 0.13x, the band is
    # 0.55x, the read's 64-scan buffer 0.16x. 1.27x for simulate when it held
    # the system matrix; 1.82x and 1.21x with 64-voxel field chunks and A
    # beside the band; 2.19x and 1.86x with the whole calibration array in
    # simulate and a full-size gather in the assembly of A, and 1.67x for
    # preprocess when it read the whole calibration file
    simulate, preprocess = peak_ratios(tmp_path, "")
    assert simulate <= 0.55
    assert preprocess <= 0.85


GRID_40 = "grid.shape = 40,40,1\ngrid.spacing_mm = 0.5,0.5,1.0\n"


def test_simulate_streams_the_calibration_scans_at_40x40(tmp_path):
    # 1600 voxels: the 52 MB calibration set. Measured 0.21x and 0.65x: the
    # cone's 138 nonzero voxels are 0.09x. 1.11x for simulate when it held
    # the system matrix, and 0.66x for preprocess with three complex
    # band-sized temporaries in the empty scans' score; 0.67x with a boolean
    # copy of A in the finite check; 1.21x and 1.20x with 64-voxel field
    # chunks and A beside the band; 2.09x and 1.85x when simulate held the
    # whole set before writing it, and 1.65x for preprocess when it read the
    # whole calibration file
    simulate, preprocess = peak_ratios(tmp_path, GRID_40)
    assert simulate <= 0.25
    assert preprocess <= 0.68


def test_simulate_holds_the_tubes_columns_only_at_40x40(tmp_path):
    # the tubes phantom has 290 nonzero voxels of 1600, whose columns (0.18x)
    # the measurement needs. Measured 0.31x and 0.65x
    simulate, preprocess = peak_ratios(tmp_path, GRID_40 + "phantom.kind = resolution-tubes\n")
    assert simulate <= 0.35
    assert preprocess <= 0.68


def test_whole_read_holds_one_copy(tmp_path):
    # a 2000 x 300 reduced matrix, 4.8 MB: the payload is read in chunks
    # straight into the returned array. Measured 1.001x
    matrix = np.random.default_rng(0).standard_normal((2000, 300))
    write_manifest(tmp_path, {"a.rrc": write_artifact(tmp_path / "a.rrc", KIND_MATRIX, matrix)})
    tracemalloc.start()
    try:
        got = read_verified(tmp_path, "a.rrc", KIND_MATRIX, matrix.shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, matrix)
    assert peak < 1.1 * got.nbytes


def test_reduced_system_checks_finiteness_without_a_copy_of_a():
    # a 2000 x 400 matrix, 6.4 MB: a boolean mask of A would be 0.8 MB
    # (0.125x); min and max hold none. Measured 0.003x, y itself
    a = np.random.default_rng(0).standard_normal((2000, 400))
    tracemalloc.start()
    try:
        ReducedSystem(a, np.ones(2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * a.nbytes


def test_reference_stack_scratch_stays_small_at_a_non_dyadic_spacing():
    # 40 x 40 at 0.45 mm: the 169 shifts of the default ShiftGrid share no
    # sample coordinate, so the tubes' lattice holds 1313 x 1128 x 2 points
    # inside the support's box. Tiles of at most 2^16 points keep the
    # scratch above the 2.16 MB stack near the contains blocks' size.
    # Measured 2.8 MB; 9.2 MB with one boolean lattice of up to 2^22 points
    # per group of shifts
    grid = VoxelGrid((40, 40, 1), (0.45, 0.45, 1.0))
    support = phantom_support("resolution-tubes", grid)
    tracemalloc.start()
    try:
        stack = rasterize_shifted(support, grid, 50.0, ShiftGrid((3.0, 3.0, 0.0), 0.5).axes())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - stack.nbytes < 4e6
