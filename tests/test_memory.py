"""Peak memory of the simulate and preprocess stages.

tracemalloc sees numpy's buffers, so its peak is the most a stage holds at
once. The calibration array (voxels, coils, freqs) sets the scale: simulate
may hold the system matrix and that array plus small blocks, preprocess its
read buffer plus one band-sized array.
"""

import tracemalloc

import numpy as np

from robust_recon.cli import main
from robust_recon.config import load_config


def traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_and_preprocess_hold_no_full_size_temporary(tmp_path):
    # the default 20x20 pipeline: 400 voxels x 2 coils x 1025 bins
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("")
    conf = load_config(cfg)
    scanner = conf.scanner
    calib_bytes = (conf.grid.voxel_count * scanner.coils * scanner.freq_count
                   * np.dtype(np.complex128).itemsize)
    run = str(tmp_path / "run")
    simulate = traced_peak(["simulate", "--config", str(cfg), "--out", run])
    preprocess = traced_peak(["preprocess", "--config", str(cfg), "--out", run])
    # 3.6x and 3.9x with whole-array noise and full-band preprocessing
    assert simulate / calib_bytes <= 2.5
    assert preprocess / calib_bytes <= 2.0
