#!/usr/bin/env python3
"""Side-by-side reconstruction methods on one corrupted acquisition.

Builds a 20x20 cone phantom acquisition where 5% of the frequency
components carry noise at 50x the base level, then reconstructs with the
smoothed-l1 data term, the plain l2 data term, and regularized Kaczmarz.
Each method gets a small regularization grid; the table reports the
shift-maximized quality of the best member.
"""

import numpy as np

from robust_recon import acquisition, metrics, model, preprocess
from robust_recon.metrics import ShiftGrid
from robust_recon.solvers import Objective, SolverConfig, kaczmarz_reg, lbfgsb

SHIFTS = ShiftGrid((0.5, 0.5, 0.0), 0.5)


def acquire(scanner, grid, system, phantom):
    m, q = grid.voxel_count, 19
    bg = acquisition.make_background(
        scanner.coils, scanner.freq_count, scanner.period_ms,
        scanner.drive_frequencies_khz, 4.0, 200.0,
        outlier_fraction=0.05, outlier_scale=50.0, seed=100)
    calib_idx, empty_idx = acquisition.acquisition_schedule(m, q)
    empties = acquisition.draw_empty_scans(bg, empty_idx.size, 1000, schedule=empty_idx)
    calib = acquisition.draw_calibration_scans(system, bg, 100.0, 2000, calib_idx, 1000)
    meas = acquisition.draw_phantom_measurement(system, phantom, bg, 3000,
                                                int(empty_idx[-1]) + 1, 1)
    band = preprocess.band_pass(scanner.freq_count, scanner.period_ms, 80.0, 625.0)
    # the band with the scan axis last, as reduce_scans takes (and overwrites) it
    calib_band = calib[:, :, band].transpose(1, 2, 0).copy()
    reduced, _ = preprocess.reduce_scans(calib_band, empties, meas.spectrum, q, band,
                                         0.0, 100.0)
    return reduced, bg


def evaluate(x, phantom, grid, stack):
    img = x.reshape(grid.shape)
    p = metrics.shift_max_metric(img, phantom.support, grid, SHIFTS, "psnr",
                                 concentration=50.0, peak=100.0, stack=stack)
    s = metrics.shift_max_metric(img, phantom.support, grid, SHIFTS, "ssim",
                                 concentration=50.0, dynamic_range=100.0, stack=stack)
    return p.value, s.value


def main():
    scanner = model.ScannerConfig()
    grid = model.VoxelGrid((20, 20, 1), (1.0, 1.0, 1.0))
    system = model.simulate_system_matrix(scanner, grid)
    phantom = model.make_phantom("shape-cone", grid, 50.0)
    stack = metrics.reference_stack(phantom.support, grid, SHIFTS, 50.0)

    reduced, bg = acquire(scanner, grid, system, phantom)
    flagged = bg.outlier_indices()
    print(f"acquired {reduced.rows} rows over {reduced.voxels} voxels,"
          f" operator norm {reduced.scale:.3e} divided out")
    print(f"{len(flagged)} corrupted components at 50x noise,"
          f" none filtered (tau = 0)\n")

    alphas = [2.0**e for e in range(-2, -15, -2)]
    rows = []
    for kind, label in (("l1s", "l1 data term + lbfgsb"),
                        ("l2", "l2 data term + lbfgsb")):
        best = (-np.inf, None, None)
        for alpha in alphas:
            res = lbfgsb(Objective(kind, reduced, alpha, 1e-6),
                         SolverConfig(max_iterations=150))
            p, s = evaluate(res.x, phantom, grid, stack)
            if p > best[0]:
                best = (p, s, alpha)
        rows.append((label,) + best)

    best = (-np.inf, None, None)
    for alpha in alphas:
        res = kaczmarz_reg(reduced, alpha,
                           SolverConfig(sweeps=12, row_order="shuffled", seed=5))
        p, s = evaluate(res.x, phantom, grid, stack)
        if p > best[0]:
            best = (p, s, alpha)
    rows.append(("regularized Kaczmarz (12 sweeps)",) + best)

    print(f"{'method':34s} {'eps PSNR':>9s} {'eps SSIM':>9s} {'alpha':>8s}")
    for label, p, s, alpha in rows:
        print(f"{label:34s} {p:9.2f} {s:9.4f} {alpha:8.2e}")

    gap = rows[0][1] - rows[1][1]
    print(f"\nthe l1 data term wins by {gap:.2f} dB here: the corrupted rows")
    print("produce a few huge residuals that dominate a squared loss, while")
    print("the smoothed absolute loss caps their influence")


if __name__ == "__main__":
    main()
