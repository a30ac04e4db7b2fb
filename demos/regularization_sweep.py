#!/usr/bin/env python3
"""Semiconvergence of regularized Kaczmarz and the early-stopping payoff.

On a resolution phantom with corrupted rows, quality as a function of the
sweep count rises, peaks after a handful of sweeps, then decays as the
iterate starts fitting the noise. The sweep below records a snapshot after
every pass and tabulates where the peak sits for each regularization
weight.
"""

import numpy as np

from robust_recon import acquisition, metrics, model, preprocess
from robust_recon.metrics import ShiftGrid
from robust_recon.solvers import SolverConfig, kaczmarz_reg

SHIFTS = ShiftGrid((0.5, 0.5, 0.0), 0.5)
SWEEPS = 60


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
    return reduced


def main():
    scanner = model.ScannerConfig()
    grid = model.VoxelGrid((20, 20, 1), (1.0, 1.0, 1.0))
    system = model.simulate_system_matrix(scanner, grid)
    phantom = model.make_phantom("resolution-tubes", grid, 50.0)
    stack = metrics.reference_stack(phantom.support, grid, SHIFTS, 50.0)
    reduced = acquire(scanner, grid, system, phantom)
    print(f"{reduced.rows} rows, {reduced.voxels} voxels, corrupted"
          f" components left in on purpose\n")

    print(f"{'alpha':>9s} {'peak sweep':>10s} {'peak PSNR':>10s}"
          f" {'final PSNR':>10s} {'given back':>10s}")
    for e in range(-5, -10, -1):
        alpha = 2.0**e
        cfg = SolverConfig(sweeps=SWEEPS, row_order="shuffled", seed=5,
                           record_snapshots=True)
        result = kaczmarz_reg(reduced, alpha, cfg)
        curve = np.array([
            metrics.shift_max_metric(x.reshape(grid.shape), phantom.support,
                                     grid, SHIFTS, "psnr", concentration=50.0,
                                     peak=100.0, stack=stack).value
            for x in result.snapshots])
        n_star = int(np.argmax(curve))
        print(f"{alpha:9.2e} {n_star + 1:10d} {curve[n_star]:10.2f}"
              f" {curve[-1]:10.2f} {curve[n_star] - curve[-1]:10.2f}")

    print("\nwith small weights the iterate overfits: quality peaks a few")
    print("sweeps in and then decays, so stopping early is worth several dB.")
    print("larger weights damp the decay but also cap the attainable peak.")
    print("the sweep command automates this scan and reports the best")
    print("(alpha, sweep count) cell it saw.")


if __name__ == "__main__":
    main()
