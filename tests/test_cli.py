import json
import math
import shutil

import numpy as np
import pytest

from robust_recon import artifacts, metrics, preprocess, solvers
from robust_recon.cli import main
from robust_recon.metrics import ShiftGrid, psnr, ssim
from robust_recon.model import VoxelGrid, make_phantom

BASE_CONFIG = {
    "scanner.samples_per_period": "256",
    "grid.shape": "6,6,1",
    "solver.max_iterations": "400",
    "metrics.shift_extent_mm": "1.5,1.5,0.0",
}

SWEEP_EXTRA = {
    "metrics.shift_extent_mm": "1.0,1.0,0.0",
    "sweep.alpha_max_exp": "0",
    "sweep.alpha_min_exp": "-3",
    "sweep.max_sweeps": "6",
}


def write_config(directory, extra=None):
    keys = dict(BASE_CONFIG)
    keys.update(extra or {})
    path = directory / "pipeline.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return path


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """One simulated, preprocessed and reconstructed run directory.

    Tests that write into the run directory must copy it first; this
    instance is shared.
    """
    base = tmp_path_factory.mktemp("cli")
    cfg = write_config(base)
    run = base / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(run)]) == 0
    assert main(["preprocess", "--config", str(cfg), "--tau", "0",
                 "--out", str(run)]) == 0
    assert main(["reconstruct", "--config", str(cfg), "--out", str(run)]) == 0
    return cfg, run


def clone(pipeline, tmp_path):
    cfg, run = pipeline
    dst = tmp_path / "run"
    shutil.copytree(run, dst)
    return cfg, dst


def read_json(path):
    return json.loads(path.read_text())


def test_simulate_artifacts_and_manifest(pipeline, capsys, tmp_path):
    cfg, _ = pipeline
    run = tmp_path / "fresh"
    assert main(["simulate", "--config", str(cfg), "--out", str(run)]) == 0
    out = capsys.readouterr().out
    assert "voxels: 36" in out
    kind, calib = artifacts.read_artifact(run / "system_matrix.rrc")
    assert kind == artifacts.KIND_SPECTRUM_SET
    assert calib.shape == (36, 2, 129)
    kind, empties = artifacts.read_artifact(run / "empty_scans.rrc")
    assert kind == artifacts.KIND_SPECTRUM_SET
    assert empties.shape == (math.ceil(36 / 19) + 1, 2, 129)
    kind, meas = artifacts.read_artifact(run / "measurement.rrc")
    assert kind == artifacts.KIND_SPECTRUM_SET and meas.shape == (1, 2, 129)
    kind, phantom = artifacts.read_artifact(run / "phantom.rrc")
    assert kind == artifacts.KIND_IMAGE and phantom.shape == (6, 6, 1)
    manifest = artifacts.load_manifest(run)
    assert set(manifest) == {"system_matrix.rrc", "empty_scans.rrc",
                             "measurement.rrc", "phantom.rrc"}
    # timing is wall clock and must stay out of the hashed set
    assert (run / "timing_simulate.json").exists()
    artifacts.verify_manifest(run)


def test_simulate_deterministic_and_seed_sensitive(pipeline, tmp_path):
    cfg, _ = pipeline
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
    assert main(["simulate", "--config", str(cfg), "--seed", "999",
                 "--out", str(c)]) == 0
    names = ["system_matrix.rrc", "empty_scans.rrc", "measurement.rrc",
             "phantom.rrc", artifacts.MANIFEST_NAME]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (a / "system_matrix.rrc").read_bytes() != (c / "system_matrix.rrc").read_bytes()


def test_preprocess_zero_tau_keeps_whole_band(pipeline):
    _, run = pipeline
    report = read_json(run / "selection_report.json")
    band = preprocess.band_pass(129, 1.024, 80.0, 625.0)
    assert report["tau"] == 0.0
    assert report["rows"] == 2 * 2 * band.size
    assert report["retained_per_coil"] == [int(band.size)] * 2
    assert report["scale"] > 0
    assert report["whitened"] is False
    kind, a = artifacts.read_artifact(run / "reduced_A.rrc")
    assert kind == artifacts.KIND_MATRIX
    assert a.shape == (report["rows"], 36)
    assert np.linalg.svd(a, compute_uv=False)[0] <= 1.0 + 1e-6
    kind, rows = artifacts.read_artifact(run / "reduced_rows.rrc")
    assert rows.shape == (report["rows"], 3)
    kind, y = artifacts.read_artifact(run / "reduced_y.rrc")
    assert y.shape == (report["rows"],)


def test_preprocess_rows_shrink_with_tau(pipeline, tmp_path):
    cfg, _ = pipeline
    counts = []
    for tau in ("0", "2", "5"):
        _, run = clone(pipeline, tmp_path / f"tau{tau}")
        assert main(["preprocess", "--config", str(cfg), "--tau", tau,
                     "--out", str(run)]) == 0
        counts.append(read_json(run / "selection_report.json")["rows"])
    assert counts[0] >= counts[1] >= counts[2]


def test_reconstruct_toy_kaczmarz_exact(tmp_path):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text("grid.shape = 1,1,1\n")
    run = tmp_path / "run"
    run.mkdir()
    artifacts.write_artifact(run / "reduced_A.rrc", artifacts.KIND_MATRIX,
                             np.array([[1.0]]))
    artifacts.write_artifact(run / "reduced_y.rrc", artifacts.KIND_VECTOR,
                             np.array([2.0]))
    artifacts.write_manifest(run, {
        "reduced_A.rrc": artifacts.sha256_file(run / "reduced_A.rrc"),
        "reduced_y.rrc": artifacts.sha256_file(run / "reduced_y.rrc"),
    })
    assert main(["reconstruct", "--config", str(cfg), "--method", "l2-K",
                 "--alpha", "1.0", "--sweeps", "1", "--out", str(run)]) == 0
    kind, image = artifacts.read_artifact(run / "reconstruction.rrc")
    assert kind == artifacts.KIND_IMAGE
    # one row: beta = (2 - 0) / (1 + 1), x = beta * 1
    assert image.shape == (1, 1, 1) and image[0, 0, 0] == 1.0
    summary = read_json(run / "reconstruction_summary.json")
    assert summary["method"] == "l2-K"
    assert summary["sweeps"] == 1
    assert summary["objective_value"] == 1.0
    assert summary["converged"] is True


def test_reconstruct_images_nonnegative(pipeline, tmp_path):
    cfg, fixture_run = pipeline
    _, image = artifacts.read_artifact(fixture_run / "reconstruction.rrc")
    assert np.all(image >= 0.0)
    for method, extra in (("l2-L", []), ("l2-K", ["--sweeps", "30"])):
        _, run = clone(pipeline, tmp_path / method)
        assert main(["reconstruct", "--config", str(cfg), "--method", method,
                     "--out", str(run)] + extra) == 0
        _, image = artifacts.read_artifact(run / "reconstruction.rrc")
        assert np.all(image >= 0.0)
        assert read_json(run / "reconstruction_summary.json")["method"] == method


def test_reconstruct_summary_objective_matches_reevaluation(pipeline):
    _, run = pipeline
    summary = read_json(run / "reconstruction_summary.json")
    _, a = artifacts.read_artifact(run / "reduced_A.rrc")
    _, y = artifacts.read_artifact(run / "reduced_y.rrc")
    _, image = artifacts.read_artifact(run / "reconstruction.rrc")
    objective = solvers.Objective(
        "l1s", preprocess.ReducedSystem(a, y),
        summary["alpha"], summary["epsilon"])
    value, _ = objective.evaluate(image.ravel())
    assert abs(summary["objective_value"] - value) <= 1e-12 * max(1.0, abs(value))


def test_evaluate_truth_against_itself_is_perfect(pipeline, tmp_path):
    cfg, run = clone(pipeline, tmp_path)
    shutil.copyfile(run / "phantom.rrc", run / "reconstruction.rrc")
    entries = artifacts.load_manifest(run)
    entries["reconstruction.rrc"] = artifacts.sha256_file(run / "reconstruction.rrc")
    artifacts.write_manifest(run, entries)
    assert main(["evaluate", "--config", str(cfg), "--out", str(run)]) == 0
    summary = read_json(run / "quality_summary.json")
    assert summary["eps_psnr_db"] == math.inf
    assert summary["eps_ssim"] == 1.0
    assert summary["argmax_shift_psnr_mm"] == [0.0, 0.0, 0.0]
    assert summary["argmax_shift_ssim_mm"] == [0.0, 0.0, 0.0]


def replace_artifact(run, name, kind, array):
    """Overwrite an artifact and re-hash it into the manifest."""
    artifacts.write_artifact(run / name, kind, array)
    entries = artifacts.load_manifest(run)
    entries[name] = artifacts.sha256_file(run / name)
    artifacts.write_manifest(run, entries)


def test_evaluate_nan_reconstruction_exits_4(pipeline, tmp_path, capsys):
    cfg, run = clone(pipeline, tmp_path)
    _, image = artifacts.read_artifact(run / "reconstruction.rrc")
    image[2, 3, 0] = np.nan
    replace_artifact(run, "reconstruction.rrc", artifacts.KIND_IMAGE, image)
    assert main(["evaluate", "--config", str(cfg), "--out", str(run)]) == 4
    assert "NaN" in capsys.readouterr().err
    assert not (run / "quality_summary.json").exists()


def test_reconstruct_non_finite_reduced_system_exits_4(pipeline, tmp_path, capsys):
    cfg, run = clone(pipeline, tmp_path)
    _, y = artifacts.read_artifact(run / "reduced_y.rrc")
    y[5] = np.nan
    replace_artifact(run, "reduced_y.rrc", artifacts.KIND_VECTOR, y)
    before = (run / "reconstruction.rrc").read_bytes()
    assert main(["reconstruct", "--config", str(cfg), "--method", "l2-K",
                 "--out", str(run)]) == 4
    assert "non-finite" in capsys.readouterr().err
    assert (run / "reconstruction.rrc").read_bytes() == before


def test_reconstruct_kaczmarz_overflow_exits_4(tmp_path, capsys):
    # finite data whose l2 objective overflows to inf after the sweeps
    cfg = tmp_path / "toy.cfg"
    cfg.write_text("grid.shape = 2,1,1\n")
    run = tmp_path / "run"
    run.mkdir()
    artifacts.write_artifact(run / "reduced_A.rrc", artifacts.KIND_MATRIX,
                             np.array([[1e200, 1.0]]))
    artifacts.write_artifact(run / "reduced_y.rrc", artifacts.KIND_VECTOR,
                             np.array([1e200]))
    artifacts.write_manifest(run, {
        name: artifacts.sha256_file(run / name)
        for name in ("reduced_A.rrc", "reduced_y.rrc")
    })
    assert main(["reconstruct", "--config", str(cfg), "--method", "l2-K",
                 "--alpha", "1.0", "--out", str(run)]) == 4
    assert "non-finite" in capsys.readouterr().err
    assert not (run / "reconstruction_summary.json").exists()
    assert not (run / "reconstruction.rrc").exists()


@pytest.mark.parametrize("command", ["reconstruct", "evaluate", "sweep"])
def test_scanner_rejected_config_exits_2_in_every_stage(command, pipeline, tmp_path, capsys):
    _, run = clone(pipeline, tmp_path)
    cfg = write_config(tmp_path, {"scanner.drive_amplitudes_mt": "-12, 12"})
    before = sorted(p.name for p in run.iterdir())
    assert main([command, "--config", str(cfg), "--out", str(run)]) == 2
    assert "error: scanner: drive amplitudes must be nonnegative" in capsys.readouterr().err
    assert sorted(p.name for p in run.iterdir()) == before


def test_evaluate_csv_agrees_with_summary(pipeline, tmp_path):
    cfg, run = clone(pipeline, tmp_path)
    assert main(["evaluate", "--config", str(cfg), "--out", str(run)]) == 0
    lines = (run / "quality.csv").read_text().splitlines()
    assert lines[0] == "dx_mm,dy_mm,dz_mm,psnr_db,ssim"
    assert len(lines) == 1 + ShiftGrid((1.5, 1.5, 0.0), 0.5).count
    table = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    summary = read_json(run / "quality_summary.json")
    assert np.max(table[:, 3]) == summary["eps_psnr_db"]
    assert np.max(table[:, 4]) == summary["eps_ssim"]
    assert summary["shifts"] == table.shape[0]


def test_evaluate_single_shift_matches_direct_metrics(pipeline, tmp_path):
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    cfg0 = write_config(cfg_dir, {"metrics.shift_extent_mm": "0.0,0.0,0.0"})
    _, run = clone(pipeline, tmp_path)
    assert main(["evaluate", "--config", str(cfg0), "--out", str(run)]) == 0
    _, image = artifacts.read_artifact(run / "reconstruction.rrc")
    _, phantom = artifacts.read_artifact(run / "phantom.rrc")
    summary = read_json(run / "quality_summary.json")
    assert summary["eps_psnr_db"] == psnr(image, phantom, 100.0)
    assert summary["eps_ssim"] == ssim(image, phantom, 100.0)
    assert len((run / "quality.csv").read_text().splitlines()) == 2


def parse_sweep_csv(path):
    lines = path.read_text().splitlines()
    head = lines[0].split(",")
    rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
    table = np.array(rows)
    return head, table[:, 0], table[:, 1:]


def test_sweep_tables_and_summary(pipeline, tmp_path):
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    cfg = write_config(cfg_dir, SWEEP_EXTRA)
    _, run = clone(pipeline, tmp_path)
    assert main(["sweep", "--config", str(cfg), "--method", "l2-K",
                 "--out", str(run)]) == 0
    head, alphas, table = parse_sweep_csv(run / "sweep_psnr.csv")
    assert head == ["alpha", "1", "2", "3", "4", "5", "6"]
    assert np.array_equal(alphas, [2.0**e for e in range(0, -4, -1)])
    assert table.shape == (4, 6)
    _, _, row_max = parse_sweep_csv(run / "sweep_psnr_row_max.csv")
    assert np.array_equal(row_max[:, 0], table.max(axis=1))
    col_lines = (run / "sweep_psnr_col_max.csv").read_text().splitlines()
    col_max = np.array([float(line.split(",")[1]) for line in col_lines[1:]])
    assert np.array_equal(col_max, table.max(axis=0))
    summary = read_json(run / "sweep_summary.json")
    assert summary["best_psnr"]["value"] == table.max()
    i, j = np.unravel_index(np.argmax(table), table.shape)
    assert summary["best_psnr"]["alpha"] == alphas[i]
    assert summary["best_psnr"]["sweeps"] == j + 1
    manifest = artifacts.load_manifest(run)
    for name in ("sweep_psnr.csv", "sweep_psnr_row_max.csv",
                 "sweep_psnr_col_max.csv", "sweep_ssim.csv",
                 "sweep_ssim_row_max.csv", "sweep_ssim_col_max.csv",
                 "sweep_summary.json"):
        assert name in manifest

    # recompute one cell outside the sweep machinery, bit for bit
    _, a = artifacts.read_artifact(run / "reduced_A.rrc")
    _, y = artifacts.read_artifact(run / "reduced_y.rrc")
    scfg = solvers.SolverConfig(sweeps=6, record_snapshots=True,
                                max_iterations=400)
    result = solvers.kaczmarz_reg(preprocess.ReducedSystem(a, y), 0.5, scfg)
    grid = VoxelGrid((6, 6, 1), (1.0, 1.0, 1.0))
    phantom = make_phantom("shape-cone", grid, 50.0)
    res = metrics.shift_max_metric(
        result.snapshots[3].reshape(grid.shape), phantom.support, grid,
        ShiftGrid((1.0, 1.0, 0.0), 0.5), "psnr",
        concentration=50.0, peak=100.0)
    assert table[1, 3] == res.value


def test_sweep_quasi_newton_cell_matches_reconstruct(pipeline, tmp_path):
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    cfg = write_config(cfg_dir, SWEEP_EXTRA)
    _, run = clone(pipeline, tmp_path)
    assert main(["sweep", "--config", str(cfg), "--method", "l2-L",
                 "--out", str(run)]) == 0
    tables = {}
    for metric in ("psnr", "ssim"):
        head, alphas, tables[metric] = parse_sweep_csv(run / f"sweep_{metric}.csv")
        assert head == ["alpha", "value"]
        assert tables[metric].shape == (4, 1)
    assert alphas[1] == 0.5
    assert main(["reconstruct", "--config", str(cfg), "--method", "l2-L",
                 "--alpha", "0.5", "--out", str(run)]) == 0
    _, image = artifacts.read_artifact(run / "reconstruction.rrc")
    grid = VoxelGrid((6, 6, 1), (1.0, 1.0, 1.0))
    phantom = make_phantom("shape-cone", grid, 50.0)
    for metric, kwargs in (("psnr", {"peak": 100.0}), ("ssim", {"dynamic_range": 100.0})):
        res = metrics.shift_max_metric(image, phantom.support, grid,
                                       ShiftGrid((1.0, 1.0, 0.0), 0.5), metric,
                                       concentration=50.0, **kwargs)
        assert tables[metric][1, 0] == res.value


def test_sweep_parallel_workers_match_serial(pipeline, tmp_path):
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    cfg = write_config(cfg_dir, SWEEP_EXTRA)
    _, serial = clone(pipeline, tmp_path / "serial")
    _, parallel = clone(pipeline, tmp_path / "parallel")
    assert main(["sweep", "--config", str(cfg), "--method", "l2-K",
                 "--out", str(serial)]) == 0
    assert main(["sweep", "--config", str(cfg), "--method", "l2-K",
                 "--jobs", "2", "--out", str(parallel)]) == 0
    for name in ("sweep_psnr.csv", "sweep_ssim.csv", "sweep_summary.json"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


def test_config_rejects_single_empty_scan(pipeline, tmp_path, capsys):
    cfg = write_config(tmp_path, {"preprocess.empty_scans": "1"})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert "at least 2 empty scans" in capsys.readouterr().err


def test_invalid_config_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("solver.alpha = -1\n")
    assert main(["reconstruct", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert "solver.alpha" in capsys.readouterr().err


def test_missing_config_exits_3(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path / "r")]) == 3
    capsys.readouterr()


def test_missing_run_dir_exits_3(pipeline, tmp_path, capsys):
    cfg, _ = pipeline
    assert main(["preprocess", "--config", str(cfg),
                 "--out", str(tmp_path / "empty")]) == 3
    capsys.readouterr()


def test_corrupted_artifact_exits_3(pipeline, tmp_path, capsys):
    cfg, run = clone(pipeline, tmp_path)
    target = run / "system_matrix.rrc"
    blob = bytearray(target.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    target.write_bytes(bytes(blob))
    assert main(["preprocess", "--config", str(cfg), "--tau", "0",
                 "--out", str(run)]) == 3
    assert "system_matrix.rrc" in capsys.readouterr().err


def test_constant_background_whitening_exits_4(pipeline, tmp_path, capsys):
    # zero mean and zero noise: every empty-scan component is exactly
    # constant, so there is no noise level to whiten against
    cfg = write_config(tmp_path, {"background.base_std": "0",
                                  "background.mean_peak": "0"})
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(run)]) == 0
    assert main(["preprocess", "--config", str(cfg), "--tau", "0", "--whiten",
                 "--out", str(run)]) == 4
    capsys.readouterr()


def test_unknown_arguments_exit_2_via_parser(pipeline, tmp_path):
    cfg, _ = pipeline
    with pytest.raises(SystemExit) as info:
        main(["transmogrify", "--config", str(cfg)])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["reconstruct", "--config", str(cfg), "--method", "l0"])
    assert info.value.code == 2
