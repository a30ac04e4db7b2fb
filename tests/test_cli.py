import concurrent.futures
import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from robust_recon import acquisition, artifacts, cli, metrics, preprocess, solvers
from robust_recon.cli import main
from robust_recon.config import PipelineConfig, load_config
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


def test_unwritable_timing_sidecar_exits_3(tmp_path, capsys):
    # the sidecar is written inside the error handling: a directory in its
    # place is an I/O failure like any other, after the stage's files
    cfg = write_config(tmp_path)
    run = tmp_path / "run"
    (run / "timing_simulate.json").mkdir(parents=True)
    assert main(["simulate", "--config", str(cfg), "--out", str(run)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "timing_simulate.json" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    artifacts.verify_manifest(run)
    assert set(artifacts.load_manifest(run)) == {"system_matrix.rrc", "empty_scans.rrc",
                                                 "measurement.rrc", "phantom.rrc"}


def test_manifest_digests_match_files_on_disk(tmp_path):
    # main records every stage: each record file from _COMMANDS is in the
    # manifest with its digest, and no timing sidecar is
    cfg = write_config(tmp_path, SWEEP_EXTRA)
    run = tmp_path / "run"
    for command, (_, record_name, _) in cli._COMMANDS.items():
        assert main([command, "--config", str(cfg), "--method", "l2-K",
                     "--out", str(run)]) == 0, command
        entries = artifacts.load_manifest(run)
        for name, digest in entries.items():
            assert digest == artifacts.sha256_file(run / name), name
        assert record_name is None or record_name in entries, command
        assert (run / f"timing_{command}.json").exists()
        assert not [name for name in entries if name.startswith("timing_")]


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


@pytest.mark.parametrize("flags", [[], ["--whiten"]])
def test_preprocess_tau_above_every_score_exits_2(tmp_path, capsys, flags):
    cfg = write_config(tmp_path)
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(run)]) == 0
    manifest = (run / "manifest.json").read_bytes()
    capsys.readouterr()
    assert main(["preprocess", "--config", str(cfg), "--tau", "1e30", *flags,
                 "--out", str(run)]) == 2
    assert "tau=1e+30" in capsys.readouterr().err
    assert not list(run.glob("reduced_*.rrc"))
    assert not (run / "selection_report.json").exists()
    assert (run / "manifest.json").read_bytes() == manifest


@pytest.mark.parametrize("b1, b2, tau, whiten", [
    ("80", "625", "3", False),  # the default band reaches the last of 129 bins
    ("0", "inf", "0", True),
    ("0", "60", "2", True),
    ("30", "90", "0", False),
])
def test_band_only_preprocess_matches_full_array_composition(pipeline, tmp_path,
                                                             b1, b2, tau, whiten):
    # cmd_preprocess reduces the band only, through reduce_scans; the oracle
    # runs the public steps on the full arrays
    _, run = clone(pipeline, tmp_path)
    cfg = write_config(tmp_path, {"preprocess.b1_khz": b1, "preprocess.b2_khz": b2,
                                  "preprocess.tau": tau,
                                  "preprocess.whiten": str(whiten).lower()})
    assert main(["preprocess", "--config", str(cfg), "--out", str(run)]) == 0
    conf = load_config(cfg)
    scanner, pre = conf.scanner, conf.preprocess
    calib, empties, meas = (artifacts.read_artifact(run / name)[1] for name in
                            ("system_matrix.rrc", "empty_scans.rrc", "measurement.rrc"))
    m = calib.shape[0]
    mu = preprocess.interp_backgrounds(empties, m, conf.background.scans_per_bracket)
    band = preprocess.band_pass(scanner.freq_count, scanner.period_ms, pre.b1_khz, pre.b2_khz)
    scores = preprocess.snr_scores(calib, mu, empties, band)
    selection = preprocess.select_frequencies(scores, pre.tau, band)
    measured = preprocess.calibration_system_matrix(
        calib, mu, conf.background.calibration_concentration)
    y = preprocess.subtract_background(meas[0], acquisition.background_mean(empties))
    weights = preprocess.whitening_weights(empties, selection) if whiten else None
    want = preprocess.assemble_reduced_system(measured, y, selection, weights)
    assert artifacts.read_artifact(run / "reduced_A.rrc")[1].tobytes() == want.A.tobytes()
    assert artifacts.read_artifact(run / "reduced_y.rrc")[1].tobytes() == want.y.tobytes()
    rows = artifacts.read_artifact(run / "reduced_rows.rrc")[1]
    assert rows.tobytes() == want.row_index.astype(np.float64).tobytes()
    report = read_json(run / "selection_report.json")
    assert report["scale"] == want.scale and report["whitened"] is whiten
    assert report["retained_per_coil"] == [int(s.size) for s in selection.selected]


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


SUMMARY_FIELDS = {"method", "alpha", "rows", "voxels", "iterations", "converged",
                  "objective_value", "projected_gradient_norm"}


@pytest.mark.parametrize("method", list(solvers.METHODS))
def test_method_table_row_sets_summary_and_sweep_columns(method, pipeline, tmp_path):
    kind, settings = solvers.METHODS[method]
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    cfg = write_config(cfg_dir, SWEEP_EXTRA)
    _, run = clone(pipeline, tmp_path)
    assert main(["reconstruct", "--config", str(cfg), "--method", method,
                 "--out", str(run)]) == 0
    summary = read_json(run / "reconstruction_summary.json")
    assert set(summary) == SUMMARY_FIELDS | set(settings)
    section = load_config(cfg).solver
    assert {key: summary[key] for key in settings} == {
        key: getattr(section, key) for key in settings}
    assert summary["method"] == method

    assert main(["sweep", "--config", str(cfg), "--method", method,
                 "--out", str(run)]) == 0
    if kind is None:  # Kaczmarz: one column per sweep snapshot
        col_name, columns = "sweeps", [str(n) for n in range(1, 7)]
    else:
        col_name, columns = "column", ["value"]
    for metric in ("psnr", "ssim"):
        head, _, table = parse_sweep_csv(run / f"sweep_{metric}.csv")
        assert head == ["alpha"] + columns and table.shape == (4, len(columns))
        col_lines = (run / f"sweep_{metric}_col_max.csv").read_text().splitlines()
        assert col_lines[0] == f"{col_name},max_{metric}"
        assert [line.split(",")[0] for line in col_lines[1:]] == columns
    sweep = read_json(run / "sweep_summary.json")
    assert sweep["method"] == method and sweep["columns"] == len(columns)
    best = sweep["best_psnr"]
    assert set(best) == {"alpha", col_name, "value"}
    assert str(best[col_name]) in columns


def test_unknown_method_exits_2(pipeline, tmp_path, capsys):
    cfg, _ = pipeline
    for name in ("l3-X", "L1-L"):
        bad = write_config(tmp_path, {"solver.method": name})
        assert main(["reconstruct", "--config", str(bad), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "solver.method" in err and all(m in err for m in solvers.METHODS)
        with pytest.raises(SystemExit) as info:
            main(["reconstruct", "--config", str(cfg), "--method", name,
                  "--out", str(tmp_path / "r")])
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


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


@pytest.mark.parametrize("name,bad,flags", [
    ("empty_scans.rrc", np.nan, ["--whiten"]),
    ("system_matrix.rrc", np.inf, []),
    ("measurement.rrc", complex(0.0, -np.inf), []),
])
def test_preprocess_non_finite_spectra_exit_4(pipeline, tmp_path, capsys, name, bad, flags):
    cfg, run = clone(pipeline, tmp_path)
    kind, spectra = artifacts.read_artifact(run / name)
    spectra[0, 1, 100] = bad  # in band
    replace_artifact(run, name, kind, spectra)
    before = (run / "reduced_A.rrc").read_bytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["preprocess", "--config", str(cfg), "--tau", "0", *flags,
                     "--out", str(run)])
    assert code == 4
    assert f"{name}: spectra hold non-finite values" in capsys.readouterr().err
    assert (run / "reduced_A.rrc").read_bytes() == before


@pytest.mark.parametrize("bad", [np.inf, complex(np.nan, 0.0)])
def test_preprocess_out_of_band_non_finite_calibration_exits_4(pipeline, tmp_path, capsys,
                                                               bad):
    # bin 10 lies below the 80 kHz band edge: preprocess never uses it, but
    # the reader checks every bin it reads past
    cfg, run = clone(pipeline, tmp_path)
    kind, spectra = artifacts.read_artifact(run / "system_matrix.rrc")
    spectra[3, 0, 10] = bad
    replace_artifact(run, "system_matrix.rrc", kind, spectra)
    before = (run / "reduced_A.rrc").read_bytes()
    assert main(["preprocess", "--config", str(cfg), "--tau", "0", "--out", str(run)]) == 4
    assert capsys.readouterr().err == (
        "error: preprocess: system_matrix.rrc: spectra hold non-finite values\n")
    assert (run / "reduced_A.rrc").read_bytes() == before


def test_preprocess_byte_flip_to_nan_exits_3(pipeline, tmp_path, capsys):
    # the digest is compared before the values are: a modified file, not bad data
    cfg, run = clone(pipeline, tmp_path)
    path = run / "system_matrix.rrc"
    raw = bytearray(path.read_bytes())
    payload = 13 + 8 * 3
    raw[payload + 6:payload + 8] = b"\xf8\xff"  # the first real part becomes NaN
    path.write_bytes(bytes(raw))
    assert np.isnan(artifacts.read_artifact(path)[1][0, 0, 0])
    before = (run / "reduced_A.rrc").read_bytes()
    assert main(["preprocess", "--config", str(cfg), "--tau", "0", "--out", str(run)]) == 3
    assert "system_matrix.rrc: sha256 mismatch" in capsys.readouterr().err
    assert (run / "reduced_A.rrc").read_bytes() == before


@pytest.mark.parametrize("edit", [lambda raw: raw[:-16], lambda raw: raw + b"\0" * 16])
def test_preprocess_calibration_of_wrong_length_exits_3(pipeline, tmp_path, capsys, edit):
    # a truncated payload or trailing bytes, re-hashed into the manifest
    cfg, run = clone(pipeline, tmp_path)
    path = run / "system_matrix.rrc"
    path.write_bytes(edit(path.read_bytes()))
    entries = artifacts.load_manifest(run)
    entries["system_matrix.rrc"] = artifacts.sha256_file(path)
    artifacts.write_manifest(run, entries)
    assert main(["preprocess", "--config", str(cfg), "--tau", "0", "--out", str(run)]) == 3
    assert "system_matrix.rrc: payload is" in capsys.readouterr().err


@pytest.mark.parametrize("command, grid, edit, named", [
    ("preprocess", "5,5,1", None, "system_matrix.rrc"),  # 25 voxels, still 3 empty scans
    ("preprocess", None, ("empty_scans.rrc", lambda s: s[1:]), "empty_scans.rrc"),
    ("preprocess", None, ("measurement.rrc", lambda s: np.concatenate([s, s])),
     "measurement.rrc"),
    ("reconstruct", "5,5,1", None, "reduced_A.rrc"),
    ("sweep", "5,5,1", None, "reduced_A.rrc"),
    ("evaluate", "5,5,1", None, "reconstruction.rrc"),
    # A's rows are checked against y's length
    ("reconstruct", None, ("reduced_y.rrc", lambda y: y[:-1]), "reduced_A.rrc"),
])
def test_input_of_another_shape_exits_3(pipeline, tmp_path, capsys, command, grid, edit,
                                        named):
    # re-hashed into the manifest, or read under another grid: the shape
    # check fails before the payload is read, and the stage writes nothing
    _, run = clone(pipeline, tmp_path)
    cfg = write_config(tmp_path, grid and {"grid.shape": grid})
    if edit:
        name, change = edit
        kind, array = artifacts.read_artifact(run / name)
        replace_artifact(run, name, kind, change(array))
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    assert main([command, "--config", str(cfg), "--out", str(run)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}: shape (") and "does not match the config's" in err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_preprocess_empty_band_exits_2(pipeline, tmp_path, capsys):
    # 0.01 to 0.02 kHz holds no bin of a 1.024 ms period
    _, run = clone(pipeline, tmp_path)
    cfg = write_config(tmp_path, {"preprocess.b1_khz": "0.01", "preprocess.b2_khz": "0.02"})
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    assert main(["preprocess", "--config", str(cfg), "--out", str(run)]) == 2
    assert capsys.readouterr().err == (
        "error: no components reach tau=3, nothing to reconstruct from\n")
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


@pytest.mark.parametrize("key, value, flags, message", [
    ("background.mean_peak", "1e308", [], "non-finite Rayleigh quotient"),
    ("background.mean_peak", "1e308", ["--whiten"], "no usable operator norm"),
    ("background.calibration_concentration", "1e-308", [], "non-finite Rayleigh quotient"),
    ("background.calibration_concentration", "1e-308", ["--whiten"],
     "non-finite Rayleigh quotient"),
])
def test_preprocess_overflow_exits_4_without_warning(key, value, flags, message,
                                                     tmp_path, capsys):
    # finite spectra whose reduced system overflows; the suite turns a
    # RuntimeWarning into an error, so only the NumericalError may surface
    cfg = write_config(tmp_path, {key: value})
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(run)]) == 0
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    assert main(["preprocess", "--config", str(cfg), "--out", str(run), *flags]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: preprocess: ") and message in err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


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


def test_arithmetic_error_in_a_stage_exits_4(pipeline, tmp_path, capsys, monkeypatch):
    # an ArithmeticError that escapes a stage step names the command and the
    # error type; nothing is written
    cfg, run = clone(pipeline, tmp_path)

    def overflow(*args, **kwargs):
        raise OverflowError("(34, 'Numerical result out of range')")

    monkeypatch.setattr(metrics, "quality_report", overflow)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    assert main(["evaluate", "--config", str(cfg), "--out", str(run)]) == 4
    assert capsys.readouterr().err == (
        "error: evaluate: OverflowError: (34, 'Numerical result out of range')\n")
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


@pytest.mark.parametrize("key, value, named, message", [
    ("metrics.shift_extent_mm", "1e308,0,0", "metrics", "must be finite"),
    ("metrics.shift_step_mm", "1e-309", "metrics", "must be finite"),  # 1.5 mm / 1e-309 = inf
    # 1.5 mm / 1e-308 is finite: about 1e617 shifts; 1e-4 gives 30001^2 of them
    ("metrics.shift_step_mm", "1e-308", "metrics", "times 36 voxels exceed the limit"),
    ("metrics.shift_step_mm", "1e-4", "metrics", "times 36 voxels exceed the limit"),
    ("scanner.period_ms", "1e308", "scanner", "must be finite"),
    ("phantom.subsamples", "2000", "phantom.subsamples", "16777216 sample points"),
    # finite values whose derived quantities overflow in the stage that uses them
    ("scanner.particle_diameter_nm", "1e308", "scanner", "non-finite Langevin beta"),
    ("background.base_std", "1e308", "background.base_std", "noise variance, must be finite"),
    ("scanner.temperature_k", "1e-308", "scanner", "non-finite Langevin beta"),
    # |B|^2 would overflow to inf and zero the magnetization without a message
    ("scanner.drive_amplitudes_mt", "1e308,1e308", "scanner",
     "drive amplitudes give a non-finite squared field norm"),
    ("metrics.dynamic_range", "1e308", "metrics.dynamic_range", "non-finite SSIM constant"),
    ("sweep.alpha_max_exp", "2000", "sweep.alpha_max_exp", "non-finite weight 2^alpha_max_exp"),
    ("sweep.alpha_min_exp", "-1075", "sweep.alpha_min_exp", "zero weight 2^alpha_min_exp"),
    ("sweep.alpha_min_exp", "1100", "sweep.alpha_min_exp", "non-finite weight 2^alpha_min_exp"),
    # the smoothed l1 term squares it: 1e-300 underflows to 0, 1e308 overflows
    ("solver.epsilon", "1e-300", "solver.epsilon", "with a finite nonzero square"),
    ("solver.epsilon", "1e308", "solver.epsilon", "with a finite nonzero square"),
    # PSNR divides its square by the MSE: 1e308 overflows, 1e-300 and 5e-324 underflow
    ("metrics.psnr_peak", "1e308", "metrics.psnr_peak", "with a finite nonzero square"),
    ("metrics.psnr_peak", "1e-300", "metrics.psnr_peak", "with a finite nonzero square"),
    ("metrics.psnr_peak", "5e-324", "metrics.psnr_peak", "with a finite nonzero square"),
])
def test_config_value_bound_exits_2_at_load(key, value, named, message, tmp_path, capsys):
    # values whose derived quantities overflow or whose rasterization would
    # not fit in memory are config errors, found before a stage starts
    cfg = write_config(tmp_path, {key: value})
    run = tmp_path / "run"
    run.mkdir()
    assert main(["simulate", "--config", str(cfg), "--out", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}: ") and message in err
    assert list(run.iterdir()) == []


@pytest.mark.parametrize("key, artifact", [
    ("phantom.concentration", "measurement.rrc"),
    ("scanner.receiver_gain", "system_matrix.rrc"),
    ("background.calibration_concentration", "system_matrix.rrc"),
])
def test_simulate_overflow_writes_nothing_exits_4(key, artifact, tmp_path, capsys):
    # finite values whose spectra overflow: no warning, no artifact
    cfg = write_config(tmp_path, {key: "1e308"})
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(run)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: simulate: {artifact}: spectra hold non-finite values")
    assert list(run.iterdir()) == []


@pytest.mark.parametrize("flag, value, message", [
    ("--alpha", "0", "solver.alpha: must be positive"),
    ("--sweeps", "0", "sweeps must be positive"),
    ("--jobs", "0", "sweep.jobs: must be at least 1"),
    ("--seed", "-1", "background.noise_seed: must be nonnegative"),
    ("--tau", "-0.5", "preprocess.tau: must be nonnegative"),
])
def test_flags_reach_their_config_keys(flag, value, message, pipeline, tmp_path, capsys):
    # 0 is a value, not an unset flag
    cfg, _ = pipeline
    assert main(["reconstruct", "--config", str(cfg), flag, value,
                 "--out", str(tmp_path / "run")]) == 2
    assert message in capsys.readouterr().err


def test_one_dimensional_scanner_runs_every_stage(tmp_path):
    # one-entry drive tuples make a one-axis scanner; the section is checked whole
    cfg = write_config(tmp_path, {
        "scanner.drive_frequencies_khz": "15.625",
        "scanner.drive_amplitudes_mt": "12", "scanner.gradient_t_per_m": "1",
        "grid.shape": "20,1,1", "solver.method": "l2-K"})
    run = tmp_path / "run"
    for stage in ("simulate", "preprocess", "reconstruct", "evaluate"):
        assert main([stage, "--config", str(cfg), "--out", str(run)]) == 0, stage
    _, phantom = artifacts.read_artifact(run / "phantom.rrc")
    assert phantom.shape == (20, 1, 1)
    assert read_json(run / "selection_report.json")["retained_per_coil"][0] > 0


@pytest.mark.parametrize("shape, spacing, message", [
    # centers at 15 mm on the one driven axis, whose drive reaches 12 mm
    ("31,1,1", "1,1,1", "grid has voxel centers at 15.000 mm on axis 0 but the "
                        "field-free point only reaches 12.000 mm"),
    ("20,2,1", "1,1,1", "grid must be a single voxel layer on undriven axes"),
], ids=["beyond-the-field-free-point", "thick-undriven-axis"])
def test_simulate_rejects_a_grid_the_scanner_cannot_image(shape, spacing, message,
                                                          tmp_path, capsys):
    # simulate never builds the system matrix, so its scanner checks run on their own
    cfg = write_config(tmp_path, {
        "scanner.drive_frequencies_khz": "15.625",
        "scanner.drive_amplitudes_mt": "12", "scanner.gradient_t_per_m": "1",
        "grid.shape": shape, "grid.spacing_mm": spacing})
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(run)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(run.iterdir()) == []


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


@pytest.mark.parametrize("value", ["1e-300", "1e308"])
def test_epsilon_square_bound_exits_2_in_every_stage(value, pipeline, tmp_path, capsys):
    _, run = clone(pipeline, tmp_path)
    cfg = write_config(tmp_path, {"solver.epsilon": value})
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    for command in cli._COMMANDS:
        assert main([command, "--config", str(cfg), "--out", str(run)]) == 2, command
        assert capsys.readouterr().err.startswith("error: solver.epsilon: "), command
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_stage_stdout_is_the_record_it_wrote(tmp_path, capsys):
    # one "key: value" line per top-level key of the summary the stage wrote;
    # simulate writes no summary and prints its scan counts
    cfg = write_config(tmp_path, SWEEP_EXTRA)
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(run)]) == 0
    assert "voxels: 36" in capsys.readouterr().out.splitlines()
    records = {"preprocess": "selection_report.json",
               "reconstruct": "reconstruction_summary.json",
               "evaluate": "quality_summary.json", "sweep": "sweep_summary.json"}
    for command, name in records.items():
        assert main([command, "--config", str(cfg), "--method", "l2-K",
                     "--out", str(run)]) == 0, command
        lines = capsys.readouterr().out.splitlines()
        record = read_json(run / name)
        assert sorted(line.split(": ", 1)[0] for line in lines) == sorted(record), command
        assert sorted(lines) == sorted(f"{key}: {value}" for key, value in record.items())


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
    # 4 weights x 6 snapshots x 25 shifts; each snapshot's PSNR-best cell
    # is always scored
    assert summary["ssim_cells"] == 4 * 6 * 25
    assert 4 * 6 <= summary["ssim_cells_scored"] <= summary["ssim_cells"]
    manifest = artifacts.load_manifest(run)
    for name in ("sweep_psnr.csv", "sweep_psnr_row_max.csv",
                 "sweep_psnr_col_max.csv", "sweep_ssim.csv",
                 "sweep_ssim_row_max.csv", "sweep_ssim_col_max.csv",
                 "sweep_summary.json"):
        assert manifest[name] == artifacts.sha256_file(run / name)

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


@pytest.mark.parametrize("kind, method", [("resolution-tubes", "l2-K"),
                                          ("shape-cone", "l2-L")])
def test_sweep_bytes_equal_full_ssim_table_oracle(kind, method, tmp_path, monkeypatch):
    # the pruned SSIM maxima, serial and in two workers, against the sweep
    # scored through the full table; at this grid and these weights the
    # bound rules out some cells
    cfg = write_config(tmp_path, dict(SWEEP_EXTRA, **{
        "phantom.kind": kind, "grid.shape": "10,10,1",
        "sweep.alpha_max_exp": "-4", "sweep.alpha_min_exp": "-7"}))
    base = tmp_path / "base"
    for command in ("simulate", "preprocess"):
        assert main([command, "--config", str(cfg), "--out", str(base)]) == 0
    runs = {}
    for name, jobs in (("oracle", "1"), ("serial", "1"), ("pooled", "2")):
        runs[name] = tmp_path / name
        shutil.copytree(base, runs[name])
        with monkeypatch.context() as patch:
            if name == "oracle":
                patch.setattr(metrics, "ssim_max", lambda images, stack, dynamic_range, _: (
                    metrics.ssim_table(images, stack, dynamic_range).max(axis=1),
                    len(images) * len(stack)))
            assert main(["sweep", "--config", str(cfg), "--method", method,
                         "--jobs", jobs, "--out", str(runs[name])]) == 0
    summaries = {name: read_json(run / "sweep_summary.json") for name, run in runs.items()}
    for name in ("serial", "pooled"):
        for path in sorted(runs["oracle"].glob("sweep_*.csv")):
            assert (runs[name] / path.name).read_bytes() == path.read_bytes(), (name, path)
        for key in ("best_psnr", "best_ssim", "ssim_cells"):
            assert summaries[name][key] == summaries["oracle"][key], (name, key)
    assert len(list(runs["oracle"].glob("sweep_*.csv"))) == 6
    assert summaries["serial"] == summaries["pooled"]
    assert summaries["serial"]["ssim_cells_scored"] < summaries["serial"]["ssim_cells"]


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records how it was built and runs
    the tasks in this process, so no worker is ever started."""

    def __init__(self, calls, max_workers, initializer, initargs):
        calls.append({"max_workers": max_workers, "initargs": initargs})
        self.calls = calls
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        items = list(items)
        self.calls[-1]["tasks"] = (fn, items)
        return map(fn, items)


@pytest.mark.parametrize("jobs, max_exp, cpus, workers", [
    ("16", "0", 64, 4),    # four weights: four workers, not sixteen
    ("3", "-2", 64, 2),    # two weights
    ("4", "-3", 64, None),  # one weight: serial, no pool
    ("16", "0", 2, 2),     # four weights on two CPUs: two workers
])
def test_sweep_starts_at_most_one_worker_per_weight(pipeline, tmp_path, monkeypatch,
                                                    jobs, max_exp, cpus, workers):
    calls = []
    # cmd_sweep imports the pool class when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda **kw: RecordingPool(calls, **kw))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    cfg = write_config(cfg_dir, dict(SWEEP_EXTRA, **{"sweep.alpha_max_exp": max_exp}))
    _, pooled = clone(pipeline, tmp_path / "pooled")
    _, serial = clone(pipeline, tmp_path / "serial")
    assert main(["sweep", "--config", str(cfg), "--method", "l2-K",
                 "--jobs", jobs, "--out", str(pooled)]) == 0
    if workers is None:
        assert calls == []
    else:
        assert [c["max_workers"] for c in calls] == [workers]
        # the data goes in once, through the initializer; tasks carry weights only
        reduced, stack, run_cfg = calls[0]["initargs"]
        assert isinstance(reduced, preprocess.ReducedSystem) and stack.ndim == 4
        fn, items = calls[0]["tasks"]
        assert fn is cli._sweep_worker_task
        assert items == [2.0 ** e for e in range(int(max_exp), -4, -1)]
    assert main(["sweep", "--config", str(cfg), "--method", "l2-K",
                 "--out", str(serial)]) == 0
    for name in ("sweep_psnr.csv", "sweep_ssim.csv", "sweep_summary.json"):
        assert (serial / name).read_bytes() == (pooled / name).read_bytes()


@pytest.mark.parametrize("damage, message", [
    ("flip", "sha256 mismatch"),
    ("unrecorded", "not recorded in manifest"),
])
def test_damaged_reduced_system_exits_3(pipeline, tmp_path, capsys, damage, message):
    cfg, run = clone(pipeline, tmp_path)
    target = run / "reduced_A.rrc"
    if damage == "flip":
        blob = bytearray(target.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        target.write_bytes(bytes(blob))
    else:
        entries = artifacts.load_manifest(run)
        del entries["reduced_A.rrc"]
        artifacts.write_manifest(run, entries)
    before = (run / "reconstruction.rrc").read_bytes()
    for command in ("reconstruct", "sweep"):
        assert main([command, "--config", str(cfg), "--out", str(run)]) == 3
        err = capsys.readouterr().err
        assert "reduced_A.rrc" in err and message in err
    assert (run / "reconstruction.rrc").read_bytes() == before


def test_manifest_that_is_not_an_object_exits_3(pipeline, tmp_path, capsys):
    cfg, run = clone(pipeline, tmp_path)
    (run / "manifest.json").write_text("[]")
    assert main(["preprocess", "--config", str(cfg), "--out", str(run)]) == 3
    assert "malformed manifest" in capsys.readouterr().err


def test_config_rejects_brackets_of_one_scan(tmp_path, capsys):
    cfg = write_config(tmp_path, {"background.scans_per_bracket": "1"})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert ("error: background.scans_per_bracket: must be in [2, max(19, voxels)]"
            in capsys.readouterr().err)


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


# simulate -> evaluate in one fresh interpreter; prints the scipy modules loaded
PIPELINE_RUN = """
import sys
from robust_recon import cli
cfg, run = sys.argv[1], sys.argv[2]
for stage in ("simulate", "preprocess", "reconstruct", "evaluate"):
    assert cli.main([stage, "--config", cfg, "--out", run]) == 0, stage
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_pipeline_runs_without_scipy(tmp_path):
    # a fresh interpreter: the suite itself imports scipy for its oracles
    cfg = write_config(tmp_path)
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", PIPELINE_RUN, str(cfg), str(tmp_path / "run")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "run" / "quality_summary.json").is_file()


def test_reruns_give_the_same_bytes_at_any_blas_thread_count(tmp_path):
    # the default config: unpinned, two OpenBLAS threads change every byte
    # from reduced_A.rrc on, and l1-L takes another path
    cfg = tmp_path / "default.cfg"
    cfg.write_text("")
    src = Path(cli.__file__).resolve().parents[1]
    manifests = []
    for threads in ("1", "2"):
        run = tmp_path / f"run-{threads}"
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", PIPELINE_RUN, str(cfg), str(run)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        manifests.append((run / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]


POOL_FREE_RUN = """
import sys
from robust_recon import cli
assert cli.main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print(sorted(m for m in sys.modules if m.startswith(("concurrent", "multiprocessing"))))
"""


def test_only_a_pooled_sweep_imports_the_process_pool(tmp_path):
    # the pool's modules cost about 1 MB of resident memory in every stage
    # that loaded them without starting a worker
    cfg = write_config(tmp_path)
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", POOL_FREE_RUN, str(cfg), str(tmp_path / "run")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_closed_stdout_exits_0_quietly(pipeline, tmp_path):
    # `robust-recon evaluate ... | head -1` with the reader already gone: the
    # pipe's read end is closed before the stage starts, so its first print
    # finds no reader
    cfg, run = clone(pipeline, tmp_path)
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "robust_recon", "evaluate", "--config",
                               str(cfg), "--out", str(run)],
                              env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=300)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, b"")
    assert (run / "quality_summary.json").is_file()



# Every numeric key and numeric tuple, read from the section dataclasses, so
# a new key is fuzzed without editing this list; a tuple gets the value in
# every entry. Booleans and strings are not fuzzed.
FUZZ_VALUES = {float: ("0", "-1", "1e308", "1e-308"), int: ("0", "-1", "2", "1000000")}
# an 8x8 grid at 256 samples, with a short solve and a two-weight sweep
FUZZ_BASE = {"scanner.samples_per_period": "256", "grid.shape": "8,8,1",
             "solver.max_iterations": "20", "metrics.shift_extent_mm": "0.5,0.5,0",
             "sweep.alpha_min_exp": "-1", "sweep.max_sweeps": "2"}


def _fuzz_keys():
    cfg = PipelineConfig()
    for section in fields(cfg):
        values = getattr(cfg, section.name)
        for f in fields(values):
            default = getattr(values, f.name)
            entries = default if isinstance(default, tuple) else (default,)
            if type(entries[0]) in FUZZ_VALUES:
                yield f"{section.name}.{f.name}", type(entries[0]), len(entries)


def assert_outputs_finite(run, context):
    """Every *.json in run parses without NaN or Infinity and every numeric
    *.csv cell is finite."""
    for path in sorted(run.glob("*.json")):
        json.loads(path.read_text(),
                   parse_constant=lambda name: pytest.fail(f"{context} {path.name}: {name}"))
    for path in sorted(run.glob("*.csv")):
        for cell in (cell for row in csv.reader(path.read_text().splitlines()) for cell in row):
            try:
                value = float(cell)
            except ValueError:
                continue  # a label
            assert math.isfinite(value), (*context, path.name, cell)


@pytest.mark.parametrize("key, elem, length", list(_fuzz_keys()))
def test_config_fuzz_exits_0_2_or_4(key, elem, length, tmp_path, capsys):
    # simulate -> sweep up to the first nonzero exit: an extreme value is a
    # config error (2) or a numerical failure (4), never a traceback or a
    # warning, and what each stage that exits 0 writes is finite
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for value in FUZZ_VALUES[elem]:
            cfg = write_config(tmp_path, {**FUZZ_BASE, key: ",".join([value] * length)})
            for command in cli._COMMANDS:
                code = main([command, "--config", str(cfg), "--out", str(tmp_path / value)])
                err = capsys.readouterr().err
                assert code in (0, 2, 4), (value, command, err)
                # a numerical failure names its artifact or step; a bare
                # ArithmeticError is a value that load let through
                assert not re.match(r"error: \w+: \w+Error: ", err), (value, command, err)
                if code:
                    break
                assert_outputs_finite(tmp_path / value, (value, command))
    assert not caught, [str(w.message) for w in caught]
