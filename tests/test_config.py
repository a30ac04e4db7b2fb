import math
from dataclasses import fields

import pytest

from robust_recon.config import (
    ConfigError,
    PipelineConfig,
    ScannerSection,
    SolverSection,
    apply_overrides,
    load_config,
    parse_config,
    validate_config,
)
from robust_recon.metrics import ShiftGrid
from robust_recon.model import ScannerConfig, VoxelGrid
from robust_recon.solvers import SolverConfig


def test_empty_text_gives_documented_defaults():
    cfg = parse_config("")
    assert cfg.scanner.dims == 2
    assert cfg.scanner.drive_frequencies_khz == (15.625, 16.6015625)
    assert cfg.scanner.period_ms == 1.024
    assert cfg.scanner.samples_per_period == 2048
    assert cfg.grid.shape == (20, 20, 1)
    assert cfg.preprocess.b1_khz == 80.0
    assert cfg.preprocess.b2_khz == 625.0
    assert cfg.preprocess.tau == 3.0
    assert cfg.preprocess.whiten is False
    assert cfg.solver.method == "l1-L"
    assert cfg.solver.epsilon == 1e-12
    assert cfg.solver.memory == 20
    assert cfg.solver.pgtol == 1e-10
    assert cfg.solver.max_iterations == 10000
    assert cfg.metrics.dynamic_range == 100.0
    assert cfg.metrics.psnr_peak == 100.0
    assert cfg.metrics.shift_extent_mm == (3.0, 3.0, 0.0)
    assert cfg.metrics.shift_step_mm == 0.5
    assert cfg.sweep.alpha_max_exp == 0
    assert cfg.sweep.alpha_min_exp == -20
    assert cfg.sweep.max_sweeps == 200


def test_parse_comments_whitespace_and_types():
    cfg = parse_config(
        """
        # full-line comment
        preprocess.tau = 1.5   # trailing comment
        preprocess.whiten = true
        grid.shape = 8, 8, 1
        solver.method = l2-K
        background.noise_seed = 42
        """
    )
    assert cfg.preprocess.tau == 1.5
    assert cfg.preprocess.whiten is True
    assert cfg.grid.shape == (8, 8, 1)
    assert cfg.solver.method == "l2-K"
    assert cfg.background.noise_seed == 42


def test_parse_rejects_malformed_lines():
    with pytest.raises(ConfigError):
        parse_config("just some words")
    with pytest.raises(ConfigError):
        parse_config("preprocess.tau = 1\npreprocess.tau = 2")
    with pytest.raises(ConfigError):
        parse_config("nosuchsection.key = 1")
    with pytest.raises(ConfigError):
        parse_config("preprocess.nosuchkey = 1")
    with pytest.raises(ConfigError):
        parse_config("preprocess.tau = banana")
    with pytest.raises(ConfigError):
        parse_config("preprocess.whiten = maybe")


def test_load_config_with_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("preprocess.tau = 1\n")
    cfg = load_config(path, overrides={"preprocess.tau": "5", "solver.alpha": "0.25"})
    assert cfg.preprocess.tau == 5.0
    assert cfg.solver.alpha == 0.25


def test_overrides_are_validated():
    cfg = parse_config("")
    with pytest.raises(ConfigError):
        apply_overrides(cfg, {"solver.method": "l3-X"})


def test_validation_messages_name_the_precondition():
    cfg = parse_config("")
    cfg.preprocess.empty_scans = 1
    with pytest.raises(ConfigError, match="at least 2 empty scans"):
        validate_config(cfg)


@pytest.mark.parametrize(
    "dotted,value",
    [
        ("scanner.dims", "3"),
        ("scanner.samples_per_period", "100"),
        ("grid.shape", "0, 4, 1"),
        ("grid.spacing_mm", "1, -1, 1"),
        ("phantom.kind", "blob"),
        ("phantom.concentration", "0"),
        ("background.base_std", "-1"),
        ("background.outlier_fraction", "1.5"),
        ("background.outlier_scale", "0.5"),
        ("background.calibration_repetitions", "0"),
        ("preprocess.tau", "-1"),
        ("preprocess.b1_khz", "700"),
        ("solver.alpha", "-1"),
        ("solver.epsilon", "0"),
        ("solver.memory", "0"),
        ("solver.pgtol", "0"),
        ("solver.sweeps", "0"),
        ("solver.row_order", "randomish"),
        ("solver.projection", "both"),
        ("metrics.dynamic_range", "0"),
        ("metrics.shift_step_mm", "0"),
        ("metrics.shift_extent_mm", "1, 1, 0.3"),
        ("metrics.subsamples", "0"),
        ("sweep.max_sweeps", "0"),
        ("sweep.jobs", "0"),
        ("sweep.alpha_max_exp", "-30"),
    ],
)
def test_validation_rejects_bad_values(dotted, value):
    cfg = parse_config("")
    with pytest.raises(ConfigError):
        apply_overrides(cfg, {dotted: value})


@pytest.mark.parametrize(
    "line,section",
    [
        ("scanner.drive_frequencies_khz = 15.7, 16.6015625", "scanner"),
        ("scanner.drive_amplitudes_mt = -12, 12", "scanner"),
        ("scanner.gradient_t_per_m = 1, 0", "scanner"),
        ("scanner.period_ms = inf", "scanner"),
        ("grid.spacing_mm = 1, inf, 1", "grid"),
        ("metrics.shift_extent_mm = inf, 0, 0", "metrics"),
    ],
)
def test_constructor_preconditions_fail_at_load(line, section):
    with pytest.raises(ConfigError, match=f"^{section}: "):
        parse_config(line)


def test_builders_return_the_configured_objects():
    cfg = parse_config("grid.shape = 8, 6, 1\nsolver.row_order = shuffled\n"
                       "metrics.shift_step_mm = 0.25")
    assert cfg.scanner_config() == ScannerConfig()
    assert cfg.voxel_grid() == VoxelGrid((8, 6, 1), (1.0, 1.0, 1.0))
    assert cfg.shift_grid() == ShiftGrid((3.0, 3.0, 0.0), 0.25)
    scfg = cfg.solver_config(sweeps=7, record_snapshots=True)
    assert scfg == SolverConfig(sweeps=7, row_order="shuffled", record_snapshots=True)


def test_section_defaults_match_the_objects_they_configure():
    scanner, section = ScannerConfig(), ScannerSection()
    assert [f.name for f in fields(ScannerSection)] == [f.name for f in fields(ScannerConfig)]
    for f in fields(ScannerConfig):
        assert getattr(section, f.name) == getattr(scanner, f.name), f.name
    solver, section = SolverConfig(), SolverSection()
    shared = [f.name for f in fields(SolverConfig) if hasattr(section, f.name)]
    assert len(shared) == 7
    for name in shared:
        assert getattr(section, name) == getattr(solver, name), name


def test_custom_phantom_kind_rejected_in_files():
    with pytest.raises(ConfigError, match="custom"):
        parse_config("phantom.kind = custom")


def test_default_schedule_is_every_19_scans():
    cfg = PipelineConfig()
    assert cfg.scans_per_bracket(400) == 19
    assert cfg.empty_scan_count(400) == math.ceil(400 / 19) + 1


def test_explicit_empty_scan_count_spreads_brackets():
    cfg = parse_config("preprocess.empty_scans = 5")
    m = 100
    q = cfg.scans_per_bracket(m)
    assert q == math.ceil(m / 4)
    assert cfg.empty_scan_count(m) == 5
    # the schedule must cover every calibration scan with q per bracket
    assert (cfg.empty_scan_count(m) - 1) * q >= m
