import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from robust_recon.acquisition import acquisition_schedule
from robust_recon.config import (
    ConfigError,
    PipelineConfig,
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
    cfg.background.scans_per_bracket = 1
    with pytest.raises(ConfigError, match=r"^background\.scans_per_bracket: must be in \[2, "):
        validate_config(cfg)


@pytest.mark.parametrize(
    "dotted,value",
    [
        ("scanner.dims", "3"),  # the tuples' length: an unknown key
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
        ("metrics.subsamples", "0"),  # phantom.subsamples: an unknown key
        ("background.scans_per_bracket", "1"),
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
        ("solver.sweeps = 0", "solver"),
        ("solver.seed = -1", "solver"),
    ],
)
def test_constructor_preconditions_fail_at_load(line, section):
    with pytest.raises(ConfigError, match=f"^{section}: "):
        parse_config(line)


def test_builders_return_the_configured_objects():
    cfg = parse_config("grid.shape = 8, 6, 1\nsolver.row_order = shuffled\n"
                       "metrics.shift_step_mm = 0.25")
    assert cfg.scanner == ScannerConfig()
    assert cfg.grid == VoxelGrid((8, 6, 1), (1.0, 1.0, 1.0))
    assert cfg.shift_grid() == ShiftGrid((3.0, 3.0, 0.0), 0.25)
    scfg = cfg.solver_config(sweeps=7, record_snapshots=True)
    assert scfg == SolverConfig(sweeps=7, row_order="shuffled", record_snapshots=True)


def test_section_defaults_match_the_objects_they_configure():
    # the scanner and grid sections are the ScannerConfig and VoxelGrid
    # themselves; the solver section takes the defaults of the fields it
    # shares with SolverConfig from SolverConfig
    solver, section = SolverConfig(), SolverSection()
    shared = [f.name for f in fields(SolverConfig) if hasattr(section, f.name)]
    assert len(shared) == 7
    for name in shared:
        assert getattr(section, name) == getattr(solver, name), name


def test_grid_section_is_the_voxel_grid():
    assert PipelineConfig().grid == VoxelGrid() == VoxelGrid((20, 20, 1), (1.0, 1.0, 1.0))
    # the origin follows from shape and spacing, so it is not a key
    with pytest.raises(ConfigError, match=r"^grid\.origin_mm: unknown key$"):
        parse_config("grid.origin_mm = 1,2,3")


def test_custom_phantom_kind_rejected_in_files():
    with pytest.raises(ConfigError, match="custom"):
        parse_config("phantom.kind = custom")


def test_default_schedule_is_every_19_scans():
    q = PipelineConfig().background.scans_per_bracket
    assert q == 19
    _, empty = acquisition_schedule(400, q)
    assert empty.size == math.ceil(400 / 19) + 1


@pytest.mark.parametrize("q", [2, 5, 22, 300, 400])
def test_scans_per_bracket_sets_the_bracket_exactly(q):
    cfg = parse_config(f"background.scans_per_bracket = {q}")
    calib, empty = acquisition_schedule(400, cfg.background.scans_per_bracket)
    # every bracket but the last holds exactly q calibration scans
    counts = [np.count_nonzero((calib > lo) & (calib < hi)) for lo, hi in zip(empty, empty[1:])]
    assert counts[:-1] == [q] * (len(counts) - 1) and 1 <= counts[-1] <= q
    assert sum(counts) == 400 and empty.size == math.ceil(400 / q) + 1


def test_scans_per_bracket_bounds():
    # at most one bracket of the whole grid, and the default stays legal on
    # grids of fewer than 19 voxels
    parse_config("grid.shape = 5,5,1\nbackground.scans_per_bracket = 25")
    parse_config("grid.shape = 2,2,1")
    parse_config("grid.shape = 2,2,1\nbackground.scans_per_bracket = 19")
    for text in ("grid.shape = 5,5,1\nbackground.scans_per_bracket = 26",
                 "grid.shape = 2,2,1\nbackground.scans_per_bracket = 20",
                 "background.scans_per_bracket = 401",
                 "background.scans_per_bracket = 1",
                 "background.scans_per_bracket = -5"):
        with pytest.raises(ConfigError, match=r"^background\.scans_per_bracket: .* voxels\)$"):
            parse_config(text)


def test_derived_keys_are_unknown():
    # two follow from other keys; the third did not set the count it named
    for dotted in ("scanner.dims", "metrics.subsamples", "preprocess.empty_scans"):
        with pytest.raises(ConfigError, match=f"^{re.escape(dotted)}: unknown key$"):
            parse_config(f"{dotted} = 2")
    assert not hasattr(PipelineConfig(), "scans_per_bracket")
    assert len([f for section in fields(PipelineConfig)
                for f in fields(getattr(PipelineConfig(), section.name))]) == 47


ONE_D = {"scanner.drive_frequencies_khz": "15.625",
         "scanner.drive_amplitudes_mt": "12", "scanner.gradient_t_per_m": "1",
         "grid.shape": "20,1,1"}


@pytest.mark.parametrize("order", [list(ONE_D), list(reversed(ONE_D))])
def test_scanner_keys_are_checked_together(order):
    # one-entry tuples are valid only together, in either order
    cfg = parse_config("".join(f"{key} = {ONE_D[key]}\n" for key in order))
    assert cfg.scanner == ScannerConfig(drive_frequencies_khz=(15.625,),
                                        drive_amplitudes_mt=(12.0,),
                                        gradient_t_per_m=(1.0,))
    cfg = parse_config("")
    apply_overrides(cfg, {key: ONE_D[key] for key in order})
    assert cfg.scanner.dims == 1
    with pytest.raises(ConfigError, match="^scanner: .* need one entry per driven axis"):
        parse_config("scanner.drive_frequencies_khz = 15.625")


FLOAT_KEYS = [f"{section.name}.{f.name}"
              for section in fields(PipelineConfig)
              for f in fields(getattr(PipelineConfig(), section.name))
              if isinstance(f.default, float)
              or (isinstance(f.default, tuple) and isinstance(f.default[0], float))]


@pytest.mark.parametrize("dotted,value", [
    (dotted, value) for dotted in FLOAT_KEYS for value in ("nan", "inf", "-inf")
    if (dotted, value) != ("preprocess.b2_khz", "inf")])  # an open band, legal
def test_non_finite_values_rejected_at_load(dotted, value):
    section, key = dotted.split(".")
    default = getattr(getattr(PipelineConfig(), section), key)
    if isinstance(default, tuple):  # one non-finite element
        value = ",".join([value] + [str(v) for v in default[1:]])
    with pytest.raises(ConfigError) as info:
        parse_config(f"{dotted} = {value}")
    # the object a section builds may reject the value first, naming the field
    message = str(info.value)
    words = key.rsplit("_", 1)[0].replace("_", " ")  # no unit: "shift step"
    assert message == f"{dotted}: must be finite" or (
        message.startswith(f"{section}: ") and words in message.replace("_", " ")), message


def test_open_band_loads():
    assert len(FLOAT_KEYS) == 26
    assert parse_config("preprocess.b2_khz = inf").preprocess.b2_khz == math.inf


def test_readme_config_table_lists_every_key():
    # the README table is the one other copy of the config keys
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| (\w+) \| (.+) \|$", readme, flags=re.M)
    cfg = PipelineConfig()
    tables = {}
    for section, cell in rows:
        if section == "section":
            continue
        while "(" in cell:  # drop the defaults, innermost parentheses first
            cell = re.sub(r"\([^()]*\)", "", cell)
        tables[section] = [key.strip() for key in cell.split(",")]
    assert list(tables) == [f.name for f in fields(cfg)]
    for section, keys in tables.items():
        assert keys == [f.name for f in fields(getattr(cfg, section))], section
