"""Pipeline configuration.

Plain-text config files, one `section.key = value` per line, `#` comments.
Every key has a default, so an empty file is a valid config. Unknown keys
are rejected rather than ignored; a typo should fail loudly, not silently
run with defaults.

A setting is validated by the object it configures: the scanner, grid,
metrics and solver sections build model.ScannerConfig, model.VoxelGrid,
metrics.ShiftGrid and solvers.SolverConfig, whose ValueError becomes
ConfigError("<section>: <message>"), e.g. "scanner: drive amplitudes must
be nonnegative". validate_config checks the rest (solver method, alpha,
epsilon, sweeps and seed; the phantom, background, preprocess, metrics
scoring and sweep keys) as ConfigError("<section>.<key>: <precondition>").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .metrics import ShiftGrid
from .model import ScannerConfig, VoxelGrid
from .solvers import SolverConfig

__all__ = ["PipelineConfig", "load_config", "parse_config", "apply_overrides"]

METHODS = ("l1-L", "l2-L", "l2-K")
PHANTOM_KINDS = ("delta", "shape-cone", "resolution-tubes", "custom")


@dataclass
class ScannerSection:
    dims: int = 2
    drive_frequencies_khz: tuple = (15.625, 16.6015625)
    drive_amplitudes_mt: tuple = (12.0, 12.0)
    gradient_t_per_m: tuple = (1.0, 1.0)
    period_ms: float = 1.024
    samples_per_period: int = 2048
    particle_diameter_nm: float = 30.0
    temperature_k: float = 300.0
    receiver_gain: float = 1.0


@dataclass
class GridSection:
    shape: tuple = (20, 20, 1)
    spacing_mm: tuple = (1.0, 1.0, 1.0)


@dataclass
class PhantomSection:
    kind: str = "shape-cone"
    concentration: float = 50.0
    subsamples: int = 4


@dataclass
class BackgroundSection:
    base_std: float = 1.0
    mean_peak: float = 200.0
    mean_decay: float = 0.5
    outlier_fraction: float = 0.03
    outlier_scale: float = 100.0
    drift_scale: float = 0.0
    structure_seed: int = 7
    noise_seed: int = 1234
    calibration_concentration: float = 100.0
    calibration_repetitions: int = 1
    measurement_repetitions: int = 1


@dataclass
class PreprocessSection:
    b1_khz: float = 80.0
    b2_khz: float = 625.0
    tau: float = 3.0
    whiten: bool = False
    empty_scans: int = 0  # 0 picks ceil(m / 19) + 1


@dataclass
class SolverSection:
    method: str = "l1-L"
    alpha: float = 1e-3
    epsilon: float = 1e-12
    sweeps: int = 50
    memory: int = 20
    pgtol: float = 1e-10
    max_iterations: int = 10000
    row_order: str = "sequential"
    seed: int = 0
    projection: str = "sweep"


@dataclass
class MetricsSection:
    psnr_peak: float = 100.0
    dynamic_range: float = 100.0
    shift_extent_mm: tuple = (3.0, 3.0, 0.0)
    shift_step_mm: float = 0.5
    subsamples: int = 4


@dataclass
class SweepSection:
    alpha_max_exp: int = 0
    alpha_min_exp: int = -20
    max_sweeps: int = 200
    jobs: int = 1


@dataclass
class PipelineConfig:
    scanner: ScannerSection = field(default_factory=ScannerSection)
    grid: GridSection = field(default_factory=GridSection)
    phantom: PhantomSection = field(default_factory=PhantomSection)
    background: BackgroundSection = field(default_factory=BackgroundSection)
    preprocess: PreprocessSection = field(default_factory=PreprocessSection)
    solver: SolverSection = field(default_factory=SolverSection)
    metrics: MetricsSection = field(default_factory=MetricsSection)
    sweep: SweepSection = field(default_factory=SweepSection)

    def scans_per_bracket(self, voxel_count: int) -> int:
        """Calibration scans between consecutive empty scans."""
        k = self.preprocess.empty_scans
        if k == 0:
            return 19
        return math.ceil(voxel_count / (k - 1))

    def empty_scan_count(self, voxel_count: int) -> int:
        k = self.preprocess.empty_scans
        if k == 0:
            return math.ceil(voxel_count / 19) + 1
        return k

    def scanner_config(self) -> ScannerConfig:
        return ScannerConfig(**vars(self.scanner))

    def voxel_grid(self) -> VoxelGrid:
        return VoxelGrid(self.grid.shape, self.grid.spacing_mm)

    def shift_grid(self) -> ShiftGrid:
        return ShiftGrid(self.metrics.shift_extent_mm, self.metrics.shift_step_mm)

    def solver_config(self, **overrides) -> SolverConfig:
        """The solver section's SolverConfig fields, with keyword overrides."""
        shared = {f.name: getattr(self.solver, f.name) for f in fields(SolverConfig)
                  if hasattr(self.solver, f.name)}
        return SolverConfig(**{**shared, **overrides})


def _coerce(key: str, raw: str, default):
    raw = raw.strip()
    if raw == "":
        raise ConfigError(f"{key}: empty value")
    if isinstance(default, bool):
        low = raw.lower()
        if low in ("true", "false"):
            return low == "true"
        raise ConfigError(f"{key}: expected true or false, got {raw!r}")
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if isinstance(default, float):
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if isinstance(default, tuple):
        elem = int if (default and isinstance(default[0], int)) else float
        try:
            return tuple(elem(part) for part in raw.split(","))
        except ValueError:
            raise ConfigError(f"{key}: expected comma-separated numbers, got {raw!r}") from None
    return raw


def _set_key(cfg: PipelineConfig, dotted: str, raw: str) -> None:
    if "." not in dotted:
        raise ConfigError(f"{dotted}: keys are written section.name")
    section_name, key = dotted.split(".", 1)
    if section_name not in {f.name for f in fields(cfg)}:
        raise ConfigError(f"{dotted}: unknown section {section_name!r}")
    section = getattr(cfg, section_name)
    if key not in {f.name for f in fields(section)}:
        raise ConfigError(f"{dotted}: unknown key")
    default = getattr(type(section)(), key)
    setattr(section, key, _coerce(dotted, raw, default))


def parse_config(text: str) -> PipelineConfig:
    cfg = PipelineConfig()
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        dotted, raw = line.split("=", 1)
        dotted = dotted.strip()
        if dotted in seen:
            raise ConfigError(f"{dotted}: set twice")
        seen.add(dotted)
        _set_key(cfg, dotted, raw)
    validate_config(cfg)
    return cfg


def load_config(path, overrides: dict | None = None) -> PipelineConfig:
    """Parse a config file, then apply CLI overrides and revalidate."""
    cfg = parse_config(Path(path).read_text())
    if overrides:
        apply_overrides(cfg, overrides)
    return cfg


def apply_overrides(cfg: PipelineConfig, overrides: dict) -> None:
    """Apply {dotted key: raw string} pairs on top of a parsed config."""
    for dotted, raw in overrides.items():
        _set_key(cfg, dotted, str(raw))
    validate_config(cfg)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def validate_config(cfg: PipelineConfig) -> None:
    for section, build in (("scanner", cfg.scanner_config), ("grid", cfg.voxel_grid),
                           ("metrics", cfg.shift_grid), ("solver", cfg.solver_config)):
        try:
            build()
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from exc

    p = cfg.phantom
    _require(p.kind in PHANTOM_KINDS,
             f"phantom.kind: must be one of {', '.join(PHANTOM_KINDS)}")
    _require(p.kind != "custom",
             "phantom.kind: custom phantoms carry explicit voxel values and "
             "cannot be built from a config file")
    _require(p.concentration > 0, "phantom.concentration: must be positive")
    _require(p.subsamples >= 1, "phantom.subsamples: must be at least 1")

    b = cfg.background
    _require(b.base_std >= 0, "background.base_std: must be nonnegative")
    _require(b.mean_peak >= 0, "background.mean_peak: must be nonnegative")
    _require(0 <= b.mean_decay < 1, "background.mean_decay: must be in [0, 1)")
    _require(0 <= b.outlier_fraction <= 1,
             "background.outlier_fraction: must be in [0, 1]")
    _require(b.outlier_scale >= 1, "background.outlier_scale: must be at least 1")
    _require(b.drift_scale >= 0, "background.drift_scale: must be nonnegative")
    _require(b.calibration_concentration > 0,
             "background.calibration_concentration: must be positive")
    _require(b.calibration_repetitions >= 1,
             "background.calibration_repetitions: must be at least 1")
    _require(b.measurement_repetitions >= 1,
             "background.measurement_repetitions: must be at least 1")
    _require(b.structure_seed >= 0, "background.structure_seed: must be nonnegative")
    _require(b.noise_seed >= 0, "background.noise_seed: must be nonnegative")

    pre = cfg.preprocess
    _require(0 <= pre.b1_khz < pre.b2_khz,
             "preprocess.b1_khz/b2_khz: need 0 <= b1 < b2")
    _require(pre.tau >= 0, "preprocess.tau: must be nonnegative")
    _require(pre.empty_scans == 0 or pre.empty_scans >= 2,
             "preprocess.empty_scans: at least 2 empty scans are required "
             "(0 selects the default schedule)")

    sol = cfg.solver
    _require(sol.method in METHODS,
             f"solver.method: must be one of {', '.join(METHODS)}")
    _require(sol.alpha > 0, "solver.alpha: must be positive")
    _require(sol.epsilon > 0, "solver.epsilon: must be positive")
    _require(sol.sweeps >= 1, "solver.sweeps: must be at least 1")
    _require(sol.seed >= 0, "solver.seed: must be nonnegative")

    m = cfg.metrics
    _require(m.psnr_peak > 0, "metrics.psnr_peak: must be positive")
    _require(m.dynamic_range > 0, "metrics.dynamic_range: must be positive")
    _require(m.subsamples >= 1, "metrics.subsamples: must be at least 1")

    sw = cfg.sweep
    _require(sw.alpha_max_exp >= sw.alpha_min_exp,
             "sweep.alpha_max_exp: must be >= sweep.alpha_min_exp")
    _require(sw.max_sweeps >= 1, "sweep.max_sweeps: must be at least 1")
    _require(sw.jobs >= 1, "sweep.jobs: must be at least 1")
