"""Pipeline configuration.

Plain-text config files, one `section.key = value` per line, `#` comments.
Every key has a default, so an empty file is a valid config. Unknown keys
are rejected rather than ignored; a typo should fail loudly, not silently
run with defaults.

The scanner section is a model.ScannerConfig and the grid section a
model.VoxelGrid, so their fields and defaults are written once; a file or
override replaces each section once with all of its keys. A setting is
validated by the object it configures: ScannerConfig, VoxelGrid, and the
metrics.ShiftGrid and solvers.SolverConfig that the metrics and solver
sections build, whose ValueError becomes ConfigError("<section>:
<message>"), e.g. "scanner: drive amplitudes must be nonnegative".
validate_config then rejects NaN and +-inf in every float key and float
tuple as ConfigError("<section>.<key>: must be finite"), except
preprocess.b2_khz = inf (an open band), and checks the rest as
ConfigError("<section>.<key>: <precondition>"): solver method and alpha;
solver.epsilon and metrics.psnr_peak, each positive with a finite nonzero
square; the phantom, background, preprocess, metrics scoring and sweep
keys, including the derived values their stages use, which must be finite
(the noise variance base_std^2, the SSIM constant (0.03 dynamic_range)^2,
the sweep weights 2^alpha_max_exp and 2^alpha_min_exp, the smallest also
nonzero), e.g. "sweep.alpha_max_exp: alpha_max_exp gives a non-finite
weight 2^alpha_max_exp"; and a bound of 2^24 sample points on voxels x
phantom.subsamples^3. The same bound on shifts x voxels, the reference
stack that evaluate and sweep build, is ConfigError("metrics: ...").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .errors import ConfigError
from .metrics import ShiftGrid
from .model import PHANTOM_KINDS, ScannerConfig, VoxelGrid
from .solvers import METHODS, SolverConfig

__all__ = ["PipelineConfig", "load_config", "parse_config", "apply_overrides"]

# The most sample points, voxels x subsamples^3, that one rasterization of
# the grid may test: 655x the default grid's 25,600. It also bounds the
# reference stack, shifts x voxels, at 128 MB of float64.
_MAX_SAMPLE_POINTS = 1 << 24


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
    scans_per_bracket: int = 19


@dataclass
class PreprocessSection:
    b1_khz: float = 80.0
    b2_khz: float = 625.0
    tau: float = 3.0
    whiten: bool = False


@dataclass
class SolverSection:
    method: str = "l1-L"
    alpha: float = 1e-3
    epsilon: float = 1e-12
    sweeps: int = SolverConfig.sweeps
    memory: int = SolverConfig.memory
    pgtol: float = SolverConfig.pgtol
    max_iterations: int = SolverConfig.max_iterations
    row_order: str = SolverConfig.row_order
    seed: int = SolverConfig.seed
    projection: str = SolverConfig.projection


@dataclass
class MetricsSection:
    psnr_peak: float = 100.0
    dynamic_range: float = 100.0
    shift_extent_mm: tuple = (3.0, 3.0, 0.0)
    shift_step_mm: float = 0.5


@dataclass
class SweepSection:
    alpha_max_exp: int = 0
    alpha_min_exp: int = -20
    max_sweeps: int = 200
    jobs: int = 1


@dataclass
class PipelineConfig:
    scanner: ScannerConfig = field(default_factory=ScannerConfig)
    grid: VoxelGrid = field(default_factory=VoxelGrid)
    phantom: PhantomSection = field(default_factory=PhantomSection)
    background: BackgroundSection = field(default_factory=BackgroundSection)
    preprocess: PreprocessSection = field(default_factory=PreprocessSection)
    solver: SolverSection = field(default_factory=SolverSection)
    metrics: MetricsSection = field(default_factory=MetricsSection)
    sweep: SweepSection = field(default_factory=SweepSection)

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


def parse_config(text: str) -> PipelineConfig:
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        dotted, raw = line.split("=", 1)
        dotted = dotted.strip()
        if dotted in pairs:
            raise ConfigError(f"{dotted}: set twice")
        pairs[dotted] = raw
    cfg = PipelineConfig()
    apply_overrides(cfg, pairs)
    return cfg


def load_config(path, overrides: dict | None = None) -> PipelineConfig:
    """Parse a config file, then apply CLI overrides and revalidate."""
    cfg = parse_config(Path(path).read_text())
    if overrides:
        apply_overrides(cfg, overrides)
    return cfg


def apply_overrides(cfg: PipelineConfig, overrides: dict) -> None:
    """Apply {dotted key: raw value} pairs, then validate.

    Each value is coerced to its key's type first. Then every section with
    changes is replaced once, with all of them, so the frozen scanner
    section checks them together: a one-axis scanner sets its three drive
    tuples to one entry each, in any order.
    """
    changes: dict = {}
    for dotted, raw in overrides.items():
        if "." not in dotted:
            raise ConfigError(f"{dotted}: keys are written section.name")
        section_name, key = dotted.split(".", 1)
        if section_name not in {f.name for f in fields(cfg)}:
            raise ConfigError(f"{dotted}: unknown section {section_name!r}")
        defaults = {f.name: f.default for f in fields(getattr(cfg, section_name))}
        if key not in defaults:
            raise ConfigError(f"{dotted}: unknown key")
        changes.setdefault(section_name, {})[key] = _coerce(dotted, str(raw), defaults[key])
    for section_name, values in changes.items():
        try:
            setattr(cfg, section_name, replace(getattr(cfg, section_name), **values))
        except ValueError as exc:
            raise ConfigError(f"{section_name}: {exc}") from exc
    validate_config(cfg)


def _finite(derive) -> bool:
    """Whether derive() gives a finite number; an ArithmeticError counts as
    not finite (Python's float ** and / raise where numpy gives inf)."""
    try:
        return math.isfinite(derive())
    except ArithmeticError:
        return False


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def validate_config(cfg: PipelineConfig) -> None:
    for section, build in (("metrics", cfg.shift_grid), ("solver", cfg.solver_config)):
        try:
            build()
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from exc
    for section in fields(cfg):
        values = getattr(cfg, section.name)
        for f in fields(values):
            dotted, value = f"{section.name}.{f.name}", getattr(values, f.name)
            if dotted == "preprocess.b2_khz" and value == math.inf:
                continue  # an open band: every bin above b1
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in (value if isinstance(value, tuple) else (value,))):
                raise ConfigError(f"{dotted}: must be finite")

    voxels = cfg.grid.voxel_count
    p = cfg.phantom
    _require(p.kind in PHANTOM_KINDS,
             f"phantom.kind: must be one of {', '.join(PHANTOM_KINDS)}, got {p.kind!r}")
    _require(p.concentration > 0, "phantom.concentration: must be positive")
    _require(p.subsamples >= 1, "phantom.subsamples: must be at least 1")

    b = cfg.background
    _require(b.base_std >= 0, "background.base_std: must be nonnegative")
    # acquisition.make_background squares it into the noise variance
    _require(_finite(lambda: b.base_std ** 2),
             "background.base_std: base_std squared, the noise variance, must be finite")
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
    # one bracket of the whole grid is the widest; the default 19 stays legal
    # on smaller grids
    _require(2 <= b.scans_per_bracket <= max(19, voxels),
             f"background.scans_per_bracket: must be in [2, max(19, voxels)] "
             f"({voxels} voxels)")

    pre = cfg.preprocess
    _require(0 <= pre.b1_khz < pre.b2_khz,
             "preprocess.b1_khz/b2_khz: need 0 <= b1 < b2")
    _require(pre.tau >= 0, "preprocess.tau: must be nonnegative")

    sol = cfg.solver
    _require(sol.method in METHODS,
             f"solver.method: must be one of {', '.join(METHODS)}")
    _require(sol.alpha > 0, "solver.alpha: must be positive")
    # solvers.Objective squares it; a square of 0 makes a zero residual 0/0
    _require(sol.epsilon > 0 and 0 < sol.epsilon * sol.epsilon < math.inf,
             "solver.epsilon: must be positive, with a finite nonzero square")

    m = cfg.metrics
    # metrics.psnr_table divides its square by the mean squared error
    _require(m.psnr_peak > 0 and 0 < m.psnr_peak * m.psnr_peak < math.inf,
             "metrics.psnr_peak: must be positive, with a finite nonzero square")
    _require(m.dynamic_range > 0, "metrics.dynamic_range: must be positive")
    # metrics.ssim_table's larger stabilizing constant
    _require(_finite(lambda: (0.03 * m.dynamic_range) ** 2),
             "metrics.dynamic_range: dynamic_range gives a non-finite SSIM constant (0.03 L)^2")
    _require(voxels * p.subsamples**3 <= _MAX_SAMPLE_POINTS,
             f"phantom.subsamples: {voxels} voxels x {p.subsamples}^3 samples exceed "
             f"the limit of {_MAX_SAMPLE_POINTS} sample points")
    _require(cfg.shift_grid().count * voxels <= _MAX_SAMPLE_POINTS,
             f"metrics: the shifts of extents {m.shift_extent_mm} mm at step "
             f"{m.shift_step_mm:g} mm times {voxels} voxels exceed the limit of "
             f"{_MAX_SAMPLE_POINTS} sample points")

    sw = cfg.sweep
    # cmd_sweep's regularization weights 2^e, largest and smallest
    for key in ("alpha_max_exp", "alpha_min_exp"):
        _require(_finite(lambda: 2.0 ** getattr(sw, key)),
                 f"sweep.{key}: {key} gives a non-finite weight 2^{key}")
    # below about 2^-1074 the smallest weight underflows to 0
    _require(2.0 ** sw.alpha_min_exp > 0,
             "sweep.alpha_min_exp: alpha_min_exp gives a zero weight 2^alpha_min_exp")
    _require(sw.alpha_max_exp >= sw.alpha_min_exp,
             "sweep.alpha_max_exp: must be >= sweep.alpha_min_exp")
    _require(sw.max_sweeps >= 1, "sweep.max_sweeps: must be at least 1")
    _require(sw.jobs >= 1, "sweep.jobs: must be at least 1")
