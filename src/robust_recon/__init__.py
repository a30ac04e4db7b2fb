"""Robust image reconstruction for a simulated magnetic particle scanner.

The pipeline runs simulate -> preprocess -> reconstruct -> evaluate, either
through the robust-recon command line tool or by calling the modules
directly: model builds the forward operator and phantoms, acquisition adds
background and noise, preprocess selects reliable frequency components and
assembles the reduced real system, solvers minimize the regularized
objectives under nonnegativity, metrics scores images shift-tolerantly.
"""

from .acquisition import (
    BackgroundModel,
    EmptyScanSet,
    Measurement,
    acquisition_schedule,
    background_mean,
    background_variance,
    draw_calibration_scans,
    draw_empty_scans,
    draw_phantom_measurement,
    make_background,
)
from .config import PipelineConfig, load_config, parse_config
from .errors import ConfigError, IntegrityError, NumericalError
from .metrics import (
    QualityReport,
    ReferenceImage,
    ShiftGrid,
    ShiftMetricResult,
    psnr,
    quality_report,
    rasterize_reference,
    reference_stack,
    shift_max_metric,
    ssim,
)
from .model import (
    BoxSupport,
    ConeSupport,
    Phantom,
    ScannerConfig,
    SystemMatrix,
    TubeSupport,
    VoxelGrid,
    langevin,
    make_phantom,
    rasterize_shifted,
    rasterize_support,
    simulate_system_matrix,
)
from .preprocess import (
    FrequencySelection,
    ReducedSystem,
    WhiteningWeights,
    assemble_reduced_system,
    band_pass,
    calibration_system_matrix,
    complex_rows,
    interp_background,
    interp_backgrounds,
    power_iteration_norm,
    select_frequencies,
    snr_scores,
    subtract_background,
    whitening_weights,
)
from .solvers import (
    Objective,
    SolverConfig,
    SolverResult,
    kaczmarz_reg,
    lbfgsb,
    project_nonneg,
    smoothed_l1_norm,
)

__version__ = "0.1.0"

__all__ = [
    "BackgroundModel",
    "BoxSupport",
    "ConeSupport",
    "ConfigError",
    "EmptyScanSet",
    "FrequencySelection",
    "IntegrityError",
    "Measurement",
    "NumericalError",
    "Objective",
    "Phantom",
    "PipelineConfig",
    "QualityReport",
    "ReducedSystem",
    "ReferenceImage",
    "ScannerConfig",
    "ShiftGrid",
    "ShiftMetricResult",
    "SolverConfig",
    "SolverResult",
    "SystemMatrix",
    "TubeSupport",
    "VoxelGrid",
    "WhiteningWeights",
    "acquisition_schedule",
    "assemble_reduced_system",
    "background_mean",
    "background_variance",
    "band_pass",
    "calibration_system_matrix",
    "complex_rows",
    "draw_calibration_scans",
    "draw_empty_scans",
    "draw_phantom_measurement",
    "interp_background",
    "interp_backgrounds",
    "kaczmarz_reg",
    "langevin",
    "lbfgsb",
    "load_config",
    "make_background",
    "make_phantom",
    "parse_config",
    "power_iteration_norm",
    "project_nonneg",
    "psnr",
    "quality_report",
    "rasterize_reference",
    "rasterize_shifted",
    "rasterize_support",
    "reference_stack",
    "select_frequencies",
    "shift_max_metric",
    "simulate_system_matrix",
    "smoothed_l1_norm",
    "snr_scores",
    "ssim",
    "subtract_background",
    "whitening_weights",
]
