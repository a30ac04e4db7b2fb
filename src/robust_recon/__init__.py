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
    Measurement,
    acquisition_schedule,
    background_mean,
    draw_calibration_scans,
    draw_empty_scans,
    draw_phantom_measurement,
    make_background,
)
from .config import PipelineConfig, load_config, parse_config
from .errors import ConfigError, IntegrityError, NumericalError
from .metrics import (
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
    phantom_support,
    rasterize_shifted,
    rasterize_support,
    simulate_system_matrix,
)
from .preprocess import (
    FrequencySelection,
    ReducedSystem,
    assemble_reduced_system,
    band_pass,
    calibration_system_matrix,
    interp_backgrounds,
    power_iteration_norm,
    reduce_scans,
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
    smoothed_l1_norm,
)

__version__ = "0.1.0"

__all__ = [
    "BackgroundModel",
    "BoxSupport",
    "ConeSupport",
    "ConfigError",
    "FrequencySelection",
    "IntegrityError",
    "Measurement",
    "NumericalError",
    "Objective",
    "Phantom",
    "PipelineConfig",
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
    "acquisition_schedule",
    "assemble_reduced_system",
    "background_mean",
    "band_pass",
    "calibration_system_matrix",
    "draw_calibration_scans",
    "draw_empty_scans",
    "draw_phantom_measurement",
    "interp_backgrounds",
    "kaczmarz_reg",
    "langevin",
    "lbfgsb",
    "load_config",
    "make_background",
    "make_phantom",
    "parse_config",
    "phantom_support",
    "power_iteration_norm",
    "psnr",
    "quality_report",
    "rasterize_reference",
    "rasterize_shifted",
    "rasterize_support",
    "reduce_scans",
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
