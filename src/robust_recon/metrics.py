"""Shift-tolerant image quality metrics.

A reconstruction may be displaced by a fraction of the grid against the
ground-truth geometry without being any worse, so both quality numbers are
taken as the maximum over a grid of reference shifts: the analytic support
is rasterized at every shift and the metric evaluated against each
candidate. The shifts share one membership test on a lattice of sample
coordinates (model.rasterize_shifted); each reference is bitwise equal to
rasterizing its shift on its own and, at zero shift, to the phantom.
Scores are tabulated (images x shifts) by psnr_table and ssim_table; the
best cell is the first maximum in row-major order (ties resolve to the
first shift in lexicographic order), and a table holding a NaN raises
NumericalError instead of naming a best cell.

PSNR uses a fixed peak value (not the per-image maximum) so scores are
comparable across reconstructions; identical images return +inf. SSIM uses
the standard Gaussian window (11 taps, sigma 1.5) with symmetric padding
and a fixed dynamic range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import correlate1d

from .errors import NumericalError
from .model import VoxelGrid, rasterize_shifted, rasterize_support

__all__ = [
    "ShiftGrid",
    "ReferenceImage",
    "QualityReport",
    "ShiftMetricResult",
    "rasterize_reference",
    "reference_stack",
    "psnr",
    "ssim",
    "psnr_table",
    "ssim_table",
    "first_argmax",
    "shift_max_metric",
    "quality_report",
]

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
# ssim_table filters at most this many reference voxels at a time, so its
# half-dozen stack-sized temporaries stay near 8 MB each for 3D shift grids.
_CHUNK_VOXELS = 1 << 20


@dataclass(frozen=True)
class ShiftGrid:
    """Symmetric shift lattice: per axis -extent..extent in steps of step_mm.

    Extents must be integer multiples of the step (0 collapses an axis to
    the single shift 0). Shifts enumerate lexicographically, x slowest.
    """

    extent_mm: tuple[float, float, float]
    step_mm: float

    def __post_init__(self):
        if not 0 < self.step_mm < np.inf:
            raise ValueError("shift step must be positive and finite")
        if len(self.extent_mm) != 3 or any(not 0 <= e < np.inf for e in self.extent_mm):
            raise ValueError("shift extents must be three nonnegative finite lengths")
        for e in self.extent_mm:
            k = e / self.step_mm
            if abs(k - round(k)) > 1e-9 * max(1.0, k):
                raise ValueError("shift extent must be an integer multiple of the step")
        object.__setattr__(self, "extent_mm", tuple(float(e) for e in self.extent_mm))
        object.__setattr__(self, "step_mm", float(self.step_mm))

    def axis_values(self, axis: int) -> np.ndarray:
        k = int(round(self.extent_mm[axis] / self.step_mm))
        return np.arange(-k, k + 1, dtype=np.float64) * self.step_mm

    @property
    def count(self) -> int:
        n = 1
        for axis in range(3):
            n *= 2 * int(round(self.extent_mm[axis] / self.step_mm)) + 1
        return n

    def shifts(self) -> np.ndarray:
        """All shifts as an (count, 3) array in enumeration order."""
        ax = [self.axis_values(a) for a in range(3)]
        gx, gy, gz = np.meshgrid(*ax, indexing="ij")
        return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)


@dataclass
class ReferenceImage:
    """Ground-truth support rasterized at one shift."""

    grid: VoxelGrid
    values: np.ndarray
    shift_mm: tuple[float, float, float]
    concentration: float


def rasterize_reference(support, shift_mm, grid: VoxelGrid, concentration: float,
                        subsamples: int = 4) -> ReferenceImage:
    """Rasterize the shifted support; shares the phantom rasterizer so the
    reference at zero shift equals the generating phantom exactly."""
    values = rasterize_support(support, grid, concentration, subsamples, shift_mm=shift_mm)
    return ReferenceImage(grid, values, tuple(float(s) for s in shift_mm), concentration)


def reference_stack(support, grid: VoxelGrid, shift_grid: ShiftGrid,
                    concentration: float, subsamples: int = 4) -> np.ndarray:
    """Reference images for every shift: (count, nx, ny, nz), enumeration
    order, each bitwise equal to rasterize_reference at that shift.
    Precompute once when scoring many reconstructions."""
    return rasterize_shifted(support, grid, concentration, shift_grid.shifts(), subsamples)


def _batch(images, stack) -> tuple[np.ndarray, np.ndarray]:
    images = np.asarray(images, dtype=np.float64)
    stack = np.asarray(stack, dtype=np.float64)
    if images.shape[1:] != stack.shape[1:]:
        raise ValueError("image shapes differ")
    return images, stack


def psnr_table(images, stack, peak: float) -> np.ndarray:
    """PSNR of each image in ``images`` (n, ...) against each reference in
    ``stack`` (k, ...): an (n, k) table, +inf where a pair is identical."""
    images, stack = _batch(images, stack)
    if peak <= 0:
        raise ValueError("peak must be positive")
    mse = np.empty((images.shape[0], stack.shape[0]))
    for i, image in enumerate(images):
        diff = image - stack  # the one stack-sized temporary
        diff *= diff
        mse[i] = diff.reshape(stack.shape[0], -1).mean(axis=1)
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(peak * peak / mse)


def psnr(image: np.ndarray, reference: np.ndarray, peak: float) -> float:
    """10*log10(peak^2 / MSE); +inf when the images are identical."""
    return float(psnr_table([image], [reference], peak)[0, 0])


def _gaussian_window(taps: int, sigma: float) -> np.ndarray:
    t = np.arange(taps, dtype=np.float64) - (taps - 1) / 2.0
    w = np.exp(-0.5 * (t / sigma) ** 2)
    return w / w.sum()


def _filter3(volume: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Separable window over the last three axes (one volume or a stack)."""
    out = volume
    for axis in (-3, -2, -1):
        out = correlate1d(out, window, axis=axis, mode="reflect")
    return out


def ssim_table(images, stack, dynamic_range: float,
               taps: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    """SSIM (see ssim) of each (nx, ny, nz) image against each reference
    volume: an (n, k) table. Reference moments are filtered once per stack
    chunk, image moments once per image and chunk; only the cross moment is
    per pair."""
    images, stack = _batch(images, stack)
    if stack.ndim != 4:
        raise ValueError("ssim expects (nx, ny, nz) volumes")
    if dynamic_range <= 0:
        raise ValueError("dynamic range must be positive")
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2
    w = _gaussian_window(taps, sigma)
    table = np.empty((images.shape[0], stack.shape[0]))
    step = max(1, _CHUNK_VOXELS // max(1, int(np.prod(stack.shape[1:]))))
    for lo in range(0, stack.shape[0], step):
        part = slice(lo, lo + step)
        refs = stack[part]
        mu_r = _filter3(refs, w)
        mu_r2 = mu_r * mu_r
        var_r = _filter3(refs * refs, w) - mu_r2
        for i, x in enumerate(images):
            mu_x = _filter3(x, w)
            mu_x2 = mu_x * mu_x
            var_x = _filter3(x * x, w) - mu_x2
            cov = _filter3(x * refs, w) - mu_x * mu_r
            num = (2.0 * mu_x * mu_r + c1) * (2.0 * cov + c2)
            den = (mu_x2 + mu_r2 + c1) * (var_x + var_r + c2)
            table[i, part] = (num / den).reshape(refs.shape[0], -1).mean(axis=1)
    return table


def ssim(image: np.ndarray, reference: np.ndarray, dynamic_range: float,
         taps: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> float:
    """Mean structural similarity over all voxel-centered Gaussian windows.

    Per window: (2 mu_x mu_r + C1)(2 cov + C2) /
                ((mu_x^2 + mu_r^2 + C1)(var_x + var_r + C2))
    with C1 = (0.01 L)^2, C2 = (0.03 L)^2, L the dynamic range. Weighted
    (biased) moments, symmetric boundary handling. A length-1 axis passes
    through the window unchanged only up to rounding: every tap reflects
    onto the one value, and summing the weighted copies moves it by up to
    about 1e-14 for values in [0, 100].
    """
    return float(ssim_table([image], [reference], dynamic_range, taps, sigma)[0, 0])


def first_argmax(table: np.ndarray) -> tuple[int, ...]:
    """Index of the best cell of a score table: the first maximum in
    row-major order. +inf is a legal score; a NaN raises NumericalError."""
    table = np.asarray(table)
    if np.isnan(table).any():
        raise NumericalError("quality table holds NaN scores")
    return tuple(int(i) for i in np.unravel_index(np.argmax(table), table.shape))


@dataclass
class ShiftMetricResult:
    """Max-over-shifts outcome for one metric."""

    metric: str
    value: float
    argmax_shift: tuple[float, float, float]
    shifts: np.ndarray
    per_shift: np.ndarray


@dataclass
class QualityReport:
    """Both shift-tolerant quality numbers plus the per-shift table."""

    eps_psnr: float
    eps_ssim: float
    argmax_psnr: tuple[float, float, float]
    argmax_ssim: tuple[float, float, float]
    shifts: np.ndarray
    psnr_values: np.ndarray
    ssim_values: np.ndarray


def _checked_stack(image, support, grid, shift_grid, concentration,
                   subsamples, stack) -> np.ndarray:
    if np.shape(image) != grid.shape:
        raise ValueError("image does not match the grid shape")
    if stack is None:
        return reference_stack(support, grid, shift_grid, concentration, subsamples)
    if stack.shape != (shift_grid.count,) + grid.shape:
        raise ValueError("precomputed stack does not match the shift grid")
    return stack


def _best(values: np.ndarray, shifts: np.ndarray):
    (k,) = first_argmax(values)
    return float(values[k]), tuple(float(v) for v in shifts[k])


def shift_max_metric(image: np.ndarray, support, grid: VoxelGrid,
                     shift_grid: ShiftGrid, metric: str, *,
                     concentration: float, subsamples: int = 4,
                     peak: float | None = None,
                     dynamic_range: float | None = None,
                     stack: np.ndarray | None = None) -> ShiftMetricResult:
    """Maximum of the metric against the support rasterized at every shift.

    ``metric`` is "psnr" (requires peak) or "ssim" (requires dynamic_range).
    A precomputed reference_stack can be passed to amortize rasterization
    over many evaluations; it must match the shift grid.
    """
    if metric not in ("psnr", "ssim"):
        raise ValueError("metric must be 'psnr' or 'ssim'")
    if metric == "psnr" and peak is None:
        raise ValueError("psnr requires a peak value")
    if metric == "ssim" and dynamic_range is None:
        raise ValueError("ssim requires a dynamic range")
    stack = _checked_stack(image, support, grid, shift_grid, concentration,
                           subsamples, stack)
    if metric == "psnr":
        values = psnr_table([image], stack, peak)[0]
    else:
        values = ssim_table([image], stack, dynamic_range)[0]
    shifts = shift_grid.shifts()
    return ShiftMetricResult(metric, *_best(values, shifts), shifts, values)


def quality_report(image: np.ndarray, support, grid: VoxelGrid,
                   shift_grid: ShiftGrid, *, concentration: float,
                   subsamples: int = 4, peak: float = 100.0,
                   dynamic_range: float = 100.0,
                   stack: np.ndarray | None = None) -> QualityReport:
    """Evaluate both metrics over one shared reference stack."""
    stack = _checked_stack(image, support, grid, shift_grid, concentration,
                           subsamples, stack)
    psnr_values = psnr_table([image], stack, peak)[0]
    ssim_values = ssim_table([image], stack, dynamic_range)[0]
    shifts = shift_grid.shifts()
    eps_psnr, argmax_psnr = _best(psnr_values, shifts)
    eps_ssim, argmax_ssim = _best(ssim_values, shifts)
    return QualityReport(eps_psnr, eps_ssim, argmax_psnr, argmax_ssim, shifts,
                         psnr_values, ssim_values)
