"""Shift-tolerant image quality metrics.

A reconstruction may be displaced by a fraction of the grid against the
ground-truth geometry without being any worse, so both quality numbers are
taken as the maximum over a grid of reference shifts: the analytic support
is rasterized at every shift and the metric evaluated against each
candidate. The grid's per-axis shift values share one membership test on
a lattice of sample coordinates inside the support's bounding box, and
exact per-axis counts turn it into every reference
(model.rasterize_shifted); each reference is bitwise equal to rasterizing
its shift on its own and, at zero shift, to the phantom.
Scores are tabulated (images x shifts) by psnr_table and ssim_table; the
best cell is the first maximum in row-major order (ties resolve to the
first shift in lexicographic order), and a table holding a NaN raises
NumericalError instead of naming a best cell. Where only each image's
maximum over shifts is wanted, ssim_max returns the SSIM table's row
maxima bit for bit but scores exactly only the cell at the image's
PSNR-best shift and the cells whose Cauchy-Schwarz bound, computed from
the filtered moments alone, can reach that score. shift_max_metric scores one
image and returns its ShiftMetricResult (the best value, its shift and the
per-shift table); quality_report returns the (psnr, ssim) pair of them
over one reference stack.

PSNR uses a fixed peak value (not the per-image maximum) so scores are
comparable across reconstructions; identical images return +inf. SSIM uses
the standard Gaussian window (11 taps, sigma 1.5) with symmetric padding
and a fixed dynamic range. The window's weights are computed once, at
import. They run through _filter3, a NumPy port of
scipy.ndimage.correlate1d(mode="reflect") for odd, symmetric windows that
does its floating-point operations in its order, so scores keep
correlate1d's bits while the package needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .model import VoxelGrid, rasterize_shifted

__all__ = [
    "ShiftGrid",
    "ReferenceImage",
    "ShiftMetricResult",
    "rasterize_reference",
    "reference_stack",
    "psnr",
    "ssim",
    "psnr_table",
    "ssim_table",
    "ssim_max",
    "first_argmax",
    "shift_max_metric",
    "quality_report",
]

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
# ssim_table filters at most this many reference voxels at a time, so each
# of its chunk-sized work arrays (256 kB) stays in cache and is reused for
# every image.
_CHUNK_VOXELS = 1 << 15


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
            if not math.isfinite(k):
                raise ValueError("shift extent over step must be finite")
            if abs(k - round(k)) > 1e-9 * max(1.0, k):
                raise ValueError("shift extent must be an integer multiple of the step")
        object.__setattr__(self, "extent_mm", tuple(float(e) for e in self.extent_mm))
        object.__setattr__(self, "step_mm", float(self.step_mm))

    def axis_values(self, axis: int) -> np.ndarray:
        k = int(round(self.extent_mm[axis] / self.step_mm))
        return np.arange(-k, k + 1, dtype=np.float64) * self.step_mm

    def axes(self) -> list[np.ndarray]:
        """The shift values of each axis, x, y, z; the shifts are their
        Cartesian product."""
        return [self.axis_values(a) for a in range(3)]

    @property
    def count(self) -> int:
        n = 1
        for axis in range(3):
            n *= 2 * int(round(self.extent_mm[axis] / self.step_mm)) + 1
        return n

    def shifts(self) -> np.ndarray:
        """All shifts as an (count, 3) array in enumeration order."""
        gx, gy, gz = np.meshgrid(*self.axes(), indexing="ij")
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
    values = rasterize_shifted(support, grid, concentration, [[s] for s in shift_mm],
                               subsamples)[0]
    return ReferenceImage(grid, values, tuple(float(s) for s in shift_mm), concentration)


def reference_stack(support, grid: VoxelGrid, shift_grid: ShiftGrid,
                    concentration: float, subsamples: int = 4) -> np.ndarray:
    """Reference images for every shift: (count, nx, ny, nz), enumeration
    order, each bitwise equal to rasterize_reference at that shift.
    Precompute once when scoring many reconstructions; the grid's
    per-axis values go to model.rasterize_shifted, which describes the
    method and its cost."""
    return rasterize_shifted(support, grid, concentration, shift_grid.axes(), subsamples)


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


# the one window ssim_table filters with: odd and exactly symmetric
_SSIM_WEIGHTS = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)


def _scratch(work: dict, key, shape: tuple) -> np.ndarray:
    """A C-ordered view of the work buffer named key, grown as needed."""
    size = math.prod(shape)
    buf = work.get(key)
    if buf is None or buf.size < size:
        buf = work[key] = np.empty(size)
    return buf[:size].reshape(shape)


def _filter3(volume: np.ndarray, window: np.ndarray, work: dict | None = None) -> np.ndarray:
    """Separable window over the last three axes (one volume or a stack):
    scipy.ndimage.correlate1d(mode="reflect") on each axis in turn, with
    its IEEE operations in its order, so the bits are the same.

    The window must have an odd number of taps, c = taps // 2, with
    |w[c+k] - w[c-k]| <= DBL_EPSILON for every k: correlate1d's test for
    its paired loop, which an odd-length _gaussian_window passes exactly.
    Padding is symmetric (d c b a | a b c d | d c b a), periodic with
    period 2n when the window is longer than the line. Each output is
    v[0]*w[c] plus (v[-k] + v[+k])*w[c-k] for k = c..1, outermost tap
    first. Which NaN propagates, and so the sign of a NaN output, is
    unspecified, as in IEEE 754.

    Each axis is moved to the front and copied into a padded buffer (a
    length-1 axis is a zero-stride view instead), so every tap reads one
    contiguous block. The result is a moveaxis view, C-contiguous when the
    last axis has length 1 (2D grids). Scratch arrays and the result live
    in ``work``: a caller that filters many same-sized volumes passes one
    dict and so allocates (and page-faults) once; the next call with that
    dict overwrites the result, which must not be its input. Without
    ``work`` all are new.
    """
    taps = window.size
    c = taps // 2
    work = {} if work is None else work
    out = volume
    with np.errstate(over="ignore", invalid="ignore"):  # correlate1d is silent
        for i, axis in enumerate((-3, -2, -1)):
            moved = np.moveaxis(out, axis, 0)
            n, rest = moved.shape[0], moved.shape[1:]
            if n == 1:
                padded = np.broadcast_to(moved, (taps,) + rest)
            else:
                padded = _scratch(work, "padded", (n + taps - 1,) + rest)
                padded[c:c + n] = moved
                for j in (*range(c), *range(c + n, n + taps - 1)):
                    p = (j - c) % (2 * n)
                    padded[j] = padded[c + min(p, 2 * n - 1 - p)]
            # ping-pong: a length-1 axis reads the previous result in place
            out, pair, tmp = (_scratch(work, key, moved.shape) for key in (i % 2, "pair", "tmp"))
            np.multiply(padded[c:c + n], window[c], out=out)
            for t in range(c):
                if n > 1 or t == 0:  # a length-1 axis has one pair
                    np.add(padded[t:t + n], padded[taps - 1 - t:taps - 1 - t + n], out=pair)
                np.multiply(pair, window[t], out=tmp)
                out += tmp
            out = np.moveaxis(out, 0, axis)
    return out


def _ssim_batch(images, stack, dynamic_range: float):
    """The checked (images, stack) batch and SSIM's (C1, C2)."""
    images, stack = _batch(images, stack)
    if stack.ndim != 4:
        raise ValueError("ssim expects (nx, ny, nz) volumes")
    if dynamic_range <= 0:
        raise ValueError("dynamic range must be positive")
    return images, stack, (0.01 * dynamic_range) ** 2, (0.03 * dynamic_range) ** 2


def _ssim_moments(volumes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Filtered mean, its square and the variance of each volume, filtered
    a chunk at a time through one work dict, so its arrays stay in cache."""
    mu, mu2, var = (np.empty(volumes.shape) for _ in range(3))
    work = {}
    for part in _chunks(volumes.shape[0], volumes.shape[1:]):
        chunk = volumes[part]
        mu[part] = _filter3(chunk, _SSIM_WEIGHTS, work)
        np.multiply(mu[part], mu[part], out=mu2[part])
        var[part] = _filter3(np.multiply(chunk, chunk, out=_scratch(work, "sq", chunk.shape)),
                             _SSIM_WEIGHTS, work)
        var[part] -= mu2[part]
    return mu, mu2, var


def _ssim_cells(x, x_moments, refs, ref_moments, c1: float, c2: float,
                work: dict) -> np.ndarray:
    """Mean SSIM of x against each of the (count, nx, ny, nz) refs, with
    the moments of each from _ssim_moments. x and its moments are one
    image, broadcast against every reference, or one image per reference.
    Every voxel's formula runs in the same order either way, so a cell's
    bits depend only on its pair."""
    mu_x, mu_x2, var_x = x_moments
    mu_r, mu_r2, var_r = ref_moments
    prod, num, den = (_scratch(work, key, refs.shape) for key in ("prod", "num", "den"))
    # (2 mu_x mu_r + c1)(2 cov + c2) / ((mu_x^2 + mu_r^2 + c1)(var_x + var_r + c2)),
    # each product and sum in that order, into reused arrays
    cov = _filter3(np.multiply(x, refs, out=prod), _SSIM_WEIGHTS, work)
    cov -= np.multiply(mu_x, mu_r, out=num)
    cov *= 2.0
    cov += c2
    np.multiply(2.0 * mu_x, mu_r, out=num)
    num += c1
    num *= cov
    np.add(mu_x2, mu_r2, out=den)
    den += c1
    np.add(var_x, var_r, out=cov)
    cov += c2
    den *= cov
    num /= den
    return num.reshape(refs.shape[0], -1).mean(axis=1)


def _chunks(count: int, shape: tuple):
    """Slices of count volumes of this shape, at most _CHUNK_VOXELS voxels
    each (one volume at least)."""
    step = max(1, _CHUNK_VOXELS // max(1, math.prod(shape)))
    return (slice(lo, lo + step) for lo in range(0, count, step))


def ssim_table(images, stack, dynamic_range: float) -> np.ndarray:
    """SSIM (see ssim) of each (nx, ny, nz) image against each reference
    volume: an (n, k) table. Moments are filtered once per image and once
    per reference; only the cross moment is per pair, computed a chunk of
    the stack at a time (at most _CHUNK_VOXELS = 2^15 reference voxels, so
    a chunk's arrays stay in cache and are reused for every image). Every
    line is filtered on its own and every voxel's formula runs in the same
    order, so neither chunking nor batching changes a bit."""
    images, stack, c1, c2 = _ssim_batch(images, stack, dynamic_range)
    x_moments, ref_moments = _ssim_moments(images), _ssim_moments(stack)
    table = np.empty((images.shape[0], stack.shape[0]))
    work = {}
    for part in _chunks(stack.shape[0], stack.shape[1:]):
        part_moments = [m[part] for m in ref_moments]
        for i, x in enumerate(images):
            table[i, part] = _ssim_cells(x, [m[i] for m in x_moments], stack[part],
                                         part_moments, c1, c2, work)
    return table


def _ssim_bound(x_moments, ref_moments, c1: float, c2: float) -> np.ndarray:
    """(n, k) upper bounds on the ssim_table cells, from the moments alone.

    With sigma = sqrt(max(var, 0)), Cauchy-Schwarz gives |cov| <=
    sigma_x sigma_r (Wang et al., IEEE TIP 2004), so each voxel's SSIM is
    at most |l| (2 sigma_x sigma_r + C2) / (sigma_x^2 + sigma_r^2 + C2),
    with l = (2 mu_x mu_r + C1) / (mu_x^2 + mu_r^2 + C1), up to rounding.
    Computed a chunk of references at a time, into reused arrays."""
    mu_x, mu_x2, var_x = x_moments
    mu_r, mu_r2, var_r = ref_moments
    twice_mu_x, lum_x = 2.0 * mu_x, mu_x2 + c1
    var_x = np.maximum(var_x, 0.0)
    twice_sigma_x, con_x = 2.0 * np.sqrt(var_x), var_x + c2
    var_r = np.maximum(var_r, 0.0)
    sigma_r = np.sqrt(var_r)
    bound = np.empty((mu_x.shape[0], mu_r.shape[0]))
    work = {}
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite moments give NaN
        for part in _chunks(mu_r.shape[0], mu_r.shape[1:]):
            shape = mu_r[part].shape
            a, b = _scratch(work, "a", shape), _scratch(work, "b", shape)
            for i in range(mu_x.shape[0]):
                np.multiply(twice_mu_x[i], mu_r[part], out=a)
                a += c1
                np.abs(a, out=a)
                a /= np.add(lum_x[i], mu_r2[part], out=b)
                np.multiply(twice_sigma_x[i], sigma_r[part], out=b)
                b += c2
                a *= b
                a /= np.add(con_x[i], var_r[part], out=b)
                bound[i, part] = a.reshape(shape[0], -1).mean(axis=1)
    return bound


def ssim_max(images, stack, dynamic_range: float, psnr_cells) -> tuple[np.ndarray, int]:
    """(ssim_table(images, stack, dynamic_range).max(axis=1), cells scored),
    the maxima bit for bit, without scoring every cell.

    psnr_cells is the psnr_table of the same images and stack. Per image,
    the cell at its PSNR-best shift is scored exactly first; every other
    cell is scored only where _ssim_bound does not rule it out, that is
    where not (bound < that score - 1e-9). A NaN bound or score therefore
    gets its row scored, and its NaN maximum survives. Cells are scored by
    the one formula ssim_table runs, on the same moments, and depend on
    nothing but their pair, so the maxima equal the full table's. The count
    includes the per-image cells."""
    images, stack, c1, c2 = _ssim_batch(images, stack, dynamic_range)
    psnr_cells = np.asarray(psnr_cells)
    n, k = images.shape[0], stack.shape[0]
    if psnr_cells.shape != (n, k):
        raise ValueError("psnr table does not match the images and the stack")
    x_moments, ref_moments = _ssim_moments(images), _ssim_moments(stack)
    # a cell left unscored is below its row's incumbent, so -inf in its
    # place changes no maximum
    table = np.full((n, k), -np.inf)
    work = {}

    def score(rows, cols):
        for part in _chunks(rows.size, stack.shape[1:]):
            i, j = rows[part], cols[part]
            table[i, j] = _ssim_cells(images[i], [m[i] for m in x_moments], stack[j],
                                      [m[j] for m in ref_moments], c1, c2, work)

    rows, best = np.arange(n), np.argmax(psnr_cells, axis=1)
    score(rows, best)
    todo = ~(_ssim_bound(x_moments, ref_moments, c1, c2)
             < table[rows, best][:, None] - 1e-9)
    todo[rows, best] = False
    rows, cols = np.nonzero(todo)
    score(rows, cols)
    return table.max(axis=1), n + rows.size


def ssim(image: np.ndarray, reference: np.ndarray, dynamic_range: float) -> float:
    """Mean structural similarity over all voxel-centered Gaussian windows.

    Per window: (2 mu_x mu_r + C1)(2 cov + C2) /
                ((mu_x^2 + mu_r^2 + C1)(var_x + var_r + C2))
    with C1 = (0.01 L)^2, C2 = (0.03 L)^2, L the dynamic range. Weighted
    (biased) moments, symmetric boundary handling. A length-1 axis passes
    through the window unchanged only up to rounding: every tap reflects
    onto the one value, and summing the weighted copies moves it by up to
    about 1e-14 for values in [0, 100].
    """
    return float(ssim_table([image], [reference], dynamic_range)[0, 0])


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
    if np.shape(image) != grid.shape:
        raise ValueError("image does not match the grid shape")
    if stack is None:
        stack = reference_stack(support, grid, shift_grid, concentration, subsamples)
    elif stack.shape != (shift_grid.count,) + grid.shape:
        raise ValueError("precomputed stack does not match the shift grid")
    if metric == "psnr":
        values = psnr_table([image], stack, peak)[0]
    else:
        values = ssim_table([image], stack, dynamic_range)[0]
    shifts = shift_grid.shifts()
    (k,) = first_argmax(values)
    return ShiftMetricResult(metric, float(values[k]), tuple(float(v) for v in shifts[k]),
                             shifts, values)


def quality_report(image: np.ndarray, support, grid: VoxelGrid,
                   shift_grid: ShiftGrid, *, concentration: float,
                   subsamples: int = 4, peak: float = 100.0,
                   dynamic_range: float = 100.0
                   ) -> tuple[ShiftMetricResult, ShiftMetricResult]:
    """The (psnr, ssim) shift_max_metric results over one reference stack,
    rasterized here."""
    stack = reference_stack(support, grid, shift_grid, concentration, subsamples)
    return tuple(shift_max_metric(image, support, grid, shift_grid, metric,
                                  concentration=concentration, subsamples=subsamples,
                                  peak=peak, dynamic_range=dynamic_range, stack=stack)
                 for metric in ("psnr", "ssim"))
