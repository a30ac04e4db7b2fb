"""Forward model for a desk-scale magnetic particle imaging scanner.

A field-free-point scanner is reduced to its essentials: a static selection
gradient, one sinusoidal drive field per spatial axis, and an ensemble of
superparamagnetic particles whose mean magnetization follows the Langevin
function. The system matrix holds, per receive coil and per frequency index,
the spectral response of a unit concentration in each voxel over one drive
period.

Units: lengths in mm at the API surface (converted to meters internally),
fields in mT / T/m, frequencies in kHz, period in ms. The induced signal is
the time derivative of the mean magnetization component taken with respect
to the phase variable t/T, so row magnitudes do not carry the absolute
drive-frequency scale; an overall receiver gain is configurable. The
voxel grid is centered on the scanner origin, so a VoxelGrid is its shape
and spacing alone; ScannerConfig and VoxelGrid are also the config's
scanner and grid sections, defaults included.

The system matrix has two forms with the same bits: FieldResponse is the
field loop itself, which computes any voxels' columns on demand and
applies the matrix from the columns of an image's nonzero voxels, and
SystemMatrix holds every column as data (simulate_system_matrix).

Phantoms have one build path: make_phantom rasterizes the analytic support
of a stock kind (delta, shape-cone, resolution-tubes) with
rasterize_support, the unshifted case of rasterize_shifted, which metrics
gives per-axis shift values for its references and which rasterizes their
Cartesian product. A support needs contains(points) and bounds_mm(), a
box holding every point it contains. A custom geometry is a ConeSupport,
TubeSupport or BoxSupport passed to rasterize_support; custom values are a
Phantom constructed directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.fft  # load at import, not on the first transform

from .lattice import add_counts

__all__ = [
    "VoxelGrid",
    "ScannerConfig",
    "Phantom",
    "SystemMatrix",
    "FieldResponse",
    "ConeSupport",
    "TubeSupport",
    "BoxSupport",
    "langevin",
    "rasterize_support",
    "rasterize_shifted",
    "PHANTOM_KINDS",
    "phantom_support",
    "make_phantom",
    "simulate_system_matrix",
]

MU0 = 4.0e-7 * np.pi
BOLTZMANN = 1.380649e-23
# Saturation induction of the particle core material (magnetite-like), tesla.
CORE_SATURATION_T = 0.6
# A stock support's bounding box is padded by this many mm per mm of its
# largest coordinate, counted as at least 1 mm: far above the rounding of
# contains.
_BOX_PAD = 1e-9
# FieldResponse.columns samples a chunk of this many voxel samples at a
# time, at least one voxel: 16 voxels at 2048 samples per period. A chunk
# holds about ten arrays of its size at once (the field components, |B|,
# the Langevin terms and the complex spectra), 256 kB each in float64, so
# its scratch stays near 2.7 MB at any grid size. The chunk size does not
# change a bit of the result. FieldResponse.apply's row blocks hold this many
# complex entries, 512 kB.
_CHUNK_SAMPLES = 1 << 15


def langevin(xi):
    """Langevin function coth(xi) - 1/xi, elementwise.

    Uses the series xi/3 - xi**3/45 for |xi| < 1e-4 where the direct
    expression loses all significant digits. The direct expression is
    evaluated on the whole array (silently: it overflows or divides by
    zero near 0) and the series then overwrites the small entries, so
    each entry gets exactly the operations of its branch. A 0-d input
    returns a float.
    """
    xi = np.asarray(xi, dtype=np.float64)
    with np.errstate(all="ignore"):
        out = np.divide(1.0, np.tanh(xi), out=np.empty_like(xi))
        out -= 1.0 / xi
    small = np.abs(xi) < 1e-4
    xs = xi[small]
    out[small] = xs / 3.0 - xs**3 / 45.0
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class VoxelGrid:
    """Axis-aligned voxel grid, centered on the scanner origin.

    ``shape`` is (nx, ny, nz); ``spacing_mm`` the voxel pitch per axis. The
    defaults are the pipeline's 20 x 20 x 1 grid at 1 mm, and the config's
    grid section is this class. ``origin_mm``, the center of voxel
    (0, 0, 0), follows from the two: -(n - 1) / 2 * s per axis. Voxel
    (ix, iy, iz) has center origin + (ix*sx, iy*sy, iz*sz) mm and flat
    index ix*ny*nz + iy*nz + iz (C order), which fixes the column order of
    the system matrix and the layout of image vectors.
    """

    shape: tuple[int, int, int] = (20, 20, 1)
    spacing_mm: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if len(self.shape) != 3 or any(int(n) != n or n < 1 for n in self.shape):
            raise ValueError("grid shape must be three positive integers")
        if len(self.spacing_mm) != 3 or any(not 0 < s < np.inf for s in self.spacing_mm):
            raise ValueError("grid spacing must be three positive finite lengths")
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        object.__setattr__(self, "spacing_mm", tuple(float(s) for s in self.spacing_mm))

    @property
    def origin_mm(self) -> tuple[float, float, float]:
        return tuple(-(n - 1) / 2.0 * s for n, s in zip(self.shape, self.spacing_mm))

    @property
    def voxel_count(self) -> int:
        nx, ny, nz = self.shape
        return nx * ny * nz

    def axis_centers_mm(self, axis: int) -> np.ndarray:
        """Voxel center coordinates along one axis, in mm."""
        n, s, o = self.shape[axis], self.spacing_mm[axis], self.origin_mm[axis]
        return o + np.arange(n, dtype=np.float64) * s

    def centers_mm(self) -> np.ndarray:
        """Voxel centers as an (m, 3) array in mm, C-order flat indexing."""
        axes = [self.axis_centers_mm(a) for a in range(3)]
        gx, gy, gz = np.meshgrid(*axes, indexing="ij")
        return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)

    def extent_mm(self) -> tuple[float, float, float]:
        """Full outer extent per axis, voxel edges included."""
        return tuple(n * s for n, s in zip(self.shape, self.spacing_mm))


@dataclass(frozen=True)
class ScannerConfig:
    """Drive, selection-field and particle parameters of the scanner.

    One receive coil per driven axis; ``dims``, 1 or 2, is the common
    length of the three drive tuples. Drive frequencies must be integer
    harmonics of 1/period so the trajectory closes after one period; the
    default 2-D setting uses the 16:17 frequency ratio that yields a dense
    Lissajous figure. Per axis |B| stays below twice the drive amplitude
    (FieldResponse's reach check), so those bounds' squares must
    sum to a finite number.
    """

    drive_frequencies_khz: tuple[float, ...] = (15.625, 16.6015625)
    drive_amplitudes_mt: tuple[float, ...] = (12.0, 12.0)
    gradient_t_per_m: tuple[float, ...] = (1.0, 1.0)
    period_ms: float = 1.024
    samples_per_period: int = 2048
    particle_diameter_nm: float = 30.0
    temperature_k: float = 300.0
    receiver_gain: float = 1.0

    def __post_init__(self):
        names = ("drive_frequencies_khz", "drive_amplitudes_mt", "gradient_t_per_m")
        if len({len(getattr(self, name)) for name in names}) != 1 or self.dims not in (1, 2):
            raise ValueError("drive frequencies, amplitudes and gradients need one "
                             "entry per driven axis, 1 or 2 axes")
        for name in names:
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        if not 0 < self.period_ms < np.inf:
            raise ValueError("period_ms must be positive and finite")
        n = self.samples_per_period
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError("samples_per_period must be a power of two >= 4")
        if any(a < 0 for a in self.drive_amplitudes_mt):
            raise ValueError("drive amplitudes must be nonnegative")
        # x * x gives inf where x ** 2 would raise
        if not np.isfinite(sum((2e-3 * a) * (2e-3 * a) for a in self.drive_amplitudes_mt)):
            raise ValueError("drive amplitudes give a non-finite squared field norm")
        if any(g == 0 for g in self.gradient_t_per_m):
            raise ValueError("selection gradient is degenerate (zero on a driven axis)")
        if self.particle_diameter_nm <= 0 or self.temperature_k <= 0:
            raise ValueError("particle diameter and temperature must be positive")
        try:
            beta = self.langevin_beta()
        except ArithmeticError:  # d**3 overflows, or k_B T underflows to 0
            beta = np.inf
        if not np.isfinite(beta):
            raise ValueError("particle diameter and temperature give a non-finite "
                             "Langevin beta")
        if self.receiver_gain <= 0:
            raise ValueError("receiver_gain must be positive")
        if not all(np.isfinite(self.drive_frequencies_khz)):
            raise ValueError("drive_frequencies_khz must be finite")
        for f in self.drive_frequencies_khz:
            cycles = f * self.period_ms
            if not np.isfinite(cycles):
                raise ValueError("drive frequency times period_ms must be finite")
            if abs(cycles - round(cycles)) > 1e-9 or round(cycles) < 1:
                raise ValueError(
                    "drive frequency %g kHz is not an integer harmonic of 1/period" % f
                )

    @property
    def dims(self) -> int:
        return len(self.drive_frequencies_khz)

    @property
    def coils(self) -> int:
        return self.dims

    @property
    def freq_count(self) -> int:
        return self.samples_per_period // 2 + 1

    def fov_half_extent_mm(self) -> tuple[float, ...]:
        """Peak field-free-point excursion per driven axis: amplitude/gradient."""
        return tuple(
            a / abs(g) for a, g in zip(self.drive_amplitudes_mt, self.gradient_t_per_m)
        )

    def langevin_beta(self) -> float:
        """Langevin argument per tesla: particle moment / (k_B T)."""
        d = self.particle_diameter_nm * 1e-9
        moment = (CORE_SATURATION_T / MU0) * (np.pi / 6.0) * d**3
        return moment / (BOLTZMANN * self.temperature_k)


class ConeSupport:
    """Truncated cone (frustum): flat tip disc of ``tip_radius_mm`` at
    ``apex_mm``, opening along ``axis`` with the given half angle."""

    def __init__(self, apex_mm, axis, tip_radius_mm, half_angle_deg, height_mm):
        self.apex = np.asarray(apex_mm, dtype=np.float64)
        u = np.asarray(axis, dtype=np.float64)
        norm = np.linalg.norm(u)
        if norm == 0:
            raise ValueError("cone axis must be nonzero")
        self.axis = u / norm
        if tip_radius_mm < 0 or height_mm <= 0 or not 0 < half_angle_deg < 90:
            raise ValueError("invalid cone parameters")
        self.tip_radius = float(tip_radius_mm)
        self.half_angle_deg = float(half_angle_deg)
        self.height = float(height_mm)

    def contains(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=np.float64) - self.apex
        s = p @ self.axis
        radial = p - np.outer(s, self.axis)
        rho = np.linalg.norm(radial, axis=1)
        rmax = self.tip_radius + s * np.tan(np.deg2rad(self.half_angle_deg))
        return (s >= 0.0) & (s <= self.height) & (rho <= rmax)

    def bounds_mm(self) -> tuple[np.ndarray, np.ndarray]:
        """Padded axis-aligned box (lo, hi) around the tip and base discs."""
        base = self.tip_radius + self.height * np.tan(np.deg2rad(self.half_angle_deg))
        return _padded_box([_disc_box(self.apex, self.axis, self.tip_radius),
                            _disc_box(self.apex + self.height * self.axis, self.axis, base)])


class TubeSupport:
    """Union of finite cylinders, each given as (start_mm, end_mm, radius_mm)."""

    def __init__(self, segments):
        self.segments = []
        for p0, p1, r in segments:
            p0 = np.asarray(p0, dtype=np.float64)
            p1 = np.asarray(p1, dtype=np.float64)
            if r <= 0 or np.allclose(p0, p1):
                raise ValueError("invalid tube segment")
            self.segments.append((p0, p1, float(r)))

    def contains(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=np.float64)
        inside = np.zeros(p.shape[0], dtype=bool)
        for p0, p1, r in self.segments:
            d = p1 - p0
            length = np.linalg.norm(d)
            u = d / length
            s = (p - p0) @ u
            rho = np.linalg.norm(p - p0 - np.outer(s, u), axis=1)
            inside |= (s >= 0.0) & (s <= length) & (rho <= r)
        return inside

    def bounds_mm(self) -> tuple[np.ndarray, np.ndarray]:
        """Padded axis-aligned box (lo, hi) around every segment's end discs."""
        discs = []
        for p0, p1, r in self.segments:
            u = (p1 - p0) / np.linalg.norm(p1 - p0)
            discs += [_disc_box(p0, u, r), _disc_box(p1, u, r)]
        return _padded_box(discs)


class BoxSupport:
    """Axis-aligned box with full edge lengths ``size_mm`` around ``center_mm``."""

    def __init__(self, center_mm, size_mm):
        self.center = np.asarray(center_mm, dtype=np.float64)
        self.size = np.asarray(size_mm, dtype=np.float64)
        if np.any(self.size <= 0):
            raise ValueError("box size must be positive")

    def contains(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=np.float64)
        return np.all(np.abs(p - self.center) <= self.size / 2.0, axis=1)

    def bounds_mm(self) -> tuple[np.ndarray, np.ndarray]:
        """The box itself, padded: (lo, hi)."""
        return _padded_box([(self.center - self.size / 2.0, self.center + self.size / 2.0)])


def _disc_box(center, normal, radius) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned box (lo, hi) of a disc with unit normal ``normal``."""
    reach = radius * np.sqrt(np.maximum(0.0, 1.0 - normal * normal))
    return center - reach, center + reach


def _padded_box(boxes) -> tuple[np.ndarray, np.ndarray]:
    """The box around (lo, hi) boxes, padded by _BOX_PAD per mm of its largest
    coordinate, so every point a support's contains accepts lies inside."""
    lo = np.min([b[0] for b in boxes], axis=0)
    hi = np.max([b[1] for b in boxes], axis=0)
    pad = _BOX_PAD * max(1.0, np.abs(lo).max(), np.abs(hi).max())
    return lo - pad, hi + pad


def _sample_axes(grid: VoxelGrid, subsamples: int) -> list[np.ndarray]:
    """Per axis, voxel center plus stratified midpoint offset for every
    voxel and subsample: (n * subsamples,) coordinates in mm, voxel-major."""
    out = []
    for a, s in enumerate(grid.spacing_mm):
        offsets = ((np.arange(subsamples) + 0.5) / subsamples - 0.5) * s
        out.append((grid.axis_centers_mm(a)[:, None] + offsets[None, :]).ravel())
    return out


def rasterize_shifted(support, grid: VoxelGrid, concentration: float,
                      shift_axes, subsamples: int = 4) -> np.ndarray:
    """Rasterize a geometric support onto the grid once per shift of a
    Cartesian product of per-axis shift values.

    ``shift_axes`` holds three 1-D arrays of shift values in mm (x, y, z);
    the shifts are their product, x slowest, as in ShiftGrid.shifts().
    It is always read per axis: a (3, k) array is k values on each axis
    and gives k**3 images, never k listed shift triples.
    Image k, voxel v gets concentration times the fraction of the voxel's
    subsamples**3 stratified sample points p for which p - shift k lies
    inside the support. Returns (Kx * Ky * Kz, nx, ny, nz). The support
    needs contains(points) and bounds_mm(), a box (lo, hi) that holds every
    point contains accepts.

    Sample coordinates are separable per axis: center + offset - shift,
    computed in that order, so each axis has one coordinate array per
    shift value. Coordinates outside the support's box are dropped, the
    distinct coordinates left form one lattice per axis, and the
    membership test runs once on their Cartesian product, tile by tile
    (lattice.add_counts). Per axis and shift value, each voxel's samples
    sit on a run of lattice coordinates, so summing a tile's inside points
    over those runs (np.add.reduceat) is its product with the 0/1 matrix
    from lattice coordinates to voxels. The sums run over z once per z
    value, then over y once per (y, z) value pair, then over x per shift,
    in float64, and are added to the shift's image. Every partial sum is an
    integer far below 2**53, so the counts are exact in any order, and
    concentration * (count / subsamples**3) is bitwise what testing each
    sample point gives. The lattice costs at most as many membership tests
    as testing the shifts one by one, and far fewer where the shift values
    are multiples of the subsample pitch.
    """
    if not (hasattr(support, "contains") and hasattr(support, "bounds_mm")):
        raise TypeError("support needs a point-membership test and a bounding box")
    if subsamples < 1:
        raise ValueError("subsamples must be >= 1")
    axes = [np.asarray(values, dtype=np.float64) for values in shift_axes]
    if len(axes) != 3 or any(values.ndim != 1 for values in axes):
        raise ValueError("shift_axes must be three 1-D arrays of shifts in mm")
    if not all(np.isfinite(values).all() for values in axes):
        raise ValueError("shifts must be finite")
    lo, hi = support.bounds_mm()
    out = np.zeros(tuple(len(values) for values in axes) + grid.shape)
    if out.size:
        add_counts(support, _sample_axes(grid, subsamples), axes, lo, hi, subsamples, out)
    out /= subsamples**3
    out *= concentration
    return out.reshape((-1,) + grid.shape)


def rasterize_support(support, grid: VoxelGrid, concentration: float,
                      subsamples: int = 4) -> np.ndarray:
    """Rasterize a geometric support onto the grid: the unshifted case of
    rasterize_shifted.

    Phantom generation and reference rasterization share rasterize_shifted,
    so a zero-shift reference equals the phantom bit for bit.
    """
    return rasterize_shifted(support, grid, concentration, [[0.0]] * 3, subsamples)[0]


@dataclass
class Phantom:
    """Concentration image plus, when available, its generating geometry."""

    grid: VoxelGrid
    values: np.ndarray
    kind: str
    concentration: float
    support: object | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape:
            raise ValueError("phantom values do not match the grid shape")
        if np.any(self.values < 0):
            raise ValueError("phantom values must be nonnegative")

    def flat(self) -> np.ndarray:
        return self.values.ravel()


# The stock phantoms that phantom_support builds.
PHANTOM_KINDS = ("delta", "shape-cone", "resolution-tubes")


def phantom_support(kind: str, grid: VoxelGrid):
    """Analytic support geometry of a stock phantom on ``grid``.

    kind = "delta":            the box of the voxel at index n // 2 on
                               every axis.
    kind = "shape-cone":       truncated cone along +x, sized to the grid.
    kind = "resolution-tubes": five thin tubes fanning out from a common
                               origin in the x-y plane.

    For another geometry, build a ConeSupport, TubeSupport or BoxSupport
    and pass it to rasterize_support.
    """
    ex = grid.extent_mm()[0]
    sx = grid.spacing_mm[0]
    if kind == "delta":
        idx = tuple(n // 2 for n in grid.shape)
        center = grid.centers_mm().reshape(grid.shape + (3,))[idx]
        return BoxSupport(center, grid.spacing_mm)
    if kind == "shape-cone":
        height = 0.55 * ex
        return ConeSupport((-height / 2.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.8 * sx, 10.0, height)
    if kind == "resolution-tubes":
        length = 0.72 * ex
        origin = np.array([-0.38 * ex, 0.0, 0.0])
        segments = []
        for a in (-24.0, -12.0, 0.0, 12.0, 24.0):
            rad = np.deg2rad(a)
            direction = np.array([np.cos(rad), np.sin(rad), 0.0])
            segments.append((origin, origin + length * direction, 0.8 * sx))
        return TubeSupport(segments)
    raise ValueError(f"unknown phantom kind: {kind!r}")


def make_phantom(kind: str, grid: VoxelGrid, concentration: float,
                 subsamples: int = 4) -> Phantom:
    """Rasterize the support of a stock phantom (see phantom_support) with
    ``subsamples`` per axis. The delta phantom's box covers every sample
    point of its voxel and none of another's, so it is that voxel at full
    concentration.

    For values of your own, construct Phantom(grid, values, kind,
    concentration) directly.
    """
    if concentration <= 0:
        raise ValueError("concentration must be positive")
    support = phantom_support(kind, grid)
    values = rasterize_support(support, grid, concentration, subsamples)
    if not np.any(values > 0):
        raise ValueError("phantom support does not intersect the grid")
    return Phantom(grid, values, kind, concentration, support)


class SystemMatrix:
    """Spectral responses per (coil, frequency index, voxel).

    ``data[l, j, v]`` is the complex Fourier coefficient at bin j (frequency
    j/period kHz) of coil l for a unit concentration in voxel v. Applying the
    matrix to a concentration vector yields the noise-free spectrum set.
    """

    def __init__(self, data: np.ndarray, grid: VoxelGrid, period_ms: float):
        data = np.asarray(data)
        if data.ndim != 3 or not np.iscomplexobj(data):
            raise ValueError("system matrix data must be complex with shape (coils, freqs, voxels)")
        if data.shape[2] != grid.voxel_count:
            raise ValueError("system matrix voxel count does not match the grid")
        self.data = data.astype(np.complex128, copy=False)
        self.grid = grid
        self.period_ms = float(period_ms)

    @property
    def coils(self) -> int:
        return self.data.shape[0]

    @property
    def freq_count(self) -> int:
        return self.data.shape[1]

    @property
    def voxel_count(self) -> int:
        return self.data.shape[2]

    def columns(self, voxels) -> np.ndarray:
        """(coils, freqs, k) responses of the voxels a slice or an index
        array selects: a view of data for a slice."""
        return self.data[:, :, voxels]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Noise-free spectra (coils, freqs) for a concentration image."""
        x = np.asarray(x, dtype=np.float64)
        flat = x.ravel()
        if flat.shape[0] != self.voxel_count:
            raise ValueError("concentration vector does not match the voxel count")
        return self.data @ flat


class FieldResponse:
    """The system matrix as its field loop: columns computed on demand,
    never stored whole.

    For voxel position r the total field is B(t) = G*r + drive(t); the mean
    magnetization direction response L(beta*|B|) * B/|B| is sampled over one
    period, differentiated spectrally with respect to the phase t/period, and
    its one-sided Fourier coefficients form the voxel's column. Each voxel
    is computed on its own, so any voxel subset gives the bits of those
    columns of simulate_system_matrix. Deterministic: no randomness enters
    here. The constructor raises ValueError for a grid that is thick on an
    undriven axis or whose voxel centers lie beyond the field-free point.
    """

    def __init__(self, cfg: ScannerConfig, grid: VoxelGrid):
        for k in range(cfg.dims, 3):
            if grid.shape[k] != 1:
                raise ValueError("grid must be a single voxel layer on undriven axes")
        centers = grid.centers_mm()
        fov = cfg.fov_half_extent_mm()
        for a in range(cfg.dims):
            # voxel centers must be reachable by the field-free point
            reach = np.max(np.abs(centers[:, a]))
            if reach > fov[a] + 1e-12:
                raise ValueError(
                    "grid has voxel centers at %.3f mm on axis %d but the "
                    "field-free point only reaches %.3f mm" % (reach, a, fov[a])
                )
        self.coils = cfg.coils
        self.freq_count = cfg.freq_count
        self.voxel_count = grid.voxel_count
        self._samples = n = cfg.samples_per_period
        phase = np.arange(n, dtype=np.float64) / n
        harmonics = [round(f * cfg.period_ms) for f in cfg.drive_frequencies_khz]
        self._drive = [
            amp * 1e-3 * np.sin(2.0 * np.pi * h * phase)
            for amp, h in zip(cfg.drive_amplitudes_mt, harmonics)
        ]  # per driven axis, (n,), tesla
        # (voxels, dims), tesla
        self._static = centers[:, : cfg.dims] * 1e-3 * np.asarray(cfg.gradient_t_per_m)
        self._deriv = 1j * 2.0 * np.pi * np.arange(cfg.freq_count) * cfg.receiver_gain
        self._beta = cfg.langevin_beta()

    def columns(self, voxels) -> np.ndarray:
        """New C-contiguous (coils, freqs, k) responses of the voxels a slice
        or an index array selects.

        Voxels are processed _CHUNK_SAMPLES // samples at a time, one
        contiguous (voxels, samples) array per field component, with |B| as
        sqrt(B_x*B_x + B_y*B_y): the sum np.linalg.norm forms over that axis.
        """
        static = self._static[voxels]
        n = self._samples
        k = static.shape[0]
        data = np.empty((self.coils, self.freq_count, k), dtype=np.complex128)
        chunk = max(1, _CHUNK_SAMPLES // n)
        for start in range(0, k, chunk):
            stop = min(start + chunk, k)
            b = [static[start:stop, a, None] + d for a, d in enumerate(self._drive)]
            norm = np.sqrt(sum(b_a * b_a for b_a in b))
            ell = langevin(self._beta * norm)
            with np.errstate(invalid="ignore", divide="ignore"):
                scale = np.where(norm > 0.0, ell / norm, 0.0)
            for a, b_a in enumerate(b):
                # mean magnetization direction response along axis a
                coeffs = np.fft.rfft(scale * b_a)
                coeffs /= n
                coeffs *= self._deriv
                data[a, :, start:stop] = coeffs.T
        return data

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Noise-free spectra (coils, freqs) for a concentration image: the
        bits of SystemMatrix.apply, from the columns of x's nonzero voxels.

        A zero x[v] adds +-0 to sums that start at +0, and each row's
        product does not depend on the other rows of the call, so the rows
        are formed in blocks of _CHUNK_SAMPLES // voxels (at least 2): a
        zero-filled (rows, voxels) scratch whose nonzero-x columns hold the
        computed columns, times x. A block of one row would take numpy's
        vector-dot path and other bits, so a one-row remainder joins the
        last block. Holds the nonzero-x columns and the scratch.
        """
        flat = np.asarray(x, dtype=np.float64).ravel()
        m = self.voxel_count
        if flat.shape[0] != m:
            raise ValueError("concentration vector does not match the voxel count")
        support = np.flatnonzero(flat)
        total = self.coils * self.freq_count
        cols = self.columns(support).reshape(total, support.size)
        rows = max(2, _CHUNK_SAMPLES // m)
        bounds = list(range(0, total, rows)) + [total]
        if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
            del bounds[-2]
        scratch = np.zeros((rows + 1, m), dtype=np.complex128)
        out = np.empty(total, dtype=np.complex128)
        for lo, hi in zip(bounds, bounds[1:]):
            block = scratch[:hi - lo]
            block[:, support] = cols[lo:hi]
            out[lo:hi] = block @ flat
        return out.reshape(self.coils, self.freq_count)


def simulate_system_matrix(cfg: ScannerConfig, grid: VoxelGrid) -> SystemMatrix:
    """Simulate the scanner response of every voxel over one drive period:
    every column of FieldResponse(cfg, grid), stored.

    The returned data is C-contiguous (coils, freqs, voxels): apply's
    matrix product takes another BLAS kernel, and other bits, on a
    transposed layout. Raises ValueError as FieldResponse does.
    """
    return SystemMatrix(FieldResponse(cfg, grid).columns(slice(None)), grid, cfg.period_ms)
