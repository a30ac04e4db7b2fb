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
drive-frequency scale; an overall receiver gain is configurable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "VoxelGrid",
    "ScannerConfig",
    "Phantom",
    "SystemMatrix",
    "ConeSupport",
    "TubeSupport",
    "BoxSupport",
    "langevin",
    "rasterize_support",
    "rasterize_shifted",
    "phantom_support",
    "make_phantom",
    "simulate_system_matrix",
]

MU0 = 4.0e-7 * np.pi
BOLTZMANN = 1.380649e-23
# Saturation induction of the particle core material (magnetite-like), tesla.
CORE_SATURATION_T = 0.6
# rasterize_shifted tests consecutive shifts on one sample lattice of at most
# this many points, handing support.contains _CONTAINS_POINTS per call.
_LATTICE_POINTS = 1 << 22
_CONTAINS_POINTS = 1 << 14


def langevin(xi):
    """Langevin function coth(xi) - 1/xi, elementwise.

    Uses the series xi/3 - xi**3/45 for |xi| < 1e-4 where the direct
    expression loses all significant digits.
    """
    xi = np.asarray(xi, dtype=np.float64)
    out = np.empty_like(xi)
    small = np.abs(xi) < 1e-4
    xs = xi[small]
    out[small] = xs / 3.0 - xs**3 / 45.0
    xl = xi[~small]
    out[~small] = 1.0 / np.tanh(xl) - 1.0 / xl
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class VoxelGrid:
    """Axis-aligned voxel grid, by default centered on the scanner origin.

    ``shape`` is (nx, ny, nz); ``spacing_mm`` the voxel pitch per axis;
    ``origin_mm`` is the center of voxel (0, 0, 0) and defaults to the
    placement that centers the whole grid on the origin. Voxel (ix, iy, iz)
    has center origin + (ix*sx, iy*sy, iz*sz) mm and flat index
    ix*ny*nz + iy*nz + iz (C order), which fixes the column order of the
    system matrix and the layout of image vectors.
    """

    shape: tuple[int, int, int]
    spacing_mm: tuple[float, float, float]
    origin_mm: tuple[float, float, float] | None = None

    def __post_init__(self):
        if len(self.shape) != 3 or any(int(n) != n or n < 1 for n in self.shape):
            raise ValueError("grid shape must be three positive integers")
        if len(self.spacing_mm) != 3 or any(not 0 < s < np.inf for s in self.spacing_mm):
            raise ValueError("grid spacing must be three positive finite lengths")
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        object.__setattr__(self, "spacing_mm", tuple(float(s) for s in self.spacing_mm))
        if self.origin_mm is None:
            centered = tuple(
                -(n - 1) / 2.0 * s for n, s in zip(self.shape, self.spacing_mm)
            )
            object.__setattr__(self, "origin_mm", centered)
        else:
            if len(self.origin_mm) != 3:
                raise ValueError("grid origin must be three coordinates")
            object.__setattr__(self, "origin_mm", tuple(float(c) for c in self.origin_mm))

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

    One receive coil per driven axis. Drive frequencies must be integer
    harmonics of 1/period so the trajectory closes after one period; the
    default 2-D setting uses the 16:17 frequency ratio that yields a dense
    Lissajous figure.
    """

    dims: int = 2
    drive_frequencies_khz: tuple[float, ...] = (15.625, 16.6015625)
    drive_amplitudes_mt: tuple[float, ...] = (12.0, 12.0)
    gradient_t_per_m: tuple[float, ...] = (1.0, 1.0)
    period_ms: float = 1.024
    samples_per_period: int = 2048
    particle_diameter_nm: float = 30.0
    temperature_k: float = 300.0
    receiver_gain: float = 1.0

    def __post_init__(self):
        if self.dims not in (1, 2):
            raise ValueError("dims must be 1 or 2")
        for name in ("drive_frequencies_khz", "drive_amplitudes_mt", "gradient_t_per_m"):
            vals = getattr(self, name)
            if len(vals) != self.dims:
                raise ValueError(f"{name} must have one entry per driven axis")
            object.__setattr__(self, name, tuple(float(v) for v in vals))
        if not 0 < self.period_ms < np.inf:
            raise ValueError("period_ms must be positive and finite")
        n = self.samples_per_period
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError("samples_per_period must be a power of two >= 4")
        if any(a < 0 for a in self.drive_amplitudes_mt):
            raise ValueError("drive amplitudes must be nonnegative")
        if any(g == 0 for g in self.gradient_t_per_m):
            raise ValueError("selection gradient is degenerate (zero on a driven axis)")
        if self.particle_diameter_nm <= 0 or self.temperature_k <= 0:
            raise ValueError("particle diameter and temperature must be positive")
        if self.receiver_gain <= 0:
            raise ValueError("receiver_gain must be positive")
        for f in self.drive_frequencies_khz:
            cycles = f * self.period_ms
            if abs(cycles - round(cycles)) > 1e-9 or round(cycles) < 1:
                raise ValueError(
                    "drive frequency %g kHz is not an integer harmonic of 1/period" % f
                )

    @property
    def coils(self) -> int:
        return self.dims

    @property
    def freq_count(self) -> int:
        return self.samples_per_period // 2 + 1

    @property
    def bin_khz(self) -> float:
        """Frequency spacing of the spectral bins: bin j sits at j/period kHz."""
        return 1.0 / self.period_ms

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


def _sample_axes(grid: VoxelGrid, subsamples: int) -> list[np.ndarray]:
    """Per axis, voxel center plus stratified midpoint offset for every
    voxel and subsample: (n * subsamples,) coordinates in mm, voxel-major."""
    out = []
    for a, s in enumerate(grid.spacing_mm):
        offsets = ((np.arange(subsamples) + 0.5) / subsamples - 0.5) * s
        out.append((grid.axis_centers_mm(a)[:, None] + offsets[None, :]).ravel())
    return out


def _shift_groups(samples, shifts):
    """Split the shifts into consecutive runs (lo, hi) whose joint sample
    lattice holds at most _LATTICE_POINTS points; a run has >= 1 shift."""
    lo, seen = 0, None
    for k, shift in enumerate(shifts):
        coords = [set((x - d).tolist()) for x, d in zip(samples, shift)]
        if seen is not None:
            fresh = [c - s for c, s in zip(coords, seen)]
            size = int(np.prod([len(s) + len(f) for s, f in zip(seen, fresh)]))
            if size <= _LATTICE_POINTS:
                for s, f in zip(seen, fresh):
                    s |= f
                continue
            yield lo, k
            lo = k
        seen = coords
    if seen is not None:
        yield lo, len(shifts)


def _contains_product(support, axes) -> np.ndarray:
    """support.contains on the Cartesian product of three coordinate
    arrays, in blocks of at most _CONTAINS_POINTS points: a boolean
    (len x, len y, len z) lattice."""
    shape = tuple(len(x) for x in axes)
    bz = min(shape[2], _CONTAINS_POINTS)
    by = min(shape[1], max(1, _CONTAINS_POINTS // bz))
    bx = max(1, _CONTAINS_POINTS // (by * bz))
    inside = np.empty(shape, dtype=bool)
    for x0, y0, z0 in itertools.product(*(range(0, n, b) for n, b in
                                          zip(shape, (bx, by, bz)))):
        block = (slice(x0, x0 + bx), slice(y0, y0 + by), slice(z0, z0 + bz))
        x, y, z = (c[b] for c, b in zip(axes, block))
        points = np.empty((len(x), len(y), len(z), 3))
        points[..., 0] = x[:, None, None]
        points[..., 1] = y[None, :, None]
        points[..., 2] = z[None, None, :]
        inside[block] = support.contains(points.reshape(-1, 3)).reshape(points.shape[:3])
    return inside


def rasterize_shifted(support, grid: VoxelGrid, concentration: float,
                      shifts_mm, subsamples: int = 4) -> np.ndarray:
    """Rasterize a geometric support onto the grid once per shift.

    Image k, voxel v gets concentration times the fraction of the voxel's
    subsamples**3 stratified sample points p for which p - shifts_mm[k]
    lies inside the support. Returns (k, nx, ny, nz).

    Sample coordinates are separable per axis: center + offset - shift,
    computed in that order. So consecutive shifts share one lattice, the
    Cartesian product of the distinct per-axis coordinates, and one
    membership test on it. Each image is then gathered from the lattice,
    and every value is bitwise what testing that shift's sample points one
    by one gives. A lattice holds at most _LATTICE_POINTS points unless one
    shift alone needs more. A ShiftGrid that fits one lattice costs at most
    as many points as testing its shifts one by one, and far fewer where
    the step is a multiple of the subsample pitch; an unstructured shift
    list, or a grid split across lattices, may cost more.
    """
    if support is None or not hasattr(support, "contains"):
        raise TypeError("support has no point-membership test")
    if subsamples < 1:
        raise ValueError("subsamples must be >= 1")
    shifts = np.asarray(shifts_mm, dtype=np.float64)
    if shifts.ndim != 2 or shifts.shape[1] != 3:
        raise ValueError("shifts must be a (k, 3) array in mm")
    samples = _sample_axes(grid, subsamples)
    split = tuple(x for n in grid.shape for x in (n, subsamples))
    out = np.empty((len(shifts),) + grid.shape)
    for lo, hi in _shift_groups(samples, shifts):
        axes = [np.unique(x[None, :] - shifts[lo:hi, a, None], return_inverse=True)
                for a, x in enumerate(samples)]
        lattice = _contains_product(support, [values for values, _ in axes])
        rows = [inverse.reshape(hi - lo, -1) for _, inverse in axes]
        # gather along the axis that shrinks the lattice most first
        order = np.argsort([r.shape[1] / n for r, n in zip(rows, lattice.shape)])
        for k in range(lo, hi):
            inside = lattice
            for a in order:
                inside = inside.take(rows[a][k - lo], axis=a)
            inside = inside.reshape(split).transpose(0, 2, 4, 1, 3, 5)
            frac = inside.reshape(grid.voxel_count, subsamples**3).mean(axis=1)
            out[k] = (concentration * frac).reshape(grid.shape)
    return out


def rasterize_support(support, grid: VoxelGrid, concentration: float,
                      subsamples: int = 4, shift_mm=None) -> np.ndarray:
    """Rasterize a geometric support onto the grid: the one-shift case of
    rasterize_shifted (no shift when ``shift_mm`` is None).

    Phantom generation and reference rasterization share rasterize_shifted,
    so a zero-shift reference equals the phantom bit for bit.
    """
    shift = (0.0, 0.0, 0.0) if shift_mm is None else shift_mm
    return rasterize_shifted(support, grid, concentration, [shift], subsamples)[0]


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


def phantom_support(kind: str, grid: VoxelGrid, **params):
    """Analytic support geometry of a stock phantom on ``grid``.

    kind = "delta":            the box of one interior voxel.
    kind = "shape-cone":       truncated cone along +x, sized to the grid
                               (override with apex_mm/axis/tip_radius_mm/
                               half_angle_deg/height_mm).
    kind = "resolution-tubes": five thin tubes fanning out from a common
                               origin in the x-y plane (override with
                               angles_deg/radius_mm/length_mm/origin_mm).
    """
    ex = grid.extent_mm()[0]
    sx = grid.spacing_mm[0]
    if kind == "delta":
        idx = tuple(n // 2 for n in grid.shape)
        center = grid.centers_mm().reshape(grid.shape + (3,))[idx]
        return BoxSupport(center, grid.spacing_mm)
    if kind == "shape-cone":
        height = params.pop("height_mm", 0.55 * ex)
        apex = params.pop("apex_mm", (-height / 2.0, 0.0, 0.0))
        axis = params.pop("axis", (1.0, 0.0, 0.0))
        tip_radius = params.pop("tip_radius_mm", 0.8 * sx)
        half_angle = params.pop("half_angle_deg", 10.0)
        _reject_extra(kind, params)
        return ConeSupport(apex, axis, tip_radius, half_angle, height)
    if kind == "resolution-tubes":
        angles = params.pop("angles_deg", (-24.0, -12.0, 0.0, 12.0, 24.0))
        radius = params.pop("radius_mm", 0.8 * sx)
        length = params.pop("length_mm", 0.72 * ex)
        origin = np.asarray(params.pop("origin_mm", (-0.38 * ex, 0.0, 0.0)), dtype=np.float64)
        _reject_extra(kind, params)
        segments = []
        for a in angles:
            rad = np.deg2rad(a)
            direction = np.array([np.cos(rad), np.sin(rad), 0.0])
            segments.append((origin, origin + length * direction, radius))
        return TubeSupport(segments)
    raise ValueError(f"unknown phantom kind: {kind!r}")


def make_phantom(kind: str, grid: VoxelGrid, concentration: float,
                 subsamples: int = 4, **params) -> Phantom:
    """Build one of the stock phantoms of phantom_support, or
    kind = "custom": caller-provided ``values`` array, no geometry.

    The delta phantom is its voxel at full concentration; the others are
    their support rasterized with ``subsamples`` per axis.
    """
    if concentration <= 0:
        raise ValueError("concentration must be positive")
    if kind == "custom":
        values = params.pop("values", None)
        _reject_extra(kind, params)
        if values is None:
            raise ValueError("custom phantom requires a values array")
        return Phantom(grid, values, kind, concentration, None)
    support = phantom_support(kind, grid, **params)
    if kind == "delta":
        values = np.zeros(grid.shape)
        values[tuple(n // 2 for n in grid.shape)] = concentration
        return Phantom(grid, values, kind, concentration, support)
    values = rasterize_support(support, grid, concentration, subsamples)
    if not np.any(values > 0):
        raise ValueError("phantom support does not intersect the grid")
    return Phantom(grid, values, kind, concentration, support)


def _reject_extra(kind, params):
    if params:
        raise ValueError(f"unknown parameters for phantom kind {kind!r}: {sorted(params)}")


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

    def frequencies_khz(self) -> np.ndarray:
        return np.arange(self.freq_count) / self.period_ms

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Noise-free spectra (coils, freqs) for a concentration image."""
        x = np.asarray(x, dtype=np.float64)
        flat = x.ravel()
        if flat.shape[0] != self.voxel_count:
            raise ValueError("concentration vector does not match the voxel count")
        return self.data @ flat


def simulate_system_matrix(cfg: ScannerConfig, grid: VoxelGrid,
                           chunk_voxels: int = 512) -> SystemMatrix:
    """Simulate the scanner response of every voxel over one drive period.

    For voxel position r the total field is B(t) = G*r + drive(t); the mean
    magnetization direction response L(beta*|B|) * B/|B| is sampled over one
    period, differentiated spectrally with respect to the phase t/period, and
    its one-sided Fourier coefficients form the matrix rows. Deterministic:
    no randomness enters here.
    """
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

    n = cfg.samples_per_period
    phase = np.arange(n, dtype=np.float64) / n
    harmonics = [round(f * cfg.period_ms) for f in cfg.drive_frequencies_khz]
    drive = np.stack(
        [
            amp * 1e-3 * np.sin(2.0 * np.pi * h * phase)
            for amp, h in zip(cfg.drive_amplitudes_mt, harmonics)
        ],
        axis=1,
    )  # (n, dims), tesla
    static_all = centers[:, : cfg.dims] * 1e-3 * np.asarray(cfg.gradient_t_per_m)  # (m, dims)

    beta = cfg.langevin_beta()
    m = grid.voxel_count
    freq_count = cfg.freq_count
    deriv = 1j * 2.0 * np.pi * np.arange(freq_count) * cfg.receiver_gain
    data = np.empty((cfg.dims, freq_count, m), dtype=np.complex128)
    for start in range(0, m, chunk_voxels):
        stop = min(start + chunk_voxels, m)
        b = static_all[start:stop, None, :] + drive[None, :, :]  # (chunk, n, dims)
        norm = np.linalg.norm(b, axis=2)
        ell = langevin(beta * norm)
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(norm > 0.0, ell / norm, 0.0)
        waveform = scale[:, :, None] * b  # mean magnetization direction response
        coeffs = np.fft.rfft(waveform, axis=1) / n
        coeffs *= deriv[None, :, None]
        data[:, :, start:stop] = np.transpose(coeffs, (2, 1, 0))
    return SystemMatrix(data, grid, cfg.period_ms)
