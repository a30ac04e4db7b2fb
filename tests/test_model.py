import math

import numpy as np
import pytest

from robust_recon import model
from robust_recon.model import (
    BoxSupport,
    ConeSupport,
    PHANTOM_KINDS,
    FieldResponse,
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


def test_langevin_at_zero():
    assert langevin(0.0) == 0.0


def test_langevin_saturates():
    assert langevin(50.0) > 0.97


def test_langevin_at_one_matches_coth_oracle():
    # oracle: direct numeric evaluation of coth(1) - 1
    oracle = math.cosh(1.0) / math.sinh(1.0) - 1.0
    value = langevin(1.0)
    assert abs(value - oracle) <= 1e-15
    assert abs(value - 0.313035) < 1e-6


def test_langevin_odd_bounded_monotone():
    xs = np.linspace(-60.0, 60.0, 1000)
    vals = langevin(xs)
    assert np.all(np.abs(vals) < 1.0)
    assert np.max(np.abs(langevin(-xs) + vals)) <= 1e-15
    assert np.all(np.diff(vals) >= 0.0)


def test_langevin_series_region_is_continuous():
    # near the formula switch both branches must agree with the Taylor
    # expansion; the direct formula carries ~1e-7 cancellation noise there
    for x in (0.99e-4, 1.01e-4):
        oracle = x / 3.0 - x**3 / 45.0
        assert abs(langevin(x) - oracle) <= 5e-7 * oracle
    assert langevin(0.99e-4) < langevin(1.01e-4)


def test_langevin_vectorized_shape():
    arr = langevin(np.zeros((2, 3)))
    assert arr.shape == (2, 3)
    assert isinstance(langevin(1.0), float)


def test_voxel_grid_centers_and_flat_order():
    grid = VoxelGrid((5, 5, 1), (2.0, 2.0, 1.0))
    centers = grid.centers_mm()
    assert grid.voxel_count == 25
    assert np.array_equal(centers[0], [-4.0, -4.0, 0.0])
    # C order: the z/y axes vary fastest
    assert np.array_equal(centers[1], [-4.0, -2.0, 0.0])
    assert np.array_equal(centers[2 * 5 + 2], [0.0, 0.0, 0.0])


def test_voxel_grid_origin_default_and_explicit():
    grid = VoxelGrid((4, 2, 1), (1.0, 2.0, 3.0))
    assert grid.origin_mm == (-1.5, -1.0, 0.0)
    # the origin follows from shape and spacing; it is not a field
    with pytest.raises(TypeError, match="origin_mm"):
        VoxelGrid((2, 1, 1), (1.0, 1.0, 1.0), origin_mm=(10.0, 0.0, 0.0))


def test_voxel_grid_validation():
    with pytest.raises(ValueError):
        VoxelGrid((0, 1, 1), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        VoxelGrid((2, 2, 1), (1.0, 0.0, 1.0))


def test_make_phantom_delta():
    grid = VoxelGrid((5, 5, 1), (1.0, 1.0, 1.0))
    ph = make_phantom("delta", grid, 50.0)
    assert ph.values.shape == grid.shape
    assert np.count_nonzero(ph.values) == 1
    assert ph.values[2, 2, 0] == 50.0


@pytest.mark.parametrize("subsamples", [1, 3, 4])
@pytest.mark.parametrize("grid", [
    VoxelGrid((6, 5, 3), (0.5, 1.0, 2.0)),
    VoxelGrid((16, 1, 1), (1.0, 1.0, 1.0)),
    VoxelGrid((20, 20, 1), (1.0, 1.0, 1.0)),
], ids=["6x5x3", "16x1x1", "20x20x1"])
def test_delta_phantom_is_one_hot_at_the_centre_voxel(grid, subsamples):
    # the rasterized box covers every sample point of its voxel and none
    # of any neighbour's
    expected = np.zeros(grid.shape)
    expected[tuple(n // 2 for n in grid.shape)] = 50.0
    ph = make_phantom("delta", grid, 50.0, subsamples)
    assert ph.values.tobytes() == expected.tobytes()


def test_delta_phantom_rejects_unknown_parameters():
    grid = VoxelGrid((5, 5, 1), (1.0, 1.0, 1.0))
    with pytest.raises(TypeError, match="banana"):
        make_phantom("delta", grid, 50.0, banana=1)
    with pytest.raises(TypeError, match="banana"):
        phantom_support("delta", grid, banana=1)


def test_make_phantom_cone_full_voxel_exact():
    grid = VoxelGrid((5, 5, 1), (1.0, 1.0, 1.0))
    ph = make_phantom("shape-cone", grid, 50.0)
    # the default cone encloses the center voxel completely
    assert ph.values[2, 2, 0] == 50.0
    assert ph.support is not None


def test_make_phantom_cone_half_covered_voxel():
    grid = VoxelGrid((5, 5, 1), (1.0, 1.0, 1.0))
    # frustum cap plane through the center voxel's midpoint: the wide cone
    # covers exactly the half of the voxel with x below the cap
    cone = ConeSupport(apex_mm=(-3.0, 0.0, 0.0), axis=(1.0, 0.0, 0.0),
                       tip_radius_mm=50.0, half_angle_deg=10.0, height_mm=3.0)
    values = rasterize_support(cone, grid, 50.0, subsamples=4)
    assert abs(values[2, 2, 0] - 25.0) <= 50.0 / 64.0


def test_make_phantom_value_bounds():
    grid = VoxelGrid((7, 7, 1), (1.0, 1.0, 1.0))
    for kind in ("shape-cone", "resolution-tubes"):
        ph = make_phantom(kind, grid, 50.0)
        assert np.all(ph.values >= 0.0)
        assert np.all(ph.values <= 50.0)
        assert np.any(ph.values > 0.0)


def test_make_phantom_errors():
    grid = VoxelGrid((5, 5, 1), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        make_phantom("blob", grid, 50.0)
    with pytest.raises(ValueError):
        make_phantom("delta", grid, 0.0)
    with pytest.raises(ValueError, match="unknown phantom kind"):
        make_phantom("custom", grid, 50.0)
    # the stock supports hug the x axis; with two 10 mm voxels in y every
    # sample point lies at least 1.25 mm off it
    thin = VoxelGrid((20, 2, 1), (0.1, 10.0, 1.0))
    for kind in ("shape-cone", "resolution-tubes"):
        with pytest.raises(ValueError, match="does not intersect"):
            make_phantom(kind, thin, 50.0)


@pytest.mark.parametrize("kind", ["shape-cone", "resolution-tubes"])
@pytest.mark.parametrize("grid", [
    VoxelGrid((20, 20, 1), (1.0, 1.0, 1.0)),
    VoxelGrid((11, 9, 1), (0.3, 0.7, 1.0)),
])
def test_phantom_support_rasterizes_to_make_phantom(kind, grid):
    values = rasterize_support(phantom_support(kind, grid), grid, 50.0, 3)
    assert np.array_equal(values, make_phantom(kind, grid, 50.0, subsamples=3).values)


def test_phantom_support_delta_box_is_the_nonzero_voxel():
    grid = VoxelGrid((6, 5, 3), (0.5, 1.0, 2.0))
    support = phantom_support("delta", grid)
    ph = make_phantom("delta", grid, 50.0)
    (flat,) = np.flatnonzero(ph.values)
    assert np.array_equal(support.center, grid.centers_mm()[flat])
    assert np.array_equal(support.size, grid.spacing_mm)
    with pytest.raises(ValueError):
        phantom_support("custom", grid)


def test_phantom_custom_values_and_validation():
    grid = VoxelGrid((2, 2, 1), (1.0, 1.0, 1.0))
    values = np.array([[[1.0], [0.0]], [[2.0], [3.0]]])
    ph = Phantom(grid, values, "custom", 50.0)
    assert np.array_equal(ph.flat(), [1.0, 0.0, 2.0, 3.0])
    assert ph.support is None
    with pytest.raises(ValueError):
        Phantom(grid, -values, "custom", 50.0)
    with pytest.raises(ValueError):
        Phantom(grid, np.zeros((3, 3, 1)), "custom", 50.0)


def test_rasterize_support_matches_pointwise_oracle():
    grid = VoxelGrid((4, 3, 2), (1.0, 1.5, 2.0))
    rng = np.random.default_rng(11)
    for _ in range(5):
        center = rng.uniform(-2.0, 2.0, size=3)
        size = rng.uniform(0.5, 3.0, size=3)
        support = BoxSupport(center, size)
        s = 3
        values = rasterize_support(support, grid, 50.0, subsamples=s)
        # oracle: scalar loop over voxels and stratified midpoints
        expected = np.zeros(grid.shape)
        centers = grid.centers_mm().reshape(grid.shape + (3,))
        for ix in range(grid.shape[0]):
            for iy in range(grid.shape[1]):
                for iz in range(grid.shape[2]):
                    hits = 0
                    for a in range(s):
                        for b in range(s):
                            for c in range(s):
                                off = (np.array([a, b, c]) + 0.5) / s - 0.5
                                point = centers[ix, iy, iz] + off * grid.spacing_mm
                                hits += bool(support.contains(point[None, :])[0])
                    expected[ix, iy, iz] = 50.0 * hits / s**3
        assert np.allclose(values, expected, rtol=0.0, atol=1e-12)


def test_rasterize_support_requires_membership_test():
    grid = VoxelGrid((2, 2, 1), (1.0, 1.0, 1.0))
    with pytest.raises(TypeError):
        rasterize_support(object(), grid, 50.0)
    with pytest.raises(ValueError):
        rasterize_support(BoxSupport((0, 0, 0), (1, 1, 1)), grid, 50.0, subsamples=0)


def test_rasterize_shifted_shapes_and_validation():
    grid = VoxelGrid((3, 2, 1), (1.0, 1.0, 1.0))
    box = BoxSupport((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    stack = rasterize_shifted(box, grid, 50.0, [(0.0, 1.0), [0.0], [0.0]])
    assert stack.shape == (2, 3, 2, 1)
    assert np.array_equal(stack[0], rasterize_support(box, grid, 50.0))
    assert np.array_equal(stack[1], rasterize_shifted(box, grid, 50.0, [[1.0], [0.0], [0.0]])[0])
    for axis in range(3):
        axes = [[0.0], [0.0], [0.0]]
        axes[axis] = []
        assert rasterize_shifted(box, grid, 50.0, axes).shape == (0, 3, 2, 1)
    # a (3, k) array is k values per axis, not k shift triples: no error, k**3 images
    triples = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]
    assert rasterize_shifted(box, grid, 50.0, triples).shape == (27, 3, 2, 1)
    for bad in [(0.0, 0.0, 0.0), [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], np.zeros((4, 3)),
                [[0.0], [0.0]]]:
        with pytest.raises(ValueError):
            rasterize_shifted(box, grid, 50.0, bad)

    class NoBox:
        contains = box.contains

    for support in [None, NoBox()]:
        with pytest.raises(TypeError):
            rasterize_shifted(support, grid, 50.0, [[0.0], [0.0], [0.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rasterize_shifted_rejects_non_finite_shifts(bad):
    # such a shift used to give an all-zero reference image
    grid = VoxelGrid((3, 2, 1), (1.0, 1.0, 1.0))
    covering = BoxSupport((0.0, 0.0, 0.0), (10.0, 10.0, 10.0))
    for axis in range(3):
        axes = [[0.0], [0.0], [0.0]]
        axes[axis] = [0.0, bad]
        with pytest.raises(ValueError, match="finite"):
            rasterize_shifted(covering, grid, 50.0, axes)


def test_support_bounds_are_the_analytic_boxes_padded():
    box = BoxSupport((1.0, -2.0, 0.5), (2.0, 1.0, 3.0))
    lo, hi = box.bounds_mm()
    assert np.allclose(lo, [0.0, -2.5, -1.0], rtol=0, atol=3e-9) and np.all(lo < [0.0, -2.5, -1.0])
    assert np.allclose(hi, [2.0, -1.5, 2.0], rtol=0, atol=3e-9) and np.all(hi > [2.0, -1.5, 2.0])
    # a cone along +x: its tip at x = 0, its base disc of radius 1 + 4 tan 45 = 5
    lo, hi = ConeSupport((0.0, 0.0, 0.0), (2.0, 0.0, 0.0), 1.0, 45.0, 4.0).bounds_mm()
    assert np.allclose(lo, [0.0, -5.0, -5.0], rtol=0, atol=1e-8)
    assert np.allclose(hi, [4.0, 5.0, 5.0], rtol=0, atol=1e-8)
    # a tube along y of radius 0.5
    lo, hi = TubeSupport([((1.0, -1.0, 0.0), (1.0, 3.0, 0.0), 0.5)]).bounds_mm()
    assert np.allclose(lo, [0.5, -1.0, -0.5], rtol=0, atol=1e-8)
    assert np.allclose(hi, [1.5, 3.0, 0.5], rtol=0, atol=1e-8)


def test_axis_centers_match_centers():
    grid = VoxelGrid((4, 3, 2), (0.3, 0.7, 1.1))
    centers = grid.centers_mm().reshape(grid.shape + (3,))
    assert np.array_equal(centers[:, 0, 0, 0], grid.axis_centers_mm(0))
    assert np.array_equal(centers[0, :, 0, 1], grid.axis_centers_mm(1))
    assert np.array_equal(centers[0, 0, :, 2], grid.axis_centers_mm(2))


def test_support_geometry_validation():
    with pytest.raises(ValueError):
        ConeSupport((0, 0, 0), (0, 0, 0), 1.0, 10.0, 5.0)
    with pytest.raises(ValueError):
        ConeSupport((0, 0, 0), (1, 0, 0), 1.0, 95.0, 5.0)
    with pytest.raises(ValueError):
        TubeSupport([((0, 0, 0), (0, 0, 0), 1.0)])
    with pytest.raises(ValueError):
        BoxSupport((0, 0, 0), (1.0, -1.0, 1.0))


def test_scanner_config_validation():
    # the axis count is the common length of the drive tuples, not a field
    assert ScannerConfig().dims == 2
    with pytest.raises(TypeError):
        ScannerConfig(dims=1)
    def axes(n):
        return {"drive_frequencies_khz": (25.0,) * n, "drive_amplitudes_mt": (12.0,) * n,
                "gradient_t_per_m": (1.0,) * n, "period_ms": 1.0}

    assert ScannerConfig(**axes(1)).dims == 1
    for n in (0, 3):
        with pytest.raises(ValueError, match="one entry per driven axis, 1 or 2 axes"):
            ScannerConfig(**axes(n))
    with pytest.raises(ValueError, match="one entry per driven axis"):
        ScannerConfig(drive_frequencies_khz=(25.0,), period_ms=1.0)  # two amplitudes
    with pytest.raises(ValueError):
        ScannerConfig(samples_per_period=100)
    with pytest.raises(ValueError):
        ScannerConfig(gradient_t_per_m=(0.0, 1.0))
    with pytest.raises(ValueError):
        ScannerConfig(drive_amplitudes_mt=(-1.0, 12.0))
    # |B| stays below twice the amplitude, so sum (2e-3 a)^2 T^2 must be finite
    ScannerConfig(drive_amplitudes_mt=(4.7e156, 4.7e156))
    for amplitudes in [(5e156, 5e156), (1e308, 1e308), (12.0, math.nan)]:
        with pytest.raises(ValueError, match="non-finite squared field norm"):
            ScannerConfig(drive_amplitudes_mt=amplitudes)
    with pytest.raises(ValueError):
        # 15 kHz over 1.024 ms is not an integer number of cycles
        ScannerConfig(drive_frequencies_khz=(15.0, 16.6015625))


def test_scanner_derived_quantities(scanner_1d):
    assert scanner_1d.coils == 1
    assert scanner_1d.freq_count == 256 // 2 + 1
    assert scanner_1d.fov_half_extent_mm() == (12.0,)


def test_langevin_beta_matches_first_principles(scanner_1d):
    # oracle: beta = mu0 * Ms * (pi/6) d^3 / (kB T) recomputed from constants
    mu0 = 4e-7 * math.pi
    kb = 1.380649e-23
    d = 30e-9
    t = 300.0
    ms = 0.6 / mu0
    moment = ms * math.pi / 6.0 * d**3
    beta = moment / (kb * t)  # field argument is in tesla
    assert abs(scanner_1d.langevin_beta() - beta) <= 1e-12 * beta
    # drive amplitudes of ~10 mT must reach well into the nonlinear range
    assert langevin(beta * 12e-3) > 0.9


def test_simulate_zero_drive_gives_zero_row():
    cfg = ScannerConfig(
        drive_frequencies_khz=(25.0,),
        drive_amplitudes_mt=(0.0,),
        gradient_t_per_m=(1.0,),
        period_ms=1.0,
        samples_per_period=64,
    )
    grid = VoxelGrid((1, 1, 1), (1.0, 1.0, 1.0))
    system = simulate_system_matrix(cfg, grid)
    assert np.all(system.data == 0.0)


def test_simulate_determinism(scanner_2d, grid_2d):
    a = simulate_system_matrix(scanner_2d, grid_2d)
    b = simulate_system_matrix(scanner_2d, grid_2d)
    assert a.data.dtype == np.complex128
    assert np.array_equal(a.data, b.data)


def test_simulate_shape_and_frequencies(system_2d, scanner_2d, grid_2d):
    assert system_2d.data.shape == (2, 129, 64)
    assert system_2d.coils == 2
    assert system_2d.freq_count == scanner_2d.freq_count == 129
    assert system_2d.period_ms == scanner_2d.period_ms


def test_concentration_doubling_is_exact(system_1d, rng):
    x = rng.uniform(0.0, 50.0, size=system_1d.voxel_count)
    assert np.array_equal(system_1d.apply(2.0 * x), 2.0 * system_1d.apply(x))


def test_forward_linearity(system_2d, rng):
    m = system_2d.voxel_count
    for _ in range(5):
        a, b = rng.uniform(-3.0, 3.0, size=2)
        x1, x2 = rng.uniform(0.0, 50.0, size=(2, m))
        lhs = system_2d.apply(a * x1 + b * x2)
        rhs = a * system_2d.apply(x1) + b * system_2d.apply(x2)
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_odd_harmonic_energy_dominates_1d(system_1d):
    # centered point sample: the drive at bin 25 generates odd harmonics
    x = np.zeros(system_1d.voxel_count)
    x[2] = 1.0
    spectrum = np.abs(system_1d.apply(x)[0]) ** 2
    base = 25
    odd = sum(spectrum[k * base] for k in (1, 3, 5) if k * base < spectrum.size)
    even = sum(spectrum[k * base] for k in (2, 4) if k * base < spectrum.size)
    assert odd > 10.0 * even


def test_simulate_rejects_grid_outside_fov(scanner_1d):
    grid = VoxelGrid((31, 1, 1), (1.0, 1.0, 1.0))  # centers reach 15 > 12 mm
    with pytest.raises(ValueError, match="field-free point"):
        simulate_system_matrix(scanner_1d, grid)


def test_simulate_rejects_thick_grid_on_undriven_axis(scanner_1d):
    grid = VoxelGrid((3, 2, 1), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        simulate_system_matrix(scanner_1d, grid)


def test_system_matrix_validation(grid_2d):
    with pytest.raises(ValueError):
        SystemMatrix(np.zeros((2, 5, 64)), grid_2d, 1.0)  # real data
    with pytest.raises(ValueError):
        SystemMatrix(np.zeros((2, 5, 9), dtype=complex), grid_2d, 1.0)


def test_system_matrix_apply_checks_length(system_1d, scanner_1d, grid_1d):
    with pytest.raises(ValueError):
        system_1d.apply(np.zeros(3))
    with pytest.raises(ValueError, match="voxel count"):
        FieldResponse(scanner_1d, grid_1d).apply(np.zeros(3))


def _langevin_reference(xi):
    # langevin before the whole-array evaluation: masked series and direct
    # branches, kept as the oracle
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


def _simulate_reference(cfg, grid, chunk_voxels=512):
    # simulate_system_matrix before the per-component field loop, kept as
    # the oracle
    centers = grid.centers_mm()
    n = cfg.samples_per_period
    phase = np.arange(n, dtype=np.float64) / n
    harmonics = [round(f * cfg.period_ms) for f in cfg.drive_frequencies_khz]
    drive = np.stack(
        [amp * 1e-3 * np.sin(2.0 * np.pi * h * phase)
         for amp, h in zip(cfg.drive_amplitudes_mt, harmonics)], axis=1)
    static_all = centers[:, : cfg.dims] * 1e-3 * np.asarray(cfg.gradient_t_per_m)
    beta = cfg.langevin_beta()
    m = grid.voxel_count
    deriv = 1j * 2.0 * np.pi * np.arange(cfg.freq_count) * cfg.receiver_gain
    data = np.empty((cfg.dims, cfg.freq_count, m), dtype=np.complex128)
    for start in range(0, m, chunk_voxels):
        stop = min(start + chunk_voxels, m)
        b = static_all[start:stop, None, :] + drive[None, :, :]
        norm = np.linalg.norm(b, axis=2)
        ell = _langevin_reference(beta * norm)
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(norm > 0.0, ell / norm, 0.0)
        coeffs = np.fft.rfft(scale[:, :, None] * b, axis=1) / n
        coeffs *= deriv[None, :, None]
        data[:, :, start:stop] = np.transpose(coeffs, (2, 1, 0))
    return data


LANGEVIN_POINTS = [0.0, -0.0, 0.99e-4, -0.99e-4, 1e-4, -1e-4, 1.01e-4, -1.01e-4,
                   3.7e-5, -6.1e-5, 2.3e-7, 1e-300, -1e-300, 5e-324, 1e-310,
                   1.0, -3.5, 700.0, -700.0,
                   1e300, np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("shape", [(), (0,), (2, 3)])
def test_langevin_matches_masked_branches_bitwise(shape):
    # every point at every position of the shape; runs with RuntimeWarning
    # as an error, so the whole-array direct expression must stay silent
    points = np.array(LANGEVIN_POINTS)
    size = math.prod(shape)
    for start in range(len(points)) if size else [0]:
        xi = np.take(points, np.arange(start, start + size), mode="wrap").reshape(shape)
        got, want = langevin(xi), _langevin_reference(xi)
        if shape == ():
            assert isinstance(got, float)
        got = np.asarray(got)
        assert got.shape == shape
        assert got.tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("case", ["default-2d", "dims-1", "partial-chunk", "gain-2.5"])
def test_simulate_matches_reference_bitwise(case, monkeypatch):
    scanner, grid = {
        "default-2d": (ScannerConfig(), VoxelGrid((20, 20, 1), (1.0, 1.0, 1.0))),
        "dims-1": (ScannerConfig(drive_frequencies_khz=(15.625,),
                                 drive_amplitudes_mt=(12.0,), gradient_t_per_m=(1.0,)),
                   VoxelGrid((23, 1, 1), (1.0, 1.0, 1.0))),
        "partial-chunk": (ScannerConfig(samples_per_period=512),
                          VoxelGrid((13, 11, 1), (1.5, 1.5, 1.0))),
        "gain-2.5": (ScannerConfig(receiver_gain=2.5, samples_per_period=1024),
                     VoxelGrid((9, 9, 1), (2.0, 2.0, 1.0))),
    }[case]
    want = _simulate_reference(scanner, grid).tobytes()
    # chunks of 1, 7, the default and 64 voxels: the chunk size changes no bit
    n = scanner.samples_per_period
    for budget in (n, 7 * n, model._CHUNK_SAMPLES, 64 * n):
        with monkeypatch.context() as patch:
            patch.setattr(model, "_CHUNK_SAMPLES", budget)
            system = simulate_system_matrix(scanner, grid)
        assert system.data.flags.c_contiguous
        assert system.data.tobytes() == want


ONE_AXIS = ScannerConfig(drive_frequencies_khz=(15.625,), drive_amplitudes_mt=(12.0,),
                         gradient_t_per_m=(1.0,))
FIELD_CASES = {
    "20x20": (ScannerConfig(), VoxelGrid((20, 20, 1), (1.0, 1.0, 1.0))),
    "40x40-0.5mm": (ScannerConfig(), VoxelGrid((40, 40, 1), (0.5, 0.5, 1.0))),
    "23x17-anisotropic": (ScannerConfig(), VoxelGrid((23, 17, 1), (0.3, 0.7, 1.0))),
    "64x64-256-samples": (ScannerConfig(samples_per_period=256),
                          VoxelGrid((64, 64, 1), (0.3, 0.3, 1.0))),
    "one-axis-30x1": (ONE_AXIS, VoxelGrid((30, 1, 1), (0.5, 1.0, 1.0))),
    # 5 bins per coil: the 10 rows are one block
    "8-samples": (ScannerConfig(samples_per_period=8, period_ms=1.0,
                                drive_frequencies_khz=(1.0, 2.0)),
                  VoxelGrid((5, 5, 1), (1.0, 1.0, 1.0))),
    # 514 rows in blocks of 27: 19 blocks and one row over
    "one-row-remainder": (ScannerConfig(samples_per_period=512),
                          VoxelGrid((35, 34, 1), (0.5, 0.5, 1.0))),
}


def _images(grid, rng):
    """The stock phantoms, a zero, a sparse and a dense random x."""
    m = grid.voxel_count
    out = {"zero": np.zeros(m), "sparse": rng.random(m) * (rng.random(m) < 0.1),
           "dense": rng.random(m)}
    for kind in PHANTOM_KINDS:
        out[kind] = make_phantom(kind, grid, 50.0).flat()
    return out


@pytest.mark.parametrize("case", list(FIELD_CASES))
def test_field_response_gives_the_system_matrix_bits(case):
    scanner, grid = FIELD_CASES[case]
    system = simulate_system_matrix(scanner, grid)
    field = FieldResponse(scanner, grid)
    assert (field.coils, field.freq_count, field.voxel_count) == system.data.shape
    m = grid.voxel_count
    rng = np.random.default_rng(3)
    for voxels in (slice(0, m), slice(m // 3, m - 1), slice(m - 1, m),
                   rng.choice(m, size=min(m, 37), replace=False), np.array([m - 1, 0])):
        got = field.columns(voxels)
        assert got.flags.c_contiguous
        assert got.tobytes() == system.data[:, :, voxels].tobytes()
    for name, x in _images(grid, rng).items():
        assert field.apply(x).tobytes() == system.apply(x).tobytes(), name


@pytest.mark.parametrize("rows", [2, 3, 4, 8, 27, 64, 100, 171, 256, 2000])
def test_field_response_apply_is_blocking_invariant(rows, monkeypatch):
    # row blocks of many sizes, a one-row remainder included (514 rows in
    # blocks of 3, 27 and 171), and a single block of every row
    scanner, grid = FIELD_CASES["one-row-remainder"]
    system = simulate_system_matrix(scanner, grid)
    monkeypatch.setattr(model, "_CHUNK_SAMPLES", rows * grid.voxel_count)
    field = FieldResponse(scanner, grid)
    for name, x in _images(grid, np.random.default_rng(4)).items():
        assert field.apply(x).tobytes() == system.apply(x).tobytes(), name
