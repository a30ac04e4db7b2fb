import numpy as np
import pytest
from scipy.ndimage import correlate1d

from robust_recon import lattice, metrics, model
from robust_recon.errors import NumericalError
from robust_recon.metrics import (
    ShiftGrid,
    first_argmax,
    psnr,
    psnr_table,
    quality_report,
    rasterize_reference,
    reference_stack,
    shift_max_metric,
    ssim,
    ssim_max,
    ssim_table,
)
from robust_recon.model import (
    BoxSupport,
    ConeSupport,
    TubeSupport,
    VoxelGrid,
    make_phantom,
    rasterize_shifted,
)


def test_shift_grid_counts():
    assert ShiftGrid((3.0, 3.0, 0.0), 0.5).count == 13 * 13
    assert ShiftGrid((3.0, 3.0, 3.0), 0.5).count == 13**3 == 2197
    assert ShiftGrid((0.0, 0.0, 0.0), 1.0).count == 1


def test_shift_grid_enumeration_matches_nested_loop():
    sg = ShiftGrid((1.0, 0.5, 0.0), 0.5)
    oracle = []
    for sx in (-1.0, -0.5, 0.0, 0.5, 1.0):
        for sy in (-0.5, 0.0, 0.5):
            for sz in (0.0,):
                oracle.append((sx, sy, sz))
    assert np.array_equal(sg.shifts(), oracle)
    assert sg.count == len(oracle)
    assert np.array_equal(ShiftGrid((0.0, 0.0, 0.0), 1.0).shifts(), [[0.0, 0.0, 0.0]])


def test_shift_grid_validation():
    with pytest.raises(ValueError):
        ShiftGrid((1.0, 1.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        ShiftGrid((-1.0, 1.0, 0.0), 0.5)
    with pytest.raises(ValueError):
        ShiftGrid((1.3, 1.0, 0.0), 0.5)
    with pytest.raises(ValueError):
        ShiftGrid((1.0, 1.0), 0.5)


def test_rasterize_reference_zero_shift_equals_phantom():
    grid = VoxelGrid((7, 7, 1), (1.0, 1.0, 1.0))
    phantom = make_phantom("shape-cone", grid, 50.0)
    reference = rasterize_reference(phantom.support, (0.0, 0.0, 0.0), grid, 50.0)
    assert np.array_equal(reference.values, phantom.values)
    assert reference.shift_mm == (0.0, 0.0, 0.0)


def test_rasterize_reference_inside_outside():
    grid = VoxelGrid((3, 3, 1), (1.0, 1.0, 1.0))
    covering = BoxSupport((0.0, 0.0, 0.0), (10.0, 10.0, 10.0))
    assert np.all(rasterize_reference(covering, (0, 0, 0), grid, 50.0).values == 50.0)
    distant = BoxSupport((100.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    assert np.all(rasterize_reference(distant, (0, 0, 0), grid, 50.0).values == 0.0)


def test_rasterize_reference_half_space():
    # box face through the voxel centers: half of each center voxel's
    # subsamples fall inside
    grid = VoxelGrid((3, 3, 1), (1.0, 1.0, 1.0))
    half = BoxSupport((-50.0, 0.0, 0.0), (100.0, 100.0, 100.0))
    values = rasterize_reference(half, (0.0, 0.0, 0.0), grid, 50.0, subsamples=4).values
    assert np.all(values[0] == 50.0)
    assert np.all(np.abs(values[1] - 25.0) <= 50.0 / 4.0)
    assert np.all(values[2] == 0.0)


def test_rasterize_reference_shift_equals_translated_support():
    # exact binary coordinates keep both routes bitwise identical
    grid = VoxelGrid((6, 6, 1), (1.0, 1.0, 1.0))
    shift = (0.5, -0.25, 0.0)
    support = BoxSupport((0.25, -0.5, 0.0), (2.5, 1.75, 1.0))
    translated = BoxSupport((0.75, -0.75, 0.0), (2.5, 1.75, 1.0))
    via_shift = rasterize_reference(support, shift, grid, 50.0).values
    via_move = rasterize_reference(translated, (0.0, 0.0, 0.0), grid, 50.0).values
    assert np.array_equal(via_shift, via_move)


def test_reference_stack_matches_loop():
    grid = VoxelGrid((5, 5, 1), (1.0, 1.0, 1.0))
    support = BoxSupport((0.3, -0.6, 0.0), (2.0, 2.0, 1.0))
    sg = ShiftGrid((0.5, 0.5, 0.0), 0.5)
    stack = reference_stack(support, grid, sg, 50.0)
    assert stack.shape == (9, 5, 5, 1)
    for k, shift in enumerate(sg.shifts()):
        expected = rasterize_reference(support, shift, grid, 50.0).values
        assert np.array_equal(stack[k], expected)


class CountingSupport:
    """Wraps a support and records how many points each contains call saw;
    its box is infinite, so every lattice point is tested."""

    def __init__(self, support):
        self.support = support
        self.calls = []

    def contains(self, points):
        self.calls.append(len(points))
        return self.support.contains(points)

    def bounds_mm(self):
        return np.full(3, -np.inf), np.full(3, np.inf)


def per_shift_oracle(support, grid, shift_grid, concentration, subsamples):
    """Every voxel's stratified sample points minus the shift, tested
    point by point, one shift at a time."""
    return shift_list_oracle(support, grid, shift_grid.shifts(), concentration, subsamples)


def shift_list_oracle(support, grid, shifts, concentration, subsamples):
    """per_shift_oracle for a (k, 3) list of shifts."""
    s = subsamples
    per_axis = [((np.arange(s) + 0.5) / s - 0.5) * h for h in grid.spacing_mm]
    offsets = np.stack([o.ravel() for o in np.meshgrid(*per_axis, indexing="ij")], axis=1)
    points = (grid.centers_mm()[:, None, :] + offsets[None, :, :]).reshape(-1, 3)
    out = []
    for shift in shifts:
        inside = support.contains(points - shift).reshape(grid.voxel_count, s**3)
        out.append((concentration * inside.mean(axis=1)).reshape(grid.shape))
    return np.stack(out)


@pytest.mark.parametrize("shape,spacing,extent,step,subsamples", [
    ((11, 9, 1), (0.3, 0.7, 1.0), (0.5, 0.5, 0.0), 0.25, 4),   # non-dyadic
    ((7, 5, 1), (1.0, 1.0, 1.0), (1.0, 1.0, 0.0), 0.5, 3),     # centers at 0.0
    ((6, 5, 4), (0.9, 1.1, 0.8), (0.5, 0.5, 0.5), 0.25, 3),    # 3-D, z shifts
    ((6, 5, 4), (0.9, 1.1, 0.8), (0.5, 0.5, 0.5), 0.25, 1),
])
@pytest.mark.parametrize("kind", ["shape-cone", "resolution-tubes", "delta"])
def test_reference_stack_matches_per_shift_oracle(shape, spacing, extent, step,
                                                  subsamples, kind):
    grid = VoxelGrid(shape, spacing)
    phantom = make_phantom(kind, grid, 50.0, subsamples=subsamples)
    sg = ShiftGrid(extent, step)
    stack = reference_stack(phantom.support, grid, sg, 50.0, subsamples)
    oracle = per_shift_oracle(phantom.support, grid, sg, 50.0, subsamples)
    assert stack.tobytes() == oracle.tobytes()
    zero = int(np.flatnonzero((sg.shifts() == 0.0).all(axis=1))[0])
    assert stack[zero].tobytes() == phantom.values.tobytes()


@pytest.mark.parametrize("kind", ["shape-cone", "resolution-tubes"])
def test_reference_stack_counts_more_points_than_a_byte_holds(kind):
    # 7**3 = 343 sample points per voxel: the counts need 16 bits
    grid = VoxelGrid((5, 4, 3), (0.9, 1.1, 0.8))
    phantom = make_phantom(kind, grid, 50.0, subsamples=7)
    sg = ShiftGrid((0.5, 0.5, 0.5), 0.5)
    stack = reference_stack(phantom.support, grid, sg, 50.0, 7)
    assert stack.tobytes() == per_shift_oracle(phantom.support, grid, sg, 50.0, 7).tobytes()
    assert (stack == 50.0).any() and ((stack > 50.0 * 255 / 343) & (stack < 50.0)).any()
    assert len({shift[2] for shift in sg.shifts()}) == 3


def test_reference_stack_split_into_groups_matches_oracle(monkeypatch):
    grid = VoxelGrid((8, 8, 1), (0.5, 0.5, 1.0))
    phantom = make_phantom("resolution-tubes", grid, 50.0)
    sg = ShiftGrid((1.0, 1.0, 0.0), 0.25)
    oracle = per_shift_oracle(phantom.support, grid, sg, 50.0, 4)
    whole = CountingSupport(phantom.support)
    assert reference_stack(whole, grid, sg, 50.0).tobytes() == oracle.tobytes()
    # a tile budget below one shift's points and small contains blocks
    monkeypatch.setattr(lattice, "_LATTICE_POINTS", 1500)
    monkeypatch.setattr(lattice, "_CONTAINS_POINTS", 700)
    split = CountingSupport(phantom.support)
    assert reference_stack(split, grid, sg, 50.0).tobytes() == oracle.tobytes()
    assert max(split.calls) <= 700
    # CountingSupport's box is infinite, so nothing is cut: the shared lattice
    # is 48 * 48 * 4 points, and the tiles test each of them once, against
    # 4096 points for each of the 81 shifts on its own
    assert sum(split.calls) == sum(whole.calls) == 48 * 48 * 4 < sg.count * 4096
    assert len(split.calls) > len(whole.calls) == 1


# an 8 x 8 grid at 1 mm with 4 subsamples puts its samples at 0.125 + k/4
# mm, and a ShiftGrid step of 0.25 mm keeps every lattice coordinate there
EDGE_GRID = VoxelGrid((8, 8, 1), (1.0, 1.0, 1.0))
EDGE_SHIFTS = ShiftGrid((1.0, 0.5, 0.0), 0.25)


@pytest.mark.parametrize("support", [
    # apex on the sample (0.125, -0.375, 0.125), the box's low corner in x
    # and y: the tilted cone opens at under 37 degrees from its axis
    ConeSupport((0.125, -0.375, 0.125), (0.6, 0.8, 0.0), 0.0, 30.0, 2.5),
    # ends on the lattice coordinates x = -1.625 and 1.375, on y = 0.125
    TubeSupport([((-1.625, 0.125, 0.125), (1.375, 0.125, 0.125), 0.5)]),
    # every face on a plane of samples
    BoxSupport((0.125, -0.375, 0.125), (1.5, 2.0, 0.5)),
], ids=["tilted-cone", "tube", "box"])
def test_reference_stack_with_box_edges_on_samples_matches_oracle(support):
    lo, hi = support.bounds_mm()
    edges = np.concatenate([lo, hi])
    on_sample = np.abs((edges - 0.125) / 0.25 - np.round((edges - 0.125) / 0.25)) < 1e-6
    assert on_sample.any()
    stack = reference_stack(support, EDGE_GRID, EDGE_SHIFTS, 50.0, 4)
    oracle = per_shift_oracle(support, EDGE_GRID, EDGE_SHIFTS, 50.0, 4)
    assert stack.tobytes() == oracle.tobytes()
    assert (stack > 0.0).any()


def random_supports(rng, count):
    """Cones, tubes and boxes of random placement, direction and size."""
    supports = []
    for _ in range(count):
        supports.append(ConeSupport(rng.uniform(-2, 2, 3), rng.normal(size=3),
                                    rng.uniform(0, 1), rng.uniform(1, 60), rng.uniform(0.5, 3)))
        supports.append(TubeSupport([(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3),
                                      rng.uniform(0.1, 1)) for _ in range(2)]))
        supports.append(BoxSupport(rng.uniform(-2, 2, 3), rng.uniform(0.1, 3, 3)))
    return supports


def test_reference_stack_of_random_supports_matches_oracle():
    # random cones, tubes and boxes at a non-dyadic spacing and step
    rng = np.random.default_rng(3)
    grid = VoxelGrid((7, 6, 3), (0.7, 0.9, 1.1))
    sg = ShiftGrid((0.6, 0.3, 0.3), 0.3)
    for support in random_supports(rng, 4):
        stack = reference_stack(support, grid, sg, 50.0, 3)
        assert stack.tobytes() == per_shift_oracle(support, grid, sg, 50.0, 3).tobytes()


def test_support_bounds_hold_every_inside_point():
    rng = np.random.default_rng(7)
    for support in random_supports(rng, 20):
        lo, hi = support.bounds_mm()
        points = rng.uniform(lo - 1.0, hi + 1.0, (20000, 3))
        inside = points[support.contains(points)]
        assert inside.size and (inside >= lo).all() and (inside <= hi).all()


@pytest.mark.parametrize("subsamples", [1, 2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("kind", ["shape-cone", "resolution-tubes", "delta"])
def test_reference_stack_at_every_subsample_count_matches_oracle(subsamples, kind):
    grid = VoxelGrid((6, 5, 2), (0.9, 0.8, 1.0))
    support = make_phantom(kind, grid, 50.0, subsamples=subsamples).support
    sg = ShiftGrid((0.6, 0.3, 0.0), 0.3)
    stack = reference_stack(support, grid, sg, 50.0, subsamples)
    assert stack.tobytes() == per_shift_oracle(support, grid, sg, 50.0, subsamples).tobytes()


def random_shift_axes(rng, count, values=None):
    """Per axis, ``count`` shift values in [-1, 1] mm; drawn from ``values``
    when given, so values repeat, and with -0.0 and 0.0 on every axis."""
    if values is None:
        axes = rng.uniform(-1.0, 1.0, (3, count))
    else:
        axes = rng.choice(values, (3, count))
    axes[:, 0] = (-0.0, 0.0, -0.0)
    axes[:, 1] = (0.0, -0.0, 0.0)
    return list(axes)


@pytest.mark.parametrize("values", [None, (-0.7, -0.0, 0.0, 0.35, 0.6)],
                         ids=["unstructured", "repeated-values"])
@pytest.mark.parametrize("kind", ["shape-cone", "resolution-tubes", "delta"])
def test_rasterize_shifted_on_random_shift_lists_matches_oracle(values, kind):
    # random per-axis shift values against the oracle on their product
    rng = np.random.default_rng(5)
    grid = VoxelGrid((7, 6, 2), (0.8, 0.9, 1.0))
    support = make_phantom(kind, grid, 50.0, subsamples=3).support
    axes = random_shift_axes(rng, 5, values)
    stack = rasterize_shifted(support, grid, 50.0, axes, 3)
    product = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    assert stack.tobytes() == shift_list_oracle(support, grid, product, 50.0, 3).tobytes()


def test_psnr_identical_images_is_inf():
    img = np.random.default_rng(1).uniform(0, 100, (4, 4, 2))
    assert psnr(img, img.copy(), 100.0) == np.inf


def test_psnr_unit_mse_example():
    image = np.zeros((5, 5, 1))
    reference = np.ones((5, 5, 1))
    assert abs(psnr(image, reference, 100.0) - 40.0) <= 1e-12


def test_psnr_joint_scaling_invariance(rng):
    x = rng.uniform(0, 100, (6, 6, 1))
    r = rng.uniform(0, 100, (6, 6, 1))
    for c in (0.25, 2.0, 7.5):
        assert abs(psnr(c * x, c * r, c * 100.0) - psnr(x, r, 100.0)) <= 1e-12


def test_psnr_mse_consistency(rng):
    x = rng.uniform(0, 100, (5, 4, 3))
    r = rng.uniform(0, 100, (5, 4, 3))
    mse = float(np.mean((x - r) ** 2))
    assert abs(psnr(x, r, 100.0) - 10.0 * np.log10(100.0**2 / mse)) <= 1e-10


def test_psnr_validation():
    with pytest.raises(ValueError):
        psnr(np.zeros((2, 2, 1)), np.zeros((3, 2, 1)), 100.0)
    with pytest.raises(ValueError):
        psnr(np.zeros((2, 2, 1)), np.zeros((2, 2, 1)), 0.0)


def test_ssim_self_similarity_is_exactly_one(rng):
    x = rng.uniform(0, 100, (7, 6, 3))
    assert ssim(x, x.copy(), 100.0) == 1.0


def test_ssim_constant_images_closed_form():
    a, b = 30.0, 70.0
    x = np.full((8, 8, 1), a)
    r = np.full((8, 8, 1), b)
    c1 = (0.01 * 100.0) ** 2
    closed = (2 * a * b + c1) / (a * a + b * b + c1)
    assert abs(ssim(x, r, 100.0) - closed) <= 1e-12


def test_ssim_matches_unweighted_brute_force():
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 100, (7, 7, 1))
    r = np.clip(x + rng.normal(0, 10, (7, 7, 1)), 0, 100)
    c1, c2 = (0.01 * 100.0) ** 2, (0.03 * 100.0) ** 2
    h = 5
    px = np.pad(x, ((h, h), (h, h), (0, 0)), mode="symmetric")
    pr = np.pad(r, ((h, h), (h, h), (0, 0)), mode="symmetric")
    vals = []
    for i in range(7):
        for j in range(7):
            wx = px[i:i + 11, j:j + 11, 0].ravel()
            wr = pr[i:i + 11, j:j + 11, 0].ravel()
            mx, mr = wx.mean(), wr.mean()
            vx = ((wx - mx) ** 2).mean()
            vr = ((wr - mr) ** 2).mean()
            cv = ((wx - mx) * (wr - mr)).mean()
            vals.append(((2 * mx * mr + c1) * (2 * cv + c2))
                        / ((mx * mx + mr * mr + c1) * (vx + vr + c2)))
    assert abs(ssim(x, r, 100.0) - float(np.mean(vals))) <= 0.05


def test_ssim_symmetry_and_bounds(rng):
    for _ in range(10):
        x = rng.uniform(0, 100, (6, 5, 2))
        r = rng.uniform(0, 100, (6, 5, 2))
        value = ssim(x, r, 100.0)
        assert abs(value - ssim(r, x, 100.0)) <= 1e-12
        assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12


def test_ssim_validation():
    with pytest.raises(ValueError):
        ssim(np.zeros((2, 2)), np.zeros((2, 2)), 100.0)
    with pytest.raises(ValueError):
        ssim(np.zeros((2, 2, 1)), np.zeros((2, 2, 2)), 100.0)
    with pytest.raises(ValueError):
        ssim(np.zeros((2, 2, 1)), np.zeros((2, 2, 1)), 0.0)


def _correlate3(volume, window):
    out = volume
    for axis in (-3, -2, -1):
        out = correlate1d(out, window, axis=axis, mode="reflect")
    return out


# non-finite, signed-zero, subnormal and near-overflow values (v + v
# overflows to inf at 1.7e308)
SPECIAL_VALUES = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324,
                           2.2e-308, 1.7e308, -1.7e308])
FILTER_SHAPES = [(6, 5, 1), (1, 5, 3), (4, 1, 7), (3, 4, 6, 1), (2, 1, 1), (1, 1, 1)]


def assert_same_bits(actual, expected):
    """Bitwise equal at every non-NaN entry, NaN at exactly the same
    positions. IEEE 754 leaves open which NaN operand propagates, so the
    sign of a NaN result is not compared."""
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(actual), nan)
    assert actual[~nan].tobytes() == expected[~nan].tobytes()


@pytest.mark.parametrize("taps", range(3, 14, 2))
def test_filter3_matches_correlate1d_bitwise(taps):
    rng = np.random.default_rng(taps)
    for sigma in (0.5, 1.0, 1.5, 2.0, 3.0):
        window = metrics._gaussian_window(taps, sigma)
        for shape in FILTER_SHAPES:
            volume = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
            flat = volume.reshape(-1)
            hits = rng.choice(flat.size, min(flat.size, 4), replace=False)
            flat[hits] = rng.choice(SPECIAL_VALUES, hits.size)
            assert_same_bits(metrics._filter3(volume, window),
                             _correlate3(volume, window))
        for value in SPECIAL_VALUES:
            for shape in ((3, 4, 1), (1, 1, 1)):
                volume = np.full(shape, value)
                assert_same_bits(metrics._filter3(volume, window),
                                 _correlate3(volume, window))


def _nudged(window, i, delta):
    window = window.copy()
    window[i] += delta
    return window


@pytest.mark.parametrize("window", [
    _nudged(metrics._gaussian_window(7, 1.0), -1, 1e-17),
    np.array([0.8]),
], ids=["near-sym7", "one-tap"])
def test_filter3_symmetry_classes_keep_correlate1d_bits(window):
    # correlate1d pairs taps when |w[c+i] - w[c-i]| <= DBL_EPSILON, using
    # the left tap's weight, so a nearly symmetric window and a one-tap
    # window take the paired loop too
    rng = np.random.default_rng(13)
    for shape in FILTER_SHAPES:
        volume = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
        assert_same_bits(metrics._filter3(volume, window), _correlate3(volume, window))


@pytest.mark.parametrize("shape", [(169, 20, 20, 1), (169, 40, 40, 1),
                                   (169, 1, 20, 20), (169, 20, 1, 20)])
def test_filter3_matches_correlate1d_on_pipeline_shapes(shape):
    # reference stacks of the 20x20 and 40x40 grids, and the same with the
    # length-1 axis moved first and to the middle; one work dict is shared
    # across calls, as ssim_table does
    rng = np.random.default_rng(11)
    window = metrics._gaussian_window(metrics.SSIM_WINDOW, metrics.SSIM_SIGMA)
    work = {}
    for _ in range(2):
        volume = rng.uniform(0.0, 100.0, shape)
        assert metrics._filter3(volume, window, work).tobytes() == \
            _correlate3(volume, window).tobytes()
    small = volume[:7]
    assert metrics._filter3(small, window, work).tobytes() == \
        _correlate3(small, window).tobytes()


def _ssim_table_oracle(images, stack, dynamic_range):
    # per image and reference stack, each moment through correlate1d
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2
    w = metrics._gaussian_window(metrics.SSIM_WINDOW, metrics.SSIM_SIGMA)
    table = np.empty((len(images), len(stack)))
    mu_r = _correlate3(stack, w)
    mu_r2 = mu_r * mu_r
    var_r = _correlate3(stack * stack, w) - mu_r2
    for i, x in enumerate(images):
        mu_x = _correlate3(x, w)
        mu_x2 = mu_x * mu_x
        var_x = _correlate3(x * x, w) - mu_x2
        cov = _correlate3(x * stack, w) - mu_x * mu_r
        num = (2.0 * mu_x * mu_r + c1) * (2.0 * cov + c2)
        den = (mu_x2 + mu_r2 + c1) * (var_x + var_r + c2)
        table[i] = (num / den).reshape(len(stack), -1).mean(axis=1)
    return table


@pytest.mark.parametrize("shape,count", [((20, 20, 1), 169), ((9, 7, 5), 30),
                                         ((3, 2, 1), 60), ((1, 1, 1), 50)])
def test_ssim_table_independent_of_chunks_and_batching(monkeypatch, shape, count):
    # a dynamic range whose C1 and C2 are not small integers, and one- and
    # six-voxel volumes, so that evaluating the formula in another order
    # changes table bits
    rng = np.random.default_rng(12)
    stack = rng.uniform(0.0, 100.0, (count,) + shape)
    images = np.clip(stack[[3, 17, 29]] + rng.normal(0.0, 8.0, (3,) + shape), 0.0, None)
    want = _ssim_table_oracle(images, stack, 7.3)
    for chunk in (1, 401, 4001, metrics._CHUNK_VOXELS):
        with monkeypatch.context() as patch:
            patch.setattr(metrics, "_CHUNK_VOXELS", chunk)
            assert ssim_table(images, stack, 7.3).tobytes() == want.tobytes()
            rows = np.concatenate([ssim_table(x[None], stack, 7.3) for x in images])
            assert rows.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", model.PHANTOM_KINDS)
@pytest.mark.parametrize("shape, extent", [((12, 10, 1), (1.5, 1.0, 0.0)),
                                           ((7, 6, 5), (1.0, 0.5, 0.5))])
def test_ssim_max_equals_full_table_row_maxima(monkeypatch, kind, shape, extent):
    # the pruned maxima against the full table, bit for bit: noisy and
    # shifted references, scaled, negated and flat images, a NaN and an
    # inf voxel
    grid = VoxelGrid(shape, (1.0, 1.0, 1.0))
    stack = reference_stack(model.phantom_support(kind, grid), grid,
                            ShiftGrid(extent, 0.5), 50.0)
    rng = np.random.default_rng(len(kind) + shape[2])
    picks = stack[rng.integers(0, len(stack), 6)]
    images = np.concatenate([
        np.clip(picks + rng.normal(0.0, 4.0, picks.shape), 0.0, None),
        np.clip(picks + rng.normal(0.0, 25.0, picks.shape), 0.0, None),
        0.5 * picks + 10.0,
        -picks[:2],  # a negative mean turns the luminance term negative
        rng.uniform(0.0, 100.0, (2,) + shape),
        np.full((1,) + shape, 54.1),  # its variance rounds below 0
        np.full((1,) + shape, 12.9),  # and this one's above
        np.zeros((1,) + shape),
    ])
    var = metrics._ssim_moments(images[-3:-1])[2]
    assert (var[0] < 0).any() and (var[1] > 0).any()
    bad = np.repeat(images[:1], 2, axis=0)
    bad[0, 0, 0, 0], bad[1, -1, -1, -1] = np.nan, np.inf
    images = np.concatenate([images, bad])
    with np.errstate(invalid="ignore"):  # inf - inf in the inf image's moments
        cells = psnr_table(images, stack, 100.0)
        want = ssim_table(images, stack, 7.3)
        for chunk in (401, metrics._CHUNK_VOXELS):
            with monkeypatch.context() as patch:
                patch.setattr(metrics, "_CHUNK_VOXELS", chunk)
                got, scored = ssim_max(images, stack, 7.3, cells)
                assert got.tobytes() == want.max(axis=1).tobytes()
                assert len(images) <= scored < want.size
        moments = [metrics._ssim_moments(v) for v in (images, stack)]
        bound = metrics._ssim_bound(*moments, (0.01 * 7.3) ** 2, (0.03 * 7.3) ** 2)
    finite = np.isfinite(want)
    assert not (bound[finite] < want[finite] - 1e-9).any()
    assert np.isnan(bound[~finite]).all() and (~finite).sum() == 2 * len(stack)
    assert np.isnan(got[-2:]).all()
    # the PSNR-best shift is not always the SSIM-best one
    assert (cells.argmax(axis=1) != want.argmax(axis=1))[finite.all(axis=1)].any()


def test_ssim_max_scores_nan_rows_in_full_and_checks_shapes():
    grid = VoxelGrid((6, 6, 1), (1.0, 1.0, 1.0))
    stack = reference_stack(model.phantom_support("shape-cone", grid), grid,
                            ShiftGrid((1.0, 1.0, 0.0), 0.5), 50.0)
    image = stack[:1].copy()
    _, scored = ssim_max(image, stack, 100.0, psnr_table(image, stack, 100.0))
    assert scored < len(stack)
    image[0, 2, 2, 0] = np.nan
    cells = psnr_table(image, stack, 100.0)
    got, scored = ssim_max(image, stack, 100.0, cells)
    assert np.isnan(got).all() and scored == len(stack)
    with pytest.raises(NumericalError):
        first_argmax(got)
    with pytest.raises(ValueError):
        ssim_max(image, stack, 100.0, cells[:, 1:])
    with pytest.raises(ValueError):
        ssim_max(image, stack, 0.0, cells)


def cone_setup():
    grid = VoxelGrid((9, 9, 1), (1.0, 1.0, 1.0))
    phantom = make_phantom("shape-cone", grid, 50.0)
    return grid, phantom


def test_shift_max_single_shift_equals_plain_metric():
    grid, phantom = cone_setup()
    rng = np.random.default_rng(8)
    image = np.clip(phantom.values + rng.normal(0, 5, grid.shape), 0, None)
    sg = ShiftGrid((0.0, 0.0, 0.0), 0.5)
    res = shift_max_metric(image, phantom.support, grid, sg, "psnr",
                           concentration=50.0, peak=100.0)
    assert res.value == psnr(image, phantom.values, 100.0)
    assert res.argmax_shift == (0.0, 0.0, 0.0)


def test_shift_max_recovers_constructed_displacement():
    grid = VoxelGrid((9, 9, 1), (1.0, 1.0, 1.0))
    support = BoxSupport((0.3, -0.6, 0.0), (3.1, 2.3, 1.0))
    target = (1.0, -0.5, 0.0)
    image = rasterize_reference(support, target, grid, 50.0).values
    sg = ShiftGrid((1.5, 1.5, 0.0), 0.5)
    res = shift_max_metric(image, support, grid, sg, "psnr",
                           concentration=50.0, peak=100.0)
    assert res.value == np.inf
    assert res.argmax_shift == target


def test_shift_max_matches_brute_force_bitwise(monkeypatch):
    grid, phantom = cone_setup()
    rng = np.random.default_rng(9)
    image = np.clip(phantom.values + rng.normal(0, 8, grid.shape), 0, None)
    sg = ShiftGrid((1.0, 1.0, 0.0), 0.5)
    for metric, kwargs in (("psnr", {"peak": 100.0}), ("ssim", {"dynamic_range": 100.0})):
        res = shift_max_metric(image, phantom.support, grid, sg, metric,
                               concentration=50.0, **kwargs)
        best_value, best_shift = None, None
        for shift in sg.shifts():
            ref = rasterize_reference(phantom.support, shift, grid, 50.0).values
            value = psnr(image, ref, 100.0) if metric == "psnr" else ssim(image, ref, 100.0)
            if best_value is None or value > best_value:
                best_value, best_shift = value, tuple(shift)
        assert res.value == best_value
        assert res.argmax_shift == best_shift
        assert res.per_shift.shape == (sg.count,)

    # batched tables: every cell equals the scalar metric of its pair, for
    # noisy images, an exact reference (+inf PSNR) and a (7, 6, 2) volume
    stack = reference_stack(phantom.support, grid, sg, 50.0)
    noisy = np.clip(stack[5] + rng.normal(0, 3, grid.shape), 0, None)
    volumes = rng.uniform(0, 100, (4, 7, 6, 2))
    for images, refs, identical in ((np.stack([image, stack[3], noisy]), stack, (1, 3)),
                                    (volumes[:2], volumes[1:], (1, 0))):
        psnr_cells = psnr_table(images, refs, 100.0)
        ssim_cells = ssim_table(images, refs, 100.0)
        assert psnr_cells.shape == ssim_cells.shape == (len(images), len(refs))
        for i, x in enumerate(images):
            for k, r in enumerate(refs):
                assert psnr_cells[i, k] == psnr(x, r, 100.0)
                assert ssim_cells[i, k] == ssim(x, r, 100.0)
        assert np.isposinf(psnr_cells[identical])
        with monkeypatch.context() as patch:  # two references per SSIM chunk
            patch.setattr(metrics, "_CHUNK_VOXELS", 2 * images[0].size)
            assert np.array_equal(ssim_table(images, refs, 100.0), ssim_cells)


def test_shift_max_nan_voxel_raises():
    grid, phantom = cone_setup()
    image = phantom.values.copy()
    image[4, 4, 0] = np.nan
    sg = ShiftGrid((0.5, 0.5, 0.0), 0.5)
    for metric, kwargs in (("psnr", {"peak": 100.0}), ("ssim", {"dynamic_range": 100.0})):
        with pytest.raises(NumericalError):
            shift_max_metric(image, phantom.support, grid, sg, metric,
                             concentration=50.0, **kwargs)
    with pytest.raises(NumericalError):
        quality_report(image, phantom.support, grid, sg, concentration=50.0)
    # first maximum in row-major order; +inf is a legal score
    assert first_argmax(np.array([[1.0, 3.0], [3.0, 2.0]])) == (0, 1)
    assert first_argmax(np.array([np.inf, 2.0, np.inf])) == (0,)


def test_shift_max_nested_grid_monotonicity():
    grid, phantom = cone_setup()
    rng = np.random.default_rng(10)
    for _ in range(5):
        image = np.clip(phantom.values + rng.normal(0, 10, grid.shape), 0, None)
        inner = shift_max_metric(image, phantom.support, grid,
                                 ShiftGrid((0.5, 0.5, 0.0), 0.5), "ssim",
                                 concentration=50.0, dynamic_range=100.0)
        outer = shift_max_metric(image, phantom.support, grid,
                                 ShiftGrid((1.0, 1.0, 0.0), 0.5), "ssim",
                                 concentration=50.0, dynamic_range=100.0)
        assert outer.value >= inner.value


def test_shift_max_validation():
    grid, phantom = cone_setup()
    image = phantom.values
    sg = ShiftGrid((0.5, 0.5, 0.0), 0.5)
    with pytest.raises(ValueError):
        shift_max_metric(image, phantom.support, grid, sg, "mse",
                         concentration=50.0, peak=100.0)
    with pytest.raises(ValueError):
        shift_max_metric(image, phantom.support, grid, sg, "psnr", concentration=50.0)
    with pytest.raises(ValueError):
        shift_max_metric(image, phantom.support, grid, sg, "ssim", concentration=50.0)
    with pytest.raises(ValueError):
        shift_max_metric(image[:4], phantom.support, grid, sg, "psnr",
                         concentration=50.0, peak=100.0)
    with pytest.raises(ValueError):
        shift_max_metric(image, phantom.support, grid, sg, "psnr",
                         concentration=50.0, peak=100.0,
                         stack=np.zeros((2,) + grid.shape))


def test_quality_report_consistency():
    grid, phantom = cone_setup()
    rng = np.random.default_rng(11)
    image = np.clip(phantom.values + rng.normal(0, 6, grid.shape), 0, None)
    sg = ShiftGrid((1.0, 1.0, 0.0), 0.5)
    p, s = quality_report(image, phantom.support, grid, sg, concentration=50.0)
    assert (p.metric, s.metric) == ("psnr", "ssim")
    assert p.value == np.max(p.per_shift)
    assert s.value == np.max(s.per_shift)
    assert -1.0 <= s.value <= 1.0 + 1e-12
    assert p.value >= psnr(image, phantom.values, 100.0)
    assert s.value >= ssim(image, phantom.values, 100.0)
    assert p.shifts.shape == (sg.count, 3)
    # the stored argmax points back at the tabulated values
    k_p = np.flatnonzero((p.shifts == p.argmax_shift).all(axis=1))[0]
    assert p.per_shift[k_p] == p.value


def test_quality_report_shared_stack(monkeypatch):
    # both results come from one reference stack, rasterized once: the one
    # shift_max_metric scores against when given the precomputed stack
    grid, phantom = cone_setup()
    sg = ShiftGrid((0.5, 0.5, 0.0), 0.5)
    stack = reference_stack(phantom.support, grid, sg, 50.0)
    rng = np.random.default_rng(12)
    image = np.clip(phantom.values + rng.normal(0, 6, grid.shape), 0, None)
    calls = []
    monkeypatch.setattr(metrics, "reference_stack",
                        lambda *args: calls.append(args) or reference_stack(*args))
    report = quality_report(image, phantom.support, grid, sg, concentration=50.0)
    assert len(calls) == 1
    for result, metric, kwargs in zip(report, ("psnr", "ssim"),
                                      ({"peak": 100.0}, {"dynamic_range": 100.0})):
        shared = shift_max_metric(image, phantom.support, grid, sg, metric,
                                  concentration=50.0, stack=stack, **kwargs)
        assert result.per_shift.tobytes() == shared.per_shift.tobytes()
        assert (result.value, result.argmax_shift) == (shared.value, shared.argmax_shift)
