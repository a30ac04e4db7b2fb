import numpy as np
import pytest

from robust_recon import BoxSupport, NumericalError, VoxelGrid, make_phantom, metrics, model
from robust_recon.metrics import (
    QualityReport,
    ShiftGrid,
    first_argmax,
    psnr,
    psnr_table,
    quality_report,
    rasterize_reference,
    reference_stack,
    shift_max_metric,
    ssim,
    ssim_table,
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
    """Wraps a support and records how many points each contains call saw."""

    def __init__(self, support):
        self.support = support
        self.calls = []

    def contains(self, points):
        self.calls.append(len(points))
        return self.support.contains(points)


def per_shift_oracle(support, grid, shift_grid, concentration, subsamples):
    """Every voxel's stratified sample points minus the shift, tested
    point by point, one shift at a time."""
    s = subsamples
    per_axis = [((np.arange(s) + 0.5) / s - 0.5) * h for h in grid.spacing_mm]
    offsets = np.stack([o.ravel() for o in np.meshgrid(*per_axis, indexing="ij")], axis=1)
    points = (grid.centers_mm()[:, None, :] + offsets[None, :, :]).reshape(-1, 3)
    out = []
    for shift in shift_grid.shifts():
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


def test_reference_stack_split_into_groups_matches_oracle(monkeypatch):
    grid = VoxelGrid((8, 8, 1), (0.5, 0.5, 1.0))
    phantom = make_phantom("resolution-tubes", grid, 50.0)
    sg = ShiftGrid((1.0, 1.0, 0.0), 0.25)
    oracle = per_shift_oracle(phantom.support, grid, sg, 50.0, 4)
    whole = CountingSupport(phantom.support)
    assert reference_stack(whole, grid, sg, 50.0).tobytes() == oracle.tobytes()
    # a lattice budget below two shifts' points and small contains blocks
    monkeypatch.setattr(model, "_LATTICE_POINTS", 1500)
    monkeypatch.setattr(model, "_CONTAINS_POINTS", 700)
    split = CountingSupport(phantom.support)
    assert reference_stack(split, grid, sg, 50.0).tobytes() == oracle.tobytes()
    assert max(split.calls) <= 700
    # one shift's lattice is 32 * 32 * 4 = 4096 points, so each of the 81
    # shifts gets its own lattice
    assert sum(split.calls) == sg.count * 4096 > sum(whole.calls)


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
    report = quality_report(image, phantom.support, grid, sg, concentration=50.0)
    assert isinstance(report, QualityReport)
    assert report.eps_psnr == np.max(report.psnr_values)
    assert report.eps_ssim == np.max(report.ssim_values)
    assert -1.0 <= report.eps_ssim <= 1.0 + 1e-12
    assert report.eps_psnr >= psnr(image, phantom.values, 100.0)
    assert report.eps_ssim >= ssim(image, phantom.values, 100.0)
    assert report.shifts.shape == (sg.count, 3)
    # the stored argmax points back at the tabulated values
    k_p = np.flatnonzero((report.shifts == report.argmax_psnr).all(axis=1))[0]
    assert report.psnr_values[k_p] == report.eps_psnr


def test_quality_report_shared_stack():
    grid, phantom = cone_setup()
    sg = ShiftGrid((0.5, 0.5, 0.0), 0.5)
    stack = reference_stack(phantom.support, grid, sg, 50.0)
    rng = np.random.default_rng(12)
    image = np.clip(phantom.values + rng.normal(0, 6, grid.shape), 0, None)
    with_stack = quality_report(image, phantom.support, grid, sg,
                                concentration=50.0, stack=stack)
    without = quality_report(image, phantom.support, grid, sg, concentration=50.0)
    assert with_stack.eps_psnr == without.eps_psnr
    assert np.array_equal(with_stack.ssim_values, without.ssim_values)
