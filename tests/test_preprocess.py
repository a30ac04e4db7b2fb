import numpy as np
import pytest

from robust_recon.acquisition import (
    BackgroundModel,
    acquisition_schedule,
    background_mean,
    draw_calibration_scans,
    draw_empty_scans,
    draw_phantom_measurement,
)
from robust_recon.errors import NumericalError
from robust_recon.model import SystemMatrix, VoxelGrid, make_phantom
from robust_recon.preprocess import (
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
from robust_recon.solvers import Objective, SolverConfig, lbfgsb


def scans_from_values(values):
    """Empty scans of shape (count, 1, 1) from scalar complex values."""
    return np.asarray(values, dtype=np.complex128).reshape(-1, 1, 1)


def test_band_pass_unbounded_keeps_everything():
    assert np.array_equal(band_pass(10, 1.0, 0.0, np.inf), np.arange(10))


def test_band_pass_example():
    assert np.array_equal(band_pass(10, 1.0, 3.0, 6.0), [3, 4, 5, 6])


def test_band_pass_defaults_match_scalar_oracle():
    freq_count, period = 1025, 1.024
    band = band_pass(freq_count, period, 80.0, 625.0)
    oracle = [j for j in range(freq_count) if 80.0 <= j / period <= 625.0]
    assert np.array_equal(band, oracle)
    assert band[0] == 82 and band[-1] == 640 and band.size == 559


def test_band_pass_validation():
    with pytest.raises(ValueError):
        band_pass(10, 1.0, -1.0, 5.0)
    with pytest.raises(ValueError):
        band_pass(10, 1.0, 5.0, 5.0)
    with pytest.raises(ValueError):
        band_pass(0, 1.0, 0.0, 5.0)


def test_interp_background_middle_scan_is_average():
    rng = np.random.default_rng(31)
    spectra = rng.standard_normal((2, 2, 4)) + 1j * rng.standard_normal((2, 2, 4))
    mid = interp_backgrounds(spectra, 3, 3)[1]  # kappa = 1/2
    assert np.array_equal(mid, (spectra[0] + spectra[1]) / 2.0)


def test_interp_background_bracket_endpoints():
    rng = np.random.default_rng(32)
    spectra = rng.standard_normal((3, 1, 4)) + 1j * rng.standard_normal((3, 1, 4))
    q = 3
    stacked = interp_backgrounds(spectra, q + 1, q)
    assert np.array_equal(stacked[0], spectra[1])
    assert np.array_equal(stacked[q - 1], spectra[0])
    assert np.array_equal(stacked[q], spectra[2])


def test_interp_background_weight_grid():
    scans = scans_from_values([1.0, 0.0])
    kappas = [complex(v).real for v in interp_backgrounds(scans, 5, 5)[:, 0, 0]]
    assert kappas == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_interp_background_validation():
    scans = scans_from_values([1.0, 2.0])
    with pytest.raises(ValueError):
        interp_backgrounds(scans, 6, 5)  # scan 5 needs a third empty scan
    with pytest.raises(ValueError):
        interp_backgrounds(scans, 1, 1)
    with pytest.raises(ValueError):
        interp_backgrounds(scans, -1, 5)


def test_interp_backgrounds_matches_scalar_loop():
    rng = np.random.default_rng(33)
    spectra = rng.standard_normal((4, 2, 6)) + 1j * rng.standard_normal((4, 2, 6))
    stacked = interp_backgrounds(spectra, 15, 5)
    for i in range(15):
        b, kappa = i // 5, (i % 5) / 4
        expected = kappa * spectra[b] + (1 - kappa) * spectra[b + 1]
        assert np.array_equal(stacked[i], expected)
    with pytest.raises(ValueError):
        interp_backgrounds(spectra, 16, 5)


def test_interp_backgrounds_matches_whole_array_formula():
    # the whole-array expression the bracket loop replaced, bitwise; 23 is
    # not a multiple of Q = 4
    rng = np.random.default_rng(36)
    spectra = rng.standard_normal((7, 2, 9)) + 1j * rng.standard_normal((7, 2, 9))
    i = np.arange(23)
    b = i // 4
    k = ((i % 4) / 3)[:, None, None]
    want = k * spectra[b] + (1.0 - k) * spectra[b + 1]
    assert interp_backgrounds(spectra, 23, 4).tobytes() == want.tobytes()


def test_interp_backgrounds_zero_count():
    empty = interp_backgrounds(scans_from_values([1.0, 2.0]), 0, 5)
    assert empty.shape == (0, 1, 1) and empty.dtype == np.complex128


def test_snr_scores_zero_when_calibration_equals_background():
    rng = np.random.default_rng(34)
    calib = rng.standard_normal((3, 1, 5)) + 1j * rng.standard_normal((3, 1, 5))
    empty = rng.standard_normal((2, 1, 5)) + 0j
    scores = snr_scores(calib, calib.copy(), empty, np.arange(5))
    assert np.all(scores == 0.0)


def test_snr_scores_mean_ratio_example():
    # |corrected| over scans {2, 4} -> numerator 3; empty deviations
    # {+1, -1} about their mean -> denominator 1
    calib = np.array([[[2.0 + 0j]], [[0.0 - 4.0j]]])
    bg = np.zeros((2, 1, 1), dtype=np.complex128)
    empty = scans_from_values([1.0, -1.0])
    scores = snr_scores(calib, bg, empty, np.array([0]))
    assert scores.shape == (1, 1)
    assert scores[0, 0] == 3.0


def test_snr_scores_zero_denominator_is_inf():
    calib = np.array([[[2.0 + 0j]]])
    empty = scans_from_values([5.0, 5.0])
    scores = snr_scores(calib, np.zeros((1, 1, 1)), empty, np.array([0]))
    assert np.isposinf(scores[0, 0])


def test_snr_scores_signal_bins_dominate(system_1d):
    rng = np.random.default_rng(4)
    mean = rng.standard_normal((1, 129)) + 1j * rng.standard_normal((1, 129))
    bg = BackgroundModel(mean, 0.01, False, 1.0, 0.0)
    calib_idx, empty_idx = acquisition_schedule(5, 5)
    empty = draw_empty_scans(bg, len(empty_idx), seed=8, schedule=empty_idx)
    calib = draw_calibration_scans(system_1d, bg, 80.0, seed=9, scan_indices=calib_idx)
    band = band_pass(129, 1.0, 0.0, np.inf)
    scores = snr_scores(calib, interp_backgrounds(empty, 5, 5), empty, band)
    median = np.median(scores[0][np.isfinite(scores[0])])
    for harmonic_bin in (25, 75):
        assert scores[0, harmonic_bin] >= 5.0 * median


def test_snr_scores_scan_subset():
    calib = np.array([[[2.0 + 0j]], [[4.0 + 0j]], [[100.0 + 0j]]])
    bg = np.zeros((3, 1, 1), dtype=np.complex128)
    empty = scans_from_values([1.0, -1.0])
    full = snr_scores(calib, bg, empty, np.array([0]))
    subset = snr_scores(calib[:2], bg[:2], empty, np.array([0]))
    assert subset[0, 0] == 3.0
    assert full[0, 0] > subset[0, 0]


@pytest.mark.parametrize("coils", [1, 2])
@pytest.mark.parametrize("empty_count", [2, 9, 23])
@pytest.mark.parametrize("band", [np.arange(30, 90), np.array([3]), np.array([100, 7, 64, 65])],
                         ids=["run", "one-bin", "scattered"])
def test_snr_scores_match_the_whole_array_formula(coils, empty_count, band):
    # both means add the scans in turn, in scan order, on one coil as on
    # two, then divide by the count. Zero deviations in bin 64 give +inf.
    rng = np.random.default_rng(coils * 100 + empty_count)
    calib = rng.standard_normal((7, coils, 129)) + 1j * rng.standard_normal((7, coils, 129))
    interp = rng.standard_normal(calib.shape) + 0j
    empty = rng.standard_normal((empty_count, coils, 129)) * 1e3 + 1j
    empty[:, :, 64] = 2.5

    def mean_in_turn(values):
        total = values[0].copy()
        for v in values[1:]:
            total += v
        return total / len(values)

    num = mean_in_turn(np.abs(calib[:, :, band] - interp[:, :, band]))
    mu = background_mean(empty)
    den = mean_in_turn(np.abs(empty[:, :, band] - mu[None, :, band]))
    with np.errstate(divide="ignore", invalid="ignore"):
        want = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), np.inf)
    assert snr_scores(calib, interp, empty, band).tobytes() == want.tobytes()


def test_snr_scores_validation():
    empty = scans_from_values([1.0, -1.0])
    with pytest.raises(ValueError):
        snr_scores(np.zeros((0, 1, 1)), np.zeros((0, 1, 1)), empty, np.array([0]))
    with pytest.raises(ValueError, match="empty-scan set"):
        snr_scores(np.zeros((2, 1, 1)), np.zeros((2, 1, 1)), empty[:0], np.array([0]))
    with pytest.raises(ValueError):
        snr_scores(np.zeros((2, 1, 1)), np.zeros((1, 1, 1)), empty, np.array([0]))


def test_select_frequencies_zero_tau_keeps_band():
    scores = np.array([[0.0, 3.0, np.inf, 0.5]])
    band = np.array([5, 6, 7, 8])
    sel = select_frequencies(scores, 0.0, band)
    assert np.array_equal(sel.selected[0], band)
    assert sel.row_count == 8


def test_select_frequencies_example():
    scores = np.array([[2.0, 0.5, 4.0]])
    sel = select_frequencies(scores, 1.0, np.array([10, 11, 12]))
    assert np.array_equal(sel.selected[0], [10, 12])
    assert sel.row_count == 4


def test_select_frequencies_threshold_monotonicity(rng):
    band = np.arange(30)
    for _ in range(20):
        scores = rng.exponential(2.0, size=(3, 30))
        taus = np.sort(rng.uniform(0.0, 6.0, size=4))
        previous = select_frequencies(scores, taus[0], band)
        for tau in taus[1:]:
            current = select_frequencies(scores, tau, band)
            assert current.row_count <= previous.row_count
            for c in range(3):
                assert set(current.selected[c]) <= set(previous.selected[c])
            previous = current


def test_selection_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        select_frequencies(np.ones((1, 3)), -0.5, np.arange(3))
    with pytest.raises(ValueError, match="align"):
        select_frequencies(np.ones((1, 4)), 0.0, np.arange(3))


def test_subtract_background_examples():
    spec = np.array([[3.0 + 4.0j]])
    assert np.all(subtract_background(spec, spec) == 0.0)
    out = subtract_background(spec, np.array([[1.0 + 1.0j]]))
    assert out[0, 0] == 2.0 + 3.0j
    with pytest.raises(ValueError):
        subtract_background(spec, np.zeros((2, 2)))


def test_subtract_background_residual_shrinks_with_repetitions(system_1d):
    phantom = make_phantom("delta", system_1d.grid, 50.0)
    rng = np.random.default_rng(35)
    mean = rng.standard_normal((1, 129)) + 1j * rng.standard_normal((1, 129))
    bg = BackgroundModel(mean, 1.0, False, 1.0, 0.0)
    k = 100
    from robust_recon.acquisition import draw_phantom_measurement

    meas = draw_phantom_measurement(system_1d, phantom, bg, seed=6, repetitions=k)
    residual = subtract_background(meas.spectrum, mean) - system_1d.apply(phantom.flat())
    mean_abs = np.mean(np.abs(residual))
    assert mean_abs <= 4.0 / np.sqrt(k)  # 4 * base std / sqrt(repetitions)


def test_whitening_weights_inverse_std():
    # scans m-2, m, m+2 per part: sample std exactly 2 for both quadratures
    base = 5.0 + 3.0j
    scans = scans_from_values([base - (2 + 2j), base, base + (2 + 2j)])
    sel = select_frequencies(np.ones((1, 1)), 0.0, np.array([0]))
    assert np.array_equal(whitening_weights(scans, sel), [0.5, 0.5])


def test_whitening_weights_example_pair():
    # component 0 has std 1, component 1 has std 10 -> weights 1, 1, 0.1, 0.1
    spectra = np.zeros((3, 1, 2), dtype=np.complex128)
    spectra[:, 0, 0] = [-(1 + 1j), 0.0, 1 + 1j]
    spectra[:, 0, 1] = [-(10 + 10j), 0.0, 10 + 10j]
    sel = select_frequencies(np.ones((1, 2)), 0.0, np.array([0, 1]))
    assert np.array_equal(whitening_weights(spectra, sel), [1.0, 1.0, 0.1, 0.1])


def test_whitening_weights_floor():
    spectra = np.zeros((3, 1, 2), dtype=np.complex128)
    spectra[:, 0, 1] = [-(1 + 1j), 0.0, 1 + 1j]  # component 0 is constant
    sel = select_frequencies(np.ones((1, 2)), 0.0, np.array([0, 1]))
    # the floor is 1e-8 times the largest std, 1
    assert np.array_equal(whitening_weights(spectra, sel), [1e8, 1e8, 1.0, 1.0])


def test_whitening_weights_all_constant_raises():
    scans = scans_from_values([2.0 + 1j, 2.0 + 1j, 2.0 + 1j])
    sel = select_frequencies(np.ones((1, 1)), 0.0, np.array([0]))
    with pytest.raises(NumericalError):
        whitening_weights(scans, sel)


def test_whitening_normalizes_independent_draws():
    stds = np.linspace(0.5, 5.0, 16)
    bg = BackgroundModel(np.zeros((1, 16)), stds**2, False, 1.0, 0.0)
    fit = draw_empty_scans(bg, 1000, seed=1)
    fresh = draw_empty_scans(bg, 1000, seed=2)
    sel = select_frequencies(np.ones((1, 16)), 0.0, np.arange(16))
    w = whitening_weights(fit, sel).reshape(16, 2)
    whitened_re = (fresh[:, 0, :].real * w[:, 0]).std(axis=0, ddof=1)
    whitened_im = (fresh[:, 0, :].imag * w[:, 1]).std(axis=0, ddof=1)
    for stat in (whitened_re, whitened_im):
        assert np.all(stat >= 0.8) and np.all(stat <= 1.2)


def test_whitening_weights_validation():
    scans = scans_from_values([1.0, 2.0, 4.0])
    nothing = select_frequencies(np.zeros((1, 1)), 1.0, np.array([0]))
    with pytest.raises(ValueError, match="empty selection"):
        whitening_weights(scans, nothing)


def test_power_iteration_matches_svd_oracle():
    for seed in list(range(9)) + [10, 11]:
        a = np.random.default_rng(seed).standard_normal((50, 30))
        top = np.linalg.svd(a, compute_uv=False)[0]
        assert abs(power_iteration_norm(a) - top) <= 1e-5 * top


def test_power_iteration_edge_cases():
    assert abs(power_iteration_norm(np.diag([2.0, 2.0])) - 2.0) <= 1e-9
    assert power_iteration_norm(np.zeros((4, 3))) == 0.0
    assert abs(power_iteration_norm(np.array([[3.0], [4.0]])) - 5.0) <= 1e-12
    with pytest.raises(NumericalError):
        power_iteration_norm(np.ones((3, 3)), max_iter=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_power_iteration_non_finite_raises_at_once(bad):
    a = np.ones((4, 3))
    a[2, 1] = bad
    with pytest.raises(NumericalError, match="non-finite"):
        power_iteration_norm(a)


def test_power_iteration_near_degenerate_raises():
    # sigma2/sigma1 = 0.9978 here: no certificate within 500 iterations
    with pytest.raises(NumericalError):
        power_iteration_norm(np.random.default_rng(9).standard_normal((50, 30)))


def test_calibration_system_matrix_recovers_clean_system(system_1d):
    bg = BackgroundModel(np.zeros((1, 129)), 0.0, False, 1.0, 0.0)
    indices, _ = acquisition_schedule(5, 5)
    calib = draw_calibration_scans(system_1d, bg, 128.0, seed=0, scan_indices=indices)
    estimate = calibration_system_matrix(calib, np.zeros_like(calib), 128.0)
    assert np.array_equal(estimate, system_1d.data)


def test_calibration_system_matrix_validation():
    calib = np.zeros((2, 1, 3), dtype=np.complex128)
    with pytest.raises(ValueError):
        calibration_system_matrix(calib, np.zeros_like(calib), 0.0)
    with pytest.raises(ValueError):
        calibration_system_matrix(calib, np.zeros((1, 1, 3)), 10.0)


def fixed_selection(coils, freqs):
    return select_frequencies(np.ones((coils, len(freqs))), 0.0, np.asarray(freqs))


def test_assemble_row_layout_and_index():
    rng = np.random.default_rng(41)
    data = rng.standard_normal((2, 6, 3)) + 1j * rng.standard_normal((2, 6, 3))
    yspec = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    sel = fixed_selection(2, [1, 4])
    reduced = assemble_reduced_system(data, yspec, sel)
    assert reduced.rows == 8 and reduced.voxels == 3
    expected_index = [
        (0, 1, 0), (0, 1, 1), (0, 4, 0), (0, 4, 1),
        (1, 1, 0), (1, 1, 1), (1, 4, 0), (1, 4, 1),
    ]
    assert np.array_equal(reduced.row_index, expected_index)
    # row_index reconstructs the stored rows bitwise
    for r, (c, j, part) in enumerate(expected_index):
        component = data[c, j, :].real if part == 0 else data[c, j, :].imag
        expected_row = component.copy()
        expected_row /= reduced.scale
        assert np.array_equal(reduced.A[r], expected_row)
        target = yspec[c, j].real if part == 0 else yspec[c, j].imag
        assert reduced.y[r] == target / reduced.scale


def test_assemble_skips_a_coil_that_keeps_nothing():
    # coil 0 keeps nothing, coils 1 and 2 keep components: the rows of coil 1
    # come first, each (real, imaginary) pair in frequency order
    rng = np.random.default_rng(46)
    data = rng.standard_normal((3, 6, 2)) + 1j * rng.standard_normal((3, 6, 2))
    yspec = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    scores = np.zeros((3, 6))
    scores[1, [2, 5]] = 1.0
    scores[2, 0] = 1.0
    sel = select_frequencies(scores, 0.5, np.arange(6))
    reduced = assemble_reduced_system(data, yspec, sel)
    expected_index = [(1, 2, 0), (1, 2, 1), (1, 5, 0), (1, 5, 1), (2, 0, 0), (2, 0, 1)]
    assert np.array_equal(reduced.row_index, expected_index)
    for r, (c, j, part) in enumerate(expected_index):
        part_of = np.real if part == 0 else np.imag
        assert np.array_equal(reduced.A[r], part_of(data[c, j]) / reduced.scale)
        assert reduced.y[r] == part_of(yspec[c, j]) / reduced.scale


def test_assemble_two_identity_example():
    data = np.zeros((1, 4, 2), dtype=np.complex128)
    data[0, 1, 0] = 2.0
    data[0, 3, 1] = 2.0j
    yspec = np.zeros((1, 4), dtype=np.complex128)
    yspec[0, 1] = 6.0 + 2.0j
    yspec[0, 3] = 1.0 - 4.0j
    reduced = assemble_reduced_system(data, yspec, fixed_selection(1, [1, 3]))
    assert abs(reduced.scale - 2.0) <= 1e-9
    expected_a = np.array([[1.0, 0], [0, 0], [0, 0], [0, 1.0]])
    assert np.max(np.abs(reduced.A - expected_a)) <= 1e-9
    assert np.max(np.abs(reduced.y - np.array([3.0, 1.0, 0.5, -2.0]))) <= 1e-9


def test_assemble_identity_whitening_changes_nothing():
    rng = np.random.default_rng(42)
    data = rng.standard_normal((1, 5, 4)) + 1j * rng.standard_normal((1, 5, 4))
    yspec = rng.standard_normal((1, 5)) + 1j * rng.standard_normal((1, 5))
    sel = fixed_selection(1, [0, 2, 3])
    plain = assemble_reduced_system(data, yspec, sel)
    unit = assemble_reduced_system(data, yspec, sel, np.ones(6))
    assert np.array_equal(plain.A, unit.A)
    assert np.array_equal(plain.y, unit.y)
    assert plain.scale == unit.scale
    assert not plain.whitened and unit.whitened


def test_assemble_whitening_applied_before_scaling():
    rng = np.random.default_rng(43)
    data = rng.standard_normal((1, 3, 2)) + 1j * rng.standard_normal((1, 3, 2))
    yspec = rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3))
    sel = fixed_selection(1, [0, 2])
    weights = np.array([2.0, 0.5, 4.0, 1.0])
    reduced = assemble_reduced_system(data, yspec, sel, weights)
    raw = np.stack([data[0, 0].real, data[0, 0].imag,
                    data[0, 2].real, data[0, 2].imag])
    weighted = raw * weights[:, None]
    assert abs(reduced.scale - np.linalg.svd(weighted, compute_uv=False)[0]) <= 1e-6
    assert np.max(np.abs(reduced.A * reduced.scale - weighted)) <= 1e-12


def test_assembled_norm_is_one(system_1d, rng):
    yspec = rng.standard_normal((1, 129)) + 1j * rng.standard_normal((1, 129))
    sel = fixed_selection(1, list(range(20, 110)))
    for weights in (None, rng.uniform(0.5, 2.0, 180)):
        reduced = assemble_reduced_system(system_1d.data, yspec, sel, weights)
        top = np.linalg.svd(reduced.A, compute_uv=False)[0]
        assert top <= 1.0 + 1e-6


def test_complex_rows_reconstruct_selected_components():
    rng = np.random.default_rng(44)
    data = rng.standard_normal((2, 5, 3)) + 1j * rng.standard_normal((2, 5, 3))
    yspec = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    sel = fixed_selection(2, [0, 3])
    reduced = assemble_reduced_system(data, yspec, sel)
    # real row, then imaginary row, per retained component
    rows = (reduced.A[0::2] + 1j * reduced.A[1::2]) * reduced.scale
    stacked = np.concatenate([data[0, [0, 3], :], data[1, [0, 3], :]])
    assert np.max(np.abs(rows - stacked)) <= 1e-12 * np.max(np.abs(stacked))


def test_assemble_scaling_invariance():
    rng = np.random.default_rng(45)
    data = rng.standard_normal((1, 12, 4)) + 1j * rng.standard_normal((1, 12, 4))
    yspec = rng.standard_normal((1, 12)) + 1j * rng.standard_normal((1, 12))
    sel = fixed_selection(1, list(range(2, 10)))
    base = assemble_reduced_system(data, yspec, sel)
    scaled = assemble_reduced_system(3.0 * data, 3.0 * yspec, sel)
    assert abs(scaled.scale - 3.0 * base.scale) <= 1e-6 * scaled.scale
    x_base = lbfgsb(Objective("l2", base, 1e-2), SolverConfig()).x
    x_scaled = lbfgsb(Objective("l2", scaled, 1e-2), SolverConfig()).x
    assert np.max(np.abs(x_base - x_scaled)) <= 1e-8


def test_assemble_validation():
    data = np.zeros((1, 4, 2), dtype=np.complex128)
    data[0, 1, 0] = 1.0
    yspec = np.zeros((1, 4), dtype=np.complex128)
    empty = select_frequencies(np.zeros((1, 4)), 1.0, np.arange(4))
    with pytest.raises(ValueError):
        assemble_reduced_system(data, yspec, empty)
    sel = fixed_selection(1, [1])
    with pytest.raises(ValueError):
        assemble_reduced_system(data, yspec, sel, np.ones(4))
    with pytest.raises(ValueError):
        assemble_reduced_system(data, np.zeros((2, 4)), sel)
    with pytest.raises(NumericalError):
        assemble_reduced_system(np.zeros((1, 4, 2)), yspec, sel)


def test_reduced_system_validation():
    with pytest.raises(ValueError):
        ReducedSystem(np.ones((3, 2)), np.ones(2))
    with pytest.raises(ValueError):
        ReducedSystem(np.ones((3, 2)), np.ones(3), row_index=np.zeros((2, 3)))
    rs = ReducedSystem(np.ones((4, 2)), np.ones(4))
    assert rs.rows == 4 and rs.voxels == 2 and rs.scale == 1.0


def test_reduced_system_rejects_non_finite_values():
    a = np.ones((3, 2))
    for bad in (np.nan, np.inf, -np.inf):
        y = np.ones(3)
        y[1] = bad
        with pytest.raises(NumericalError):
            ReducedSystem(a, y)
        a_bad = a.copy()
        a_bad[2, 0] = bad
        with pytest.raises(NumericalError):
            ReducedSystem(a_bad, np.ones(3))


def full_array_composition(calib, empties, spectrum, q, band, tau, concentration, whiten):
    mu = interp_backgrounds(empties, calib.shape[0], q)
    selection = select_frequencies(snr_scores(calib, mu, empties, band), tau, band)
    measured = calibration_system_matrix(calib, mu, concentration)
    y = subtract_background(spectrum, background_mean(empties))
    weights = whitening_weights(empties, selection) if whiten else None
    return assemble_reduced_system(measured, y, selection, weights), selection, measured


def composition_case(system, q, base_std):
    """Empty scans, calibration scans and phantom spectrum drawn for system.

    Voxels 0..7 give no signal and bins below 40 no mean: with base_std = 0
    and a -0 drift their calibration scans are signed zeros, and so are
    their entries in A."""
    data = system.data.copy()
    data[:, :, :8] = complex(-0.0, -0.0)
    system = SystemMatrix(data, system.grid, system.period_ms)
    mean = np.full((system.coils, 129), complex(-0.0, -0.0))
    mean[:, 40:] = np.random.default_rng(37).standard_normal((system.coils, 89)) + 2.0j
    drift = 0.3 - 0.1j if base_std else complex(-0.0, -0.0)
    bg = BackgroundModel(mean, base_std**2, False, 1.0, drift)
    calib_idx, empty_idx = acquisition_schedule(system.voxel_count, q)
    empties = draw_empty_scans(bg, empty_idx.size, seed=11, schedule=empty_idx)
    calib = draw_calibration_scans(system, bg, 40.0, seed=12, scan_indices=calib_idx)
    spectrum = draw_phantom_measurement(system, make_phantom("shape-cone", system.grid, 50.0),
                                        bg, seed=13, scan_index=int(empty_idx[-1]) + 1).spectrum
    return calib, empties, spectrum


def check_reduce_scans(calib, empties, spectrum, q, band, tau, whiten):
    want, want_sel, measured = full_array_composition(calib, empties, spectrum, q, band,
                                                      tau, 40.0, whiten)
    calib_band = calib[:, :, band].transpose(1, 2, 0).copy()
    got, sel = reduce_scans(calib_band, empties, spectrum, q, band, tau, 40.0, whiten)
    assert got.A.tobytes() == want.A.tobytes() and got.y.tobytes() == want.y.tobytes()
    assert got.row_index.tobytes() == want.row_index.tobytes()
    assert got.scale == want.scale and got.whitened is whiten
    assert len(sel.selected) == calib.shape[1]
    for s, w in zip(sel.selected, want_sel.selected):
        assert s.tobytes() == w.tobytes()
    # A was built inside the band's buffer, from its first byte
    assert np.shares_memory(got.A, calib_band)
    assert got.A.__array_interface__["data"][0] == calib_band.__array_interface__["data"][0]
    return got


@pytest.mark.parametrize("q, base_std, b1, b2, tau, whiten", [
    (5, 1.0, 30.0, 90.0, 2.0, False),  # 64 voxels: the last bracket holds 4 scans
    (8, 0.0, 30.0, 90.0, 0.0, False),  # noise-free: signed zeros, infinite scores
    (8, 1.0, 30.0, 90.0, 1.0, True),
    (5, 1.0, 0.0, np.inf, 1.0, True),
])
def test_reduce_scans_matches_full_array_composition(system_2d, q, base_std, b1, b2, tau,
                                                     whiten):
    calib, empties, spectrum = composition_case(system_2d, q, base_std)
    band = band_pass(129, system_2d.period_ms, b1, b2)
    got = check_reduce_scans(calib, empties, spectrum, q, band, tau, whiten)
    if base_std == 0.0:
        assert (np.signbit(got.A) & (got.A == 0.0)).any()


@pytest.mark.parametrize("q, whiten", [(2, False), (3, True)])
def test_reduce_scans_matches_full_array_composition_one_coil(system_1d, q, whiten):
    # the columns of system_1d repeated 8 times give 40 calibration and 21
    # or 15 empty scans: enough for numpy's mean over a one-coil band, whose
    # scan axis lies innermost, to add pairwise. Setting tau to each score
    # in turn keeps or drops that component on its last bit, so the
    # selection shows any difference in how the scans are added.
    grid = VoxelGrid((40, 1, 1), system_1d.grid.spacing_mm)
    system = SystemMatrix(np.tile(system_1d.data, 8), grid, system_1d.period_ms)
    calib, empties, spectrum = composition_case(system, q, 1.0)
    band = band_pass(129, system.period_ms, 40.0, np.inf)
    scores = snr_scores(calib, interp_backgrounds(empties, calib.shape[0], q), empties, band)
    for tau in scores[0]:
        check_reduce_scans(calib, empties, spectrum, q, band, tau, whiten)


def test_reduce_scans_validation(system_1d):
    bg = BackgroundModel(np.zeros((1, 129)), 1.0, False, 1.0, 0.0)
    calib_idx, empty_idx = acquisition_schedule(5, 5)
    empties = draw_empty_scans(bg, empty_idx.size, seed=1, schedule=empty_idx)
    calib = draw_calibration_scans(system_1d, bg, 10.0, seed=2, scan_indices=calib_idx)
    spectrum = np.zeros((1, 129), dtype=np.complex128)
    band = np.arange(10, 20)
    calib = calib[:, :, band].transpose(1, 2, 0).copy()
    with pytest.raises(ValueError, match="tau=1e\\+30"):
        reduce_scans(calib.copy(), empties, spectrum, 5, band, 1e30, 10.0)
    for bad in (band[::2], band[::-1], np.arange(125, 135)):
        with pytest.raises(ValueError, match="consecutive"):
            reduce_scans(calib.copy(), empties, spectrum, 5, bad, 0.0, 10.0)
    with pytest.raises(ValueError, match="band's bins only"):
        reduce_scans(calib[:, 1:].copy(), empties, spectrum, 5, band, 0.0, 10.0)
    for q in (-1, 0, 1):
        with pytest.raises(ValueError, match="scans_per_bracket"):
            reduce_scans(calib.copy(), empties, spectrum, q, band, 0.0, 10.0)
    for bad in (calib.astype(np.complex64), calib.transpose(2, 0, 1).copy().transpose(1, 2, 0)):
        with pytest.raises(ValueError, match="C-contiguous complex128"):
            reduce_scans(bad, empties, spectrum, 5, band, 0.0, 10.0)
    with pytest.raises(ValueError, match="concentration"):
        reduce_scans(calib.copy(), empties, spectrum, 5, band, 0.0, 0.0)
    with pytest.raises(ValueError, match="schedule"):
        reduce_scans(calib.copy(), empties[:1], spectrum, 5, band, 0.0, 10.0)
