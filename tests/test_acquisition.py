import numpy as np
import pytest

from robust_recon import acquisition
from robust_recon.acquisition import (
    BackgroundModel,
    Measurement,
    acquisition_schedule,
    background_mean,
    calibration_scan_blocks,
    draw_calibration_scans,
    draw_empty_scans,
    draw_phantom_measurement,
    make_background,
)
from robust_recon.model import Phantom, VoxelGrid, make_phantom, simulate_system_matrix


def quiet_background(shape, seed=99, variance=1.0, drift=0.0):
    rng = np.random.default_rng(seed)
    mean = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return BackgroundModel(mean, variance, False, 1.0, drift)


def test_background_model_validation():
    with pytest.raises(ValueError):
        BackgroundModel(np.zeros(4), 1.0, False, 1.0, 0.0)
    with pytest.raises(ValueError):
        BackgroundModel(np.zeros((1, 4)), -1.0, False, 1.0, 0.0)
    with pytest.raises(ValueError):
        BackgroundModel(np.zeros((1, 4)), 1.0, False, 0.5, 0.0)


def test_background_model_noise_std():
    mask = np.array([[False, True, False]])
    bg = BackgroundModel(np.zeros((1, 3)), 4.0, mask, 10.0, 0.0)
    assert np.array_equal(bg.noise_std(), [[2.0, 20.0, 2.0]])
    assert bg.outlier_indices() == [(0, 1)]


def test_make_background_harmonic_peaks():
    bg = make_background(1, 129, 1.0, (25.0,), base_std=0.0, mean_peak=200.0,
                         mean_decay=0.5, outlier_fraction=0.0)
    mag = np.abs(bg.mean_spectrum[0])
    assert abs(mag[25] - 200.0) <= 1e-12 * 200.0
    assert abs(mag[75] - 100.0) <= 1e-12 * 100.0
    assert abs(mag[125] - 50.0) <= 1e-12 * 50.0
    quiet = np.delete(mag, [25, 75, 125])
    assert np.all(quiet == 0.0)


@pytest.mark.parametrize("khz", [0.2, -15.625])
def test_make_background_rejects_drive_frequency_below_one_bin(khz):
    # such a frequency has no harmonic bin to stop at: it must raise, not hang
    with pytest.raises(ValueError, match=f"drive frequency {khz} kHz"):
        make_background(2, 65, 1.0, (khz,), 1.0, 10.0)


def test_make_background_outlier_count_and_determinism():
    a = make_background(2, 200, 1.0, (25.0,), 1.0, 5.0, outlier_fraction=0.03, seed=3)
    b = make_background(2, 200, 1.0, (25.0,), 1.0, 5.0, outlier_fraction=0.03, seed=3)
    assert a.outlier_mask.sum() == round(0.03 * 400)
    assert np.array_equal(a.mean_spectrum, b.mean_spectrum)
    assert np.array_equal(a.outlier_mask, b.outlier_mask)
    with pytest.raises(ValueError):
        make_background(1, 8, 1.0, (), base_std=-1.0, mean_peak=1.0)
    with pytest.raises(ValueError):
        make_background(1, 8, 1.0, (), base_std=1.0, mean_peak=1.0, outlier_fraction=1.5)


def test_zero_variance_zero_drift_scans_equal_mean():
    bg = quiet_background((2, 9), variance=0.0)
    scans = draw_empty_scans(bg, 2, seed=1)
    assert np.array_equal(scans[0], bg.mean_spectrum)
    assert np.array_equal(scans[1], bg.mean_spectrum)


def test_outlier_variance_matches_model_monte_carlo():
    mask = np.zeros((1, 8), dtype=bool)
    mask[0, 3] = True
    bg = BackgroundModel(np.zeros((1, 8)), 1.0, mask, 10.0, 0.0)
    scans = draw_empty_scans(bg, 1000, seed=7)
    var_re = scans.real.var(axis=0, ddof=1)
    var_im = scans.imag.var(axis=0, ddof=1)
    target = 100.0  # (outlier_scale * base_std)**2
    assert abs(var_re[0, 3] - target) <= 0.15 * target
    assert abs(var_im[0, 3] - target) <= 0.15 * target
    clean = np.delete(var_re[0], 3)
    assert np.all(np.abs(clean - 1.0) <= 0.3)


def test_draw_empty_scans_determinism():
    bg = quiet_background((2, 16))
    a = draw_empty_scans(bg, 5, seed=42)
    b = draw_empty_scans(bg, 5, seed=42)
    c = draw_empty_scans(bg, 5, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_draw_empty_scans_validation():
    bg = quiet_background((1, 4))
    for count in (0, 1):
        with pytest.raises(ValueError, match="at least 2 empty scans"):
            draw_empty_scans(bg, count, seed=0)
    for schedule in ([0, 1], [0, 1, 2, 3], [[0, 1, 2]]):
        with pytest.raises(ValueError, match="one scan index per empty scan"):
            draw_empty_scans(bg, 3, seed=0, schedule=schedule)
    scans = draw_empty_scans(bg, 3, seed=0, schedule=[0, 5, 10])
    assert scans.shape == (3, 1, 4) and scans.dtype == np.complex128


def test_drift_enters_linearly_in_scan_index():
    drift = 0.25 - 0.5j
    bg = quiet_background((1, 6), variance=0.0, drift=drift)
    scans = draw_empty_scans(bg, 3, seed=0, schedule=[0, 4, 8])
    assert np.array_equal(scans[0], bg.mean_spectrum)
    assert np.array_equal(scans[1], bg.mean_spectrum + bg.drift * 4)
    assert np.array_equal(scans[2], bg.mean_spectrum + bg.drift * 8)


def test_repetitions_halve_noise_exactly():
    # zero mean isolates the noise term; the 1/sqrt(4) scale is a power of
    # two, so four repetitions reproduce the single draw halved bitwise
    bg = BackgroundModel(np.zeros((2, 8)), 1.0, False, 1.0, 0.0)
    one = draw_empty_scans(bg, 4, seed=11, repetitions=1)
    four = draw_empty_scans(bg, 4, seed=11, repetitions=4)
    assert np.array_equal(four, one / 2.0)


def test_zero_phantom_zero_noise_measurement_is_mean(system_1d):
    grid = system_1d.grid
    phantom = Phantom(grid, np.zeros(grid.shape), "custom", 50.0)
    bg = quiet_background((1, system_1d.freq_count), variance=0.0)
    meas = draw_phantom_measurement(system_1d, phantom, bg, seed=5)
    assert np.array_equal(meas.spectrum, bg.mean_spectrum)


def test_zero_background_measurement_is_forward_model(system_1d):
    phantom = make_phantom("delta", system_1d.grid, 50.0)
    bg = BackgroundModel(np.zeros((1, system_1d.freq_count)), 0.0, False, 1.0, 0.0)
    meas = draw_phantom_measurement(system_1d, phantom, bg, seed=5, scan_index=9)
    assert np.array_equal(meas.spectrum, system_1d.apply(phantom.flat()))
    # the scan index enters through the drift term alone
    drifting = BackgroundModel(np.zeros((1, system_1d.freq_count)), 0.0, False, 1.0,
                               0.25 - 0.5j)
    meas = draw_phantom_measurement(system_1d, phantom, drifting, seed=5, scan_index=9)
    assert np.array_equal(meas.spectrum,
                          system_1d.apply(phantom.flat()) + drifting.drift * 9)


def test_measurement_mean_converges_to_signal_plus_mean(system_1d):
    phantom = make_phantom("delta", system_1d.grid, 50.0)
    bg = quiet_background((1, system_1d.freq_count), variance=1.0)
    expected = system_1d.apply(phantom.flat()) + bg.mean_spectrum
    acc = np.zeros_like(expected)
    n = 2000
    for seed in range(5000, 5000 + n):
        acc += draw_phantom_measurement(system_1d, phantom, bg, seed=seed).spectrum
    residual = acc / n - expected
    bound = 3.0 / np.sqrt(n)  # 3 * std / sqrt(n) per quadrature
    assert np.max(np.abs(residual.real)) <= bound
    assert np.max(np.abs(residual.imag)) <= bound


def test_measurement_validation(system_1d):
    phantom = make_phantom("delta", system_1d.grid, 50.0)
    bg = quiet_background((2, 5))
    with pytest.raises(ValueError):
        draw_phantom_measurement(system_1d, phantom, bg, seed=0)
    with pytest.raises(ValueError, match="shape"):
        Measurement(np.zeros(4))


def test_background_mean_examples():
    spec = np.arange(6, dtype=float).reshape(1, 6) + 1j
    assert np.array_equal(background_mean(np.stack([spec, spec, spec])), spec)
    pair = np.stack([spec * 0 + 1.0, spec * 0 + 3.0])
    assert np.array_equal(background_mean(pair), np.full((1, 6), 2.0 + 0.0j))


def test_background_mean_concentrates():
    bg = quiet_background((1, 33), variance=1.0)
    scans = draw_empty_scans(bg, 1000, seed=21)
    residual = background_mean(scans) - bg.mean_spectrum
    bound = 4.0 / np.sqrt(1000)
    assert np.max(np.abs(residual.real)) <= bound
    assert np.max(np.abs(residual.imag)) <= bound


def test_outlier_components_dominate_median_variance():
    bg = make_background(2, 200, 1.0, (25.0,), base_std=1.0, mean_peak=5.0,
                         outlier_fraction=0.03, outlier_scale=100.0, seed=3)
    scans = draw_empty_scans(bg, 200, seed=5)
    var_re = scans.real.var(axis=0, ddof=1)
    var_im = scans.imag.var(axis=0, ddof=1)
    total = var_re + var_im
    median = np.median(total)
    for coil, freq in bg.outlier_indices():
        assert total[coil, freq] >= 10.0 * median


def test_top_variance_components_recover_injected_outliers():
    bg = make_background(2, 200, 1.0, (25.0,), base_std=1.0, mean_peak=5.0,
                         outlier_fraction=0.03, outlier_scale=50.0, seed=3)
    injected = {tuple(ix) for ix in np.argwhere(bg.outlier_mask)}
    scans = draw_empty_scans(bg, 1000, seed=5)
    var_re = scans.real.var(axis=0, ddof=1)
    var_im = scans.imag.var(axis=0, ddof=1)
    total = var_re + var_im
    order = np.argsort(total.ravel())[::-1][: len(injected)]
    top = {tuple(ix) for ix in np.array(np.unravel_index(order, total.shape)).T}
    assert len(top & injected) >= 0.9 * len(injected)


def test_acquisition_schedule_example():
    calib, empty = acquisition_schedule(4, 2)
    assert np.array_equal(calib, [1, 2, 4, 5])
    assert np.array_equal(empty, [0, 3, 6])


def test_acquisition_schedule_structure():
    calib, empty = acquisition_schedule(400, 19)
    assert calib.shape == (400,)
    assert empty.shape == (-(-400 // 19) + 1,)
    combined = np.concatenate([calib, empty])
    assert len(np.unique(combined)) == combined.size
    # every calibration scan falls strictly between two empty scans
    for i in calib:
        assert empty[np.searchsorted(empty, i) - 1] < i < empty[np.searchsorted(empty, i)]


def test_acquisition_schedule_validation():
    with pytest.raises(ValueError):
        acquisition_schedule(0, 2)
    with pytest.raises(ValueError):
        acquisition_schedule(4, 1)


def test_calibration_scans_zero_noise_exact(system_1d):
    bg = quiet_background((1, system_1d.freq_count), variance=0.0, drift=0.125 + 0.25j)
    indices = np.array([1, 2, 4, 5, 7])
    scans = draw_calibration_scans(system_1d, bg, 80.0, seed=0, scan_indices=indices)
    assert scans.shape == (5, 1, system_1d.freq_count)
    for i, idx in enumerate(indices):
        expected = 80.0 * system_1d.data[:, :, i] + bg.mean_spectrum + bg.drift * idx
        assert np.array_equal(scans[i], expected)


def test_calibration_scans_validation(system_1d):
    bg = quiet_background((1, system_1d.freq_count))
    with pytest.raises(ValueError):
        draw_calibration_scans(system_1d, bg, 0.0, seed=0, scan_indices=np.arange(5))
    with pytest.raises(ValueError):
        draw_calibration_scans(system_1d, bg, 80.0, seed=0, scan_indices=np.arange(4))
    with pytest.raises(ValueError):
        draw_calibration_scans(system_1d, quiet_background((2, 7)), 80.0, seed=0,
                               scan_indices=np.arange(5))
    # the generator checks its arguments when called, before any block
    with pytest.raises(ValueError):
        calibration_scan_blocks(system_1d, bg, 0.0, seed=0, scan_indices=np.arange(5))
    with pytest.raises(ValueError):
        calibration_scan_blocks(system_1d, bg, 80.0, seed=0, scan_indices=np.arange(4))


def _noise_reference(rng, shape, std, repetitions):
    # _draw_noise before the in-place parts, kept as the oracle
    scale = std / np.sqrt(repetitions)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_draws_match_reference_formulas_bitwise(system_2d):
    # drift, repetitions and outlier components all on, against the
    # whole-array expressions the draws were written as
    bg = make_background(system_2d.coils, system_2d.freq_count, system_2d.period_ms,
                         (15.625, 16.6015625), base_std=0.5, mean_peak=30.0,
                         outlier_fraction=0.05, outlier_scale=100.0, drift_scale=0.5,
                         seed=4)
    assert bg.outlier_mask.any() and np.all(bg.drift != 0)
    calib_idx, empty_idx = acquisition_schedule(system_2d.voxel_count, 6)
    std = bg.noise_std()

    scans = draw_calibration_scans(system_2d, bg, 80.0, seed=7, scan_indices=calib_idx,
                                   repetitions=4)
    rng = np.random.default_rng(7)
    signal = 80.0 * np.transpose(system_2d.data, (2, 0, 1))
    noise = _noise_reference(rng, signal.shape, std[None, :, :], 4)
    want = (signal + bg.mean_spectrum[None, :, :]
            + bg.drift[None, :, :] * calib_idx[:, None, None] + noise)
    assert scans.flags.c_contiguous
    assert scans.shape == want.shape and scans.tobytes() == want.tobytes()

    empties = draw_empty_scans(bg, empty_idx.size, seed=8, schedule=empty_idx,
                               repetitions=4)
    rng = np.random.default_rng(8)
    noise = _noise_reference(rng, (empty_idx.size,) + bg.shape, std[None, :, :], 4)
    want = bg.mean_spectrum[None, :, :] + bg.drift[None, :, :] * empty_idx[:, None, None] + noise
    assert empties.tobytes() == want.tobytes()

    phantom = make_phantom("shape-cone", system_2d.grid, 50.0)
    meas = draw_phantom_measurement(system_2d, phantom, bg, seed=9, scan_index=40,
                                    repetitions=3)
    rng = np.random.default_rng(9)
    noise = _noise_reference(rng, bg.shape, std, 3)
    want = system_2d.apply(phantom.flat()) + bg.mean_spectrum + bg.drift * 40 + noise
    assert meas.spectrum.tobytes() == want.tobytes()


@pytest.mark.parametrize("drift_scale", [0.0, 0.5])
@pytest.mark.parametrize("base_std", [0.0, 0.5])
def test_blocked_drift_matches_whole_array_drift(scanner_2d, drift_scale, base_std):
    # 35 scans: two full drift blocks and a partial one; with base_std = 0
    # the noise is +-0, so the signed zeros planted in the signal and the
    # mean show whether the +0 drift term was added
    system = simulate_system_matrix(scanner_2d, VoxelGrid((7, 5, 1), (1.0, 1.0, 1.0)))
    assert system.voxel_count % acquisition._BLOCK_SCANS != 0
    bg = make_background(system.coils, system.freq_count, system.period_ms,
                         (15.625, 16.6015625), base_std=base_std, mean_peak=30.0,
                         drift_scale=drift_scale, seed=4)
    system.data[..., ::5] = complex(-0.0, -0.0)
    bg.mean_spectrum[:, ::3] = complex(-0.0, -0.0)
    calib_idx, _ = acquisition_schedule(system.voxel_count, 6)
    scans = draw_calibration_scans(system, bg, 80.0, seed=7, scan_indices=calib_idx)
    # the whole-array drift term the blocks replace
    want = np.multiply(80.0, system.data.transpose(2, 0, 1), order="C")
    want += bg.mean_spectrum
    want += bg.drift * calib_idx[:, None, None]
    want += _noise_reference(np.random.default_rng(7), want.shape, bg.noise_std(), 1)
    assert scans.tobytes() == want.tobytes()


def _whole_array_noise(rng, shape, std, repetitions):
    # the whole-array draw the blocks replace: every real part, then every
    # imaginary part, then one complex multiply by the scaled std
    noise = np.empty(shape, dtype=np.complex128)
    noise.real = rng.standard_normal(shape)
    noise.imag = rng.standard_normal(shape)
    noise *= std / np.sqrt(repetitions)
    return noise


@pytest.mark.parametrize("repetitions", [1, 3])
@pytest.mark.parametrize("base_std, drift_scale", [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0),
                                                   (0.5, 0.5)])
def test_blocked_noise_matches_whole_array_noise(scanner_2d, base_std, drift_scale,
                                                 repetitions):
    # 35 calibration and 35 empty scans: two full blocks and a partial one.
    # With base_std = 0 the noise is +-0. The signed zeros planted in the
    # signal, the mean and the drift keep the real part -0 up to the noise
    # term, so its sign of zero shows whether the complex multiply was kept.
    system = simulate_system_matrix(scanner_2d, VoxelGrid((7, 5, 1), (1.0, 1.0, 1.0)))
    assert system.voxel_count % acquisition._BLOCK_SCANS != 0
    bg = make_background(system.coils, system.freq_count, system.period_ms,
                         (15.625, 16.6015625), base_std=base_std, mean_peak=30.0,
                         drift_scale=drift_scale, seed=4)
    assert np.any(bg.drift != 0) == (drift_scale * base_std != 0)
    system.data[..., ::5] = complex(-0.0, -0.0)
    bg.mean_spectrum[:, ::3] = complex(-0.0, -0.0)
    bg.drift[:, ::3] = complex(-0.0, 0.0)  # drift * index then has a -0 real part
    std = bg.noise_std()
    idx = 3 * np.arange(system.voxel_count, dtype=np.int64) + 1

    scans = draw_calibration_scans(system, bg, 80.0, seed=7, scan_indices=idx,
                                   repetitions=repetitions)
    want = np.multiply(80.0, system.data.transpose(2, 0, 1), order="C")
    want += bg.mean_spectrum
    want += bg.drift * idx[:, None, None]
    want += _whole_array_noise(np.random.default_rng(7), want.shape, std, repetitions)
    assert scans.tobytes() == want.tobytes()
    # the streamed blocks: new C-contiguous arrays in scan order, 16 scans
    # each but the last, with the bits of the whole-array reference
    blocks = list(calibration_scan_blocks(system, bg, 80.0, seed=7, scan_indices=idx,
                                          repetitions=repetitions))
    assert [b.shape[0] for b in blocks] == [16, 16, 3]
    assert all(b.flags.c_contiguous and b.flags.owndata for b in blocks)
    assert np.concatenate(blocks).tobytes() == want.tobytes()

    empties = draw_empty_scans(bg, idx.size, seed=8, schedule=idx, repetitions=repetitions)
    want = (bg.mean_spectrum[None, :, :] + bg.drift[None, :, :] * idx[:, None, None]
            + _whole_array_noise(np.random.default_rng(8), empties.shape, std[None, :, :],
                                 repetitions))
    assert empties.tobytes() == want.tobytes()

    phantom = make_phantom("shape-cone", system.grid, 50.0)
    meas = draw_phantom_measurement(system, phantom, bg, seed=9, scan_index=40,
                                    repetitions=repetitions)
    want = (system.apply(phantom.flat()) + bg.mean_spectrum + bg.drift * 40
            + _whole_array_noise(np.random.default_rng(9), bg.shape, std, repetitions))
    assert meas.spectrum.tobytes() == want.tobytes()


@pytest.mark.parametrize("repetitions", [0, -1])
def test_draws_reject_repetitions_below_one(system_1d, repetitions):
    bg = quiet_background((1, system_1d.freq_count))
    phantom = make_phantom("delta", system_1d.grid, 50.0)
    with pytest.raises(ValueError, match="repetitions must be >= 1"):
        draw_empty_scans(bg, 3, seed=0, repetitions=repetitions)
    with pytest.raises(ValueError, match="repetitions must be >= 1"):
        draw_calibration_scans(system_1d, bg, 80.0, seed=0, scan_indices=np.arange(5),
                               repetitions=repetitions)
    with pytest.raises(ValueError, match="repetitions must be >= 1"):
        # at the call, not at the first block
        calibration_scan_blocks(system_1d, bg, 80.0, seed=0, scan_indices=np.arange(5),
                                repetitions=repetitions)
    with pytest.raises(ValueError, match="repetitions must be >= 1"):
        draw_phantom_measurement(system_1d, phantom, bg, seed=0, repetitions=repetitions)
