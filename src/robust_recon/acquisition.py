"""Synthetic signal acquisition: background, empty scans, noisy measurements.

The scanner background is modeled per spectral component as a fixed mean
(peaked at odd harmonics of each drive frequency), an optional linear drift
in the scan index, and additive complex Gaussian noise. A configurable
subset of components carries inflated noise ("outliers", e.g. mains or
amplifier interference lines); repetitions of a scan average the noise down
by sqrt(repetitions).

Scan scheduling interleaves empty (blank) scans with calibration scans:
one empty scan, then a bracket of ``scans_per_bracket`` calibration scans,
then the next empty scan, and so on, with a final empty scan after the last
bracket. Global scan indices feed the drift term.

Every draw builds its scans _BLOCK_SCANS at a time, one code path for
all three: signal plus mean, then drift, then noise, added into a new
block. calibration_scan_blocks yields those blocks in scan order, so a
writer can store the calibration set (52 MB at 40x40 voxels) without ever
holding it; the draw_* functions copy the blocks into the one array they
return. The system is a SystemMatrix or a FieldResponse: the draws read it
only through columns and apply, which give the same bits on both, so a
FieldResponse draws every scan without the system matrix ever existing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # load at import, not on the first draw

from .model import FieldResponse, Phantom, SystemMatrix

__all__ = [
    "BackgroundModel",
    "Measurement",
    "make_background",
    "acquisition_schedule",
    "draw_empty_scans",
    "calibration_scan_blocks",
    "draw_calibration_scans",
    "draw_phantom_measurement",
    "background_mean",
]

# scans per block of the drift and noise terms: 0.5 MB temporaries at
# 2 coils x 1025 bins
_BLOCK_SCANS = 16


@dataclass
class BackgroundModel:
    """Per-component background statistics.

    ``base_variance`` is the Gaussian variance of the real part and of the
    imaginary part of each component separately. ``outlier_mask`` marks
    components whose noise std is multiplied by ``outlier_scale``. ``drift``
    is a complex slope added as drift * scan_index.
    """

    mean_spectrum: np.ndarray
    base_variance: np.ndarray
    outlier_mask: np.ndarray
    outlier_scale: float
    drift: np.ndarray

    def __post_init__(self):
        self.mean_spectrum = np.asarray(self.mean_spectrum, dtype=np.complex128)
        if self.mean_spectrum.ndim != 2:
            raise ValueError("mean_spectrum must have shape (coils, freqs)")
        shape = self.mean_spectrum.shape
        self.base_variance = np.broadcast_to(
            np.asarray(self.base_variance, dtype=np.float64), shape
        ).copy()
        if np.any(self.base_variance < 0):
            raise ValueError("base_variance must be nonnegative")
        self.outlier_mask = np.broadcast_to(
            np.asarray(self.outlier_mask, dtype=bool), shape
        ).copy()
        if self.outlier_scale < 1:
            raise ValueError("outlier_scale must be >= 1")
        self.outlier_scale = float(self.outlier_scale)
        self.drift = np.broadcast_to(
            np.asarray(self.drift, dtype=np.complex128), shape
        ).copy()

    @property
    def shape(self) -> tuple[int, int]:
        return self.mean_spectrum.shape

    def outlier_indices(self) -> list[tuple[int, int]]:
        """Flagged components as (coil, frequency index) pairs."""
        return [tuple(idx) for idx in np.argwhere(self.outlier_mask)]

    def noise_std(self) -> np.ndarray:
        """Effective per-part noise std of a single scan."""
        std = np.sqrt(self.base_variance)
        return np.where(self.outlier_mask, std * self.outlier_scale, std)


def make_background(coils: int, freq_count: int, period_ms: float,
                    drive_frequencies_khz, base_std: float,
                    mean_peak: float, mean_decay: float = 0.5,
                    outlier_fraction: float = 0.03, outlier_scale: float = 100.0,
                    drift_scale: float = 0.0, seed: int = 0) -> BackgroundModel:
    """Stock background profile.

    The mean spectrum has peaks of amplitude mean_peak * mean_decay**k at the
    odd harmonics (1, 3, 5, ...) of every drive frequency, with random phases
    drawn from ``seed``. A fraction of all components (rounded) is flagged as
    outliers. ``drift_scale`` expresses the per-scan drift magnitude in units
    of base_std. A drive frequency below one bin, round(f * period_ms) < 1,
    raises ValueError.
    """
    if base_std < 0 or mean_peak < 0 or not 0 <= outlier_fraction <= 1:
        raise ValueError("invalid background profile parameters")
    rng = np.random.default_rng(seed)
    mean = np.zeros((coils, freq_count), dtype=np.complex128)
    for f in drive_frequencies_khz:
        base_bin = round(f * period_ms)
        if base_bin < 1:
            raise ValueError(f"drive frequency {f} kHz is below one frequency bin")
        # harmonic 2k + 1 sits at bin (2k + 1) * base_bin
        for k, j in enumerate(range(base_bin, freq_count, 2 * base_bin)):
            phase = rng.uniform(0.0, 2.0 * np.pi, size=coils)
            mean[:, j] += mean_peak * mean_decay**k * np.exp(1j * phase)
    total = coils * freq_count
    n_out = int(round(outlier_fraction * total))
    mask = np.zeros(total, dtype=bool)
    if n_out > 0:
        mask[rng.choice(total, size=n_out, replace=False)] = True
    mask = mask.reshape(coils, freq_count)
    if drift_scale != 0.0:
        drift = drift_scale * base_std * (
            rng.standard_normal((coils, freq_count))
            + 1j * rng.standard_normal((coils, freq_count))
        )
    else:
        drift = np.zeros((coils, freq_count), dtype=np.complex128)
    return BackgroundModel(mean, base_std**2, mask, outlier_scale, drift)


@dataclass
class Measurement:
    """One acquired spectrum set (coils, freqs)."""

    spectrum: np.ndarray

    def __post_init__(self):
        self.spectrum = np.asarray(self.spectrum, dtype=np.complex128)
        if self.spectrum.ndim != 2:
            raise ValueError("measurement spectrum must have shape (coils, freqs)")


def acquisition_schedule(voxel_count: int, scans_per_bracket: int):
    """Global scan indices of calibration and empty scans.

    Returns (calibration_indices, empty_indices). Empty scan b sits at index
    b * (Q + 1); the q-th calibration scan of bracket b at b*(Q+1) + 1 + q.
    The number of empty scans is ceil(m/Q) + 1 so every bracket is enclosed.
    """
    if voxel_count < 1:
        raise ValueError("voxel_count must be positive")
    q = int(scans_per_bracket)
    if q < 2:
        raise ValueError("scans_per_bracket must be >= 2")
    brackets = -(-voxel_count // q)
    empty = np.arange(brackets + 1, dtype=np.int64) * (q + 1)
    i = np.arange(voxel_count, dtype=np.int64)
    calib = (i // q) * (q + 1) + 1 + (i % q)
    return calib, empty


def _scan_blocks(base, count: int, bg: BackgroundModel, scan_indices, seed: int,
                 repetitions: int):
    """Scans 0..count-1 as a generator of blocks of _BLOCK_SCANS, in scan
    order: each block is base(lo, hi), a new writable (hi - lo, coils,
    freqs) array, plus drift * scan_indices[i] and then complex noise, added
    in place. Raises ValueError when repetitions < 1 at once; nothing is
    drawn before the first block is asked for.

    The noise is (re + 1j*im) * std/sqrt(repetitions), where the stream of
    ``seed`` draws every real part of all count scans before any imaginary
    part. A second generator from the same seed, advanced past the real
    draws, yields the imaginary parts block by block; chunked draws give the
    values of one draw. A standard normal draw is never +-0, so setting the
    parts of a complex block gives the bits of re + 1j*im, and the complex
    multiply keeps the sign of zero a real one would lose when std is 0.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    std = bg.noise_std() / np.sqrt(repetitions)

    def blocks():
        re_rng = np.random.default_rng(seed)
        im_rng = np.random.default_rng(seed)
        part = np.empty((_BLOCK_SCANS,) + bg.shape)
        noise = np.empty(part.shape, dtype=np.complex128)
        for lo in range(0, count, _BLOCK_SCANS):
            im_rng.standard_normal(out=part[:count - lo])
        for lo in range(0, count, _BLOCK_SCANS):
            block = base(lo, min(lo + _BLOCK_SCANS, count))
            n = block.shape[0]
            block += bg.drift * scan_indices[lo:lo + n, None, None]
            noise.real[:n] = re_rng.standard_normal(out=part[:n])
            noise.imag[:n] = im_rng.standard_normal(out=part[:n])
            noise[:n] *= std
            block += noise[:n]
            yield block

    return blocks()


def _collect(blocks, count: int, bg: BackgroundModel) -> np.ndarray:
    """The blocks of _scan_blocks copied into one (count, coils, freqs) array."""
    out = np.empty((count,) + bg.shape, dtype=np.complex128)
    lo = 0
    for block in blocks:
        out[lo:lo + block.shape[0]] = block
        lo += block.shape[0]
    return out


def draw_empty_scans(bg: BackgroundModel, count: int, seed: int,
                     schedule=None, repetitions: int = 1) -> np.ndarray:
    """Draw ``count`` blank scans at the global scan indices ``schedule``
    (default 0..count-1): complex spectra of shape (count, coils, freqs),
    mean + drift * schedule[i] + noise in that order."""
    if count < 2:
        raise ValueError("at least 2 empty scans are required")
    if schedule is None:
        schedule = np.arange(count, dtype=np.int64)
    schedule = np.asarray(schedule, dtype=np.int64)
    if schedule.shape != (count,):
        raise ValueError("schedule must give one scan index per empty scan")

    def mean(lo, hi):
        return np.repeat(bg.mean_spectrum[None], hi - lo, axis=0)

    return _collect(_scan_blocks(mean, count, bg, schedule, seed, repetitions), count, bg)


def calibration_scan_blocks(system: SystemMatrix | FieldResponse, bg: BackgroundModel,
                            concentration: float, seed: int,
                            scan_indices, repetitions: int = 1):
    """Noisy delta-sample spectra, one scan per voxel, as a generator of new
    C-contiguous (n, coils, freqs) blocks of _BLOCK_SCANS scans in scan
    order, so a writer can store them as they are drawn. Each block takes
    its voxels' columns from system.columns, so with a FieldResponse the
    stream holds one block's columns at a time.

    Scan i measures a point sample of the given concentration in voxel i at
    global scan index scan_indices[i]: concentration * S[:, :, i] + mean +
    drift * scan_indices[i] + noise, added in that order. The arguments are
    checked here, before the first block: ValueError on a nonpositive
    concentration, repetitions < 1, or a schedule or background that does
    not fit the system matrix.
    """
    if concentration <= 0:
        raise ValueError("calibration concentration must be positive")
    scan_indices = np.asarray(scan_indices, dtype=np.int64)
    if scan_indices.shape != (system.voxel_count,):
        raise ValueError("need one scan index per voxel")
    if bg.shape != (system.coils, system.freq_count):
        raise ValueError("background shape does not match the system matrix")

    def signal(lo, hi):
        block = np.multiply(concentration, system.columns(slice(lo, hi)).transpose(2, 0, 1),
                            order="C")
        block += bg.mean_spectrum
        return block

    return _scan_blocks(signal, system.voxel_count, bg, scan_indices, seed, repetitions)


def draw_calibration_scans(system: SystemMatrix | FieldResponse, bg: BackgroundModel,
                           concentration: float, seed: int,
                           scan_indices, repetitions: int = 1) -> np.ndarray:
    """The blocks of calibration_scan_blocks in one C-contiguous (voxels,
    coils, freqs) array. Raises ValueError as that function does."""
    blocks = calibration_scan_blocks(system, bg, concentration, seed, scan_indices,
                                     repetitions)
    return _collect(blocks, system.voxel_count, bg)


def draw_phantom_measurement(system: SystemMatrix | FieldResponse, phantom: Phantom,
                             bg: BackgroundModel, seed: int,
                             scan_index: int = 0, repetitions: int = 1) -> Measurement:
    """One noisy phantom measurement: S*x + mean + drift*scan_index + noise."""
    if bg.shape != (system.coils, system.freq_count):
        raise ValueError("background shape does not match the system matrix")

    def signal(lo, hi):
        return (system.apply(phantom.flat()) + bg.mean_spectrum)[None]

    blocks = _scan_blocks(signal, 1, bg, np.array([scan_index], dtype=np.int64), seed,
                          repetitions)
    return Measurement(_collect(blocks, 1, bg)[0])


def background_mean(scans: np.ndarray) -> np.ndarray:
    """Componentwise mean spectrum over all empty scans (count, coils, freqs)."""
    return np.mean(scans, axis=0)
